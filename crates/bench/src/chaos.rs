//! Chaos scenarios and the transport invariant oracle.
//!
//! A [`ChaosSpec`] is a flat bundle of small integers — seed, variant
//! index, per-mille impairment rates — so the testkit shrinker can walk
//! every field toward zero independently: a minimal failing scenario is
//! one where every rate that does not matter has shrunk away. The spec
//! expands into a `(FaultPlan, ImpairPlan, ClockPlan, workload, variant)`
//! scenario — control-plane, data-path, and time-plane chaos together —
//! runs through the emulator, and the resulting [`RunResult`] is checked
//! against [`check_invariants`] — the oracle every chaos case must pass:
//!
//! 1. **Exactly-once in-order delivery**: a flow that completed without a
//!    [`ConnError`](tcp::ConnError) acknowledged and delivered exactly its
//!    configured bytes — no loss, duplication, or corruption survived the
//!    transport (payload damage is detected by the end-to-end checksum).
//! 2. **Byte conservation**: delivered ≤ sent, acked ≤ configured.
//! 3. **No silent stall**: every flow either completes or surfaces an
//!    explicit `ConnError` within a horizon that is generous for the
//!    scenario. A flow that does neither is deadlocked.
//! 4. **Stats sanity**: checksum-discarded segments never exceed the
//!    damaged copies the network actually delivered — one per corruption,
//!    plus one more for each EPS-corrupted segment the wire then
//!    duplicated — and a corruption-free plan yields zero `corrupt_rx`.

use crate::variants::Variant;
use crate::workload::Workload;
use rdcn::{ClockPlan, EpsBurst, FaultPlan, ImpairPlan, NetConfig, RunResult, SlotEdgePolicy};
use simcore::{SimDuration, SimTime};

/// Scenario horizon. Generous relative to the largest generated transfer
/// (a clean run completes in a few milliseconds), so a flow that neither
/// completes nor errors by the horizon is stalled, not slow.
pub const CHAOS_HORIZON: SimTime = SimTime::from_millis(250);

/// Variants exercised by the chaos harness.
pub const CHAOS_VARIANTS: [Variant; 3] = [Variant::Tdtcp, Variant::Cubic, Variant::ReTcp];

/// One chaos scenario, encoded as shrink-friendly scalars.
#[derive(Debug, Clone)]
pub struct ChaosSpec {
    /// Emulator seed (also drives the fault and impairment streams).
    pub seed: u64,
    /// Index into [`CHAOS_VARIANTS`] (mod its length).
    pub variant_idx: u8,
    /// Concurrent flows, 1 + (flows_idx mod 3).
    pub flows_idx: u8,
    /// Transfer size: 16 kB + this many kB per flow.
    pub bytes_kb: u32,
    /// Segment loss rate, per mille.
    pub loss_pm: u32,
    /// Reorder (extra-delay) rate, per mille.
    pub reorder_pm: u32,
    /// Upper bound of the reorder extra delay, µs (min 1).
    pub reorder_delay_us: u32,
    /// Duplication rate, per mille.
    pub dup_pm: u32,
    /// Payload corruption rate, per mille.
    pub corrupt_pm: u32,
    /// TDN-notification loss rate, per mille (control-plane chaos).
    pub notify_loss_pm: u32,
    /// Whether an EPS fault burst (drops + corruption in a 2 ms window)
    /// is layered on top.
    pub eps_burst: bool,
    /// Per-host static clock-offset bound, µs (time-plane chaos). Capped
    /// by [`Self::clock_plan`] so scenarios stay live — see there.
    pub clock_offset_us: u32,
    /// Per-host clock drift-rate bound, ppm (capped by `clock_plan`).
    pub clock_drift_ppm: u32,
    /// Index into `[Drop, Defer, WrongTdn]` (mod 3): what the fabric
    /// does with a launch mis-timed beyond the guard band.
    pub slot_edge_idx: u8,
    /// Whether hosts resync every 2 ms (PTP-style, 2 µs residual).
    /// Unlocks over-guard offsets: any blackhole lasts one interval.
    pub clock_resync: bool,
}

impl ChaosSpec {
    /// The variant under test.
    pub fn variant(&self) -> Variant {
        CHAOS_VARIANTS[usize::from(self.variant_idx) % CHAOS_VARIANTS.len()]
    }

    /// Concurrent flows (1–3).
    pub fn flows(&self) -> usize {
        1 + usize::from(self.flows_idx) % 3
    }

    /// Bytes each flow transfers.
    pub fn bytes_per_flow(&self) -> u64 {
        16_000 + u64::from(self.bytes_kb) * 1_000
    }

    /// The data-path impairment plan this spec encodes.
    pub fn impair_plan(&self) -> ImpairPlan {
        ImpairPlan {
            loss_rate: f64::from(self.loss_pm) / 1000.0,
            reorder_rate: f64::from(self.reorder_pm) / 1000.0,
            reorder_delay: SimDuration::from_micros(u64::from(self.reorder_delay_us.max(1))),
            duplicate_rate: f64::from(self.dup_pm) / 1000.0,
            corrupt_rate: f64::from(self.corrupt_pm) / 1000.0,
        }
    }

    /// The control-plane fault plan this spec encodes.
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::notification_loss(f64::from(self.notify_loss_pm) / 1000.0);
        if self.eps_burst {
            plan.eps_burst = Some(EpsBurst {
                start: SimTime::from_millis(1),
                len: SimDuration::from_millis(2),
                drop_rate: 0.01,
                corrupt_rate: 0.005,
            });
        }
        plan
    }

    /// The time-plane clock plan this spec encodes. Zero clock scalars
    /// (the shrink target) yield `ClockPlan::none()` — the inert,
    /// zero-draw plan.
    ///
    /// The bounds are chosen so every scenario honestly terminates
    /// inside [`CHAOS_HORIZON`]: a host whose skew exceeds the guard
    /// band (100 µs in the paper baseline) drops the mis-timed fraction
    /// of its launches *persistently*, and the transport's
    /// retransmit-limit abort takes far longer than the horizon to
    /// trip. So without resync the offset is capped at 85 µs and drift
    /// at 60 ppm (≤ 15 µs over the horizon) — at most guard-band skew,
    /// absorbed by design. With resync on, offsets may overshoot to
    /// 150 µs: the slot-edge policy genuinely fires, but only until the
    /// host's first 2 ms resync collapses the offset to ≤ 2 µs.
    pub fn clock_plan(&self) -> ClockPlan {
        if self.clock_offset_us == 0 && self.clock_drift_ppm == 0 && !self.clock_resync {
            // A policy index alone skews nothing: collapse to the
            // inert plan so the zero-draw guarantee holds.
            return ClockPlan::none();
        }
        let cap_us = if self.clock_resync { 150 } else { 85 };
        ClockPlan {
            offset_bound: SimDuration::from_micros(u64::from(self.clock_offset_us.min(cap_us))),
            drift_ppm: f64::from(self.clock_drift_ppm.min(60)),
            jitter: SimDuration::ZERO,
            resync_interval: if self.clock_resync {
                SimDuration::from_millis(2)
            } else {
                SimDuration::ZERO
            },
            resync_error: if self.clock_resync {
                SimDuration::from_micros(2)
            } else {
                SimDuration::ZERO
            },
            slot_edge_policy: match self.slot_edge_idx % 3 {
                0 => SlotEdgePolicy::Drop,
                1 => SlotEdgePolicy::Defer,
                _ => SlotEdgePolicy::WrongTdn,
            },
        }
    }

    /// Expand and run the scenario.
    pub fn run(&self) -> RunResult {
        let mut net = NetConfig::paper_baseline();
        net.faults = self.fault_plan();
        net.impair = self.impair_plan();
        net.clock = self.clock_plan();
        let wl = Workload {
            variant: self.variant(),
            flows: self.flows(),
            duration: CHAOS_HORIZON,
            bytes_per_flow: self.bytes_per_flow(),
            seed: self.seed,
            sample_every: SimDuration::from_micros(100),
        };
        wl.run(&net)
    }
}

/// The transport invariant oracle (see the module docs for the laws).
/// Returns a diagnostic string naming the violated invariant and the
/// offending flow's counters.
pub fn check_invariants(spec: &ChaosSpec, res: &RunResult) -> Result<(), String> {
    let bytes = spec.bytes_per_flow();
    let n = spec.flows();
    if res.sender_stats.len() != n || res.receiver_stats.len() != n {
        return Err(format!(
            "stats arity: {} senders / {} receivers for {n} flows",
            res.sender_stats.len(),
            res.receiver_stats.len()
        ));
    }
    for i in 0..n {
        let s = &res.sender_stats[i];
        let r = &res.receiver_stats[i];
        let err = res.conn_errors[i];
        // No silent stall: the sender terminated — completed or aborted
        // with an explicit error — within the horizon.
        if res.completions[i].is_none() {
            return Err(format!(
                "flow {i} silently stalled: neither completed nor errored by {CHAOS_HORIZON} \
                 (sent {} acked {} delivered {} rtos {} persist_probes {})",
                s.bytes_sent, s.bytes_acked, r.bytes_delivered, s.rtos, s.persist_probes
            ));
        }
        // Exactly-once in-order delivery for clean completions.
        if err.is_none() {
            if s.bytes_acked != bytes {
                return Err(format!(
                    "flow {i} completed without error but acked {} of {bytes} bytes",
                    s.bytes_acked
                ));
            }
            if r.bytes_delivered != bytes {
                return Err(format!(
                    "flow {i} completed without error but delivered {} of {bytes} bytes \
                     (duplication or loss leaked through the transport)",
                    r.bytes_delivered
                ));
            }
        }
        // Byte conservation, completed or not.
        if r.bytes_delivered > s.bytes_sent {
            return Err(format!(
                "flow {i} delivered {} > sent {} (bytes out of nowhere)",
                r.bytes_delivered, s.bytes_sent
            ));
        }
        if s.bytes_acked > bytes {
            return Err(format!(
                "flow {i} acked {} > configured {bytes} (over-acknowledgement)",
                s.bytes_acked
            ));
        }
        if err.is_some() && s.conn_aborts == 0 {
            return Err(format!("flow {i}: errored without a counted abort"));
        }
    }
    // Stats sanity: a checksum discard needs a matching damaged copy on
    // the wire. The EPS burst corrupts at launch, *before* the wire
    // impairment decides the segment's fate in the same launch, so a
    // segment can be corrupted there and then duplicated: both copies arrive
    // damaged and both are discarded. (The wire's own verdicts are
    // exclusive — a segment it corrupts is never also duplicated.)
    let corrupt_rx: u64 = res
        .sender_stats
        .iter()
        .chain(&res.receiver_stats)
        .map(|s| s.corrupt_rx)
        .sum();
    let corrupted_wire = res.impairments.segs_corrupted + res.faults.eps_corruptions;
    let corrupted_copies = res
        .faults
        .eps_corruptions
        .min(res.impairments.segs_duplicated);
    if corrupt_rx > corrupted_wire + corrupted_copies {
        return Err(format!(
            "corrupt_rx {corrupt_rx} exceeds wire corruptions {corrupted_wire} \
             (+ {corrupted_copies} duplicated)"
        ));
    }
    if corrupted_wire == 0 && corrupt_rx > 0 {
        return Err(format!(
            "corruption-free scenario discarded {corrupt_rx} segments as corrupt"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_spec() -> ChaosSpec {
        ChaosSpec {
            seed: 7,
            variant_idx: 1, // cubic
            flows_idx: 1,   // 2 flows
            bytes_kb: 16,
            loss_pm: 0,
            reorder_pm: 0,
            reorder_delay_us: 50,
            dup_pm: 0,
            corrupt_pm: 0,
            notify_loss_pm: 0,
            eps_burst: false,
            clock_offset_us: 0,
            clock_drift_ppm: 0,
            slot_edge_idx: 0,
            clock_resync: false,
        }
    }

    #[test]
    fn clean_scenario_passes_the_oracle() {
        let spec = quiet_spec();
        let res = spec.run();
        check_invariants(&spec, &res).unwrap();
        assert_eq!(res.impairments.total(), 0, "inert plan must not impair");
        assert_eq!(res.clock.total(), 0, "inert clock plan must not skew");
    }

    #[test]
    fn policy_index_alone_is_inert() {
        let spec = ChaosSpec {
            slot_edge_idx: 2,
            ..quiet_spec()
        };
        assert!(spec.clock_plan().is_none(), "no skew source, no plan");
    }

    #[test]
    fn skewed_scenario_passes_and_skews() {
        // Big enough (and lossy enough) to stay active past the first
        // 2 ms resync interval, so the resync path is exercised too.
        let spec = ChaosSpec {
            clock_offset_us: 150,
            clock_drift_ppm: 40,
            clock_resync: true,
            bytes_kb: 255,
            loss_pm: 15,
            ..quiet_spec()
        };
        let res = spec.run();
        check_invariants(&spec, &res).unwrap();
        assert!(res.clock.resyncs > 0, "resync plan never resynced");
        assert!(
            res.clock.max_abs_skew_ns > 0,
            "offset plan produced no skew"
        );
    }

    #[test]
    fn impaired_scenario_passes_and_impairs() {
        let spec = ChaosSpec {
            loss_pm: 10,
            reorder_pm: 50,
            dup_pm: 10,
            corrupt_pm: 5,
            bytes_kb: 48,
            ..quiet_spec()
        };
        let res = spec.run();
        check_invariants(&spec, &res).unwrap();
        assert!(res.impairments.total() > 0, "rates armed, nothing impaired");
    }

    #[test]
    fn oracle_rejects_a_stall() {
        let spec = quiet_spec();
        let mut res = spec.run();
        res.completions[0] = None;
        let err = check_invariants(&spec, &res).unwrap_err();
        assert!(err.contains("silently stalled"), "got: {err}");
    }

    #[test]
    fn oracle_rejects_short_delivery() {
        let spec = quiet_spec();
        let mut res = spec.run();
        res.receiver_stats[0].bytes_delivered -= 1;
        let err = check_invariants(&spec, &res).unwrap_err();
        assert!(err.contains("delivered"), "got: {err}");
    }
}
