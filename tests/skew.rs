//! Time-plane acceptance: under per-host clock skew and drift, TDTCP
//! must bend, not break. The paper's operating assumption — hosts agree
//! with the ToR about where the slot boundaries are — is enforced here
//! as a budget: skew inside the guard band costs nothing, skew past it
//! costs launches (per the slot-edge policy), and a host whose clock is
//! unusable escalates itself to degraded mode instead of blasting a
//! stale TDN's window across slot edges.
//!
//! Headline criterion (mirrors `tests/impair.rs` for the data path):
//! at 50 ppm drift with periodic PTP-style resync, TDTCP holds at least
//! 80% of its clean steady-state goodput.

use bench::workload::steady_goodput_gbps;
use bench::{Variant, Workload};
use rdcn::{ClockPlan, NetConfig, RunResult, Schedule, SlotEdgePolicy};
use simcore::{SimDuration, SimTime};
use wire::TdnId;

const HORIZON: SimTime = SimTime::from_millis(20);
const WARMUP: SimTime = SimTime::from_millis(4);

/// The headline time-plane adversity: every host drifts at up to
/// 50 ppm and resyncs every millisecond to a 2 µs residual — a
/// well-run PTP deployment with imperfect hardware.
fn drift_with_resync(ppm: f64) -> ClockPlan {
    ClockPlan {
        drift_ppm: ppm,
        resync_interval: SimDuration::from_millis(1),
        resync_error: SimDuration::from_micros(2),
        ..ClockPlan::default()
    }
}

fn run_tdtcp(clock: ClockPlan, guard_band: Option<SimDuration>) -> RunResult {
    run_tdtcp_seeded(clock, guard_band, 1)
}

fn run_tdtcp_seeded(clock: ClockPlan, guard_band: Option<SimDuration>, seed: u64) -> RunResult {
    let mut net = NetConfig::paper_baseline();
    net.clock = clock;
    if let Some(g) = guard_band {
        net.guard_band = g;
    }
    let wl = Workload {
        flows: 8,
        seed,
        ..Workload::bulk(Variant::Tdtcp, HORIZON)
    };
    wl.run(&net)
}

/// The headline acceptance criterion: realistic drift under resync is
/// absorbed almost entirely by the guard band — goodput stays within
/// 20% of clean — and the clean run pays nothing for the machinery.
#[test]
fn fifty_ppm_drift_with_resync_keeps_headline_goodput() {
    let clean = run_tdtcp(ClockPlan::none(), None);
    let skewed = run_tdtcp(drift_with_resync(50.0), None);
    let gc = steady_goodput_gbps(&clean, WARMUP, HORIZON);
    let gs = steady_goodput_gbps(&skewed, WARMUP, HORIZON);
    assert!(gc > 0.0, "clean run must move bytes");
    assert!(
        gs >= 0.8 * gc,
        "goodput fell to {:.1}% of clean ({gs:.3} vs {gc:.3} Gbps)",
        100.0 * gs / gc
    );

    // The machinery demonstrably engaged: hosts resynced and nonzero
    // skew was observed.
    assert!(skewed.clock.resyncs > 0, "resync plan never resynced");
    assert!(skewed.clock.max_abs_skew_ns > 0, "drift produced no skew");

    // The clean run pays nothing for it.
    assert_eq!(clean.clock.total(), 0);
    assert_eq!(clean.clock.max_abs_skew_ns, 0);
    for s in clean.sender_stats.iter().chain(&clean.receiver_stats) {
        assert_eq!(s.skew_gate_pauses, 0, "clean run must not gate");
        assert_eq!(s.skew_escalations, 0, "clean run must not escalate");
    }
}

/// The guard band is the knob the paper says it is: with a fixed
/// static-offset population, shrinking the guard band strictly
/// increases slot-edge losses — each step exposes launches the wider
/// band absorbed. Summed over seeds 1–20: which hosts draw an offset
/// between two bands is a per-seed lottery, and a single seed's
/// 20 → 5 µs step is inside the run's own noise about one time in four
/// (EXPERIMENTS.md, "One loop").
#[test]
fn shrinking_guard_band_strictly_increases_slot_edge_drops() {
    let plan = ClockPlan::offset(SimDuration::from_micros(60));
    let mut drops = Vec::new();
    for guard_us in [50u64, 20, 5] {
        let mut sum = 0;
        for seed in 1..=20 {
            let guard = Some(SimDuration::from_micros(guard_us));
            let res = run_tdtcp_seeded(plan.clone(), guard, seed);
            assert!(
                res.clock.skewed_sends > 0,
                "guard {guard_us} µs, seed {seed}: no mis-timed launches at all"
            );
            sum += res.clock.guard_drops;
        }
        drops.push(sum);
    }
    assert!(
        drops[0] < drops[1] && drops[1] < drops[2],
        "guard_drops must strictly increase as the band shrinks: {drops:?}"
    );
}

/// Desync hardening: a host drifting heavily enough that its slot-phase
/// estimate exceeds the guard band escalates itself to degraded mode
/// (counted in `skew_escalations`) rather than trusting per-TDN state
/// it can no longer place — and the skew send gate engages on the way
/// there.
#[test]
fn heavy_drift_escalates_to_degraded_mode() {
    let res = run_tdtcp(ClockPlan::drift(8_000.0), None);
    let escalations: u64 = res.sender_stats.iter().map(|s| s.skew_escalations).sum();
    let pauses: u64 = res.sender_stats.iter().map(|s| s.skew_gate_pauses).sum();
    assert!(
        escalations > 0,
        "no sender escalated under 8000 ppm drift (pauses {pauses})"
    );
    assert!(res.total_acked() > 0, "flows must survive heavy drift");
}

/// Every slot-edge policy engages under an over-guard offset population
/// and flows keep moving bytes: Drop kills launches, Defer parks them,
/// WrongTdn mislabels them — none of the three deadlocks the fabric.
#[test]
fn every_slot_edge_policy_engages_and_flows_survive() {
    for policy in [
        SlotEdgePolicy::Drop,
        SlotEdgePolicy::Defer,
        SlotEdgePolicy::WrongTdn,
    ] {
        let plan = ClockPlan {
            offset_bound: SimDuration::from_micros(150),
            resync_interval: SimDuration::from_millis(2),
            resync_error: SimDuration::from_micros(2),
            slot_edge_policy: policy,
            ..ClockPlan::default()
        };
        let res = run_tdtcp(plan, None);
        let hit = match policy {
            SlotEdgePolicy::Drop => res.clock.guard_drops,
            SlotEdgePolicy::Defer => res.clock.deferred_sends,
            SlotEdgePolicy::WrongTdn => res.clock.wrong_tdn_deliveries,
        };
        assert!(hit > 0, "{policy:?} never fired under 150 µs offsets");
        assert!(res.total_acked() > 0, "{policy:?}: flows moved no bytes");
    }
}

/// A skewed host reports the skew it has, on every week. The rotor week
/// (one circuit day, no TDN 0) serves the same trains as the paper's
/// week: each launch reads its host's clock at its own instant, never
/// ahead of the rack's next event, so a 1 µs offset bound reads as at
/// most 1 µs on either.
#[test]
fn a_skewed_host_stays_within_its_bound_on_every_week() {
    for days in [vec![TdnId(1)], vec![TdnId(0), TdnId(1)]] {
        let mut net = NetConfig::paper_baseline();
        net.schedule = Schedule::alternating(
            SimDuration::from_micros(180),
            SimDuration::from_micros(20),
            days.clone(),
        );
        net.clock = ClockPlan {
            offset_bound: SimDuration::from_micros(1),
            ..ClockPlan::none()
        };
        let horizon = SimTime::from_millis(5);
        let wl = Workload {
            flows: 8,
            ..Workload::bulk(Variant::Cubic, horizon)
        };
        let res = wl.run(&net);
        assert!(res.total_acked() > 0, "week {days:?}: no bytes moved");
        assert!(
            res.clock.max_abs_skew_ns <= 1_000,
            "week {days:?}: a 1 µs offset bound read as {} ns of skew",
            res.clock.max_abs_skew_ns
        );
    }
}
