//! Network-level configuration for the emulated RDCN.

use crate::clock::ClockPlan;
use crate::faults::FaultPlan;
use crate::impair::ImpairPlan;
use crate::notify::NotifyConfig;
use crate::schedule::Schedule;
use crate::voq::VoqConfig;
use simcore::SimDuration;
use wire::TdnId;

/// Physical characteristics of one TDN between the rack pair.
#[derive(Debug, Clone, Copy)]
pub struct TdnParams {
    /// Bottleneck bandwidth in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay (per direction), excluding serialization
    /// and queueing.
    pub one_way: SimDuration,
    /// In-network queueing jitter: with probability `.0`, a packet picks
    /// up an exponentially distributed extra delay of mean `.1`. The EPS
    /// fabric queues inside the network (its "100 µs RTT" is *with*
    /// queueing, §2.1) — which is also what makes segments straggle when
    /// the circuit activates; the OCS "does not queue inside the network".
    pub jitter: Option<(f64, SimDuration)>,
}

impl TdnParams {
    /// The paper's packet network: 10 Gbps, 100 µs RTT (with in-network
    /// queueing jitter from the multi-hop EPS fabric).
    pub fn packet_10g() -> TdnParams {
        TdnParams {
            rate_bps: 10_000_000_000,
            one_way: SimDuration::from_micros(50),
            jitter: Some((0.15, SimDuration::from_micros(12))),
        }
    }

    /// The paper's optical network: 100 Gbps, 40 µs RTT, no in-network
    /// queueing (circuits have no intermediate buffering).
    pub fn optical_100g() -> TdnParams {
        TdnParams {
            rate_bps: 100_000_000_000,
            one_way: SimDuration::from_micros(20),
            jitter: None,
        }
    }
}

/// Full configuration of the emulated two-rack RDCN.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Per-TDN link characteristics, indexed by TDN ID.
    pub tdns: Vec<TdnParams>,
    /// The day/night schedule.
    pub schedule: Schedule,
    /// ToR VOQ settings (applied to both directions).
    pub voq: VoqConfig,
    /// Latency model of the TDN-change notifications every ToR sends its
    /// hosts (TDTCP needs them; other variants ignore them).
    pub notify: NotifyConfig,
    /// Whether the switch sets the circuit mark on segments that traverse
    /// a circuit (reTCP's explicit feedback). Every TDN but TDN 0 is a
    /// circuit ([`crate::is_circuit`]).
    pub circuit_marking: bool,
    /// retcpdyn switch support (§5.2): 150 µs before each circuit day the
    /// ToR enlarges the VOQ toward that day's peer to 50 packets and tells
    /// the senders it carries to ramp.
    pub retcpdyn: bool,
    /// Host NIC uplink rate in bits per second: segments leave a host at
    /// this serialization rate rather than as instantaneous bursts (the
    /// testbed's hosts have their own NICs; without this, window-sized
    /// bursts at TDN switches would overstate VOQ tail drops).
    pub host_rate_bps: u64,
    /// RNG seed for the run.
    pub seed: u64,
    /// Faults to inject during the run (none by default). The fault
    /// stream is forked from `seed` under a fixed label, so attaching a
    /// plan never perturbs the clean-path RNG draws.
    pub faults: FaultPlan,
    /// Data-path impairments to apply during the run (none by default).
    /// Like `faults`, the impairment stream is forked from `seed` under
    /// its own fixed label and never perturbs the clean path.
    pub impair: ImpairPlan,
    /// Per-host clock skew/drift to inject during the run (none by
    /// default). Like the other chaos layers, the clock stream is forked
    /// from `seed` under its own fixed label and an inert plan makes
    /// zero draws.
    pub clock: ClockPlan,
    /// The schedule guard band: the slack around each slot edge that
    /// absorbs host clock skew. Shared by the slot-edge enforcement (a
    /// mis-timed launch whose skew exceeds this is penalized per the
    /// clock plan's policy) and by the TDTCP endpoint watchdog/skew
    /// hardening (its timer slack and escalation threshold), which
    /// `bench::variants::watchdog_for` hands every TDTCP endpoint as its
    /// watchdog guard. Defaults to half a slot.
    pub guard_band: SimDuration,
}

impl NetConfig {
    /// The paper's baseline testbed (§5.1): hybrid 6:1 schedule,
    /// 10 G/100 µs packet TDN, 100 G/40 µs optical TDN, 16-packet VOQs.
    pub fn paper_baseline() -> NetConfig {
        let schedule = Schedule::hybrid_6to1();
        let guard_band = schedule.slot_len() / 2;
        NetConfig {
            tdns: vec![TdnParams::packet_10g(), TdnParams::optical_100g()],
            schedule,
            voq: VoqConfig::default(),
            notify: NotifyConfig::optimized(),
            circuit_marking: false,
            retcpdyn: false,
            host_rate_bps: 100_000_000_000,
            seed: 1,
            faults: FaultPlan::default(),
            impair: ImpairPlan::default(),
            clock: ClockPlan::default(),
            guard_band,
        }
    }

    /// Fig. 8 variant: bandwidth difference only (both TDNs at the packet
    /// network's 100 µs RTT).
    pub fn bandwidth_only() -> NetConfig {
        let mut c = NetConfig::paper_baseline();
        c.tdns = vec![
            TdnParams::packet_10g(),
            TdnParams {
                rate_bps: 100_000_000_000,
                one_way: SimDuration::from_micros(50),
                jitter: None,
            },
        ];
        c
    }

    /// Fig. 9 / Fig. 14 variant: latency difference only, at the given
    /// shared bandwidth; RTTs 20 µs and 10 µs per the appendix.
    pub fn latency_only(rate_bps: u64) -> NetConfig {
        let mut c = NetConfig::paper_baseline();
        c.tdns = vec![
            TdnParams {
                rate_bps,
                one_way: SimDuration::from_micros(10),
                jitter: Some((0.15, SimDuration::from_micros(3))),
            },
            TdnParams {
                rate_bps,
                one_way: SimDuration::from_micros(5),
                jitter: None,
            },
        ];
        c
    }

    /// The same configuration with the VOQ capacity (both directions)
    /// replaced — the tiny-buffer knob the tail-latency suite sweeps.
    pub fn with_voq_cap(mut self, cap_pkts: usize) -> NetConfig {
        self.voq.cap_pkts = cap_pkts;
        self
    }

    /// Parameters of the TDN `id`.
    pub fn tdn(&self, id: TdnId) -> &TdnParams {
        &self.tdns[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters() {
        let c = NetConfig::paper_baseline();
        assert_eq!(c.tdns.len(), 2);
        assert_eq!(c.tdn(TdnId(0)).rate_bps, 10_000_000_000);
        assert_eq!(c.tdn(TdnId(1)).rate_bps, 100_000_000_000);
        assert_eq!(c.tdn(TdnId(0)).one_way, SimDuration::from_micros(50));
        // Packet BDP = 10 Gbps * 100us = 125 kB ≈ 14 jumbo frames; the
        // 16-packet VOQ is "slightly larger than the packet network BDP".
        let packet = c.tdn(TdnId(0));
        let bdp = packet.rate_bps / 8 * (2 * packet.one_way.as_micros()) / 1_000_000;
        assert_eq!(bdp, 125_000);
        assert!(c.voq.cap_pkts as u64 * 9000 > bdp);
    }

    #[test]
    fn variant_configs() {
        let b = NetConfig::bandwidth_only();
        assert_eq!(b.tdn(TdnId(0)).one_way, b.tdn(TdnId(1)).one_way);
        assert_ne!(b.tdn(TdnId(0)).rate_bps, b.tdn(TdnId(1)).rate_bps);
        let l = NetConfig::latency_only(100_000_000_000);
        assert_eq!(l.tdn(TdnId(0)).rate_bps, l.tdn(TdnId(1)).rate_bps);
        assert_ne!(l.tdn(TdnId(0)).one_way, l.tdn(TdnId(1)).one_way);
    }

    #[test]
    fn optical_bdp() {
        let o = TdnParams::optical_100g();
        let bdp = o.rate_bps / 8 * (2 * o.one_way.as_micros()) / 1_000_000;
        assert_eq!(bdp, 500_000); // 100G * 40us
    }
}
