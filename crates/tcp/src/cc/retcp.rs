//! reTCP (Mukerjee et al., NSDI 2020): the RDCN-specific baseline the
//! paper compares against (§5.2, §6).
//!
//! reTCP requires switch support: ToRs mark packets that traversed the
//! circuit network; the sender watches the mark bit in returning ACKs and,
//! on an off→on edge, multiplicatively *increases* its window to exploit
//! the circuit bandwidth, then divides back down on the on→off edge. The
//! "retcpdyn" variant additionally receives an advance `prepare` signal
//! when the ToR pre-enlarges its VOQ ~150 µs before circuit start, and
//! ramps early so the burst pre-fills the buffer.

use super::{AckEvent, CcConfig, CongestionControl, Reno};
use simcore::SimTime;

/// reTCP tuning.
#[derive(Debug, Clone, Copy)]
pub struct ReTcpConfig {
    /// Base algorithm parameters.
    pub cc: CcConfig,
    /// Multiplicative factor applied on circuit-up (and divided on
    /// circuit-down). The reTCP paper's best setting is around the ratio
    /// of circuit to packet bandwidth, capped; we default to 8×.
    pub scale: f64,
    /// Cap on the boosted window (circuit BDP plus switch buffer).
    pub boost_cap: u32,
}

impl Default for ReTcpConfig {
    fn default() -> Self {
        ReTcpConfig {
            cc: CcConfig::default(),
            scale: 8.0,
            // Per-flow share of circuit BDP (500 kB) plus the enlarged
            // switch buffer (50 jumbo frames), for 16 flows.
            boost_cap: 60_000,
        }
    }
}

/// reTCP congestion control: a [`Reno`] window plus explicit circuit
/// scaling.
#[derive(Debug, Clone)]
pub struct ReTcp {
    cfg: ReTcpConfig,
    reno: Reno,
    /// Whether the last observed mark state was "circuit".
    circuit_on: bool,
}

impl ReTcp {
    /// New instance.
    pub fn new(cfg: ReTcpConfig) -> Self {
        ReTcp {
            cfg,
            reno: Reno::new(cfg.cc),
            circuit_on: false,
        }
    }

    /// Whether the sender currently believes the circuit is up.
    pub fn circuit_on(&self) -> bool {
        self.circuit_on
    }

    fn boost(&mut self) {
        let boosted = (self.reno.cwnd as f64 * self.cfg.scale) as u32;
        self.reno.cwnd = boosted.min(self.cfg.boost_cap).min(self.cfg.cc.max_cwnd);
    }

    /// Divide back down, never below the loss floor. The window grown
    /// meanwhile is kept, scaled: it is not reset to the pre-boost one.
    fn unboost(&mut self) {
        let shrunk = (self.reno.cwnd as f64 / self.cfg.scale) as u32;
        self.reno.cwnd = shrunk.max(self.cfg.cc.min_cwnd());
    }
}

impl CongestionControl for ReTcp {
    fn name(&self) -> &'static str {
        "retcp"
    }

    fn cwnd(&self) -> u32 {
        self.reno.cwnd
    }

    fn ssthresh(&self) -> u32 {
        self.reno.ssthresh
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        self.reno.on_ack(ev);
    }

    fn on_enter_recovery(&mut self, now: SimTime, flight_size: u32) {
        self.reno.on_enter_recovery(now, flight_size);
    }

    fn on_rto(&mut self, now: SimTime) {
        self.reno.on_rto(now);
    }

    fn on_circuit_signal(&mut self, _now: SimTime, circuit_up: bool) {
        if circuit_up && !self.circuit_on {
            self.boost();
        } else if !circuit_up && self.circuit_on {
            self.unboost();
        }
        self.circuit_on = circuit_up;
    }

    fn on_circuit_prepare(&mut self, now: SimTime) {
        // retcpdyn: ramp ahead of the switch, treating it as the up edge.
        self.on_circuit_signal(now, true);
    }

    fn clone_box(&self) -> Box<dyn CongestionControl> {
        Box::new(ReTcp::new(self.cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::ack;
    use super::*;

    fn retcp() -> ReTcp {
        ReTcp::new(ReTcpConfig {
            cc: CcConfig {
                mss: 1000,
                init_cwnd_pkts: 10,
                max_cwnd: 10_000_000,
            },
            scale: 8.0,
            boost_cap: 500_000,
        })
    }

    #[test]
    fn circuit_up_scales_window() {
        let mut cc = retcp();
        let before = cc.cwnd();
        cc.on_circuit_signal(SimTime::ZERO, true);
        assert_eq!(cc.cwnd(), before * 8);
        assert!(cc.circuit_on());
    }

    #[test]
    fn circuit_down_scales_back() {
        let mut cc = retcp();
        cc.on_circuit_signal(SimTime::ZERO, true);
        cc.on_circuit_signal(SimTime::from_micros(180), false);
        assert_eq!(cc.cwnd(), 10_000);
        assert!(!cc.circuit_on());
    }

    #[test]
    fn boost_capped() {
        let mut cc = retcp();
        // Grow past cap/8 first.
        for _ in 0..100 {
            cc.on_ack(&ack(100, 1000));
        }
        cc.on_circuit_signal(SimTime::ZERO, true);
        assert!(cc.cwnd() <= 500_000);
    }

    #[test]
    fn repeated_same_edge_is_idempotent() {
        let mut cc = retcp();
        cc.on_circuit_signal(SimTime::ZERO, true);
        let boosted = cc.cwnd();
        cc.on_circuit_signal(SimTime::from_micros(1), true);
        assert_eq!(cc.cwnd(), boosted, "no double boost");
        cc.on_circuit_signal(SimTime::from_micros(2), false);
        let down = cc.cwnd();
        cc.on_circuit_signal(SimTime::from_micros(3), false);
        assert_eq!(cc.cwnd(), down, "no double shrink");
    }

    #[test]
    fn prepare_acts_as_early_up_edge() {
        let mut cc = retcp();
        let before = cc.cwnd();
        cc.on_circuit_prepare(SimTime::ZERO);
        assert_eq!(cc.cwnd(), before * 8);
        // The real up edge that follows must not double-boost.
        cc.on_circuit_signal(SimTime::from_micros(150), true);
        assert_eq!(cc.cwnd(), before * 8);
    }

    #[test]
    fn unboost_floor() {
        let mut cc = retcp();
        cc.on_rto(SimTime::ZERO); // cwnd = 1 MSS
        cc.on_circuit_signal(SimTime::ZERO, true);
        cc.on_circuit_signal(SimTime::from_micros(1), false);
        assert!(cc.cwnd() >= 1_000, "never below the loss floor: {}", cc.cwnd());
    }

    #[test]
    fn growth_matches_reno_otherwise() {
        let mut cc = retcp();
        let start = cc.cwnd();
        let mut acked = 0;
        while acked < start {
            cc.on_ack(&ack(100, 1000));
            acked += 1000;
        }
        assert_eq!(cc.cwnd(), 2 * start);
    }
}
