//! NewReno-style AIMD (RFC 5681/6582): slow start, congestion avoidance,
//! multiplicative decrease by half. The simplest baseline, and the window
//! DCTCP and reTCP hold by value and add their signal to.

use super::{AckEvent, CcConfig, CongestionControl};
use simcore::SimTime;

/// Reno congestion control.
#[derive(Debug, Clone)]
pub struct Reno {
    pub(super) cfg: CcConfig,
    pub(super) cwnd: u32,
    pub(super) ssthresh: u32,
    /// Byte accumulator for the one-MSS-per-RTT increase in CA.
    acked_accum: u32,
}

impl Reno {
    /// New instance with `cfg`.
    pub fn new(cfg: CcConfig) -> Self {
        Reno {
            cfg,
            cwnd: cfg.initial_cwnd(),
            ssthresh: cfg.max_cwnd,
            acked_accum: 0,
        }
    }

    fn in_slow_start(&self) -> bool {
        self.cwnd < self.ssthresh
    }
}

impl CongestionControl for Reno {
    fn name(&self) -> &'static str {
        "reno"
    }

    fn cwnd(&self) -> u32 {
        self.cwnd
    }

    fn ssthresh(&self) -> u32 {
        self.ssthresh
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        if ev.in_recovery || ev.bytes_acked == 0 {
            return;
        }
        if self.in_slow_start() {
            // Exponential: grow by bytes acked, capped at ssthresh.
            self.cwnd = (self.cwnd + ev.bytes_acked).min(self.ssthresh).min(self.cfg.max_cwnd);
        } else {
            // Linear: one MSS per cwnd of acknowledged bytes.
            self.acked_accum += ev.bytes_acked;
            if self.acked_accum >= self.cwnd {
                self.acked_accum -= self.cwnd;
                self.cwnd = (self.cwnd + self.cfg.mss).min(self.cfg.max_cwnd);
            }
        }
    }

    fn on_enter_recovery(&mut self, _now: SimTime, _flight_size: u32) {
        // cwnd-based reduction (Linux semantics; see cubic.rs).
        self.ssthresh = (self.cwnd / 2).max(self.cfg.min_cwnd());
        self.cwnd = self.ssthresh;
        self.acked_accum = 0;
    }

    fn on_rto(&mut self, _now: SimTime) {
        self.ssthresh = (self.cwnd / 2).max(self.cfg.min_cwnd());
        self.cwnd = self.cfg.mss;
        self.acked_accum = 0;
    }

    fn clone_box(&self) -> Box<dyn CongestionControl> {
        Box::new(Reno::new(self.cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::ack;
    use super::*;

    fn reno() -> Reno {
        Reno::new(CcConfig {
            mss: 1000,
            init_cwnd_pkts: 10,
            max_cwnd: 1_000_000,
        })
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut cc = reno();
        let start = cc.cwnd();
        // One RTT worth of ACKs: every byte of the window acked.
        let mut acked = 0;
        while acked < start {
            cc.on_ack(&ack(100, 1000));
            acked += 1000;
        }
        assert_eq!(cc.cwnd(), 2 * start);
    }

    #[test]
    fn congestion_avoidance_linear() {
        let mut cc = reno();
        cc.on_enter_recovery(SimTime::ZERO, 0); // cwnd 10_000 -> 5_000
        cc.on_exit_recovery(SimTime::ZERO);
        assert_eq!(cc.cwnd(), 5_000);
        // One full window of ACKs grows cwnd by exactly one MSS.
        for _ in 0..5 {
            cc.on_ack(&ack(200, 1000));
        }
        assert_eq!(cc.cwnd(), 6_000);
    }

    #[test]
    fn recovery_halves_cwnd() {
        let mut cc = reno();
        cc.on_enter_recovery(SimTime::ZERO, 0);
        assert_eq!(cc.cwnd(), 5_000);
        assert_eq!(cc.ssthresh(), 5_000);
    }

    #[test]
    fn recovery_floor_is_one_mss() {
        let mut cc = reno();
        cc.on_rto(SimTime::ZERO); // cwnd = 1 MSS
        cc.on_enter_recovery(SimTime::ZERO, 0);
        assert_eq!(cc.cwnd(), 1_000, "loss window floor (RFC 5681)");
    }

    #[test]
    fn rto_collapses_to_one_mss() {
        let mut cc = reno();
        cc.on_rto(SimTime::ZERO);
        assert_eq!(cc.cwnd(), 1_000);
        assert_eq!(cc.ssthresh(), 5_000);
    }

    #[test]
    fn frozen_during_recovery() {
        let mut cc = reno();
        let before = cc.cwnd();
        let mut ev = ack(100, 1000);
        ev.in_recovery = true;
        cc.on_ack(&ev);
        assert_eq!(cc.cwnd(), before);
    }

    #[test]
    fn capped_at_max_cwnd() {
        let mut cc = Reno::new(CcConfig {
            mss: 1000,
            init_cwnd_pkts: 10,
            max_cwnd: 12_000,
        });
        for _ in 0..100 {
            cc.on_ack(&ack(100, 1000));
        }
        assert_eq!(cc.cwnd(), 12_000);
    }

    #[test]
    fn clone_box_resets_to_initial() {
        let mut cc = reno();
        cc.on_rto(SimTime::ZERO);
        let fresh = cc.clone_box();
        assert_eq!(fresh.cwnd(), 10_000);
    }
}
