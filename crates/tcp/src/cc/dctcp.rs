//! DCTCP (Alizadeh et al., SIGCOMM 2010): ECN-proportional window
//! reduction. Switches mark packets above a shallow queue threshold; the
//! sender maintains `α`, an EWMA of the marked fraction per window, and
//! reduces `cwnd ← cwnd·(1 − α/2)` once per window that saw marks.
//!
//! That signal is all DCTCP adds: it holds a [`Reno`] window, which does
//! the growth, the loss halving (DCTCP paper §3.3) and the RTO collapse.
//! The receiver keeps no DCTCP state: with one ACK per data segment,
//! RFC 8257's ECE state machine reduces to echoing the CE mark of the
//! segment being acknowledged, which `Connection` does.

use super::{AckEvent, CcConfig, CongestionControl, Reno};
use simcore::SimTime;

const G: f64 = 1.0 / 16.0; // α gain, the paper's recommended value

/// DCTCP congestion control.
#[derive(Debug, Clone)]
pub struct Dctcp {
    reno: Reno,
    alpha: f64,
    /// Bytes acked in the current observation window.
    window_acked: u64,
    /// Of those, bytes acked by ECE-carrying ACKs.
    window_marked: u64,
    /// End of the current observation window: once cumulative acked bytes
    /// pass this, α updates and a reduction may apply.
    window_end: u64,
    /// Total bytes acked over the connection (drives window boundaries).
    total_acked: u64,
}

impl Dctcp {
    /// New instance with `cfg` and the canonical `α = 1` cold start.
    pub fn new(cfg: CcConfig) -> Self {
        Dctcp {
            reno: Reno::new(cfg),
            alpha: 1.0,
            window_acked: 0,
            window_marked: 0,
            window_end: u64::from(cfg.initial_cwnd()),
            total_acked: 0,
        }
    }

    /// Current α (marked-fraction EWMA), exposed for tests and tracing.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl CongestionControl for Dctcp {
    fn name(&self) -> &'static str {
        "dctcp"
    }

    fn cwnd(&self) -> u32 {
        self.reno.cwnd
    }

    fn ssthresh(&self) -> u32 {
        self.reno.ssthresh
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        if ev.bytes_acked == 0 {
            return;
        }
        self.total_acked += u64::from(ev.bytes_acked);
        self.window_acked += u64::from(ev.bytes_acked);
        self.window_marked += u64::from(ev.ecn_bytes.min(ev.bytes_acked));

        // End of an observation window (~one RTT of data).
        if self.total_acked >= self.window_end {
            let frac = if self.window_acked > 0 {
                self.window_marked as f64 / self.window_acked as f64
            } else {
                0.0
            };
            self.alpha = (1.0 - G) * self.alpha + G * frac;
            let cfg = self.reno.cfg;
            if self.window_marked > 0 {
                // ECN reduction once per window.
                let reduced = (self.reno.cwnd as f64 * (1.0 - self.alpha / 2.0)) as u32;
                self.reno.cwnd = reduced.max(cfg.min_cwnd());
                self.reno.ssthresh = self.reno.cwnd;
            }
            self.window_acked = 0;
            self.window_marked = 0;
            self.window_end = self.total_acked + u64::from(self.reno.cwnd.max(cfg.mss));
        }

        self.reno.on_ack(ev);
    }

    fn on_enter_recovery(&mut self, now: SimTime, flight_size: u32) {
        self.reno.on_enter_recovery(now, flight_size);
    }

    fn on_rto(&mut self, now: SimTime) {
        self.reno.on_rto(now);
    }

    fn clone_box(&self) -> Box<dyn CongestionControl> {
        Box::new(Dctcp::new(self.reno.cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::ack;
    use super::*;

    fn dctcp() -> Dctcp {
        // Cap the window so observation windows stay ~20 segments and α
        // updates every ~20 ACKs (uncapped slow start doubles the window
        // and α would only update O(log) times).
        Dctcp::new(CcConfig {
            mss: 1000,
            init_cwnd_pkts: 10,
            max_cwnd: 20_000,
        })
    }

    #[test]
    fn alpha_decays_without_marks() {
        let mut cc = dctcp();
        assert_eq!(cc.alpha(), 1.0);
        // Push many unmarked windows through.
        for _ in 0..2000 {
            cc.on_ack(&ack(100, 1000));
        }
        assert!(cc.alpha() < 0.1, "α decays toward 0: {}", cc.alpha());
    }

    #[test]
    fn alpha_rises_with_full_marking() {
        let mut cc = dctcp();
        // Decay α first.
        for _ in 0..300 {
            cc.on_ack(&ack(100, 1000));
        }
        let low = cc.alpha();
        for _ in 0..300 {
            let mut ev = ack(100, 1000);
            ev.ecn_bytes = 1000;
            cc.on_ack(&ev);
        }
        assert!(cc.alpha() > low, "α rises with marks");
        assert!(cc.alpha() > 0.5);
    }

    #[test]
    fn proportional_reduction() {
        let mut cc = dctcp();
        // Reach a known cwnd with α decayed.
        for _ in 0..500 {
            cc.on_ack(&ack(100, 1000));
        }
        let before = cc.cwnd();
        let alpha_before = cc.alpha();
        // One fully marked window triggers one reduction of ~α/2.
        let mut acked = 0;
        while acked < before + 1000 {
            let mut ev = ack(200, 1000);
            ev.ecn_bytes = 1000;
            cc.on_ack(&ev);
            acked += 1000;
        }
        let after = cc.cwnd();
        assert!(after < before, "marked window reduces cwnd");
        // Reduction is gentle when α is small — unlike Reno's halving.
        assert!(
            after as f64 > before as f64 * (1.0 - alpha_before),
            "reduction proportional to α"
        );
    }

    #[test]
    fn loss_still_halves() {
        let mut cc = dctcp();
        // cwnd starts at 10_000 and halves on loss (cwnd-based).
        cc.on_enter_recovery(SimTime::ZERO, 0);
        assert_eq!(cc.cwnd(), 5_000);
    }
}
