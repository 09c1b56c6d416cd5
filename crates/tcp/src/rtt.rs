//! Round-trip time estimation (RFC 6298) with Karn's rule applied by the
//! caller (retransmitted segments never produce samples).
//!
//! Data-center RTTs in the evaluated RDCN are 40–100 µs, while the RTO
//! floor sits orders of magnitude above them (see [`RttConfig`]) — which
//! is exactly why the paper's transports go to such lengths to avoid
//! spurious timeouts.

use simcore::{SimDuration, SimTime};

/// Tuning knobs for the estimator.
#[derive(Debug, Clone, Copy)]
pub struct RttConfig {
    /// Lower bound for the computed RTO.
    pub min_rto: SimDuration,
    /// Upper bound for the computed RTO.
    pub max_rto: SimDuration,
    /// RTO to use before any sample exists.
    pub initial_rto: SimDuration,
}

impl Default for RttConfig {
    fn default() -> Self {
        // Linux's RTO floor is 200 ms — several thousand RTTs in a
        // microsecond-scale RDCN, which is why a spurious timeout is
        // catastrophic there (§2.2/§4.4). We scale the floor down to
        // 10 ms (~100 packet-network RTTs) so a timeout carries the same
        // *relative* cost without dilating simulated time.
        RttConfig {
            min_rto: SimDuration::from_millis(10),
            max_rto: SimDuration::from_secs(4),
            initial_rto: SimDuration::from_millis(10),
        }
    }
}

/// Exponentially weighted RTT estimator per RFC 6298.
#[derive(Debug, Clone, Copy)]
pub struct RttEstimator {
    cfg: RttConfig,
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    /// Windowless minimum over the connection lifetime; RACK uses a
    /// fraction of it as its reordering window.
    min_rtt: Option<SimDuration>,
    latest: Option<SimDuration>,
    samples: u64,
}

impl RttEstimator {
    /// New estimator with the given configuration. Panics if
    /// `min_rto > max_rto`: no RTO lies between such bounds.
    pub fn new(cfg: RttConfig) -> Self {
        assert!(
            cfg.min_rto <= cfg.max_rto,
            "RttConfig: min_rto {:?} exceeds max_rto {:?}",
            cfg.min_rto,
            cfg.max_rto
        );
        RttEstimator {
            cfg,
            srtt: None,
            rttvar: SimDuration::ZERO,
            min_rtt: None,
            latest: None,
            samples: 0,
        }
    }

    /// Incorporate a sample measured between `sent` and `now`.
    pub fn on_sample_between(&mut self, sent: SimTime, now: SimTime) {
        self.on_sample(now.saturating_since(sent));
    }

    /// Incorporate a raw sample.
    pub fn on_sample(&mut self, rtt: SimDuration) {
        self.samples += 1;
        self.latest = Some(rtt);
        self.min_rtt = Some(match self.min_rtt {
            Some(m) => m.min(rtt),
            None => rtt,
        });
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                // rttvar = 3/4 rttvar + 1/4 |srtt - rtt|
                let err = if srtt >= rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = self.rttvar.mul_f64(0.75) + err.mul_f64(0.25);
                // srtt = 7/8 srtt + 1/8 rtt
                self.srtt = Some(srtt.mul_f64(0.875) + rtt.mul_f64(0.125));
            }
        }
    }

    /// Smoothed RTT, if any sample has been taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// RTT variance estimate.
    pub fn rttvar(&self) -> SimDuration {
        self.rttvar
    }

    /// Minimum observed RTT.
    pub fn min_rtt(&self) -> Option<SimDuration> {
        self.min_rtt
    }

    /// Most recent raw sample.
    pub fn latest(&self) -> Option<SimDuration> {
        self.latest
    }

    /// Number of samples taken.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Current retransmission timeout: `srtt + 4·rttvar`, clamped.
    pub fn rto(&self) -> SimDuration {
        match self.srtt {
            None => self.cfg.initial_rto,
            Some(srtt) => {
                let var_term = self.rttvar.saturating_mul(4).max(SimDuration::from_nanos(1));
                (srtt + var_term).clamp(self.cfg.min_rto, self.cfg.max_rto)
            }
        }
    }

    /// Reset to the no-sample state but keep configuration (used when a
    /// TDN's state is initialized fresh at runtime).
    pub fn reset(&mut self) {
        *self = RttEstimator::new(self.cfg);
    }
}

impl Default for RttEstimator {
    fn default() -> Self {
        RttEstimator::new(RttConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(x: u64) -> SimDuration {
        SimDuration::from_micros(x)
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = RttEstimator::default();
        assert_eq!(e.srtt(), None);
        assert_eq!(e.rto(), RttConfig::default().initial_rto);
        e.on_sample(us(100));
        assert_eq!(e.srtt(), Some(us(100)));
        assert_eq!(e.rttvar(), us(50));
        assert_eq!(e.min_rtt(), Some(us(100)));
        // RTO = 100 + 4*50 = 300us, far below the 10ms floor -> clamped.
        assert_eq!(e.rto(), SimDuration::from_millis(10));
    }

    #[test]
    fn converges_to_stable_rtt() {
        let mut e = RttEstimator::default();
        for _ in 0..100 {
            e.on_sample(us(100));
        }
        let srtt = e.srtt().unwrap();
        assert!(
            (srtt.as_nanos() as i64 - 100_000).abs() < 1_000,
            "srtt {srtt} should converge to 100us"
        );
        assert!(e.rttvar() < us(2), "variance decays on a steady path");
    }

    #[test]
    fn ewma_pollution_across_conditions() {
        // The §3.1 motivation: merging samples from a 100us and a 40us path
        // yields an estimate wrong for both. This documents the behaviour
        // TDTCP's per-TDN estimators avoid.
        let mut e = RttEstimator::default();
        for _ in 0..50 {
            e.on_sample(us(100));
            e.on_sample(us(40));
        }
        let srtt = e.srtt().unwrap();
        assert!(
            srtt > us(50) && srtt < us(95),
            "blended srtt {srtt} is wrong for both paths"
        );
    }

    #[test]
    fn min_rtt_tracks_floor() {
        let mut e = RttEstimator::default();
        e.on_sample(us(100));
        e.on_sample(us(40));
        e.on_sample(us(90));
        assert_eq!(e.min_rtt(), Some(us(40)));
        assert_eq!(e.latest(), Some(us(90)));
        assert_eq!(e.samples(), 3);
    }

    #[test]
    #[should_panic(expected = "exceeds max_rto")]
    fn inverted_rto_bounds_are_rejected() {
        RttEstimator::new(RttConfig {
            min_rto: us(2),
            max_rto: us(1),
            ..RttConfig::default()
        });
    }

    #[test]
    fn rto_clamped_to_bounds() {
        let cfg = RttConfig {
            min_rto: us(500),
            max_rto: SimDuration::from_millis(1),
            initial_rto: us(800),
        };
        let mut e = RttEstimator::new(cfg);
        e.on_sample(SimDuration::from_millis(10));
        assert_eq!(e.rto(), SimDuration::from_millis(1), "clamped to max");
        let mut e2 = RttEstimator::new(cfg);
        for _ in 0..50 {
            e2.on_sample(us(10));
        }
        assert_eq!(e2.rto(), us(500), "clamped to min");
    }

    #[test]
    fn sample_between_instants() {
        let mut e = RttEstimator::default();
        e.on_sample_between(SimTime::from_micros(10), SimTime::from_micros(110));
        assert_eq!(e.srtt(), Some(us(100)));
    }

    #[test]
    fn reset_clears_state() {
        let mut e = RttEstimator::default();
        e.on_sample(us(77));
        e.reset();
        assert_eq!(e.srtt(), None);
        assert_eq!(e.samples(), 0);
        assert_eq!(e.min_rtt(), None);
    }
}
