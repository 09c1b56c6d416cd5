//! Per-path state: everything TCP uses to model *one* network path.
//!
//! A [`Connection`](crate::Connection) holds one [`Path`] per path it can
//! be told to send on — one for plain TCP, one per TDN for TDTCP, which
//! "duplicates" exactly this record (§3.1) and swaps the active one when
//! the network reconfigures. The paper's three state classes map onto it
//! as follows:
//!
//! * **congestion control** (`cwnd`, `ssthresh`, `ca_state`): one CCA
//!   instance and one CA machine per path (Fig. 4), so one path can probe
//!   at full speed while another recovers from a loss;
//! * **delay** (`srtt`, `rttvar`, `mdev`): one estimator per path, fed
//!   only by samples whose data and ACK both rode that path (§4.4);
//! * **pipe** (`packets_out`, `lost_out`, `retrans_out`, …): *not* here —
//!   derived from the shared retransmission queue by each segment's path
//!   tag, which yields §4.3's current / all / any / specific-TDN semantics
//!   by construction.

use crate::ca::CaState;
use crate::cc::CongestionControl;
use crate::rtt::RttEstimator;
use crate::seq::SeqNum;

/// All per-path state of a connection.
pub struct Path {
    /// Congestion control instance (pluggable per path, §3.5).
    pub cc: Box<dyn CongestionControl>,
    /// RTT estimator fed only by same-path samples (§4.4).
    pub rtt: RttEstimator,
    /// This path's congestion-avoidance state.
    pub ca: CaState,
    /// Recovery exit point, while this path is recovering.
    pub recovery_point: Option<SeqNum>,
    /// Scratch for the ACK being processed: payload bytes it acknowledged
    /// that this path carried. Zero between ACKs.
    pub(crate) credit: u32,
}

impl Path {
    /// A fresh path: `cc` at its initial window, no RTT samples, Open.
    pub fn new(cc: Box<dyn CongestionControl>, rtt: RttEstimator) -> Self {
        Path {
            cc,
            rtt,
            ca: CaState::Open,
            recovery_point: None,
            credit: 0,
        }
    }

    /// Whether this path is in a recovery mode.
    pub fn in_recovery(&self) -> bool {
        self.ca.in_recovery()
    }
}

impl std::fmt::Debug for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Path")
            .field("cwnd", &self.cc.cwnd())
            .field("ca", &self.ca)
            .field("srtt", &self.rtt.srtt())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{CcConfig, Cubic};
    use simcore::{SimDuration, SimTime};

    fn path() -> Path {
        Path::new(
            Box::new(Cubic::new(CcConfig::default())),
            RttEstimator::default(),
        )
    }

    #[test]
    fn paths_are_independent() {
        let (mut a, b) = (path(), path());
        a.cc.on_rto(SimTime::ZERO);
        a.rtt.on_sample(SimDuration::from_micros(40));
        a.ca = CaState::Recovery;
        assert_ne!(a.cc.cwnd(), b.cc.cwnd());
        assert_eq!(b.rtt.samples(), 0);
        assert!(a.in_recovery() && !b.in_recovery());
    }

    #[test]
    fn independent_rtt_models_stay_clean() {
        // The §3.1 motivation, inverted: with one estimator per path each
        // tracks its own path exactly (contrast with the blended-EWMA
        // test in `rtt`).
        let (mut pkt, mut opt) = (path(), path());
        for _ in 0..50 {
            pkt.rtt.on_sample(SimDuration::from_micros(100));
            opt.rtt.on_sample(SimDuration::from_micros(40));
        }
        let p = pkt.rtt.srtt().unwrap().as_micros();
        let o = opt.rtt.srtt().unwrap().as_micros();
        assert!((95..=105).contains(&p), "packet srtt {p}us");
        assert!((38..=42).contains(&o), "optical srtt {o}us");
    }
}
