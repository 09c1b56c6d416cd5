//! Congestion control algorithms behind a common trait.
//!
//! TDTCP "does not propose a new congestion control algorithm — it simply
//! implements one of the available CCAs in each TDN" (§3.5). The trait is
//! therefore the unit TDTCP duplicates: one boxed instance per TDN.

pub mod cubic;
pub mod dctcp;
pub mod reno;
pub mod retcp;

use simcore::{SimDuration, SimTime};

pub use cubic::Cubic;
pub use dctcp::Dctcp;
pub use reno::Reno;
pub use retcp::{ReTcp, ReTcpConfig};

/// Everything an algorithm may want to know when an ACK arrives.
#[derive(Debug, Clone, Copy)]
pub struct AckEvent {
    /// Current simulated time.
    pub now: SimTime,
    /// Payload bytes newly cumulatively acknowledged.
    pub bytes_acked: u32,
    /// RTT sample from this ACK (post Karn / TDN filtering), if any.
    pub rtt_sample: Option<SimDuration>,
    /// Smoothed RTT at this point, if known.
    pub srtt: Option<SimDuration>,
    /// Bytes in flight after processing this ACK.
    pub flight_size: u32,
    /// Whether the connection is currently in recovery (cwnd frozen by
    /// most algorithms while retransmitting).
    pub in_recovery: bool,
    /// Bytes acknowledged by ACKs carrying ECN-Echo (DCTCP's input).
    pub ecn_bytes: u32,
}

/// A pluggable congestion control algorithm. All window values in bytes.
pub trait CongestionControl: std::fmt::Debug + Send {
    /// Short identifier (`"cubic"`, `"dctcp"`, ...).
    fn name(&self) -> &'static str;

    /// Current congestion window in bytes.
    fn cwnd(&self) -> u32;

    /// Current slow-start threshold in bytes.
    fn ssthresh(&self) -> u32;

    /// Process an acknowledgment that newly acknowledged payload this
    /// instance's path carried (`ev.bytes_acked > 0`); ACKs that credit
    /// the path nothing are not delivered.
    fn on_ack(&mut self, ev: &AckEvent);

    /// Loss detected: entering fast recovery. `flight_size` is bytes in
    /// flight at detection.
    fn on_enter_recovery(&mut self, now: SimTime, flight_size: u32);

    /// Fast recovery completed (recovery point acknowledged).
    fn on_exit_recovery(&mut self, _now: SimTime) {}

    /// Retransmission timeout fired.
    fn on_rto(&mut self, now: SimTime);

    /// reTCP only: the network signalled that the circuit went up/down.
    fn on_circuit_signal(&mut self, _now: SimTime, _circuit_up: bool) {}

    /// retcpdyn only: advance warning that the circuit comes up shortly;
    /// ramp so the burst can fill pre-sized switch buffers.
    fn on_circuit_prepare(&mut self, _now: SimTime) {}

    /// Fresh instance with identical configuration (used to stamp out one
    /// instance per TDN).
    fn clone_box(&self) -> Box<dyn CongestionControl>;
}

impl Clone for Box<dyn CongestionControl> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Shared algorithm parameters.
#[derive(Debug, Clone, Copy)]
pub struct CcConfig {
    /// Maximum segment size in bytes (window quantum).
    pub mss: u32,
    /// Initial window in segments (RFC 6928 default 10).
    pub init_cwnd_pkts: u32,
    /// Upper bound on cwnd in bytes (send buffer / rmem ceiling).
    pub max_cwnd: u32,
}

impl Default for CcConfig {
    fn default() -> Self {
        CcConfig {
            mss: 8948,
            init_cwnd_pkts: 10,
            max_cwnd: 16 << 20,
        }
    }
}

impl CcConfig {
    /// Initial congestion window in bytes.
    pub fn initial_cwnd(&self) -> u32 {
        self.init_cwnd_pkts * self.mss
    }

    /// The floor cwnd after loss: 1 segment (RFC 5681's loss window).
    /// With 16 flows sharing a 16-packet VOQ (the paper's setting), a
    /// 2-MSS floor would leave the aggregate permanently above the
    /// sustainable pipe and pin the queue at its cap.
    pub fn min_cwnd(&self) -> u32 {
        self.mss
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// An ACK event with sensible defaults for unit tests.
    pub fn ack(now_us: u64, bytes: u32) -> AckEvent {
        AckEvent {
            now: SimTime::from_micros(now_us),
            bytes_acked: bytes,
            rtt_sample: Some(SimDuration::from_micros(100)),
            srtt: Some(SimDuration::from_micros(100)),
            flight_size: 0,
            in_recovery: false,
            ecn_bytes: 0,
        }
    }
}
