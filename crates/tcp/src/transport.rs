//! The endpoint abstraction the network substrate drives.
//!
//! Single-path TCP, TDTCP, and MPTCP endpoints all implement [`Transport`],
//! and its methods are their only entry points. The RDCN engine is generic
//! over its host handle `H`, any `DerefMut` to a [`Transport`] (a boxed
//! `dyn Transport` by default), and is agnostic to the variant under test.

use crate::segment::Segment;
use crate::stats::ConnStats;
use simcore::SimTime;
use wire::TdnId;

/// A terminal per-flow error: the connection gave up instead of retrying
/// forever. Mirrors the time-division policy's degraded posture for a
/// silent control plane (one path, capped window, its time counted in
/// `ConnStats::degraded_ns`) — the failure is *surfaced*, not silently
/// spun on, so the driver (and the chaos harness's invariant oracle) can
/// distinguish "completed", "errored", and "stalled".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnError {
    /// Consecutive retransmission timeouts exceeded the configured
    /// maximum (`Config::max_retries`, the `tcp_retries2` analogue).
    RetransmitLimit {
        /// RTO backoff count when the connection aborted.
        retries: u32,
    },
    /// The peer advertised a zero window and never reopened it through
    /// the configured maximum of persist probes.
    PersistTimeout {
        /// Persist probes sent when the connection aborted.
        probes: u32,
    },
}

/// A transport endpoint: consumes segments, timer expirations and
/// network-control signals; produces segments.
pub trait Transport {
    /// An incoming segment was delivered to this host.
    fn on_segment(&mut self, now: SimTime, seg: &Segment);

    /// Produce the next segment to transmit, or `None` when nothing may be
    /// sent. The driver calls this repeatedly until `None` after every
    /// event.
    fn poll_send(&mut self, now: SimTime) -> Option<Segment>;

    /// Earliest pending timer, if any.
    fn next_timer(&self) -> Option<SimTime>;

    /// A previously announced timer deadline passed.
    fn on_timer(&mut self, now: SimTime);

    /// A ToR-generated TDN-change notification arrived (§3.2). `gen` is
    /// the ToR's monotone notification generation — endpoints use it to
    /// detect duplicated and out-of-order deliveries (a duplicate
    /// carries a gen they have already applied).
    fn on_tdn_notification(&mut self, now: SimTime, tdn: TdnId, gen: u64);

    /// retcpdyn: the ToR announced it will switch to the circuit soon and
    /// has pre-enlarged its buffers.
    fn on_circuit_prepare(&mut self, now: SimTime);

    /// Cumulative statistics.
    fn stats(&self) -> &ConnStats;

    /// Whether the connection finished its handshake.
    fn is_established(&self) -> bool;

    /// Whether the transfer has fully completed.
    fn is_done(&self) -> bool;

    /// The terminal error this connection aborted with, if any. A
    /// connection with an error also reports `is_done()` so drivers
    /// terminate.
    fn conn_error(&self) -> Option<ConnError>;

    /// Variant label for reporting (e.g. `"cubic"`, `"tdtcp"`).
    fn variant(&self) -> &'static str;

    /// Current congestion window(s) in bytes — one entry for single-path
    /// variants, one per TDN for TDTCP, one per subflow for MPTCP. For
    /// tracing and diagnostics.
    fn cwnd_report(&self) -> Vec<u32>;
}
