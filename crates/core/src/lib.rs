//! # tdtcp — Time-division TCP (SIGCOMM 2022)
//!
//! The paper's primary contribution: a TCP variant for reconfigurable
//! data center networks that multiplexes a connection across independent
//! per-path congestion states over *time*, the way MPTCP multiplexes
//! subflows over space — except only one "subflow" is ever active, and
//! all of them share a single sequence number space.
//!
//! * [`TdnState`] — the duplicated per-TDN state sets of §3.1. This is
//!   [`tcp::Path`] under the paper's name: TDTCP duplicates exactly the
//!   record TCP keeps per path, and the connection machine in `tcp`
//!   (one sequence space over a set of paths) already implements every
//!   rule that merely indexes a state set — §4.3 current/all/any/
//!   specific-TDN accounting, §3.4 relaxed cross-TDN reordering
//!   detection, §4.4 per-TDN RTT estimation with pessimistic RTO;
//! * [`TdtcpConnection`] — the shell that makes that machine TDTCP:
//!   TD_CAPABLE negotiation and downgrade (§4.2), TD option tagging,
//!   out-of-band generation-tagged TDN-change notifications (§3.2), and
//!   the watchdog / skew-estimator / degraded-posture hardening;
//! * [`TdtcpConfig`] — configuration, including ablation switches for
//!   every design decision (per-TDN state, relaxed detection, pessimistic
//!   RTO) so the benches can quantify each.
//!
//! The engine implements [`tcp::Transport`], so the `rdcn` emulator
//! drives it exactly like any other variant.

#![warn(missing_docs)]

pub mod connection;

pub use connection::{TdtcpConfig, TdtcpConnection, WatchdogConfig};
pub use tcp::{Path as TdnState, State};
