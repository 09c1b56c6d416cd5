//! # tcp — a from-scratch userspace TCP engine
//!
//! The substrate the TDTCP reproduction builds on: everything the paper's
//! kernel implementation relies on from the Linux stack, reimplemented as
//! a deterministic, poll-driven engine:
//!
//! * wrapping sequence arithmetic ([`SeqNum`]),
//! * a retransmission queue with SACK scoreboard and RFC 6675 pipe
//!   accounting ([`rtx::RtxQueue`]) whose per-segment TDN tags enable
//!   TDTCP's §4.3 state-class semantics,
//! * receiver reassembly with SACK generation ([`recv::Reassembler`]),
//! * RTT estimation per RFC 6298 ([`rtt::RttEstimator`]),
//! * the Linux congestion-avoidance state machine ([`ca::CaState`]),
//! * per-path state — CCA, RTT estimator, CA machine ([`path::Path`]) —
//!   which is exactly what TDTCP duplicates per TDN (§3.1),
//! * the one connection state machine ([`connection::Connection`]):
//!   handshake, SACK recovery, RACK-style loss marking, tail-loss probes,
//!   RTO, persist and pacing over a set of paths — single-path TCP when
//!   the set has one member, TDTCP with one per TDN and the
//!   [`TimeDivision`] policy,
//! * pluggable congestion control ([`cc::CongestionControl`]) with Reno,
//!   CUBIC, DCTCP and reTCP implementations,
//! * and the [`Transport`] trait the RDCN emulator drives.

#![warn(missing_docs)]

pub mod ca;
pub mod cc;
pub mod connection;
pub mod path;
pub mod recv;
pub mod rtt;
pub mod rtx;
pub mod segment;
pub mod seq;
pub mod stats;
pub mod transport;

pub use ca::CaState;
pub use cc::{CcConfig, CongestionControl};
pub use connection::{Config, Connection, State, TimeDivision, WatchdogConfig, ISN};
pub use path::Path;
pub use segment::{Direction, DssMap, FlowId, SackBlocks, Segment};
pub use seq::SeqNum;
pub use stats::ConnStats;
pub use transport::{ConnError, Transport};
