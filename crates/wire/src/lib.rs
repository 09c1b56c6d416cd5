//! # wire — packet formats for the TDTCP reproduction
//!
//! Byte-exact encoders/parsers for everything that crosses the simulated
//! network: a minimal IPv4 header with ECN codepoints, the TCP header with
//! full option support, the TDTCP protocol extensions from Fig. 5 of the
//! paper (the `TD_CAPABLE` handshake option, the `TD_DATA_ACK` per-segment
//! tag, and the ICMP TDN-change notification), SACK blocks (RFC 2018), and
//! the baseline's MPTCP options: MP_CAPABLE and a simplified DSS.
//!
//! The simulator passes structured segments for speed. Root
//! `tests/laws.rs`' wire law round-trips every segment a run sends or
//! receives through these codecs (via `tcp::Segment::to_wire` /
//! `from_wire`), `examples/reordering_analysis.rs` dissects them, and
//! they double as the reference wire specification of the protocol.

#![warn(missing_docs)]

pub mod checksum;
pub mod error;
pub mod icmp;
pub mod ip;
pub mod options;
pub mod tcp;
pub mod tdn;

pub use error::{ParseError, Result};
pub use icmp::TdnNotification;
pub use ip::{Ecn, Ipv4Header};
pub use options::TcpOption;
pub use tcp::{TcpFlags, TcpHeader};
pub use tdn::TdnId;
