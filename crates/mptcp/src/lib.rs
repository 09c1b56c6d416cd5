//! # mptcp — the multipath TCP baseline (§2.2)
//!
//! The paper extends the Linux MPTCP implementation with a `tdm_schd`
//! scheduler that pins one subflow to each TDN and steers packets to the
//! subflow of the active TDN. This crate reproduces that baseline: full
//! per-subflow TCP state (reusing the `tcp` engine), a 64-bit data
//! sequence space with simplified DSS mappings, reassembled at the data
//! level by the engine's own [`tcp::recv::Reassembler`],
//! TDN-pinned segments (serviced only while their TDN is up), and
//! connection-level reinjection — all the machinery whose overheads and
//! flow-control stalls §2.2 measures.

#![warn(missing_docs)]

pub mod connection;

pub use connection::{MptcpConfig, MptcpConnection};
