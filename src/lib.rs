//! # tdtcp-repro — Time-division TCP for Reconfigurable Data Center Networks
//!
//! A from-scratch Rust reproduction of TDTCP (SIGCOMM 2022) and every
//! substrate its evaluation depends on. This umbrella crate re-exports
//! the workspace members; see each crate's documentation:
//!
//! * [`simcore`] — deterministic discrete-event simulation kernel,
//! * [`wire`] — byte-exact packet formats (TDTCP options, ICMP
//!   notifications, TCP/IPv4, SACK, MPTCP DSS),
//! * [`tcp`] — the userspace TCP engine with CUBIC/DCTCP/Reno/reTCP,
//! * [`tdtcp`] — the paper's configuration and the constructors of a
//!   TDTCP endpoint: a [`tcp::Connection`] under the time-division policy,
//! * [`mptcp`] — the multipath baseline with the `tdm_schd` scheduler,
//! * [`rdcn`] — the emulated reconfigurable data center network,
//! * `bench` — the harness regenerating every table and figure.
//!
//! Run `cargo run --release -p bench --bin figures` to reproduce the
//! evaluation, or start from `examples/quickstart.rs`.

pub use mptcp;
pub use rdcn;
pub use simcore;
pub use tcp;
pub use tdtcp;
pub use wire;

pub mod harness;
