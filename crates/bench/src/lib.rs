//! # bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation over the
//! emulated RDCN: variant factories ([`variants`]), the flowgrind-style
//! workload generator ([`workload`]), and one module per experiment
//! ([`experiments`]). The `figures` binary drives them from the command
//! line.

#![warn(missing_docs)]

pub mod chaos;
pub mod experiments;
pub mod tails;
pub mod variants;
pub mod workload;

pub use chaos::{check_invariants, ChaosSpec};
pub use variants::{Variant, ALL_VARIANTS};
pub use workload::Workload;
