//! # testkit — zero-dependency deterministic test infrastructure
//!
//! Everything the workspace needs to build and test fully offline: a
//! deterministic PRNG ([`TkRng`], xoshiro256++ seeded via SplitMix64), a
//! minimal property-testing harness ([`prop`]) with iteration-bounded
//! shrinking and persisted regression seeds, and a stable stats digest
//! ([`Digest`], with [`Counters`] for counter blocks) used by the
//! golden-trace determinism suite.
//!
//! The crate depends on `std` only. Randomness is never drawn from the
//! environment: every stream is derived from an explicit 64-bit seed, and
//! golden-value tests in [`rng`] pin the streams so they can never change
//! silently.

#![warn(missing_docs)]

pub mod digest;
pub mod prop;
pub mod rng;

pub use digest::{Counters, Digest};
pub use prop::{check, Config, Gen};
pub use rng::{TkRng, UniformRange};
