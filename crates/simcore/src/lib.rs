//! # simcore — deterministic discrete-event simulation kernel
//!
//! The foundation of the TDTCP reproduction: simulated time
//! ([`SimTime`]/[`SimDuration`]), a deterministic event queue
//! ([`TimerWheel`], held to the `BTreeMap` reference [`EventQueue`])
//! with FIFO tie-breaking and cancellation, an explicitly seeded RNG
//! ([`DetRng`]), and the statistics/tracing types the evaluation harness
//! uses to regenerate the paper's figures ([`Cdf`], [`TimeSeries`]).
//!
//! Design follows the event-driven, no-surprises style of smoltcp: the
//! simulation is single-threaded and synchronous; simulated time — not
//! wall-clock I/O — drives all progress, so runs are reproducible
//! bit-for-bit from a seed.

#![warn(missing_docs)]

pub mod event;
pub mod par;
pub mod stats;
pub mod time;
pub mod trace;
pub mod wheel;

pub use event::{EventId, EventQueue};
pub use stats::Cdf;
pub use time::{SimDuration, SimTime};
pub use trace::TimeSeries;
pub use wheel::{TimerWheel, WheelEventId};

/// The simulator's RNG: every stochastic choice (cross traffic,
/// notification jitter, chaos draws) comes from one of these, seeded
/// explicitly and forked per stream with a label, so identical seeds
/// yield identical runs. It is `testkit`'s golden-pinned xoshiro256++.
pub type DetRng = testkit::TkRng;
