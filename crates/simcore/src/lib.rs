//! # simcore — deterministic discrete-event simulation kernel
//!
//! The foundation of the TDTCP reproduction: simulated time
//! ([`SimTime`]/[`SimDuration`]), a deterministic event queue
//! ([`DefaultQueue`]) with FIFO tie-breaking and cancellation, an explicitly
//! seeded RNG ([`DetRng`]), and the statistics/tracing types the evaluation
//! harness uses to regenerate the paper's figures ([`Cdf`], [`TimeSeries`]).
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

/// The event queue the `rdcn` engine runs on.
///
/// [`TimerWheel`] (an intrusive hierarchical wheel: one node slab, every
/// bucket a linked list through it, no heap call per event once the slab
/// has grown to its peak) and [`EventQueue`] (a binary heap of keys over
/// a payload slab) are digest-interchangeable — both pop in exact
/// `(time, seq)` order — so which one this alias names can change a
/// run's host cost and nothing else. It names the wheel: O(1) amortized
/// schedule/pop against the heap's O(log n) sift. Every simulation and
/// test driver runs on this alias. [`EventQueue`] stays `pub` for exactly
/// two users: its reference role in root `tests/queue_oracle.rs` (and the
/// wheel's own unit tests), which hold the two to identical behaviour
/// over random scripts, and the comparison kernel in
/// `benchmark/src/micro.rs` (`simcore.wheel_ns_per_op` /
/// `simcore.heap_ns_per_op`), which times them on the same script.
pub type DefaultQueue<E> = TimerWheel<E>;

/// The simulator's RNG: every stochastic choice (cross traffic,
/// notification jitter, chaos draws) comes from one of these, seeded
/// explicitly and forked per stream with a label, so identical seeds
/// yield identical runs. It is `testkit`'s golden-pinned xoshiro256++.
pub type DetRng = testkit::TkRng;

/// Handle type paired with [`DefaultQueue`] (see [`EventId`] /
/// [`WheelEventId`]).
pub type DefaultEventId = WheelEventId;
