//! # simcore — deterministic discrete-event simulation kernel
//!
//! The foundation of the TDTCP reproduction: simulated time
//! ([`SimTime`]/[`SimDuration`]), a deterministic event queue
//! ([`EventQueue`]) with FIFO tie-breaking and cancellation, an explicitly
//! seeded RNG ([`DetRng`]), and the statistics/tracing types the evaluation
//! harness uses to regenerate the paper's figures ([`Cdf`], [`TimeSeries`],
//! [`Gauge`]).
//!
//! Design follows the event-driven, no-surprises style of smoltcp: the
//! simulation is single-threaded and synchronous; simulated time — not
//! wall-clock I/O — drives all progress, so runs are reproducible
//! bit-for-bit from a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod par;
pub mod recorder;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;
pub mod wheel;

pub use event::{EventId, EventQueue};
pub use recorder::{FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use rng::DetRng;
pub use stats::{Cdf, Histogram, Welford};
pub use time::{SimDuration, SimTime};
pub use trace::{Gauge, TimeSeries};
pub use wheel::{TimerWheel, WheelEventId};

/// The event queue the simulators use by default.
///
/// [`EventQueue`] (binary heap over a slab) and [`TimerWheel`]
/// (hierarchical wheel over the same slab) are digest-interchangeable —
/// both pop in exact `(time, seq)` order — so this alias names whichever
/// wins the queue race the benchmark's `simcore.wheel_ns_per_op` /
/// `simcore.heap_ns_per_op` kernels re-run (`benchmark/src/micro.rs`).
/// Currently the wheel: O(1) amortized schedule/pop beats the heap's
/// O(log n) sift on all three mixes (push/pop ~38 vs ~46 µs,
/// cancel/rearm ~52 vs ~86 µs, windowed drain ~120 vs ~223 µs when it
/// was picked). Both `rdcn` engines run on this alias; [`EventQueue`]
/// stays `pub` as the wheel's differential oracle (property tests and
/// the benchmark race the two on the same scripts).
pub type DefaultQueue<E> = TimerWheel<E>;

/// Handle type paired with [`DefaultQueue`] (see [`EventId`] /
/// [`WheelEventId`]).
pub type DefaultEventId = WheelEventId;
