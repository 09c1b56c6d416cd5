//! Deterministic data-path impairment injection for the emulated RDCN.
//!
//! Where [`crate::faults`] makes the *control plane* hostile (lost
//! notifications, failed circuit days), this module makes the *data
//! path* hostile: an [`ImpairPlan`] on `NetConfig` applies per-segment
//! loss, delay-based reordering, duplication, and payload corruption on
//! the wire itself — both the EPS and circuit planes, including
//! segments serviced exactly at day/night transitions, because the
//! verdict is drawn at link-service time regardless of which TDN is
//! active.
//!
//! Like the fault injector, the impairment injector draws from its own
//! RNG stream forked from the run seed under [`IMPAIR_STREAM_LABEL`],
//! and every probabilistic draw is guarded by a `rate > 0.0` check, so:
//!
//! - a clean run is bit-identical whether or not an (inert) plan is
//!   constructed and attached, and
//! - an impaired run is fully reproducible per `(seed, plan)`.
//!
//! Impairment semantics at the emulator:
//! - **Loss**: the segment is serviced (occupies the link) but never
//!   arrives.
//! - **Reorder**: the segment picks up a uniform extra delay in
//!   `(0, reorder_delay]` *after* serialization, so later segments can
//!   overtake it — delay-based reordering, the kind RACK/TDTCP's
//!   relaxed loss detection must tolerate.
//! - **Duplicate**: a second copy arrives a short lag after the first.
//! - **Corrupt**: the segment arrives with a mangled payload checksum;
//!   the receiving endpoint detects and discards it (`corrupt_rx`),
//!   distinct from a drop.

use crate::statfold::{Books, LogEvent};
use simcore::{DetRng, SimDuration, SimTime};
use testkit::{Counters, Digest};

/// Declarative description of data-path adversity. The default plan
/// impairs nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct ImpairPlan {
    /// Per-segment probability of silent loss on the wire.
    pub loss_rate: f64,
    /// Per-segment probability of picking up a reordering delay.
    pub reorder_rate: f64,
    /// Maximum extra delay for a reordered segment; the actual delay is
    /// uniform in `(0, reorder_delay]`.
    pub reorder_delay: SimDuration,
    /// Per-segment probability of being delivered twice.
    pub duplicate_rate: f64,
    /// Per-segment probability of payload corruption (delivered, then
    /// detected and discarded at the receiver).
    pub corrupt_rate: f64,
}

impl Default for ImpairPlan {
    fn default() -> Self {
        ImpairPlan {
            loss_rate: 0.0,
            reorder_rate: 0.0,
            // One packet-fabric RTT: enough to overtake several
            // in-flight segments without parking one past a whole day.
            reorder_delay: SimDuration::from_micros(100),
            duplicate_rate: 0.0,
            corrupt_rate: 0.0,
        }
    }
}

impl ImpairPlan {
    /// A plan that impairs nothing (`Default`).
    pub fn none() -> ImpairPlan {
        ImpairPlan::default()
    }

    /// A plan that only drops segments at `rate`.
    pub fn loss(rate: f64) -> ImpairPlan {
        ImpairPlan {
            loss_rate: rate,
            ..ImpairPlan::default()
        }
    }
}

/// Counters of every impairment actually applied during a run. All
/// monotone; digested into `RunResult::stats_digest`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImpairStats {
    /// Segments silently lost on the wire.
    pub segs_dropped: u64,
    /// Segments delivered late (delay-based reordering).
    pub segs_reordered: u64,
    /// Segments delivered twice.
    pub segs_duplicated: u64,
    /// Segments delivered with a corrupted payload.
    pub segs_corrupted: u64,
}

impl ImpairStats {
    /// Total impairments applied across all classes.
    pub fn total(&self) -> u64 {
        self.sum()
    }
}

impl Counters for ImpairStats {
    fn counters_mut(&mut self) -> impl IntoIterator<Item = &mut u64> {
        testkit::counters!(self, ImpairStats {
            segs_dropped,
            segs_reordered,
            segs_duplicated,
            segs_corrupted,
        })
    }
}

/// One concrete applied impairment, recorded in order of application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImpairEvent {
    /// A segment was lost on the wire.
    Drop {
        /// Simulated time of the loss in nanoseconds.
        at_ns: u64,
    },
    /// A segment was delayed into reordering.
    Reorder {
        /// Simulated time of the draw in nanoseconds.
        at_ns: u64,
        /// Injected extra delay in nanoseconds.
        extra_ns: u64,
    },
    /// A segment was delivered twice.
    Duplicate {
        /// Simulated time of the draw in nanoseconds.
        at_ns: u64,
        /// Duplicate's lag behind the original in nanoseconds.
        lag_ns: u64,
    },
    /// A segment's payload was corrupted in flight.
    Corrupt {
        /// Simulated time of the corruption in nanoseconds.
        at_ns: u64,
    },
}

impl LogEvent for ImpairEvent {
    type Stats = ImpairStats;

    fn counter(self, s: &mut ImpairStats) -> &mut u64 {
        match self {
            ImpairEvent::Drop { .. } => &mut s.segs_dropped,
            ImpairEvent::Reorder { .. } => &mut s.segs_reordered,
            ImpairEvent::Duplicate { .. } => &mut s.segs_duplicated,
            ImpairEvent::Corrupt { .. } => &mut s.segs_corrupted,
        }
    }

    fn write_digest(&self, d: &mut Digest) {
        match *self {
            ImpairEvent::Drop { at_ns } => {
                d.write_u64(1).write_u64(at_ns);
            }
            ImpairEvent::Reorder { at_ns, extra_ns } => {
                d.write_u64(2).write_u64(at_ns).write_u64(extra_ns);
            }
            ImpairEvent::Duplicate { at_ns, lag_ns } => {
                d.write_u64(3).write_u64(at_ns).write_u64(lag_ns);
            }
            ImpairEvent::Corrupt { at_ns } => {
                d.write_u64(4).write_u64(at_ns);
            }
        }
    }
}

/// The injector's decision for one segment leaving a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImpairVerdict {
    /// Deliver normally.
    Pass,
    /// Lose the segment on the wire.
    Drop,
    /// Deliver with this much extra delay (reordering).
    Delay(SimDuration),
    /// Deliver, then deliver a second copy this much later.
    Duplicate(SimDuration),
    /// Deliver with a corrupted payload checksum.
    Corrupt,
}

/// The fixed fork label carving the impairment stream out of a run's
/// seed; keeps the main emulator stream (and the fault stream) identical
/// whether or not a plan is attached.
pub const IMPAIR_STREAM_LABEL: u64 = 0xDA7A;

/// Executes an [`ImpairPlan`] against a dedicated RNG stream and records
/// what was applied.
#[derive(Debug)]
pub struct ImpairInjector {
    plan: ImpairPlan,
    rng: DetRng,
    books: Books<ImpairEvent>,
}

impl ImpairInjector {
    /// An injector for `plan` drawing from `rng` (conventionally
    /// `run_rng.fork(IMPAIR_STREAM_LABEL)`).
    pub fn new(plan: ImpairPlan, rng: DetRng) -> Self {
        ImpairInjector {
            plan,
            rng,
            books: Books::default(),
        }
    }

    /// The counters and log of every impairment applied so far.
    pub fn books(&self) -> &Books<ImpairEvent> {
        &self.books
    }

    /// Decide the fate of one segment leaving a link at `now`. Called
    /// once per serviced segment on whichever plane (EPS or circuit) is
    /// active, so every class applies across day/night transitions.
    pub fn on_wire(&mut self, now: SimTime) -> ImpairVerdict {
        let at_ns = now.as_nanos();
        if self.plan.loss_rate > 0.0 && self.rng.chance(self.plan.loss_rate) {
            self.books.record(ImpairEvent::Drop { at_ns });
            return ImpairVerdict::Drop;
        }
        if self.plan.corrupt_rate > 0.0 && self.rng.chance(self.plan.corrupt_rate) {
            self.books.record(ImpairEvent::Corrupt { at_ns });
            return ImpairVerdict::Corrupt;
        }
        if self.plan.duplicate_rate > 0.0 && self.rng.chance(self.plan.duplicate_rate) {
            // Short lag: the copy lands while the original's ACK is
            // still in flight, exercising the receiver's duplicate path.
            let lag = SimDuration::from_nanos(self.rng.gen_range(1_000..50_000u64));
            self.books.record(ImpairEvent::Duplicate {
                at_ns,
                lag_ns: lag.as_nanos(),
            });
            return ImpairVerdict::Duplicate(lag);
        }
        if self.plan.reorder_rate > 0.0
            && self.plan.reorder_delay > SimDuration::ZERO
            && self.rng.chance(self.plan.reorder_rate)
        {
            let max_ns = self.plan.reorder_delay.as_nanos().max(1);
            let extra = SimDuration::from_nanos(self.rng.gen_range(1..=max_ns));
            self.books.record(ImpairEvent::Reorder {
                at_ns,
                extra_ns: extra.as_nanos(),
            });
            return ImpairVerdict::Delay(extra);
        }
        ImpairVerdict::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(plan: ImpairPlan, seed: u64) -> ImpairInjector {
        ImpairInjector::new(plan, DetRng::new(seed).fork(IMPAIR_STREAM_LABEL))
    }

    #[test]
    fn empty_plan_impairs_nothing() {
        let mut inj = injector(ImpairPlan::none(), 1);
        for i in 0..200 {
            assert_eq!(inj.on_wire(SimTime::from_micros(i)), ImpairVerdict::Pass);
        }
        assert_eq!(inj.books().stats().total(), 0);
        assert!(inj.books().log().is_empty());
    }

    #[test]
    fn loss_rate_is_respected() {
        let mut inj = injector(ImpairPlan::loss(0.2), 7);
        let mut dropped = 0u64;
        for i in 0..5_000 {
            if inj.on_wire(SimTime::from_micros(i)) == ImpairVerdict::Drop {
                dropped += 1;
            }
        }
        assert_eq!(dropped, inj.books().stats().segs_dropped);
        let rate = dropped as f64 / 5_000.0;
        assert!((0.15..0.25).contains(&rate), "loss rate {rate}");
    }

    #[test]
    fn reorder_delay_is_bounded() {
        let plan = ImpairPlan {
            reorder_rate: 1.0,
            reorder_delay: SimDuration::from_micros(30),
            ..ImpairPlan::default()
        };
        let mut inj = injector(plan, 9);
        for i in 0..500 {
            match inj.on_wire(SimTime::from_micros(i)) {
                ImpairVerdict::Delay(extra) => {
                    assert!(extra > SimDuration::ZERO);
                    assert!(extra <= SimDuration::from_micros(30), "extra {extra}");
                }
                v => panic!("expected Delay, got {v:?}"),
            }
        }
        assert_eq!(inj.books().stats().segs_reordered, 500);
    }

    #[test]
    fn log_digest_is_deterministic_per_seed_and_plan() {
        let plan = ImpairPlan {
            loss_rate: 0.1,
            reorder_rate: 0.1,
            duplicate_rate: 0.05,
            corrupt_rate: 0.05,
            ..ImpairPlan::default()
        };
        let mut a = injector(plan.clone(), 11);
        let mut b = injector(plan.clone(), 11);
        for i in 0..2_000 {
            assert_eq!(
                a.on_wire(SimTime::from_micros(i)),
                b.on_wire(SimTime::from_micros(i))
            );
        }
        assert_eq!(a.books().digest(), b.books().digest());
        assert_eq!(a.books().log(), b.books().log());
        let mut c = injector(plan, 12);
        for i in 0..2_000 {
            c.on_wire(SimTime::from_micros(i));
        }
        assert_ne!(a.books().digest(), c.books().digest(), "seed must matter");
    }
}
