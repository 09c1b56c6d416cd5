//! The reference event queue: a `BTreeMap` keyed on `(time, seq)`.
//!
//! `seq` is a monotonically increasing insertion counter, so the pop
//! order is total: two events scheduled for the same instant are
//! delivered in the order they were scheduled. That order is the whole
//! contract of an event queue here, and it is what makes a run
//! reproducible bit-for-bit from a seed. The engine runs on
//! [`crate::TimerWheel`]; this queue states the contract in the fewest
//! lines, and root `tests/queue_oracle.rs` holds the wheel to it.

use crate::time::SimTime;
use std::collections::BTreeMap;

/// Handle identifying a scheduled event, usable for cancellation: the
/// event's own `(time, seq)` key. `seq` is never reused, so cancelling
/// an id that has fired or been cancelled finds nothing to remove.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId((SimTime, u64));

/// A min-queue of timestamped events with deterministic FIFO
/// tie-breaking and cancellation.
pub struct EventQueue<E> {
    events: BTreeMap<(SimTime, u64), E>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            events: BTreeMap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event (zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedule `payload` at absolute time `time`.
    ///
    /// # Panics
    /// In debug builds, panics if `time` is in the past — scheduling into
    /// the past is always a simulation bug.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        debug_assert!(
            time >= self.now,
            "scheduled event at {time} but clock is already at {}",
            self.now
        );
        let key = (time, self.next_seq);
        self.next_seq += 1;
        self.events.insert(key, payload);
        EventId(key)
    }

    /// Cancel a scheduled event. Returns `true` if it had neither fired
    /// nor been cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.events.remove(&id.0).is_some()
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ((time, _), payload) = self.events.pop_first()?;
        self.now = time;
        self.popped += 1;
        Some((time, payload))
    }

    /// Pop the next event strictly before `limit`, or `None` when the
    /// queue is empty or its next event is at or past `limit`.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? >= limit {
            return None;
        }
        self.pop()
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.events.first_key_value().map(|(&(time, _), _)| time)
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The queue contract as unit tests, stamped out for this reference and
/// for [`crate::TimerWheel`], so both queues answer to one list. The
/// caller has `SimTime` and `SimDuration` in scope.
#[cfg(test)]
macro_rules! contract_tests {
    ($queue:ident) => {
        #[test]
        fn pops_in_time_order() {
            let mut q = $queue::new();
            q.schedule(SimTime::from_micros(30), "c");
            q.schedule(SimTime::from_micros(10), "a");
            q.schedule(SimTime::from_micros(20), "b");
            assert_eq!(q.pop().unwrap().1, "a");
            assert_eq!(q.pop().unwrap().1, "b");
            assert_eq!(q.pop().unwrap().1, "c");
            assert!(q.pop().is_none());
        }

        #[test]
        fn ties_break_fifo() {
            let mut q = $queue::new();
            let t = SimTime::from_micros(5);
            for i in 0..100 {
                q.schedule(t, i);
            }
            for i in 0..100 {
                assert_eq!(q.pop().unwrap().1, i);
            }
        }

        #[test]
        fn clock_advances_monotonically() {
            let mut q = $queue::new();
            q.schedule(SimTime::from_micros(10), ());
            q.schedule(SimTime::from_micros(10), ());
            q.schedule(SimTime::from_micros(25), ());
            let mut last = SimTime::ZERO;
            while let Some((t, _)) = q.pop() {
                assert!(t >= last);
                assert_eq!(q.now(), t);
                last = t;
            }
            assert_eq!(q.events_processed(), 3);
        }

        #[test]
        fn cancellation() {
            let mut q = $queue::new();
            let a = q.schedule(SimTime::from_micros(1), "a");
            let b = q.schedule(SimTime::from_micros(2), "b");
            q.schedule(SimTime::from_micros(3), "c");
            assert!(q.cancel(b));
            assert!(!q.cancel(b), "double cancel reports false");
            assert_eq!(q.pop().unwrap().1, "a");
            assert_eq!(q.pop().unwrap().1, "c");
            assert!(!q.cancel(a), "cancel after fire reports false");
        }

        #[test]
        fn peek_skips_cancelled() {
            let mut q = $queue::new();
            let a = q.schedule(SimTime::from_micros(1), "a");
            q.schedule(SimTime::from_micros(2), "b");
            q.cancel(a);
            assert_eq!(q.peek_time(), Some(SimTime::from_micros(2)));
            assert!(!q.is_empty());
            q.pop();
            assert!(q.is_empty());
        }

        #[test]
        fn pop_before_respects_limit() {
            let mut q = $queue::new();
            let a = q.schedule(SimTime::from_micros(1), "a");
            q.schedule(SimTime::from_micros(2), "b");
            q.schedule(SimTime::from_micros(5), "c");
            q.cancel(a);
            // With "a" cancelled, "b" is the first event below the limit.
            let b = Some((SimTime::from_micros(2), "b"));
            assert_eq!(q.pop_before(SimTime::from_micros(4)), b);
            // "c" is at 5 >= 4: untouched, clock stays where the pop left it.
            assert_eq!(q.pop_before(SimTime::from_micros(4)), None);
            assert_eq!(q.now(), SimTime::from_micros(2));
            // Limit is exclusive: an event exactly at the limit stays queued.
            assert_eq!(q.pop_before(SimTime::from_micros(5)), None);
            let c = Some((SimTime::from_micros(5), "c"));
            assert_eq!(q.pop_before(SimTime::from_micros(6)), c);
            assert_eq!(q.pop_before(SimTime::MAX), None);
            assert!(q.is_empty());
        }

        #[test]
        fn interleaved_schedule_and_pop() {
            // Simulates the common pattern: handling an event schedules more.
            let mut q = $queue::new();
            q.schedule(SimTime::from_micros(1), 0u32);
            let mut seen = vec![];
            while let Some((t, k)) = q.pop() {
                seen.push(k);
                if k < 5 {
                    q.schedule(t + SimDuration::from_micros(1), k + 1);
                }
            }
            assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        }

        #[test]
        fn stale_id_does_not_cancel_reused_slot() {
            let mut q = $queue::new();
            let a = q.schedule(SimTime::from_micros(1), "a");
            q.pop();
            // The fired event's id must not cancel a later one (on the wheel,
            // the newcomer reuses the fired event's node).
            q.schedule(SimTime::from_micros(2), "b");
            assert!(!q.cancel(a));
            assert_eq!(q.pop().unwrap().1, "b");
        }

        #[test]
        fn cancelled_slot_reuse_after_collection() {
            let mut q = $queue::new();
            let a = q.schedule(SimTime::from_micros(5), "a");
            q.cancel(a);
            assert!(q.is_empty());
            let b = q.schedule(SimTime::from_micros(6), "b");
            assert!(!q.cancel(a), "stale id after cancellation");
            assert!(q.cancel(b));
            assert!(q.pop().is_none());
        }

        #[test]
        #[should_panic(expected = "clock is already")]
        #[cfg(debug_assertions)]
        fn scheduling_into_past_panics_in_debug() {
            let mut q = $queue::new();
            q.schedule(SimTime::from_micros(10), ());
            q.pop();
            q.schedule(SimTime::from_micros(5), ());
        }
    };
}
#[cfg(test)]
pub(crate) use contract_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    contract_tests!(EventQueue);
}
