//! Hierarchical timer wheel — an alternative event queue to the binary
//! heap in [`crate::event`].
//!
//! Same contract as [`crate::EventQueue`]: events pop in exact
//! `(time, seq)` order where `seq` is the monotone insertion counter, so
//! the two implementations are digest-interchangeable — swapping one for
//! the other cannot change any simulation output, only its wall time.
//! The benchmark races them head-to-head (`simcore.heap_ns_per_op` vs
//! `simcore.wheel_ns_per_op`, `benchmark/src/micro.rs`);
//! [`crate::DefaultQueue`] names the winner.
//!
//! Layout: six levels of 64 slots each. Level `l` buckets spans of
//! `64^l · 1024 ns`, so the wheel covers ~70 000 s before anything
//! lands in the unsorted overflow list (rebased wholesale if the
//! levels ever run dry, which no current workload reaches). Each slot
//! holds small `{time, seq, slot}` keys; payloads live in the same
//! slab-with-free-list arrangement as the heap queue, so cancellation
//! is a lazy O(1) mark. Draining a slot sorts its keys (slots are
//! narrow, so runs are short) into a `ready` batch that pops by
//! cursor; an insert below the drained horizon binary-searches into
//! `ready`, keeping the total order exact.

use crate::time::SimTime;

/// Opaque handle identifying a scheduled event, usable for cancellation.
///
/// Same shape as the heap queue's id: `seq` disambiguates slab reuse, so
/// a stale id whose slot now holds a different event fails the seq match
/// instead of cancelling it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WheelEventId {
    slot: u32,
    seq: u64,
}

/// Bucket key: 24 bytes regardless of payload size (mirrors the heap
/// queue's `Entry`).
#[derive(Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    slot: u32,
}

enum Slot<E> {
    /// On the free list, available for the next `schedule`.
    Vacant,
    /// Scheduled and not yet fired or cancelled.
    Live { seq: u64, payload: E },
    /// Cancelled while live; freed when its key surfaces.
    Cancelled,
}

/// log2 of the level-0 slot width in nanoseconds (1024 ns).
const GRAN_BITS: u32 = 10;
/// log2 of the slots per level (64).
const LEVEL_BITS: u32 = 6;
const SLOTS: usize = 1 << LEVEL_BITS;
const LEVELS: usize = 6;

/// Slot width of level `l` in nanoseconds.
fn width(l: usize) -> u64 {
    1u64 << (GRAN_BITS + LEVEL_BITS * l as u32)
}

struct Level {
    /// Keys bucketed by `(time / width) % SLOTS`.
    buckets: Vec<Vec<Key>>,
    /// Bit `i` set iff `buckets[i]` is non-empty.
    occupied: u64,
}

impl Level {
    fn new() -> Level {
        Level {
            buckets: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: 0,
        }
    }

    fn push(&mut self, idx: usize, key: Key) {
        self.buckets[idx].push(key);
        self.occupied |= 1 << idx;
    }

    /// Index of the first occupied bucket at or after `from`, if any.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let masked = self.occupied & (u64::MAX << from);
        if masked == 0 {
            None
        } else {
            Some(masked.trailing_zeros() as usize)
        }
    }
}

/// A min-queue of timestamped events with deterministic FIFO
/// tie-breaking and lazy cancellation, backed by a hierarchical timer
/// wheel. Drop-in alternative to [`crate::EventQueue`].
pub struct TimerWheel<E> {
    levels: Vec<Level>,
    /// Events beyond the top level's span (rebased if ever reached).
    overflow: Vec<Key>,
    /// Drained keys in exact `(time, seq)` order; `ready_pos` is the
    /// pop cursor.
    ready: Vec<Key>,
    ready_pos: usize,
    /// Every live event with `time < horizon` is in `ready`; everything
    /// at or after it is still bucketed. Horizon is always a multiple of
    /// the level-0 width.
    horizon: u64,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    /// Live (scheduled, not fired, not cancelled) event count.
    live: usize,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    /// Create an empty queue with the clock at zero.
    pub fn new() -> Self {
        TimerWheel {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            overflow: Vec::new(),
            ready: Vec::new(),
            ready_pos: 0,
            horizon: 0,
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            live: 0,
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

    /// Count of keys still held, including not-yet-collected cancelled
    /// ones.
    pub fn raw_len(&self) -> usize {
        (self.ready.len() - self.ready_pos)
            + self.overflow.len()
            + self
                .levels
                .iter()
                .map(|l| l.buckets.iter().map(Vec::len).sum::<usize>())
                .sum::<usize>()
    }

    fn alloc(&mut self, payload: E) -> (u32, u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(matches!(self.slots[slot as usize], Slot::Vacant));
                self.slots[slot as usize] = Slot::Live { seq, payload };
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("more than u32::MAX live events");
                self.slots.push(Slot::Live { seq, payload });
                slot
            }
        };
        self.live += 1;
        (slot, seq)
    }

    /// Bucket `key` into the shallowest level whose current window
    /// reaches its time, or the overflow list.
    fn place(&mut self, key: Key) {
        let t = key.time.as_nanos();
        debug_assert!(t >= self.horizon);
        for l in 0..LEVELS {
            let w = width(l);
            if t / w < self.horizon / w + SLOTS as u64 {
                let idx = ((t / w) % SLOTS as u64) as usize;
                self.levels[l].push(idx, key);
                return;
            }
        }
        self.overflow.push(key);
    }

    /// Schedule `payload` at absolute time `time`.
    ///
    /// # Panics
    /// In debug builds, panics if `time` is in the past — scheduling into
    /// the past is always a simulation bug.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> WheelEventId {
        debug_assert!(
            time >= self.now,
            "scheduled event at {time} but clock is already at {}",
            self.now
        );
        let (slot, seq) = self.alloc(payload);
        let key = Key { time, seq, slot };
        if time.as_nanos() < self.horizon {
            // Below the drained horizon: splice into the pending part of
            // the ready batch at its exact `(time, seq)` position. `seq`
            // is larger than every ready entry's, so the partition point
            // is after all equal-or-earlier times. Only the pending
            // region is searched: the consumed prefix may hold
            // cancelled keys with times above `time` (skipped by
            // cursor, never removed), so the vec as a whole need not be
            // sorted — but `[ready_pos..]` always is.
            let at = self.ready_pos
                + self.ready[self.ready_pos..].partition_point(|k| k.time <= time);
            self.ready.insert(at, key);
        } else {
            self.place(key);
        }
        WheelEventId { slot, seq }
    }

    /// Cancel a previously scheduled event. Returns `true` if the event
    /// had not yet fired (or been cancelled). Lazy: the key stays
    /// bucketed and is discarded when it surfaces.
    pub fn cancel(&mut self, id: WheelEventId) -> bool {
        match self.slots.get_mut(id.slot as usize) {
            Some(s @ Slot::Live { .. }) => {
                let live_seq = match s {
                    Slot::Live { seq, .. } => *seq,
                    _ => unreachable!(),
                };
                if live_seq == id.seq {
                    *s = Slot::Cancelled;
                    self.live -= 1;
                    true
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    /// Drain buckets (cascading upper levels as needed) until the ready
    /// batch holds the next key, or every level and the overflow are
    /// exhausted.
    fn refill(&mut self) {
        if self.ready_pos < self.ready.len() {
            return;
        }
        self.ready.clear();
        self.ready_pos = 0;
        loop {
            if self.live == 0 {
                // Nothing real left; drop any lingering cancelled keys.
                for l in &mut self.levels {
                    if l.occupied != 0 {
                        for b in &mut l.buckets {
                            for k in b.drain(..) {
                                self.slots[k.slot as usize] = Slot::Vacant;
                                self.free.push(k.slot);
                            }
                        }
                        l.occupied = 0;
                    }
                }
                for k in self.overflow.drain(..) {
                    self.slots[k.slot as usize] = Slot::Vacant;
                    self.free.push(k.slot);
                }
                return;
            }
            // Each level's live keys occupy one 64-slot wrap window
            // starting at its current cursor slot `s_l = horizon / W_l`
            // (indices below the cursor's belong to the *next* aligned
            // block). Find the earliest-starting occupied slot across
            // overflow and all levels, scanning overflow first and
            // levels high→low with a strict `<`, so on equal starts the
            // coarser holder cascades down *before* the finer one
            // drains — a level-l slot can contain keys that belong in
            // the very level-0 slot about to drain.
            const OVF: usize = LEVELS;
            let mut best: Option<(u64, usize, usize)> = None; // (start, level, idx)
            if !self.overflow.is_empty() {
                let min = self
                    .overflow
                    .iter()
                    .map(|k| k.time.as_nanos())
                    .min()
                    .expect("overflow checked non-empty");
                best = Some((min / width(0) * width(0), OVF, 0));
            }
            for l in (0..LEVELS).rev() {
                if self.levels[l].occupied == 0 {
                    continue;
                }
                let w = width(l);
                let s = self.horizon / w;
                let idx = (s % SLOTS as u64) as usize;
                let (abs, i) = match self.levels[l].next_occupied(idx) {
                    Some(i) => (s - idx as u64 + i as u64, i),
                    None => {
                        // Only wrapped slots remain: next aligned block.
                        let i = self.levels[l].occupied.trailing_zeros() as usize;
                        (s - idx as u64 + SLOTS as u64 + i as u64, i)
                    }
                };
                let start = abs * w;
                if best.is_none_or(|(b, _, _)| start < b) {
                    best = Some((start, l, i));
                }
            }
            let Some((start, l, i)) = best else {
                unreachable!("live > 0 but no level or overflow holds a key");
            };
            debug_assert!(start >= self.horizon, "wheel horizon went backwards");
            if l == OVF {
                // Rebase: everything beyond the top span re-places now
                // that the horizon caught up.
                self.horizon = start;
                for k in std::mem::take(&mut self.overflow) {
                    self.place(k);
                }
            } else if l == 0 {
                let mut batch = std::mem::take(&mut self.levels[0].buckets[i]);
                self.levels[0].occupied &= !(1u64 << i);
                batch.sort_unstable_by_key(|k| (k.time, k.seq));
                self.horizon = start + width(0);
                self.ready = batch;
                return;
            } else {
                // Cascade: re-place the slot's keys; each fits level
                // l-1 or below relative to the advanced horizon.
                self.horizon = start;
                let batch = std::mem::take(&mut self.levels[l].buckets[i]);
                self.levels[l].occupied &= !(1u64 << i);
                for k in batch {
                    self.place(k);
                }
            }
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            self.refill();
            let key = self.ready.get(self.ready_pos).copied()?;
            self.ready_pos += 1;
            match std::mem::replace(&mut self.slots[key.slot as usize], Slot::Vacant) {
                Slot::Cancelled => {
                    self.free.push(key.slot);
                }
                Slot::Live { seq, payload } => {
                    debug_assert_eq!(seq, key.seq, "slot/key pairing broken");
                    debug_assert!(key.time >= self.now, "timer wheel went backwards");
                    self.free.push(key.slot);
                    self.now = key.time;
                    self.popped += 1;
                    self.live -= 1;
                    return Some((key.time, payload));
                }
                Slot::Vacant => unreachable!("bucketed key pointed at a vacant slot"),
            }
        }
    }

    /// Pop the next live event strictly before `limit`, or `None` when
    /// the wheel is empty or its next live event is at or past `limit`.
    /// Mirrors [`crate::EventQueue::pop_before`] so the two queues stay
    /// drop-in interchangeable for the windowed shard loop.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        loop {
            self.refill();
            let key = *self.ready.get(self.ready_pos)?;
            if key.time >= limit {
                // Ready keys are sorted and later buckets hold later
                // times, so no live event precedes `limit`.
                return None;
            }
            self.ready_pos += 1;
            match std::mem::replace(&mut self.slots[key.slot as usize], Slot::Vacant) {
                Slot::Cancelled => {
                    self.free.push(key.slot);
                }
                Slot::Live { seq, payload } => {
                    debug_assert_eq!(seq, key.seq, "slot/key pairing broken");
                    debug_assert!(key.time >= self.now, "timer wheel went backwards");
                    self.free.push(key.slot);
                    self.now = key.time;
                    self.popped += 1;
                    self.live -= 1;
                    return Some((key.time, payload));
                }
                Slot::Vacant => unreachable!("bucketed key pointed at a vacant slot"),
            }
        }
    }

    /// Timestamp of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            self.refill();
            let key = *self.ready.get(self.ready_pos)?;
            if matches!(self.slots[key.slot as usize], Slot::Cancelled) {
                self.slots[key.slot as usize] = Slot::Vacant;
                self.free.push(key.slot);
                self.ready_pos += 1;
            } else {
                return Some(key.time);
            }
        }
    }

    /// Whether any live events remain.
    pub fn is_empty(&mut self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
impl<E> TimerWheel<E> {
    /// Test-only structural invariant check; panics with a description
    /// of the first violated invariant.
    fn check_invariants(&self) {
        assert_eq!(self.horizon % width(0), 0, "horizon not slot-aligned");
        for (l, level) in self.levels.iter().enumerate() {
            let w = width(l);
            let s = self.horizon / w;
            for (idx, bucket) in level.buckets.iter().enumerate() {
                assert_eq!(
                    level.occupied & (1 << idx) != 0,
                    !bucket.is_empty(),
                    "occupancy bit mismatch level {l} idx {idx}"
                );
                for k in bucket {
                    let t = k.time.as_nanos();
                    assert!(t >= self.horizon, "bucketed key below horizon (level {l})");
                    let abs = t / w;
                    assert!(
                        abs >= s && abs < s + SLOTS as u64,
                        "key at level {l} outside wrap window: abs={abs} s={s}"
                    );
                    assert_eq!(abs as usize % SLOTS, idx, "key in wrong bucket");
                }
            }
        }
        for k in &self.overflow {
            assert!(k.time.as_nanos() >= self.horizon, "overflow key below horizon");
        }
        for pair in self.ready[self.ready_pos..].windows(2) {
            assert!(
                (pair[0].time, pair[0].seq) < (pair[1].time, pair[1].seq),
                "ready not sorted: ({:?},{}) then ({:?},{}), horizon {}, pos {}, len {}",
                pair[0].time,
                pair[0].seq,
                pair[1].time,
                pair[1].seq,
                self.horizon,
                self.ready_pos,
                self.ready.len()
            );
        }
        for k in &self.ready[self.ready_pos..] {
            assert!(
                k.time.as_nanos() < self.horizon || self.horizon == 0,
                "pending ready key at/above horizon"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use crate::rng::DetRng;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = TimerWheel::new();
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
        let mut q = TimerWheel::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn sub_slot_times_keep_exact_order() {
        // Distinct times inside one 1024 ns bucket must still pop by
        // time, not insertion order.
        let mut q = TimerWheel::new();
        q.schedule(SimTime::from_nanos(900), "b");
        q.schedule(SimTime::from_nanos(100), "a");
        q.schedule(SimTime::from_nanos(1000), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn cancellation() {
        let mut q = TimerWheel::new();
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
        let mut q = TimerWheel::new();
        let a = q.schedule(SimTime::from_micros(1), "a");
        q.schedule(SimTime::from_micros(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(2)));
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn schedule_below_horizon_interleaves_exactly() {
        // Pop an event, then schedule below the drained horizon but
        // after `now`: the new event must pop in exact time order.
        let mut q = TimerWheel::new();
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(900), "d");
        assert_eq!(q.pop().unwrap().1, "a");
        q.schedule(SimTime::from_nanos(500), "b");
        q.schedule(SimTime::from_nanos(500), "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "d");
    }

    #[test]
    fn far_future_and_overflow_events_surface() {
        let mut q = TimerWheel::new();
        // Beyond the top level's ~70 000 s span → overflow list.
        q.schedule(SimTime::from_secs(100_000), "far");
        q.schedule(SimTime::from_nanos(5), "near");
        q.schedule(SimTime::from_secs(30), "mid");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "far");
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_before_respects_limit() {
        let mut q = TimerWheel::new();
        let a = q.schedule(SimTime::from_micros(1), "a");
        q.schedule(SimTime::from_micros(2), "b");
        q.schedule(SimTime::from_micros(5), "c");
        q.cancel(a);
        // Cancelled root below the limit is collected, "b" surfaces.
        assert_eq!(q.pop_before(SimTime::from_micros(4)), Some((SimTime::from_micros(2), "b")));
        // "c" is at 5 >= 4: untouched, clock stays where the pop left it.
        assert_eq!(q.pop_before(SimTime::from_micros(4)), None);
        assert_eq!(q.now(), SimTime::from_micros(2));
        // Limit is exclusive: an event exactly at the limit stays queued.
        assert_eq!(q.pop_before(SimTime::from_micros(5)), None);
        assert_eq!(q.pop_before(SimTime::from_micros(6)), Some((SimTime::from_micros(5), "c")));
        assert_eq!(q.pop_before(SimTime::MAX), None);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = TimerWheel::new();
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
    fn slots_are_recycled() {
        let mut q = TimerWheel::new();
        q.schedule(SimTime::from_micros(1), 0u32);
        let mut pops = 0u32;
        while let Some((t, k)) = q.pop() {
            pops += 1;
            if k < 10_000 {
                q.schedule(t + SimDuration::from_micros(1), k + 1);
            }
        }
        assert_eq!(pops, 10_001);
        assert!(q.slots.len() <= 2, "slab grew to {} slots", q.slots.len());
    }

    #[test]
    fn stale_id_does_not_cancel_reused_slot() {
        let mut q = TimerWheel::new();
        let a = q.schedule(SimTime::from_micros(1), "a");
        q.pop();
        q.schedule(SimTime::from_micros(2), "b");
        assert!(!q.cancel(a));
        assert_eq!(q.pop().unwrap().1, "b");
    }

    /// The wheel's whole reason to exist hinges on matching the heap
    /// queue exactly: run an adversarial random schedule/cancel/pop mix
    /// against `EventQueue` and demand identical observable traces.
    #[test]
    fn trace_equivalent_to_binary_heap() {
        for seed in 0..20u64 {
            let mut rng = DetRng::new(0xEE1_0000 + seed);
            let mut heap = EventQueue::new();
            let mut wheel = TimerWheel::new();
            let mut heap_ids = Vec::new();
            let mut wheel_ids = Vec::new();
            let mut trace_h = Vec::new();
            let mut trace_w = Vec::new();
            for step in 0..3_000u32 {
                match rng.gen_range(0..10u32) {
                    0..=5 => {
                        // Schedule at now + mixed-magnitude offset
                        // (sub-slot ns up to tens of ms).
                        let mag = rng.gen_range(0..4u32);
                        let off = match mag {
                            0 => rng.gen_range(0..1_000u64),
                            1 => rng.gen_range(0..100_000u64),
                            2 => rng.gen_range(0..10_000_000u64),
                            _ => rng.gen_range(0..100_000_000u64),
                        };
                        let t = heap.now() + SimDuration::from_nanos(off);
                        heap_ids.push(heap.schedule(t, step));
                        wheel_ids.push(wheel.schedule(t, step));
                        wheel.check_invariants();
                    }
                    6 => {
                        if !heap_ids.is_empty() {
                            let i = rng.gen_range(0..heap_ids.len());
                            let a = heap.cancel(heap_ids[i]);
                            let b = wheel.cancel(wheel_ids[i]);
                            wheel.check_invariants();
                            assert_eq!(a, b, "cancel verdicts diverged");
                        }
                    }
                    _ => {
                        let a = heap.pop();
                        let b = wheel.pop();
                        wheel.check_invariants();
                        assert_eq!(a, b, "pop diverged at step {step} seed {seed}");
                        if let Some(x) = a {
                            trace_h.push(x);
                        }
                        if let Some((t, _)) = b {
                            trace_w.push(t);
                        }
                        assert_eq!(heap.peek_time(), wheel.peek_time());
                        wheel.check_invariants();
                    }
                }
            }
            // Drain both to the end.
            loop {
                let a = heap.pop();
                let b = wheel.pop();
                assert_eq!(a, b, "drain diverged seed {seed}");
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(heap.events_processed(), wheel.events_processed());
        }
    }

    #[test]
    #[should_panic(expected = "clock is already")]
    #[cfg(debug_assertions)]
    fn scheduling_into_past_panics_in_debug() {
        let mut q = TimerWheel::new();
        q.schedule(SimTime::from_micros(10), ());
        q.pop();
        q.schedule(SimTime::from_micros(5), ());
    }
}
