//! Hierarchical timer wheel — the event queue both `rdcn` engines run on.
//!
//! Same contract as [`crate::EventQueue`]: events pop in exact
//! `(time, seq)` order where `seq` is the monotone insertion counter, so
//! the two implementations are digest-interchangeable — swapping one for
//! the other cannot change any simulation output, only its host cost.
//! The heap queue stays as the differential oracle (root
//! `tests/queue_oracle.rs`, the unit test below, and the benchmark's
//! `simcore.wheel_ns_per_op` / `simcore.heap_ns_per_op` kernels run the
//! two on the same scripts).
//!
//! Layout: intrusive. Every scheduled event is one node in a slab —
//! `time`, `seq`, a `next` link and the payload — and every container a
//! node can be in is a singly linked list threaded through `next`: the
//! free list, one list per bucket, the overflow list. Six levels of 64
//! buckets each; a level is 64 list heads plus an occupancy bitmask.
//! Level `l` buckets spans of `64^l · 1024 ns`, so the wheel covers
//! ~70 000 s before anything lands on the overflow list (rebased
//! wholesale when the levels run dry). Scheduling pushes a node on the
//! front of its bucket's list; a cascade relinks a bucket's nodes one
//! level down; cancellation is a lazy O(1) mark on the node. Draining a
//! level-0 bucket walks its list into the one reusable `ready` buffer of
//! `{time, seq, node}` keys and sorts it, and pops then read `ready` by
//! cursor; an insert below the drained horizon binary-searches into
//! `ready`, keeping the total order exact.
//!
//! List order inside a bucket carries no information: `(time, seq)` is
//! unique per node, so the sort that follows a drain gives one result
//! whatever order the walk met the nodes in, and a cascade or a rebase
//! only decides *which* bucket a node lands in, from its own time.
//!
//! Nothing here allocates in steady state: the slab grows to the peak
//! number of events ever held at once and `ready` to the widest bucket
//! ever drained, and both are kept.

use crate::time::SimTime;

/// Opaque handle identifying a scheduled event, usable for cancellation.
///
/// Same shape as the heap queue's id: `seq` disambiguates slab reuse, so
/// a stale id whose node now holds a different event fails the seq match
/// instead of cancelling it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WheelEventId {
    node: u32,
    seq: u64,
}

/// End-of-list marker, and the head of an empty list.
const NIL: u32 = u32::MAX;

/// One entry of the `ready` batch: 24 bytes regardless of payload size,
/// so the per-bucket sort moves small keys, not payloads.
#[derive(Clone, Copy)]
struct Key {
    time: SimTime,
    seq: u64,
    node: u32,
}

enum State<E> {
    /// On the free list, available for the next `schedule`.
    Vacant,
    /// Scheduled and not yet fired or cancelled.
    Live(E),
    /// Cancelled while live; freed when its key surfaces.
    Cancelled,
}

struct Node<E> {
    time: SimTime,
    seq: u64,
    /// The next node on whichever list holds this one (free, a bucket's,
    /// overflow), or `NIL`. Unused while the node's key sits in `ready`.
    next: u32,
    state: State<E>,
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
    /// List heads, bucketed by `(time / width) % SLOTS`.
    heads: [u32; SLOTS],
    /// Bit `i` set iff `heads[i]` is not `NIL`.
    occupied: u64,
}

impl Level {
    /// Unlink and return bucket `idx`'s whole list.
    fn take(&mut self, idx: usize) -> u32 {
        self.occupied &= !(1u64 << idx);
        std::mem::replace(&mut self.heads[idx], NIL)
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
    levels: [Level; LEVELS],
    /// Head of the list of events beyond the top level's span.
    overflow: u32,
    /// Drained keys in exact `(time, seq)` order; `ready_pos` is the
    /// pop cursor. The buffer is reused from drain to drain.
    ready: Vec<Key>,
    ready_pos: usize,
    /// Every held event with `time < horizon` is in `ready`; everything
    /// at or after it is still bucketed. Horizon is always a multiple of
    /// the level-0 width.
    horizon: u64,
    nodes: Vec<Node<E>>,
    /// Head of the free list.
    free: u32,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    /// Live (scheduled, not fired, not cancelled) event count.
    live: usize,
    /// Nodes off the free list: live plus not-yet-collected cancelled.
    held: usize,
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    /// Bytes one scheduled event occupies in the node slab: time, seq,
    /// link and the payload in its state cell. Callers that size their
    /// event type to a cache line test against this.
    pub const fn node_bytes() -> usize {
        std::mem::size_of::<Node<E>>()
    }

    /// Create an empty queue with the clock at zero.
    pub fn new() -> Self {
        TimerWheel {
            levels: std::array::from_fn(|_| Level {
                heads: [NIL; SLOTS],
                occupied: 0,
            }),
            overflow: NIL,
            ready: Vec::new(),
            ready_pos: 0,
            horizon: 0,
            nodes: Vec::new(),
            free: NIL,
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            live: 0,
            held: 0,
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

    /// Count of events still held, including not-yet-collected cancelled
    /// ones.
    pub fn raw_len(&self) -> usize {
        self.held
    }

    /// Take a node off the free list (growing the slab when it is empty)
    /// and fill it in; its `next` is for whoever links it.
    fn alloc(&mut self, time: SimTime, payload: E) -> Key {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live += 1;
        self.held += 1;
        let state = State::Live(payload);
        let node = self.free;
        if node == NIL {
            let node = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&n| n != NIL)
                .expect("more than u32::MAX - 1 events held");
            self.nodes.push(Node {
                time,
                seq,
                next: NIL,
                state,
            });
            return Key { time, seq, node };
        }
        let slot = &mut self.nodes[node as usize];
        debug_assert!(matches!(slot.state, State::Vacant));
        self.free = slot.next;
        slot.time = time;
        slot.seq = seq;
        slot.state = state;
        Key { time, seq, node }
    }

    /// Put `node` back on the free list and return what it held.
    fn release(&mut self, node: u32) -> State<E> {
        let slot = &mut self.nodes[node as usize];
        slot.next = self.free;
        self.free = node;
        self.held -= 1;
        std::mem::replace(&mut slot.state, State::Vacant)
    }

    /// Link `node`, whose time is `time`, into the shallowest level whose
    /// current window reaches it, or onto the overflow list.
    fn place(&mut self, node: u32, time: SimTime) {
        let t = time.as_nanos();
        debug_assert!(t >= self.horizon);
        let next = &mut self.nodes[node as usize].next;
        for (l, level) in self.levels.iter_mut().enumerate() {
            let w = width(l);
            if t / w < self.horizon / w + SLOTS as u64 {
                let idx = ((t / w) % SLOTS as u64) as usize;
                *next = level.heads[idx];
                level.heads[idx] = node;
                level.occupied |= 1 << idx;
                return;
            }
        }
        *next = self.overflow;
        self.overflow = node;
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
        let key = self.alloc(time, payload);
        if time.as_nanos() < self.horizon {
            // Below the drained horizon: splice into the pending part of
            // the ready batch at its exact `(time, seq)` position. `seq`
            // is larger than every ready entry's, so the partition point
            // is after all equal-or-earlier times. Only the pending
            // region is searched: the consumed prefix may hold
            // cancelled keys with times above `time` (skipped by
            // cursor, never removed), so the vec as a whole need not be
            // sorted — but `[ready_pos..]` always is.
            let at =
                self.ready_pos + self.ready[self.ready_pos..].partition_point(|k| k.time <= time);
            self.ready.insert(at, key);
        } else {
            self.place(key.node, time);
        }
        WheelEventId {
            node: key.node,
            seq: key.seq,
        }
    }

    /// Cancel a previously scheduled event. Returns `true` if the event
    /// had not yet fired (or been cancelled). Lazy: the node stays where
    /// it is linked and is freed when its key surfaces.
    pub fn cancel(&mut self, id: WheelEventId) -> bool {
        match self.nodes.get_mut(id.node as usize) {
            Some(n) if n.seq == id.seq && matches!(n.state, State::Live(_)) => {
                n.state = State::Cancelled;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Put every node of the list starting at `node` on the free list.
    fn release_list(&mut self, mut node: u32) {
        while node != NIL {
            let next = self.nodes[node as usize].next;
            self.release(node);
            node = next;
        }
    }

    /// Re-place every node of the list starting at `node` relative to
    /// the current horizon.
    fn place_list(&mut self, mut node: u32) {
        while node != NIL {
            let Node { time, next, .. } = self.nodes[node as usize];
            self.place(node, time);
            node = next;
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
                // Nothing real left; free any lingering cancelled nodes.
                for l in 0..LEVELS {
                    while self.levels[l].occupied != 0 {
                        let i = self.levels[l].occupied.trailing_zeros() as usize;
                        let list = self.levels[l].take(i);
                        self.release_list(list);
                    }
                }
                let list = std::mem::replace(&mut self.overflow, NIL);
                self.release_list(list);
                return;
            }
            // Each level's held nodes occupy one 64-slot wrap window
            // starting at its current cursor slot `s_l = horizon / W_l`
            // (indices below the cursor's belong to the *next* aligned
            // block). Find the earliest-starting occupied slot across
            // overflow and all levels, scanning overflow first and
            // levels high→low with a strict `<`, so on equal starts the
            // coarser holder cascades down *before* the finer one
            // drains — a level-l slot can contain nodes that belong in
            // the very level-0 slot about to drain.
            const OVF: usize = LEVELS;
            let mut best: Option<(u64, usize, usize)> = None; // (start, level, idx)
            if self.overflow != NIL {
                let mut min = u64::MAX;
                let mut node = self.overflow;
                while node != NIL {
                    let n = &self.nodes[node as usize];
                    min = min.min(n.time.as_nanos());
                    node = n.next;
                }
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
                unreachable!("live > 0 but no level or overflow holds a node");
            };
            debug_assert!(start >= self.horizon, "wheel horizon went backwards");
            if l == OVF {
                // Rebase: everything beyond the top span re-places now
                // that the horizon caught up.
                self.horizon = start;
                let list = std::mem::replace(&mut self.overflow, NIL);
                self.place_list(list);
            } else if l == 0 {
                let mut node = self.levels[0].take(i);
                while node != NIL {
                    let n = &self.nodes[node as usize];
                    self.ready.push(Key {
                        time: n.time,
                        seq: n.seq,
                        node,
                    });
                    node = n.next;
                }
                self.ready.sort_unstable_by_key(|k| (k.time, k.seq));
                self.horizon = start + width(0);
                return;
            } else {
                // Cascade: relink the slot's nodes; each fits level
                // l-1 or below relative to the advanced horizon.
                self.horizon = start;
                let list = self.levels[l].take(i);
                self.place_list(list);
            }
        }
    }

    /// Consume `key`, the one at the ready cursor: free its node and, if
    /// the event was still live, advance the clock to it and return it.
    fn fire(&mut self, key: Key) -> Option<(SimTime, E)> {
        self.ready_pos += 1;
        debug_assert_eq!(
            self.nodes[key.node as usize].seq, key.seq,
            "node/key pairing broken"
        );
        match self.release(key.node) {
            State::Cancelled => None,
            State::Live(payload) => {
                debug_assert!(key.time >= self.now, "timer wheel went backwards");
                self.now = key.time;
                self.popped += 1;
                self.live -= 1;
                Some((key.time, payload))
            }
            State::Vacant => unreachable!("ready key pointed at a vacant node"),
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            self.refill();
            let key = *self.ready.get(self.ready_pos)?;
            if let Some(event) = self.fire(key) {
                return Some(event);
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
            if let Some(event) = self.fire(key) {
                return Some(event);
            }
        }
    }

    /// Timestamp of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            self.refill();
            let key = *self.ready.get(self.ready_pos)?;
            if matches!(self.nodes[key.node as usize].state, State::Cancelled) {
                self.release(key.node);
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

    /// Length of the node slab: the peak number of events ever held at
    /// once. For tests that pin node recycling.
    #[doc(hidden)]
    pub fn slab_len(&self) -> usize {
        self.nodes.len()
    }

    /// Structural invariant check for tests (the unit tests below and
    /// root `tests/queue_oracle.rs`): `Err` describes the first violated
    /// invariant. O(slab) and allocating — not for the event path.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> Result<(), String> {
        macro_rules! ensure {
            ($cond:expr, $($msg:tt)+) => {
                if !$cond {
                    return Err(format!($($msg)+));
                }
            };
        }
        ensure!(
            self.horizon.is_multiple_of(width(0)),
            "horizon not slot-aligned"
        );
        // Every node is on exactly one of: the free list, one bucket's
        // list, the overflow list, the pending part of `ready` — vacant
        // on the first, live or cancelled on the others.
        let mut seen = vec![false; self.nodes.len()];
        let (mut held, mut live) = (0usize, 0usize);
        let mut claim = |node: u32, list: &'static str| {
            let Some(n) = self.nodes.get(node as usize) else {
                return Err(format!("{list} names node {node} past the slab"));
            };
            let again = std::mem::replace(&mut seen[node as usize], true);
            ensure!(!again, "node {node} reached twice (second time via {list})");
            let vacant = matches!(n.state, State::Vacant);
            ensure!(
                vacant == (list == "free list"),
                "node {node} on {list} in the wrong state"
            );
            if !vacant {
                held += 1;
                live += usize::from(matches!(n.state, State::Live(_)));
            }
            Ok(n)
        };
        let mut node = self.free;
        while node != NIL {
            node = claim(node, "free list")?.next;
        }
        for (l, level) in self.levels.iter().enumerate() {
            let w = width(l);
            let s = self.horizon / w;
            for (idx, &head) in level.heads.iter().enumerate() {
                ensure!(
                    (level.occupied & (1 << idx) != 0) == (head != NIL),
                    "occupancy bit mismatch level {l} idx {idx}"
                );
                let mut node = head;
                while node != NIL {
                    let n = claim(node, "bucket")?;
                    let t = n.time.as_nanos();
                    ensure!(t >= self.horizon, "bucketed node below horizon (level {l})");
                    let abs = t / w;
                    ensure!(
                        abs >= s && abs < s + SLOTS as u64,
                        "node at level {l} outside wrap window: abs={abs} s={s}"
                    );
                    ensure!(abs as usize % SLOTS == idx, "node in wrong bucket");
                    node = n.next;
                }
            }
        }
        let mut node = self.overflow;
        while node != NIL {
            let n = claim(node, "overflow")?;
            ensure!(
                n.time.as_nanos() >= self.horizon,
                "overflow node below horizon"
            );
            node = n.next;
        }
        let pending = &self.ready[self.ready_pos..];
        for k in pending {
            let n = claim(k.node, "ready")?;
            ensure!(
                (n.time, n.seq) == (k.time, k.seq),
                "ready key does not match its node"
            );
            ensure!(
                k.time.as_nanos() < self.horizon,
                "pending ready key at/above horizon"
            );
        }
        for pair in pending.windows(2) {
            ensure!(
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
        if let Some(lost) = seen.iter().position(|&s| !s) {
            return Err(format!("node {lost} is on no list"));
        }
        ensure!(
            held == self.held,
            "raw_len counter {} but {held} nodes held",
            self.held
        );
        ensure!(
            live == self.live,
            "live counter {} but {live} live nodes",
            self.live
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventQueue;
    use crate::DetRng;
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
        assert_eq!(
            q.pop_before(SimTime::from_micros(4)),
            Some((SimTime::from_micros(2), "b"))
        );
        // "c" is at 5 >= 4: untouched, clock stays where the pop left it.
        assert_eq!(q.pop_before(SimTime::from_micros(4)), None);
        assert_eq!(q.now(), SimTime::from_micros(2));
        // Limit is exclusive: an event exactly at the limit stays queued.
        assert_eq!(q.pop_before(SimTime::from_micros(5)), None);
        assert_eq!(
            q.pop_before(SimTime::from_micros(6)),
            Some((SimTime::from_micros(5), "c"))
        );
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
        assert!(q.nodes.len() <= 2, "slab grew to {} nodes", q.nodes.len());
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
                        wheel.check_invariants().unwrap();
                    }
                    6 => {
                        if !heap_ids.is_empty() {
                            let i = rng.gen_range(0..heap_ids.len());
                            let a = heap.cancel(heap_ids[i]);
                            let b = wheel.cancel(wheel_ids[i]);
                            wheel.check_invariants().unwrap();
                            assert_eq!(a, b, "cancel verdicts diverged");
                        }
                    }
                    _ => {
                        let a = heap.pop();
                        let b = wheel.pop();
                        wheel.check_invariants().unwrap();
                        assert_eq!(a, b, "pop diverged at step {step} seed {seed}");
                        if let Some(x) = a {
                            trace_h.push(x);
                        }
                        if let Some((t, _)) = b {
                            trace_w.push(t);
                        }
                        assert_eq!(heap.peek_time(), wheel.peek_time());
                        wheel.check_invariants().unwrap();
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
