//! Differential oracle for the event queue: `simcore::TimerWheel` (what
//! the engine runs on) against `simcore::EventQueue` (a `BTreeMap` keyed
//! on `(time, seq)`, the contract in its fewest lines), over random
//! scripts. It is the wheel's one differential.
//!
//! The wheel may be rebuilt freely as long as it pops in the reference's
//! exact `(time, seq)` order — every digest in the repo rests on that and
//! on nothing else about the queue. This suite holds the two to identical
//! observable behaviour step by step, and checks the wheel's structural
//! invariants (`TimerWheel::check_invariants`) after every step, so a
//! layout bug is caught where it happens, not thousands of events later
//! as a moved digest.

use simcore::{EventQueue, SimDuration, SimTime, TimerWheel};
use testkit::prop::{just, range, tuple2, vec_of, weighted, Gen};
use testkit::{tk_assert, tk_assert_eq};

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule at `now + offset` ns.
    Schedule(u64),
    /// Cancel the id issued by the `pick % issued`-th schedule so far —
    /// live, already fired, already cancelled, or stale with its node
    /// since reused.
    Cancel(usize),
    Pop,
    /// `pop_before(now + offset)`.
    PopBefore(u64),
    Peek,
}

/// Offsets of every magnitude the wheel treats differently: inside one
/// 1024 ns level-0 slot (after a pop these land below the drained horizon
/// and splice into the ready batch), one per upper level (64× apart, so
/// each needs one more cascade to surface), and past the ~70 000 s top
/// span (overflow list, rebased when the levels run dry).
fn offset() -> Gen<u64> {
    weighted(vec![
        (4, range(0u64..1_024)),
        (3, range(0u64..65_536)),
        (2, range(0u64..4_194_304)),
        (2, range(0u64..268_435_456)),
        (1, range(0u64..17_179_869_184)),
        (1, range(0u64..1_099_511_627_776)),
        (1, range(0u64..70_368_744_177_664)),
        (1, range(70_368_744_177_664u64..300_000_000_000_000)),
    ])
}

fn op() -> Gen<Op> {
    weighted(vec![
        (8, offset().map(Op::Schedule)),
        (2, range(0usize..1 << 16).map(Op::Cancel)),
        (4, just(Op::Pop)),
        (3, offset().map(Op::PopBefore)),
        (1, just(Op::Peek)),
    ])
}

/// Both queues, the ids each issued, and what the script knows must hold.
struct Pair {
    reference: EventQueue<u32>,
    wheel: TimerWheel<u32>,
    ref_ids: Vec<simcore::EventId>,
    wheel_ids: Vec<simcore::WheelEventId>,
    /// Scheduled, not fired, not cancelled.
    live: usize,
    /// Highest `raw_len` the wheel has reported after any step.
    peak_held: usize,
}

impl Pair {
    fn step(&mut self, op: Op) -> Result<(), String> {
        let now = self.reference.now();
        match op {
            Op::Schedule(off) => {
                let at = now + SimDuration::from_nanos(off);
                let payload = self.ref_ids.len() as u32;
                self.ref_ids.push(self.reference.schedule(at, payload));
                self.wheel_ids.push(self.wheel.schedule(at, payload));
                self.live += 1;
            }
            Op::Cancel(pick) => {
                if !self.ref_ids.is_empty() {
                    let i = pick % self.ref_ids.len();
                    let verdict = self.reference.cancel(self.ref_ids[i]);
                    tk_assert_eq!(
                        self.wheel.cancel(self.wheel_ids[i]),
                        verdict,
                        "cancel of id {i}"
                    );
                    self.live -= usize::from(verdict);
                }
            }
            Op::Pop => {
                let expect = self.reference.pop();
                tk_assert_eq!(self.wheel.pop(), expect);
                self.live -= usize::from(expect.is_some());
            }
            Op::PopBefore(off) => {
                let limit = now + SimDuration::from_nanos(off);
                let expect = self.reference.pop_before(limit);
                tk_assert_eq!(self.wheel.pop_before(limit), expect, "limit {limit}");
                self.live -= usize::from(expect.is_some());
            }
            Op::Peek => tk_assert_eq!(self.wheel.peek_time(), self.reference.peek_time()),
        }
        tk_assert_eq!(self.wheel.now(), self.reference.now());
        tk_assert_eq!(self.wheel.events_processed(), self.reference.events_processed());
        tk_assert_eq!(self.wheel.is_empty(), self.live == 0);
        self.wheel.check_invariants()?;
        // `raw_len` counts live events plus cancelled ones not yet
        // collected, and the slab only grows when every node is held.
        tk_assert!(self.wheel.raw_len() >= self.live);
        self.peak_held = self.peak_held.max(self.wheel.raw_len());
        tk_assert!(
            self.wheel.slab_len() <= self.peak_held,
            "slab {} > peak held {}",
            self.wheel.slab_len(),
            self.peak_held
        );
        Ok(())
    }
}

fn run_script(ops: &[Op], drain_window: Option<u64>) -> Result<(), String> {
    let mut pair = Pair {
        reference: EventQueue::new(),
        wheel: TimerWheel::new(),
        ref_ids: Vec::new(),
        wheel_ids: Vec::new(),
        live: 0,
        peak_held: 0,
    };
    for &op in ops {
        pair.step(op)?;
    }
    // Drain to the end, so far-future and overflow events surface too:
    // by `pop`, or the way the sharded engine does — `pop_before` an
    // advancing window edge, jumping to the next event when a window
    // comes up empty.
    while pair.live > 0 {
        match drain_window {
            None => pair.step(Op::Pop)?,
            Some(w) => {
                let before = pair.live;
                pair.step(Op::PopBefore(w))?;
                if pair.live == before {
                    pair.step(Op::Peek)?;
                    pair.step(Op::Pop)?;
                }
            }
        }
    }
    // One more pop on the now-empty pair collects what is left.
    pair.step(Op::Pop)?;
    pair.step(Op::Peek)?;
    tk_assert_eq!(
        pair.wheel.raw_len(),
        0,
        "an empty wheel holds no cancelled nodes"
    );
    Ok(())
}

testkit::props! {
    #[cases(200)]
    /// Random schedule / cancel / pop / pop_before / peek scripts, then a
    /// full drain by `pop`.
    fn wheel_matches_reference(ops in vec_of(op(), 1..1500)) {
        run_script(&ops, None)?;
    }

    #[cases(100)]
    /// The same scripts drained through `pop_before` windows of one
    /// width, sub-slot to multi-level.
    fn wheel_matches_reference_windowed(
        input in tuple2(vec_of(op(), 1..1000), range(1u64..20_000_000))
    ) {
        let (ops, window) = input;
        run_script(&ops, Some(window))?;
    }
}

/// A node freed by a fire is reused by the next schedule; the fired
/// event's id, now stale, must not cancel the newcomer on either queue.
#[test]
fn stale_id_on_a_reused_node_cancels_nothing() {
    let mut reference = EventQueue::new();
    let mut wheel = TimerWheel::new();
    let at = SimTime::from_micros(1);
    let (r0, w0) = (reference.schedule(at, 0u32), wheel.schedule(at, 0u32));
    assert_eq!(wheel.pop(), reference.pop());
    let later = SimTime::from_micros(2);
    let (r1, w1) = (reference.schedule(later, 1), wheel.schedule(later, 1));
    assert_eq!(wheel.slab_len(), 1, "the fired event's node was reused");
    assert_eq!((reference.cancel(r0), wheel.cancel(w0)), (false, false));
    assert_eq!((reference.cancel(r1), wheel.cancel(w1)), (true, true));
    assert_eq!((reference.pop(), wheel.pop()), (None, None));
    wheel.check_invariants().unwrap();
}
