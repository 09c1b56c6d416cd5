//! Allocation ledger: the steady-state event path does not call the
//! allocator.
//!
//! Wall-clock numbers for that claim live in EXPERIMENTS.md and move with
//! the machine; this is the machine-independent witness. The binary
//! installs a counting `#[global_allocator]` and runs the same workload
//! to `T` and, from scratch, to `2T`: set-up, slab and buffer growth to
//! their peaks and the result vectors cost the same in both, so the
//! difference is what simulating `(T, 2T]` costs in heap calls: a
//! constant for result series and buffers doubling once more — never
//! with segments, events or schedule days, of which the interval has
//! thousands, thousands and fifty.
//!
//! This file holds the workspace's only `unsafe`: the allocator shim
//! below, which forwards every call unchanged to `std::alloc::System`
//! (the workspace denies `unsafe_code`; the shim carries the one
//! `#[expect]`).

use bench::{Variant, Workload};
use rdcn::{MultiRackConfig, NetConfig, PairFlow, ShardConfig, ShardedEmulator};
use simcore::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tcp::ConnStats;

thread_local! {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) made by this
    /// thread. Thread-local so tests running in parallel in this binary
    /// do not count each other's; `const`-initialised and without a
    /// destructor, so touching it never allocates.
    static HEAP_CALLS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count() {
        // `try_with`: a thread being torn down may allocate after its
        // thread-locals are gone; those calls are nobody's to count.
        let _ = HEAP_CALLS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
#[expect(unsafe_code, reason = "a global allocator is an unsafe trait; this one only counts")]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller guarantees `layout` has non-zero size, which
        // is all `System.alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: the caller guarantees `ptr` came from this allocator —
        // hence from `System` — with `layout`, and that `new_size` is
        // non-zero and does not overflow when rounded up to the alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator —
        // hence from `System` — with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` and return how many allocator calls this thread made in it.
fn heap_calls<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = HEAP_CALLS.with(Cell::get);
    let r = f();
    (HEAP_CALLS.with(Cell::get) - before, r)
}

const T: SimTime = SimTime::from_millis(10);
const TWICE_T: SimTime = SimTime::from_millis(20);
/// Doublings of the sampled result series, the day-record vectors and
/// buffers whose peak happens to fall in the second half (measured:
/// 9–14 calls on the two-rack door, 5 on the 4-rack fabric).
const SLACK: u64 = 32;

/// Segments delivered to receiver endpoints.
fn delivered(receivers: &[ConnStats]) -> u64 {
    receivers
        .iter()
        .map(|s| s.segs_received - s.dup_segs_received)
        .sum()
}

/// Hold `run(2T) − run(T)` to the ledger. `run` returns the segments it
/// delivered.
fn assert_ledger(what: &str, run: impl Fn(SimTime) -> u64) {
    let (to_t, segs_t) = heap_calls(|| run(T));
    let (to_2t, segs_2t) = heap_calls(|| run(TWICE_T));
    let extra = to_2t.saturating_sub(to_t);
    let segs = segs_2t - segs_t;
    let bound = SLACK;
    assert!(
        segs > 10 * bound,
        "{what}: only {segs} segments delivered in (T, 2T] — too few for the bound {bound} to mean anything"
    );
    assert!(
        extra <= bound,
        "{what}: simulating (T, 2T] made {extra} allocator calls for {segs} delivered segments \
         ({to_t} to T, {to_2t} to 2T); the ledger allows {bound}"
    );
}

fn bulk(variant: Variant) -> impl Fn(SimTime) -> u64 {
    move |until| {
        let res = Workload::bulk(variant, until).run(&NetConfig::paper_baseline());
        delivered(&res.receiver_stats)
    }
}

#[test]
fn tdtcp_bulk_allocates_per_day_not_per_segment() {
    assert_ledger("16-flow TDTCP bulk", bulk(Variant::Tdtcp));
}

#[test]
fn cubic_bulk_allocates_per_day_not_per_segment() {
    assert_ledger("16-flow CUBIC bulk", bulk(Variant::Cubic));
}

#[test]
fn mptcp_bulk_allocates_per_day_not_per_segment() {
    assert_ledger("16-flow MPTCP bulk", bulk(Variant::Mptcp));
}

#[test]
fn tdtcp_fabric_allocates_per_day_not_per_segment() {
    assert_ledger("4-rack TDTCP fabric, workers = 1", |until| {
        let mut cfg = MultiRackConfig::paper_8rack();
        cfg.racks = 4;
        let flows: Vec<PairFlow> = (0..4)
            .flat_map(|src| {
                (1..4).map(move |hop| PairFlow {
                    src,
                    dst: (src + hop) % 4,
                })
            })
            .collect();
        let endpoints = |i, _: &PairFlow| Variant::Tdtcp.endpoints(i, u64::MAX, None, SimTime::ZERO);
        let res = ShardedEmulator::new(ShardConfig::clean(cfg), flows, endpoints).run(until, 1);
        delivered(&res.receiver_stats)
    });
}
