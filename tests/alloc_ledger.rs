//! Allocation ledger: the steady-state event path does not call the
//! allocator, and observation series cost a word a point.
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
//! The same allocator keeps a live-byte count and its high-water mark,
//! which pin what a series retains per point and the peak requested heap
//! of one `short_incast`-shaped run and of `fabric16`'s shape.
//!
//! This file holds the workspace's only `unsafe`: the allocator shim
//! below, which forwards every call unchanged to `std::alloc::System`
//! (the workspace denies `unsafe_code`; the shim carries the one
//! `#[expect]`).

use bench::tails::{self, Population, TailSpec, TAIL_STREAM_LABEL};
use bench::{Variant, Workload};
use rdcn::emulator::TimedEndpointFactory;
use rdcn::{Emulator, FlowSpec, MultiRackConfig, NetConfig, PairFlow, ShardConfig, ShardedEmulator};
use simcore::{DetRng, SimDuration, SimTime, TimeSeries};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tcp::ConnStats;

thread_local! {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) made by this
    /// thread. Thread-local so tests running in parallel in this binary
    /// do not count each other's; `const`-initialised and without a
    /// destructor, so touching it never allocates.
    static HEAP_CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has requested and not yet freed (it may go
    /// negative if the thread frees what another allocated), and the
    /// highest value it has reached since [`peak_bytes`] last reset it.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count() {
        // `try_with`: a thread being torn down may allocate after its
        // thread-locals are gone; those calls are nobody's to count.
        let _ = HEAP_CALLS.try_with(|c| c.set(c.get() + 1));
    }

    /// Move the live-byte count by `delta`, raising the high-water mark.
    fn live(delta: i64) {
        let Ok(live) = LIVE.try_with(|l| {
            l.set(l.get() + delta);
            l.get()
        }) else {
            return;
        };
        let _ = PEAK.try_with(|p| p.set(p.get().max(live)));
    }
}

fn size(bytes: usize) -> i64 {
    i64::try_from(bytes).expect("an allocation fits in i64")
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
#[expect(unsafe_code, reason = "a global allocator is an unsafe trait; this one only counts")]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        Self::live(size(layout.size()));
        // SAFETY: the caller guarantees `layout` has non-zero size, which
        // is all `System.alloc` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        Self::live(size(layout.size()));
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        Self::live(size(new_size) - size(layout.size()));
        // SAFETY: the caller guarantees `ptr` came from this allocator —
        // hence from `System` — with `layout`, and that `new_size` is
        // non-zero and does not overflow when rounded up to the alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::live(-size(layout.size()));
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

/// Run `f` and return the most bytes this thread held at once in it,
/// above what it held before, and what `f` left held when it returned
/// (its result included).
fn peak_bytes<R>(f: impl FnOnce() -> R) -> (i64, i64, R) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let r = f();
    let (peak, after) = (PEAK.with(Cell::get), LIVE.with(Cell::get));
    (peak - before, after - before, r)
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

/// One chunk of a series' store: 8192 words.
const CHUNK_BYTES: i64 = 64 << 10;

/// 2^20 points of a queue-occupancy walk (one up or one down, never
/// below zero, 1–4 µs apart) retain at most a word a point plus one
/// chunk. 2^20 points fill whole chunks, so the allowance is left for the
/// store's index: chunk starts and inner checkpoints.
#[test]
fn a_queue_walk_retains_a_word_a_point() {
    const N: u32 = 1 << 20;
    let (_, retained, series) = peak_bytes(|| {
        let mut s = TimeSeries::new("voq");
        let (mut t, mut len) = (SimTime::ZERO, 0u32);
        for i in 0..N {
            let mix = i.wrapping_mul(0x9E37_79B9);
            t += SimDuration::from_micros(u64::from(1 + (mix >> 30)));
            len = if mix & (1 << 16) == 0 || len == 0 { len + 1 } else { len - 1 };
            s.push(t, f64::from(len));
        }
        s
    });
    assert_eq!(series.len(), N as usize);
    let bound = 8 * i64::from(N) + CHUNK_BYTES;
    assert!(
        retained <= bound,
        "{N} points retain {retained} B ({:.3} B a point); the bound is {bound}",
        retained as f64 / f64::from(N)
    );
}

/// The peak requested heap of one `short_incast` leg of the benchmark
/// (500 Poisson shorts and four 16-way incast rounds over four background
/// flows, seed 1, the benchmark's 300 ms horizon) on `variant`, engine
/// and result together, sampled every `sample` if given, and whether the
/// run recorded samples.
fn short_incast_leg_peak(variant: Variant, sample: Option<SimDuration>) -> (i64, bool) {
    let population = Population::Uniform(variant);
    let spec = TailSpec {
        incast_degree: 16,
        incast_rounds: 4,
        incast_bytes: 100_000,
        incast_every: SimDuration::from_millis(3),
        ..TailSpec::poisson(population, 500, 100_000, SimDuration::from_micros(100), 4)
    };
    let mut net = NetConfig::paper_baseline();
    population.apply_net_config(&mut net);
    let schedule = tails::generate(&spec, &mut DetRng::new(net.seed).fork(TAIL_STREAM_LABEL));
    let (peak, _, res) = peak_bytes(|| {
        let specs = schedule.flows.iter().map(|f| FlowSpec { start: f.start }).collect();
        let factory: TimedEndpointFactory = Box::new(|i, now| {
            let f = &schedule.flows[i];
            tails::make_endpoints(f.variant, &net, i, f.bytes, now)
        });
        let mut emu = Emulator::new_staggered(net.clone(), specs, factory);
        if let Some(every) = sample {
            emu.set_sample_interval(every);
        }
        emu.run(SimTime::from_millis(300))
    });
    assert!(res.completions.iter().flatten().count() > 100, "too few completions");
    (peak, !res.seq_series.is_empty())
}

/// Hold one leg's peak to `pin`.
fn assert_leg_peak(variant: Variant, sample: Option<SimDuration>, pin: i64) {
    let (peak, sampled) = short_incast_leg_peak(variant, sample);
    assert_eq!(sampled, sample.is_some(), "{variant:?}: samples kept only when asked for");
    assert!(peak <= pin, "{variant:?} leg (sampled every {sample:?}): the heap peaked at {peak} B; the pin is {pin} B");
}

/// The TDTCP leg as the benchmark runs it, unobserved. A flow leaves
/// the engine at the first window barrier after both its hosts closed
/// and went quiet, so the peak comes mid-run, at ~320 live flows.
/// Measured: 1 796 212 B in a debug build, 1 795 892 B in release
/// (1 831 732 B while a TDTCP endpoint was a 896-byte type wrapping the
/// connection, where it is now the connection and a 112-byte policy).
/// While every finished flow's transports stayed to the end of the run,
/// it peaked at 2 943 716 B at the finish (3 197 252 B before the
/// segment was repacked).
#[test]
fn short_incast_leg_peak_heap_is_pinned() {
    assert_leg_peak(Variant::Tdtcp, None, 1_920_000);
}

/// The CUBIC leg, unobserved: at most 177 of its 568 flows are live at
/// once. Measured: 1 213 668 B in a debug build, 1 213 476 B in release
/// (1 210 812 B before every connection carried a pointer for the
/// time-division policy); 2 526 980 B while finished flows stayed to the
/// end of the run.
#[test]
fn short_incast_cubic_leg_peak_heap_is_pinned() {
    assert_leg_peak(Variant::Cubic, None, 1_270_000);
}

/// The TDTCP leg sampled every 2 µs: its three series hold ~494 k
/// points, so this bounds the series store on a real run. Measured:
/// 3 811 543 B in a debug build, 3 811 223 B in release; 5 853 415 B while finished flows stayed to
/// the end of the run, and 15 984 272 B with a `Vec<(SimTime, f64)>`
/// per series.
#[test]
fn short_incast_leg_sampled_peak_heap_is_pinned() {
    assert_leg_peak(Variant::Tdtcp, Some(SimDuration::from_micros(2)), 4_000_000);
}

/// The peak requested heap of `fabric16`'s shape, engine and result
/// together: 16 racks of the 8-rack rotor, every rack sending one TDTCP
/// bulk flow at strides 1, 2 and 3 (48 flows), `workers = 1`, to
/// `until`.
fn fabric16_peak(until: SimTime) -> i64 {
    const RACKS: usize = 16;
    let cfg = MultiRackConfig {
        racks: RACKS,
        ..MultiRackConfig::paper_8rack()
    };
    let flows: Vec<PairFlow> = (1..=3)
        .flat_map(|stride| (0..RACKS).map(move |src| PairFlow { src, dst: (src + stride) % RACKS }))
        .collect();
    let (peak, _, res) = peak_bytes(|| {
        let endpoints = |i, _: &PairFlow| Variant::Tdtcp.endpoints(i, u64::MAX, None, SimTime::ZERO);
        ShardedEmulator::new(ShardConfig::clean(cfg), flows, endpoints).run(until, 1)
    });
    assert!(delivered(&res.receiver_stats) > 50_000, "too few segments delivered");
    peak
}

/// The fabric's segment bytes: the per-rack pools, the mailboxes and
/// the buffers an outbox borrows hold a 76-byte segment a slot. The
/// peak is reached by 20 ms (the benchmark's 60 ms run peaks at the same
/// byte). Measured: 2 795 777 B in a debug build, 2 789 633 B in
/// release. Before the segment was repacked from 120 B and the outboxes
/// borrowed their box's buffer, it peaked at 3 799 425 B (debug) and
/// 3 793 281 B (release).
#[test]
fn fabric16_peak_heap_is_pinned() {
    const PEAK: i64 = 2_850_000;
    let peak = fabric16_peak(SimTime::from_millis(20));
    assert!(peak <= PEAK, "the fabric's heap peaked at {peak} B; the pin is {PEAK} B");
}

