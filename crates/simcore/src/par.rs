//! Zero-dependency parallel execution of share-nothing simulation runs.
//!
//! Simulation runs are independent per `(variant, seed, horizon)`: each
//! builds its own [`crate::DefaultQueue`], RNG and endpoints from an
//! explicit seed and shares no mutable state with any other run. That
//! makes sharding trivial *and* bit-deterministic: [`par_map`] executes
//! one closure per item on a scoped worker pool and collects results in
//! **index order**, so the output vector is byte-identical to a serial
//! `items.map(f)` no matter how the OS schedules the workers.
//!
//! Determinism contract (see DESIGN.md §9):
//! * every per-run seed is derived *before* sharding (it lives in the
//!   item, never in thread identity or claim order),
//! * workers claim items via an atomic cursor but write results into
//!   their item's slot, so collection order is the submission order,
//! * `jobs = 1` (or a single item) bypasses the pool entirely — the
//!   closure runs on the calling thread, which is the debugging path.
//!
//! The process-wide default worker count is `available_parallelism()`,
//! overridable with [`set_default_jobs`] (the `figures` binary wires its
//! `--jobs N` flag here; it is the one way to set the worker count).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::Thread;

/// Process-wide default worker count; `0` means "auto" (use
/// [`available`]).
static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Number of hardware threads available to this process (at least 1).
pub fn available() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Set the process-wide default worker count used by [`par_map`].
/// `0` restores "auto" (`available_parallelism()`); `1` forces every
/// [`par_map`] onto the calling thread (the serial debugging path).
pub fn set_default_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs, Ordering::Relaxed);
}

/// The resolved default worker count: the last [`set_default_jobs`]
/// value, or `available_parallelism()` when unset/auto.
pub fn default_jobs() -> usize {
    match DEFAULT_JOBS.load(Ordering::Relaxed) {
        0 => available(),
        n => n,
    }
}

/// Map `f` over `items` on the default worker pool (see
/// [`default_jobs`]), returning results in item order.
pub fn par_map<I, T>(items: Vec<I>, f: impl Fn(usize, I) -> T + Sync) -> Vec<T>
where
    I: Send,
    T: Send,
{
    par_map_jobs(default_jobs(), items, f)
}

/// Map `f` over `items` with at most `jobs` worker threads, returning
/// `vec![f(0, items[0]), f(1, items[1]), ...]` — index-ordered and
/// bit-identical to the serial map for any pure `f`.
///
/// `jobs <= 1` or fewer than two items runs serially on the calling
/// thread (no pool, no atomics). A panic in any worker propagates to the
/// caller once all workers have stopped.
pub fn par_map_jobs<I, T>(jobs: usize, items: Vec<I>, f: impl Fn(usize, I) -> T + Sync) -> Vec<T>
where
    I: Send,
    T: Send,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let workers = jobs.min(n);
    // Items are claimed through an atomic cursor (work stealing keeps
    // long runs from serializing behind one slow shard); each result
    // lands in its item's slot, so collection below is in index order.
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("item slot poisoned")
                    .take()
                    .expect("item claimed exactly once");
                let out = f(i, item);
                *results[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every item produced a result")
        })
        .collect()
}

/// Windowed barrier executor for intra-run sharding (DESIGN.md §13).
///
/// Runs a sequence of *windows*. In each window, `leader` runs first on
/// the calling thread with exclusive access to all shards (it decides
/// the window bounds and returns `false` to stop); then
/// `work(shard_index, &mut shard)` runs once per shard, in parallel
/// across `jobs.min(shards.len())` workers. No worker ever overlaps the
/// leader section.
///
/// Determinism contract: `work` on shard `i` may touch only shard `i`
/// (the `&mut` exclusivity enforces it) plus whatever `Sync` state the
/// closure captures — and that state must make the result independent
/// of the order shards run in (the sharded engine's mailboxes do: one
/// writer and one reader per box, never in the same window). `jobs <= 1`
/// runs the whole loop inline — leader, then shards 0..n in order —
/// with no threads and no atomics: the debugging path, and byte-identical
/// to the parallel path by the argument above.
///
/// Execution: the calling thread is worker 0 and `workers − 1` helper
/// threads are spawned once per call. Shard `i` always runs on worker
/// `i % workers`, so a shard's state stays in one core's cache for the
/// whole run. The go signal is a window counter the helpers wait on;
/// completion is a counter of finished helper shares the caller waits
/// on. Both waits spin for a bounded budget and then `thread::park` —
/// the budget is zero when the workers outnumber the hardware threads,
/// where a spinning waiter would only keep the thread it waits for off
/// the CPU.
///
/// Unwinding: a helper reports its share finished from a drop guard,
/// flagging the panic, so a panicking `work` wakes the caller instead of
/// deadlocking it; the caller raises the stop signal and unparks every
/// helper from a drop guard of its own, so a panic in `leader` or in
/// worker 0's share frees the helpers too. Either way the scope joins
/// every thread and the panic reaches the caller of `run_windows`.
pub fn run_windows<S>(
    jobs: usize,
    shards: &[Mutex<S>],
    mut leader: impl FnMut(&[Mutex<S>]) -> bool,
    work: impl Fn(usize, &mut S) + Sync,
) where
    S: Send,
{
    let n = shards.len();
    let workers = jobs.min(n).max(1);
    let run_share = |w: usize| {
        for i in (w..n).step_by(workers) {
            work(i, &mut shards[i].lock().expect("shard poisoned"));
        }
    };
    if workers == 1 {
        while leader(shards) {
            run_share(0);
        }
        return;
    }

    /// `go` value that ends the helpers.
    const STOP: u64 = u64::MAX;
    let helpers = workers as u64 - 1;
    let spin = if workers <= available() { SPIN_BUDGET } else { 0 };
    // The window being run (published by the caller), or `STOP`.
    let go = &AtomicU64::new(0);
    // Helper shares finished since the start, all windows summed; the
    // caller's wait on it pairs with the helpers' `Release` increments.
    let done = &AtomicU64::new(0);
    // Set before the panicking helper's `done` increment, read after the
    // caller has seen that increment: `Relaxed` rides on that pairing.
    let panicked = &AtomicBool::new(false);
    let caller = &std::thread::current();
    let run_share = &run_share;

    /// Reports a helper's share as finished when dropped — including a
    /// drop during unwind, which it flags so the caller stops issuing
    /// windows instead of waiting forever.
    struct DoneGuard<'a> {
        done: &'a AtomicU64,
        target: u64,
        panicked: &'a AtomicBool,
        caller: &'a Thread,
    }
    impl Drop for DoneGuard<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.target {
                self.caller.unpark();
            }
        }
    }

    /// Ends the helpers however the caller leaves the window loop.
    struct StopGuard<'a> {
        go: &'a AtomicU64,
        helpers: Vec<Thread>,
    }
    impl StopGuard<'_> {
        fn signal(&self, window: u64) {
            self.go.store(window, Ordering::Release);
            for h in &self.helpers {
                h.unpark();
            }
        }
    }
    impl Drop for StopGuard<'_> {
        fn drop(&mut self) {
            self.signal(STOP);
        }
    }

    std::thread::scope(|scope| {
        // The guard exists before the first helper does, so a failed
        // spawn still ends the helpers already running.
        let mut pool = StopGuard {
            go,
            helpers: Vec::with_capacity(workers - 1),
        };
        for w in 1..workers {
            let helper = scope.spawn(move || {
                let mut seen = 0;
                loop {
                    wait_until(spin, || go.load(Ordering::Acquire) != seen);
                    seen = go.load(Ordering::Acquire);
                    if seen == STOP {
                        return;
                    }
                    let _done = DoneGuard {
                        done,
                        target: seen * helpers,
                        panicked,
                        caller,
                    };
                    run_share(w);
                }
            });
            pool.helpers.push(helper.thread().clone());
        }
        let mut window = 0;
        while leader(shards) {
            window += 1;
            pool.signal(window);
            run_share(0);
            wait_until(spin, || done.load(Ordering::Acquire) == window * helpers);
            if panicked.load(Ordering::Relaxed) {
                break; // the scope join re-raises it
            }
        }
    });
}

/// Spin iterations a window waiter spends before it parks. A parked
/// waiter costs a futex wake-up (tens of microseconds under a
/// hypervisor) and windows are microseconds apart, so the budget is
/// sized to outlast the gap between two workers finishing a window.
const SPIN_BUDGET: u32 = 1 << 14;

/// Block until `ready()`: poll it `spin` times, then park between
/// polls. Whoever makes `ready()` true must `unpark` this thread
/// afterwards; the park token makes an unpark that lands between the
/// poll and the park wake it at once, so no wake-up is lost.
fn wait_until(spin: u32, ready: impl Fn() -> bool) {
    loop {
        for _ in 0..spin {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
        if ready() {
            return;
        }
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_ordered() {
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for jobs in [1, 2, 3, 8, 200] {
            let par = par_map_jobs(jobs, items.clone(), |_, x| x * x + 1);
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn index_matches_item_position() {
        let items: Vec<usize> = (0..50).collect();
        let out = par_map_jobs(4, items, |i, item| (i, item));
        for (i, (idx, item)) in out.into_iter().enumerate() {
            assert_eq!(i, idx);
            assert_eq!(i, item);
        }
    }

    #[test]
    fn empty_and_single_item() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map_jobs(4, empty, |_, x: u32| x).is_empty());
        assert_eq!(par_map_jobs(4, vec![7u32], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn default_jobs_round_trip() {
        let before = default_jobs();
        assert!(before >= 1);
        set_default_jobs(3);
        assert_eq!(default_jobs(), 3);
        set_default_jobs(0);
        assert_eq!(default_jobs(), available());
    }

    #[test]
    fn non_send_sync_state_in_closure_results() {
        // Heavier payloads (e.g. RunResult-sized structs) move cleanly.
        let out = par_map_jobs(2, vec![1u64, 2, 3], |i, x| vec![x; i + 1]);
        assert_eq!(out, vec![vec![1], vec![2, 2], vec![3, 3, 3]]);
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn worker_panic_propagates() {
        par_map_jobs(2, vec![0u32, 1, 2, 3], |_, x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    /// Toy sharded computation: each window the leader passes one token
    /// from shard i to shard i+1 (the "mailbox"), each shard then does
    /// local work. Any worker count must produce the same final state.
    fn windows_fixture(jobs: usize, shards: usize, rounds: u32) -> Vec<u64> {
        let state: Vec<Mutex<(u64, u32)>> = (0..shards).map(|_| Mutex::new((0, 0))).collect();
        let mut round = 0u32;
        run_windows(
            jobs,
            &state,
            |shards| {
                // Ring-shift each shard's accumulator into the next
                // shard, in fixed shard order.
                let vals: Vec<u64> = shards
                    .iter()
                    .map(|s| s.lock().unwrap().0)
                    .collect();
                for (i, s) in shards.iter().enumerate() {
                    let from = (i + shards.len() - 1) % shards.len();
                    s.lock().unwrap().0 = vals[from];
                }
                round += 1;
                round <= rounds
            },
            |i, s| {
                s.0 = s.0.wrapping_mul(31).wrapping_add(i as u64 + 1);
                s.1 += 1;
            },
        );
        let out: Vec<u64> = state.iter().map(|s| s.lock().unwrap().0).collect();
        for s in &state {
            assert_eq!(s.lock().unwrap().1, rounds, "every shard ran every window");
        }
        out
    }

    #[test]
    fn run_windows_is_worker_count_invariant() {
        let serial = windows_fixture(1, 5, 40);
        for jobs in [2, 3, 4, 16] {
            assert_eq!(windows_fixture(jobs, 5, 40), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn run_windows_leader_false_stops_immediately() {
        let state: Vec<Mutex<u32>> = (0..3).map(|_| Mutex::new(0)).collect();
        run_windows(4, &state, |_| false, |_, s| *s += 1);
        for s in &state {
            assert_eq!(*s.lock().unwrap(), 0);
        }
    }

    /// Run `f` on a thread of its own and report whether it panicked;
    /// fail if it has done neither within 10 s (a lost wake-up hangs
    /// instead of failing).
    fn panics_within_10s(f: impl FnOnce() + Send + 'static) -> bool {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            let _ = tx.send(outcome.is_err());
        });
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("run_windows hung")
    }

    #[test]
    fn run_windows_leader_panic_propagates() {
        // The second leader call panics with every helper waiting for a
        // go signal: the caller's drop guard must free them.
        for jobs in [2, 4] {
            assert!(panics_within_10s(move || {
                let state: Vec<Mutex<u32>> = (0..4).map(|_| Mutex::new(0)).collect();
                let mut calls = 0;
                run_windows(
                    jobs,
                    &state,
                    |_| {
                        calls += 1;
                        assert!(calls < 2, "boom");
                        true
                    },
                    |_, s| *s += 1,
                );
            }));
        }
    }

    #[test]
    fn run_windows_work_panic_propagates() {
        // Shard `i` runs on worker `i % jobs` and worker 0 is the
        // caller: the first two cases panic on the caller, the rest on a
        // helper. The panicking shard (`bad`) first waits until a shard
        // of another worker (`after`) has run, so the panic lands with
        // that worker at or near the barrier rather than before it.
        for (jobs, bad, after) in [(3, 0, 1), (3, 3, 2), (3, 1, 0), (2, 1, 0), (4, 2, 0)] {
            assert!(
                panics_within_10s(move || {
                    let state: Vec<Mutex<u32>> = (0..4).map(|_| Mutex::new(0)).collect();
                    let (tx, rx) = std::sync::mpsc::channel();
                    let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
                    run_windows(
                        jobs,
                        &state,
                        |_| true,
                        |i, _| {
                            if i == after {
                                tx.lock().unwrap().send(()).unwrap();
                            }
                            if i == bad {
                                rx.lock().unwrap().recv().unwrap();
                                panic!("boom");
                            }
                        },
                    );
                }),
                "jobs={jobs} bad={bad}"
            );
        }
    }
}
