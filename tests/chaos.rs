//! Randomized chaos soak: seed → random `(FaultPlan, ImpairPlan,
//! workload, variant)` scenario → emulator run → transport invariant
//! oracle ([`bench::chaos::check_invariants`]).
//!
//! The generators emit flat scalar tuples (the shrink-friendly idiom:
//! mapped generators do not shrink, so the [`ChaosSpec`] is assembled
//! inside the property body). Failures shrink to a minimal spec and
//! persist a replayable case seed under `tests/tk-regressions/`.
//!
//! Case counts are `TK_CASES`-bounded: `scripts/ci.sh` runs the normal
//! gate at 200 and `scripts/ci.sh soak` at 5000; the in-file defaults
//! keep a bare `cargo test` fast.

use bench::chaos::{check_invariants, ChaosSpec};
use testkit::prop::{any_bool, range, tuple3, tuple4, Config};
use testkit::{tk_assert, tk_assert_eq};

/// Raw scenario scalars: `(seed, variant_idx, flows_idx, bytes_kb)`,
/// `(loss_pm, reorder_pm, reorder_delay_us, dup_pm)`,
/// `(corrupt_pm, notify_loss_pm, eps_burst)`,
/// `(clock_offset_us, clock_drift_ppm, slot_edge_idx, clock_resync)`.
type RawSpec = (
    (u64, u8, u8, u32),
    (u32, u32, u32, u32),
    (u32, u32, bool),
    (u32, u32, u8, bool),
);

/// Scenario generator. Rates are bounded so that every scenario can
/// honestly terminate inside [`bench::chaos::CHAOS_HORIZON`]: loss ≤
/// 2.5%, reordering ≤ 15% with sub-ms extra delay, duplication ≤ 2%,
/// corruption ≤ 1%, notification loss ≤ 5%. Clock skew is bounded by
/// [`ChaosSpec::clock_plan`]'s own caps (guard-band offsets without
/// resync, one-interval over-guard excursions with it); the generator
/// ranges deliberately overshoot the caps so the capping path is
/// exercised too.
fn raw_spec() -> testkit::prop::Gen<RawSpec> {
    tuple4(
        tuple4(
            range(0u64..1_000_000), // seed
            range(0u8..3),          // variant_idx
            range(0u8..3),          // flows_idx
            range(0u32..256),       // bytes_kb on top of 16 kB
        ),
        tuple4(
            range(0u32..26),   // loss_pm
            range(0u32..151),  // reorder_pm
            range(1u32..301),  // reorder_delay_us
            range(0u32..21),   // dup_pm
        ),
        tuple3(
            range(0u32..11), // corrupt_pm
            range(0u32..51), // notify_loss_pm
            any_bool(),      // eps_burst
        ),
        tuple4(
            range(0u32..161), // clock_offset_us (capped at 85/150)
            range(0u32..81),  // clock_drift_ppm (capped at 60)
            range(0u8..3),    // slot_edge_idx
            any_bool(),       // clock_resync
        ),
    )
}

fn spec_from(raw: &RawSpec) -> ChaosSpec {
    let (
        (seed, variant_idx, flows_idx, bytes_kb),
        (loss_pm, reorder_pm, reorder_delay_us, dup_pm),
        (corrupt_pm, notify_loss_pm, eps_burst),
        (clock_offset_us, clock_drift_ppm, slot_edge_idx, clock_resync),
    ) = *raw;
    ChaosSpec {
        seed,
        variant_idx,
        flows_idx,
        bytes_kb,
        loss_pm,
        reorder_pm,
        reorder_delay_us,
        dup_pm,
        corrupt_pm,
        notify_loss_pm,
        eps_burst,
        clock_offset_us,
        clock_drift_ppm,
        slot_edge_idx,
        clock_resync,
    }
}

/// The soak itself: every random scenario must satisfy the transport
/// invariant oracle — exactly-once in-order delivery with end-to-end
/// checksum, byte conservation, no silent stall, stats sanity.
///
/// Scenarios are independent (each is a pure function of its case seed),
/// so the soak shards them across worker threads via
/// [`testkit::prop::check_sharded`]. Case seeds, shrink behaviour, and
/// the regression-seed file are identical to the serial `props!` path;
/// `TK_JOBS=1` forces serial execution for debugging.
#[test]
fn chaos_soak() {
    let cfg = Config {
        cases: 48,
        ..Config::default()
    };
    testkit::prop::check_sharded(
        "chaos::chaos_soak",
        env!("CARGO_MANIFEST_DIR"),
        cfg,
        testkit::prop::default_jobs(),
        raw_spec,
        |raw| {
            let spec = spec_from(raw);
            let res = spec.run();
            if let Err(e) = check_invariants(&spec, &res) {
                return Err(format!("{e}\n  spec: {spec:?}"));
            }
            Ok(())
        },
    );
}

/// Both corrupting planes on one segment: the EPS burst damages a data
/// segment as it launches on the packet network and the wire impairment
/// then duplicates it, so
/// the receiver discards two damaged copies of a single corruption. The
/// oracle's stats-sanity law must allow that (it used to allow one
/// discard per corruption and failed about one soak scenario in 20 000).
#[test]
fn eps_corrupted_then_duplicated_segment_is_discarded_twice() {
    let spec = ChaosSpec {
        seed: 84_465,
        variant_idx: 2,
        flows_idx: 2,
        bytes_kb: 247,
        loss_pm: 18,
        reorder_pm: 29,
        reorder_delay_us: 102,
        dup_pm: 17,
        corrupt_pm: 5,
        notify_loss_pm: 18,
        eps_burst: true,
        clock_offset_us: 0,
        clock_drift_ppm: 0,
        slot_edge_idx: 0,
        clock_resync: false,
    };
    let res = spec.run();
    let corrupt_rx: u64 = res
        .sender_stats
        .iter()
        .chain(&res.receiver_stats)
        .map(|s| s.corrupt_rx)
        .sum();
    let corruptions = res.impairments.segs_corrupted + res.faults.eps_corruptions;
    assert!(res.faults.eps_corruptions > 0 && res.impairments.segs_duplicated > 0);
    assert_eq!(
        corrupt_rx,
        corruptions + 1,
        "the scenario no longer discards one corruption twice; pick another"
    );
    check_invariants(&spec, &res).unwrap();
}

testkit::props! {
    // Clean subset: with every rate forced to zero the scenario is a
    // plain run — all flows complete without error and the injectors
    // never fire (the inert-plan guarantee end to end).
    #[cases(12)]
    fn chaos_clean_baseline(raw in raw_spec()) {
        let ((seed, variant_idx, flows_idx, bytes_kb), _, _, _) = raw;
        let spec = ChaosSpec {
            seed,
            variant_idx,
            flows_idx,
            bytes_kb,
            loss_pm: 0,
            reorder_pm: 0,
            reorder_delay_us: 50,
            dup_pm: 0,
            corrupt_pm: 0,
            notify_loss_pm: 0,
            eps_burst: false,
            clock_offset_us: 0,
            clock_drift_ppm: 0,
            slot_edge_idx: 0,
            clock_resync: false,
        };
        let res = spec.run();
        check_invariants(&spec, &res)?;
        tk_assert_eq!(res.impairments.total(), 0);
        tk_assert_eq!(res.faults.total(), 0);
        tk_assert_eq!(res.clock.total(), 0);
        for (i, c) in res.completions.iter().enumerate() {
            tk_assert!(c.is_some(), "clean flow {i} did not complete");
            tk_assert!(res.conn_errors[i].is_none(), "clean flow {i} errored");
        }
    }

    // A chaos run is a pure function of its spec: running the same
    // scenario twice produces bit-identical stats digests (the forked
    // fault/impair streams replay exactly; the digest folds every
    // plane's books, its log and its counters).
    #[cases(8)]
    fn chaos_run_is_deterministic(raw in raw_spec()) {
        let spec = spec_from(&raw);
        let a = spec.run();
        let b = spec.run();
        tk_assert_eq!(a.stats_digest(), b.stats_digest());
        tk_assert_eq!(a.impairments, b.impairments);
        tk_assert_eq!(a.clock, b.clock);
        tk_assert_eq!(a.conn_errors, b.conn_errors);
    }
}

/// A property that fails whenever the scenario applies any impairment —
/// guaranteed to trip within a few dozen random chaos scenarios.
fn seeded_violation(raw: &RawSpec) -> Result<(), String> {
    let spec = spec_from(raw);
    let res = spec.run();
    check_invariants(&spec, &res)?;
    if res.impairments.total() > 0 {
        return Err(format!(
            "seeded violation: {} impairments applied",
            res.impairments.total()
        ));
    }
    Ok(())
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .expect("panic payload should be a message")
}

fn case_seed_of(msg: &str) -> &str {
    let line = msg
        .lines()
        .find(|l| l.contains("case seed: 0x"))
        .expect("no repro seed printed");
    let hex = &line[line.find("0x").unwrap()..];
    hex.split_whitespace().next().unwrap()
}

/// The sharded checker's failure path is bit-compatible with the serial
/// one: under any job count it reports the same first failing case seed,
/// the same shrunk input, and persists the same regression seed, because
/// workers only race to *find* failing indices — the lowest one is then
/// re-run through the serial shrink path.
#[test]
fn chaos_sharded_failure_matches_serial() {
    let cfg = Config {
        cases: 50,
        max_shrink_iters: 150,
        ..Config::default()
    };
    let serial = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        testkit::prop::check(
            "chaos_sharded_violation_serial",
            env!("CARGO_TARGET_TMPDIR"),
            cfg.clone(),
            &raw_spec(),
            seeded_violation,
        );
    }))
    .expect_err("the seeded violation must be caught serially");
    let serial_msg = panic_message(serial);

    for jobs in [1, 4] {
        let sharded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            testkit::prop::check_sharded(
                &format!("chaos_sharded_violation_j{jobs}"),
                env!("CARGO_TARGET_TMPDIR"),
                cfg.clone(),
                jobs,
                raw_spec,
                seeded_violation,
            );
        }))
        .expect_err("the seeded violation must be caught sharded");
        let msg = panic_message(sharded);
        assert_eq!(
            case_seed_of(&msg),
            case_seed_of(&serial_msg),
            "jobs={jobs} reported a different failing case than serial"
        );
        assert!(msg.contains("minimal input"), "no shrunk input: {msg}");
    }
}

/// The harness catches a deliberately seeded violation, shrinks it, and
/// prints a replayable case seed — the failure path the soak relies on.
/// The regression-seed file for this intentionally failing property goes
/// to the target tmpdir, not the repo.
#[test]
fn chaos_seeded_violation_is_caught_and_shrunk() {
    let gen = raw_spec();
    let cfg = Config {
        cases: 50,
        max_shrink_iters: 150,
        ..Config::default()
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        testkit::prop::check(
            "chaos_seeded_violation",
            env!("CARGO_TARGET_TMPDIR"),
            cfg,
            &gen,
            |raw| {
                let spec = spec_from(raw);
                let res = spec.run();
                check_invariants(&spec, &res)?;
                // The seeded violation: pretend impairments are illegal.
                if res.impairments.total() > 0 {
                    return Err(format!(
                        "seeded violation: {} impairments applied",
                        res.impairments.total()
                    ));
                }
                Ok(())
            },
        );
    }));
    let payload = outcome.expect_err("the seeded violation must be caught");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .expect("panic payload should be a message");
    assert!(msg.contains("case seed: 0x"), "no repro seed printed: {msg}");
    assert!(msg.contains("minimal input"), "no shrunk input printed: {msg}");
    assert!(msg.contains("seeded violation"), "wrong failure: {msg}");
}
