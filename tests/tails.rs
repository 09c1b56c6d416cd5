//! Acceptance + property suite for the tail-latency workload family
//! (`bench::tails`).
//!
//! Covers the four behavioural claims the suite exists to pin, plus the
//! determinism contract of the generator and the exactness of the
//! percentile oracle:
//!
//! * the FCT percentile oracle is *exact*: quickselect answers equal the
//!   naive full-sort reference at every permille rank (unit runs and
//!   random multisets under `props!`);
//! * the workload generator is a pure function of `(seed, spec)`, and an
//!   inert spec makes **zero** draws from the forked tail stream;
//! * CUBIC's censored p99 FCT is strictly monotone in incast fan-in
//!   (pooled across seeds — the T-RACKs collapse curve);
//! * TDTCP's tail stays within a pinned bound of its clean twin under 1%
//!   random loss;
//! * RepNet-style replication strictly improves p99 at fan-in 16, with
//!   observed first-finisher wins by non-primary replicas;
//! * the `figures tails` table reproduces its block of the checked-in
//!   `figures_output.txt` byte for byte.
//!
//! All runs are deterministic, so the numeric bounds here are regression
//! pins, not statistical hopes.

use bench::tails::{
    generate, run_tails, FctOracle, Population, TailSpec, TAIL_STREAM_LABEL,
};
use bench::Variant;
use rdcn::NetConfig;
use simcore::{DetRng, SimDuration, SimTime};
use testkit::prop::{range, tuple2, tuple3, tuple4, vec_of};
use testkit::{tk_assert, tk_assert_eq};

// ---------------------------------------------------------------------------
// Oracle exactness
// ---------------------------------------------------------------------------

/// On a real (small) workload run, the quickselect oracle agrees with
/// the naive full-sort reference at every permille rank — p999 included.
#[test]
fn oracle_matches_naive_sort_on_a_real_run() {
    let spec = TailSpec::poisson(
        Population::Uniform(Variant::Cubic),
        32,
        50_000,
        SimDuration::from_micros(300),
        2,
    );
    let out = run_tails(&spec, &NetConfig::paper_baseline(), SimTime::from_millis(30));
    assert!(out.completed > 0, "probe workload must complete flows");
    let mut oracle = out.oracle();
    for permille in 0..=1000u32 {
        assert_eq!(
            oracle.percentile_permille(permille),
            FctOracle::naive_percentile_permille(&out.fcts_ns, permille),
            "oracle diverged from naive sort at permille {permille}"
        );
    }
}

testkit::props! {
    // The oracle is exact on arbitrary multisets (duplicates, zeros,
    // extremes) at an arbitrary rank.
    #[cases(128)]
    fn oracle_matches_naive_selection(
        (samples, permille) in tuple2(
            vec_of(range(0u64..1_000_000), 0..48),
            range(0u32..1001),
        )
    ) {
        let mut oracle = FctOracle::new(samples.clone());
        tk_assert_eq!(
            oracle.percentile_permille(permille),
            FctOracle::naive_percentile_permille(&samples, permille)
        );
    }

    // The generator is a pure function of (seed, spec): regenerating
    // under the same seed reproduces the schedule digest exactly, and a
    // different seed moves it whenever the spec actually draws (shorts
    // with a nonzero mean gap).
    #[cases(48)]
    fn generator_is_deterministic(
        ((seed, shorts, degree, gap_us), other_seed) in tuple2(
            tuple4(
                range(0u64..1_000_000),
                range(0usize..24),
                range(0usize..12),
                range(1u32..500),
            ),
            range(1_000_000u64..2_000_000),
        )
    ) {
        let mut spec = TailSpec::incast(Population::MixedTdtcpCubic, degree);
        spec.shorts = shorts;
        spec.short_bytes = 40_000;
        spec.mean_gap = SimDuration::from_micros(u64::from(gap_us));
        let d1 = generate(&spec, &mut DetRng::new(seed).fork(TAIL_STREAM_LABEL)).digest();
        let d2 = generate(&spec, &mut DetRng::new(seed).fork(TAIL_STREAM_LABEL)).digest();
        tk_assert_eq!(d1, d2, "same (seed, spec) must reproduce the schedule");
        if shorts > 0 {
            let d3 = generate(&spec, &mut DetRng::new(other_seed).fork(TAIL_STREAM_LABEL)).digest();
            tk_assert!(d1 != d3, "a drawing spec must be seed-sensitive");
        }
    }

    // The zero-draw guarantee: any spec without Poisson shorts — incast
    // included — never touches the tail stream,
    // so the stream is left indistinguishable from a fresh fork.
    #[cases(32)]
    fn incast_only_specs_draw_nothing(
        (seed, degree, rounds) in tuple3(
            range(0u64..1_000_000),
            range(0usize..33),
            range(0usize..5),
        )
    ) {
        let mut spec = TailSpec::incast(Population::Uniform(Variant::Tdtcp), degree);
        spec.incast_rounds = rounds;
        let mut rng = DetRng::new(seed).fork(TAIL_STREAM_LABEL);
        let schedule = generate(&spec, &mut rng);
        tk_assert_eq!(schedule.groups, degree * rounds);
        let mut fresh = DetRng::new(seed).fork(TAIL_STREAM_LABEL);
        for _ in 0..4 {
            tk_assert_eq!(
                rng.gen_range(0..u64::MAX),
                fresh.gen_range(0..u64::MAX),
                "incast-only generation consumed RNG draws"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Tail behaviour pins
// ---------------------------------------------------------------------------

/// Censored p99 FCT at `degree`, pooled across seeds 1..=20 (pooling
/// smooths the per-run RTO-backoff lottery; censoring keeps flows that
/// never finish inside the horizon in the tail instead of silently
/// dropping them — survivorship bias would otherwise *lower* p99 under
/// deep collapse).
fn pooled_censored_p99(variant: Variant, degree: usize, bytes: u64) -> u64 {
    let mut samples = Vec::new();
    for seed in 1u64..=20 {
        let mut spec = TailSpec::incast(Population::Uniform(variant), degree);
        spec.incast_bytes = bytes;
        let mut net = NetConfig::paper_baseline();
        net.seed = seed;
        let out = run_tails(&spec, &net, SimTime::from_millis(60));
        samples.extend_from_slice(&out.censored_fcts_ns);
    }
    FctOracle::new(samples)
        .p99()
        .expect("pooled incast runs produced no started flows")
}

/// The T-RACKs collapse curve: CUBIC's censored p99 FCT (20 kB senders)
/// rises strictly with incast fan-in, doubling from 4 to 32. The tail is
/// quantized by RTO chains, and degree 2 shares degree 4's quantum
/// (≈ 31 ms once pooled over 80 seeds or more), so it is not part of
/// the sweep; a 4-seed pool holds the order by luck about half the
/// time, a 20-seed pool nearly always (EXPERIMENTS.md, "One loop").
#[test]
fn cubic_p99_is_monotone_in_incast_degree() {
    let p99s: Vec<u64> = [4usize, 8, 16, 32]
        .iter()
        .map(|&d| pooled_censored_p99(Variant::Cubic, d, 20_000))
        .collect();
    for w in p99s.windows(2) {
        assert!(
            w[1] > w[0],
            "censored p99 must rise strictly with fan-in, got {p99s:?}"
        );
    }
}

/// TDTCP's tail under 1% random segment loss stays within a pinned 3x of
/// its clean twin (observed ~2.3x): loss costs retransmissions, not
/// unbounded RTO chains.
#[test]
fn tdtcp_p99_bounded_under_one_percent_loss() {
    let mut spec = TailSpec::incast(Population::Uniform(Variant::Tdtcp), 8);
    spec.incast_bytes = 20_000;
    let horizon = SimTime::from_millis(60);
    let clean = run_tails(&spec, &NetConfig::paper_baseline(), horizon);
    let mut net = NetConfig::paper_baseline();
    net.impair = rdcn::ImpairPlan::loss(0.01);
    let lossy = run_tails(&spec, &net, horizon);
    assert_eq!(clean.completed, clean.started, "clean incast must drain");
    assert_eq!(lossy.completed, lossy.started, "lossy incast must drain");
    let clean_p99 = clean.censored_oracle().p99().unwrap();
    let lossy_p99 = lossy.censored_oracle().p99().unwrap();
    assert!(
        lossy_p99 <= clean_p99 * 3,
        "1% loss blew the tail bound: clean p99 {clean_p99} ns, lossy p99 {lossy_p99} ns"
    );
}

/// RepNet's claim at fan-in 16: duplicating every incast flow strictly
/// improves p99 FCT over completed flows, and some completions are won
/// by a non-primary replica (the mechanism, not just the outcome).
/// About 0.8 % of replicated TDTCP's completions lie past the second RTO
/// quantum (≈ 24 ms), so its p99 rank sits at that edge and one seed can
/// read it on either side: TDTCP pools seeds 1–60, CUBIC is seed 1
/// (EXPERIMENTS.md, "One loop").
#[test]
fn replication_improves_p99_at_fanin_16() {
    for (variant, seeds) in [(Variant::Tdtcp, 1..=60), (Variant::Cubic, 1..=1)] {
        let base = TailSpec::incast(Population::Uniform(variant), 16);
        let mut replicated = base.clone();
        replicated.replication = 2;
        let horizon = SimTime::from_millis(30);
        let (mut fcts_r0, mut fcts_r2) = (Vec::new(), Vec::new());
        for seed in seeds {
            let net = NetConfig {
                seed,
                ..NetConfig::paper_baseline()
            };
            let r0 = run_tails(&base, &net, horizon);
            let r2 = run_tails(&replicated, &net, horizon);
            assert_eq!(r0.replica_wins, 0, "no replicas, no wins");
            assert!(
                r2.replica_wins > 0,
                "{}, seed {seed}: first-finisher wins must be observed",
                variant.label()
            );
            assert_eq!(r2.replicas_spawned, 2 * r2.started, "2 extras per logical flow");
            fcts_r0.extend(r0.fcts_ns);
            fcts_r2.extend(r2.fcts_ns);
        }
        let p99_r0 = FctOracle::new(fcts_r0).p99().unwrap();
        let p99_r2 = FctOracle::new(fcts_r2).p99().unwrap();
        assert!(
            p99_r2 < p99_r0,
            "{}: replication must strictly improve p99 ({p99_r0} -> {p99_r2} ns)",
            variant.label()
        );
    }
}

/// RTO-stall accounting is live on the collapse path: deep incast over
/// tiny buffers produces stall episodes, and every episode carries dead
/// air (`stall_ns > 0`); a gentle workload produces strictly fewer.
#[test]
fn rto_stall_accounting_tracks_collapse_depth() {
    let gentle = run_tails(
        &TailSpec::incast(Population::Uniform(Variant::Cubic), 2),
        &NetConfig::paper_baseline(),
        SimTime::from_millis(30),
    );
    let deep = run_tails(
        &TailSpec::incast(Population::Uniform(Variant::Cubic), 32),
        &NetConfig::paper_baseline(),
        SimTime::from_millis(30),
    );
    assert!(
        deep.rto_stalls > gentle.rto_stalls,
        "deep collapse must stall more: {} vs {}",
        deep.rto_stalls,
        gentle.rto_stalls
    );
    assert!(deep.stall_ns > 0, "stall episodes must carry dead air");
    assert!(
        deep.stall_ns / deep.rto_stalls.max(1) > 0,
        "per-episode stall time must be positive"
    );
}

// ---------------------------------------------------------------------------
// The recorded table
// ---------------------------------------------------------------------------

/// `figures_output.txt` is the one record of the tails table: the block
/// from its `== extension: tail-latency suite` header to the next blank
/// line must equal what the experiment renders now, byte for byte. A
/// behaviour change that moves any row fails here until the file is
/// regenerated (`figures all --jobs 1 > figures_output.txt`).
#[test]
fn tails_table_matches_figures_output() {
    let recorded = include_str!("../figures_output.txt");
    let start = recorded
        .find("== extension: tail-latency suite")
        .expect("figures_output.txt has no tails block");
    let block = &recorded[start..];
    let block = block.find("\n\n").map_or(block, |end| &block[..=end]);
    let rendered = bench::experiments::tails::run().render();
    assert!(
        rendered == block,
        "the tails table no longer matches figures_output.txt:\n--- recorded\n{block}+++ now\n{rendered}"
    );
}
