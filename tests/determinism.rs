//! Golden-trace determinism: running any seeded experiment twice with the
//! same seed must produce byte-identical output. The whole reproduction
//! rests on this — figures are only comparable across variants and
//! machines if a (config, seed) pair fully determines the trace.
//!
//! The check compares [`rdcn::RunResult::stats_digest`] across repeated
//! runs: one 64-bit FNV value over the run's whole simulation state
//! (per-flow stats, completions and errors, drop and mark counters,
//! event counts, end times, every chaos plane's books), folded once from
//! the racks. Observation — the sampled acked total, the A→B VOQ trace
//! and the day records — is not in the digest, so
//! [`emulator_run_is_deterministic`] also compares those point for
//! point. Floats are compared by bit pattern — exact, not approximate.

use bench::{Variant, Workload};
use rdcn::shard::assert_worker_count_invariant;
use rdcn::NetConfig;
use simcore::{SimDuration, SimTime, TimeSeries};
use tcp::Transport;
use tdtcp_repro::harness::{
    arm, busy_clock, busy_faults, busy_impair, handshake, td_config, td_pair, Peer, MSS,
};
use testkit::Counters;
use wire::TdnId;

/// An edit of the baseline network: how a test arms one chaos plane.
type Edit = fn(&mut NetConfig);

fn run_once(variant: Variant, seed: u64) -> u64 {
    run_edited(variant, seed, |_| {})
}

/// [`run_once`] over the baseline network with `edit` applied.
fn run_edited(variant: Variant, seed: u64, edit: Edit) -> u64 {
    run_result(variant, seed, edit).stats_digest()
}

/// The whole result of [`run_edited`]'s run.
fn run_result(variant: Variant, seed: u64, edit: Edit) -> rdcn::RunResult {
    let mut net = NetConfig::paper_baseline();
    edit(&mut net);
    let wl = Workload {
        flows: 4,
        seed,
        sample_every: SimDuration::from_micros(10),
        ..Workload::bulk(variant, SimTime::from_millis(3))
    };
    wl.run(&net)
}

/// Same seed, same variant → identical digest and identical
/// observation, across several seeds and the two headline variants. The
/// run is sampled, and its series — the acked total, the A→B VOQ trace
/// and the day records — are compared point for point, time and value
/// bits, since the digest covers none of them.
#[test]
fn emulator_run_is_deterministic() {
    let points = |s: &TimeSeries| s.points().map(|(t, v)| (t, v.to_bits())).collect::<Vec<_>>();
    for variant in [Variant::Cubic, Variant::Tdtcp] {
        for seed in [1u64, 7, 0xDEAD_BEEF] {
            let a = run_result(variant, seed, |_| {});
            let b = run_result(variant, seed, |_| {});
            let run = format!("variant={variant:?} seed={seed:#x}");
            assert_eq!(a.stats_digest(), b.stats_digest(), "digest diverged: {run}");
            assert!(
                !a.seq_series.is_empty() && !a.voq_ab.is_empty() && !a.day_records.is_empty(),
                "{run}: the sampled run observed nothing"
            );
            assert_eq!(points(&a.seq_series), points(&b.seq_series), "seq_series diverged: {run}");
            assert_eq!(points(&a.voq_ab), points(&b.voq_ab), "voq_ab diverged: {run}");
            assert_eq!(a.day_records, b.day_records, "day_records diverged: {run}");
        }
    }
}

/// Sharded experiment runs are bit-identical to serial ones: mapping the
/// same (variant, seed) grid through `simcore::par::par_map` under any
/// job count reproduces exactly the digests of a plain serial loop. This
/// is the contract the parallel figures harness rests on — run seeds
/// live in the sharded items and results collect in submission order, so
/// worker scheduling can never leak into outputs.
#[test]
fn parallel_sweep_matches_serial_digests() {
    let grid: Vec<(Variant, u64)> = [Variant::Tdtcp, Variant::Cubic, Variant::ReTcp]
        .into_iter()
        .flat_map(|v| (0u64..8).map(move |seed| (v, seed)))
        .collect();
    let serial: Vec<u64> = grid.iter().map(|&(v, s)| run_once(v, s)).collect();
    for jobs in [1, 2, 4] {
        let sharded =
            simcore::par::par_map_jobs(jobs, grid.clone(), |_, (v, s)| run_once(v, s));
        assert_eq!(
            sharded, serial,
            "sharded digests diverged from serial at jobs={jobs}"
        );
    }
}

/// One tail-workload run's observable output, digested: the underlying
/// emulator digest (the RTO-stall counters are in each host's
/// `ConnStats`) combined with the schedule digest (every flow's start)
/// and the folded FCT view.
fn run_tails_once(degree: usize, seed: u64) -> u64 {
    use bench::tails::{run_tails, Population, TailSpec};
    let mut spec = TailSpec::incast(Population::MixedTdtcpCubic, degree);
    spec.shorts = 12;
    spec.short_bytes = 40_000;
    spec.mean_gap = SimDuration::from_micros(200);
    spec.replication = 1;
    let mut net = NetConfig::paper_baseline();
    net.seed = seed;
    let out = run_tails(&spec, &net, SimTime::from_millis(10));
    let mut d = testkit::Digest::new();
    d.write_u64(out.run_digest).write_u64(out.schedule_digest);
    d.write_usize(out.started).write_usize(out.completed);
    d.write_u64(out.replica_wins);
    d.write_u64(out.rto_stalls).write_u64(out.stall_ns);
    for f in &out.fcts_ns {
        d.write_u64(*f);
    }
    for f in &out.censored_fcts_ns {
        d.write_u64(*f);
    }
    d.finish()
}

/// The tail-latency workload joins the determinism contract: the same
/// (degree, seed) cell reproduces bit-identically, and a sharded sweep
/// over the (degree, seed) grid matches the serial one at every job
/// count — the contract `figures tails` and its block of the checked-in
/// `figures_output.txt` rest on.
#[test]
fn tails_runs_are_deterministic_and_shard_invariant() {
    let grid: Vec<(usize, u64)> = [2usize, 4, 8]
        .into_iter()
        .flat_map(|d| (1u64..=3).map(move |seed| (d, seed)))
        .collect();
    let serial: Vec<u64> = grid.iter().map(|&(d, s)| run_tails_once(d, s)).collect();
    let again: Vec<u64> = grid.iter().map(|&(d, s)| run_tails_once(d, s)).collect();
    assert_eq!(serial, again, "tails digests must replay bit-identically");
    for jobs in [1, 2, 4] {
        let sharded =
            simcore::par::par_map_jobs(jobs, grid.clone(), |_, (d, s)| run_tails_once(d, s));
        assert_eq!(
            sharded, serial,
            "sharded tails digests diverged from serial at jobs={jobs}"
        );
    }
}

/// The inert-spec guarantee for the tail stream: a [`bench::tails`] spec
/// that schedules nothing draws nothing, so running it over a config is
/// bit-identical to a plain empty run of the same config (the tail
/// stream is forked, never advanced).
#[test]
fn inert_tails_spec_leaves_clean_digest_unchanged() {
    use bench::tails::{run_tails, Population, TailSpec};
    let spec = TailSpec::inert(Population::Uniform(Variant::Cubic));
    let horizon = SimTime::from_millis(2);
    let a = run_tails(&spec, &NetConfig::paper_baseline(), horizon);
    let b = run_tails(&spec, &NetConfig::paper_baseline(), horizon);
    assert_eq!(a.run_digest, b.run_digest, "inert runs must replay");
    assert_eq!(a.started, 0);
    assert_eq!(a.rto_stalls, 0);
}

/// The digest actually has discriminating power: different seeds (which
/// perturb flow start jitter and the notification model) or different
/// variants must not collide on these workloads.
#[test]
fn digest_distinguishes_runs() {
    let base = run_once(Variant::Tdtcp, 1);
    assert_ne!(base, run_once(Variant::Tdtcp, 2), "seed must matter");
    assert_ne!(base, run_once(Variant::Cubic, 1), "variant must matter");
}

/// `(variant, pinned stats_digest)` at seed 3 for every variant the
/// headline pins above leave out. Each run enters fast recovery 9–13
/// times, DCTCP's sees 184 ECEs and MPTCP's reinjects 125 times, so the
/// growth, recovery, ECN-cut, circuit-scaling and data-level reassembly
/// paths are all held here. None of them fires an RTO: `on_rto` is held
/// by the `figures all` diff and the congestion-control unit tests.
/// Debug and release builds agree on every pin.
const VARIANT_PINS: [(Variant, u64); 5] = [
    (Variant::Dctcp, 0xc0e8_eaed_5cc8_01d7),
    (Variant::Reno, 0x7334_a9c9_8478_a44e),
    (Variant::ReTcp, 0x2959_f28d_94c6_dfea),
    (Variant::ReTcpDyn, 0x2293_56fe_3bb5_664a),
    (Variant::Mptcp, 0x9912_0fc4_0128_3afe),
];

/// All remaining variants double-run clean too, onto their pins (one
/// seed each — the point is coverage of every code path, not seed
/// breadth).
#[test]
fn all_variants_are_deterministic() {
    for (variant, pin) in VARIANT_PINS {
        let a = run_once(variant, 3);
        assert_eq!(a, run_once(variant, 3), "digest diverged: variant={variant:?}");
        assert_eq!(a, pin, "digest moved off its pin: variant={variant:?}, got {a:#018x}");
    }
}

/// `(plane, the edit arming it with a busy plan, its runs)`; a run is
/// `(variant, seed, pinned stats_digest)`.
type Case = (&'static str, Edit, &'static [(Variant, u64, u64)]);

/// Every chaos plane joins the determinism contract: on each of its
/// variants and seeds, the armed run replays to a bit-identical digest,
/// that digest differs from the clean run's (the plan did something,
/// and the digest covers the plane's log and counters), and it equals
/// the pin, so a fold that reorders or drops a counter fails here too.
/// Debug and release builds agree on every pin.
const CASES: [Case; 4] = [
    (
        "notification loss",
        |n| n.faults = busy_faults(),
        &[(Variant::Tdtcp, 1, 0x249b_2cd1_beb6_25b6)],
    ),
    (
        // A mid-day circuit failure with a multi-day outage.
        "link failure",
        |n| {
            n.faults.link_failure = Some(rdcn::LinkFailure {
                day: 4,
                at_fraction: 0.5,
                outage_days: 12,
            });
        },
        &[(Variant::Tdtcp, 7, 0x5ad9_0794_ef09_caec)],
    ),
    (
        "impairment",
        |n| n.impair = busy_impair(),
        &[
            (Variant::Tdtcp, 1, 0x4569_b7e2_143c_b750),
            (Variant::Tdtcp, 0xBADC_AB1E, 0x1a50_0d7a_f796_c64c),
            (Variant::Cubic, 1, 0x079b_1e1d_cab3_6539),
            (Variant::Cubic, 0xBADC_AB1E, 0x362b_e110_34d8_0dba),
        ],
    ),
    (
        "clock skew",
        |n| n.clock = busy_clock(),
        &[
            (Variant::Tdtcp, 1, 0x5e94_9312_7e38_1a49),
            (Variant::Tdtcp, 0xC10C, 0xa612_13e5_00d6_eec0),
            (Variant::Cubic, 1, 0x174d_bd5a_892b_93d5),
            (Variant::Cubic, 0xC10C, 0x0f86_2810_f254_cec8),
        ],
    ),
];

fn case(plane: &str) -> Case {
    CASES.into_iter().find(|c| c.0 == plane).expect("a case for the plane")
}

/// The `CASES` contract for `plane`.
fn assert_replays_and_perturbs(plane: &str) {
    let (plane, edit, runs) = case(plane);
    for &(variant, seed, pin) in runs {
        let a = run_edited(variant, seed, edit);
        let b = run_edited(variant, seed, edit);
        assert_eq!(a, b, "{plane} digest diverged: variant={variant:?} seed={seed:#x}");
        assert_ne!(
            a,
            run_once(variant, seed),
            "an armed {plane} plan must perturb the digest: variant={variant:?}"
        );
        assert_eq!(
            a, pin,
            "{plane} digest moved off its pin: variant={variant:?} seed={seed:#x}, got {a:#018x}"
        );
    }
}

/// The inert-plan guarantee: attaching a plane's inert plan explicitly
/// makes zero draws from its stream, so the digest is bit-identical to
/// the baseline default.
fn assert_inert(plane: &str, edit: Edit) {
    for variant in [Variant::Tdtcp, Variant::Cubic] {
        assert_eq!(
            run_edited(variant, 1, edit),
            run_once(variant, 1),
            "inert {plane} plan perturbed the clean digest: variant={variant:?}"
        );
    }
}

#[test]
fn faulted_runs_are_deterministic() {
    assert_replays_and_perturbs("notification loss");
}

#[test]
fn link_failure_runs_are_deterministic() {
    assert_replays_and_perturbs("link failure");
}

#[test]
fn impaired_runs_are_deterministic() {
    assert_replays_and_perturbs("impairment");
}

#[test]
fn skewed_runs_are_deterministic() {
    assert_replays_and_perturbs("clock skew");
}

/// All three planes armed on one two-rack run: every plane fires, the
/// run replays, and its digest is pinned, so the two-rack fold of each
/// plane's counters and log is held where the three meet.
#[test]
fn every_plane_armed_at_once_is_pinned() {
    let res = run_result(Variant::Tdtcp, 1, arm);
    assert!(res.faults.total() > 0, "fault plane never fired");
    assert!(res.impairments.total() > 0, "impair plane never fired");
    assert!(res.clock.total() > 0, "clock plane never fired");
    let digest = res.stats_digest();
    assert_eq!(digest, run_edited(Variant::Tdtcp, 1, arm), "armed run diverged");
    assert_eq!(digest, 0x345e_cd86_9539_92a7, "every plane armed: got {digest:#018x}");
}

#[test]
fn inert_impair_plan_leaves_clean_digest_unchanged() {
    assert_inert("impair", |n| n.impair = rdcn::ImpairPlan::none());
}

#[test]
fn inert_clock_plan_leaves_clean_digest_unchanged() {
    assert_inert("clock", |n| n.clock = rdcn::ClockPlan::none());
}

/// The intra-run parallelism contract: a chaotic 8-rack run —
/// notification faults, data-path impairments and clock skew, every
/// busy plan armed at once — ends in one digest at workers 1, 2 and 4.
/// The digest folds each rack's events with its other books, so the
/// event count needs no check of its own.
#[test]
fn sharded_chaos_run_is_worker_count_invariant() {
    let mut cfg = rdcn::ShardConfig::clean(rdcn::MultiRackConfig {
        racks: 8,
        ..rdcn::MultiRackConfig::paper_8rack()
    });
    arm(&mut cfg.net);
    cfg.net.guard_band = SimDuration::from_micros(1);
    let ring: Vec<_> = (0..8).map(|r| rdcn::PairFlow { src: r, dst: (r + 1) % 8 }).collect();
    let tdtcp = |i| Variant::Tdtcp.endpoints(i, u64::MAX, None, SimTime::ZERO);
    assert_worker_count_invariant(&cfg, &ring, SimTime::from_millis(4), [1; 3], tdtcp);
}

/// Skewed runs shard like clean ones: mapping a (variant, seed) grid
/// through `par_map_jobs` under any job count reproduces the serial
/// digests exactly — per-host clock state lives inside each run, so
/// worker scheduling can never leak into the time plane.
#[test]
fn skewed_sweep_matches_serial_digests() {
    let grid: Vec<(Variant, u64)> = [Variant::Tdtcp, Variant::Cubic]
        .into_iter()
        .flat_map(|v| (0u64..4).map(move |seed| (v, seed)))
        .collect();
    let skewed = case("clock skew").1;
    let serial: Vec<u64> = grid.iter().map(|&(v, s)| run_edited(v, s, skewed)).collect();
    for jobs in [1, 2, 4] {
        let sharded =
            simcore::par::par_map_jobs(jobs, grid.clone(), |_, (v, s)| run_edited(v, s, skewed));
        assert_eq!(
            sharded, serial,
            "sharded skewed digests diverged from serial at jobs={jobs}"
        );
    }
}

/// Per-connection half of the guarantee: a scripted TDTCP connection
/// driven twice through the same notification/ACK/timer sequence lands
/// on identical stats digests at every step (not just at the end).
#[test]
fn tdtcp_connection_replay_is_deterministic() {
    let digests_a = drive_scripted_connection();
    let digests_b = drive_scripted_connection();
    assert_eq!(digests_a.len(), digests_b.len());
    for (i, (a, b)) in digests_a.iter().zip(&digests_b).enumerate() {
        assert_eq!(a, b, "stats digest diverged at step {i}");
    }
}

fn drive_scripted_connection() -> Vec<u64> {
    let mut cfg = td_config(u64::MAX);
    cfg.tcp.pacing = true;
    let (mut conn, ..) = handshake(td_pair(cfg, 0));

    let mut digests = Vec::new();
    let mut now_us = 200u64;
    for step in 0..200u32 {
        now_us += 41;
        let now = SimTime::from_micros(now_us);
        match step % 5 {
            0 | 3 => {
                while conn.poll_send(now).is_some() {}
            }
            1 => conn.on_tdn_notification(now, TdnId((step / 5 % 2) as u8), u64::from(step)),
            2 => {
                let ack = Peer::ack(1 + step / 5 * MSS).wnd(1 << 22).tdn((step / 5 % 2) as u8);
                conn.on_segment(now, &ack);
            }
            _ => {
                if let Some(t) = conn.next_timer() {
                    let fire = t.as_micros().max(now_us) + 1;
                    now_us = fire;
                    conn.on_timer(SimTime::from_micros(fire));
                }
            }
        }
        digests.push(conn.stats().digest());
    }
    digests
}
