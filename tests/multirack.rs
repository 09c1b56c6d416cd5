//! Multi-rack fabric tests: the demand-oblivious rotor serves every rack
//! pair, the hybrid semantics hold (EPS always on, circuits accelerate),
//! TDTCP exploits the circuits across many pairs, the two-rack door and
//! the N-rack door run one loop to one digest, and runs are
//! deterministic — across reruns and across worker counts. Every run
//! here is `workers = 1` unless it says otherwise.

use bench::{Variant, ALL_VARIANTS};
use rdcn::{
    ClockPlan, Emulator, EpsBurst, ImpairPlan, MultiRackConfig, NetConfig, PairFlow, ShardConfig,
    ShardResult, ShardedEmulator, SlotEdgePolicy,
};
use rdcn::shard::assert_worker_count_invariant;
use simcore::{SimDuration, SimTime};
use tdtcp_repro::harness::arm;

fn all_pairs(n: usize) -> Vec<PairFlow> {
    let mut v = Vec::new();
    for src in 0..n {
        for dst in 0..n {
            if src != dst {
                v.push(PairFlow { src, dst });
            }
        }
    }
    v
}

/// Run `variant` flows of `bytes` each over the clean fabric `cfg`
/// until `until_ms`.
fn run(
    cfg: MultiRackConfig,
    flows: Vec<PairFlow>,
    variant: Variant,
    bytes: u64,
    until_ms: u64,
    workers: usize,
) -> ShardResult {
    ShardedEmulator::new(ShardConfig::clean(cfg), flows, |i, _| {
        variant.endpoints(i, bytes, None, SimTime::ZERO)
    })
    .run(SimTime::from_millis(until_ms), workers)
}

#[test]
fn every_pair_makes_progress() {
    // 4 racks, a flow on every ordered pair: the rotor must serve all of
    // them (demand-oblivious full mesh) and the EPS keeps everyone moving
    // between circuit days.
    let mut cfg = MultiRackConfig::paper_8rack();
    cfg.racks = 4;
    let flows = all_pairs(4);
    let n = flows.len();
    let res = run(cfg, flows, Variant::Cubic, u64::MAX, 10, 1);
    assert_eq!(res.sender_stats.len(), n);
    for (i, s) in res.sender_stats.iter().enumerate() {
        assert!(s.bytes_acked > 0, "pair flow {i} starved");
    }
    assert!(res.events > 0);
    assert_eq!(res.rack_events.len(), 4);
    assert_eq!(res.events, res.rack_events.iter().sum::<u64>());
}

#[test]
fn finite_transfers_complete_cross_rack() {
    let mut cfg = MultiRackConfig::paper_8rack();
    cfg.racks = 4;
    let flows = vec![
        PairFlow { src: 0, dst: 1 },
        PairFlow { src: 2, dst: 3 },
        PairFlow { src: 3, dst: 0 },
    ];
    let res = run(cfg, flows, Variant::Tdtcp, 2_000_000, 100, 1);
    for (i, r) in res.receiver_stats.iter().enumerate() {
        assert_eq!(r.bytes_delivered, 2_000_000, "flow {i}");
        assert!(res.completions[i].is_some(), "flow {i} never completed");
    }
}

#[test]
fn circuits_accelerate_tdtcp_beyond_eps_share() {
    // One flow per rack as sender (8 racks, ring pattern): each rack's
    // EPS uplink gives the flow at most 10 Gbps; circuit days add 100G
    // bursts 1/7 of the time. TDTCP's total must exceed what the EPS
    // alone could have carried.
    let cfg = MultiRackConfig::paper_8rack();
    let flows = ring(8);
    let tdtcp = run(cfg.clone(), flows.clone(), Variant::Tdtcp, u64::MAX, 15, 1);
    let cubic = run(cfg, flows, Variant::Cubic, u64::MAX, 15, 1);
    let (tdtcp, cubic) = (tdtcp.total_acked() as f64, cubic.total_acked() as f64);
    // EPS-only ceiling: 8 racks x 10 Gbps x 15 ms = 150 MB.
    let eps_ceiling = 8.0 * 10e9 / 8.0 * 0.015;
    assert!(
        tdtcp > eps_ceiling,
        "TDTCP {tdtcp:.0} must exceed the EPS-only ceiling {eps_ceiling:.0}"
    );
    assert!(
        tdtcp > cubic,
        "TDTCP {tdtcp:.0} should beat CUBIC {cubic:.0} on the full fabric"
    );
}

#[test]
fn eps_shared_fairly_across_destinations() {
    // One rack fans out to three others over its shared 10G EPS uplink:
    // round-robin service must keep all three moving.
    let mut cfg = MultiRackConfig::paper_8rack();
    cfg.racks = 4;
    let flows = vec![
        PairFlow { src: 0, dst: 1 },
        PairFlow { src: 0, dst: 2 },
        PairFlow { src: 0, dst: 3 },
    ];
    let res = run(cfg, flows, Variant::Cubic, u64::MAX, 10, 1);
    let acked: Vec<u64> = res.sender_stats.iter().map(|s| s.bytes_acked).collect();
    let max = *acked.iter().max().unwrap() as f64;
    let min = *acked.iter().min().unwrap() as f64;
    assert!(min > 0.0);
    assert!(
        max / min < 4.0,
        "round-robin EPS service keeps fan-out flows comparable: {acked:?}"
    );
}

/// `flows` bulk `variant` flows from rack 0 to rack 1 over `net`, through
/// the N-rack door at `workers` workers.
fn pair_run(
    net: &NetConfig,
    variant: Variant,
    flows: usize,
    until: SimTime,
    workers: usize,
) -> ShardResult {
    let cfg = ShardConfig { net: net.clone(), racks: 2 };
    ShardedEmulator::new(cfg, vec![PairFlow { src: 0, dst: 1 }; flows], |i, _| {
        variant.endpoints(i, u64::MAX, None, SimTime::ZERO)
    })
    .run(until, workers)
}

/// The two doors drive one loop and fold one digest: `Emulator` over
/// `NetConfig::paper_baseline()` and `ShardedEmulator` at N = 2 over the
/// same network, at 1 and 2 workers, end in the same `stats_digest` — on
/// every variant, clean and with all three chaos planes armed.
#[test]
fn the_two_doors_drive_one_loop() {
    const FLOWS: usize = 8;
    let until = SimTime::from_millis(6);
    for variant in ALL_VARIANTS {
        for chaos in [false, true] {
            let mut net = NetConfig::paper_baseline();
            variant.apply_net_config(&mut net);
            if chaos {
                arm(&mut net);
            }
            let two_rack = Emulator::new(net.clone(), FLOWS, variant.factory(u64::MAX)).run(until);
            if variant == Variant::Tdtcp {
                let hosts = two_rack.sender_stats.iter().chain(&two_rack.receiver_stats);
                for (i, s) in hosts.enumerate() {
                    assert!(s.tdn_switches > 0, "chaos {chaos}: host {i} never switched");
                }
            }
            if chaos {
                let r = &two_rack;
                let fired = [r.faults.total(), r.impairments.total(), r.clock.total()];
                assert!(fired.iter().all(|&n| n > 0), "{variant:?}: a plane is silent: {fired:?}");
            }
            for workers in [1, 2] {
                assert_eq!(
                    pair_run(&net, variant, FLOWS, until, workers).stats_digest(),
                    two_rack.stats_digest(),
                    "{variant:?}, chaos {chaos}, workers={workers}"
                );
            }
        }
    }
    // `tests/integration.rs::headline_ordering`'s margin holds on the
    // N-rack door too.
    let acked = |variant: Variant| {
        let mut net = NetConfig::paper_baseline();
        variant.apply_net_config(&mut net);
        pair_run(&net, variant, 16, SimTime::from_millis(25), 1).total_acked() as f64
    };
    let (tdtcp, cubic) = (acked(Variant::Tdtcp), acked(Variant::Cubic));
    assert!(
        tdtcp > cubic * 1.08,
        "tdtcp {tdtcp:.0} must clearly beat cubic {cubic:.0}"
    );
}

/// `n` racks, rack `r` sending to rack `r + 1`.
fn ring(n: usize) -> Vec<PairFlow> {
    (0..n).map(|r| PairFlow { src: r, dst: (r + 1) % n }).collect()
}

/// The clean rotor of `MultiRackConfig::paper_8rack()` at `racks` racks.
fn rotor(racks: usize) -> ShardConfig {
    ShardConfig::clean(MultiRackConfig {
        racks,
        ..MultiRackConfig::paper_8rack()
    })
}

/// The clean rotor gives one digest at workers 1, 2 and 4, and again on
/// a second run. reTCP's circuit marks and retcpdyn's VOQ resizing act
/// at four racks too: retcpdyn's run moves when they are off.
#[test]
fn deterministic() {
    let (flows, until) = (all_pairs(4), SimTime::from_millis(5));
    for variant in [Variant::Tdtcp, Variant::ReTcpDyn] {
        let mut cfg = rotor(4);
        variant.apply_net_config(&mut cfg.net);
        let endpoints = |i| variant.endpoints(i, u64::MAX, None, SimTime::ZERO);
        let base = assert_worker_count_invariant(&cfg, &flows, until, [0; 3], endpoints);
        let rerun = |cfg: ShardConfig| {
            ShardedEmulator::new(cfg, flows.clone(), |i, _| endpoints(i)).run(until, 1).stats_digest()
        };
        assert_eq!(rerun(cfg), base.stats_digest(), "{variant:?}: a second run moved");
        if variant == Variant::ReTcpDyn {
            assert_ne!(rerun(rotor(4)), base.stats_digest(), "the switch support is inert");
        }
    }
}

#[test]
fn chaos_paths_are_worker_count_invariant() {
    // The rare paths of a pooled segment's life, together: the wire
    // duplicate (an id copied into a second slot), wire and EPS-burst
    // corruption (the slot rewritten in place), burst and guard-band
    // drops (the slot released at the fault), and the clock-deferred
    // launch (the same id re-queued). Pinned, so the N-rack fold of every
    // plane's counters and log is held too.
    for (policy, pin) in [
        (SlotEdgePolicy::Defer, 0x7d84_9e67_a5d5_3208),
        (SlotEdgePolicy::Drop, 0x6ed6_40a9_6e29_0609),
    ] {
        let mut cfg = rotor(4);
        cfg.net.impair = ImpairPlan {
            duplicate_rate: 0.01,
            corrupt_rate: 0.01,
            ..ImpairPlan::none()
        };
        cfg.net.faults.eps_burst = Some(EpsBurst {
            start: SimTime::from_millis(1),
            len: SimDuration::from_millis(1),
            drop_rate: 0.05,
            corrupt_rate: 0.05,
        });
        cfg.net.clock = ClockPlan {
            offset_bound: SimDuration::from_micros(40),
            slot_edge_policy: policy,
            ..ClockPlan::none()
        };
        cfg.net.guard_band = SimDuration::from_micros(1);
        let tdtcp = |i| Variant::Tdtcp.endpoints(i, u64::MAX, None, SimTime::ZERO);
        let until = SimTime::from_millis(4);
        let base = assert_worker_count_invariant(&cfg, &all_pairs(4), until, [1; 3], tdtcp);
        let corrupt_rx: u64 = base.receiver_stats.iter().map(|s| s.corrupt_rx).sum();
        let dups: u64 = base.receiver_stats.iter().map(|s| s.dup_segs_received).sum();
        assert!(corrupt_rx > 0 && dups > 0, "{policy:?}: corrupt_rx {corrupt_rx}, dups {dups}");
        let digest = base.stats_digest();
        assert_eq!(digest, pin, "{policy:?}: got {digest:#018x}");
    }
}

/// The benchmark's `fabric16`: 16 racks, every rack sending at strides
/// 1, 2 and 3 (48 TDTCP bulk flows), 60 ms, seed 1.
fn fabric16(workers: usize) -> ShardResult {
    let cfg = MultiRackConfig {
        racks: 16,
        ..MultiRackConfig::paper_8rack()
    };
    let flows: Vec<PairFlow> = (1..=3)
        .flat_map(|stride| {
            (0..16).map(move |r| PairFlow {
                src: r,
                dst: (r + stride) % 16,
            })
        })
        .collect();
    run(cfg, flows, Variant::Tdtcp, u64::MAX, 60, workers)
}

#[test]
fn fabric16_digest_is_pinned_at_every_worker_count() {
    // The window protocol may change, the simulated result may not. It
    // moved twice: from 0x3e82_3511_d799_fd67 when a segment came to hold
    // its VOQ slot until it launches, on every week, and from
    // 0x7116_49c7_7878_36a2 when both doors came to share one digest
    // fold. 3, 4, 8 and 32 workers oversubscribe a 2-CPU host (32 > racks
    // clamps to 16) and must park, not spin: each finishes within 3× the
    // two-worker wall time. A loaded host can slow one run, so a miss
    // re-times both sides, up to twice more; only a miss on every attempt
    // fails, and a waiter that spins slows every attempt.
    const PIN: u64 = 0x9c75_d724_9eb3_1334;
    let timed = |workers: usize| {
        #[expect(
            clippy::disallowed_methods,
            reason = "host time bounds the oversubscribed runs; it never reaches the simulation"
        )]
        let t0 = std::time::Instant::now();
        let digest = fabric16(workers).stats_digest();
        assert_eq!(digest, PIN, "workers={workers}");
        t0.elapsed()
    };
    timed(1);
    let mut wall2 = timed(2);
    for workers in [3, 4, 8, 32] {
        let mut misses = Vec::new();
        loop {
            let wall = timed(workers);
            if wall < 3 * wall2 {
                break;
            }
            misses.push(format!("workers={workers} took {wall:?}, workers=2 took {wall2:?}"));
            assert!(misses.len() < 3, "every attempt missed the 3× bound: {misses:?}");
            wall2 = timed(2);
        }
    }
}

#[test]
fn barrier_survives_ten_thousand_empty_windows() {
    // Lost-wake-up hunt: with nothing to do per window the barrier is
    // all that runs, at every split of 5 shards over 2..=8 workers.
    // A lost wake-up hangs; a skipped or doubled share miscounts.
    const WINDOWS: u64 = 10_000;
    for workers in 2..=8 {
        let shards: Vec<std::sync::Mutex<u64>> = (0..5).map(|_| Default::default()).collect();
        let mut left = WINDOWS;
        simcore::par::run_windows(
            workers,
            &shards,
            |shards| {
                let ran = WINDOWS - left;
                for s in shards {
                    assert_eq!(*s.lock().unwrap(), ran, "workers={workers}");
                }
                left -= 1;
                left > 0
            },
            |_, s| *s += 1,
        );
    }
}
