//! Data-path impairment acceptance: under 1% segment loss plus 0.1%
//! payload corruption plus delay-based reordering, TDTCP must bend, not
//! break — every flow completes or surfaces an explicit `ConnError`, the
//! end-to-end checksum catches every corrupted segment, and steady-state
//! goodput stays within 30% of the clean run. Also covers the EPS-burst
//! corruption path: damaged segments are *delivered* and discarded at
//! the receiver (`corrupt_rx`), not silently dropped in the fabric.

use bench::workload::steady_goodput_gbps;
use bench::{Variant, Workload};
use rdcn::{EpsBurst, FaultPlan, ImpairPlan, NetConfig, RunResult};
use simcore::{SimDuration, SimTime};

const HORIZON: SimTime = SimTime::from_millis(20);
const WARMUP: SimTime = SimTime::from_millis(4);

fn headline_plan() -> ImpairPlan {
    ImpairPlan {
        loss_rate: 0.01,
        reorder_rate: 0.05,
        reorder_delay: SimDuration::from_micros(150),
        corrupt_rate: 0.001,
        ..ImpairPlan::default()
    }
}

fn run_tdtcp(impair: ImpairPlan, bytes_per_flow: u64) -> RunResult {
    let mut net = NetConfig::paper_baseline();
    net.impair = impair;
    let wl = Workload {
        flows: 8,
        bytes_per_flow,
        ..Workload::bulk(Variant::Tdtcp, HORIZON)
    };
    wl.run(&net)
}

/// The headline acceptance criterion for the data-path chaos layer.
#[test]
fn one_percent_loss_with_corruption_degrades_gracefully() {
    // Goodput: long-lived bulk flows, measured past warmup.
    let clean = run_tdtcp(ImpairPlan::none(), u64::MAX);
    let rough = run_tdtcp(headline_plan(), u64::MAX);
    let gc = steady_goodput_gbps(&clean, WARMUP, HORIZON);
    let gr = steady_goodput_gbps(&rough, WARMUP, HORIZON);
    assert!(gc > 0.0, "clean run must move bytes");
    assert!(
        gr >= 0.7 * gc,
        "goodput fell to {:.1}% of clean ({gr:.3} vs {gc:.3} Gbps)",
        100.0 * gr / gc
    );

    // Survival: a fixed-size transfer per flow — every flow terminates,
    // and a terminated flow either delivered everything or says why not.
    let finite = run_tdtcp(headline_plan(), 400_000);
    for (i, c) in finite.completions.iter().enumerate() {
        assert!(
            c.is_some(),
            "flow {i} silently stalled under the headline impairments"
        );
        if finite.conn_errors[i].is_none() {
            assert_eq!(
                finite.receiver_stats[i].bytes_delivered, 400_000,
                "flow {i} completed short"
            );
        }
    }

    // The machinery demonstrably engaged, and damage was detected.
    assert!(rough.impairments.segs_dropped > 0, "plan should drop");
    assert!(rough.impairments.segs_reordered > 0, "plan should reorder");
    assert!(rough.impairments.segs_corrupted > 0, "plan should corrupt");
    let corrupt_rx: u64 = rough
        .sender_stats
        .iter()
        .chain(&rough.receiver_stats)
        .map(|s| s.corrupt_rx)
        .sum();
    assert!(corrupt_rx > 0, "receivers must detect corrupted payloads");
    assert!(
        corrupt_rx <= rough.impairments.segs_corrupted,
        "cannot discard more than was corrupted"
    );

    // The clean run pays nothing for the machinery.
    assert_eq!(clean.impairments.total(), 0);
    let clean_corrupt: u64 = clean
        .sender_stats
        .iter()
        .chain(&clean.receiver_stats)
        .map(|s| s.corrupt_rx)
        .sum();
    assert_eq!(clean_corrupt, 0);
}

/// Satellite 1 regression: an EPS fault burst's corrupted *data*
/// segments no longer vanish like drops — they are delivered and the
/// receiving endpoint detects and discards them, counted in
/// `corrupt_rx` separately from drops.
#[test]
fn eps_burst_corruption_is_detected_at_receivers() {
    let mut net = NetConfig::paper_baseline();
    net.faults = FaultPlan {
        eps_burst: Some(EpsBurst {
            start: SimTime::from_millis(1),
            len: SimDuration::from_millis(4),
            drop_rate: 0.0,
            corrupt_rate: 0.02,
        }),
        ..FaultPlan::default()
    };
    let wl = Workload {
        flows: 8,
        ..Workload::bulk(Variant::Tdtcp, HORIZON)
    };
    let res = wl.run(&net);
    assert!(res.faults.eps_corruptions > 0, "burst should corrupt");
    let corrupt_rx: u64 = res
        .sender_stats
        .iter()
        .chain(&res.receiver_stats)
        .map(|s| s.corrupt_rx)
        .sum();
    assert!(
        corrupt_rx > 0,
        "corrupted segments must reach endpoints and be discarded there \
         ({} corruptions injected, none detected)",
        res.faults.eps_corruptions
    );
    assert!(
        corrupt_rx <= res.faults.eps_corruptions,
        "detected {corrupt_rx} > injected {}",
        res.faults.eps_corruptions
    );
    assert!(res.total_acked() > 0, "flows survive the burst");
}

/// Impairments apply on both planes: with all traffic riding the
/// schedule across circuit days and EPS nights, an armed plan must
/// record wire impairments and the digest must cover them — two
/// identical runs agree, clean vs impaired disagree.
#[test]
fn impairments_fold_into_stats_digest() {
    let a = run_tdtcp(headline_plan(), u64::MAX);
    let b = run_tdtcp(headline_plan(), u64::MAX);
    assert!(a.impairments.total() > 0, "the armed plan applied nothing");
    assert_eq!(a.stats_digest(), b.stats_digest());
    let clean = run_tdtcp(ImpairPlan::none(), u64::MAX);
    assert_ne!(
        a.stats_digest(),
        clean.stats_digest(),
        "an armed plan must perturb the digest"
    );
}
