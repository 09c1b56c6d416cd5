//! Graceful-degradation acceptance: TDTCP under injected faults must
//! bend, not break. A 1% TDN-notification loss rate leaves the standard
//! two-rack workload stall-free and within 20% of clean goodput; a
//! mid-day circuit failure truncates the day and keeps traffic moving
//! over the packet fabric; EPS fault bursts round out the robustness
//! surface.

use bench::workload::steady_goodput_gbps;
use bench::{Variant, Workload};
use rdcn::{EpsBurst, FaultPlan, LinkFailure, NetConfig, RunResult};
use simcore::{SimDuration, SimTime};

const HORIZON: SimTime = SimTime::from_millis(20);
const WARMUP: SimTime = SimTime::from_millis(4);

fn run_tdtcp(plan: FaultPlan, bytes_per_flow: u64) -> RunResult {
    let mut net = NetConfig::paper_baseline();
    net.faults = plan;
    let wl = Workload {
        flows: 8,
        bytes_per_flow,
        ..Workload::bulk(Variant::Tdtcp, HORIZON)
    };
    wl.run(&net)
}

/// The headline acceptance criterion: at 1% notification loss, every
/// fixed-size flow of the standard workload still completes (no stall),
/// steady-state goodput stays within 20% of the clean run, and the
/// degradation machinery demonstrably engaged — notifications were
/// dropped, the watchdog fired, endpoints spent time degraded and then
/// resynchronized.
#[test]
fn one_percent_notification_loss_degrades_gracefully() {
    // Goodput: long-lived bulk flows, measured past warmup.
    let clean = run_tdtcp(FaultPlan::default(), u64::MAX);
    let lossy = run_tdtcp(FaultPlan::notification_loss(0.01), u64::MAX);
    let gc = steady_goodput_gbps(&clean, WARMUP, HORIZON);
    let gl = steady_goodput_gbps(&lossy, WARMUP, HORIZON);
    assert!(gc > 0.0, "clean run must move bytes");
    assert!(
        gl >= 0.8 * gc,
        "goodput fell to {:.1}% of clean ({gl:.3} vs {gc:.3} Gbps)",
        100.0 * gl / gc
    );

    // No stall: a fixed-size transfer per flow all complete under loss.
    let finite = run_tdtcp(FaultPlan::notification_loss(0.01), 400_000);
    assert!(
        finite.completions.iter().all(Option::is_some),
        "a flow stalled under 1% notification loss: {:?}",
        finite.completions
    );

    assert!(lossy.notifications_lost() > 0, "plan should drop notifications");
    assert!(lossy.watchdog_fires() > 0, "watchdog should detect misses");
    assert!(
        lossy.degraded_time() > SimDuration::ZERO,
        "endpoints should log degraded time"
    );
    let resyncs: u64 = lossy
        .sender_stats
        .iter()
        .chain(&lossy.receiver_stats)
        .map(|s| s.notify_resyncs)
        .sum();
    assert!(resyncs > 0, "endpoints should resynchronize after misses");

    // The clean run must not pay for the machinery: no watchdog fires,
    // no degraded time, no faults.
    assert_eq!(clean.watchdog_fires(), 0);
    assert_eq!(clean.degraded_time(), SimDuration::ZERO);
    assert_eq!(clean.faults.total(), 0);
}

/// A circuit failure halfway through a circuit day truncates that day
/// and blacks the circuit out for the outage window; the run keeps
/// moving bytes over the packet fabric the whole time.
#[test]
fn mid_day_circuit_failure_truncates_then_recovers() {
    let base = NetConfig::paper_baseline();
    let sched = &base.schedule;
    // First circuit day after a little warmup.
    let mut fail_day = sched.day_number(SimTime::from_millis(1));
    while !rdcn::is_circuit(sched.day_tdn(fail_day)) {
        fail_day += 1;
    }
    let outage_days = 2 * sched.days.len() as u64;
    let plan = FaultPlan {
        link_failure: Some(LinkFailure {
            day: fail_day,
            at_fraction: 0.5,
            outage_days,
        }),
        ..FaultPlan::default()
    };
    let res = run_tdtcp(plan, u64::MAX);

    assert_eq!(res.faults.days_truncated, 1, "exactly one day is cut short");
    assert!(res.faults.days_absent >= 1, "circuit days in the window vanish");
    assert!(
        res.total_acked() > 0,
        "traffic must keep flowing over the packet fabric"
    );
    // The outage is unannounced, so hosts discover it via the watchdog.
    assert!(res.watchdog_fires() > 0, "absent days should trip watchdogs");
    assert!(res.degraded_time() > SimDuration::ZERO);
}

/// An EPS fault burst drops and corrupts segments only inside its
/// window, and the run survives it.
#[test]
fn eps_burst_injects_and_run_survives() {
    let plan = FaultPlan {
        eps_burst: Some(EpsBurst {
            start: SimTime::from_millis(1),
            len: SimDuration::from_millis(2),
            drop_rate: 0.02,
            corrupt_rate: 0.01,
        }),
        ..FaultPlan::default()
    };
    let res = run_tdtcp(plan, u64::MAX);
    assert!(res.faults.eps_drops > 0, "burst should drop segments");
    assert!(res.faults.eps_corruptions > 0, "burst should corrupt segments");
    assert!(res.total_acked() > 0, "flows survive the burst");
}
