//! Fault sensitivity: goodput vs. notification loss rate, and a mid-day
//! link-failure recovery timeline.
//!
//! Neither appears in the paper — its evaluation is clean-path only —
//! but the related robustness literature (T-RACKs, RepNet) argues that
//! recovery behaviour, not steady state, dominates tail performance, so
//! this sweep quantifies how gracefully each variant degrades:
//!
//! 1. **Loss sweep**: TDTCP's goodput as 0–10% of TDN-change
//!    notifications are dropped. The watchdog detects each miss, parks
//!    the host in the conservative single-state posture, and the next
//!    notification resynchronizes it — goodput should bend, not cliff.
//! 2. **Recovery timeline**: an OCS circuit fails mid-day and stays down
//!    for a window of days; goodput is measured before, during, and
//!    after the outage for TDTCP vs. CUBIC and reTCP.

use crate::experiments::default_warmup;
use crate::variants::Variant;
use crate::workload::{steady_goodput_gbps, Workload};
use rdcn::{FaultPlan, LinkFailure, NetConfig};
use simcore::{SimDuration, SimTime};

/// One point of the notification-loss sweep.
#[derive(Debug)]
pub struct LossPoint {
    /// Configured notification drop probability.
    pub loss_rate: f64,
    /// Steady-state goodput in Gbps.
    pub goodput_gbps: f64,
    /// Goodput relative to the clean (0% loss) run.
    pub clean_ratio: f64,
    /// Notifications actually dropped by the injector.
    pub notifications_lost: u64,
    /// Watchdog fires summed over all endpoints.
    pub watchdog_fires: u64,
    /// Total time endpoints spent degraded.
    pub degraded: SimDuration,
}

/// One variant's goodput around the link-failure window.
#[derive(Debug)]
pub struct RecoveryRow {
    /// Variant under test.
    pub variant: Variant,
    /// Goodput in Gbps over `[warmup, failure)`.
    pub before_gbps: f64,
    /// Goodput in Gbps over the outage window.
    pub during_gbps: f64,
    /// Goodput in Gbps from outage end to the horizon.
    pub after_gbps: f64,
}

/// The full fault-sensitivity result.
#[derive(Debug)]
pub struct FaultSweep {
    /// Notification-loss sweep (TDTCP).
    pub loss: Vec<LossPoint>,
    /// Link-failure recovery timeline per variant.
    pub recovery: Vec<RecoveryRow>,
    /// When the injected circuit failure begins.
    pub fail_at: SimTime,
    /// When circuit days resume.
    pub recover_at: SimTime,
}

impl FaultSweep {
    /// Print both tables.
    pub fn print(&self) {
        println!("\n== faults: goodput vs notification loss (tdtcp) ==");
        println!("  loss    goodput   vs-clean   dropped  watchdog   degraded");
        for p in &self.loss {
            println!(
                "  {:>4.1}%  {:>7.3} Gbps  {:>6.1}%  {:>7}  {:>8}  {:>9}",
                p.loss_rate * 100.0,
                p.goodput_gbps,
                p.clean_ratio * 100.0,
                p.notifications_lost,
                p.watchdog_fires,
                p.degraded,
            );
        }
        println!(
            "\n== faults: mid-day circuit failure at {} (circuit back {}) ==",
            self.fail_at, self.recover_at
        );
        println!("  variant     before     during      after");
        for r in &self.recovery {
            println!(
                "  {:>8}  {:>7.3}    {:>7.3}    {:>7.3}   Gbps",
                r.variant.label(),
                r.before_gbps,
                r.during_gbps,
                r.after_gbps
            );
        }
    }
}

/// Notification drop rates swept (0–10%).
pub const LOSS_RATES: [f64; 5] = [0.0, 0.01, 0.02, 0.05, 0.10];

/// Run the fault sensitivity sweep.
pub fn run(horizon: SimTime) -> FaultSweep {
    let warmup = default_warmup();
    let base = NetConfig::paper_baseline();

    // --- notification-loss sweep ---
    // Runs shard across workers; the clean ratio needs the 0% run's
    // goodput, so normalize after collection (results arrive in sweep
    // order regardless of which worker ran them).
    let runs = simcore::par::par_map(LOSS_RATES.to_vec(), |_, rate| {
        let mut net = base.clone();
        net.faults = FaultPlan::notification_loss(rate);
        let res = Workload::bulk(Variant::Tdtcp, horizon).run(&net);
        (rate, steady_goodput_gbps(&res, warmup, horizon), res)
    });
    let mut loss = Vec::new();
    let mut clean_gbps = 0.0;
    for (rate, g, res) in runs {
        if rate == 0.0 {
            clean_gbps = g;
        }
        loss.push(LossPoint {
            loss_rate: rate,
            goodput_gbps: g,
            clean_ratio: if clean_gbps > 0.0 { g / clean_gbps } else { 0.0 },
            notifications_lost: res.notifications_lost(),
            watchdog_fires: res.watchdog_fires(),
            degraded: res.degraded_time(),
        });
    }

    // --- link-failure recovery timeline ---
    // Fail the first circuit day past mid-horizon, half-way through the
    // day, and keep the circuit dark for three schedule weeks.
    let sched = &base.schedule;
    let mut fail_day = sched.day_number(SimTime::ZERO + (horizon.saturating_since(SimTime::ZERO) / 2));
    while !rdcn::is_circuit(sched.day_tdn(fail_day)) {
        fail_day += 1;
    }
    let outage_days = 3 * sched.days.len() as u64;
    let lf = LinkFailure {
        day: fail_day,
        at_fraction: 0.5,
        outage_days,
    };
    let fail_at = sched.day_start(fail_day) + sched.day_len.mul_f64(0.5);
    let recover_at = sched.day_start(fail_day + outage_days);

    let recovery = simcore::par::par_map(
        vec![Variant::Tdtcp, Variant::Cubic, Variant::ReTcp],
        |_, variant| {
            let mut net = base.clone();
            net.faults = FaultPlan {
                link_failure: Some(lf),
                ..FaultPlan::default()
            };
            let res = Workload::bulk(variant, horizon).run(&net);
            RecoveryRow {
                variant,
                before_gbps: steady_goodput_gbps(&res, warmup, fail_at),
                during_gbps: steady_goodput_gbps(&res, fail_at, recover_at),
                after_gbps: steady_goodput_gbps(&res, recover_at, horizon),
            }
        },
    );

    FaultSweep {
        loss,
        recovery,
        fail_at,
        recover_at,
    }
}
