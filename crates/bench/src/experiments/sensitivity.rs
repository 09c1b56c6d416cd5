//! Chaos-plane sensitivity for TDTCP, CUBIC and reTCP: goodput and flow
//! survival vs data-path impairment (`figures impair`), and goodput and
//! the censored FCT tail vs host clock skew (`figures skew`).
//!
//! The paper's evaluation runs on a clean fabric that keeps perfect
//! time; these sweeps ask how each variant holds up when the fabric
//! misbehaves or hosts and the ToR disagree on where slot boundaries
//! fall. Every point runs the same two workloads:
//!
//! 1. **Bulk**: steady goodput past warmup, as everywhere else, plus the
//!    chaos counters that explain it.
//! 2. **Fixed transfer** of 400 kB per flow. A flow *survives* when it
//!    completes in full without a `ConnError`; the transport's
//!    no-silent-stall contract means every non-survivor is an explicit
//!    abort, not a hang. Flows still running at the horizon count at the
//!    horizon in the p99 FCT (slot-edge losses are exactly the tail-loss
//!    regime T-RACKs targets).
//!
//! The impair sweep's three tables move segment loss, delay-based
//! reordering and payload corruption. The skew sweep's move drift under
//! a well-run PTP deployment (1 ms resync to a 2 µs residual; TDTCP
//! holds ≥80% of clean goodput at 50 ppm), the guard band against fixed
//! 60 µs offsets (shrinking it exposes launches it absorbed), and the
//! resync cadence against 150 µs offsets, past the default guard band
//! (without resync the mis-set hosts drop launches forever).

use crate::experiments::default_warmup;
use crate::tails::FctOracle;
use crate::variants::Variant;
use crate::workload::{steady_goodput_gbps, Workload};
use rdcn::{ClockPlan, ImpairPlan, NetConfig};
use simcore::{SimDuration, SimTime};

/// Variants compared in both sweeps.
const VARIANTS: [Variant; 3] = [Variant::Tdtcp, Variant::Cubic, Variant::ReTcp];

/// Transfer size per flow in the fixed-transfer runs.
const FIXED_BYTES: u64 = 400_000;

/// One (variant, swept value) point: the columns of both sweeps.
#[derive(Debug)]
pub struct Point {
    /// Variant under test.
    pub variant: Variant,
    /// The swept value (a rate, ppm, guard µs or resync ms per table).
    pub x: f64,
    /// Steady-state goodput in Gbps (bulk flows).
    pub goodput_gbps: f64,
    /// Goodput relative to the same variant's clean run.
    pub clean_ratio: f64,
    /// Fixed-size flows started.
    pub started: usize,
    /// Fixed-size flows that terminated (completed or explicitly
    /// errored) within the horizon; fewer than `started` is a stall.
    pub done: usize,
    /// Fixed-size flows that delivered every byte without a `ConnError`.
    pub survived: usize,
    /// Horizon-censored p99 FCT (µs) of the fixed-size flows.
    pub censored_p99_us: f64,
    /// Wire impairments applied during the bulk run.
    pub impaired: u64,
    /// Corrupted segments detected and discarded by endpoints (bulk run).
    pub corrupt_rx: u64,
    /// Launches attempted while the host's perceived slot disagreed
    /// with the fabric's.
    pub skewed_sends: u64,
    /// Launches dropped at the slot edge by the guard band.
    pub guard_drops: u64,
    /// Clock resyncs applied across all hosts.
    pub resyncs: u64,
    /// TDTCP senders+receivers that escalated to degraded mode on an
    /// unusable clock.
    pub escalations: u64,
    /// Largest absolute perceived-vs-true skew observed (µs).
    pub max_skew_us: f64,
}

/// Which chaos plane a sweep moves, and so which columns it prints.
#[derive(Debug, Clone, Copy)]
pub enum Plane {
    /// Data-path impairment (`figures impair`).
    Impair,
    /// Host clock skew (`figures skew`).
    Skew,
}

/// One swept dimension: its title, the x column's label, and its rows.
#[derive(Debug)]
pub struct Table {
    /// What the table sweeps.
    pub title: &'static str,
    /// The x column's label (skew tables only).
    pub x_label: &'static str,
    /// Rows in (swept value, variant) order.
    pub rows: Vec<Point>,
}

/// A sensitivity sweep: one table per swept dimension.
#[derive(Debug)]
pub struct Sweep {
    /// The plane the sweep moves.
    pub plane: Plane,
    /// The tables, in print order.
    pub tables: Vec<Table>,
}

impl Sweep {
    /// Print every table.
    pub fn print(&self) {
        for t in &self.tables {
            match self.plane {
                Plane::Impair => {
                    println!("\n== impair: goodput & survival vs {} ==", t.title);
                    println!("  variant    rate    goodput   vs-clean  survival  terminated  impaired  corrupt_rx");
                }
                Plane::Skew => {
                    println!("\n== skew: goodput vs {} ==", t.title);
                    println!(
                        "  variant  {:>9}    goodput   vs-clean  p99_fct_us   done    skewed     drops   resyncs  escal  max_skew",
                        t.x_label
                    );
                }
            }
            for r in &t.rows {
                match self.plane {
                    Plane::Impair => println!(
                        "  {:>8}  {:>5.2}%  {:>7.3} Gbps  {:>6.1}%  {:>6.1}%  {:>7.1}%  {:>8}  {:>8}",
                        r.variant.label(),
                        r.x * 100.0,
                        r.goodput_gbps,
                        r.clean_ratio * 100.0,
                        r.survived as f64 / r.started as f64 * 100.0,
                        r.done as f64 / r.started as f64 * 100.0,
                        r.impaired,
                        r.corrupt_rx,
                    ),
                    Plane::Skew => println!(
                        "  {:>8}  {:>8.0}  {:>7.3} Gbps  {:>6.1}%  {:>9.0}  {:>2}/{:>2}  {:>8}  {:>8}  {:>8}  {:>5}  {:>6.1}us",
                        r.variant.label(),
                        r.x,
                        r.goodput_gbps,
                        r.clean_ratio * 100.0,
                        r.censored_p99_us,
                        r.done,
                        r.started,
                        r.skewed_sends,
                        r.guard_drops,
                        r.resyncs,
                        r.escalations,
                        r.max_skew_us,
                    ),
                }
            }
        }
    }
}

/// Measure `variant` at swept value `x` on `net`.
fn measure(variant: Variant, x: f64, net: &NetConfig, clean_gbps: f64, horizon: SimTime) -> Point {
    let bulk = Workload::bulk(variant, horizon).run(net);
    let goodput_gbps = steady_goodput_gbps(&bulk, default_warmup(), horizon);
    let hosts = || bulk.sender_stats.iter().chain(&bulk.receiver_stats);

    let fin = Workload {
        bytes_per_flow: FIXED_BYTES,
        ..Workload::bulk(variant, horizon)
    }
    .run(net);
    let started = fin.completions.len();
    let survived = (0..started)
        .filter(|&i| {
            fin.completions[i].is_some()
                && fin.conn_errors[i].is_none()
                && fin.receiver_stats[i].bytes_delivered == FIXED_BYTES
        })
        .count();
    let censored_ns = (0..started).map(|i| {
        let end = fin.completions[i].unwrap_or(horizon);
        end.saturating_since(fin.starts[i]).as_nanos()
    });
    let censored_p99_ns = FctOracle::new(censored_ns.collect()).p99().unwrap_or(0);

    Point {
        variant,
        x,
        goodput_gbps,
        clean_ratio: if clean_gbps > 0.0 { goodput_gbps / clean_gbps } else { 0.0 },
        started,
        done: fin.completions.iter().flatten().count(),
        survived,
        censored_p99_us: censored_p99_ns as f64 / 1_000.0,
        impaired: bulk.impairments.total(),
        corrupt_rx: hosts().map(|s| s.corrupt_rx).sum(),
        skewed_sends: bulk.clock.skewed_sends,
        guard_drops: bulk.clock.guard_drops,
        resyncs: bulk.clock.resyncs,
        escalations: hosts().map(|s| s.skew_escalations).sum(),
        max_skew_us: bulk.clock.max_abs_skew_ns as f64 / 1_000.0,
    }
}

/// One dimension to sweep: title, x label, and each swept value with
/// the network it runs on.
type Dimension = (&'static str, &'static str, Vec<(f64, NetConfig)>);

/// Measure every variant at every point of every dimension against the
/// per-variant clean baselines.
fn run(plane: Plane, dims: Vec<Dimension>, horizon: SimTime) -> Sweep {
    // The clean baselines gate every point's clean_ratio, so they are the
    // one barrier; everything after shards fully.
    let clean = simcore::par::par_map(VARIANTS.to_vec(), |_, variant| {
        let res = Workload::bulk(variant, horizon).run(&NetConfig::paper_baseline());
        steady_goodput_gbps(&res, default_warmup(), horizon)
    });
    let points: Vec<(f64, usize, NetConfig)> = dims
        .iter()
        .flat_map(|(.., xs)| xs.iter())
        .flat_map(|(x, net)| (0..VARIANTS.len()).map(move |vi| (*x, vi, net.clone())))
        .collect();
    let mut rows = simcore::par::par_map(points, |_, (x, vi, net)| {
        measure(VARIANTS[vi], x, &net, clean[vi], horizon)
    })
    .into_iter();
    let tables = dims
        .into_iter()
        .map(|(title, x_label, xs)| Table {
            title,
            x_label,
            rows: rows.by_ref().take(xs.len() * VARIANTS.len()).collect(),
        })
        .collect();
    Sweep { plane, tables }
}

/// The impair sweep: goodput and survival vs segment loss, reordering
/// (extra delay uniform in (0, 150 µs]) and payload corruption.
pub fn impair(horizon: SimTime) -> Sweep {
    let net = |impair| NetConfig {
        impair,
        ..NetConfig::paper_baseline()
    };
    let reorder = |rate| ImpairPlan {
        reorder_rate: rate,
        reorder_delay: SimDuration::from_micros(150),
        ..ImpairPlan::default()
    };
    let corrupt = |rate| ImpairPlan {
        corrupt_rate: rate,
        ..ImpairPlan::default()
    };
    let dims = vec![
        (
            "segment loss",
            "",
            [0.0, 0.001, 0.01, 0.03].map(|r| (r, net(ImpairPlan::loss(r)))).to_vec(),
        ),
        (
            "reordering (delay ≤150us)",
            "",
            [0.05, 0.15, 0.30].map(|r| (r, net(reorder(r)))).to_vec(),
        ),
        (
            "payload corruption",
            "",
            [0.001, 0.005, 0.02].map(|r| (r, net(corrupt(r)))).to_vec(),
        ),
    ];
    run(Plane::Impair, dims, horizon)
}

/// The skew sweep: goodput vs drift (ppm, under 1 ms / 2 µs resync),
/// guard-band width (µs, against 60 µs offsets, inside the default
/// 100 µs guard) and resync interval (ms, 0 = never, against 150 µs
/// offsets).
pub fn skew(horizon: SimTime) -> Sweep {
    let net = |clock| NetConfig {
        clock,
        ..NetConfig::paper_baseline()
    };
    let drift = |ppm| ClockPlan {
        drift_ppm: ppm,
        resync_interval: SimDuration::from_millis(1),
        resync_error: SimDuration::from_micros(2),
        ..ClockPlan::default()
    };
    let guard = |us: u64| NetConfig {
        guard_band: SimDuration::from_micros(us),
        ..net(ClockPlan::offset(SimDuration::from_micros(60)))
    };
    let resync = |ms: u64| ClockPlan {
        offset_bound: SimDuration::from_micros(150),
        resync_interval: SimDuration::from_millis(ms),
        resync_error: SimDuration::from_micros(if ms > 0 { 2 } else { 0 }),
        ..ClockPlan::default()
    };
    let dims = vec![
        (
            "clock drift, resync 1ms/2us",
            "ppm",
            [0.0, 50.0, 200.0, 1000.0].map(|ppm| (ppm, net(drift(ppm)))).to_vec(),
        ),
        (
            "guard-band width, offsets 60us",
            "guard_us",
            [50, 20, 5].map(|us| (us as f64, guard(us))).to_vec(),
        ),
        (
            "resync interval, offsets 150us (0 = never)",
            "resync_ms",
            [0, 4, 1].map(|ms| (ms as f64, net(resync(ms)))).to_vec(),
        ),
    ];
    run(Plane::Skew, dims, horizon)
}
