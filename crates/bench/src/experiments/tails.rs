//! The tail-latency figure: FCT p50/p99/p999 for the [`crate::tails`]
//! workload family — incast fan-in vs degree, tiny-buffer VOQ caps, and
//! RepNet-style replication — per transport population (TDTCP, CUBIC,
//! and the two mixed on one rack pair).
//!
//! Unlike the paper figures, this one runs at a **fixed internal
//! horizon**: its rows are one record in `figures_output.txt`, held
//! byte for byte by root `tests/tails.rs`, so they must not depend on the
//! `figures` CLI horizon flag.

use crate::tails::{run_tails, Population, TailSpec};
use crate::variants::Variant;
use rdcn::NetConfig;
use simcore::SimTime;

/// The horizon every tail row runs at (pinned; see module doc).
pub fn tails_horizon() -> SimTime {
    SimTime::from_millis(30)
}

/// The populations every sweep covers.
const POPULATIONS: [Population; 3] = [
    Population::Uniform(Variant::Tdtcp),
    Population::Uniform(Variant::Cubic),
    Population::MixedTdtcpCubic,
];

/// One row of the tail-latency figure.
#[derive(Debug)]
pub struct TailRow {
    /// Row name, e.g. `incast/cubic/d16` or `cap/mixed/c4`.
    pub name: String,
    /// FCT percentiles in microseconds over completed logical flows
    /// (0.0 when nothing completed).
    pub p50_us: f64,
    /// 99th percentile FCT (µs).
    pub p99_us: f64,
    /// 99.9th percentile FCT (µs).
    pub p999_us: f64,
    /// Logical flows started within the horizon.
    pub started: usize,
    /// Logical flows with at least one completed replica.
    pub completed: usize,
    /// RTO-stall episodes summed over all senders.
    pub rto_stalls: u64,
    /// Completions won by a non-primary replica.
    pub replica_wins: u64,
    /// Jain index over background flows' delivered bytes.
    pub jain: f64,
}

/// The full tail-latency figure.
#[derive(Debug)]
pub struct TailFigure {
    /// Rows in sweep order.
    pub rows: Vec<TailRow>,
}

fn row_of(name: String, spec: &TailSpec, net: &NetConfig) -> TailRow {
    let outcome = run_tails(spec, net, tails_horizon());
    let mut oracle = outcome.oracle();
    let us = |v: Option<u64>| v.map_or(0.0, |ns| ns as f64 / 1_000.0);
    TailRow {
        name,
        p50_us: us(oracle.p50()),
        p99_us: us(oracle.p99()),
        p999_us: us(oracle.p999()),
        started: outcome.started,
        completed: outcome.completed,
        rto_stalls: outcome.rto_stalls,
        replica_wins: outcome.replica_wins,
        jain: outcome.jain,
    }
}

/// The sweep grid: (name, spec, net) triples, in figure order.
fn grid() -> Vec<(String, TailSpec, NetConfig)> {
    let base = NetConfig::paper_baseline();
    let mut runs = Vec::new();
    // FCT vs incast degree at the default 16-packet VOQ.
    for pop in POPULATIONS {
        for degree in [4usize, 8, 16, 32] {
            runs.push((
                format!("incast/{}/d{}", pop.label(), degree),
                TailSpec::incast(pop, degree),
                base.clone(),
            ));
        }
    }
    // FCT vs VOQ capacity at fan-in 16 (the tiny-buffer knob).
    for pop in POPULATIONS {
        for cap in [4usize, 8, 16, 50] {
            runs.push((
                format!("cap/{}/c{}", pop.label(), cap),
                TailSpec::incast(pop, 16),
                base.clone().with_voq_cap(cap),
            ));
        }
    }
    // RepNet-style replication on/off at fan-in 16.
    for variant in [Variant::Tdtcp, Variant::Cubic] {
        for replication in [0u32, 2] {
            let mut spec = TailSpec::incast(Population::Uniform(variant), 16);
            spec.replication = replication;
            runs.push((
                format!("rep/{}/r{}", variant.label(), replication),
                spec,
                base.clone(),
            ));
        }
    }
    runs
}

/// Run the whole figure, sharded across `simcore::par` workers.
pub fn run() -> TailFigure {
    let rows = simcore::par::par_map(grid(), |_, (name, spec, net)| {
        row_of(name, &spec, &net)
    });
    TailFigure { rows }
}

impl TailFigure {
    /// The figure as a table: the block `figures tails` prints and
    /// `figures_output.txt` records, from its `==` header line on. FCT
    /// percentiles to 0.1 µs and Jain to four decimals, so every row
    /// move a behaviour change makes shows in that file's diff.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from(
            "== extension: tail-latency suite (incast / tiny buffers / replication) ==\n",
        );
        writeln!(
            out,
            "{:<20} {:>8} {:>10} {:>10} {:>10} {:>7} {:>7} {:>6} {:>7}",
            "row", "started", "p50_us", "p99_us", "p999_us", "done", "stalls", "rwins", "jain"
        )
        .expect("write to String");
        for r in &self.rows {
            writeln!(
                out,
                "{:<20} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>7} {:>7} {:>6} {:>7.4}",
                r.name,
                r.started,
                r.p50_us,
                r.p99_us,
                r.p999_us,
                r.completed,
                r.rto_stalls,
                r.replica_wins,
                r.jain
            )
            .expect("write to String");
        }
        out.push_str(
            "T-RACKs: incast fan-in over tiny VOQs drives short flows into RTO; \
             RepNet: replication cuts the tail\n",
        );
        out
    }

    /// Print [`TailFigure::render`] after a blank separator line.
    pub fn print(&self) {
        print!("\n{}", self.render());
    }
}
