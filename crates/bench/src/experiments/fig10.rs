//! Fig. 10: CDFs of (a) reordering events per optical day and (b) packets
//! marked for retransmission per optical day, for CUBIC, MPTCP and TDTCP.
//!
//! The paper counts, per optical day, how many times loss detection found
//! a sequence hole (a reordering event) and how many segments those
//! events queued for (possibly spurious) retransmission. MPTCP's line is
//! the intra-TDN baseline — its subflows never cross TDNs.

use crate::variants::Variant;
use crate::workload::Workload;
use rdcn::NetConfig;
use simcore::{Cdf, SimTime};

/// Percentile summary of one per-day distribution.
#[derive(Debug)]
pub struct DayCdf {
    /// Variant label.
    pub label: String,
    /// Fraction of optical days with a zero count.
    pub frac_zero: f64,
    /// 50th percentile.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum observed.
    pub max: f64,
    /// The full CDF steps `(value, fraction)`.
    pub steps: Vec<(f64, f64)>,
}

/// The figure: one distribution set per variant.
#[derive(Debug)]
pub struct Fig10 {
    /// Reordering events per optical day.
    pub events: Vec<DayCdf>,
    /// Marked (to-be-retransmitted) packets per optical day.
    pub marked: Vec<DayCdf>,
    /// Retransmissions proven spurious (the original had arrived) per
    /// optical day — the cost Fig. 10 isolates.
    pub spurious: Vec<DayCdf>,
}

fn summarize(label: &str, mut cdf: Cdf) -> DayCdf {
    DayCdf {
        label: label.to_string(),
        frac_zero: cdf.fraction_le(0.0),
        p50: cdf.percentile(50.0).unwrap_or(0.0),
        p90: cdf.percentile(90.0).unwrap_or(0.0),
        p99: cdf.percentile(99.0).unwrap_or(0.0),
        max: cdf.max().unwrap_or(0.0),
        steps: cdf.steps(),
    }
}

/// Run the Fig. 10 experiment.
pub fn run(horizon: SimTime) -> Fig10 {
    let net = NetConfig::paper_baseline();
    let per_variant = simcore::par::par_map(
        vec![Variant::Cubic, Variant::Mptcp, Variant::Tdtcp],
        |_, v| {
            let res = Workload::bulk(v, horizon).run(&net);
            let mut ev = Cdf::new();
            let mut mk = Cdf::new();
            let mut sp = Cdf::new();
            // Skip the first two weeks of convergence transients.
            for rec in res
                .day_records
                .iter()
                .filter(|r| r.day >= 14 && rdcn::is_circuit(r.tdn))
            {
                ev.add(rec.reorder_events as f64);
                mk.add(rec.reorder_marked_pkts as f64);
                sp.add(rec.spurious_retransmits as f64);
            }
            (
                summarize(v.label(), ev),
                summarize(v.label(), mk),
                summarize(v.label(), sp),
            )
        },
    );
    let mut events = Vec::new();
    let mut marked = Vec::new();
    let mut spurious = Vec::new();
    for (ev, mk, sp) in per_variant {
        events.push(ev);
        marked.push(mk);
        spurious.push(sp);
    }
    Fig10 {
        events,
        marked,
        spurious,
    }
}

impl Fig10 {
    /// Print both CDFs as percentile rows.
    pub fn print(&self) {
        for (title, set) in [
            ("fig10a: reordering events per optical day", &self.events),
            ("fig10b: marked packets per optical day", &self.marked),
            ("fig10c: spurious retransmissions per optical day", &self.spurious),
        ] {
            println!("\n== {title} ==");
            println!(
                "{:>10} {:>10} {:>8} {:>8} {:>8} {:>8}",
                "variant", "frac_zero", "p50", "p90", "p99", "max"
            );
            for c in set {
                println!(
                    "{:>10} {:>10.2} {:>8.0} {:>8.0} {:>8.0} {:>8.0}",
                    c.label, c.frac_zero, c.p50, c.p90, c.p99, c.max
                );
            }
        }
    }
}
