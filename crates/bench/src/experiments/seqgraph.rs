//! Sequence-number graphs, one row of [`FIGURES`] each.
//!
//! Each graph plots cumulative acknowledged bytes over a ~4 ms window of
//! steady state, re-zeroed at the window start, next to the analytic
//! "optimal" and "packet only" reference curves.

use crate::experiments::{Figure, SIX_VARIANTS};
use crate::variants::Variant;
use crate::workload::Workload;
use rdcn::{analytic, NetConfig};
use simcore::{SimDuration, SimTime};

/// One generated sequence graph.
#[derive(Debug)]
pub struct SeqGraph {
    /// Experiment identifier (`"fig2"`, ...).
    pub name: &'static str,
    /// Sample offsets within the window, in microseconds.
    pub grid_us: Vec<u64>,
    /// `(label, cumulative bytes at each grid point)`, optimal first,
    /// packet-only last.
    pub series: Vec<(String, Vec<f64>)>,
}

impl SeqGraph {
    /// Print in the row form of the paper's figures.
    pub fn print(&self) {
        println!("\n== {} : sequence graph (bytes since window start) ==", self.name);
        print!("{:>8}", "t_us");
        for (label, _) in &self.series {
            print!("{label:>14}");
        }
        println!();
        for (k, t) in self.grid_us.iter().enumerate() {
            print!("{t:>8}");
            for (_, vals) in &self.series {
                print!("{:>14.0}", vals[k]);
            }
            println!();
        }
        println!("-- final bytes over {} us window:", self.grid_us.last().unwrap_or(&0));
        for (label, vals) in &self.series {
            println!("   {:>10}: {:>12.0}", label, vals.last().unwrap_or(&0.0));
        }
    }
}

/// Fig. 2 (CUBIC and MPTCP against the bounds: §2.2's motivation
/// measurement), Fig. 7a (every variant, bandwidth + latency
/// difference), Fig. 8a (bandwidth difference only) and Fig. 9 (latency
/// difference only, at 100 Gbps).
pub const FIGURES: [Figure; 4] = [
    ("fig2", NetConfig::paper_baseline, &[Variant::Cubic, Variant::Mptcp]),
    ("fig7a", NetConfig::paper_baseline, &SIX_VARIANTS),
    ("fig8a", NetConfig::bandwidth_only, &SIX_VARIANTS),
    ("fig9", || NetConfig::latency_only(100_000_000_000), &SIX_VARIANTS),
];

/// Generate one [`FIGURES`] row's sequence graph.
///
/// `horizon` is the full simulated duration; the plotted window is three
/// optical weeks from mid-horizon, inside steady state like the paper's
/// "≈4-ms period during the experiment, not the absolute start".
pub fn run((name, net, variants): Figure, horizon: SimTime) -> SeqGraph {
    let net = &net();
    let window_start = SimTime::from_nanos(horizon.as_nanos() / 2);
    let window_len = SimDuration::from_micros(4200);
    let step = SimDuration::from_micros(200);
    assert!(window_start + window_len <= horizon);
    let window_end = window_start + window_len;
    let mut grid_us = Vec::new();
    let mut t = SimTime::ZERO;
    while t.as_nanos() < window_len.as_nanos() {
        grid_us.push(t.as_micros());
        t += step;
    }
    let npts = grid_us.len();

    let mut series = Vec::new();
    // Analytic reference curves.
    let optimal: Vec<f64> = analytic::sample_curve(
        |tt| analytic::optimal_bytes(net, tt),
        window_start,
        window_end,
        step,
    );
    series.push(("optimal".to_string(), optimal));

    series.extend(simcore::par::par_map(variants.to_vec(), |_, v| {
        let wl = Workload::bulk(v, horizon);
        let res = wl.run(net);
        let base = res.seq_series.value_at(window_start, 0.0);
        let vals: Vec<f64> = (0..npts)
            .map(|k| {
                let tt = window_start + step * k as u64;
                res.seq_series.value_at(tt, 0.0) - base
            })
            .collect();
        (v.label().to_string(), vals)
    }));

    let packet_only: Vec<f64> = analytic::sample_curve(
        |tt| analytic::packet_only_bytes(net, tt),
        window_start,
        window_end,
        step,
    );
    series.push(("packet_only".to_string(), packet_only));

    SeqGraph {
        name,
        grid_us,
        series,
    }
}
