//! Sequence-number graphs: Fig. 2 (CUBIC & MPTCP vs analytic bounds),
//! Fig. 7a (all variants, bandwidth + latency difference), Fig. 8a
//! (bandwidth only), Fig. 9 (latency only at 100 Gbps).
//!
//! Each graph plots cumulative acknowledged bytes over a ~4 ms window of
//! steady state, re-zeroed at the window start, next to the analytic
//! "optimal" and "packet only" reference curves.

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

/// Generate a sequence graph for `variants` over `net`.
///
/// `horizon` is the full simulated duration; the plotted window is
/// `[window_start, window_start + window_len)`, chosen inside steady
/// state like the paper's "≈4-ms period during the experiment, not the
/// absolute start".
pub fn run(
    name: &'static str,
    net: &NetConfig,
    variants: &[Variant],
    horizon: SimTime,
    window_start: SimTime,
    window_len: SimDuration,
    step: SimDuration,
) -> SeqGraph {
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

/// Fig. 2: CUBIC and MPTCP against the analytic bounds, three optical
/// weeks (§2.2's motivation measurement).
pub fn fig2(horizon: SimTime) -> SeqGraph {
    run(
        "fig2",
        &NetConfig::paper_baseline(),
        &[Variant::Cubic, Variant::Mptcp],
        horizon,
        SimTime::from_nanos(horizon.as_nanos() / 2),
        SimDuration::from_micros(4200), // 3 weeks
        SimDuration::from_micros(200),
    )
}

/// Fig. 7a: every variant under bandwidth + latency difference.
pub fn fig7a(horizon: SimTime) -> SeqGraph {
    run(
        "fig7a",
        &NetConfig::paper_baseline(),
        &[
            Variant::ReTcpDyn,
            Variant::Tdtcp,
            Variant::ReTcp,
            Variant::Dctcp,
            Variant::Cubic,
            Variant::Mptcp,
        ],
        horizon,
        SimTime::from_nanos(horizon.as_nanos() / 2),
        SimDuration::from_micros(4200),
        SimDuration::from_micros(200),
    )
}

/// Fig. 8a: bandwidth difference only.
pub fn fig8a(horizon: SimTime) -> SeqGraph {
    run(
        "fig8a",
        &NetConfig::bandwidth_only(),
        &[
            Variant::ReTcpDyn,
            Variant::Tdtcp,
            Variant::ReTcp,
            Variant::Dctcp,
            Variant::Cubic,
            Variant::Mptcp,
        ],
        horizon,
        SimTime::from_nanos(horizon.as_nanos() / 2),
        SimDuration::from_micros(4200),
        SimDuration::from_micros(200),
    )
}

/// Fig. 9: latency difference only at 100 Gbps.
pub fn fig9(horizon: SimTime) -> SeqGraph {
    run(
        "fig9",
        &NetConfig::latency_only(100_000_000_000),
        &[
            Variant::ReTcpDyn,
            Variant::Tdtcp,
            Variant::ReTcp,
            Variant::Dctcp,
            Variant::Cubic,
            Variant::Mptcp,
        ],
        horizon,
        SimTime::from_nanos(horizon.as_nanos() / 2),
        SimDuration::from_micros(4200),
        SimDuration::from_micros(200),
    )
}
