//! ToR VOQ occupancy figures, one row of [`FIGURES`] each.

use crate::experiments::{Figure, SIX_VARIANTS};
use crate::variants::Variant;
use crate::workload::Workload;
use rdcn::NetConfig;
use simcore::{SimDuration, SimTime};

/// Occupancy summary for one variant.
#[derive(Debug)]
pub struct VoqSummary {
    /// Variant label.
    pub label: String,
    /// Mean occupancy over the steady-state window (packets).
    pub mean: f64,
    /// Peak occupancy (packets).
    pub max: f64,
    /// Mean occupancy during packet days only.
    pub mean_packet_days: f64,
    /// Mean occupancy during optical days only.
    pub mean_optical_days: f64,
    /// Sampled trace over one plotted window (packets at each grid step).
    pub trace: Vec<f64>,
}

/// One VOQ figure.
#[derive(Debug)]
pub struct VoqFigure {
    /// Experiment identifier.
    pub name: &'static str,
    /// Grid offsets (µs) for the traces.
    pub grid_us: Vec<u64>,
    /// Per-variant summaries.
    pub variants: Vec<VoqSummary>,
}

impl VoqFigure {
    /// Find a variant's summary.
    pub fn get(&self, label: &str) -> Option<&VoqSummary> {
        self.variants.iter().find(|v| v.label == label)
    }

    /// Print the traces and summary rows.
    pub fn print(&self) {
        println!("\n== {} : ToR VOQ occupancy (packets) ==", self.name);
        print!("{:>8}", "t_us");
        for v in &self.variants {
            print!("{:>10}", v.label);
        }
        println!();
        for (k, t) in self.grid_us.iter().enumerate() {
            print!("{t:>8}");
            for v in &self.variants {
                print!("{:>10.1}", v.trace[k]);
            }
            println!();
        }
        println!(
            "{:>10} {:>8} {:>8} {:>10} {:>10}",
            "variant", "mean", "max", "mean_pkt", "mean_opt"
        );
        for v in &self.variants {
            println!(
                "{:>10} {:>8.2} {:>8.1} {:>10.2} {:>10.2}",
                v.label, v.mean, v.max, v.mean_packet_days, v.mean_optical_days
            );
        }
    }
}

/// Fig. 7b (bandwidth + latency difference), Fig. 8b (bandwidth
/// difference only), Fig. 13 (appendix A.3: CUBIC and MPTCP in the
/// motivation configuration) and Fig. 14a/b (appendix A.4: latency
/// difference only, at 10 and 100 Gbps).
pub const FIGURES: [Figure; 5] = [
    ("fig7b", NetConfig::paper_baseline, &SIX_VARIANTS),
    ("fig8b", NetConfig::bandwidth_only, &SIX_VARIANTS),
    ("fig13", NetConfig::paper_baseline, &[Variant::Cubic, Variant::Mptcp]),
    ("fig14a", || NetConfig::latency_only(10_000_000_000), &SIX_VARIANTS),
    ("fig14b", || NetConfig::latency_only(100_000_000_000), &SIX_VARIANTS),
];

/// Generate one [`FIGURES`] row's occupancy figure: summaries over the
/// second half of the run, traces over three optical weeks from
/// mid-horizon.
pub fn run((name, net, variants): Figure, horizon: SimTime) -> VoqFigure {
    let net = &net();
    let window_start = SimTime::from_nanos(horizon.as_nanos() / 2);
    let window_len = SimDuration::from_micros(4200);
    let step = SimDuration::from_micros(100);
    let mut grid_us = Vec::new();
    let mut t = SimTime::ZERO;
    while t.as_nanos() < window_len.as_nanos() {
        grid_us.push(t.as_micros());
        t += step;
    }
    let out = simcore::par::par_map(variants.to_vec(), |_, v| {
        let wl = Workload::bulk(v, horizon);
        let res = wl.run(net);
        let (mut sum, mut n, mut max) = (0.0f64, 0u64, 0.0f64);
        let (mut psum, mut pn, mut osum, mut on) = (0.0, 0u64, 0.0, 0u64);
        let mut tt = window_start;
        while tt < horizon {
            let occ = res.voq_ab.value_at(tt, 0.0);
            sum += occ;
            n += 1;
            max = max.max(occ);
            match net.schedule.phase_at(tt).active() {
                Some(tdn) if rdcn::is_circuit(tdn) => {
                    osum += occ;
                    on += 1;
                }
                Some(_) => {
                    psum += occ;
                    pn += 1;
                }
                None => {}
            }
            tt += SimDuration::from_micros(2);
        }
        let trace: Vec<f64> = grid_us
            .iter()
            .map(|&us| {
                res.voq_ab
                    .value_at(window_start + SimDuration::from_micros(us), 0.0)
            })
            .collect();
        VoqSummary {
            label: v.label().to_string(),
            mean: sum / n.max(1) as f64,
            max,
            mean_packet_days: psum / pn.max(1) as f64,
            mean_optical_days: osum / on.max(1) as f64,
            trace,
        }
    });
    VoqFigure {
        name,
        grid_us,
        variants: out,
    }
}
