//! Extension: the full 8-rack rotor fabric (§2.1/Fig. 1), beyond the
//! paper's pinned two-rack evaluation. One flow per ring neighbour pair;
//! the demand-oblivious schedule gives every pair one direct circuit day
//! per week while the EPS carries the rest.

use crate::Variant;
use rdcn::{MultiRackConfig, PairFlow, ShardConfig, ShardedEmulator};
use simcore::SimTime;

/// Per-variant aggregate results on the 8-rack fabric.
#[derive(Debug)]
pub struct MultiRack {
    /// `(label, total acked bytes, drops)` per variant.
    pub rows: Vec<(String, u64, u64)>,
    /// EPS-only ceiling for the same horizon, bytes.
    pub eps_ceiling: f64,
}

/// Run TDTCP and CUBIC over the 8-rack rotor with one flow per ring pair.
pub fn run(horizon: SimTime) -> MultiRack {
    let cfg = MultiRackConfig::paper_8rack();
    let flows: Vec<PairFlow> = (0..8)
        .map(|r| PairFlow {
            src: r,
            dst: (r + 1) % 8,
        })
        .collect();
    let rows = simcore::par::par_map(vec![Variant::Tdtcp, Variant::Cubic], |_, variant| {
        let emu = ShardedEmulator::new(ShardConfig::clean(cfg.clone()), flows.clone(), |i, _| {
            variant.endpoints(i, u64::MAX, None, SimTime::ZERO)
        });
        let res = emu.run(horizon, 1);
        (variant.label().to_string(), res.total_acked(), res.drops)
    });
    MultiRack {
        rows,
        eps_ceiling: 8.0 * 10e9 / 8.0 * horizon.as_secs_f64(),
    }
}

impl MultiRack {
    /// Print the comparison.
    pub fn print(&self) {
        println!("\n== extension: 8-rack rotor fabric (1 flow per ring pair) ==");
        println!("{:>8} {:>16} {:>10}", "variant", "acked bytes", "drops");
        for (l, a, d) in &self.rows {
            println!("{l:>8} {a:>16} {d:>10}");
        }
        println!(
            "EPS-only ceiling: {:.0} bytes — circuits must lift totals above it",
            self.eps_ceiling
        );
    }
}
