//! §5.4 component microbenchmarks: the three notification-path
//! optimizations measured individually.
//!
//! Paper claims: caching cuts construction 8× at p50 and 2.7× at p99; the
//! pull model cuts fan-out update time by ~3 orders of magnitude; the
//! dedicated control network cuts one-way delay ~5× at both p50 and p99.

use rdcn::{NotifyConfig, NotifyModel};
use simcore::{Cdf, DetRng};

/// One optimization's before/after percentiles (nanoseconds).
#[derive(Debug)]
pub struct OptRow {
    /// Component name.
    pub component: &'static str,
    /// p50 without the optimization.
    pub p50_off: f64,
    /// p50 with it.
    pub p50_on: f64,
    /// p99 without.
    pub p99_off: f64,
    /// p99 with.
    pub p99_on: f64,
}

impl OptRow {
    /// p50 improvement factor.
    pub fn speedup_p50(&self) -> f64 {
        self.p50_off / self.p50_on
    }

    /// p99 improvement factor.
    pub fn speedup_p99(&self) -> f64 {
        self.p99_off / self.p99_on
    }
}

/// The full component table.
#[derive(Debug)]
pub struct NotifyBench {
    /// One row per optimization.
    pub rows: Vec<OptRow>,
}

/// The study's seed. It is a standalone notification-model study with no
/// `NetConfig` to fork from, so it pins its own; changing it moves the
/// published table.
const NOTIFY_STUDY_SEED: u64 = 7;

/// Sample `n` draws of each component with each optimization toggled.
pub fn run(n: usize, flows: usize) -> NotifyBench {
    let mut rng = DetRng::new(NOTIFY_STUDY_SEED);
    let mut sample =
        |cfg: NotifyConfig, pick: &dyn Fn(&rdcn::NotifySample) -> u64, idx: usize| -> (f64, f64) {
            let model = NotifyModel::new(cfg);
            let mut c = Cdf::new();
            for _ in 0..n {
                c.add(pick(&model.sample(&mut rng, idx)) as f64);
            }
            (c.percentile(500).unwrap(), c.percentile(990).unwrap())
        };

    let on = NotifyConfig::optimized();
    let off = NotifyConfig::unoptimized();

    // Construction: caching on/off.
    let (c_on50, c_on99) = sample(on, &|s| s.construction.as_nanos(), 0);
    let (c_off50, c_off99) = sample(off, &|s| s.construction.as_nanos(), 0);
    // Fan-out: pull vs push, measured for the *last* flow (worst case).
    let (f_on50, f_on99) = sample(on, &|s| s.fanout.as_nanos().max(1), flows - 1);
    let (f_off50, f_off99) = sample(off, &|s| s.fanout.as_nanos().max(1), flows - 1);
    // Transit: dedicated vs shared network.
    let (t_on50, t_on99) = sample(on, &|s| s.transit.as_nanos(), 0);
    let shared = NotifyConfig {
        dedicated_network: false,
        ..on
    };
    let (t_off50, t_off99) = sample(shared, &|s| s.transit.as_nanos(), 0);

    NotifyBench {
        rows: vec![
            OptRow {
                component: "construction (cached vs fresh)",
                p50_off: c_off50,
                p50_on: c_on50,
                p99_off: c_off99,
                p99_on: c_on99,
            },
            OptRow {
                component: "fan-out (pull vs push, last flow)",
                p50_off: f_off50,
                p50_on: f_on50,
                p99_off: f_off99,
                p99_on: f_on99,
            },
            OptRow {
                component: "transit (dedicated vs shared)",
                p50_off: t_off50,
                p50_on: t_on50,
                p99_off: t_off99,
                p99_on: t_on99,
            },
        ],
    }
}

impl NotifyBench {
    /// Print the component table.
    pub fn print(&self) {
        println!("\n== §5.4 notification component breakdown (ns) ==");
        println!(
            "{:<36} {:>9} {:>9} {:>7} {:>9} {:>9} {:>7}",
            "component", "p50_off", "p50_on", "x50", "p99_off", "p99_on", "x99"
        );
        for r in &self.rows {
            println!(
                "{:<36} {:>9.0} {:>9.0} {:>6.1}x {:>9.0} {:>9.0} {:>6.1}x",
                r.component,
                r.p50_off,
                r.p50_on,
                r.speedup_p50(),
                r.p99_off,
                r.p99_on,
                r.speedup_p99()
            );
        }
        println!("paper: caching 8.0x p50 / 2.7x p99; pull ~1000x; dedicated ~5x p50 & p99");
    }
}
