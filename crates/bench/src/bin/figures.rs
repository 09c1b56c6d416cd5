//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [experiment...] [--horizon-ms N] [--jobs N]
//!
//! experiments: fig2 fig7a fig7b fig8a fig8b fig9 fig10 fig11 fig13
//!              fig14a fig14b table1 notify ablation regime notify-sweep
//!              faults impair skew tails
//!              shortflows fairness multirack
//!              all   (everything above)
//!              quick (adds table1 + fig10 + fig11 at a reduced horizon;
//!                     other requested experiments still run)
//!
//! --jobs N      worker threads for sharded runs (default:
//!               available_parallelism(); --jobs 1 forces the serial
//!               path for debugging)
//! ```
//!
//! The `tails` experiment runs at its own fixed horizon regardless of
//! `--horizon-ms`, so its block of `figures_output.txt` is one record.
//!
//! An unknown experiment name, an unknown option, or a missing,
//! non-numeric or out-of-range option value (a horizon of 0 ms or past
//! `u64` nanoseconds, 0 jobs) is a usage error: nothing runs and the exit
//! code is 2. So is a horizon at or below the 10 ms warm-up when an
//! experiment that measures past the warm-up is requested (`table1`,
//! `faults`, `impair`, `skew`, and so `all`): it would print every
//! steady-state goodput as 0.
//!
//! Every experiment's sweep-style runs shard across worker threads via
//! `simcore::par`; outputs are bit-identical to `--jobs 1` because run
//! seeds live in the sharded items and results collect in index order.

use bench::experiments::*;
use simcore::SimTime;
use std::process::ExitCode;

/// Every experiment `all` runs, in output order.
const EXPERIMENTS: [&str; 23] = [
    "table1", "fig2", "fig7a", "fig7b", "fig8a", "fig8b", "fig9", "fig10", "fig11", "fig13",
    "fig14a", "fig14b", "notify", "ablation", "regime", "notify-sweep", "shortflows", "fairness",
    "multirack", "faults", "impair", "skew", "tails",
];

const USAGE: &str = "usage: figures [experiment...] [--horizon-ms N] [--jobs N]";

/// The experiments that measure past the warm-up
/// ([`default_warmup`]): their horizon must end after it.
const WARMED_UP: [&str; 4] = ["table1", "faults", "impair", "skew"];

/// The parsed command line.
struct Args {
    horizon: SimTime,
    wanted: Vec<String>,
    jobs: Option<usize>,
}

/// Parse and validate the command line; every experiment name is checked
/// before anything runs, so a typo cannot cost a full `all` run first.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        horizon: default_horizon(),
        wanted: Vec::new(),
        jobs: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{a} needs {what}"));
        match a.as_str() {
            "--horizon-ms" => {
                let v = value("a number of milliseconds")?;
                // `SimTime` counts nanoseconds in a `u64`.
                let ms = v
                    .parse::<u64>()
                    .ok()
                    .filter(|&ms| ms > 0 && ms.checked_mul(1_000_000).is_some())
                    .ok_or_else(|| {
                        format!(
                            "--horizon-ms needs a number of milliseconds from 1 to {}, got {v:?}",
                            u64::MAX / 1_000_000
                        )
                    })?;
                parsed.horizon = SimTime::from_millis(ms);
            }
            "--jobs" => {
                let v = value("a number >= 1")?;
                let n = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--jobs needs a number >= 1, got {v:?}"))?;
                parsed.jobs = Some(n);
            }
            name if name == "all" || name == "quick" || EXPERIMENTS.contains(&name) => {
                parsed.wanted.push(name.to_string());
            }
            other => return Err(format!("unknown experiment or option: {other}")),
        }
    }
    if parsed.wanted.is_empty() {
        parsed.wanted.push("all".to_string());
    }
    // `quick` expands in place: the reduced horizon applies, and its
    // experiment set merges with whatever else was requested instead of
    // clobbering it (`figures quick faults` runs faults too).
    if let Some(pos) = parsed.wanted.iter().position(|w| w == "quick") {
        parsed.horizon = SimTime::from_millis(25);
        parsed.wanted.splice(pos..=pos, ["table1", "fig10", "fig11"].map(String::from));
        let mut seen = std::collections::BTreeSet::new();
        parsed.wanted.retain(|w| seen.insert(w.clone()));
    }
    if parsed.wanted.iter().any(|w| w == "all") {
        parsed.wanted = EXPERIMENTS.map(String::from).to_vec();
    }
    let warmup = default_warmup();
    if parsed.horizon <= warmup {
        if let Some(w) = parsed.wanted.iter().find(|w| WARMED_UP.contains(&w.as_str())) {
            return Err(format!(
                "{w} measures past the {} ms warm-up, so --horizon-ms must exceed it, got {}",
                warmup.as_nanos() / 1_000_000,
                parsed.horizon.as_nanos() / 1_000_000
            ));
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { horizon, wanted, jobs } = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("figures: {e}");
            eprintln!("{USAGE}");
            eprintln!("experiments: all quick {}", EXPERIMENTS.join(" "));
            return ExitCode::from(2);
        }
    };
    let jobs = jobs.unwrap_or_else(simcore::par::available);
    simcore::par::set_default_jobs(jobs);

    let warmup = default_warmup();
    println!(
        "# TDTCP reproduction figures (horizon {} ms, warmup {} ms, 16 flows, {} jobs)",
        horizon.as_nanos() / 1_000_000,
        warmup.as_nanos() / 1_000_000,
        jobs
    );

    for w in &wanted {
        #[expect(
            clippy::disallowed_methods,
            reason = "per-experiment wall timing for the stderr line only"
        )]
        let t0 = std::time::Instant::now();
        match w.as_str() {
            "table1" => table1::run(horizon, warmup).print(),
            "fig10" => fig10::run(horizon).print(),
            "fig11" => fig11::run(horizon).print(),
            "notify" => notify::run(50_000, 16).print(),
            "ablation" => ablation::print_ablation(&ablation::design_ablation(horizon)),
            "regime" => {
                // Day lengths from ~0.3x RTT to ~100x RTT (packet RTT 100us).
                let pts = ablation::regime_sweep(&[30, 60, 180, 600, 2_000, 10_000], 20);
                ablation::print_regime(&pts);
            }
            "notify-sweep" => {
                let pts = ablation::notify_sweep(&[0, 5, 20, 60, 120], horizon);
                ablation::print_notify_sweep(&pts);
            }
            "shortflows" => {
                use bench::Variant;
                let rows = simcore::par::par_map(
                    vec![Variant::Tdtcp, Variant::Cubic],
                    |_, v| {
                        shortflows::short_flows(
                            v,
                            64,
                            100_000,
                            simcore::SimDuration::from_micros(300),
                            4,
                            horizon,
                        )
                    },
                );
                shortflows::print_short_flows(&rows);
            }
            "multirack" => multirack::run(horizon).print(),
            "tails" => tails::run().print(),
            "faults" => faultsweep::run(horizon).print(),
            "impair" => sensitivity::impair(horizon).print(),
            "skew" => sensitivity::skew(horizon).print(),
            "fairness" => {
                use bench::Variant;
                let rows = simcore::par::par_map(
                    vec![Variant::Tdtcp, Variant::Cubic],
                    |_, v| shortflows::fairness(v, horizon),
                );
                shortflows::print_fairness(&rows);
            }
            name => {
                if let Some(fig) = figure(&seqgraph::FIGURES, name) {
                    seqgraph::run(fig, horizon).print();
                } else if let Some(fig) = figure(&voqfig::FIGURES, name) {
                    voqfig::run(fig, horizon).print();
                } else {
                    unreachable!("parse_args admitted unknown experiment {name}");
                }
            }
        }
        eprintln!("[{w} took {:.1}s]", t0.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}
