//! `compare BASELINE CANDIDATE`: per workload, how far each bounded
//! metric moved in its worse direction, against its bound.
//!
//! A result file holds one JSON object per line, as `--out` appends
//! them; a workload measured several times in a file is represented by
//! the median of each metric. A host-time metric whose spread — between
//! the runs of a file when it holds at least four of the workload
//! (interquartile range over median, as the driver computes it), else
//! between the passes of its one run (`bench.pass_spread`) — exceeds its
//! bound in either file cannot be resolved either way and is reported as
//! such, not as unchanged. Simulated-time metrics are exact at one seed
//! and always resolve.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::Json;
use crate::metrics::{is_simulated, Better, END_TO_END, PER_LAYER};
use crate::stats::{iqr_over_median, median};
use crate::workloads::WORKLOADS;

/// A metric over the runs of one workload in one file.
struct Sample {
    median: f64,
    /// Run-to-run spread, when there are enough runs to have one.
    spread: Option<f64>,
}

/// workload → metric → its sample.
type ResultSet = BTreeMap<String, BTreeMap<String, Sample>>;

/// Runs of a workload a file needs before their spread means anything.
const RUNS_FOR_SPREAD: usize = 4;

fn load(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut samples: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let obj = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let field = |k: &str| {
            obj.get(k)
                .ok_or_else(|| format!("{path}:{}: no `{k}`", i + 1))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let per_metric = samples.entry(workload).or_default();
        for (name, m) in field("metrics")?.as_obj().unwrap_or_default() {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                per_metric.entry(name.clone()).or_default().push(v);
            }
        }
    }
    if samples.is_empty() {
        return Err(format!("{path}: no results"));
    }
    let sample = |mut xs: Vec<f64>| Sample {
        median: median(&mut xs),
        spread: (xs.len() >= RUNS_FOR_SPREAD).then(|| iqr_over_median(&mut xs)),
    };
    Ok(samples
        .into_iter()
        .map(|(w, ms)| (w, ms.into_iter().map(|(n, xs)| (n, sample(xs))).collect()))
        .collect())
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Within,
    Unresolved,
    Breach,
}

/// `worse`: the candidate's move in the metric's worse direction, as a
/// share of the baseline.
fn judge(name: &str, bound: f64, worse: f64, spread: f64) -> Verdict {
    if !is_simulated(name) && spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Breach
    } else {
        Verdict::Within
    }
}

pub fn run(baseline: &str, candidate: &str) -> ExitCode {
    let (base, cand) = match (load(baseline), load(candidate)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut breaches = 0;
    println!(
        "{:<13} {:<28} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "baseline", "candidate", "worse", "spread", "bound"
    );
    for w in WORKLOADS.map(|w| w.name()) {
        let (Some(b), Some(c)) = (base.get(w), cand.get(w)) else {
            continue;
        };
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let (Some(bound), Some(x), Some(y)) = (def.bound, b.get(def.name), c.get(def.name))
            else {
                continue;
            };
            if x.median == 0.0 {
                continue;
            }
            let worse = match def.better {
                Better::Lower => (y.median - x.median) / x.median,
                Better::Higher => (x.median - y.median) / x.median,
            };
            let spread_in = |set: &BTreeMap<String, Sample>, m: &Sample| {
                m.spread
                    .unwrap_or_else(|| set.get("bench.pass_spread").map_or(0.0, |s| s.median))
            };
            let spread = spread_in(b, x).max(spread_in(c, y));
            let verdict = judge(def.name, bound, worse, spread);
            breaches += usize::from(verdict == Verdict::Breach);
            println!(
                "{w:<13} {:<28} {:>14.4} {:>14.4} {:>+7.1}% {:>6.1}% {:>5.0}%  {}",
                def.name,
                x.median,
                y.median,
                worse * 100.0,
                spread * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Within => "within bound",
                    Verdict::Unresolved => "unresolved (spread exceeds the bound)",
                    Verdict::Breach => "BREACH",
                }
            );
        }
    }
    if breaches > 0 {
        println!("compare: {breaches} metric(s) worse than their bound");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let (wall, sim) = ("wall_ns_per_sim_ms", "sim_goodput_gbps");
        assert_eq!(judge(wall, 0.10, 0.04, 0.02), Verdict::Within);
        assert_eq!(
            judge(wall, 0.10, -0.30, 0.02),
            Verdict::Within,
            "an improvement is never a breach"
        );
        assert_eq!(judge(wall, 0.10, 0.12, 0.02), Verdict::Breach);
        assert_eq!(
            judge(wall, 0.10, 0.12, 0.15),
            Verdict::Unresolved,
            "too noisy to call"
        );
        assert_eq!(
            judge(sim, 0.05, 0.06, 0.50),
            Verdict::Breach,
            "simulated results are exact"
        );
    }
}
