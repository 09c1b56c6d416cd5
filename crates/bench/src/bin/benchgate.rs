//! Perf-regression gate over testkit `BENCH_*.json` files.
//!
//! ```text
//! benchgate <baseline.json> <candidate.json> [--max-loss-pct P]
//! ```
//!
//! Both files are testkit [`BenchSuite`](testkit::bench::BenchSuite)
//! output (`unit: ns_per_iter`). For every benchmark present in the
//! baseline, the candidate's median must not be slower than
//! `1 / (1 - P/100)` times the baseline median — with the default
//! P = 25, a candidate may be at most 1.333x slower in ns/iter, which is
//! exactly a 25% loss in events (iterations) per second. A benchmark
//! that vanished from the candidate also fails: deleting a bench must
//! not silently retire its baseline.
//!
//! `scripts/ci.sh bench` wires this against the checked-in
//! `BENCH_detlint.json` at the repo root; exit status 1 on any
//! regression makes it a hard gate.
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Extract the JSON string value following `"<key>": "` on a line.
/// The testkit writer emits one result object per line, so line-local
/// scanning is exact for this format.
fn str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
    None
}

/// Extract the JSON number following `"<key>": ` on a line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let end = line[start..]
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .map_or(line.len(), |i| start + i);
    line[start..end].parse().ok()
}

/// Parse a suite file into `name -> median ns/iter`.
fn load_medians(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out = BTreeMap::new();
    for line in text.lines() {
        if let (Some(name), Some(median)) =
            (str_field(line, "name"), num_field(line, "median"))
        {
            out.insert(name, median);
        }
    }
    if out.is_empty() {
        return Err(format!("{path}: no benchmark results found"));
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut max_loss_pct = 25.0f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--max-loss-pct" => {
                max_loss_pct = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--max-loss-pct needs a number");
            }
            other => paths.push(other.to_string()),
        }
    }
    let [baseline_path, candidate_path] = &paths[..] else {
        eprintln!("usage: benchgate <baseline.json> <candidate.json> [--max-loss-pct P]");
        return ExitCode::FAILURE;
    };
    assert!(
        (0.0..100.0).contains(&max_loss_pct),
        "--max-loss-pct must be in [0, 100)"
    );
    // A P% loss in iterations/sec is a 1/(1-P/100) growth in ns/iter.
    let max_ratio = 1.0 / (1.0 - max_loss_pct / 100.0);

    let baseline = match load_medians(baseline_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("benchgate: {e}");
            return ExitCode::FAILURE;
        }
    };
    let candidate = match load_medians(candidate_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("benchgate: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "benchgate: {candidate_path} vs baseline {baseline_path} \
         (fail above {max_loss_pct}% events/sec loss = {max_ratio:.3}x median ns)"
    );
    let mut failures = 0u32;
    for (name, &old) in &baseline {
        match candidate.get(name) {
            None => {
                println!("  FAIL {name:<40} missing from candidate");
                failures += 1;
            }
            Some(&new) => {
                let ratio = new / old;
                let verdict = if ratio > max_ratio { "FAIL" } else { "ok" };
                println!(
                    "  {verdict:<4} {name:<40} {old:>12.0} -> {new:>12.0} ns  ({:+.1}% events/sec)",
                    (old / new - 1.0) * 100.0
                );
                if ratio > max_ratio {
                    failures += 1;
                }
            }
        }
    }
    for name in candidate.keys().filter(|n| !baseline.contains_key(*n)) {
        println!("  new  {name:<40} (no baseline yet)");
    }

    if failures > 0 {
        eprintln!("benchgate: {failures} regression(s) beyond the {max_loss_pct}% budget");
        return ExitCode::FAILURE;
    }
    println!("benchgate: OK");
    ExitCode::SUCCESS
}
