//! The repo's one benchmark: five workloads over the simulator, timed
//! from outside. See README.md for what every name means.
//!
//! ```text
//! tdtcp-benchmark --workload NAME [--seed N] [--seconds S | --passes N] [--trace 0|1] [--out FILE]
//! tdtcp-benchmark compare BASELINE.jsonl CANDIDATE.jsonl
//! ```
//!
//! One process measures one workload, so `peak_rss_mb` belongs to it.
//! A run is: set-up (generate the inputs from `--seed`, one warm-up
//! pass) three times over, timed passes with tracing off, and — with
//! `--trace 1`, the default — traced passes and the micro-kernels.
//! Every pass's outputs are checked against the first's. The last line
//! of standard output is the result object the driver reads: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`; `--out` appends every metric measured to a file.

#![forbid(unsafe_code)]

mod compare;
mod json;
mod metrics;
mod micro;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use json::Json;
use metrics::{ratio, END_TO_END, PER_LAYER};
use stats::{iqr_over_median, median};
use trace::{now, LegProfile, Profile, CALLS};
use workloads::{cross_check, generate, run_pass, Inputs, Pass, WorkloadId, WORKLOADS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Passes at the other worker count behind `rdcn.shard_w2_over_w1`.
const OTHER_WORKER_PASSES: usize = 5;

#[derive(Debug, Clone, Copy)]
enum Budget {
    /// Timed passes until this much host time is spent (at least three).
    Seconds(f64),
    /// Exactly this many timed passes, and one traced.
    Passes(usize),
}

struct Options {
    workload: WorkloadId,
    seed: u64,
    budget: Budget,
    trace: bool,
    out: Option<String>,
}

fn usage(err: &str) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    eprintln!(
        "tdtcp-benchmark: {err}\n\
         usage: tdtcp-benchmark --workload <{}> [--seed N] [--seconds S | --passes N] [--trace 0|1] [--out FILE]\n\
         \x20      tdtcp-benchmark compare BASELINE.jsonl CANDIDATE.jsonl",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut budget = None;
    let mut trace = true;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(WorkloadId::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                budget = Some(Budget::Seconds(s));
            }
            "--passes" => {
                let n: usize = value()?
                    .parse()
                    .map_err(|_| "--passes needs a whole number")?;
                if !(1..=100_000).contains(&n) {
                    return Err("--passes must be in 1..=100000".into());
                }
                budget = Some(Budget::Passes(n));
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options {
        workload,
        seed,
        budget: budget.unwrap_or(Budget::Passes(workload.default_passes())),
        trace,
        out,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => usage("compare takes two result files"),
        };
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let report = measure(&opts);
    print!("{}", report.table());
    if let Some(path) = &opts.out {
        if let Err(e) = append_line(path, &report.full_json().render()) {
            eprintln!("tdtcp-benchmark: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report.driver_json(opts.trace).render());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn append_line(path: &str, line: &str) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

// ---------------------------------------------------------------------------
// Measuring
// ---------------------------------------------------------------------------

/// Everything one run measured.
struct Report {
    workload: WorkloadId,
    seed: u64,
    digest: u64,
    /// Host ns of each timed pass, in order.
    pass_wall_ns: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Output checks that missed, in words.
    misses: Vec<String>,
    /// Every metric measured, by catalogue name.
    values: BTreeMap<&'static str, f64>,
    /// The traced passes' spans by leg (empty with `--trace 0`).
    spans: BTreeMap<&'static str, LegProfile>,
}

/// Timed passes over one set of inputs, each held to `reference`.
struct Timed {
    wall_ns: Vec<f64>,
    /// `chaos_soak`: each pass's scenario p50 and p99, host µs.
    scenario_us: [Vec<f64>; 2],
    attempted: u64,
    failed: u64,
}

fn timed_passes(
    inputs: &Inputs,
    reference: &Pass,
    tracer: Option<&Arc<Profile>>,
    budget: Budget,
    misses: &mut Vec<String>,
) -> Timed {
    let mut t = Timed {
        wall_ns: Vec::new(),
        scenario_us: [Vec::new(), Vec::new()],
        attempted: 0,
        failed: 0,
    };
    let start = now();
    loop {
        let done = match budget {
            Budget::Seconds(s) => {
                t.wall_ns.len() >= 3 && start.elapsed() >= Duration::from_secs_f64(s)
            }
            Budget::Passes(n) => t.wall_ns.len() >= n,
        };
        if done {
            return t;
        }
        let t0 = now();
        let pass = run_pass(inputs, tracer);
        t.wall_ns.push(t0.elapsed().as_nanos() as f64);
        t.attempted += pass.ops;
        // A pass that does not reproduce the reference bit for bit has
        // no trustworthy operation in it.
        if let Some(miss) = differs(&pass, reference) {
            let kind = if tracer.is_some() { "traced" } else { "timed" };
            misses.push(format!("{kind} pass {}: {miss}", t.wall_ns.len()));
            t.failed += pass.ops;
        } else {
            t.failed += pass.ops_failed;
        }
        if let Some((p50, p99)) = pass.scenario_us_p50_p99 {
            t.scenario_us[0].push(p50);
            t.scenario_us[1].push(p99);
        }
    }
}

/// How `pass` differs from `reference` in anything simulated, if it does.
fn differs(pass: &Pass, reference: &Pass) -> Option<String> {
    if pass.digest != reference.digest {
        return Some(format!(
            "digest {:016x}, expected {:016x}",
            pass.digest, reference.digest
        ));
    }
    let bits = |p: &Pass| {
        p.sim
            .iter()
            .map(|(n, v)| (*n, v.to_bits()))
            .collect::<Vec<_>>()
    };
    if bits(pass) != bits(reference) || pass.counts != reference.counts {
        return Some("simulated results or exact counts changed under an equal digest".into());
    }
    None
}

fn measure(opts: &Options) -> Report {
    let mut misses = Vec::new();
    let mut values = BTreeMap::new();

    // Set-up, several times over: inputs from the seed, then a warm-up
    // pass that fills caches and the allocator and becomes the reference
    // every later pass must reproduce.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut state: Option<(Inputs, Pass)> = None;
    for k in 0..SETUPS {
        let t0 = now();
        let inputs = generate(opts.workload, opts.seed);
        let pass = run_pass(&inputs, None);
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some((_, first)) = &state {
            if let Some(miss) = differs(&pass, first) {
                misses.push(format!("set-up {k}: {miss}"));
            }
        }
        state = Some((inputs, pass));
    }
    let (inputs, reference) = state.expect("SETUPS > 0");
    if let Err(miss) = cross_check(&inputs, &reference) {
        misses.push(format!("cross-check: {miss}"));
    }

    // Timed passes, tracing off. A traced run splits its time budget
    // between these and the traced passes.
    let timed_budget = match opts.budget {
        Budget::Seconds(s) if opts.trace => Budget::Seconds(s * 0.5),
        whole => whole,
    };
    let mut timed = timed_passes(&inputs, &reference, None, timed_budget, &mut misses);
    let peak_rss_mb = peak_rss_mb();

    let pass_ns = median(&mut timed.wall_ns.clone());
    let c = &reference.counts;
    values.insert(
        "wall_ns_per_sim_ms",
        pass_ns / (reference.sim_ns as f64 / 1e6),
    );
    values.insert(
        "wall_ns_per_delivered_seg",
        pass_ns / c.delivered_segs as f64,
    );
    values.insert("setup_s", median(&mut setup_s));
    values.insert("peak_rss_mb", peak_rss_mb);
    values.insert(
        "sim_goodput_gbps",
        reference.delivered_bytes as f64 * 8.0 / reference.sim_ns as f64,
    );

    // Per-layer metrics that need no tracing: simulated results, exact
    // counts, and the spread that qualifies the host-time medians.
    values.extend(reference.sim.iter().copied());
    let scenario_names = ["chaos.scenario_wall_us_p50", "chaos.scenario_wall_us_p99"];
    for (name, per_pass) in scenario_names.into_iter().zip(&mut timed.scenario_us) {
        if !per_pass.is_empty() {
            values.insert(name, median(per_pass));
        }
    }
    values.insert(
        "rdcn.events_per_delivered_seg",
        ratio(c.events, c.delivered_segs),
    );
    values.insert("rdcn.voq_drop_frac", ratio(c.voq_drops, c.segs_offered));
    values.insert("tcp.retx_frac", ratio(c.retransmits, c.data_segs_sent));
    values.insert("tcp.rto_stalls", c.rto_stalls as f64);
    values.insert("rdcn.chaos_applied", c.chaos_applied as f64);
    if c.peak_imbalance > 0.0 {
        values.insert("rdcn.shard_peak_imbalance", c.peak_imbalance);
    }
    values.insert(
        "bench.pass_spread",
        iqr_over_median(&mut timed.wall_ns.clone()),
    );
    values.insert(
        "bench.available_parallelism",
        simcore::par::available() as f64,
    );

    let (mut attempted, mut failed) = (timed.attempted, timed.failed);
    let mut spans = BTreeMap::new();
    if opts.trace {
        let profile = Arc::new(Profile::default());
        let traced_budget = match opts.budget {
            Budget::Seconds(s) => Budget::Seconds(s * 0.3),
            Budget::Passes(_) => Budget::Passes(1),
        };
        let mut traced = timed_passes(
            &inputs,
            &reference,
            Some(&profile),
            traced_budget,
            &mut misses,
        );
        attempted += traced.attempted;
        failed += traced.failed;
        spans = profile.legs();
        values.extend(metrics::span_metrics(&spans, &profile.total()));
        values.insert(
            "bench.trace_overhead_frac",
            median(&mut traced.wall_ns) / pass_ns - 1.0,
        );

        // The same fabric at the other worker count, in this process,
        // for the one ratio that needs both.
        let other = match opts.workload {
            WorkloadId::Fabric16 => Some(WorkloadId::Fabric16W2),
            WorkloadId::Fabric16W2 => Some(WorkloadId::Fabric16),
            _ => None,
        };
        if let Some(other) = other {
            let inputs = generate(other, opts.seed);
            let budget = Budget::Passes(OTHER_WORKER_PASSES);
            let mut o = timed_passes(&inputs, &reference, None, budget, &mut misses);
            attempted += o.attempted;
            failed += o.failed;
            let other_ns = median(&mut o.wall_ns);
            let (w1, w2) = if other == WorkloadId::Fabric16 {
                (other_ns, pass_ns)
            } else {
                (pass_ns, other_ns)
            };
            values.insert("rdcn.shard_w2_over_w1", w2 / w1);
        }
        values.extend(micro::run_all(opts.seed));
    }

    if !misses.is_empty() && failed == 0 {
        // A missed check outside any pass (set-up, cross-check) still
        // has to show in the counts the driver reads.
        failed = attempted.min(1);
    }
    Report {
        workload: opts.workload,
        seed: opts.seed,
        digest: reference.digest,
        pass_wall_ns: timed.wall_ns,
        attempted,
        failed,
        misses,
        values,
        spans,
    }
}

/// The process's resident-set high-water mark.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

impl Report {
    fn correct(&self) -> bool {
        self.misses.is_empty() && self.failed == 0
    }

    /// Every metric by name with its unit, for people.
    fn table(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let name = self.workload.name();
        writeln!(
            s,
            "# {name}  seed {}  digest {:016x}  {} timed passes  {} cores",
            self.seed,
            self.digest,
            self.pass_wall_ns.len(),
            simcore::par::available()
        )
        .expect("write to String");
        for def in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(v) = self.values.get(def.name) {
                let reference = match def.name {
                    "sim.tdtcp_gain_over_cubic" => "  (paper: 1.24)",
                    n if metrics::is_simulated(n) => "  (no external reference)",
                    _ => "",
                };
                writeln!(
                    s,
                    "{name}  {:<40} {v:>16.6} {}{reference}",
                    def.name, def.unit
                )
                .expect("write to String");
            }
        }
        writeln!(
            s,
            "{name}  ops_attempted {}  ops_failed {}  failed_frac {}",
            self.attempted,
            self.failed,
            ratio(self.failed, self.attempted)
        )
        .expect("write to String");
        for m in &self.misses {
            writeln!(s, "{name}  CHECK MISSED: {m}").expect("write to String");
        }
        s
    }

    fn metrics_json(&self, defs: &[metrics::Def], fill: bool) -> Json {
        let entries = defs.iter().filter_map(|d| {
            let v = self.values.get(d.name).copied().or(fill.then_some(0.0))?;
            let entry = vec![
                ("value".to_string(), Json::Num(v)),
                ("unit".to_string(), Json::Str(d.unit.into())),
            ];
            Some((d.name.to_string(), Json::Obj(entry)))
        });
        Json::Obj(entries.collect())
    }

    /// The object the driver reads: exactly these four keys, and exactly
    /// the end-to-end metrics (`--trace 0`) or the per-layer ones.
    fn driver_json(&self, trace: bool) -> Json {
        let defs = if trace { PER_LAYER } else { END_TO_END };
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), self.metrics_json(defs, true)),
        ])
    }

    /// One line of a result file: everything measured, nothing filled in.
    fn full_json(&self) -> Json {
        let all: Vec<metrics::Def> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.name().into())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("digest".into(), Json::Str(format!("{:016x}", self.digest))),
            (
                "pass_wall_ns".into(),
                Json::Arr(self.pass_wall_ns.iter().map(|&ns| Json::Num(ns)).collect()),
            ),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), self.metrics_json(&all, false)),
            ("spans".into(), self.spans_json()),
        ])
    }

    /// The aggregated spans as recorded: per leg and call kind, calls,
    /// total ns and the log2 histogram of span lengths.
    fn spans_json(&self) -> Json {
        let num = |x: u64| Json::Num(x as f64);
        let leg_json = |leg: &LegProfile| {
            let mut kv: Vec<(String, Json)> = CALLS
                .iter()
                .map(|&c| {
                    let agg = leg.call(c);
                    let hist = agg.hist.iter().map(|&n| num(n)).collect();
                    let fields = vec![
                        ("calls".to_string(), num(agg.calls)),
                        ("ns".to_string(), num(agg.ns)),
                        ("log2_ns_hist".to_string(), Json::Arr(hist)),
                    ];
                    (c.name().to_string(), Json::Obj(fields))
                })
                .collect();
            kv.push(("poll_send_empty".into(), num(leg.poll_empty)));
            kv.push(("next_timer_calls".into(), num(leg.next_timer_calls)));
            kv.push(("run_ns".into(), num(leg.run_ns)));
            kv.push(("events".into(), num(leg.events)));
            kv.push(("delivered_segs".into(), num(leg.delivered_segs)));
            Json::Obj(kv)
        };
        Json::Obj(
            self.spans
                .iter()
                .map(|(leg, p)| (leg.to_string(), leg_json(p)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with_everything(workload: WorkloadId) -> Report {
        let values = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|d| (d.name, 1.5))
            .collect();
        Report {
            workload,
            seed: 1,
            digest: 7,
            pass_wall_ns: vec![],
            attempted: 10,
            failed: 0,
            misses: vec![],
            values,
            spans: BTreeMap::new(),
        }
    }

    #[test]
    fn a_pass_that_does_not_reproduce_the_reference_is_a_miss() {
        let reference = Pass {
            digest: 1,
            sim: vec![("sim.frac_of_optimal", 0.5)],
            ..Pass::default()
        };
        assert_eq!(differs(&reference.clone(), &reference), None);
        let other_digest = Pass {
            digest: 2,
            ..reference.clone()
        };
        assert!(differs(&other_digest, &reference).is_some());
        // Equal digests do not excuse a simulated result that moved by
        // one bit, or a count that moved by one.
        let sim = vec![("sim.frac_of_optimal", f64::from_bits(0.5f64.to_bits() + 1))];
        assert!(differs(
            &Pass {
                sim,
                ..reference.clone()
            },
            &reference
        )
        .is_some());
        let mut counts = reference.counts;
        counts.events += 1;
        assert!(differs(
            &Pass {
                counts,
                ..reference.clone()
            },
            &reference
        )
        .is_some());
    }

    /// `BENCHMARK.json` and the catalogue name the same workloads and
    /// metrics, with the same units, directions and bounds; and what a
    /// run prints for the driver is exactly what is declared.
    #[test]
    fn names_in_sync_with_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let decl =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .expect("BENCHMARK.json parses");
        let valid = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };

        let declared: Vec<&str> = decl
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
        assert_eq!(declared, ours);
        assert!(ours.iter().all(|n| valid(n)));

        for (key, defs, trace) in [
            ("end_to_end", END_TO_END, false),
            ("per_layer", PER_LAYER, true),
        ] {
            let declared = decl.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(declared.len(), defs.len(), "{key}: count");
            for (d, def) in declared.iter().zip(defs) {
                assert!(valid(def.name), "{}", def.name);
                assert_eq!(d.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(
                    d.get("unit").and_then(Json::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    d.get("better").and_then(Json::as_str),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
                if !trace {
                    assert_eq!(
                        d.get("bound").and_then(Json::as_f64),
                        def.bound,
                        "{}",
                        def.name
                    );
                }
            }
            // What the driver is handed, on every workload: the declared
            // names, each once, nothing else.
            for w in WORKLOADS {
                let line = report_with_everything(w).driver_json(trace);
                let emitted: Vec<&str> = line
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .expect("metrics")
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                let declared: Vec<&str> = defs.iter().map(|d| d.name).collect();
                assert_eq!(emitted, declared, "{key} on {}", w.name());
            }
        }
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "a name is used twice"
        );
    }

    /// Every name a run can produce is in the catalogue (a short real
    /// run of the cheapest workload, traced, so all sources report).
    #[test]
    fn a_traced_run_emits_only_catalogue_names_and_all_span_and_micro_ones() {
        let opts = Options {
            workload: WorkloadId::PaperBulk,
            seed: 1,
            budget: Budget::Passes(1),
            trace: true,
            out: None,
        };
        let report = measure(&opts);
        assert!(report.correct(), "{:?}", report.misses);
        for name in report.values.keys() {
            assert!(
                metrics::find(name).is_some(),
                "`{name}` is not in the catalogue"
            );
        }
        // On paper_bulk everything but the other workloads' own metrics
        // is measured.
        let elsewhere = [
            "sim.fct_p50_us",
            "sim.fct_p95_us",
            "sim.fct_censored_frac",
            "chaos.scenario_wall_us_p50",
            "chaos.scenario_wall_us_p99",
            "rdcn.shard_w2_over_w1",
            "rdcn.shard_peak_imbalance",
        ];
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert_eq!(
                report.values.contains_key(def.name),
                !elsewhere.contains(&def.name),
                "{}",
                def.name
            );
        }
        let line = Json::parse(&report.driver_json(true).render()).expect("driver line parses");
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    }
}
