//! The tail-latency workload family (`bench::tails`).
//!
//! The paper's evaluation is goodput-centric; the surrounding literature
//! is about *tails*: T-RACKs shows short data-center flows routinely
//! stall in RTO waiting on timer-based recovery, and RepNet cuts p99 FCT
//! by replicating short flows. This module builds the workload family
//! those papers evaluate on, deterministically:
//!
//! * **Incast**: `incast_degree` senders fan in simultaneously, in
//!   `incast_rounds` synchronized rounds — the classic shallow-buffer
//!   overflow that sends short flows into RTO.
//! * **Poisson short flows**: RPC-sized transfers with exponential
//!   inter-arrivals over long-lived background flows (the original
//!   `shortflows` experiment, which now rides this generator).
//! * **Hotspot skew**: a fraction of the short flows compress into one
//!   synchronized burst epoch instead of arriving Poisson.
//! * **Mixed populations**: TDTCP and CUBIC sharing the rack pair
//!   (coexistence fairness — a figure the paper never ran).
//! * **Replication** (RepNet's knob): every finite flow is duplicated
//!   `replication` times; the first finisher wins and the rest are
//!   ignored. Wins by a non-primary replica are counted.
//!
//! All randomness draws from a dedicated stream forked from the run seed
//! under [`TAIL_STREAM_LABEL`], with every draw guarded by a
//! count/rate > 0 check — an inert spec makes **zero** draws, so clean
//! digests are bit-identical whether or not a spec is constructed, and a
//! populated spec reproduces bit-identically per `(seed, spec)`.
//!
//! Flow completion times are measured first-byte-enqueued to
//! last-byte-acked ([`rdcn::RunResult::fct`]) and answered through an
//! **exact percentile oracle** ([`FctOracle`]): nearest-rank selection
//! over the full FCT multiset via quickselect — no sampling, no
//! interpolation, property-tested against a naive full sort.

use crate::variants::{watchdog_for, Variant};
use rdcn::{Emulator, FlowSpec, NetConfig, RunResult};
use simcore::stats::nearest_rank;
use simcore::{DetRng, SimDuration, SimTime};
use tcp::Transport;
use testkit::Digest;

/// The fixed fork label carving the tail-workload stream out of a run's
/// seed. Forking never advances the parent, so attaching a tails
/// workload can never perturb the emulator's main stream.
pub const TAIL_STREAM_LABEL: u64 = 0x07A1_1FC7;

// ---------------------------------------------------------------------------
// Spec
// ---------------------------------------------------------------------------

/// Which transport population shares the rack pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Population {
    /// Every flow runs the same variant.
    Uniform(Variant),
    /// Logical flows alternate TDTCP / CUBIC (coexistence).
    MixedTdtcpCubic,
}

impl Population {
    /// Display label for tables and JSON rows.
    pub fn label(self) -> &'static str {
        match self {
            Population::Uniform(v) => v.label(),
            Population::MixedTdtcpCubic => "mixed",
        }
    }

    /// The variant logical flow `idx` runs (replicas inherit it).
    pub fn variant_for(self, idx: usize) -> Variant {
        match self {
            Population::Uniform(v) => v,
            Population::MixedTdtcpCubic => {
                if idx.is_multiple_of(2) {
                    Variant::Tdtcp
                } else {
                    Variant::Cubic
                }
            }
        }
    }

    /// The network support this population needs. Uniform populations
    /// get their variant's switch support; the mixed population gets the
    /// least common denominator (no ECN/marking — neither TDTCP nor
    /// CUBIC needs more).
    pub fn apply_net_config(self, cfg: &mut NetConfig) {
        match self {
            Population::Uniform(v) => v.apply_net_config(cfg),
            Population::MixedTdtcpCubic => {
                cfg.voq.ecn_threshold = None;
                cfg.circuit_marking = false;
                cfg.retcpdyn = false;
            }
        }
    }
}

/// Declarative description of one tail-latency workload. The
/// [`TailSpec::inert`] spec schedules nothing and draws nothing.
#[derive(Debug, Clone)]
pub struct TailSpec {
    /// Long-lived background flows (start at t = 0, run forever).
    pub background: usize,
    /// Fan-in degree of each incast round (0 disables incast).
    pub incast_degree: usize,
    /// Synchronized incast rounds.
    pub incast_rounds: usize,
    /// Bytes per incast sender.
    pub incast_bytes: u64,
    /// Spacing between incast rounds (deterministic, no draws).
    pub incast_every: SimDuration,
    /// Poisson-arriving short flows (0 disables them).
    pub shorts: usize,
    /// Bytes per short flow.
    pub short_bytes: u64,
    /// Mean exponential inter-arrival gap of the short flows.
    pub mean_gap: SimDuration,
    /// RepNet knob: extra replicas per finite flow (0 = off). The first
    /// finisher wins; non-primary wins are counted.
    pub replication: u32,
    /// The transport population.
    pub population: Population,
    /// Settle time before the first short flow / incast round, so the
    /// background flows converge first.
    pub settle: SimDuration,
}

impl TailSpec {
    /// A spec that schedules nothing beyond `background = 0` — and,
    /// crucially, makes **zero** RNG draws when generated.
    pub fn inert(population: Population) -> TailSpec {
        TailSpec {
            background: 0,
            incast_degree: 0,
            incast_rounds: 0,
            incast_bytes: 0,
            incast_every: SimDuration::ZERO,
            shorts: 0,
            short_bytes: 0,
            mean_gap: SimDuration::ZERO,
            replication: 0,
            population,
            settle: SimDuration::ZERO,
        }
    }

    /// The standard incast family: `degree` fan-in senders of 100 kB,
    /// four rounds 3 ms apart over two background flows.
    pub fn incast(population: Population, degree: usize) -> TailSpec {
        TailSpec {
            background: 2,
            incast_degree: degree,
            incast_rounds: 4,
            incast_bytes: 100_000,
            incast_every: SimDuration::from_millis(3),
            shorts: 0,
            short_bytes: 0,
            mean_gap: SimDuration::ZERO,
            replication: 0,
            population,
            settle: SimDuration::from_millis(2),
        }
    }

    /// The Poisson short-flow family (the `shortflows` experiment):
    /// `n` RPCs of `bytes` each, exponential gaps of `mean_gap`, over
    /// `background` long flows.
    pub fn poisson(
        population: Population,
        n: usize,
        bytes: u64,
        mean_gap: SimDuration,
        background: usize,
    ) -> TailSpec {
        TailSpec {
            background,
            incast_degree: 0,
            incast_rounds: 0,
            incast_bytes: 0,
            incast_every: SimDuration::ZERO,
            shorts: n,
            short_bytes: bytes,
            mean_gap,
            replication: 0,
            population,
            settle: SimDuration::from_millis(2),
        }
    }
}

// ---------------------------------------------------------------------------
// Schedule generation
// ---------------------------------------------------------------------------

/// What a generated flow is, for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowClass {
    /// Long-lived background flow (no FCT).
    Background,
    /// Poisson short flow.
    Short,
    /// Member of incast round `round`.
    Incast {
        /// Which synchronized round this sender belongs to.
        round: u32,
    },
}

/// One emulator flow of the generated schedule.
#[derive(Debug, Clone, Copy)]
pub struct TailFlow {
    /// When the flow's connection is created (first byte enqueued).
    pub start: SimTime,
    /// Bytes to send (`u64::MAX` for background).
    pub bytes: u64,
    /// Transport variant this flow runs.
    pub variant: Variant,
    /// Accounting class.
    pub class: FlowClass,
    /// Logical flow id; replicas share it (`u32::MAX` for background).
    pub group: u32,
}

/// The generated flow schedule: emulator flows in index order —
/// background first, then logical flows in schedule order with their
/// replicas adjacent (the primary replica first).
#[derive(Debug, Clone)]
pub struct TailSchedule {
    /// Flows, in emulator index order.
    pub flows: Vec<TailFlow>,
    /// Logical finite flows (groups); replicas collapse onto these.
    pub groups: usize,
    /// Replicas spawned beyond the primaries.
    pub replicas_spawned: usize,
}

impl TailSchedule {
    /// Order-sensitive digest of the schedule — the object of the
    /// generator-determinism property (same `(seed, spec)` → same
    /// digest; different seeds diverge).
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_usize(self.flows.len());
        for f in &self.flows {
            let TailFlow { start, bytes, variant, class, group } = *f;
            d.write_u64(start.as_nanos());
            d.write_u64(bytes);
            d.write_u64(variant as u64);
            match class {
                FlowClass::Background => {
                    d.write_u64(0);
                }
                FlowClass::Short => {
                    d.write_u64(1);
                }
                FlowClass::Incast { round } => {
                    d.write_u64(2).write_u64(u64::from(round));
                }
            }
            d.write_u64(u64::from(group));
        }
        d.write_usize(self.groups);
        d.write_usize(self.replicas_spawned);
        d.finish()
    }
}

/// Generate the flow schedule for `spec` from `rng` (conventionally
/// `DetRng::new(seed).fork(TAIL_STREAM_LABEL)`). Every draw is guarded
/// by a count/rate > 0 check: an inert spec draws nothing, so a freshly
/// forked stream is left untouched.
pub fn generate(spec: &TailSpec, rng: &mut DetRng) -> TailSchedule {
    let mut flows = Vec::new();
    for i in 0..spec.background {
        flows.push(TailFlow {
            start: SimTime::ZERO,
            bytes: u64::MAX,
            variant: spec.population.variant_for(i),
            class: FlowClass::Background,
            group: u32::MAX,
        });
    }

    // Logical finite flows: first the Poisson shorts in arrival order,
    // then the incast rounds.
    let mut logical: Vec<(SimTime, u64, FlowClass)> = Vec::new();
    if spec.shorts > 0 {
        let mut t = SimTime::ZERO + spec.settle;
        for _ in 0..spec.shorts {
            t += SimDuration::from_nanos(rng.exponential(spec.mean_gap.as_nanos() as f64) as u64);
            logical.push((t, spec.short_bytes, FlowClass::Short));
        }
    }
    for round in 0..spec.incast_rounds {
        let at = SimTime::ZERO + spec.settle + spec.incast_every * round as u64;
        for _ in 0..spec.incast_degree {
            logical.push((at, spec.incast_bytes, FlowClass::Incast { round: round as u32 }));
        }
    }

    let mut replicas_spawned = 0;
    for (group, (start, bytes, class)) in logical.iter().enumerate() {
        let variant = spec.population.variant_for(spec.background + group);
        for replica in 0..=spec.replication {
            flows.push(TailFlow {
                start: *start,
                bytes: *bytes,
                variant,
                class: *class,
                group: group as u32,
            });
            if replica > 0 {
                replicas_spawned += 1;
            }
        }
    }

    TailSchedule {
        groups: logical.len(),
        replicas_spawned,
        flows,
    }
}

// ---------------------------------------------------------------------------
// Exact percentile oracle
// ---------------------------------------------------------------------------

/// Exact nearest-rank percentile selection over an FCT multiset.
///
/// Holds every sample (no reservoir, no sketch) and answers a permille
/// rank by quickselect (`select_nth_unstable`) — O(n) per query, exact by
/// construction. [`FctOracle::naive_percentile_permille`] is the full-sort
/// reference the property suite checks it against.
#[derive(Debug, Clone, Default)]
pub struct FctOracle {
    samples: Vec<u64>,
}

impl FctOracle {
    /// An oracle over `samples` (nanoseconds).
    pub fn new(samples: Vec<u64>) -> FctOracle {
        FctOracle { samples }
    }

    /// Add one sample.
    pub fn add(&mut self, fct_ns: u64) {
        self.samples.push(fct_ns);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `permille`-th permille (`p50` = 500, `p999` = 999) by exact
    /// nearest-rank selection. `None` when empty.
    pub fn percentile_permille(&mut self, permille: u32) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let idx = nearest_rank(self.samples.len(), permille);
        let (_, v, _) = self.samples.select_nth_unstable(idx);
        Some(*v)
    }

    /// Median FCT.
    pub fn p50(&mut self) -> Option<u64> {
        self.percentile_permille(500)
    }

    /// 99th percentile FCT.
    pub fn p99(&mut self) -> Option<u64> {
        self.percentile_permille(990)
    }

    /// 99.9th percentile FCT.
    pub fn p999(&mut self) -> Option<u64> {
        self.percentile_permille(999)
    }

    /// Reference implementation: full sort, then the same nearest-rank
    /// index. The property suite pins `percentile_permille` to this for
    /// every rank over random multisets.
    pub fn naive_percentile_permille(samples: &[u64], permille: u32) -> Option<u64> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        Some(sorted[nearest_rank(sorted.len(), permille)])
    }
}

/// Jain's fairness index over per-flow rates/bytes.
pub fn jain_index(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let sum: f64 = xs.iter().sum();
    let sumsq: f64 = xs.iter().map(|x| x * x).sum();
    if sumsq == 0.0 {
        return 1.0;
    }
    sum * sum / (n * sumsq)
}

// ---------------------------------------------------------------------------
// Running a spec
// ---------------------------------------------------------------------------

/// Everything one tail-workload run produces.
#[derive(Debug)]
pub struct TailOutcome {
    /// Population label.
    pub label: String,
    /// Digest of the generated schedule.
    pub schedule_digest: u64,
    /// Logical flows that started within the horizon.
    pub started: usize,
    /// Logical flows with at least one completed replica.
    pub completed: usize,
    /// Replicas spawned beyond the primaries.
    pub replicas_spawned: usize,
    /// Logical completions where a non-primary replica finished first.
    pub replica_wins: u64,
    /// Per-logical-flow FCT in nanoseconds (min over completed
    /// replicas), in schedule order.
    pub fcts_ns: Vec<u64>,
    /// Horizon-censored FCTs: one sample per *started* logical flow —
    /// its FCT if any replica completed, else `horizon − start` (a lower
    /// bound on the true FCT). Under incast collapse the completed-only
    /// multiset suffers survivorship bias (the worst flows never finish
    /// inside the horizon and silently leave the tail); censored samples
    /// keep them in it.
    pub censored_fcts_ns: Vec<u64>,
    /// RTO-stall episodes summed over all senders (replicas included).
    pub rto_stalls: u64,
    /// Nanoseconds spent waiting on RTO timers, summed over senders.
    pub stall_ns: u64,
    /// Jain index over background flows' delivered bytes (1.0 when the
    /// spec has no background).
    pub jain: f64,
    /// The underlying run's `stats_digest` (determinism suite hook).
    pub run_digest: u64,
}

impl TailOutcome {
    /// An oracle over this outcome's completed-FCT multiset.
    pub fn oracle(&self) -> FctOracle {
        FctOracle::new(self.fcts_ns.clone())
    }

    /// An oracle over the horizon-censored multiset (started flows that
    /// never finished count at `horizon − start`).
    pub fn censored_oracle(&self) -> FctOracle {
        FctOracle::new(self.censored_fcts_ns.clone())
    }
}

/// Flow `i`'s endpoints, the sender opening at `now`, for the two-rack
/// door: [`Variant::endpoints`] with the watchdog sized for `net`.
pub fn make_endpoints(
    variant: Variant,
    net: &NetConfig,
    i: usize,
    bytes: u64,
    now: SimTime,
) -> (Box<dyn Transport>, Box<dyn Transport>) {
    let (s, r) = variant.endpoints(i, bytes, Some(watchdog_for(net)), now);
    (s, r)
}

/// Run `spec` over `base` (population switch support applied on top)
/// until `horizon`, and fold the result into a [`TailOutcome`].
pub fn run_tails(spec: &TailSpec, base: &NetConfig, horizon: SimTime) -> TailOutcome {
    let mut net = base.clone();
    spec.population.apply_net_config(&mut net);
    let mut rng = DetRng::new(net.seed).fork(TAIL_STREAM_LABEL);
    let schedule = generate(spec, &mut rng);
    outcome_of(spec, &schedule, &net, horizon)
}

/// Run an already-generated `schedule` (exposed so tests can inspect the
/// schedule and its run together without regenerating).
pub fn outcome_of(
    spec: &TailSpec,
    schedule: &TailSchedule,
    net: &NetConfig,
    horizon: SimTime,
) -> TailOutcome {
    let specs: Vec<FlowSpec> = schedule
        .flows
        .iter()
        .map(|f| FlowSpec { start: f.start })
        .collect();
    let flows = schedule.flows.clone();
    let net_for_factory = net.clone();
    let factory: rdcn::emulator::TimedEndpointFactory = Box::new(move |i, now| {
        let f = &flows[i];
        make_endpoints(f.variant, &net_for_factory, i, f.bytes, now)
    });
    let emu = Emulator::new_staggered(net.clone(), specs, factory);
    let res = emu.run(horizon);
    fold_outcome(spec, schedule, &res, horizon)
}

/// Fold a finished run into the per-logical-flow FCT view: min over
/// replicas, first-finisher wins, stall counters summed.
fn fold_outcome(
    spec: &TailSpec,
    schedule: &TailSchedule,
    res: &RunResult,
    horizon: SimTime,
) -> TailOutcome {
    // Replica index lists per logical group, in schedule order.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); schedule.groups];
    for (i, f) in schedule.flows.iter().enumerate() {
        if f.group != u32::MAX {
            members[f.group as usize].push(i);
        }
    }

    let mut started = 0;
    let mut completed = 0;
    let mut replica_wins = 0;
    let mut fcts_ns = Vec::new();
    let mut censored_fcts_ns = Vec::new();
    for group in &members {
        let Some(&first) = group.first() else { continue };
        let start = schedule.flows[first].start;
        if start >= horizon {
            continue;
        }
        started += 1;
        // First finisher wins: minimize completion *time* (all replicas
        // share a start), then take its FCT.
        let mut best: Option<(u64, usize)> = None;
        for &i in group {
            if let Some(fct) = res.fct(i) {
                let fct = fct.as_nanos();
                if best.is_none_or(|(b, _)| fct < b) {
                    best = Some((fct, i));
                }
            }
        }
        if let Some((fct, winner)) = best {
            completed += 1;
            fcts_ns.push(fct);
            censored_fcts_ns.push(fct);
            if winner != first {
                replica_wins += 1;
            }
        } else {
            censored_fcts_ns.push(horizon.saturating_since(start).as_nanos());
        }
    }

    let jain = if spec.background == 0 {
        1.0
    } else {
        let delivered: Vec<f64> = res.receiver_stats[..spec.background]
            .iter()
            .map(|s| s.bytes_delivered as f64)
            .collect();
        jain_index(&delivered)
    };

    TailOutcome {
        label: spec.population.label().to_string(),
        schedule_digest: schedule.digest(),
        started,
        completed,
        replicas_spawned: schedule.replicas_spawned,
        replica_wins,
        fcts_ns,
        censored_fcts_ns,
        rto_stalls: res.rto_stalls(),
        stall_ns: res.stall_ns(),
        jain,
        run_digest: res.stats_digest(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_properties() {
        assert!((jain_index(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // One flow hogging everything: index -> 1/n.
        let skew = jain_index(&[1.0, 0.0, 0.0, 0.0]);
        assert!((skew - 0.25).abs() < 1e-12);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0, "degenerate all-zero");
        let mid = jain_index(&[2.0, 1.0]);
        assert!(mid > 0.25 && mid < 1.0);
    }

    #[test]
    fn oracle_nearest_rank_basics() {
        let mut o = FctOracle::new((1..=1000u64).collect());
        assert_eq!(o.p50(), Some(500));
        assert_eq!(o.p99(), Some(990));
        assert_eq!(o.p999(), Some(999));
        assert_eq!(o.percentile_permille(1000), Some(1000));
        assert_eq!(o.percentile_permille(0), Some(1));
        assert_eq!(FctOracle::default().p99(), None);
    }

    #[test]
    fn oracle_single_sample_every_rank() {
        let mut o = FctOracle::new(vec![42]);
        for permille in [0, 1, 500, 999, 1000] {
            assert_eq!(o.percentile_permille(permille), Some(42));
        }
    }

    #[test]
    fn inert_spec_generates_nothing() {
        let mut rng = DetRng::new(1).fork(TAIL_STREAM_LABEL);
        let s = generate(&TailSpec::inert(Population::Uniform(Variant::Cubic)), &mut rng);
        assert!(s.flows.is_empty());
        assert_eq!(s.groups, 0);
        assert_eq!(s.replicas_spawned, 0);
        // Zero draws: the stream is indistinguishable from a fresh fork.
        let mut fresh = DetRng::new(1).fork(TAIL_STREAM_LABEL);
        for _ in 0..8 {
            assert_eq!(rng.gen_range(0..u64::MAX), fresh.gen_range(0..u64::MAX));
        }
    }

    #[test]
    fn replication_shares_group_and_start() {
        let mut spec = TailSpec::incast(Population::Uniform(Variant::Cubic), 4);
        spec.replication = 2;
        let mut rng = DetRng::new(3).fork(TAIL_STREAM_LABEL);
        let s = generate(&spec, &mut rng);
        assert_eq!(s.groups, 16);
        assert_eq!(s.replicas_spawned, 32);
        assert_eq!(s.flows.len(), 2 + 16 * 3);
        for g in 0..s.groups as u32 {
            let reps: Vec<&TailFlow> =
                s.flows.iter().filter(|f| f.group == g).collect();
            assert_eq!(reps.len(), 3);
            assert!(reps.iter().all(|f| f.start == reps[0].start));
            assert!(reps.iter().all(|f| f.bytes == reps[0].bytes));
        }
    }

    #[test]
    fn mixed_population_alternates() {
        let spec = TailSpec::incast(Population::MixedTdtcpCubic, 4);
        let mut rng = DetRng::new(3).fork(TAIL_STREAM_LABEL);
        let s = generate(&spec, &mut rng);
        let variants: std::collections::BTreeSet<&str> =
            s.flows.iter().map(|f| f.variant.label()).collect();
        assert!(variants.contains("tdtcp") && variants.contains("cubic"));
    }
}
