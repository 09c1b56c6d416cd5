//! The five workloads: what one pass of each runs, and what it reports.
//!
//! Every pass — warm-up, timed or traced — goes through the same
//! function with the same inputs; tracing only changes what the endpoint
//! factory returns. Engines are built from the crates' public
//! constructors with exactly the parameters the high-level entry points
//! (`Workload::run`, `tails::run_tails`, `ChaosSpec::run`) use, and
//! [`cross_check`] holds a pass to those entry points' digests.

use std::sync::Arc;

use bench::chaos::{check_invariants, ChaosSpec, CHAOS_HORIZON};
use bench::tails::{self, FctOracle, Population, TailSchedule, TailSpec, TAIL_STREAM_LABEL};
use bench::{Variant, Workload};
use rdcn::emulator::TimedEndpointFactory;
use rdcn::{
    analytic, Emulator, EndpointFactory, FlowSpec, MultiRackConfig, NetConfig, PairFlow, RunResult,
    ShardConfig, ShardResult, ShardedEmulator,
};
use simcore::{DetRng, SimDuration, SimTime};
use tcp::cc::{CcConfig, Cubic};
use tcp::{ConnStats, FlowId, Transport};
use tdtcp::{TdtcpConfig, TdtcpConnection};
use testkit::Digest;

use crate::trace::{now, Profile, Traced};

/// The stream the chaos scenarios are drawn from, forked off `--seed`.
pub const BENCH_CHAOS_STREAM_LABEL: u64 = 0xBE7C_C4A0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    PaperBulk,
    Fabric16,
    Fabric16W2,
    ShortIncast,
    ChaosSoak,
}

pub const WORKLOADS: [WorkloadId; 5] = [
    WorkloadId::PaperBulk,
    WorkloadId::Fabric16,
    WorkloadId::Fabric16W2,
    WorkloadId::ShortIncast,
    WorkloadId::ChaosSoak,
];

impl WorkloadId {
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::PaperBulk => "paper_bulk",
            WorkloadId::Fabric16 => "fabric16",
            WorkloadId::Fabric16W2 => "fabric16_w2",
            WorkloadId::ShortIncast => "short_incast",
            WorkloadId::ChaosSoak => "chaos_soak",
        }
    }

    pub fn parse(s: &str) -> Option<WorkloadId> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    /// Timed passes when neither `--seconds` nor `--passes` is given:
    /// about ten seconds of passes on the two-core box the sizes were
    /// chosen on.
    pub fn default_passes(self) -> usize {
        match self {
            WorkloadId::PaperBulk => 51,
            WorkloadId::Fabric16 => 15,
            WorkloadId::Fabric16W2 => 11,
            WorkloadId::ShortIncast => 7,
            WorkloadId::ChaosSoak => 5,
        }
    }
}

// Sizes. Passes are short and many: medians over many short passes were
// far steadier on a shared box than a few long ones.
const BULK_LEGS: [Variant; 5] = [
    Variant::Tdtcp,
    Variant::Cubic,
    Variant::Mptcp,
    Variant::ReTcpDyn,
    Variant::Dctcp,
];
const BULK_HORIZON: SimTime = SimTime::from_millis(60);
const FABRIC_RACKS: usize = 16;
const FABRIC_HORIZON: SimTime = SimTime::from_millis(60);
const SHORT_POPULATIONS: [Variant; 2] = [Variant::Tdtcp, Variant::Cubic];
const SHORT_HORIZON: SimTime = SimTime::from_millis(300);
pub const CHAOS_SCENARIOS: usize = 20_000;

/// What a workload runs, made from `--seed` once per set-up.
pub enum Inputs {
    PaperBulk { seed: u64 },
    Fabric { seed: u64, workers: usize },
    ShortIncast { legs: Vec<ShortLeg> },
    ChaosSoak { specs: Vec<ChaosSpec> },
}

pub struct ShortLeg {
    variant: Variant,
    spec: TailSpec,
    net: NetConfig,
    schedule: TailSchedule,
}

pub fn generate(workload: WorkloadId, seed: u64) -> Inputs {
    match workload {
        WorkloadId::PaperBulk => Inputs::PaperBulk { seed },
        WorkloadId::Fabric16 => Inputs::Fabric { seed, workers: 1 },
        WorkloadId::Fabric16W2 => Inputs::Fabric { seed, workers: 2 },
        WorkloadId::ShortIncast => Inputs::ShortIncast {
            legs: SHORT_POPULATIONS
                .into_iter()
                .map(|v| short_leg(v, seed))
                .collect(),
        },
        WorkloadId::ChaosSoak => Inputs::ChaosSoak {
            specs: chaos_specs(seed, CHAOS_SCENARIOS),
        },
    }
}

/// Exact, machine-independent counts of one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub events: u64,
    pub delivered_segs: u64,
    /// Segments handed to the fabric (data, retransmissions and ACKs).
    pub segs_offered: u64,
    pub voq_drops: u64,
    pub data_segs_sent: u64,
    pub retransmits: u64,
    pub rto_stalls: u64,
    /// Faults, impairments and clock effects the injectors applied.
    pub chaos_applied: u64,
    /// Sharded engine only: max rack events over the mean.
    pub peak_imbalance: f64,
}

/// Everything one pass produces besides its wall time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pass {
    /// Fold of every leg's `stats_digest`, in leg order.
    pub digest: u64,
    /// Simulated time covered, summed over legs.
    pub sim_ns: u64,
    /// Operations (flows, or scenarios on `chaos_soak`) and how many
    /// failed: see README "Operations and failures".
    pub ops: u64,
    pub ops_failed: u64,
    /// Payload bytes delivered in order to receivers, summed over legs.
    pub delivered_bytes: u64,
    pub counts: Counts,
    /// Workload-specific simulated results, by metric name.
    pub sim: Vec<(&'static str, f64)>,
    /// `chaos_soak`: nearest-rank p50 and p99 of the host µs each
    /// scenario took (construct, run, check).
    pub scenario_us_p50_p99: Option<(f64, f64)>,
}

/// One engine run, reduced to what both engines' results share.
struct Leg<'a> {
    label: &'static str,
    senders: &'a [ConnStats],
    receivers: &'a [ConnStats],
    /// Senders that gave up with a connection error.
    errored: u64,
    voq_drops: u64,
    events: u64,
    sim_ns: u64,
    chaos_applied: u64,
    digest: u64,
    run_ns: u64,
}

impl<'a> Leg<'a> {
    fn two_rack(label: &'static str, res: &'a RunResult, run_ns: u64) -> Self {
        Leg {
            label,
            senders: &res.sender_stats,
            receivers: &res.receiver_stats,
            errored: res.conn_errors.iter().flatten().count() as u64,
            voq_drops: res.drops_ab + res.drops_ba,
            events: res.events,
            sim_ns: res.duration.as_nanos(),
            chaos_applied: res.faults.total() + res.impairments.total() + res.clock.total(),
            digest: res.stats_digest(),
            run_ns,
        }
    }

    fn sharded(label: &'static str, res: &'a ShardResult, run_ns: u64) -> Self {
        Leg {
            label,
            senders: &res.sender_stats,
            receivers: &res.receiver_stats,
            errored: res.sender_errors.iter().filter(|e| **e).count() as u64,
            voq_drops: res.drops,
            events: res.events,
            sim_ns: res.duration.as_nanos(),
            chaos_applied: res.faults_total + res.impairments_total + res.clock_total,
            digest: res.stats_digest(),
            run_ns,
        }
    }

    fn delivered_segs(&self) -> u64 {
        self.receivers
            .iter()
            .map(|r| r.segs_received - r.dup_segs_received)
            .sum()
    }

    fn delivered_bytes(&self) -> u64 {
        self.receivers.iter().map(|r| r.bytes_delivered).sum()
    }
}

/// Accumulates legs into a [`Pass`].
struct PassBuilder<'t> {
    pass: Pass,
    digest: Digest,
    tracer: Option<&'t Arc<Profile>>,
}

impl<'t> PassBuilder<'t> {
    fn new(tracer: Option<&'t Arc<Profile>>) -> Self {
        PassBuilder {
            pass: Pass::default(),
            digest: Digest::new(),
            tracer,
        }
    }

    /// Fold one leg in: `ops` operations, of which `failed` failed.
    fn add(&mut self, leg: &Leg<'_>, ops: u64, failed: u64) {
        let p = &mut self.pass;
        let delivered = leg.delivered_segs();
        self.digest.write_u64(leg.digest);
        p.sim_ns += leg.sim_ns;
        p.ops += ops;
        p.ops_failed += failed;
        p.delivered_bytes += leg.delivered_bytes();
        let c = &mut p.counts;
        c.events += leg.events;
        c.delivered_segs += delivered;
        c.voq_drops += leg.voq_drops;
        c.chaos_applied += leg.chaos_applied;
        for s in leg.senders.iter().chain(leg.receivers) {
            c.segs_offered += s.segs_sent + s.acks_sent;
        }
        for s in leg.senders {
            c.data_segs_sent += s.segs_sent;
            c.retransmits += s.retransmits;
            c.rto_stalls += s.rto_stalls;
        }
        if let Some(t) = self.tracer {
            t.add_run(leg.label, leg.run_ns, leg.events, delivered);
        }
    }

    fn finish(mut self) -> Pass {
        self.pass.digest = self.digest.finish();
        self.pass
    }
}

/// Exact nearest-rank percentile of a non-empty ns multiset, in µs —
/// the tail suite's oracle, for host and simulated time alike.
fn percentile_us(oracle: &mut FctOracle, permille: u32) -> f64 {
    oracle
        .percentile_permille(permille)
        .expect("at least one sample") as f64
        / 1e3
}

pub fn run_pass(inputs: &Inputs, tracer: Option<&Arc<Profile>>) -> Pass {
    let mut b = PassBuilder::new(tracer);
    match inputs {
        Inputs::PaperBulk { seed } => {
            let mut gbps = Vec::new();
            for v in BULK_LEGS {
                let wl = bulk_workload(v, *seed);
                let (res, run_ns) = run_two_rack(&wl, &NetConfig::paper_baseline(), tracer);
                gbps.push(res.goodput_bps() / 1e9);
                let leg = Leg::two_rack(v.label(), &res, run_ns);
                b.add(&leg, wl.flows as u64, leg.errored);
            }
            // BULK_LEGS[0] is TDTCP, [1] CUBIC; the 6:1 baseline's optimum
            // does not depend on the variant's switch support.
            let optimal_gbps = analytic::optimal_rate_bps(&NetConfig::paper_baseline()) / 1e9;
            b.pass.sim = vec![
                ("sim.tdtcp_gain_over_cubic", gbps[0] / gbps[1]),
                ("sim.frac_of_optimal", gbps[0] / optimal_gbps),
            ];
        }
        Inputs::Fabric { seed, workers } => {
            let (res, run_ns) = run_fabric(*seed, *workers, tracer);
            let leg = Leg::sharded("tdtcp", &res, run_ns);
            b.add(&leg, res.sender_stats.len() as u64, leg.errored);
            b.pass.counts.peak_imbalance = res.peak_imbalance();
        }
        Inputs::ShortIncast { legs } => {
            for leg in legs {
                let (res, run_ns) = run_short_leg(leg, tracer);
                if leg.variant == Variant::Tdtcp {
                    let (fcts_ns, censored) = censored_fcts_ns(leg, &res);
                    let censored_frac = censored as f64 / fcts_ns.len() as f64;
                    let mut oracle = FctOracle::new(fcts_ns);
                    b.pass.sim = vec![
                        ("sim.fct_p50_us", percentile_us(&mut oracle, 500)),
                        ("sim.fct_p95_us", percentile_us(&mut oracle, 950)),
                        ("sim.fct_censored_frac", censored_frac),
                    ];
                }
                let run = Leg::two_rack(leg.variant.label(), &res, run_ns);
                b.add(&run, leg.schedule.flows.len() as u64, run.errored);
            }
        }
        Inputs::ChaosSoak { specs } => {
            let mut scenario_ns = Vec::with_capacity(specs.len());
            for spec in specs {
                let t0 = now();
                let (res, run_ns) = run_two_rack(&chaos_workload(spec), &chaos_net(spec), tracer);
                let violated = check_invariants(spec, &res).is_err();
                // One scenario is one operation: it fails if the oracle
                // objects or any of its senders gave up.
                let leg = Leg::two_rack(spec.variant().label(), &res, run_ns);
                b.add(&leg, 1, u64::from(violated || leg.errored > 0));
                scenario_ns.push(t0.elapsed().as_nanos() as u64);
            }
            let mut oracle = FctOracle::new(scenario_ns);
            b.pass.scenario_us_p50_p99 = Some((
                percentile_us(&mut oracle, 500),
                percentile_us(&mut oracle, 990),
            ));
        }
    }
    b.finish()
}

/// Hold `pass` (an untraced pass over `inputs`) to the high-level entry
/// points: same digests, same FCT percentiles. Chaos re-runs a prefix
/// of the scenarios both ways — every scenario of the pass already went
/// through `check_invariants`.
pub fn cross_check(inputs: &Inputs, pass: &Pass) -> Result<(), String> {
    let fold = |digests: &mut dyn Iterator<Item = u64>| {
        let mut d = Digest::new();
        for x in digests {
            d.write_u64(x);
        }
        d.finish()
    };
    let baseline = NetConfig::paper_baseline;
    let (theirs, ours) = match inputs {
        Inputs::PaperBulk { seed } => {
            let mut runs = BULK_LEGS
                .iter()
                .map(|&v| bulk_workload(v, *seed).run(&baseline()).stats_digest());
            (fold(&mut runs), pass.digest)
        }
        Inputs::Fabric { seed, workers } => {
            // The other worker count must produce the same fabric.
            let other = if *workers == 1 { 2 } else { 1 };
            let digest = run_fabric(*seed, other, None).0.stats_digest();
            (fold(&mut [digest].into_iter()), pass.digest)
        }
        Inputs::ShortIncast { legs } => {
            let mut digests = Vec::new();
            for leg in legs {
                let base = NetConfig {
                    seed: leg.net.seed,
                    ..baseline()
                };
                let out = tails::run_tails(&leg.spec, &base, SHORT_HORIZON);
                digests.push(out.run_digest);
                if leg.variant == Variant::Tdtcp {
                    let mut oracle = out.censored_oracle();
                    for (name, permille) in [("sim.fct_p50_us", 500), ("sim.fct_p95_us", 950)] {
                        let want = Some(percentile_us(&mut oracle, permille));
                        let got = pass.sim.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
                        if want != got {
                            return Err(format!(
                                "{name}: run_tails reports {want:?}, the pass {got:?}"
                            ));
                        }
                    }
                }
            }
            (fold(&mut digests.into_iter()), pass.digest)
        }
        Inputs::ChaosSoak { specs } => {
            let prefix = &specs[..specs.len().min(256)];
            let mut theirs = prefix.iter().map(|spec| spec.run().stats_digest());
            let mut ours = prefix.iter().map(|spec| {
                run_two_rack(&chaos_workload(spec), &chaos_net(spec), None)
                    .0
                    .stats_digest()
            });
            (fold(&mut theirs), fold(&mut ours))
        }
    };
    if theirs == ours {
        Ok(())
    } else {
        Err(format!(
            "digest {theirs:016x} from the high-level entry points, {ours:016x} from the pass"
        ))
    }
}

// ---------------------------------------------------------------------------
// Two-rack engine legs (paper_bulk, chaos_soak)
// ---------------------------------------------------------------------------

fn bulk_workload(variant: Variant, seed: u64) -> Workload {
    Workload {
        seed,
        ..Workload::bulk(variant, BULK_HORIZON)
    }
}

/// `Workload::run`, with the endpoint factory in reach.
fn run_two_rack(
    wl: &Workload,
    base: &NetConfig,
    tracer: Option<&Arc<Profile>>,
) -> (RunResult, u64) {
    let mut net = base.clone();
    net.seed = wl.seed;
    wl.variant.apply_net_config(&mut net);
    let mut factory = wl.variant.factory_for(&net, wl.bytes_per_flow);
    if let Some(t) = tracer {
        let (t, leg) = (Arc::clone(t), wl.variant.label());
        let traced: EndpointFactory<'static> = Box::new(move |i| {
            let (s, r) = factory(i);
            (
                Box::new(Traced::new(s, leg, &t)),
                Box::new(Traced::new(r, leg, &t)),
            )
        });
        factory = traced;
    }
    let mut emu = Emulator::new(net, wl.flows, factory);
    emu.set_sample_interval(wl.sample_every);
    let t0 = now();
    let res = emu.run(wl.duration);
    (res, t0.elapsed().as_nanos() as u64)
}

/// The network and workload `ChaosSpec::run` expands to.
fn chaos_net(spec: &ChaosSpec) -> NetConfig {
    NetConfig {
        faults: spec.fault_plan(),
        impair: spec.impair_plan(),
        clock: spec.clock_plan(),
        ..NetConfig::paper_baseline()
    }
}

fn chaos_workload(spec: &ChaosSpec) -> Workload {
    Workload {
        variant: spec.variant(),
        flows: spec.flows(),
        duration: CHAOS_HORIZON,
        bytes_per_flow: spec.bytes_per_flow(),
        seed: spec.seed,
        sample_every: SimDuration::from_micros(100),
    }
}

/// `n` scenarios over the ranges of `tests/chaos.rs`'s generator: all
/// three chaos planes, 1–3 flows, 16–271 kB — except that a scenario
/// with the EPS fault burst gets no wire duplication. A segment the
/// burst corrupts and the wire then duplicates reaches the receiver
/// twice, and `check_invariants`' stats-sanity law (`corrupt_rx` ≤ wire
/// corruptions) counts that as a violation: about one scenario in
/// 20 000 over the full ranges (seeds 4, 9 and 10 of the first ten).
/// That is the oracle's accounting, not a transport fault, and a
/// benchmark needs workloads on which no operation fails; see README.
fn chaos_specs(seed: u64, n: usize) -> Vec<ChaosSpec> {
    let mut rng = DetRng::new(seed).fork(BENCH_CHAOS_STREAM_LABEL);
    (0..n)
        .map(|_| {
            let mut spec = ChaosSpec {
                seed: rng.gen_range(0u64..1_000_000),
                variant_idx: rng.gen_range(0u8..3),
                flows_idx: rng.gen_range(0u8..3),
                bytes_kb: rng.gen_range(0u32..256),
                loss_pm: rng.gen_range(0u32..26),
                reorder_pm: rng.gen_range(0u32..151),
                reorder_delay_us: rng.gen_range(1u32..301),
                dup_pm: rng.gen_range(0u32..21),
                corrupt_pm: rng.gen_range(0u32..11),
                notify_loss_pm: rng.gen_range(0u32..51),
                eps_burst: rng.chance(0.5),
                clock_offset_us: rng.gen_range(0u32..161),
                clock_drift_ppm: rng.gen_range(0u32..81),
                slot_edge_idx: rng.gen_range(0u8..3),
                clock_resync: rng.chance(0.5),
            };
            if spec.eps_burst {
                spec.dup_pm = 0;
            }
            spec
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Sharded engine (fabric16, fabric16_w2)
// ---------------------------------------------------------------------------

/// bigrun's fabric: every rack sends at strides 1, 2 and 3.
fn fabric_flows() -> Vec<PairFlow> {
    (1..=3)
        .flat_map(|stride| {
            (0..FABRIC_RACKS).map(move |r| PairFlow {
                src: r,
                dst: (r + stride) % FABRIC_RACKS,
            })
        })
        .collect()
}

/// The fabric's engine, ready to run (also what `rdcn.sharded_new_ns`
/// times the construction of).
pub fn fabric_emulator(seed: u64, tracer: Option<&Arc<Profile>>) -> ShardedEmulator<'static> {
    let net = MultiRackConfig {
        racks: FABRIC_RACKS,
        seed,
        ..MultiRackConfig::paper_8rack()
    };
    ShardedEmulator::new(ShardConfig::clean(net), fabric_flows(), |i, _| {
        let cfg = TdtcpConfig::default();
        let template = Cubic::new(CcConfig::default());
        let flow = FlowId(i as u32);
        let s = Box::new(TdtcpConnection::connect(
            flow,
            cfg.clone(),
            &template,
            SimTime::ZERO,
        ));
        let r = Box::new(TdtcpConnection::listen(flow, cfg, &template));
        match tracer {
            None => (
                s as Box<dyn Transport + Send>,
                r as Box<dyn Transport + Send>,
            ),
            Some(t) => (
                Box::new(Traced::new(s, "tdtcp", t)) as Box<dyn Transport + Send>,
                Box::new(Traced::new(r, "tdtcp", t)) as Box<dyn Transport + Send>,
            ),
        }
    })
}

fn run_fabric(seed: u64, workers: usize, tracer: Option<&Arc<Profile>>) -> (ShardResult, u64) {
    let emu = fabric_emulator(seed, tracer);
    let t0 = now();
    let res = emu.run(FABRIC_HORIZON, workers);
    (res, t0.elapsed().as_nanos() as u64)
}

// ---------------------------------------------------------------------------
// Staggered two-rack legs (short_incast)
// ---------------------------------------------------------------------------

/// 500 Poisson shorts and four 16-way incast rounds, 100 kB each, over
/// four background flows.
pub fn short_spec(population: Population) -> TailSpec {
    TailSpec {
        incast_degree: 16,
        incast_rounds: 4,
        incast_bytes: 100_000,
        incast_every: SimDuration::from_millis(3),
        ..TailSpec::poisson(population, 500, 100_000, SimDuration::from_micros(100), 4)
    }
}

fn short_leg(variant: Variant, seed: u64) -> ShortLeg {
    let population = Population::Uniform(variant);
    let spec = short_spec(population);
    let mut net = NetConfig {
        seed,
        ..NetConfig::paper_baseline()
    };
    population.apply_net_config(&mut net);
    let schedule = tails::generate(&spec, &mut DetRng::new(seed).fork(TAIL_STREAM_LABEL));
    ShortLeg {
        variant,
        spec,
        net,
        schedule,
    }
}

/// `tails::outcome_of`'s engine, with the endpoint factory in reach.
fn run_short_leg(leg: &ShortLeg, tracer: Option<&Arc<Profile>>) -> (RunResult, u64) {
    let specs = leg
        .schedule
        .flows
        .iter()
        .map(|f| FlowSpec { start: f.start })
        .collect();
    let label = leg.variant.label();
    let factory: TimedEndpointFactory<'_> = Box::new(move |i, at| {
        let f = &leg.schedule.flows[i];
        let (s, r) = tails::make_endpoints(f.variant, &leg.net, i, f.bytes, at);
        match tracer {
            None => (s, r),
            Some(t) => (
                Box::new(Traced::new(s, label, t)) as Box<dyn Transport>,
                Box::new(Traced::new(r, label, t)) as Box<dyn Transport>,
            ),
        }
    });
    let emu = Emulator::new_staggered(leg.net.clone(), specs, factory);
    let t0 = now();
    let res = emu.run(SHORT_HORIZON);
    (res, t0.elapsed().as_nanos() as u64)
}

/// One sample per finite flow started before the horizon — its FCT in
/// ns, or `horizon − start` if it had not finished (a lower bound, so
/// the slowest flows stay in the tail) — and how many were so censored.
fn censored_fcts_ns(leg: &ShortLeg, res: &RunResult) -> (Vec<u64>, u64) {
    let mut censored = 0;
    let finite = leg.schedule.flows.iter().enumerate();
    let ns = finite
        .filter(|(_, f)| f.bytes != u64::MAX && f.start < SHORT_HORIZON)
        .map(|(i, f)| {
            let fct = res.fct(i).unwrap_or_else(|| {
                censored += 1;
                SHORT_HORIZON.saturating_since(f.start)
            });
            fct.as_nanos()
        })
        .collect();
    (ns, censored)
}
