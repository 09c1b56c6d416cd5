//! Metamorphic laws of the one simulation loop (ROADMAP 7), each a
//! property over random scenarios through the two-rack door.
//!
//! *Inert flow.* A flow whose start lies beyond the horizon never runs,
//! so appending one must leave every other flow's `ConnStats`,
//! completion and connection error bit-identical. The loop holds this
//! because only hosts that can hear a day draw its notification latency
//! and fault verdict: a slot whose flow starts later than the day start
//! plus the notification model's worst-case latency draws nothing.
//!
//! *Observer.* Sampling reads the run and never feeds it: the same run
//! sampled every 2 µs, 7 µs or 100 µs, or not observed at all, ends in
//! bit-identical simulation state, on every paper variant, clean or
//! under all three chaos planes, with simultaneous or staggered starts.
//! The unobserved run records none of the five observation fields.

use bench::Variant;
use rdcn::emulator::TimedEndpointFactory;
use rdcn::{
    ClockPlan, Emulator, EndpointFactory, FaultPlan, FlowSpec, ImpairPlan, NetConfig, RunResult,
};
use simcore::{SimDuration, SimTime};
use testkit::prop::{range, tuple2, tuple4, uniform, vec_of};
use testkit::{tk_assert, tk_assert_eq};

const HORIZON: SimTime = SimTime::from_millis(12);

/// The observer law's horizon.
const OBSERVED: SimTime = SimTime::from_millis(5);

/// The scenario's flows: two bulk background flows from time zero, so
/// the run lasts to the horizon, then the finite ones as
/// `(start, bytes)`.
fn flows(finite: &[(u64, u64)]) -> Vec<(SimTime, u64)> {
    let bulk = (SimTime::ZERO, u64::MAX);
    [bulk, bulk]
        .into_iter()
        .chain(
            finite
                .iter()
                .map(|&(start_us, kb)| (SimTime::from_micros(start_us), kb * 1_000)),
        )
        .collect()
}

fn net(variant: Variant, seed: u64) -> NetConfig {
    let mut net = NetConfig::paper_baseline();
    variant.apply_net_config(&mut net);
    net.seed = seed;
    net
}

fn run(variant: Variant, seed: u64, flows: &[(SimTime, u64)]) -> RunResult {
    staggered(net(variant, seed), variant, flows).run(HORIZON)
}

/// The two-rack door with flow `i` starting at `flows[i].0`.
fn staggered(net: NetConfig, variant: Variant, flows: &[(SimTime, u64)]) -> Emulator<'_> {
    let watchdog = Some(bench::variants::watchdog_for(&net));
    let factory: TimedEndpointFactory = Box::new(move |i, now| {
        let (s, r) = variant.endpoints(i, flows[i].1, watchdog, now);
        (s, r)
    });
    let specs = flows.iter().map(|&(start, _)| FlowSpec { start }).collect();
    Emulator::new_staggered(net, specs, factory)
}

/// The two-rack door with every flow starting at zero.
fn simultaneous(net: NetConfig, variant: Variant, flows: &[(SimTime, u64)]) -> Emulator<'_> {
    let watchdog = Some(bench::variants::watchdog_for(&net));
    let factory: EndpointFactory = Box::new(move |i| {
        let (s, r) = variant.endpoints(i, flows[i].1, watchdog, SimTime::ZERO);
        (s, r)
    });
    Emulator::new(net, flows.len(), factory)
}

/// Every chaos plane armed: notification loss, a busy data path and a
/// skewed, drifting, jittered clock.
fn armed(net: &mut NetConfig) {
    net.faults = FaultPlan::notification_loss(0.05);
    net.impair = ImpairPlan {
        loss_rate: 0.01,
        reorder_rate: 0.05,
        reorder_delay: SimDuration::from_micros(150),
        duplicate_rate: 0.01,
        corrupt_rate: 0.002,
    };
    net.clock = ClockPlan {
        offset_bound: SimDuration::from_micros(120),
        drift_ppm: 200.0,
        jitter: SimDuration::from_nanos(500),
        resync_interval: SimDuration::from_millis(1),
        resync_error: SimDuration::from_micros(2),
        ..ClockPlan::default()
    };
}

/// `a` and `b` end in the same simulation state: everything a run
/// computes except its observation series.
fn same_state(a: &RunResult, b: &RunResult) -> Result<(), String> {
    tk_assert_eq!(a.sender_stats, b.sender_stats);
    tk_assert_eq!(a.receiver_stats, b.receiver_stats);
    tk_assert_eq!(a.completions, b.completions);
    tk_assert_eq!(a.conn_errors, b.conn_errors);
    tk_assert_eq!((a.drops_ab, a.drops_ba, a.ce_marks_ab), (b.drops_ab, b.drops_ba, b.ce_marks_ab));
    tk_assert_eq!((a.events, a.duration), (b.events, b.duration));
    tk_assert_eq!((a.faults, a.fault_log_digest), (b.faults, b.fault_log_digest));
    tk_assert_eq!((a.impairments, a.impair_log_digest), (b.impairments, b.impair_log_digest));
    tk_assert_eq!((a.clock, a.clock_log_digest), (b.clock, b.clock_log_digest));
    Ok(())
}

/// The five variants of the paper's evaluation.
const PAPER_VARIANTS: [Variant; 5] =
    [Variant::Tdtcp, Variant::Cubic, Variant::Mptcp, Variant::ReTcpDyn, Variant::Dctcp];

testkit::props! {
    #[cases(24)]
    /// TDTCP and CUBIC, 1–6 finite flows at random starts, a random seed,
    /// and one extra flow starting 1–5 ms past the horizon.
    fn a_flow_starting_after_the_horizon_changes_nothing(input in tuple4(
        uniform::<u64>(),
        range(0u8..2),
        vec_of(tuple2(range(0u64..10_000), range(20u64..400)), 1..7),
        tuple2(range(1_000u64..5_000), range(20u64..400)),
    )) {
        let (seed, pick, finite, (late_us, late_kb)) = input;
        let variant = [Variant::Tdtcp, Variant::Cubic][usize::from(pick)];
        let base = flows(&finite);
        let mut more = base.clone();
        more.push((HORIZON + SimDuration::from_micros(late_us), late_kb * 1_000));
        let (a, b) = (run(variant, seed, &base), run(variant, seed, &more));
        let n = base.len();
        tk_assert_eq!(b.sender_stats[n], tcp::ConnStats::default(), "the late flow ran");
        tk_assert_eq!(a.sender_stats[..], b.sender_stats[..n]);
        tk_assert_eq!(a.receiver_stats[..], b.receiver_stats[..n]);
        tk_assert_eq!(a.completions[..], b.completions[..n]);
        tk_assert_eq!(a.conn_errors[..], b.conn_errors[..n]);
    }
}

testkit::props! {
    #[cases(30)]
    /// A paper variant, one of a few seeds, a clean or an armed plan, and
    /// two bulk flows plus 1–4 finite ones, all starting at zero or each
    /// at its own time; the run is sampled at three intervals, and once
    /// not at all.
    fn sampling_leaves_the_simulation_alone(input in tuple4(
        tuple2(range(0u8..5), range(1u64..4)),
        range(0u8..2),
        range(0u8..2),
        vec_of(tuple2(range(0u64..4_000), range(20u64..400)), 1..5),
    )) {
        let ((pick, seed), chaos, stagger, finite) = input;
        let variant = PAPER_VARIANTS[usize::from(pick)];
        let mut net = net(variant, seed);
        if chaos == 1 {
            armed(&mut net);
        }
        let flows = flows(&finite);
        let sampled = |us: Option<u64>| {
            let mut emu = match stagger {
                0 => simultaneous(net.clone(), variant, &flows),
                _ => staggered(net.clone(), variant, &flows),
            };
            if let Some(us) = us {
                emu.set_sample_interval(SimDuration::from_micros(us));
            }
            emu.run(OBSERVED)
        };
        let reference = sampled(Some(2));
        tk_assert!(!reference.seq_series.is_empty(), "a sampled run kept no samples");
        for us in [7, 100] {
            same_state(&reference, &sampled(Some(us)))?;
        }
        let quiet = sampled(None);
        same_state(&reference, &quiet)?;
        tk_assert!(quiet.seq_series.is_empty() && quiet.day_records.is_empty());
        tk_assert!(quiet.voq_ab.is_empty() && quiet.voq_ba.is_empty());
        tk_assert!(quiet.final_cwnds.iter().all(Vec::is_empty));
    }
}
