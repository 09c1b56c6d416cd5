//! Metamorphic laws of the one simulation loop (ROADMAP 7), each a
//! property over random scenarios through the two-rack door.
//!
//! *Inert flow.* A flow whose start lies beyond the horizon never runs,
//! so appending one must leave every other flow's `ConnStats`,
//! completion and connection error bit-identical. The loop holds this
//! because only hosts that can hear a day draw its notification latency
//! and fault verdict: a slot whose flow starts later than the day start
//! plus the notification model's worst-case latency draws nothing.

use bench::Variant;
use rdcn::emulator::TimedEndpointFactory;
use rdcn::{Emulator, FlowSpec, NetConfig, RunResult};
use simcore::{SimDuration, SimTime};
use testkit::prop::{range, tuple2, tuple4, uniform, vec_of};
use testkit::tk_assert_eq;

const HORIZON: SimTime = SimTime::from_millis(12);

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

fn run(variant: Variant, seed: u64, flows: &[(SimTime, u64)]) -> RunResult {
    let mut net = NetConfig::paper_baseline();
    variant.apply_net_config(&mut net);
    net.seed = seed;
    let watchdog = Some(bench::variants::watchdog_for(&net));
    let factory: TimedEndpointFactory = Box::new(move |i, now| {
        let (s, r) = variant.endpoints(i, flows[i].1, watchdog, now);
        (s, r)
    });
    let specs = flows.iter().map(|&(start, _)| FlowSpec { start }).collect();
    Emulator::new_staggered(net, specs, factory).run(HORIZON)
}

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
