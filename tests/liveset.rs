//! The live-set rule of the one simulation loop, through its two-rack
//! door.
//!
//! `rdcn::Emulator` runs the rack pair on `rdcn::shard`'s loop, which
//! does its per-day, per-sample and per-notification work for *live*
//! hosts only: the ToR notifies a host whose flow has started by the
//! time the notification lands and whose endpoint had not closed
//! (`is_done`) when the day began, and a late flow's endpoints are built
//! at the window barrier before its start. A closed host hears nothing
//! from its ToR, retcpdyn's prepare signal included, and once both hosts
//! of a flow are closed and quiet the flow leaves the engine at a window
//! barrier. These tests pin the edges of that rule from outside the
//! engine — through a probe at the transport seam that logs every
//! notification and prepare signal a host is handed, and when the engine
//! dropped the host — and pin the simulated results of the benchmark's
//! `short_incast` spec.
//!
//! The engine's own cross-checks (in an observed run, running totals ≡ a
//! scan of every host at every sample and every day; no notification
//! popped for an unborn host) are debug-build assertions, so every suite
//! under `cargo test` runs them.

use bench::tails::{self, Population, TailSpec, TAIL_STREAM_LABEL};
use bench::Variant;
use rdcn::emulator::TimedEndpointFactory;
use rdcn::{
    ClockPlan, Emulator, EpsBurst, FlowSpec, ImpairPlan, NetConfig, RunResult, SlotEdgePolicy,
};
use simcore::{DetRng, SimDuration, SimTime, TimeSeries};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use tcp::cc::{CcConfig, Cubic};
use tcp::{ConnError, FlowId, Transport};
use tdtcp_repro::harness::{Observer, Tap};
use testkit::Digest;
use wire::TdnId;

/// What a probe saw of its host.
#[derive(Clone, Default)]
struct HostLog {
    /// `(delivery time, generation)` of every notification it was handed.
    notices: Vec<(SimTime, u64)>,
    /// When it was handed retcpdyn's circuit prepare signal.
    prepares: Vec<SimTime>,
    /// The latest instant any probe of the run had seen when the engine
    /// dropped the host.
    dropped: Option<SimTime>,
}

/// An observer that logs what its host is handed and can go deaf: from
/// `deaf_from` on the host hears no segment, which drives a sender into
/// RTO back-off and, at `max_retries`, into an abort.
struct Probe {
    log: Rc<RefCell<HostLog>>,
    deaf_from: Option<SimTime>,
    /// The latest instant any probe of the run has seen.
    latest: Rc<Cell<SimTime>>,
}

impl Probe {
    fn saw(&self, now: SimTime) {
        self.latest.set(self.latest.get().max(now));
    }
}

impl Observer for Probe {
    fn segment_in(&mut self, now: SimTime, _seg: &tcp::Segment) {
        self.saw(now);
    }
    fn segment_out(&mut self, now: SimTime, _seg: &tcp::Segment) {
        self.saw(now);
    }
    fn timer(&mut self, now: SimTime) {
        self.saw(now);
    }
    fn notification(&mut self, now: SimTime, _tdn: TdnId, gen: u64) {
        self.saw(now);
        self.log.borrow_mut().notices.push((now, gen));
    }
    fn circuit_prepare(&mut self, now: SimTime) {
        self.saw(now);
        self.log.borrow_mut().prepares.push(now);
    }
    fn hears(&self, now: SimTime) -> bool {
        self.deaf_from.is_none_or(|t| now < t)
    }
}

/// The engine drops a host's transport — and its probe — when the host's
/// flow retires, or when the run ends.
impl Drop for Probe {
    fn drop(&mut self) {
        self.log.borrow_mut().dropped = Some(self.latest.get());
    }
}

/// One probed TDTCP flow of a staggered run.
#[derive(Clone, Copy)]
struct ProbedFlow {
    start: SimTime,
    bytes: u64,
    /// The sender stops hearing the network from here on (and gives up
    /// after three RTOs).
    sender_deaf_from: Option<SimTime>,
}

impl ProbedFlow {
    fn new(start: SimTime, bytes: u64) -> ProbedFlow {
        ProbedFlow {
            start,
            bytes,
            sender_deaf_from: None,
        }
    }
}

/// What a probed run yields: the result, and per flow the sender's and
/// the receiver's logs.
struct Probed {
    res: RunResult,
    logs: Vec<[HostLog; 2]>,
}

impl Probed {
    /// The last generation host `side` (0 = sender) of `flow` heard.
    fn last_gen(&self, flow: usize, side: usize) -> u64 {
        self.logs[flow][side].notices.last().expect("host heard nothing").1
    }
}

/// Run `flows` as TDTCP endpoints (watchdog armed, as `bench::tails`
/// builds them) over `net` until `horizon`, every endpoint probed.
fn run_probed(net: &NetConfig, flows: &[ProbedFlow], horizon: SimTime) -> Probed {
    let logs: Vec<[Rc<RefCell<HostLog>>; 2]> = flows.iter().map(|_| Default::default()).collect();
    let latest = Rc::new(Cell::new(SimTime::ZERO));
    let factory: TimedEndpointFactory = Box::new(|i, now| {
        let f = flows[i];
        let mut cfg = tdtcp::TdtcpConfig::default();
        cfg.tcp.bytes_to_send = f.bytes;
        cfg.tcp.max_retries = 3;
        cfg.tcp.rtt.min_rto = SimDuration::from_micros(500);
        cfg.tcp.rtt.initial_rto = SimDuration::from_micros(500);
        cfg.watchdog = Some(tdtcp::WatchdogConfig {
            period: net.schedule.slot_len(),
            guard: net.guard_band,
        });
        let template = Cubic::new(CcConfig::default());
        let flow = FlowId(i as u32);
        let probe = |host: Box<dyn Transport>, side: usize, deaf_from| {
            let observer = Probe {
                log: Rc::clone(&logs[i][side]),
                deaf_from,
                latest: Rc::clone(&latest),
            };
            Box::new(Tap { host, observer }) as Box<dyn Transport>
        };
        (
            probe(
                Box::new(tdtcp::TdtcpConnection::connect(flow, cfg.clone(), &template, now)),
                0,
                f.sender_deaf_from,
            ),
            probe(
                Box::new(tdtcp::TdtcpConnection::listen(flow, cfg, &template)),
                1,
                None,
            ),
        )
    });
    let specs = flows.iter().map(|f| FlowSpec { start: f.start }).collect();
    let res = Emulator::new_staggered(net.clone(), specs, factory).run(horizon);
    let logs = logs
        .iter()
        .map(|[s, r]| [s.borrow().clone(), r.borrow().clone()])
        .collect();
    Probed { res, logs }
}

const BULK: u64 = u64::MAX;

/// A flow that starts after a `DayStart` but before that day's
/// notification lands still hears it (liveness is judged at the delivery
/// time, not at the fan-out); one that starts after the delivery first
/// hears the next day's.
#[test]
fn flow_started_before_delivery_still_hears_that_day() {
    let mut net = NetConfig::paper_baseline();
    // Notifications take ~60 µs, so a start can fall inside the gap.
    net.notify.extra_delay = SimDuration::from_micros(60);
    let day = 5;
    let day_start = net.schedule.day_start(day);
    let in_gap = day_start + SimDuration::from_micros(10);
    let after_delivery = day_start + SimDuration::from_micros(100);
    let flows = [
        ProbedFlow::new(SimTime::ZERO, BULK),
        ProbedFlow::new(in_gap, BULK),
        ProbedFlow::new(after_delivery, BULK),
    ];
    let run = run_probed(&net, &flows, SimTime::from_millis(3));

    for side in 0..2 {
        let (at, gen) = run.logs[1][side].notices[0];
        assert_eq!(gen, day, "flow born in the gap must hear day {day} (side {side})");
        assert!(at >= in_gap && at < after_delivery, "day {day} landed at {at}");
        let (_, gen) = run.logs[2][side].notices[0];
        assert_eq!(gen, day + 1, "flow born after the delivery hears the next day first");
        // The flow that was there all along heard every day from 0.
        assert_eq!(run.logs[0][side].notices[0].1, 0);
    }
}

/// A completed flow's hosts stop hearing the ToR — their notification
/// counters stop advancing — while a still-running neighbour's do not.
#[test]
fn closed_hosts_stop_hearing_the_tor() {
    let net = NetConfig::paper_baseline();
    let horizon = SimTime::from_millis(10);
    let flows = [
        ProbedFlow::new(SimTime::ZERO, BULK),
        ProbedFlow::new(SimTime::ZERO, 50_000),
    ];
    let run = run_probed(&net, &flows, horizon);

    let done_at = run.res.completions[1].expect("the 50 kB flow completes");
    assert!(run.res.conn_errors[1].is_none());
    let done_day = net.schedule.day_number(done_at);
    let last_day = net.schedule.day_number(horizon);
    assert!(done_day + 10 < last_day, "the short flow must finish early");

    for side in 0..2 {
        // Nothing fanned out after the host closed reaches it. (A
        // notification already in flight when it closed still lands.)
        assert!(
            run.last_gen(1, side) <= done_day,
            "closed host (side {side}) heard day {} after closing on day {done_day}",
            run.last_gen(1, side)
        );
        assert!(run.last_gen(0, side) + 1 >= last_day, "live neighbour went unnotified");
    }
    let finished = &run.res.sender_stats[1];
    let running = &run.res.sender_stats[0];
    assert!(finished.tdn_switches <= done_day + 1);
    assert!(
        running.tdn_switches > finished.tdn_switches + 5,
        "neighbour switched {} times, finished flow {}",
        running.tdn_switches,
        finished.tdn_switches
    );
}

/// retcpdyn's prepare signal comes from the ToR like a notification: a
/// sender hears none once it has closed, while a running neighbour
/// hears one every week.
#[test]
fn closed_senders_hear_no_circuit_prepare() {
    let mut net = NetConfig::paper_baseline();
    net.retcpdyn = true;
    let horizon = SimTime::from_millis(10);
    let flows = [
        ProbedFlow::new(SimTime::ZERO, BULK),
        ProbedFlow::new(SimTime::ZERO, 50_000),
    ];
    let run = run_probed(&net, &flows, horizon);

    let done_at = run.res.completions[1].expect("the 50 kB flow completes");
    assert!(run.res.conn_errors[1].is_none());
    let late: Vec<_> = run.logs[1][0].prepares.iter().filter(|&&t| t > done_at).collect();
    assert!(late.is_empty(), "the sender closed at {done_at} and heard prepares at {late:?}");
    // One prepare lead before each circuit day, for the live neighbour.
    let week = net.schedule.week_len();
    let heard = run.logs[0][0].prepares.iter().filter(|&&t| t > done_at).count() as u64;
    let weeks_left = (horizon.saturating_since(done_at).as_nanos() / week.as_nanos()).saturating_sub(1);
    assert!(heard >= weeks_left, "the live sender heard {heard} prepares in {weeks_left} weeks");
    assert!(run.logs.iter().all(|[_, r]| r.prepares.is_empty()), "a receiver heard a prepare");
}

/// A finished flow leaves the engine: both its hosts are dropped at a
/// window barrier soon after they close and go quiet, not when the run
/// ends, while a running neighbour's stay to the horizon.
#[test]
fn finished_flows_leave_the_engine_before_the_horizon() {
    let net = NetConfig::paper_baseline();
    let horizon = SimTime::from_millis(10);
    let flows = [
        ProbedFlow::new(SimTime::ZERO, BULK),
        ProbedFlow::new(SimTime::ZERO, 50_000),
        ProbedFlow::new(SimTime::from_millis(3), 200_000),
    ];
    let run = run_probed(&net, &flows, horizon);

    for (i, logs) in run.logs.iter().enumerate().skip(1) {
        let done_at = run.res.completions[i].expect("the short flows complete");
        for (side, log) in logs.iter().enumerate() {
            let dropped = log.dropped.expect("every host is dropped once the run is over");
            assert!(
                dropped >= done_at && dropped < done_at + SimDuration::from_micros(200),
                "flow {i} closed at {done_at}, its host (side {side}) was dropped at {dropped}"
            );
        }
    }
    for log in &run.logs[0] {
        let dropped = log.dropped.expect("every host is dropped once the run is over");
        assert!(dropped + SimDuration::from_micros(10) > horizon, "the bulk flow left at {dropped}");
    }
}

/// Liveness is per host, not per flow: when a sender aborts, its
/// receiver — established and never closed — keeps hearing the ToR, so
/// its notification watchdog is not starved into firing.
#[test]
fn receiver_of_an_aborted_sender_stays_live() {
    let net = NetConfig::paper_baseline();
    // Deaf at 1 ms, the sender backs off through three RTOs and gives up
    // on the fourth. Its RTO is set by the queueing it saw before it went
    // deaf, so the abort lands anywhere from 11 to 26 ms across seeds
    // (21 ms at this one); the horizon clears the latest by ten days.
    let horizon = SimTime::from_millis(30);
    let flows = [
        ProbedFlow::new(SimTime::ZERO, BULK),
        ProbedFlow {
            sender_deaf_from: Some(SimTime::from_millis(1)),
            ..ProbedFlow::new(SimTime::ZERO, BULK)
        },
    ];
    let run = run_probed(&net, &flows, horizon);

    assert!(
        matches!(run.res.conn_errors[1], Some(ConnError::RetransmitLimit { .. })),
        "the deaf sender must give up: {:?}",
        run.res.conn_errors[1]
    );
    let aborted_at = run.res.completions[1].expect("an abort is a termination");
    let aborted_day = net.schedule.day_number(aborted_at);
    let last_day = net.schedule.day_number(horizon);
    assert!(aborted_day + 10 < last_day, "the abort must come early");

    // The aborted sender is closed and stops hearing the ToR ...
    assert!(run.last_gen(1, 0) <= aborted_day);
    // ... its receiver is not, and does not.
    assert!(run.last_gen(1, 1) + 1 >= last_day, "live receiver went unnotified");
    let rcv = &run.res.receiver_stats[1];
    assert_eq!(rcv.notify_watchdog_fires, 0, "live receiver's watchdog was starved");
    assert_eq!(rcv.degraded_ns, 0);
}

/// The rare paths of a pooled segment's life, all in one run: the wire
/// duplicate (an id copied into a second slot), wire and EPS-burst
/// corruption (the slot rewritten in place), burst and guard-band drops
/// (the slot released at the fault) and the clock-deferred launch (the
/// same id re-queued). The loop checks the pool law at every window
/// barrier — live slots ≡ queued events + VOQ occupancy — and a slot read
/// or released after its release panics where it happens, so under
/// `cargo test` a mishandled id on any of these paths fails here; and a
/// re-run must reproduce the digest.
#[test]
fn chaos_paths_keep_the_pool_law_and_rerun_to_one_digest() {
    for policy in [SlotEdgePolicy::Defer, SlotEdgePolicy::Drop] {
        let mut net = NetConfig::paper_baseline();
        net.impair = ImpairPlan {
            duplicate_rate: 0.01,
            corrupt_rate: 0.01,
            ..ImpairPlan::none()
        };
        net.faults.eps_burst = Some(EpsBurst {
            start: SimTime::from_millis(1),
            len: SimDuration::from_millis(1),
            drop_rate: 0.05,
            corrupt_rate: 0.05,
        });
        net.clock = ClockPlan {
            offset_bound: SimDuration::from_micros(40),
            slot_edge_policy: policy,
            ..ClockPlan::none()
        };
        net.guard_band = SimDuration::from_micros(1);
        let flows = [
            ProbedFlow::new(SimTime::ZERO, BULK),
            ProbedFlow::new(SimTime::ZERO, BULK),
            ProbedFlow::new(SimTime::from_micros(300), 200_000),
        ];
        let run = || run_probed(&net, &flows, SimTime::from_millis(4)).res;
        let res = run();
        assert!(res.total_acked() > 0);
        assert!(res.impairments.segs_duplicated > 0, "no wire duplicate");
        assert!(res.impairments.segs_corrupted > 0, "no wire corruption");
        assert!(res.faults.eps_drops > 0 && res.faults.eps_corruptions > 0, "no EPS burst");
        let edge = match policy {
            SlotEdgePolicy::Defer => res.clock.deferred_sends,
            _ => res.clock.guard_drops,
        };
        assert!(edge > 0, "{policy:?}: no mis-timed launch met the slot edge");
        assert_eq!(res.stats_digest(), run().stats_digest(), "{policy:?}: re-run diverged");
    }
}

// ---------------------------------------------------------------------------
// What the rule must not move
// ---------------------------------------------------------------------------

/// Digests of the per-flow completion times (sorted, i.e. the multiset),
/// the A→B VOQ occupancy series and the aggregate sequence series.
fn simulated_result_digests(res: &RunResult) -> [u64; 3] {
    let mut done: Vec<u64> = res.completions.iter().flatten().map(|t| t.as_nanos()).collect();
    done.sort_unstable();
    let mut d = Digest::new();
    d.write_usize(done.len());
    for t in done {
        d.write_u64(t);
    }
    let series_digest = |series: &TimeSeries| {
        let mut d = Digest::new();
        series.write_digest(&mut d);
        d.finish()
    };
    [d.finish(), series_digest(&res.voq_ab), series_digest(&res.seq_series)]
}

/// The benchmark's `short_incast` spec — 500 Poisson shorts plus four
/// 16-way incast rounds of 100 kB over four background flows — at a
/// 30 ms horizon, for both populations. The digests were taken when the
/// two-rack door moved onto the one loop (re-baselined once for per-rack
/// RNG streams, the EPS burst at launch, segment-exact trains and
/// stop-at-barrier; EXPERIMENTS.md, "One loop"; and again when only
/// hosts that can hear a day draw its notification); the pins hold when
/// flows complete, how the VOQ fills and how acknowledged bytes grow.
#[test]
fn short_incast_simulated_results_match_the_full_scan_engine() {
    let got = [Variant::Tdtcp, Variant::Cubic].map(|variant| {
        let population = Population::Uniform(variant);
        let spec = TailSpec {
            incast_degree: 16,
            incast_rounds: 4,
            incast_bytes: 100_000,
            incast_every: SimDuration::from_millis(3),
            ..TailSpec::poisson(population, 500, 100_000, SimDuration::from_micros(100), 4)
        };
        let mut net = NetConfig::paper_baseline();
        population.apply_net_config(&mut net);
        let schedule = tails::generate(&spec, &mut DetRng::new(net.seed).fork(TAIL_STREAM_LABEL));
        let specs = schedule.flows.iter().map(|f| FlowSpec { start: f.start }).collect();
        let factory: TimedEndpointFactory = Box::new(|i, now| {
            let f = &schedule.flows[i];
            tails::make_endpoints(f.variant, &net, i, f.bytes, now)
        });
        let mut emu = Emulator::new_staggered(net.clone(), specs, factory);
        emu.set_sample_interval(SimDuration::from_micros(2));
        let res = emu.run(SimTime::from_millis(30));
        assert!(res.completions.iter().flatten().count() > 50, "{variant:?}: too few completions");
        (variant.label(), simulated_result_digests(&res))
    });
    let pinned: [(&str, [u64; 3]); 2] = [
        ("tdtcp", [0x1e4ef6658b6bbb1d, 0x4f9e00416e47f9b4, 0x4bba770f2fadfacb]),
        ("cubic", [0x827c5a9598bc2af5, 0x3f28442c69d32b87, 0xcdd494dd4e3ce45f]),
    ];
    assert!(
        got == pinned,
        "[completions, voq_ab, seq_series] digests moved:\n got    {got:#x?}\n pinned {pinned:#x?}"
    );
}
