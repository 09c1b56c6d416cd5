//! The two-rack RDCN emulator (the Etalon equivalent).
//!
//! Rack A hosts the senders of `n_flows` bulk flows; rack B the receivers.
//! Each direction has one ToR VOQ serviced at the active TDN's rate; a
//! dequeued segment occupies the link for its serialization time and
//! arrives one propagation delay later. Nights service nothing (§2.1's
//! strict time division). At each day start the ToR emits per-host ICMP
//! TDN-change notifications with latencies drawn from the §5.4 model, and
//! optionally applies reTCP switch support (circuit marking, advance VOQ
//! enlargement, prepare signals).

use crate::clock::{ClockInjector, ClockStats, ClockVerdict, CLOCK_STREAM_LABEL};
use crate::config::NetConfig;
use crate::faults::{DayFate, EpsVerdict, FaultInjector, FaultStats, NotifyVerdict, FAULT_STREAM_LABEL};
use crate::impair::{ImpairInjector, ImpairStats, ImpairVerdict, IMPAIR_STREAM_LABEL};
use crate::notify::NotifyModel;
use crate::pool::{SegPool, SegRef};
use crate::voq::Voq;
use simcore::{
    DefaultEventId, DefaultQueue, DetRng, FlightRecorder, SimDuration, SimTime, TimeSeries,
};
use tcp::{ConnError, ConnStats, Direction, Transport};
use testkit::Digest;
use wire::TdnId;

/// XOR mask applied to a segment's modeled payload checksum by corrupting
/// impairments. The fixed mask keeps corruption deterministic; the guard
/// against a zero result preserves the "0 = unstamped" sentinel so a
/// mangled stamp can never masquerade as an unstamped segment.
pub(crate) fn mangle_csum(c: u32) -> u32 {
    let m = c ^ 0x5A5A_5A5A;
    if m == 0 { 1 } else { m }
}

/// Which rack a host lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    /// Sender rack.
    A,
    /// Receiver rack.
    B,
}

/// Traffic direction through the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// A → B (data).
    Ab,
    /// B → A (ACKs).
    Ba,
}

/// Which flows an event can have called into. Only events that reach a
/// transport (`on_segment`/`on_timer`/`on_tdn_notification`/
/// `on_circuit_prepare`/construction) can change a flow's counters or flip
/// an endpoint's `is_done`, so the post-event step ([`Emulator::refresh`])
/// only looks at those flows, and everything the engine does per sample,
/// per day and per notification reads what that step left behind instead
/// of scanning every flow slot.
enum Touched {
    None,
    One(usize),
    All,
}

/// A segment in an event is its id in `Emulator::pool`: the event, and
/// with it the wheel node, stays small whatever a `Segment` weighs.
enum Ev {
    StartFlow { flow: usize },
    Arrive { side: Side, flow: usize, seg: u32 },
    Enqueue { dir: Dir, seg: u32 },
    Service { dir: Dir },
    DayStart { day: u64 },
    NightStart { day: u64 },
    LinkFail { day: u64 },
    Prepare,
    Notify { side: Side, flow: usize, tdn: TdnId, gen: u64 },
    HostTimer { side: Side, flow: usize },
    Sample,
}

/// The engine's view of one flow, brought up to date by
/// [`Emulator::refresh`] after every event that called into the flow's
/// transports. One flat array of these is all that `Ev::Sample`,
/// `record_day` and the notification fan-out read.
#[derive(Clone, Copy, Default)]
struct FlowTrack {
    /// The sender's `bytes_acked` as last folded into `acked_total`.
    acked: u64,
    /// The four [`DayRecord`] counters as of the last `record_day`.
    day: [u64; 4],
    /// Touched since the last `record_day` (i.e. on the dirty list).
    dirty: bool,
    /// `is_done()` of the sender and the receiver. A done host is closed:
    /// the ToR stops notifying it (see `on_day_start`).
    done: [bool; 2],
}

/// The counters a [`DayRecord`] is the per-day delta of.
fn day_counters(snd: &ConnStats, rcv: &ConnStats) -> [u64; 4] {
    [
        snd.reorder_events,
        snd.reorder_marked_pkts,
        snd.retransmits,
        rcv.spurious_retransmits,
    ]
}

/// Per-day deltas of the counters Fig. 10 plots, one entry per finished day.
#[derive(Debug, Clone)]
pub struct DayRecord {
    /// Global day number.
    pub day: u64,
    /// The TDN that was active during this day.
    pub tdn: TdnId,
    /// Sum over flows of reordering events detected during the day.
    pub reorder_events: u64,
    /// Sum over flows of packets marked for retransmission by reordering.
    pub reorder_marked_pkts: u64,
    /// Retransmissions actually sent.
    pub retransmits: u64,
    /// Spurious retransmissions observed at receivers.
    pub spurious_retransmits: u64,
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunResult {
    /// Aggregate acknowledged bytes over time (the sequence graph of
    /// Figs. 2/7a/8a/9, summed over flows).
    pub seq_series: TimeSeries,
    /// A→B VOQ occupancy over time (Figs. 7b/8b/13/14).
    pub voq_ab: TimeSeries,
    /// B→A VOQ occupancy over time.
    pub voq_ba: TimeSeries,
    /// Final sender-side stats per flow.
    pub sender_stats: Vec<ConnStats>,
    /// Final receiver-side stats per flow.
    pub receiver_stats: Vec<ConnStats>,
    /// Per-day counter deltas (Fig. 10's input).
    pub day_records: Vec<DayRecord>,
    /// Segments tail-dropped in the A→B VOQ.
    pub drops_ab: u64,
    /// Segments tail-dropped in the B→A VOQ.
    pub drops_ba: u64,
    /// CE marks applied in the A→B VOQ.
    pub ce_marks_ab: u64,
    /// Final congestion windows per flow (one entry per path state).
    pub final_cwnds: Vec<Vec<u32>>,
    /// When each flow's sender finished (staggered/finite workloads).
    pub completions: Vec<Option<SimTime>>,
    /// When each flow started (its connection was created and the first
    /// byte enqueued) — `SimTime::ZERO` for simultaneous workloads.
    /// Together with [`RunResult::completions`] this yields per-flow FCT.
    pub starts: Vec<SimTime>,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Events processed (a performance counter).
    pub events: u64,
    /// Faults actually injected during the run (all zero for an empty
    /// [`crate::FaultPlan`]).
    pub faults: FaultStats,
    /// Digest of the injected-fault sequence (order-sensitive); two runs
    /// with the same seed and plan must agree on it.
    pub fault_log_digest: u64,
    /// Data-path impairments applied during the run (all zero for an
    /// empty [`crate::ImpairPlan`]).
    pub impairments: ImpairStats,
    /// Digest of the applied-impairment sequence (order-sensitive); two
    /// runs with the same seed and plan must agree on it.
    pub impair_log_digest: u64,
    /// Time-plane effects applied during the run (all zero for an empty
    /// [`crate::ClockPlan`]).
    pub clock: ClockStats,
    /// Digest of the applied clock-event sequence (order-sensitive); two
    /// runs with the same seed and plan must agree on it.
    pub clock_log_digest: u64,
    /// Terminal error of each flow's sender, if it aborted instead of
    /// completing. `completions[i]` records when the sender *terminated*;
    /// this distinguishes success from surrender.
    pub conn_errors: Vec<Option<ConnError>>,
    /// The flight recorder's retained tail of coarse run events (day
    /// starts, injected faults, completions), oldest first.
    pub flight_log: Vec<(SimTime, String)>,
}

impl RunResult {
    /// Aggregate goodput across flows in bits per second.
    pub fn goodput_bps(&self) -> f64 {
        let bytes: u64 = self.receiver_stats.iter().map(|s| s.bytes_delivered).sum();
        if self.duration == SimDuration::ZERO {
            return 0.0;
        }
        bytes as f64 * 8.0 / self.duration.as_secs_f64()
    }

    /// Aggregate acknowledged bytes at the end of the run.
    pub fn total_acked(&self) -> u64 {
        self.sender_stats.iter().map(|s| s.bytes_acked).sum()
    }

    /// Notifications lost to injected faults.
    pub fn notifications_lost(&self) -> u64 {
        self.faults.notifications_dropped
    }

    /// Total time endpoints spent in degraded (desynchronized) mode,
    /// summed over senders and receivers.
    pub fn degraded_time(&self) -> SimDuration {
        let ns: u64 = self
            .sender_stats
            .iter()
            .chain(&self.receiver_stats)
            .map(|s| s.degraded_ns)
            .sum();
        SimDuration::from_nanos(ns)
    }

    /// Flow completion time of flow `i`: first-byte-enqueued (the flow's
    /// start) to last-byte-acked (its sender reporting done). `None` if
    /// the flow never finished within the run, or finished by *aborting*
    /// (a surrendered flow has a completion timestamp but no FCT).
    pub fn fct(&self, i: usize) -> Option<simcore::SimDuration> {
        if self.conn_errors.get(i).is_some_and(|e| e.is_some()) {
            return None;
        }
        let done = (*self.completions.get(i)?)?;
        Some(done.saturating_since(self.starts[i]))
    }

    /// Total RTO-stall episodes across all senders (timer-based recovery
    /// entries — the T-RACKs pathology counter).
    pub fn rto_stalls(&self) -> u64 {
        self.sender_stats.iter().map(|s| s.rto_stalls).sum()
    }

    /// Total nanoseconds senders spent waiting on RTO timers.
    pub fn stall_ns(&self) -> u64 {
        self.sender_stats.iter().map(|s| s.stall_ns).sum()
    }

    /// Total notification-watchdog fires, summed over all endpoints.
    pub fn watchdog_fires(&self) -> u64 {
        self.sender_stats
            .iter()
            .chain(&self.receiver_stats)
            .map(|s| s.notify_watchdog_fires)
            .sum()
    }

    /// Compare this run's [`RunResult::stats_digest`] against an expected
    /// value; on divergence, return a report carrying the flight
    /// recorder's last events so the mismatch can be localized.
    pub fn check_digest(&self, expected: u64) -> Result<(), String> {
        let got = self.stats_digest();
        if got == expected {
            return Ok(());
        }
        let mut report = format!(
            "stats_digest mismatch: expected {expected:#018x}, got {got:#018x}\n\
             last {} flight-recorder events:\n",
            self.flight_log.len()
        );
        for (t, e) in &self.flight_log {
            report.push_str(&format!("  [{t}] {e}\n"));
        }
        Err(report)
    }

    /// Digest every observable output of the run into one 64-bit value.
    ///
    /// Two runs with the same configuration and seed must produce the same
    /// digest — this is the workspace's golden-trace determinism guarantee
    /// (see `tests/determinism.rs`). Floats are hashed by bit pattern, so
    /// the comparison is exact, not approximate.
    pub fn stats_digest(&self) -> u64 {
        let mut d = Digest::new();
        for series in [&self.seq_series, &self.voq_ab, &self.voq_ba] {
            d.write_usize(series.points().len());
            for &(t, v) in series.points() {
                d.write_u64(t.as_nanos());
                d.write_f64(v);
            }
        }
        for stats in self.sender_stats.iter().chain(&self.receiver_stats) {
            stats.write_digest(&mut d);
        }
        d.write_usize(self.day_records.len());
        for r in &self.day_records {
            let DayRecord {
                day,
                tdn,
                reorder_events,
                reorder_marked_pkts,
                retransmits,
                spurious_retransmits,
            } = r;
            d.write_u64(*day);
            d.write_u64(u64::from(tdn.0));
            d.write_u64(*reorder_events);
            d.write_u64(*reorder_marked_pkts);
            d.write_u64(*retransmits);
            d.write_u64(*spurious_retransmits);
        }
        d.write_u64(self.drops_ab);
        d.write_u64(self.drops_ba);
        d.write_u64(self.ce_marks_ab);
        for cwnds in &self.final_cwnds {
            d.write_usize(cwnds.len());
            for &c in cwnds {
                d.write_u32(c);
            }
        }
        for c in &self.completions {
            match c {
                Some(t) => {
                    d.write_bool(true).write_u64(t.as_nanos());
                }
                None => {
                    d.write_bool(false);
                }
            }
        }
        for s in &self.starts {
            d.write_u64(s.as_nanos());
        }
        d.write_u64(self.duration.as_nanos());
        d.write_u64(self.events);
        self.faults.write_digest(&mut d);
        d.write_u64(self.fault_log_digest);
        self.impairments.write_digest(&mut d);
        d.write_u64(self.impair_log_digest);
        self.clock.write_digest(&mut d);
        d.write_u64(self.clock_log_digest);
        for e in &self.conn_errors {
            match e {
                None => {
                    d.write_bool(false);
                }
                Some(ConnError::RetransmitLimit { retries }) => {
                    d.write_bool(true).write_u64(1).write_u64(u64::from(*retries));
                }
                Some(ConnError::PersistTimeout { probes }) => {
                    d.write_bool(true).write_u64(2).write_u64(u64::from(*probes));
                }
            }
        }
        d.finish()
    }
}

/// Builds the two endpoints of flow `i`: `(sender, receiver)`. The sender
/// must already have initiated its connection (queued its SYN) at `t = 0`.
pub type EndpointFactory<'a> =
    Box<dyn FnMut(usize) -> (Box<dyn Transport>, Box<dyn Transport>) + 'a>;

/// Builds the endpoints of flow `i` when it starts at `now` (staggered
/// workloads). The sender should initiate its connection at `now`.
pub type TimedEndpointFactory<'a> =
    Box<dyn FnMut(usize, SimTime) -> (Box<dyn Transport>, Box<dyn Transport>) + 'a>;

/// Start time of each flow in a staggered workload.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    /// When the flow's connection is created (SYN queued).
    pub start: SimTime,
}

/// The emulator itself. Construct with [`Emulator::new`], then
/// [`Emulator::run`].
pub struct Emulator<'a> {
    cfg: NetConfig,
    q: DefaultQueue<Ev>,
    rng: DetRng,
    notify_model: NotifyModel,
    /// Executes `cfg.faults` against its own forked RNG stream, so the
    /// main stream's draw sequence is identical with or without a plan.
    faults: FaultInjector,
    /// Executes `cfg.impair` against its own forked RNG stream (same
    /// isolation guarantee as `faults`): an inert plan makes zero draws,
    /// so the clean path is bit-identical with or without the field.
    impair: ImpairInjector,
    /// Executes `cfg.clock` against its own forked RNG stream (same
    /// isolation guarantee): owns every host's perceived clock and the
    /// slot-edge enforcement; inert plans make zero draws and return
    /// true time untouched.
    clock: ClockInjector,
    recorder: FlightRecorder,

    senders: Vec<Option<Box<dyn Transport + 'a>>>,
    receivers: Vec<Option<Box<dyn Transport + 'a>>>,
    /// Deferred construction for staggered flows.
    timed_factory: Option<TimedEndpointFactory<'a>>,
    specs: Vec<FlowSpec>,
    /// Completion time of each flow (first instant its sender reported
    /// done), if it finished within the run.
    completions: Vec<Option<SimTime>>,
    /// Flows whose sender has been constructed (== n_flows once every
    /// staggered flow has started).
    started: usize,
    /// Flows with a recorded completion; the run terminates early when
    /// this reaches n_flows with every flow started.
    done_count: usize,
    /// Per-flow engine state kept current by `refresh`.
    track: Vec<FlowTrack>,
    /// Flows touched since the last `record_day`.
    dirty: Vec<usize>,
    /// Sum of every sender's `bytes_acked` (what `Ev::Sample` records).
    acked_total: u64,
    timer_slots: Vec<[Option<(SimTime, DefaultEventId)>; 2]>,
    /// Per-rack shared uplink availability: the testbed emulates each rack
    /// as one machine with one data NIC, so all of a rack's hosts
    /// serialize through a single uplink — which caps the VOQ's input
    /// rate at the line rate and is what keeps circuit-day window bursts
    /// from instantly overflowing the shallow VOQ.
    nic_free: [SimTime; 2],

    /// Every segment between a host's `poll_send` and the peer's
    /// `on_segment`; events and VOQ entries carry ids into it.
    pool: SegPool,
    /// Segments in scheduled `Enqueue` and `Arrive` events, for the pool
    /// law checked when [`Emulator::run`] returns; counted in debug
    /// builds only.
    in_events: u64,
    voq_ab: Voq<SegRef>,
    voq_ba: Voq<SegRef>,
    service_pending: [bool; 2],
    link_free_at: [SimTime; 2],

    active: Option<TdnId>,
    seq_series: TimeSeries,
    day_records: Vec<DayRecord>,
    prev_day: u64,
    prev_day_tdn: TdnId,
    sample_every: SimDuration,
}

impl<'a> Emulator<'a> {
    /// Create an emulator for `n_flows` flows whose endpoints come from
    /// `factory`.
    pub fn new(cfg: NetConfig, n_flows: usize, mut factory: EndpointFactory<'a>) -> Self {
        let rng = DetRng::new(cfg.seed);
        let notify_model = NotifyModel::new(cfg.notify);
        let faults = FaultInjector::new(cfg.faults.clone(), rng.fork(FAULT_STREAM_LABEL));
        let impair = ImpairInjector::new(cfg.impair.clone(), rng.fork(IMPAIR_STREAM_LABEL));
        let clock = ClockInjector::new(cfg.clock.clone(), rng.fork(CLOCK_STREAM_LABEL));
        let mut senders = Vec::with_capacity(n_flows);
        let mut receivers = Vec::with_capacity(n_flows);
        for i in 0..n_flows {
            let (s, r) = factory(i);
            senders.push(Some(s));
            receivers.push(Some(r));
        }
        Emulator {
            voq_ab: Voq::new("voq_ab", cfg.voq),
            voq_ba: Voq::new("voq_ba", cfg.voq),
            notify_model,
            faults,
            impair,
            clock,
            recorder: FlightRecorder::default(),
            rng,
            q: DefaultQueue::new(),
            senders,
            receivers,
            timed_factory: None,
            specs: (0..n_flows).map(|_| FlowSpec { start: SimTime::ZERO }).collect(),
            completions: vec![None; n_flows],
            started: n_flows,
            done_count: 0,
            track: vec![FlowTrack::default(); n_flows],
            dirty: Vec::new(),
            acked_total: 0,
            timer_slots: vec![[None, None]; n_flows],
            nic_free: [SimTime::ZERO; 2],
            pool: SegPool::new(),
            in_events: 0,
            service_pending: [false, false],
            link_free_at: [SimTime::ZERO; 2],
            active: None,
            seq_series: TimeSeries::new("seq"),
            day_records: Vec::new(),
            prev_day: 0,
            prev_day_tdn: cfg.schedule.day_tdn(0),
            sample_every: SimDuration::from_micros(2),
            cfg,
        }
    }

    /// Create an emulator whose flows start at individual times: flow `i`
    /// is constructed by `factory(i, specs[i].start)` when its start time
    /// arrives. Used by the short-flow / staggered-arrival experiments.
    pub fn new_staggered(
        cfg: NetConfig,
        specs: Vec<FlowSpec>,
        factory: TimedEndpointFactory<'a>,
    ) -> Self {
        let n_flows = specs.len();
        let rng = DetRng::new(cfg.seed);
        let notify_model = NotifyModel::new(cfg.notify);
        let faults = FaultInjector::new(cfg.faults.clone(), rng.fork(FAULT_STREAM_LABEL));
        let impair = ImpairInjector::new(cfg.impair.clone(), rng.fork(IMPAIR_STREAM_LABEL));
        let clock = ClockInjector::new(cfg.clock.clone(), rng.fork(CLOCK_STREAM_LABEL));
        Emulator {
            voq_ab: Voq::new("voq_ab", cfg.voq),
            voq_ba: Voq::new("voq_ba", cfg.voq),
            notify_model,
            faults,
            impair,
            clock,
            recorder: FlightRecorder::default(),
            rng,
            q: DefaultQueue::new(),
            senders: (0..n_flows).map(|_| None).collect(),
            receivers: (0..n_flows).map(|_| None).collect(),
            timed_factory: Some(factory),
            specs,
            completions: vec![None; n_flows],
            started: 0,
            done_count: 0,
            track: vec![FlowTrack::default(); n_flows],
            dirty: Vec::new(),
            acked_total: 0,
            timer_slots: vec![[None, None]; n_flows],
            nic_free: [SimTime::ZERO; 2],
            pool: SegPool::new(),
            in_events: 0,
            service_pending: [false, false],
            link_free_at: [SimTime::ZERO; 2],
            active: None,
            seq_series: TimeSeries::new("seq"),
            day_records: Vec::new(),
            prev_day: 0,
            prev_day_tdn: cfg.schedule.day_tdn(0),
            sample_every: SimDuration::from_micros(2),
            cfg,
        }
    }

    /// Override the sequence-series sampling interval.
    pub fn set_sample_interval(&mut self, every: SimDuration) {
        self.sample_every = every;
    }

    /// Run until `until` (or until every flow finishes). Consumes the
    /// emulator and returns the collected results.
    pub fn run(mut self, until: SimTime) -> RunResult {
        self.q.schedule(SimTime::ZERO, Ev::DayStart { day: 0 });
        self.q.schedule(SimTime::ZERO, Ev::Sample);
        if self.timed_factory.is_some() {
            for (i, spec) in self.specs.clone().iter().enumerate() {
                self.q.schedule(spec.start, Ev::StartFlow { flow: i });
            }
        } else {
            // Initial flush: SYNs queued by the factory go out at t = 0.
            for i in 0..self.senders.len() {
                self.flush(SimTime::ZERO, Side::A, i);
                self.flush(SimTime::ZERO, Side::B, i);
            }
            // A degenerate flow can be done at construction; record it at
            // t = 0 (the first event always pops at t = 0, so this matches
            // the per-event check's timestamp).
            for i in 0..self.senders.len() {
                self.refresh(SimTime::ZERO, i);
            }
        }

        while let Some((now, ev)) = self.q.pop() {
            if now > until {
                break;
            }
            // A flow's counters and `is_done` can only change during an
            // event that calls into its transports, so the refresh below
            // only visits the flow(s) this event touched.
            let touched = match &ev {
                Ev::StartFlow { flow }
                | Ev::Arrive { flow, .. }
                | Ev::Notify { flow, .. }
                | Ev::HostTimer { flow, .. } => Touched::One(*flow),
                Ev::Prepare => Touched::All,
                _ => Touched::None,
            };
            match ev {
                Ev::StartFlow { flow } => {
                    let pnow = self.host_now(Side::A, flow, now);
                    let (s, r) = self
                        .timed_factory
                        .as_mut()
                        .expect("staggered emulator")(flow, pnow);
                    self.senders[flow] = Some(s);
                    self.receivers[flow] = Some(r);
                    self.started += 1;
                    self.flush(now, Side::A, flow);
                    self.flush(now, Side::B, flow);
                }
                Ev::Arrive { side, flow, seg } => {
                    self.note_popped();
                    if self.host_exists(side, flow) {
                        let pnow = self.host_now(side, flow, now);
                        // The transport reads the segment where it lies.
                        let hosts = match side {
                            Side::A => &mut self.senders,
                            Side::B => &mut self.receivers,
                        };
                        hosts[flow]
                            .as_mut()
                            .expect("checked")
                            .on_segment(pnow, self.pool.get(seg));
                        self.pool.release(seg);
                        self.flush(now, side, flow);
                        // The peer may now be able to send (window opened).
                        self.flush(now, side.other(), flow);
                    } else {
                        self.pool.release(seg);
                    }
                }
                Ev::Enqueue { dir, seg } => {
                    self.note_popped();
                    // EPS ingress burst faults: drops vanish here, but
                    // corrupted *data* segments keep flowing — damage is
                    // detected end-to-end by the receiver's payload
                    // checksum (counted as `corrupt_rx`), not by the
                    // network silently eating the segment. A corrupted
                    // pure ACK has no trustworthy bits and degrades to a
                    // drop.
                    match self.faults.on_transit(now) {
                        EpsVerdict::Pass => self.offer(now, dir, seg),
                        EpsVerdict::Drop => {
                            self.pool.release(seg);
                            self.recorder.record(now, "eps burst: segment dropped");
                        }
                        EpsVerdict::Corrupt => {
                            let s = self.pool.get_mut(seg);
                            if s.has_payload() {
                                s.payload_csum = mangle_csum(s.payload_csum);
                                self.recorder.record(now, "eps burst: segment corrupted");
                                self.offer(now, dir, seg);
                            } else {
                                self.pool.release(seg);
                                self.recorder
                                    .record(now, "eps burst: corrupted ack dropped");
                            }
                        }
                    }
                }
                Ev::Service { dir } => {
                    self.service_pending[dir.idx()] = false;
                    self.service(now, dir);
                }
                Ev::DayStart { day } => self.on_day_start(now, day, until),
                Ev::NightStart { day } => self.on_night_start(now, day),
                Ev::LinkFail { day } => {
                    // The light path drops mid-day: service stops until
                    // the next day start. Segments already in flight
                    // complete their propagation.
                    if self.prev_day == day && self.active.is_some() {
                        self.active = None;
                        self.recorder
                            .record(now, format!("day {day}: circuit failed mid-day"));
                    }
                }
                Ev::Prepare => self.on_prepare(now),
                Ev::Notify { side, flow, tdn, gen } => {
                    // `on_day_start` only schedules deliveries to hosts
                    // that have started by the delivery time.
                    debug_assert!(
                        self.host_exists(side, flow),
                        "notification popped for flow {flow}, which has not started"
                    );
                    // A skewed host reads the notification against its
                    // own clock — this is exactly what desynchronizes
                    // its slot-phase estimate.
                    let pnow = self.host_now(side, flow, now);
                    self.host_mut(side, flow).on_tdn_notification(pnow, tdn, gen);
                    self.flush(now, side, flow);
                }
                Ev::HostTimer { side, flow } => {
                    self.timer_slots[flow][side.idx()] = None;
                    if self.host_exists(side, flow) {
                        let pnow = self.host_now(side, flow, now);
                        self.host_mut(side, flow).on_timer(pnow);
                        self.flush(now, side, flow);
                    }
                }
                Ev::Sample => {
                    debug_assert_eq!(
                        self.acked_total,
                        self.senders
                            .iter()
                            .flatten()
                            .map(|s| s.stats().bytes_acked)
                            .sum::<u64>(),
                        "running acked total diverged from the full sum"
                    );
                    self.seq_series.push(now, self.acked_total as f64);
                    if now + self.sample_every <= until {
                        self.q.schedule(now + self.sample_every, Ev::Sample);
                    }
                }
            }
            match touched {
                Touched::None => {}
                Touched::One(flow) => self.refresh(now, flow),
                Touched::All => {
                    for flow in 0..self.senders.len() {
                        self.refresh(now, flow);
                    }
                }
            }
            if self.started == self.senders.len() && self.done_count == self.senders.len() {
                break;
            }
        }

        // The pool law: every live slot is accounted for by an event still
        // scheduled (or popped past `until` and never processed) or by a
        // VOQ entry — no id leaked, none released early.
        debug_assert_eq!(
            self.pool.live(),
            self.in_events + (self.voq_ab.len() + self.voq_ba.len()) as u64,
            "segment pool law violated when the run returned"
        );
        let duration = self.q.now().saturating_since(SimTime::ZERO);
        RunResult {
            seq_series: self.seq_series,
            drops_ab: self.voq_ab.drops,
            drops_ba: self.voq_ba.drops,
            ce_marks_ab: self.voq_ab.ce_marks,
            voq_ab: self.voq_ab.into_series(),
            voq_ba: self.voq_ba.into_series(),
            final_cwnds: self
                .senders
                .iter()
                .map(|s| s.as_ref().map(|s| s.cwnd_report()).unwrap_or_default())
                .collect(),
            completions: self.completions.clone(),
            starts: self.specs.iter().map(|s| s.start).collect(),
            sender_stats: self
                .senders
                .iter()
                .map(|s| s.as_ref().map(|s| *s.stats()).unwrap_or_default())
                .collect(),
            receiver_stats: self
                .receivers
                .iter()
                .map(|r| r.as_ref().map(|r| *r.stats()).unwrap_or_default())
                .collect(),
            conn_errors: self
                .senders
                .iter()
                .map(|s| s.as_ref().and_then(|s| s.conn_error()))
                .collect(),
            day_records: self.day_records,
            duration,
            events: self.q.events_processed(),
            faults: *self.faults.stats(),
            fault_log_digest: self.faults.log_digest(),
            impairments: *self.impair.stats(),
            impair_log_digest: self.impair.log_digest(),
            clock: *self.clock.stats(),
            clock_log_digest: self.clock.log_digest(),
            flight_log: self.recorder.into_events(),
        }
    }

    /// The post-event step, called only for flows the current event
    /// touched: fold the sender's `bytes_acked` progress into
    /// `acked_total`, put the flow on the dirty list for `record_day`,
    /// refresh both hosts' done flags, and record the flow's completion
    /// time the first time its sender reports done.
    fn refresh(&mut self, now: SimTime, flow: usize) {
        let (Some(s), Some(r)) = (&self.senders[flow], &self.receivers[flow]) else {
            return;
        };
        let t = &mut self.track[flow];
        let acked = s.stats().bytes_acked;
        self.acked_total = self.acked_total + acked - t.acked;
        t.acked = acked;
        if !t.dirty {
            t.dirty = true;
            self.dirty.push(flow);
        }
        t.done = [s.is_done(), r.is_done()];
        if !t.done[0] || self.completions[flow].is_some() {
            return;
        }
        self.completions[flow] = Some(now);
        self.done_count += 1;
        match s.conn_error() {
            Some(e) => self
                .recorder
                .record(now, format!("flow {flow} aborted: {e:?}")),
            None => self.recorder.record(now, format!("flow {flow} completed")),
        }
    }

    /// Stable clock-host index of `(side, flow)`: every endpoint is its
    /// own host with its own oscillator.
    fn host_id(side: Side, flow: usize) -> usize {
        flow * 2 + side.idx()
    }

    /// The host's perceived time at true time `now` (`now` exactly for an
    /// inert clock plan). Endpoint-visible timestamps pass through this;
    /// the emulator's own scheduling stays in true time.
    fn host_now(&mut self, side: Side, flow: usize, now: SimTime) -> SimTime {
        self.clock.perceived(Self::host_id(side, flow), now)
    }

    /// A segment-carrying event left the queue (pool-law bookkeeping).
    fn note_popped(&mut self) {
        if cfg!(debug_assertions) {
            self.in_events -= 1;
        }
    }

    /// Schedule a segment-carrying event.
    fn schedule_seg(&mut self, at: SimTime, ev: Ev) {
        if cfg!(debug_assertions) {
            self.in_events += 1;
        }
        self.q.schedule(at, ev);
    }

    /// Offer pooled segment `seg` to `dir`'s VOQ; a tail drop frees its
    /// slot.
    fn offer(&mut self, now: SimTime, dir: Dir, seg: u32) {
        let item = self.pool.seg_ref(seg);
        let voq = match dir {
            Dir::Ab => &mut self.voq_ab,
            Dir::Ba => &mut self.voq_ba,
        };
        if voq.enqueue(now, item) {
            self.kick_service(now, dir);
        } else {
            self.pool.release(seg);
        }
    }

    fn host_mut(&mut self, side: Side, flow: usize) -> &mut (dyn Transport + 'a) {
        match side {
            Side::A => self.senders[flow].as_mut().expect("flow started").as_mut(),
            Side::B => self.receivers[flow].as_mut().expect("flow started").as_mut(),
        }
    }

    fn host_exists(&self, side: Side, flow: usize) -> bool {
        match side {
            Side::A => self.senders[flow].is_some(),
            Side::B => self.receivers[flow].is_some(),
        }
    }

    /// Drain a host's outgoing segments into its ToR VOQ, then re-arm its
    /// timer event.
    fn flush(&mut self, now: SimTime, side: Side, flow: usize) {
        if !self.host_exists(side, flow) {
            return;
        }
        // The host paces and arms timers against its *perceived* clock;
        // deadlines it reports come back in that frame and are converted
        // to true time below (skew is locally constant over one re-arm).
        let pnow = self.host_now(side, flow, now);
        loop {
            let seg = match side {
                Side::A => self.senders[flow].as_mut().expect("checked").poll_send(pnow),
                Side::B => self.receivers[flow].as_mut().expect("checked").poll_send(pnow),
            };
            let Some(seg) = seg else { break };
            let dir = match seg.dir {
                Direction::DataPath => Dir::Ab,
                Direction::AckPath => Dir::Ba,
            };
            // Serialize through the rack's shared uplink NIC: the segment
            // reaches the ToR VOQ when its serialization completes.
            let nic = &mut self.nic_free[side.idx()];
            let start = (*nic).max(now);
            let done = start
                + SimDuration::serialization(u64::from(seg.wire_size()), self.cfg.host_rate_bps);
            *nic = done;
            let seg = self.pool.insert(seg);
            self.schedule_seg(done, Ev::Enqueue { dir, seg });
        }
        // Re-arm this host's timer (perceived frame → true frame).
        let want = match side {
            Side::A => self.senders[flow].as_ref().expect("checked").next_timer(),
            Side::B => self.receivers[flow].as_ref().expect("checked").next_timer(),
        }
        .map(|pt| (now + pt.saturating_since(pnow)).max(now));
        let slot = &mut self.timer_slots[flow][side.idx()];
        if want != slot.map(|(t, _)| t) {
            if let Some((_, id)) = slot.take() {
                self.q.cancel(id);
            }
            if let Some(t) = want {
                let id = self.q.schedule(t, Ev::HostTimer { side, flow });
                *slot = Some((t, id));
            }
        }
    }

    fn kick_service(&mut self, now: SimTime, dir: Dir) {
        if self.service_pending[dir.idx()] {
            return;
        }
        let at = self.link_free_at[dir.idx()].max(now);
        self.q.schedule(at, Ev::Service { dir });
        self.service_pending[dir.idx()] = true;
    }

    fn service(&mut self, now: SimTime, dir: Dir) {
        let Some(active) = self.active else { return };
        let mut params = *self.cfg.tdn(active);
        let mut mark = self.cfg.circuit_marking && active == self.cfg.circuit_tdn;
        let voq = match dir {
            Dir::Ab => &mut self.voq_ab,
            Dir::Ba => &mut self.voq_ba,
        };
        let Some(SegRef { id, ecn, .. }) = voq.dequeue_eligible(now, Some(active)) else {
            return;
        };
        // The segment stays in its slot: the VOQ's CE mark lands there,
        // and everything below reads or rewrites it in place.
        let seg = self.pool.get_mut(id);
        seg.ecn = ecn;
        let has_payload = seg.has_payload();
        // Serialization happens on the *true* plane regardless of the
        // sender's clock: the wire runs at the active TDN's rate.
        let ser = SimDuration::serialization(u64::from(seg.wire_size()), params.rate_bps);
        let to_side = match dir {
            Dir::Ab => Side::B,
            Dir::Ba => Side::A,
        };
        let flow = seg.flow.0 as usize;
        // Slot-edge enforcement (`cfg.clock`): if the sender's perceived
        // day disagrees with the true day by more than the guard band,
        // this launch was mis-timed and the plan's policy decides its
        // fate. The link is occupied either way — the segment went out;
        // the edge decided what became of it.
        if !self.clock.is_inert() {
            let sender = match dir {
                Dir::Ab => Side::A,
                Dir::Ba => Side::B,
            };
            let host = Self::host_id(sender, flow);
            match self
                .clock
                .on_send(host, now, &self.cfg.schedule, self.cfg.guard_band)
            {
                ClockVerdict::Send => {}
                ClockVerdict::GuardDrop => {
                    self.pool.release(id);
                    self.recorder
                        .record(now, "slot edge: mis-timed segment dropped");
                    self.finish_service(now, dir, ser, active);
                    return;
                }
                ClockVerdict::Defer => {
                    // Held at the ToR until the next slot opens.
                    let at = self
                        .cfg
                        .schedule
                        .day_start(self.cfg.schedule.day_number(now) + 1);
                    self.recorder
                        .record(now, "slot edge: mis-timed segment deferred");
                    self.schedule_seg(at, Ev::Enqueue { dir, seg: id });
                    self.finish_service(now, dir, ser, active);
                    return;
                }
                ClockVerdict::WrongTdn { perceived_day } => {
                    // Delivered, but with the *stale* day's TDN semantics:
                    // the segment rides the plane the sender thought was
                    // up, picking up its propagation profile and marking.
                    let stale = self.cfg.schedule.day_tdn(perceived_day);
                    params = *self.cfg.tdn(stale);
                    mark = self.cfg.circuit_marking && stale == self.cfg.circuit_tdn;
                    self.recorder
                        .record(now, "slot edge: segment delivered on wrong tdn");
                }
            }
        }
        if mark {
            self.pool.get_mut(id).circuit_mark = true;
        }
        // In-network queueing jitter (per-packet, so it can reorder
        // segments within a TDN and strand stragglers across transitions).
        let jitter = match params.jitter {
            Some((p, mean)) if self.rng.chance(p) => {
                SimDuration::from_nanos(self.rng.exponential(mean.as_nanos() as f64) as u64)
            }
            _ => SimDuration::ZERO,
        };
        let arrive_at = now + ser + params.one_way + jitter;
        // Wire-path impairments (`cfg.impair`): applied at the moment of
        // transmission, so they hit whichever plane — EPS day or circuit
        // day, including segments straddling a transition — carries the
        // segment. The link is occupied either way (the segment was
        // transmitted; the wire damaged or lost it downstream).
        let arrive = |seg| Ev::Arrive { side: to_side, flow, seg };
        match self.impair.on_wire(now) {
            ImpairVerdict::Pass => self.schedule_seg(arrive_at, arrive(id)),
            ImpairVerdict::Drop => self.pool.release(id),
            ImpairVerdict::Delay(extra) => self.schedule_seg(arrive_at + extra, arrive(id)),
            ImpairVerdict::Duplicate(lag) => {
                // The copy is a segment of its own from here on.
                let dup = self.pool.insert(*self.pool.get(id));
                self.schedule_seg(arrive_at, arrive(id));
                self.schedule_seg(arrive_at + lag, arrive(dup));
            }
            ImpairVerdict::Corrupt if has_payload => {
                let seg = self.pool.get_mut(id);
                seg.payload_csum = mangle_csum(seg.payload_csum);
                self.schedule_seg(arrive_at, arrive(id));
            }
            // A corrupted pure ACK degrades to a drop: no bit of it can
            // be trusted, so nothing arrives.
            ImpairVerdict::Corrupt => self.pool.release(id),
        }
        self.finish_service(now, dir, ser, active);
    }

    /// Common tail of one service step: the link stays occupied for the
    /// segment's serialization time, and service continues if the VOQ
    /// still holds eligible segments.
    fn finish_service(&mut self, now: SimTime, dir: Dir, ser: SimDuration, active: TdnId) {
        self.link_free_at[dir.idx()] = now + ser;
        let voq = match dir {
            Dir::Ab => &mut self.voq_ab,
            Dir::Ba => &mut self.voq_ba,
        };
        if voq.has_eligible(Some(active)) {
            self.q.schedule(now + ser, Ev::Service { dir });
            self.service_pending[dir.idx()] = true;
        }
    }

    fn on_day_start(&mut self, now: SimTime, day: u64, until: SimTime) {
        // Record the finished day (if any) for Fig. 10.
        if day > 0 {
            self.record_day(day - 1);
        }
        // Schedule freeze: a stuck rotor replays the frozen day's TDN.
        let sched_day = self.faults.schedule_day(day);
        let tdn = self.cfg.schedule.day_tdn(sched_day);
        let fate = self.faults.day_fate(day, tdn, self.cfg.circuit_tdn);
        self.prev_day = day;
        self.prev_day_tdn = tdn;

        match fate {
            DayFate::Absent => {
                // The circuit never comes up, and the failure is
                // unannounced — the ToR sends no notifications, so hosts
                // discover the outage only through their watchdogs.
                self.active = None;
                self.recorder
                    .record(now, format!("day {day}: circuit absent (outage)"));
            }
            DayFate::Truncated(frac) => {
                self.active = Some(tdn);
                let at = now + self.cfg.schedule.day_len.mul_f64(frac);
                self.q.schedule(at, Ev::LinkFail { day });
                self.recorder.record(
                    now,
                    format!("day {day} tdn {} starts (fails mid-day)", tdn.0),
                );
            }
            DayFate::Normal => {
                self.active = Some(tdn);
                self.recorder
                    .record(now, format!("day {day} tdn {} starts", tdn.0));
            }
        }

        // Notifications to every live host (none for an absent day). The
        // gen is the day number: monotone at the ToR, so endpoints can
        // discard duplicated/reordered deliveries. Latency and the fault
        // verdict are drawn for every host *slot*, in slot order, even
        // when the notification is dropped or the host is not live —
        // that keeps the main and fault streams' draw sequences
        // independent of who is live — but a delivery is only scheduled
        // to a host that is live when it lands: its flow has started by
        // then, and the endpoint had not closed (`is_done`) by this day
        // start. A closed socket stops hearing the ToR; a receiver whose
        // sender aborted never closes, so it keeps hearing it and its
        // watchdog is not starved.
        if self.cfg.notifications && fate != DayFate::Absent {
            for flow in 0..self.senders.len() {
                let start = self.specs[flow].start;
                for side in [Side::A, Side::B] {
                    let closed = self.track[flow].done[side.idx()];
                    let lat = self.notify_model.sample(&mut self.rng, flow).total();
                    match self.faults.on_notify(day, flow, side.idx() as u8) {
                        NotifyVerdict::Drop => {
                            self.recorder.record(
                                now,
                                format!("day {day}: notify dropped (flow {flow})"),
                            );
                        }
                        NotifyVerdict::Deliver { extra, duplicate } => {
                            // The original and a fault duplicate are
                            // judged each at its own delivery time.
                            let at = now + lat + extra;
                            let copies = [Some(at), duplicate.map(|lag| at + lag)];
                            for at in copies.into_iter().flatten() {
                                if !closed && start <= at {
                                    self.q
                                        .schedule(at, Ev::Notify { side, flow, tdn, gen: day });
                                }
                            }
                        }
                    }
                }
            }
        }

        // retcpdyn: schedule the prepare lead for the *next* circuit day.
        if let Some(dyncfg) = self.cfg.retcpdyn {
            let next = day + 1;
            if self.cfg.schedule.day_tdn(next) == self.cfg.circuit_tdn {
                let at = self.cfg.schedule.day_start(next) - dyncfg.prepare_lead;
                if at >= now && at <= until {
                    self.q.schedule(at, Ev::Prepare);
                }
            }
        }

        self.q.schedule(now + self.cfg.schedule.day_len, Ev::NightStart { day });
        self.kick_service(now, Dir::Ab);
        self.kick_service(now, Dir::Ba);
    }

    fn on_night_start(&mut self, now: SimTime, day: u64) {
        self.active = None;
        // A circuit day just ended: restore the VOQ cap (retcpdyn). The
        // *effective* TDN (frozen schedules replay a day) decides.
        if self.cfg.retcpdyn.is_some() && self.prev_day_tdn == self.cfg.circuit_tdn {
            self.voq_ab.reset_cap();
            self.voq_ba.reset_cap();
        }
        self.q
            .schedule(now + self.cfg.schedule.night_len, Ev::DayStart { day: day + 1 });
    }

    fn on_prepare(&mut self, now: SimTime) {
        let cap = self.cfg.retcpdyn.expect("prepare only with retcpdyn").enlarged_cap;
        self.voq_ab.set_cap(cap);
        self.voq_ba.set_cap(cap);
        for flow in 0..self.senders.len() {
            if self.senders[flow].is_some() {
                let pnow = self.host_now(Side::A, flow, now);
                self.senders[flow]
                    .as_mut()
                    .expect("checked")
                    .on_circuit_prepare(pnow);
                self.flush(now, Side::A, flow);
            }
        }
    }

    /// How far flow `flow`'s four [`DayRecord`] counters have moved since
    /// the last `record_day`, and their current values (all zero for a
    /// flow that has not started).
    fn day_delta(&self, flow: usize) -> ([u64; 4], [u64; 4]) {
        let (Some(snd), Some(rcv)) = (&self.senders[flow], &self.receivers[flow]) else {
            return ([0; 4], [0; 4]);
        };
        let cur = day_counters(snd.stats(), rcv.stats());
        let prev = &self.track[flow].day;
        (std::array::from_fn(|k| cur[k] - prev[k]), cur)
    }

    fn record_day(&mut self, day: u64) {
        // Only a flow touched since the last record can have moved a
        // counter; debug builds check that against a scan of every flow.
        let full_scan = cfg!(debug_assertions).then(|| {
            (0..self.senders.len()).fold([0u64; 4], |sum, flow| {
                let (delta, _) = self.day_delta(flow);
                std::array::from_fn(|k| sum[k] + delta[k])
            })
        });
        let mut sum = [0u64; 4];
        for i in 0..self.dirty.len() {
            let flow = self.dirty[i];
            let (delta, cur) = self.day_delta(flow);
            sum = std::array::from_fn(|k| sum[k] + delta[k]);
            self.track[flow].day = cur;
            self.track[flow].dirty = false;
        }
        self.dirty.clear();
        debug_assert_eq!(Some(sum), full_scan, "dirty list missed a touched flow");
        let [reorder_events, reorder_marked_pkts, retransmits, spurious_retransmits] = sum;
        self.day_records.push(DayRecord {
            day,
            // `prev_day_tdn` still holds the finished day's *effective*
            // TDN (on_day_start records day-1 before overwriting it),
            // which can differ from the nominal schedule under a freeze
            // fault.
            tdn: self.prev_day_tdn,
            reorder_events,
            reorder_marked_pkts,
            retransmits,
            spurious_retransmits,
        });
    }
}

impl Side {
    fn other(self) -> Side {
        match self {
            Side::A => Side::B,
            Side::B => Side::A,
        }
    }
    fn idx(self) -> usize {
        match self {
            Side::A => 0,
            Side::B => 1,
        }
    }
}

impl Dir {
    fn idx(self) -> usize {
        match self {
            Dir::Ab => 0,
            Dir::Ba => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_stay_within_the_wheel_node_budget() {
        // Same budget as the N-rack engine's `REv`: a segment in an event
        // is a pool id, so the wheel node fits one 64-byte line.
        assert!(std::mem::size_of::<Ev>() <= 40);
        assert!(DefaultQueue::<Ev>::node_bytes() <= 64);
    }
}
