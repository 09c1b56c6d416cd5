//! The two-rack RDCN emulator (the Etalon equivalent): the paper's
//! evaluated rack pair (§5.1), as the front door of the one loop in
//! [`crate::shard`]. [`Emulator::run`] builds N = 2 over [`NetConfig`]'s
//! week, rack A's senders to rack B's receivers, and runs it on the
//! calling thread. [`RunResult`] is the two-rack fold of the racks'
//! results: per-flow results, and the time series and per-day records
//! the figures read when they ask for them
//! ([`Emulator::set_sample_interval`]).

use crate::clock::ClockStats;
use crate::config::NetConfig;
use crate::faults::FaultStats;
use crate::impair::ImpairStats;
use crate::shard::{digest_racks, FlowEnds, PairFlow, RackResult, ShardConfig, ShardedEmulator};
use simcore::{SimDuration, SimTime, TimeSeries};
use tcp::{ConnError, ConnStats, Transport};
use testkit::Counters;
use wire::TdnId;

/// Per-day deltas of the counters Fig. 10 plots, one entry per finished day.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// The four counters; `day` and `tdn` name the day and are not summed.
impl Counters for DayRecord {
    fn counters_mut(&mut self) -> impl IntoIterator<Item = &mut u64> {
        testkit::counters!(self, DayRecord {
            reorder_events,
            reorder_marked_pkts,
            retransmits,
            spurious_retransmits,
        } skip { day, tdn })
    }
}

/// Everything a run produces. The three observation fields —
/// `seq_series`, `voq_ab` and `day_records` — stay empty unless the
/// caller asked for them with [`Emulator::set_sample_interval`], and none
/// of them is in [`RunResult::stats_digest`]; the rest is simulation
/// state.
#[derive(Debug)]
pub struct RunResult {
    /// Aggregate acknowledged bytes over time (the sequence graph of
    /// Figs. 2/7a/8a/9, summed over flows). Observed runs only.
    pub seq_series: TimeSeries,
    /// A→B VOQ occupancy over time (Figs. 7b/8b/13/14). Observed runs
    /// only.
    pub voq_ab: TimeSeries,
    /// Final sender-side stats per flow.
    pub sender_stats: Vec<ConnStats>,
    /// Final receiver-side stats per flow.
    pub receiver_stats: Vec<ConnStats>,
    /// Per-day counter deltas (Fig. 10's input). Observed runs only.
    pub day_records: Vec<DayRecord>,
    /// Segments tail-dropped in the A→B VOQ.
    pub drops_ab: u64,
    /// Segments tail-dropped in the B→A VOQ.
    pub drops_ba: u64,
    /// CE marks applied in the A→B VOQ.
    pub ce_marks_ab: u64,
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
    /// Data-path impairments applied during the run (all zero for an
    /// empty [`crate::ImpairPlan`]).
    pub impairments: ImpairStats,
    /// Time-plane effects applied during the run (all zero for an empty
    /// [`crate::ClockPlan`]).
    pub clock: ClockStats,
    /// Terminal error of each flow's sender, if it aborted instead of
    /// completing. `completions[i]` records when the sender *terminated*;
    /// this distinguishes success from surrender.
    pub conn_errors: Vec<Option<ConnError>>,
    /// The racks' one digest, folded before they were consumed.
    digest: u64,
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

    /// The run's one digest, of its simulation state: two runs with the
    /// same configuration and seed must agree on it (`tests/determinism.rs`).
    /// It is folded once, from the racks, by the fold both doors share
    /// (`crate::shard`), and covers no observation field: sampling a run,
    /// at any interval or not at all, leaves it unchanged.
    pub fn stats_digest(&self) -> u64 {
        self.digest
    }

    /// The two-rack fold of a run's racks: rack 0 holds every sender and
    /// the A→B VOQ, rack 1 every receiver and the B→A VOQ. Flow `i`
    /// started at `starts[i]`.
    fn fold(racks: Vec<RackResult>, starts: Vec<SimTime>) -> RunResult {
        let digest = digest_racks(&racks);
        let FlowEnds { sender_stats, receiver_stats, completions, errors: conn_errors } =
            FlowEnds::scatter(starts.len(), &racks);
        let [a, b] = <[RackResult; 2]>::try_from(racks)
            .ok()
            .expect("the two-rack fabric");
        debug_assert!(b.seq.is_empty(), "rack 1 holds no senders, so it samples nothing");
        let mut day_records = a.days;
        for (r, &other) in day_records.iter_mut().zip(&b.days) {
            debug_assert_eq!((r.day, r.tdn), (other.day, other.tdn), "racks disagree on a day");
            r.merge(other);
        }
        let mut faults = *a.faults.books().stats();
        faults.merge(*b.faults.books().stats());
        let mut impairments = *a.impair.books().stats();
        impairments.merge(*b.impair.books().stats());
        let mut clock = *a.clock.books().stats();
        clock.merge(*b.clock.books().stats());
        let [_, ab] = <[_; 2]>::try_from(a.voqs).expect("two VOQs per rack");
        RunResult {
            seq_series: a.seq,
            drops_ab: ab.drops,
            drops_ba: b.voqs[0].drops,
            ce_marks_ab: ab.ce_marks,
            voq_ab: ab.into_series(),
            sender_stats,
            receiver_stats,
            day_records,
            completions,
            starts,
            duration: a.end.max(b.end).saturating_since(SimTime::ZERO),
            events: a.events + b.events,
            faults,
            impairments,
            clock,
            conn_errors,
            digest,
        }
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
    fabric: ShardedEmulator<'a, Box<dyn Transport>>,
    /// Builds each flow's endpoints when it starts (staggered runs).
    timed: Option<TimedEndpointFactory<'a>>,
    starts: Vec<SimTime>,
}

impl<'a> Emulator<'a> {
    /// The rack pair over `cfg`, flow `i` starting at `starts[i]`. It
    /// records no observation series unless the caller asks
    /// ([`Emulator::set_sample_interval`]).
    fn pair(cfg: NetConfig, starts: Vec<SimTime>) -> ShardedEmulator<'a, Box<dyn Transport>> {
        let flows = vec![PairFlow { src: 0, dst: 1 }; starts.len()];
        ShardedEmulator::build(ShardConfig { net: cfg, racks: 2 }, &flows, starts)
    }

    /// Create an emulator for `n_flows` flows whose endpoints come from
    /// `factory`.
    pub fn new(cfg: NetConfig, n_flows: usize, mut factory: EndpointFactory<'a>) -> Self {
        let starts = vec![SimTime::ZERO; n_flows];
        let mut fabric = Self::pair(cfg, starts.clone());
        for i in 0..n_flows {
            let (s, r) = factory(i);
            fabric.install(i, s, r);
        }
        Emulator {
            fabric,
            timed: None,
            starts,
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
        let starts: Vec<SimTime> = specs.iter().map(|s| s.start).collect();
        Emulator {
            fabric: Self::pair(cfg, starts.clone()),
            timed: Some(factory),
            starts,
        }
    }

    /// Observe the run: sample the acked total every `every` and fill
    /// [`RunResult`]'s three observation fields (`seq_series`, `voq_ab`,
    /// `day_records`). Without this call they stay empty, and the run
    /// computes none of them. Observation reads the run and never feeds
    /// it, so [`RunResult::stats_digest`] is the same either way. Call
    /// before [`Emulator::run`]; `every` must be positive.
    pub fn set_sample_interval(&mut self, every: SimDuration) {
        self.fabric.set_sample_interval(every);
    }

    /// Run until `until` (or until every flow finishes). Consumes the
    /// emulator and returns the collected results.
    pub fn run(self, until: SimTime) -> RunResult {
        let Emulator {
            mut fabric,
            mut timed,
            starts,
        } = self;
        // Late flows in start order: each is built at the barrier before
        // the window holding its start.
        let mut late: Vec<usize> = (0..starts.len()).filter(|_| timed.is_some()).collect();
        late.sort_by_key(|&i| starts[i]);
        let mut late = late.into_iter().peekable();
        fabric.start();
        while let Some(w_end) =
            fabric.next_window(until, late.peek().map_or(SimTime::MAX, |&i| starts[i]))
        {
            while let Some(i) = late.next_if(|&i| starts[i] < w_end) {
                let factory = timed.as_mut().expect("late flows have a factory");
                fabric.start_flow(i, &mut **factory);
            }
            fabric.run_window();
        }
        RunResult::fold(fabric.finish(until), starts)
    }
}
