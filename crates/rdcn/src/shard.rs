//! The one simulation loop: the hybrid RDCN of §2.1/Fig. 1, one shard
//! per rack, bit-identical at any worker count (DESIGN.md §13). It runs
//! one config, a [`ShardConfig`]: one [`NetConfig`] plus a rack count.
//! Two doors lead in: [`ShardedEmulator::new`] builds an N-rack fabric
//! from one, and [`crate::Emulator`] builds the paper's two-rack pair
//! (§5.1) from a [`NetConfig`] with `racks: 2`, every flow from rack 0
//! to rack 1, on its own thread. Both fold the racks' results with one
//! digest of the run's simulation state (`digest_racks`), which no
//! observation enters.
//!
//! The network's week
//! ([`NetConfig::schedule`]) decides everything time-divided:
//!
//! * a day naming TDN k ≥ 1 is a circuit day; the j-th one connects rotor
//!   matching `j mod (N−1)` ([`crate::schedule::rotor`]) over `tdns[k]`.
//!   A TDN-0 day leaves every rack on its EPS uplink (`tdns[0]`), shared
//!   round-robin by its per-destination VOQs. Per destination the ToR
//!   uses the circuit when it exists, else the EPS;
//! * EPS scheduling: a week that names TDN 0 is Etalon's strict time
//!   division, where the EPS is scheduled like the circuit and serves
//!   only on TDN-0 days (nights are dark). On any other week — the rotor —
//!   the EPS is always on.
//!
//! Each rack shard owns its queue, its forked RNG and chaos injectors,
//! its resident transports, its VOQ row and its ports. Racks meet only
//! through segments, and every wire between racks is at least the
//! lookahead `L = min one_way` long, so all shards simulate a window
//! `[w, min(w + L, next schedule edge))` in parallel and swap what they
//! emitted through per-(source, destination) mailboxes at the barrier.
//! Threads need `Send` hosts; the two-rack door runs inline.
//!
//! Event semantics: one `Service` event is a *train* on one port — the
//! circuit or the EPS uplink — that launches queued segments
//! back-to-back until the window ends or the rack's next event comes
//! due, on every week, so each segment holds its VOQ slot until it
//! launches. Timers are lazy per-host arrays (no cancel), a delivery
//! flushes the receiving host only, and same-instant segments to one
//! host arrive as one event. Every transport call sees its host's
//! perceived clock, and no clock is read ahead of the rack's next event.
//!
//! Debug builds check a segment conservation law and the pool law at
//! every window barrier (`ShardedEmulator::assert_conserved`), and the
//! running totals behind samples and day records at every sample and
//! every day.

use crate::clock::{ClockInjector, ClockPlan, ClockVerdict, CLOCK_STREAM_LABEL};
use crate::config::{NetConfig, TdnParams};
use crate::emulator::DayRecord;
use crate::faults::{DayFate, EpsVerdict, FaultInjector, FaultPlan, NotifyVerdict, FAULT_STREAM_LABEL};
use crate::impair::{ImpairInjector, ImpairPlan, ImpairVerdict, IMPAIR_STREAM_LABEL};
use crate::mail::{Mailboxes, Msg};
use crate::notify::{NotifyConfig, NotifyModel};
use crate::pool::{SegPool, SegRef, NIL};
use crate::schedule::{is_circuit, rotor, Schedule};
use crate::voq::{Voq, VoqConfig};
use simcore::{par, DetRng, SimDuration, SimTime, TimeSeries, TimerWheel};
use std::marker::PhantomData;
use std::ops::DerefMut;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tcp::{ConnError, ConnStats, Direction, Transport};
use testkit::{Counters, Digest};
use wire::TdnId;

/// Label base for forking one RNG stream per rack off the run seed;
/// rack `r` uses `DetRng::new(seed).fork(RACK_STREAM_BASE + r)`, and
/// the rack's injectors fork their own streams off that.
pub const RACK_STREAM_BASE: u64 = 0x5AAD_0000;

/// The parameters of an N-rack rotor fabric with two networks;
/// [`ShardConfig::clean`] turns one into the engine's config, one
/// [`NetConfig`] plus a rack count.
#[derive(Debug, Clone)]
pub struct MultiRackConfig {
    /// Number of racks (even, ≥ 2).
    pub racks: usize,
    /// The packet network (per-rack uplink capacity and one-way latency
    /// through the EPS core): TDN 0.
    pub packet: TdnParams,
    /// The circuit network (per-circuit rate and one-way latency): TDN 1.
    pub circuit: TdnParams,
    /// The week: day and night lengths, and whether each day is a
    /// circuit day (TDN 1) or a packet-only day (TDN 0). A week naming
    /// TDN 0 makes the EPS a scheduled network (module docs). The fabric
    /// has no third network, so any other TDN is rejected at
    /// construction.
    pub schedule: Schedule,
    /// Per-pair VOQ configuration at each source ToR.
    pub voq: VoqConfig,
    /// Notification latency model.
    pub notify: NotifyConfig,
    /// Host/rack NIC serialization rate.
    pub host_rate_bps: u64,
    /// Seed.
    pub seed: u64,
}

impl MultiRackConfig {
    /// An 8-rack fabric with the paper's §5.1 link parameters — the
    /// topology whose rotor schedule *is* the 6:1 ratio of the evaluation.
    /// Its week is one 180 µs circuit day and a 20 µs night: day `n`
    /// connects rotor matching `n mod 7`, so each pair gets one circuit
    /// day in seven.
    pub fn paper_8rack() -> MultiRackConfig {
        MultiRackConfig {
            racks: 8,
            packet: TdnParams::packet_10g(),
            circuit: TdnParams::optical_100g(),
            schedule: Schedule::alternating(
                SimDuration::from_micros(180),
                SimDuration::from_micros(20),
                vec![TdnId(1)],
            ),
            voq: VoqConfig {
                cap_pkts: 16,
                ecn_threshold: None,
            },
            notify: NotifyConfig::optimized(),
            host_rate_bps: 100_000_000_000,
            seed: 1,
        }
    }
}

/// The week as a lookup: `rows[day % rows.len()][rack]` is the rack's
/// circuit peer on that day, `None` on a packet-only (TDN 0) day. The
/// k-th circuit (TDN ≥ 1) day takes rotor matching `k mod (racks − 1)`,
/// so the table repeats every `days.len() × (racks − 1)` days.
fn peer_rows(sched: &Schedule, racks: usize) -> Vec<Vec<Option<usize>>> {
    assert!(!sched.days.is_empty(), "the schedule's week has no days");
    let matchings = rotor::matchings(racks);
    let mut circuit_days = 0;
    (0..sched.days.len() * (racks - 1))
        .map(|day| {
            let mut peers = vec![None; racks];
            if is_circuit(sched.day_tdn(day as u64)) {
                for &(a, b) in &matchings[circuit_days % (racks - 1)] {
                    peers[a] = Some(b);
                    peers[b] = Some(a);
                }
                circuit_days += 1;
            }
            peers
        })
        .collect()
}

/// retcpdyn: how long before a circuit day the ToR enlarges the VOQ and
/// tells senders to ramp (150 µs in the paper).
const PREPARE_LEAD: SimDuration = SimDuration::from_micros(150);

/// retcpdyn: the enlarged VOQ capacity (50 packets in the paper).
const ENLARGED_CAP: usize = 50;

/// One flow between a rack pair.
#[derive(Debug, Clone, Copy)]
pub struct PairFlow {
    /// Source rack of the data.
    pub src: usize,
    /// Destination rack.
    pub dst: usize,
}

/// Configuration of a run: one [`NetConfig`] plus a rack count (even,
/// ≥ 2). Every door builds the loop from one of these; the two-rack door
/// passes `racks: 2`.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// The network: its TDNs (TDN 0 the packet network, TDN k ≥ 1 a
    /// circuit), week, VOQ, notification model, switch support, seed,
    /// chaos plans and guard band.
    pub net: NetConfig,
    /// Number of racks.
    pub racks: usize,
}

impl ShardConfig {
    /// A clean (all-chaos-inert) run over `fabric`: TDN 0 is its
    /// packet network and TDN 1 its circuit, the guard band is zero, and
    /// there is no circuit marking and no VOQ resizing.
    pub fn clean(fabric: MultiRackConfig) -> ShardConfig {
        ShardConfig {
            net: NetConfig {
                tdns: vec![fabric.packet, fabric.circuit],
                schedule: fabric.schedule,
                voq: fabric.voq,
                notify: fabric.notify,
                circuit_marking: false,
                retcpdyn: false,
                host_rate_bps: fabric.host_rate_bps,
                seed: fabric.seed,
                faults: FaultPlan::none(),
                impair: ImpairPlan::none(),
                clock: ClockPlan::none(),
                guard_band: SimDuration::ZERO,
            },
            racks: fabric.racks,
        }
    }
}

/// Where each endpoint of a flow lives (racks and rack-local host ids),
/// and when the flow starts.
#[derive(Debug, Clone, Copy)]
struct FlowSeat {
    src_rack: u32,
    dst_rack: u32,
    /// Sender's host index within `src_rack`.
    s_local: u32,
    /// Receiver's host index within `dst_rack`.
    r_local: u32,
    start: SimTime,
}

/// Rack-local events. Cross-rack arrivals enter as `Deliver` via the
/// window barrier; everything else is scheduled and consumed by the
/// same shard. A segment in an event is its id in the rack's pool.
enum REv {
    /// One or more segments arriving at `host` at the same instant: the
    /// pool chain starting at `head`, in arrival order.
    Deliver { host: u32, head: u32 },
    Enqueue { dst: u32, seg: u32 },
    /// A train on `port` (see [`RackShard::serve`]).
    Service { port: Port },
    DayStart { day: u64 },
    NightStart { day: u64 },
    Notify { host: u32, tdn: TdnId, gen: u64 },
    HostTimer { host: u32, tgen: u32 },
    /// A late flow's host sends its first segments.
    Start { host: u32 },
    /// Day `day`'s circuit fails (a `link_failure` fault).
    LinkFail { day: u64 },
    /// retcpdyn: circuit day `day` is one prepare lead away.
    Prepare { day: u64 },
}

/// One of a ToR's two uplinks: the circuit toward today's peer, or the
/// EPS uplink shared round-robin by every other destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Port {
    Circuit = 0,
    Eps = 1,
}

/// What the engine keeps per resident host besides its timer: who it
/// is, whether it is live, and what the result folds read of it, kept
/// current by [`RackShard::touch`] after every event that called into it.
#[derive(Debug, Clone, Copy)]
struct Track {
    /// Global flow id.
    flow: u32,
    sender: bool,
    /// The flow's start: the host is live from here until it closes.
    start: SimTime,
    /// `is_done()` as of the last event that called into the host. A
    /// closed host hears nothing from its ToR any more.
    closed: bool,
    /// Left the engine at a window barrier ([`ShardedEmulator::retire`]):
    /// its end is in the rack's `retired` list and its transport is gone.
    retired: bool,
    /// When a sender first reported done.
    completion: Option<SimTime>,
    /// The host's [`RackShard::observed`] counters as last folded into
    /// the rack's `totals` (observing runs only).
    seen: [u64; 5],
}

/// What a resident host has sent and been sent: the counts that tell
/// the barrier whether anything is still on its way to or from it
/// ([`ShardedEmulator::retire`]). Kept apart from [`Track`], which the
/// day start scans for every host.
#[derive(Debug, Clone, Copy, Default)]
struct Traffic {
    /// Segments the host emitted: every poll, plus the wire duplicates
    /// of its segments (its rack launches them).
    emitted: u64,
    /// Of those, the ones that died in this rack: VOQ tail drops and
    /// every [`RackShard::drop_seg`] cause.
    died: u64,
    /// Segments delivered to the host.
    delivered: u64,
    /// ToR notifications scheduled to the host and not yet delivered.
    notices: u32,
}

/// One rack's complete simulation state; `H` boxes its transports.
struct RackShard<H> {
    r: usize,
    racks: usize,
    q: TimerWheel<REv>,
    rng: DetRng,
    notify_model: NotifyModel,
    faults: FaultInjector,
    impair: ImpairInjector,
    clock: ClockInjector,
    /// The run's configuration, shared by every rack.
    net: Arc<NetConfig>,
    /// `peer_of[day % len][rack]`, see [`peer_rows`].
    peer_of: Arc<[Vec<Option<usize>>]>,
    /// The week names TDN 0, so the EPS is scheduled like the circuit
    /// and serves only on TDN-0 days (module docs).
    eps_scheduled: bool,

    /// The current day, and the TDN it serves (a frozen day replays
    /// another day's).
    day: u64,
    day_tdn: TdnId,
    /// Current OCS peer of this rack (None during nights, packet-only
    /// days, and once the day's circuit has failed).
    peer: Option<usize>,
    /// Whether the EPS serves now.
    eps_on: bool,
    /// Every segment this rack holds — on its NIC, in a VOQ, in a
    /// scheduled `Deliver`; events and VOQ entries carry ids into it.
    pool: SegPool,
    /// voqs[dst]: per-destination queue at this rack's ToR.
    voqs: Vec<Voq<SegRef>>,
    /// Per port (`[Port as usize]`): when its last launched segment
    /// clears it, and whether a `Service` event for it is queued.
    busy_until: [SimTime; 2],
    pending: [bool; 2],
    /// The destination the EPS uplink tries first.
    eps_rr: usize,
    nic_free: SimTime,

    /// Where every flow's endpoints live (indexed by the global flow id
    /// carried in each segment).
    seats: Arc<[FlowSeat]>,
    /// Resident transports by rack-local id (a flow's sender if it
    /// sources here, its receiver if it sinks here — never both); `None`
    /// until the flow's endpoints are built.
    hosts: Vec<Option<H>>,
    track: Vec<Track>,
    traffic: Vec<Traffic>,
    /// Next deadline wanted by the host (`SimTime::MAX` = none).
    tdeadline: Vec<SimTime>,
    /// Earliest time a live `HostTimer` event will fire (`MAX` = none).
    tarmed: Vec<SimTime>,
    /// Generation guard: a fired event with a stale generation is a
    /// no-op, which is what lets timer *postponement* cost zero queue
    /// operations.
    tgen: Vec<u32>,
    n_senders: usize,
    done_count: usize,
    /// Hosts that closed and have not retired: the candidates the
    /// barrier checks ([`ShardedEmulator::retire`]).
    closing: Vec<u32>,
    /// The ends of the hosts retired so far, in retirement order.
    retired: Vec<HostEnd>,
    /// Running sums of every resident host's observed counters, and
    /// their values when the current day started (observing runs only).
    totals: [u64; 5],
    day_base: [u64; 5],
    /// Per finished day, this rack's share of the [`DayRecord`].
    days: Vec<DayRecord>,
    /// The next sample of the acked total (`MAX` = sampling off), the
    /// interval (`ZERO` = off), and the samples.
    next_sample: SimTime,
    sample_every: SimDuration,
    seq: TimeSeries,

    mail: Arc<Mailboxes>,
    /// `outbox[dst]`: this window's emissions toward rack `dst`, in the
    /// buffer lent by the mailboxes at the first of them and handed back
    /// when the window ends.
    outbox: Vec<Vec<Msg>>,
    /// Parity of the window being simulated: outboxes go to this half of
    /// the mailboxes, the other half is collected.
    parity: usize,
    /// `(arrival, rack, host)` of this window's latest emission.
    last_emit: Option<(SimTime, u32, u32)>,
    /// Earliest arrival emitted this window (`MAX` = nothing emitted): the
    /// barrier needs it to bound the next window, since the destination
    /// has not queued the message yet.
    out_min: SimTime,
    /// Exclusive end of the window this shard may simulate, loaded from
    /// `window_end` as the window begins.
    w_end: SimTime,
    window_end: Arc<AtomicU64>,
    /// Train/batch segments beyond the event that carried them — added
    /// to the queue's pop count so `events` counts one per segment moved.
    extra_events: u64,
    /// Where the segments the hosts' counts do not place are, for the
    /// barrier-time conservation law; written in debug builds only.
    ledger: Ledger,
}

/// The segments in flight inside a rack that no host count places.
/// Counters move only under `cfg!(debug_assertions)`; nothing here feeds
/// a digest or draws RNG.
#[derive(Default)]
struct Ledger {
    /// Scheduled `Enqueue`s not yet popped (waiting on the NIC, or a
    /// clock-deferred launch waiting for its slot).
    on_nic: u64,
    /// Segments collected from the mailboxes into a scheduled `Deliver`
    /// and not yet delivered.
    in_deliver: u64,
}

/// What one resident host ended the run with.
pub(crate) struct HostEnd {
    pub(crate) flow: usize,
    pub(crate) sender: bool,
    /// All zero for a host whose flow never started.
    pub(crate) stats: ConnStats,
    pub(crate) completion: Option<SimTime>,
    pub(crate) error: Option<ConnError>,
}

impl HostEnd {
    /// The end of the host `t` tracks, whose transport is `host` (`None`
    /// if its flow never started).
    fn of<T: Transport + ?Sized>(t: &Track, host: Option<&T>) -> HostEnd {
        HostEnd {
            flow: t.flow as usize,
            sender: t.sender,
            stats: host.map(|h| *h.stats()).unwrap_or_default(),
            completion: t.completion,
            error: host.and_then(|h| h.conn_error()),
        }
    }
}

/// The transport of the host `t` tracks, for an event that calls into
/// it. Nothing reaches a host whose flow has not started, nor one that
/// retired: a flow retires only once nothing is in flight toward either
/// host and neither can act again ([`ShardedEmulator::retire`]).
fn reached<R>(host: Option<R>, t: &Track) -> R {
    match host {
        Some(host) => host,
        None if t.retired => panic!(
            "an event reached flow {}'s retired {}: a flow retires only when both hosts are \
             closed, want no timer, have no notification pending and every segment each \
             emitted has died or been delivered",
            t.flow,
            if t.sender { "sender" } else { "receiver" }
        ),
        None => panic!("events reach started hosts only (flow {})", t.flow),
    }
}

/// One rack's share of a finished run. [`ShardResult`] and
/// [`crate::RunResult`] are two folds of these, with one digest
/// ([`digest_racks`]).
pub(crate) struct RackResult {
    /// Per resident host, in rack-local order.
    pub(crate) hosts: Vec<HostEnd>,
    /// Per-destination VOQs: counters, and in an observed two-rack run
    /// the A→B trace.
    pub(crate) voqs: Vec<Voq<SegRef>>,
    /// Logical events: queue pops plus train/batch segments beyond the
    /// first.
    pub(crate) events: u64,
    pub(crate) faults: FaultInjector,
    pub(crate) impair: ImpairInjector,
    pub(crate) clock: ClockInjector,
    /// Time of the rack's last event.
    pub(crate) end: SimTime,
    /// Sampled acked total of the rack's senders.
    pub(crate) seq: TimeSeries,
    /// Per finished day, the rack's share of the record.
    pub(crate) days: Vec<DayRecord>,
}

/// Every resident host's end, scattered to its flow (global flow order):
/// both results read their per-flow fields from here.
pub(crate) struct FlowEnds {
    pub(crate) sender_stats: Vec<ConnStats>,
    pub(crate) receiver_stats: Vec<ConnStats>,
    pub(crate) completions: Vec<Option<SimTime>>,
    /// The sender's terminal error.
    pub(crate) errors: Vec<Option<ConnError>>,
}

impl FlowEnds {
    /// The hosts of `racks` over `flows` flows.
    pub(crate) fn scatter(flows: usize, racks: &[RackResult]) -> FlowEnds {
        let mut ends = FlowEnds {
            sender_stats: vec![ConnStats::default(); flows],
            receiver_stats: vec![ConnStats::default(); flows],
            completions: vec![None; flows],
            errors: vec![None; flows],
        };
        for h in racks.iter().flat_map(|r| &r.hosts) {
            if h.sender {
                ends.sender_stats[h.flow] = h.stats;
                ends.completions[h.flow] = h.completion;
                ends.errors[h.flow] = h.error;
            } else {
                ends.receiver_stats[h.flow] = h.stats;
            }
        }
        ends
    }
}

/// The one digest of a run, over its racks in rack order: per resident
/// host, in rack-local order, its flow, side, `ConnStats`, completion
/// and error; then per rack each VOQ's drop and CE-mark counters, the
/// rack's events and end time, and the books of each chaos plane.
/// Floats inside `ConnStats` go in by bit pattern, so the comparison is
/// exact. It reads no observation (samples, day records, VOQ traces), so
/// an observer cannot move it. The destructuring makes a field added to
/// [`RackResult`] or [`HostEnd`] and not named here a compile error.
pub(crate) fn digest_racks(racks: &[RackResult]) -> u64 {
    let mut d = Digest::new();
    d.write_usize(racks.len());
    for RackResult { hosts, voqs, events, faults, impair, clock, end, seq: _, days: _ } in racks {
        d.write_usize(hosts.len());
        for HostEnd { flow, sender, stats, completion, error } in hosts {
            d.write_usize(*flow).write_bool(*sender);
            stats.write_digest(&mut d);
            d.write_bool(completion.is_some());
            d.write_u64(completion.map_or(0, SimTime::as_nanos));
            let (kind, n) = match *error {
                None => (0, 0),
                Some(ConnError::RetransmitLimit { retries }) => (1, retries),
                Some(ConnError::PersistTimeout { probes }) => (2, probes),
            };
            d.write_u64(kind).write_u32(n);
        }
        d.write_usize(voqs.len());
        for v in voqs {
            d.write_u64(v.drops).write_u64(v.ce_marks);
        }
        d.write_u64(*events).write_u64(end.as_nanos());
        d.write_u64(faults.books().digest());
        d.write_u64(impair.books().digest());
        d.write_u64(clock.books().digest());
    }
    d.finish()
}

/// The one engine. Construct the N-rack fabric with
/// [`ShardedEmulator::new`], then [`run`](ShardedEmulator::run);
/// `H` boxes the transports (`Send` ones by default, so shards can move
/// to worker threads; the two-rack door uses plain `Box<dyn Transport>`).
pub struct ShardedEmulator<'a, H = Box<dyn Transport + Send + 'a>> {
    shards: Vec<Mutex<RackShard<H>>>,
    mail: Arc<Mailboxes>,
    seats: Arc<[FlowSeat]>,
    windows: Windows,
    hosts: PhantomData<&'a ()>,
}

/// How the barrier bounds a window, and where it publishes the bound.
struct Windows {
    lookahead: SimDuration,
    /// The week; windows end at its edges.
    sched: Schedule,
    /// The instant a `link_failure` fault cuts its circuit day.
    fail_at: Option<SimTime>,
    /// The window's end in ns, read by every rack as it enters the
    /// window; `run_windows`' go signal orders the store before the loads.
    end: Arc<AtomicU64>,
}

impl Windows {
    /// The barrier between two windows: decide whether to stop, and
    /// bound the next window. Its start is the earliest pending event —
    /// queued in a rack, handed off last window and still in a mailbox
    /// (`out_min`), or a late flow's start (`next_start`) — which is the
    /// time the destination's queue will report once it has collected.
    /// Publishes the window's end and returns it.
    fn next<H, R: DerefMut<Target = RackShard<H>>>(
        &self,
        racks: impl Iterator<Item = R>,
        until: SimTime,
        next_start: SimTime,
    ) -> Option<SimTime> {
        let mut all_done = true;
        let mut w_start = next_start;
        for mut g in racks {
            all_done &= g.done_count == g.n_senders;
            let queued = g.q.peek_time().unwrap_or(SimTime::MAX);
            w_start = w_start.min(queued).min(g.out_min);
        }
        if all_done || w_start == SimTime::MAX || w_start > until {
            return None;
        }
        // Windows never span a schedule edge or a circuit failure, so
        // service trains can use the window's matching throughout.
        let mut w_end = (w_start + self.lookahead)
            .min(self.sched.phase_at(w_start).ends())
            .min(until + SimDuration::from_nanos(1));
        if let Some(fail) = self.fail_at.filter(|&f| w_start < f) {
            w_end = w_end.min(fail);
        }
        self.end.store(w_end.as_nanos(), Ordering::Relaxed);
        Some(w_end)
    }
}

/// Results of a sharded multirack run.
#[derive(Debug, Default)]
pub struct ShardResult {
    /// Per-flow sender stats, in global flow order.
    pub sender_stats: Vec<ConnStats>,
    /// Per-flow receiver stats.
    pub receiver_stats: Vec<ConnStats>,
    /// Per-flow sender completion time (the first event at which the
    /// sender reported done), `None` if unfinished.
    pub completions: Vec<Option<SimTime>>,
    /// Whether each flow's sender aborted with a connection error.
    pub sender_errors: Vec<bool>,
    /// Tail drops summed over all VOQs.
    pub drops: u64,
    /// Logical events processed: queue pops plus train/batch segments
    /// beyond the first, summed over racks.
    pub events: u64,
    /// Logical events per rack — `max/mean` of this is the shard
    /// imbalance [`ShardResult::peak_imbalance`] reports.
    pub rack_events: Vec<u64>,
    /// Control-plane fault events applied (summed over racks).
    pub faults_total: u64,
    /// Data-path impairments applied (summed over racks).
    pub impairments_total: u64,
    /// Time-plane effects applied (summed over racks).
    pub clock_total: u64,
    /// Simulated duration (max over racks).
    pub duration: SimDuration,
    /// The racks' one digest, folded before they were consumed.
    digest: u64,
}

impl ShardResult {
    /// Aggregate acknowledged bytes.
    pub fn total_acked(&self) -> u64 {
        self.sender_stats.iter().map(|s| s.bytes_acked).sum()
    }

    /// Peak shard imbalance: max rack event count over the mean
    /// (1.0 = perfectly balanced). Racks with no events count toward
    /// the mean.
    pub fn peak_imbalance(&self) -> f64 {
        let n = self.rack_events.len();
        if n == 0 || self.events == 0 {
            return 1.0;
        }
        let mean = self.events as f64 / n as f64;
        let max = self.rack_events.iter().copied().max().unwrap_or(0) as f64;
        max / mean
    }

    /// The run's one digest (the fold both doors share,
    /// `digest_racks`) — the object of the worker-count invariance
    /// property. At two racks it equals the two-rack door's
    /// [`crate::RunResult::stats_digest`] for the same fabric and flows.
    pub fn stats_digest(&self) -> u64 {
        self.digest
    }

    /// The N-rack fold of `racks` (in rack order) over `flows` flows.
    fn fold(flows: usize, racks: Vec<RackResult>) -> ShardResult {
        let ends = FlowEnds::scatter(flows, &racks);
        let mut res = ShardResult {
            sender_stats: ends.sender_stats,
            receiver_stats: ends.receiver_stats,
            completions: ends.completions,
            sender_errors: ends.errors.iter().map(Option::is_some).collect(),
            digest: digest_racks(&racks),
            ..ShardResult::default()
        };
        for rack in &racks {
            res.drops += rack.voqs.iter().map(|v| v.drops).sum::<u64>();
            res.events += rack.events;
            res.rack_events.push(rack.events);
            res.faults_total += rack.faults.books().stats().total();
            res.impairments_total += rack.impair.books().stats().total();
            res.clock_total += rack.clock.books().stats().total();
            res.duration = res.duration.max(rack.end.saturating_since(SimTime::ZERO));
        }
        res
    }
}

impl<'a> ShardedEmulator<'a> {
    /// Create the sharded fabric with one (sender, receiver) pair per
    /// flow, every flow starting at zero. Transports must be `Send`: a
    /// shard runs on the worker thread it is assigned to, not on the
    /// constructing thread.
    pub fn new(
        cfg: ShardConfig,
        flows: Vec<PairFlow>,
        mut factory: impl FnMut(
            usize,
            &PairFlow,
        ) -> (Box<dyn Transport + Send + 'a>, Box<dyn Transport + Send + 'a>),
    ) -> Self {
        let starts = vec![SimTime::ZERO; flows.len()];
        let mut emu = ShardedEmulator::build(cfg, &flows, starts);
        for (i, f) in flows.iter().enumerate() {
            let (s, r) = factory(i, f);
            emu.install(i, s, r);
        }
        emu
    }

    /// Run the fabric until `until` with up to `workers` threads.
    /// Output is bit-identical for every worker count.
    pub fn run(mut self, until: SimTime, workers: usize) -> ShardResult {
        self.start();
        par::run_windows(
            workers,
            &self.shards,
            |_| self.next_window(until, SimTime::MAX).is_some(),
            |_, shard| shard.run_window(),
        );
        let flows = self.seats.len();
        ShardResult::fold(flows, self.finish(until))
    }
}

/// The worker-count check every N-rack determinism test shares: `flows`
/// over `cfg` until `until`, flow `i` on `endpoints(i)`, acks something,
/// each chaos plane applies at least `fires` (faults, impairments,
/// clock), and the run ends in one digest at workers 1, 2 and 4. The
/// digest folds every host's stats, completion and error and each
/// rack's VOQ counters, events and chaos books, so a worker-dependent
/// order anywhere in the engine moves it; debug builds also check the
/// pool law at every barrier. Returns the run at workers 1.
#[doc(hidden)]
pub fn assert_worker_count_invariant(
    cfg: &ShardConfig,
    flows: &[PairFlow],
    until: SimTime,
    fires: [u64; 3],
    endpoints: impl Fn(usize) -> (Box<dyn Transport + Send>, Box<dyn Transport + Send>),
) -> ShardResult {
    let run = |workers| {
        ShardedEmulator::new(cfg.clone(), flows.to_vec(), |i, _| endpoints(i)).run(until, workers)
    };
    let base = run(1);
    assert!(base.total_acked() > 0, "nothing acked");
    let fired = [base.faults_total, base.impairments_total, base.clock_total];
    assert!(
        fired.iter().zip(fires).all(|(&n, least)| n >= least),
        "the planes applied {fired:?}, fewer than {fires:?}"
    );
    for workers in [2, 4] {
        assert_eq!(run(workers).stats_digest(), base.stats_digest(), "digest moved at workers={workers}");
    }
    base
}

impl<'a, H: DerefMut<Target: Transport>> ShardedEmulator<'a, H> {
    /// The engine over `cfg` with no hosts yet: flow `i` runs
    /// `flows[i]` from `starts[i]`. It observes nothing until
    /// [`ShardedEmulator::set_sample_interval`].
    pub(crate) fn build(cfg: ShardConfig, flows: &[PairFlow], starts: Vec<SimTime>) -> Self {
        let ShardConfig { net, racks } = cfg;
        assert!(racks >= 2 && racks.is_multiple_of(2));
        for f in flows {
            assert!(f.src != f.dst && f.src < racks && f.dst < racks);
        }
        let peer_of: Arc<[Vec<Option<usize>>]> = peer_rows(&net.schedule, racks).into();
        assert!(
            net.schedule.num_tdns() <= net.tdns.len(),
            "the week names TDN {}, which has no parameters",
            net.schedule.num_tdns() - 1
        );
        let lookahead = net.tdns.iter().map(|t| t.one_way).min().unwrap_or(SimDuration::ZERO);
        assert!(
            lookahead > SimDuration::ZERO,
            "conservative lookahead needs a positive minimum one-way latency"
        );
        let fail_at = net.faults.link_failure.map(|lf| {
            net.schedule.day_start(lf.day) + net.schedule.day_len.mul_f64(lf.at_fraction.clamp(0.0, 1.0))
        });
        let mail = Arc::new(Mailboxes::new(racks));
        let end = Arc::new(AtomicU64::new(0));

        // Seat every flow's endpoints: rack-local host ids in global
        // flow order.
        let mut tracks: Vec<Vec<Track>> = vec![Vec::new(); racks];
        let mut seat_host = |rack: usize, flow: usize, sender: bool| {
            let track = Track {
                flow: flow as u32,
                sender,
                start: starts[flow],
                closed: false,
                retired: false,
                completion: None,
                seen: [0; 5],
            };
            tracks[rack].push(track);
            tracks[rack].len() as u32 - 1
        };
        let seats: Arc<[FlowSeat]> = flows
            .iter()
            .enumerate()
            .map(|(i, f)| FlowSeat {
                src_rack: f.src as u32,
                dst_rack: f.dst as u32,
                s_local: seat_host(f.src, i, true),
                r_local: seat_host(f.dst, i, false),
                start: starts[i],
            })
            .collect();

        let eps_scheduled = net.schedule.days.contains(&TdnId(0));
        let net = Arc::new(net);
        let shards = tracks
            .into_iter()
            .enumerate()
            .map(|(r, track)| {
                let rng = DetRng::new(net.seed).fork(RACK_STREAM_BASE + r as u64);
                let n = track.len();
                let n_senders = track.iter().filter(|t| t.sender).count();
                Mutex::new(RackShard {
                    r,
                    racks,
                    q: TimerWheel::new(),
                    faults: FaultInjector::new(net.faults.clone(), rng.fork(FAULT_STREAM_LABEL)),
                    impair: ImpairInjector::new(net.impair.clone(), rng.fork(IMPAIR_STREAM_LABEL)),
                    clock: ClockInjector::new(net.clock.clone(), rng.fork(CLOCK_STREAM_LABEL)),
                    rng,
                    notify_model: NotifyModel::new(net.notify),
                    net: Arc::clone(&net),
                    peer_of: Arc::clone(&peer_of),
                    eps_scheduled,
                    day: 0,
                    day_tdn: TdnId(0),
                    peer: None,
                    eps_on: !eps_scheduled,
                    pool: SegPool::new(),
                    voqs: (0..racks).map(|_| Voq::untraced(net.voq)).collect(),
                    busy_until: [SimTime::ZERO; 2],
                    pending: [false; 2],
                    eps_rr: 0,
                    nic_free: SimTime::ZERO,
                    seats: Arc::clone(&seats),
                    hosts: (0..n).map(|_| None).collect(),
                    n_senders,
                    track,
                    traffic: vec![Traffic::default(); n],
                    tdeadline: vec![SimTime::MAX; n],
                    tarmed: vec![SimTime::MAX; n],
                    tgen: vec![0; n],
                    done_count: 0,
                    closing: Vec::new(),
                    retired: Vec::new(),
                    totals: [0; 5],
                    day_base: [0; 5],
                    days: Vec::new(),
                    next_sample: SimTime::MAX,
                    sample_every: SimDuration::ZERO,
                    seq: TimeSeries::new("seq"),
                    mail: Arc::clone(&mail),
                    outbox: (0..racks).map(|_| Vec::new()).collect(),
                    parity: 1,
                    last_emit: None,
                    out_min: SimTime::MAX,
                    w_end: SimTime::ZERO,
                    window_end: Arc::clone(&end),
                    extra_events: 0,
                    ledger: Ledger::default(),
                })
            })
            .collect();

        ShardedEmulator {
            shards,
            mail,
            seats,
            windows: Windows {
                lookahead,
                sched: net.schedule.clone(),
                fail_at,
                end,
            },
            hosts: PhantomData,
        }
    }

    /// Hand flow `i`'s endpoints to the racks it spans.
    pub(crate) fn install(&mut self, i: usize, sender: H, receiver: H) {
        let seat = self.seats[i];
        self.rack(seat.src_rack).hosts[seat.s_local as usize] = Some(sender);
        self.rack(seat.dst_rack).hosts[seat.r_local as usize] = Some(receiver);
    }

    fn rack(&mut self, r: u32) -> &mut RackShard<H> {
        self.shards[r as usize].get_mut().expect("shard poisoned")
    }

    /// Build late flow `i`'s endpoints with `factory`, at its start as
    /// the sender's clock reads it, install them, and have both hosts send
    /// at the start. Called at the barrier before the window holding the
    /// start.
    pub(crate) fn start_flow(&mut self, i: usize, factory: &mut dyn FnMut(usize, SimTime) -> (H, H)) {
        let seat = self.seats[i];
        let at = self.rack(seat.src_rack).clock.perceived(seat.s_local as usize, seat.start);
        let (s, r) = factory(i, at);
        self.install(i, s, r);
        for (rack, host) in [(seat.src_rack, seat.s_local), (seat.dst_rack, seat.r_local)] {
            self.rack(rack).q.schedule(seat.start, REv::Start { host });
        }
    }

    /// Observe the run: every rack with senders samples its acked total
    /// every `every`, every rack keeps day records, and rack 0 traces
    /// its VOQ toward rack 1 (the two-rack door's A→B VOQ). Observation
    /// feeds nothing back, so the digest is the same with or without it.
    /// Call before the run starts.
    pub(crate) fn set_sample_interval(&mut self, every: SimDuration) {
        assert!(every > SimDuration::ZERO, "a sampling interval must be positive");
        for s in &mut self.shards {
            let g = s.get_mut().expect("shard poisoned");
            g.sample_every = every;
            // A rack without senders has nothing to sample.
            g.next_sample = if g.n_senders > 0 { SimTime::ZERO } else { SimTime::MAX };
        }
        let a = self.rack(0);
        a.voqs[1] = Voq::new("voq", a.net.voq);
    }

    /// Seed every rack's day 0 and flush the hosts installed so far.
    pub(crate) fn start(&mut self) {
        for s in &mut self.shards {
            s.get_mut().expect("shard poisoned").start();
        }
    }

    /// Run one window on every rack, in rack order, on this thread.
    pub(crate) fn run_window(&mut self) {
        for s in &mut self.shards {
            s.get_mut().expect("shard poisoned").run_window();
        }
    }

    /// End the run: every rack's share, in rack order. Unless every flow
    /// finished, the state is final up to `until`, and the samples run
    /// to it.
    pub(crate) fn finish(self, until: SimTime) -> Vec<RackResult> {
        let mut racks: Vec<RackShard<H>> = self
            .shards
            .into_iter()
            .map(|s| s.into_inner().expect("shard poisoned"))
            .collect();
        if !racks.iter().all(|g| g.done_count == g.n_senders) {
            for g in &mut racks {
                g.sample_until(until + SimDuration::from_nanos(1));
            }
        }
        racks.into_iter().map(RackShard::finish).collect()
    }

    /// The barrier-time conservation law (debug builds): summed over
    /// every host of every rack, retired ones included, each segment a
    /// host emitted (polled, or duplicated on the wire) has died in its
    /// rack (tail-dropped, or dropped with a cause at launch), been
    /// delivered, or is waiting on a NIC, in a VOQ, in a mailbox or in a
    /// scheduled `Deliver`. And the pool law: the slots live in the
    /// racks' pools are exactly the segments waiting on a NIC, in a VOQ
    /// or in a scheduled `Deliver` — an id leaked, or released while
    /// something still holds it, breaks the equality.
    fn assert_conserved(&self) {
        let (mut made, mut found) = (0u64, self.mail.in_flight());
        let (mut live, mut held) = (0u64, 0u64);
        for s in &self.shards {
            let g = s.lock().expect("shard poisoned");
            debug_assert!(g.outbox.iter().all(Vec::is_empty), "outbox kept past its window");
            let l = &g.ledger;
            let queued = g.voqs.iter().map(|v| v.len() as u64).sum::<u64>();
            for t in &g.traffic {
                made += t.emitted;
                found += t.died + t.delivered;
            }
            found += l.on_nic + queued + l.in_deliver;
            live += g.pool.live();
            held += l.on_nic + queued + l.in_deliver;
        }
        assert_eq!(made, found, "segment conservation violated at a window barrier");
        assert_eq!(live, held, "segment pool law violated at a window barrier");
    }

    /// Retire every flow that has left the network (DESIGN.md §13): both
    /// hosts closed, neither wanting a timer or awaiting a notification,
    /// and each direction balanced — what one host emitted, less what
    /// died in its rack, was delivered to the other. Then nothing is in
    /// flight toward either host and neither can act again, so nothing
    /// will reach them: their ends are kept for the fold and their
    /// transports dropped. Runs at the window barrier; its work grows
    /// with the hosts that have closed and not retired, not with the
    /// hosts.
    fn retire(&self) {
        let quiet = |g: &RackShard<H>, h: usize| {
            g.track[h].closed && g.traffic[h].notices == 0 && g.tdeadline[h] == SimTime::MAX
        };
        for s in &self.shards {
            let mut g = s.lock().expect("shard poisoned");
            let mut closing = std::mem::take(&mut g.closing);
            closing.retain(|&h| {
                let (h, t) = (h as usize, g.track[h as usize]);
                if t.retired {
                    return false; // with its peer, from the peer's rack
                }
                let seat = self.seats[t.flow as usize];
                let (rack, p) = if t.sender {
                    (seat.dst_rack, seat.r_local as usize)
                } else {
                    (seat.src_rack, seat.s_local as usize)
                };
                // The peer lives in another rack: a flow spans two.
                let mut peer = self.shards[rack as usize].lock().expect("shard poisoned");
                let (a, b) = (g.traffic[h], peer.traffic[p]);
                let retire = quiet(&g, h)
                    && quiet(&peer, p)
                    && a.emitted - a.died == b.delivered
                    && b.emitted - b.died == a.delivered;
                if retire {
                    g.retire_host(h);
                    peer.retire_host(p);
                }
                !retire
            });
            g.closing = closing;
        }
    }

    /// The barrier between two windows, which both doors run: check the
    /// laws (debug builds), bound the next window, and retire finished
    /// flows; returns the window's end. Retiring reads and writes no
    /// queue, mailbox or done count, so it may follow the bound, and one
    /// lock per rack serves both.
    pub(crate) fn next_window(&self, until: SimTime, next_start: SimTime) -> Option<SimTime> {
        if cfg!(debug_assertions) {
            self.assert_conserved();
        }
        let mut closing = false;
        let racks = self.shards.iter().map(|s| s.lock().expect("shard poisoned"));
        let end = self.windows.next(racks.inspect(|g| closing |= !g.closing.is_empty()), until, next_start);
        // Most barriers find no closed host waiting: skip retirement.
        if closing {
            self.retire();
        }
        end
    }
}

impl<H: DerefMut<Target: Transport>> RackShard<H> {
    /// Seed day 0, and flush and check every host already installed
    /// (zero-byte flows are done at once).
    fn start(&mut self) {
        self.q.schedule(SimTime::ZERO, REv::DayStart { day: 0 });
        for h in 0..self.hosts.len() {
            if self.hosts[h].is_some() {
                self.flush(SimTime::ZERO, h);
            }
        }
        for h in 0..self.hosts.len() {
            if self.hosts[h].is_some() {
                self.touch(SimTime::ZERO, h);
            }
        }
    }

    /// Enter the next window: flip the mailbox parity and queue what
    /// the other racks sent to this one during the last window — before
    /// anything is popped, so the arrivals take the same place in the
    /// queue's FIFO order at every worker count. Each batch is copied
    /// into this rack's pool as one chain.
    fn begin_window(&mut self) {
        self.parity ^= 1;
        self.last_emit = None;
        self.out_min = SimTime::MAX;
        let (q, ledger, pool) = (&mut self.q, &mut self.ledger, &mut self.pool);
        self.mail.collect(self.parity ^ 1, self.r, |run| {
            if cfg!(debug_assertions) {
                ledger.in_deliver += run.len() as u64;
            }
            let head = pool.insert(run[0].seg);
            let mut tail = head;
            for m in &run[1..] {
                let id = pool.insert(m.seg);
                pool.chain(tail, id);
                tail = id;
            }
            q.schedule(run[0].t, REv::Deliver { host: run[0].host, head });
        });
    }

    /// Leave the window: hand every non-empty outbox back to the
    /// mailboxes.
    fn end_window(&mut self) {
        for (dst, outbox) in self.outbox.iter_mut().enumerate() {
            if !outbox.is_empty() {
                self.mail.hand_off(self.parity, self.r, dst, outbox);
            }
        }
    }

    /// Collect the mailboxes, process every local event strictly before
    /// `w_end`, hand off what that emitted.
    fn run_window(&mut self) {
        self.w_end = SimTime::from_nanos(self.window_end.load(Ordering::Relaxed));
        self.begin_window();
        while let Some((now, ev)) = self.q.pop_before(self.w_end) {
            self.sample_until(now);
            let touched = match &ev {
                REv::Deliver { host, .. } | REv::Notify { host, .. } | REv::Start { host } => {
                    Some(*host as usize)
                }
                _ => None,
            };
            match ev {
                REv::Deliver { host, head } => {
                    let h = host as usize;
                    let pnow = self.clock.perceived(h, now);
                    let t = reached(self.hosts[h].as_deref_mut(), &self.track[h]);
                    // The transport reads each segment where it lies.
                    let (mut id, mut n) = (head, 0u64);
                    while id != NIL {
                        let next = self.pool.next(id);
                        t.on_segment(pnow, self.pool.get(id));
                        self.pool.release(id);
                        id = next;
                        n += 1;
                    }
                    self.extra_events += n - 1;
                    self.traffic[h].delivered += n;
                    if cfg!(debug_assertions) {
                        self.ledger.in_deliver -= n;
                    }
                    self.flush(now, h);
                }
                REv::Enqueue { dst, seg } => {
                    let dst = dst as usize;
                    if cfg!(debug_assertions) {
                        self.ledger.on_nic -= 1;
                    }
                    if self.voqs[dst].enqueue(now, self.pool.seg_ref(seg)) {
                        let port = if self.peer == Some(dst) { Port::Circuit } else { Port::Eps };
                        self.kick(now, port);
                    } else {
                        let src = self.source(seg);
                        self.traffic[src].died += 1;
                        self.pool.release(seg); // tail drop
                    }
                }
                REv::Service { port } => self.serve(now, port),
                REv::DayStart { day } => self.on_day_start(now, day),
                REv::NightStart { day } => self.on_night_start(now, day),
                REv::Notify { host, tdn, gen } => {
                    let h = host as usize;
                    self.traffic[h].notices -= 1;
                    // A skewed host reads the notification against its
                    // own clock: exactly what desynchronizes its
                    // slot-phase estimate.
                    let pnow = self.clock.perceived(h, now);
                    let t = reached(self.hosts[h].as_deref_mut(), &self.track[h]);
                    t.on_tdn_notification(pnow, tdn, gen);
                    self.flush(now, h);
                }
                REv::HostTimer { host, tgen } => self.host_timer(now, host as usize, tgen),
                REv::Start { host } => self.flush(now, host as usize),
                REv::LinkFail { day } => {
                    // The light path drops mid-day and stays dark until
                    // the next day; segments in flight complete.
                    if self.day == day && self.peer.take().is_some() && self.next_dst(Port::Eps).is_some() {
                        self.kick(now, Port::Eps);
                    }
                }
                REv::Prepare { day } => self.on_prepare(now, day),
            }
            if let Some(h) = touched {
                self.touch(now, h);
            }
        }
        self.sample_until(self.w_end);
        self.end_window();
    }

    /// The post-event step for a host the event called into: refresh
    /// its closed flag (a host that closes becomes a candidate for
    /// retirement), record a sender's completion the first time it
    /// reports done, and fold its counters' progress into the rack's
    /// running totals.
    fn touch(&mut self, now: SimTime, h: usize) {
        let observing = self.observing();
        let host = reached(self.hosts[h].as_deref(), &self.track[h]);
        let t = &mut self.track[h];
        if host.is_done() && !t.closed {
            self.closing.push(h as u32);
        }
        t.closed = host.is_done();
        if t.sender && t.closed && t.completion.is_none() {
            t.completion = Some(now);
            self.done_count += 1;
        }
        if observing {
            let seen = Self::observed(host.stats(), t.sender);
            for ((total, cur), was) in self.totals.iter_mut().zip(seen).zip(t.seen) {
                *total += cur - was;
            }
            t.seen = seen;
        }
    }

    /// Whether the caller asked to observe the run
    /// ([`ShardedEmulator::set_sample_interval`]).
    fn observing(&self) -> bool {
        self.sample_every > SimDuration::ZERO
    }

    /// What a host's stats add to the observation: a sender's acked bytes,
    /// reordering events, reorder-marked packets and retransmissions,
    /// and a receiver's spurious retransmissions. Samples read the
    /// first, [`DayRecord`]s the other four.
    fn observed(s: &ConnStats, sender: bool) -> [u64; 5] {
        if sender {
            [s.bytes_acked, s.reorder_events, s.reorder_marked_pkts, s.retransmits, 0]
        } else {
            [0, 0, 0, 0, s.spurious_retransmits]
        }
    }

    /// Debug builds: the running totals equal a scan of every host,
    /// retired ones by their ends.
    fn check_totals(&self) {
        if cfg!(debug_assertions) {
            let mut scan = [0u64; 5];
            let live = self.hosts.iter().zip(&self.track).filter_map(|(host, t)| {
                host.as_deref().map(|host| Self::observed(host.stats(), t.sender))
            });
            let retired = self.retired.iter().map(|e| Self::observed(&e.stats, e.sender));
            for seen in live.chain(retired) {
                scan.iter_mut().zip(seen).for_each(|(sum, v)| *sum += v);
            }
            assert_eq!(self.totals, scan, "running totals diverged from a scan of every host");
        }
    }

    /// Record the acked total at every sample time before `t`; every
    /// event at or before a sample time has run.
    fn sample_until(&mut self, t: SimTime) {
        while self.next_sample < t {
            self.check_totals();
            self.seq.push(self.next_sample, self.totals[0] as f64);
            self.next_sample += self.sample_every;
        }
    }

    /// Close the books on `day` (which served `self.day_tdn`): its
    /// record is what the totals gained since the day started.
    fn record_day(&mut self, day: u64) {
        self.check_totals();
        let mut rec = DayRecord {
            day,
            tdn: self.day_tdn,
            ..DayRecord::default()
        };
        for (c, k) in rec.counters_mut().into_iter().zip(1..) {
            *c = self.totals[k] - self.day_base[k];
        }
        self.day_base = self.totals;
        self.days.push(rec);
    }

    /// Drain a host's sends through the rack NIC, then maintain its lazy
    /// timer. The host paces and arms timers against its perceived
    /// clock; the deadline it reports is converted to true time (skew is
    /// locally constant over one re-arm). No cancel is ever issued:
    /// pulling a timer *earlier* bumps the generation and schedules
    /// anew; pushing it *later* is just the `tdeadline` write, and the
    /// already-armed event rearms itself when it fires stale.
    fn flush(&mut self, now: SimTime, h: usize) {
        let pnow = self.clock.perceived(h, now);
        let host = reached(self.hosts[h].as_deref_mut(), &self.track[h]);
        while let Some(seg) = host.poll_send(pnow) {
            let seat = self.seats[seg.flow.0 as usize];
            let dst = match seg.dir {
                Direction::DataPath => seat.dst_rack,
                Direction::AckPath => seat.src_rack,
            };
            let start = self.nic_free.max(now);
            let done = start
                + SimDuration::serialization(u64::from(seg.wire_size()), self.net.host_rate_bps);
            self.nic_free = done;
            self.traffic[h].emitted += 1;
            if cfg!(debug_assertions) {
                self.ledger.on_nic += 1;
            }
            let seg = self.pool.insert(seg);
            self.q.schedule(done, REv::Enqueue { dst, seg });
        }
        let want = host
            .next_timer()
            .map_or(SimTime::MAX, |pt| (now + pt.saturating_since(pnow)).max(now));
        self.tdeadline[h] = want;
        if want < self.tarmed[h] {
            self.tgen[h] = self.tgen[h].wrapping_add(1);
            self.tarmed[h] = want;
            self.q.schedule(
                want,
                REv::HostTimer {
                    host: h as u32,
                    tgen: self.tgen[h],
                },
            );
        }
    }

    /// A `HostTimer` event for host `h`. A stale one returns before it
    /// touches the host, which may have retired since it was armed.
    fn host_timer(&mut self, now: SimTime, h: usize, gen: u32) {
        if gen != self.tgen[h] {
            return; // superseded by an earlier rearm
        }
        self.tarmed[h] = SimTime::MAX;
        let deadline = self.tdeadline[h];
        if deadline == SimTime::MAX {
            return; // disarmed since
        }
        if deadline <= now {
            let pnow = self.clock.perceived(h, now);
            reached(self.hosts[h].as_deref_mut(), &self.track[h]).on_timer(pnow);
            self.flush(now, h);
            self.touch(now, h);
        } else {
            // Fired early (the deadline moved later, lazily): rearm at
            // the real deadline.
            self.tgen[h] = self.tgen[h].wrapping_add(1);
            self.tarmed[h] = deadline;
            self.q.schedule(
                deadline,
                REv::HostTimer {
                    host: h as u32,
                    tgen: self.tgen[h],
                },
            );
        }
    }

    /// Wake `port`: queue a train for when its last segment clears it,
    /// unless one is queued already or the port is dark (no circuit, or
    /// a scheduled EPS off its TDN-0 days).
    fn kick(&mut self, now: SimTime, port: Port) {
        let lit = if port == Port::Circuit { self.peer.is_some() } else { self.eps_on };
        let p = port as usize;
        if lit && !self.pending[p] {
            self.q.schedule(self.busy_until[p].max(now), REv::Service { port });
            self.pending[p] = true;
        }
    }

    /// The TDN `port` serves on: today's on the circuit, TDN 0 on the EPS.
    fn port_tdn(&self, port: Port) -> TdnId {
        match port {
            Port::Circuit => self.day_tdn,
            Port::Eps => TdnId(0),
        }
    }

    /// The destination `port` serves next, if the port is lit and that
    /// destination holds a segment eligible on it: today's peer on the
    /// circuit; on the EPS, round-robin from `eps_rr`, the first
    /// destination that rides it (circuit traffic does not).
    fn next_dst(&self, port: Port) -> Option<usize> {
        let tdn = Some(self.port_tdn(port));
        match port {
            Port::Circuit => self.peer.filter(|&d| self.voqs[d].has_eligible(tdn)),
            Port::Eps if self.eps_on => (0..self.racks)
                .map(|k| (self.eps_rr + k) % self.racks)
                .find(|&d| d != self.r && self.peer != Some(d) && self.voqs[d].has_eligible(tdn)),
            Port::Eps => None,
        }
    }

    /// Serve `port` as a train: launch its eligible segments
    /// back-to-back, each as the previous one clears the port, until
    /// nothing is eligible, the window ends, or the rack's next event
    /// comes due. So every segment holds its VOQ slot until it launches,
    /// exactly as one event per segment would. Window ends and the rack's
    /// own queue are worker-count independent, so the train is too.
    fn serve(&mut self, now: SimTime, port: Port) {
        self.pending[port as usize] = false;
        let Some(mut dst) = self.next_dst(port) else { return };
        // Nothing a launch schedules here lands before the window ends (a
        // clock `Defer` waits for the next day start), so the queue's
        // head now bounds the whole train.
        let next = self.q.peek_time().unwrap_or(SimTime::MAX);
        let tdn = Some(self.port_tdn(port));
        let mut at = now;
        loop {
            if port == Port::Eps {
                self.eps_rr = (dst + 1) % self.racks;
            }
            let item = self.voqs[dst].dequeue_eligible(at, tdn).expect("next_dst checked");
            at += self.launch(at, item, port, dst);
            self.busy_until[port as usize] = at;
            if at >= self.w_end || next < at {
                // The window end resumes a train that has work left; the
                // rack's next event resumes it after that event, whatever
                // the VOQ then holds.
                if at < self.w_end || self.next_dst(port).is_some() {
                    self.q.schedule(at, REv::Service { port });
                    self.pending[port as usize] = true;
                }
                return;
            }
            let Some(d) = self.next_dst(port) else { return };
            dst = d;
            self.extra_events += 1;
        }
    }

    /// The week's row for day `day`.
    fn row(&self, day: u64) -> &[Option<usize>] {
        &self.peer_of[(day % self.peer_of.len() as u64) as usize]
    }

    /// Launch the dequeued segment from this rack's ToR toward `dst` at
    /// `at`, running it through the chaos pipeline in fixed order — clock
    /// → EPS jitter → EPS transit faults → wire impairments — reading and
    /// rewriting it in its pool slot, and emitting any surviving copies
    /// toward the destination rack. Every path out of here releases the
    /// slot or re-queues its id. Returns the serialization time the
    /// port's slot consumed.
    fn launch(&mut self, at: SimTime, item: SegRef, port: Port, dst: usize) -> SimDuration {
        let id = item.id;
        let mut tdn = self.port_tdn(port);
        let seg = self.pool.get_mut(id);
        seg.ecn = item.ecn; // the VOQ's CE mark lands in the slot
        let (wire_size, has_payload) = (u64::from(seg.wire_size()), seg.has_payload());
        let true_ser = SimDuration::serialization(wire_size, self.net.tdn(tdn).rate_bps);
        // Time plane: the launching host is always resident (data
        // launches at the flow's source rack, acks at its destination).
        if !self.clock.is_inert() {
            let host = self.source(id);
            match self.clock.on_send(host, at, &self.net.schedule, self.net.guard_band) {
                ClockVerdict::Send => {}
                ClockVerdict::GuardDrop => {
                    self.drop_seg(id);
                    return true_ser; // slot burned, segment gone
                }
                ClockVerdict::Defer => {
                    // Held at the ToR until the next slot opens.
                    let next = self.net.schedule.day_start(self.net.schedule.day_number(at) + 1);
                    if cfg!(debug_assertions) {
                        self.ledger.on_nic += 1;
                    }
                    self.q.schedule(next, REv::Enqueue { dst: dst as u32, seg: id });
                    return true_ser;
                }
                ClockVerdict::WrongTdn { perceived_day } => {
                    // The host launches under the network it thinks is
                    // active: stale parameters and marking.
                    tdn = if self.row(perceived_day)[self.r] == Some(dst) {
                        self.net.schedule.day_tdn(perceived_day)
                    } else {
                        TdnId(0)
                    };
                }
            }
        }
        let p = *self.net.tdn(tdn);
        if self.net.circuit_marking && is_circuit(tdn) {
            self.pool.get_mut(id).circuit_mark = true;
        }
        let ser = SimDuration::serialization(wire_size, p.rate_bps);
        let jitter = match p.jitter {
            Some((prob, mean)) if self.rng.chance(prob) => {
                SimDuration::from_nanos(self.rng.exponential(mean.as_nanos() as f64) as u64)
            }
            _ => SimDuration::ZERO,
        };
        // EPS transit faults (burst windows) apply on the packet
        // network only. A corrupted data segment flows on, to be caught
        // by the receiver's payload checksum; a corrupted pure ACK is a
        // loss.
        if port == Port::Eps {
            match self.faults.on_transit(at) {
                EpsVerdict::Pass => {}
                EpsVerdict::Corrupt if has_payload => self.mangle(id),
                EpsVerdict::Drop | EpsVerdict::Corrupt => {
                    self.drop_seg(id);
                    return ser;
                }
            }
        }
        let arrive = at + ser + p.one_way + jitter;
        match self.impair.on_wire(at) {
            ImpairVerdict::Pass => self.emit(arrive, id),
            ImpairVerdict::Delay(extra) => self.emit(arrive + extra, id),
            ImpairVerdict::Duplicate(lag) => {
                let src = self.source(id);
                self.traffic[src].emitted += 1;
                // The copy is a segment of its own from here on.
                let dup = self.pool.insert(*self.pool.get(id));
                self.emit(arrive, id);
                self.emit(arrive + lag, dup);
            }
            ImpairVerdict::Corrupt if has_payload => {
                self.mangle(id);
                self.emit(arrive, id);
            }
            ImpairVerdict::Drop | ImpairVerdict::Corrupt => self.drop_seg(id),
        }
        ser
    }

    /// Damage the payload checksum of the segment in slot `id`. The
    /// fixed mask keeps corruption deterministic; a zero result would
    /// read as "unstamped", so it becomes 1.
    fn mangle(&mut self, id: u32) {
        let seg = self.pool.get_mut(id);
        let m = seg.payload_csum ^ 0x5A5A_5A5A;
        seg.payload_csum = if m == 0 { 1 } else { m };
    }

    /// The segment in slot `id` left the fabric at launch: a guard-band
    /// drop, an EPS burst's drop, an impairment loss, or a corrupted pure
    /// ACK.
    fn drop_seg(&mut self, id: u32) {
        let src = self.source(id);
        self.traffic[src].died += 1;
        self.pool.release(id);
    }

    /// The resident host that emitted the segment in slot `id`: a flow's
    /// data leaves from its sender's rack, its acks from its receiver's.
    fn source(&self, id: u32) -> usize {
        let seg = self.pool.get(id);
        let seat = self.seats[seg.flow.0 as usize];
        match seg.dir {
            Direction::DataPath => seat.s_local as usize,
            Direction::AckPath => seat.r_local as usize,
        }
    }

    /// Copy the segment in slot `id` into this window's outbox for its
    /// destination rack — which collects it at the start of its next
    /// window — and release the slot.
    fn emit(&mut self, arrive: SimTime, id: u32) {
        let seg = self.pool.get(id);
        let seat = self.seats[seg.flow.0 as usize];
        let (rack, host) = match seg.dir {
            Direction::DataPath => (seat.dst_rack, seat.r_local),
            Direction::AckPath => (seat.src_rack, seat.s_local),
        };
        debug_assert!(
            arrive >= self.w_end,
            "cross-rack arrival inside the window violates the lookahead"
        );
        let key = Some((arrive, rack, host));
        let outbox = &mut self.outbox[rack as usize];
        if outbox.is_empty() {
            self.mail.lend(self.parity, self.r, rack as usize, outbox);
        }
        outbox.push(Msg {
            t: arrive,
            host,
            joins_prev: self.last_emit == key,
            seg: *seg,
        });
        self.last_emit = key;
        self.out_min = self.out_min.min(arrive);
        self.pool.release(id);
    }

    fn on_day_start(&mut self, now: SimTime, day: u64) {
        if day > 0 && self.observing() {
            self.record_day(day - 1);
        }
        // A stuck rotor replays the frozen day's row and TDN; a failed
        // circuit day may truncate or vanish. Both ends of every circuit
        // derive the same fate from the plan; rack 0 counts it.
        let sched_day = self.faults.schedule_day(day);
        let tdn = self.net.schedule.day_tdn(sched_day);
        let fate = self.faults.day_fate(day, tdn);
        if self.r == 0 {
            self.faults.record_day(day, sched_day, fate);
        }
        self.day = day;
        self.day_tdn = tdn;
        self.peer = match fate {
            DayFate::Absent => None,
            _ => self.row(sched_day)[self.r],
        };
        self.eps_on = !self.eps_scheduled || tdn == TdnId(0);
        if let DayFate::Truncated(frac) = fate {
            let at = now + self.net.schedule.day_len.mul_f64(frac);
            self.q.schedule(at, REv::LinkFail { day });
        }

        // Notify resident hosts of the TDN their pair rides today (none
        // on an absent day: the outage is unannounced). The gen is the
        // day number, monotone at the ToR. Latency and the fault verdict
        // are drawn, in slot order, for the hosts that can hear the day:
        // open at this day start, with a flow that starts no later than
        // the model's worst-case latency for it from now. A delivery is
        // only scheduled to a host that is live when it lands — its flow
        // has started by then, and it had not closed by this day start.
        // The original and a duplicate are judged each at its own
        // delivery time.
        if fate != DayFate::Absent {
            // `self.row(sched_day)`, borrowing only its field.
            let row = &self.peer_of[(sched_day % self.peer_of.len() as u64) as usize];
            for (h, t) in self.track.iter().enumerate() {
                let reach = self.notify_model.worst_case_total(t.flow as usize + 1);
                if t.closed || t.start > now + reach {
                    continue;
                }
                let seat = self.seats[t.flow as usize];
                let connected = row[seat.src_rack as usize] == Some(seat.dst_rack as usize);
                let pair_tdn = if connected { tdn } else { TdnId(0) };
                let lat = self.notify_model.sample(&mut self.rng, t.flow as usize).total();
                let side = u8::from(!t.sender);
                match self.faults.on_notify(day, t.flow as usize, side) {
                    NotifyVerdict::Drop => {}
                    NotifyVerdict::Deliver { extra, duplicate } => {
                        let base = now + lat + extra;
                        let host = h as u32;
                        for at in [Some(base), duplicate.map(|lag| base + lag)].into_iter().flatten() {
                            if t.start <= at {
                                self.traffic[h].notices += 1;
                                self.q.schedule(at, REv::Notify { host, tdn: pair_tdn, gen: day });
                            }
                        }
                    }
                }
            }
        }

        // retcpdyn: the prepare lead of the *next* day, if it is a
        // circuit day.
        if self.net.retcpdyn {
            let next = day + 1;
            if is_circuit(self.net.schedule.day_tdn(next)) {
                let at = self.net.schedule.day_start(next) - PREPARE_LEAD;
                if at >= now {
                    self.q.schedule(at, REv::Prepare { day: next });
                }
            }
        }

        // Wake each port that has work under the new matching.
        for port in [Port::Circuit, Port::Eps] {
            if self.next_dst(port).is_some() {
                self.kick(now, port);
            }
        }
        self.q
            .schedule(now + self.net.schedule.day_len, REv::NightStart { day });
    }

    fn on_night_start(&mut self, now: SimTime, day: u64) {
        self.peer = None;
        self.eps_on = !self.eps_scheduled;
        // A circuit day just ended: restore the VOQ caps (retcpdyn). The
        // *effective* TDN (a frozen day replays another) decides.
        if self.net.retcpdyn && is_circuit(self.day_tdn) {
            for v in &mut self.voqs {
                v.reset_cap();
            }
        }
        self.q
            .schedule(now + self.net.schedule.night_len, REv::DayStart { day: day + 1 });
        // Traffic that was circuit-bound now needs the EPS.
        if self.next_dst(Port::Eps).is_some() {
            self.kick(now, Port::Eps);
        }
    }

    /// retcpdyn, one prepare lead before circuit day `day`: enlarge the
    /// VOQ toward that day's peer and tell the started, open senders
    /// whose flows it carries to ramp. A closed host hears nothing from
    /// its ToR, the prepare signal included.
    fn on_prepare(&mut self, now: SimTime, day: u64) {
        let Some(peer) = self.row(day)[self.r] else { return };
        self.voqs[peer].set_cap(ENLARGED_CAP);
        for h in 0..self.track.len() {
            let t = self.track[h];
            if t.sender
                && !t.closed
                && t.start <= now
                && self.seats[t.flow as usize].dst_rack as usize == peer
            {
                let pnow = self.clock.perceived(h, now);
                reached(self.hosts[h].as_deref_mut(), &t).on_circuit_prepare(pnow);
                self.flush(now, h);
                self.touch(now, h);
            }
        }
    }

    /// Take host `h`'s end and drop its transport
    /// ([`ShardedEmulator::retire`]).
    fn retire_host(&mut self, h: usize) {
        let host = self.hosts[h].take().expect("a closed host has started");
        let t = &mut self.track[h];
        t.retired = true;
        // Grow by an eighth, not by doubling: every end is kept until
        // the run finishes, and a doubled buffer's idle tail raised
        // `short_incast`'s TDTCP leg peak by 107 kB
        // (`tests/alloc_ledger.rs`).
        if self.retired.len() == self.retired.capacity() {
            self.retired.reserve_exact(self.retired.len() / 8 + 16);
        }
        self.retired.push(HostEnd::of(t, Some(&*host)));
    }

    /// The rack's share of the run.
    fn finish(self) -> RackResult {
        let mut hosts = self.retired;
        hosts.reserve_exact(self.hosts.len() - hosts.len());
        for (host, t) in self.hosts.iter().zip(&self.track) {
            if !t.retired {
                hosts.push(HostEnd::of(t, host.as_deref()));
            }
        }
        // A rack seats at most one host per flow, in flow order, so flow
        // order is rack-local order.
        hosts.sort_unstable_by_key(|e| e.flow);
        RackResult {
            hosts,
            events: self.q.events_processed() + self.extra_events,
            end: self.q.now(),
            voqs: self.voqs,
            faults: self.faults,
            impair: self.impair,
            clock: self.clock,
            seq: self.seq,
            days: self.days,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SlotEdgePolicy;
    use crate::faults::{LinkFailure, ScheduleFreeze};
    use tcp::cc::{CcConfig, Cubic, ReTcp, ReTcpConfig};
    use tcp::{Config, Connection, FlowId, Segment};
    use wire::Ecn;

    type Pair = (Box<dyn Transport + Send>, Box<dyn Transport + Send>);

    fn pair(i: usize, bytes: u64, cc: impl Fn() -> Box<dyn tcp::CongestionControl>) -> Pair {
        let cfg = Config {
            bytes_to_send: bytes,
            ..Config::default()
        };
        let flow = FlowId(i as u32);
        (
            Box::new(Connection::connect(flow, cfg.clone(), cc(), SimTime::ZERO)),
            Box::new(Connection::listen(flow, cfg, cc())),
        )
    }

    fn cubic_pair(i: usize, bytes: u64) -> Pair {
        pair(i, bytes, || Box::new(Cubic::new(CcConfig::default())))
    }

    /// CUBIC on even flows, reTCP on odd ones.
    fn mixed_pair(i: usize, bytes: u64) -> Pair {
        if i.is_multiple_of(2) {
            cubic_pair(i, bytes)
        } else {
            pair(i, bytes, || Box::new(ReTcp::new(ReTcpConfig::default())))
        }
    }

    fn small_cfg() -> ShardConfig {
        let mut net = MultiRackConfig::paper_8rack();
        net.racks = 4;
        ShardConfig::clean(net)
    }

    fn ring_flows(n: usize) -> Vec<PairFlow> {
        (0..n)
            .map(|r| PairFlow {
                src: r,
                dst: (r + 1) % n,
            })
            .collect()
    }

    #[test]
    fn digest_invariant_across_worker_counts() {
        let until = SimTime::from_millis(3);
        assert_worker_count_invariant(&small_cfg(), &ring_flows(4), until, [0; 3], |i| cubic_pair(i, u64::MAX));
    }

    /// Notification loss and duplication, a circuit failure, a schedule
    /// freeze, a lossy reordering wire and skewed clocks on the rotor.
    #[test]
    fn chaos_run_is_worker_invariant() {
        let mut cfg = small_cfg();
        cfg.net.faults.notify_loss = 0.05;
        cfg.net.faults.notify_duplicate = 0.05;
        cfg.net.faults.link_failure = Some(LinkFailure {
            day: 3,
            at_fraction: 0.5,
            outage_days: 4,
        });
        cfg.net.faults.freeze = Some(ScheduleFreeze { from_day: 9, days: 3 });
        cfg.net.impair.loss_rate = 0.005;
        cfg.net.impair.reorder_rate = 0.02;
        cfg.net.impair.reorder_delay = SimDuration::from_micros(120);
        cfg.net.clock = ClockPlan {
            offset_bound: SimDuration::from_micros(40),
            ..ClockPlan::none()
        };
        cfg.net.guard_band = SimDuration::from_micros(2);
        let until = SimTime::from_millis(3);
        assert_worker_count_invariant(&cfg, &ring_flows(4), until, [1; 3], |i| cubic_pair(i, u64::MAX));
    }

    /// The paper's two-rack week with every feature — day-fate faults,
    /// reTCP's circuit marks and retcpdyn's prepare signal, skewed clocks
    /// deferring mis-timed launches, every wire impairment — on threads:
    /// the digest does not depend on them.
    #[test]
    fn two_rack_week_with_every_feature_is_worker_invariant() {
        let mut net = NetConfig::paper_baseline();
        net.circuit_marking = true;
        net.retcpdyn = true;
        net.faults.link_failure = Some(LinkFailure {
            day: 13,
            at_fraction: 0.5,
            outage_days: 8,
        });
        net.faults.freeze = Some(ScheduleFreeze { from_day: 25, days: 4 });
        net.clock = ClockPlan {
            offset_bound: SimDuration::from_micros(120),
            drift_ppm: 50.0,
            slot_edge_policy: SlotEdgePolicy::Defer,
            ..ClockPlan::none()
        };
        net.guard_band = SimDuration::from_micros(5);
        net.impair = ImpairPlan {
            loss_rate: 0.002,
            reorder_rate: 0.01,
            duplicate_rate: 0.002,
            corrupt_rate: 0.002,
            ..ImpairPlan::none()
        };
        let cfg = ShardConfig { net, racks: 2 };
        let flows = [PairFlow { src: 0, dst: 1 }; 4];
        let until = SimTime::from_millis(8);
        assert_worker_count_invariant(&cfg, &flows, until, [4, 1, 1], |i| mixed_pair(i, u64::MAX));
    }

    /// On every week a segment holds its VOQ slot until it launches: an
    /// arrival while a circuit train is on the wire finds the segments
    /// the train has not launched yet, and is CE-marked or tail-dropped
    /// because of them.
    #[test]
    fn a_train_holds_its_slots_on_every_week() {
        for days in [vec![TdnId(1)], vec![TdnId(0), TdnId(1)]] {
            let mut cfg = small_cfg();
            cfg.racks = 2;
            cfg.net.schedule.days = days.clone();
            cfg.net.voq = VoqConfig {
                cap_pkts: 4,
                ecn_threshold: Some(2),
            };
            let flows = vec![PairFlow { src: 0, dst: 1 }];
            let emu = ShardedEmulator::new(cfg, flows, |i, _| cubic_pair(i, 1_000));
            emu.windows.end.store(SimTime::from_micros(15).as_nanos(), Ordering::Relaxed);
            let mut shard = emu.shards[0].lock().unwrap();
            // A circuit to rack 1, a full VOQ toward it (four jumbo
            // frames, 720 ns each at 100 Gbps), and a train at `t0`.
            shard.peer = Some(1);
            shard.day_tdn = TdnId(1);
            let mut seg = Segment::new(FlowId(0), Direction::DataPath);
            seg.len = 8_940;
            seg.ecn = Ecn::Ect0;
            let t0 = SimTime::from_micros(1);
            for _ in 0..4 {
                let id = shard.pool.insert(seg);
                let item = shard.pool.seg_ref(id);
                assert!(shard.voqs[1].enqueue(t0, item));
            }
            shard.kick(t0, Port::Circuit);
            // Two arrivals while the train's first segment is on the wire.
            for ns in [100, 200] {
                let id = shard.pool.insert(seg);
                shard.ledger.on_nic += 1;
                shard.q.schedule(t0 + SimDuration::from_nanos(ns), REv::Enqueue { dst: 1, seg: id });
            }
            let marks = shard.voqs[1].ce_marks;
            shard.run_window();
            let voq = &shard.voqs[1];
            // Three segments still wait: the first arrival is marked
            // above the threshold, the second meets the cap.
            assert_eq!((voq.ce_marks - marks, voq.drops), (1, 1), "week {days:?}");
            assert!(voq.is_empty(), "week {days:?}: the train launched every admitted segment");
        }
    }

    #[test]
    #[should_panic(expected = "names TDN 2, which has no parameters")]
    fn a_week_naming_a_tdn_without_parameters_is_rejected() {
        let mut cfg = small_cfg();
        cfg.net.schedule.days = vec![TdnId(0), TdnId(2), TdnId(1)];
        let _ = ShardedEmulator::new(cfg, ring_flows(4), |i, _| cubic_pair(i, 1_000));
    }

    #[test]
    #[should_panic(expected = "week has no days")]
    fn empty_week_is_rejected() {
        let mut cfg = small_cfg();
        cfg.net.schedule.days.clear();
        let _ = ShardedEmulator::new(cfg, ring_flows(4), |i, _| cubic_pair(i, 1_000));
    }

    #[test]
    fn peer_rows_follow_the_week() {
        let is_matching = |row: &[Option<usize>], matching: &[(usize, usize)]| {
            matching
                .iter()
                .all(|&(a, b)| row[a] == Some(b) && row[b] == Some(a))
        };
        // One circuit day per week is the rotor itself.
        let rows = peer_rows(&MultiRackConfig::paper_8rack().schedule, 8);
        assert_eq!(rows.len(), 7);
        for (row, matching) in rows.iter().zip(&rotor::matchings(8)) {
            assert!(is_matching(row, matching));
        }
        // Six packet days, then a circuit day taking the next matching:
        // at 4 racks the table spans three weeks.
        let rotor4 = rotor::matchings(4);
        let rows = peer_rows(&Schedule::hybrid_6to1(), 4);
        assert_eq!(rows.len(), 21);
        for (day, row) in rows.iter().enumerate() {
            if day % 7 == 6 {
                assert!(is_matching(row, &rotor4[day / 7]), "day {day}");
            } else {
                assert!(row.iter().all(Option::is_none), "day {day}");
            }
        }
        assert_eq!(
            peer_rows(&Schedule::hybrid_6to1(), 2)[6],
            [Some(1), Some(0)]
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "segment conservation violated")]
    fn miscounted_shard_trips_the_conservation_law() {
        let emu = ShardedEmulator::new(small_cfg(), ring_flows(4), |i, _| cubic_pair(i, u64::MAX));
        emu.shards[2].lock().unwrap().traffic[0].emitted += 1;
        let _ = emu.run(SimTime::from_millis(1), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "segment pool law violated")]
    fn leaked_segment_id_trips_the_pool_law() {
        // A slot nothing holds: no event, no VOQ entry, no delivery.
        let emu = ShardedEmulator::new(small_cfg(), ring_flows(4), |i, _| cubic_pair(i, u64::MAX));
        let leaked = Segment::new(FlowId(0), Direction::DataPath);
        emu.shards[2].lock().unwrap().pool.insert(leaked);
        let _ = emu.run(SimTime::from_millis(1), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "after its release")]
    fn segment_released_while_queued_panics_at_its_next_use() {
        // Release a queued `Enqueue`'s slot behind its back (what a
        // second release of a re-queued id amounts to): the event then
        // reads a vacant slot, and the pool says so at that site.
        let emu = ShardedEmulator::new(small_cfg(), ring_flows(4), |i, _| cubic_pair(i, u64::MAX));
        emu.windows.end.store(SimTime::from_micros(1).as_nanos(), Ordering::Relaxed);
        {
            let mut shard = emu.shards[0].lock().unwrap();
            shard.start();
            let (_, ev) = shard.q.pop().expect("day 0 and the SYN are queued");
            assert!(matches!(ev, REv::DayStart { .. }));
            let Some((at, REv::Enqueue { dst, seg })) = shard.q.pop() else {
                panic!("the SYN's enqueue follows the day start");
            };
            shard.pool.release(seg);
            shard.q.schedule(at, REv::Enqueue { dst, seg });
            shard.run_window();
        }
    }

    /// Start `emu` and step it window by window, inline, until some
    /// shard has handed mail off; returns the parity it went to.
    #[cfg(debug_assertions)]
    fn run_until_mail(emu: &mut ShardedEmulator<'_>) -> usize {
        emu.start();
        while emu.mail.in_flight() == 0 {
            assert!(
                emu.next_window(SimTime::from_millis(1), SimTime::MAX).is_some(),
                "ran out before any cross-rack segment"
            );
            emu.run_window();
        }
        emu.shards[0].lock().unwrap().parity
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "segment conservation violated")]
    fn lost_mail_trips_the_conservation_law() {
        // A collect that drops one batch on the floor: the segment is
        // out of the mailbox and in no queue, and the next barrier says so.
        let mut emu = ShardedEmulator::new(small_cfg(), ring_flows(4), |i, _| cubic_pair(i, u64::MAX));
        let parity = run_until_mail(&mut emu);
        let mut lost = 0;
        for dst in 0..4 {
            emu.mail.collect(parity, dst, |run| lost += run.len());
        }
        assert!(lost > 0);
        emu.next_window(SimTime::from_millis(1), SimTime::MAX);
    }

    /// Shapes of the `Deliver` events rack `dst` collects and queues:
    /// `(host, segments in the event)` in queue order.
    fn collected(emu: &ShardedEmulator<'_>, dst: usize) -> Vec<(u32, usize)> {
        let mut to = emu.shards[dst].lock().unwrap();
        to.begin_window();
        let mut shapes = Vec::new();
        while let Some((_, ev)) = to.q.pop() {
            if let REv::Deliver { host, head } = ev {
                let (mut id, mut n) = (head, 0);
                while id != NIL {
                    id = to.pool.next(id);
                    n += 1;
                }
                shapes.push((host, n));
            }
        }
        shapes
    }

    #[test]
    fn batches_follow_the_sources_emission_order() {
        // Rack 0 sources flow 0 (to rack 1) and flow 1 (to rack 2).
        let flows = vec![PairFlow { src: 0, dst: 1 }, PairFlow { src: 0, dst: 2 }];
        let fabric = || ShardedEmulator::new(small_cfg(), flows.clone(), |i, _| cubic_pair(i, 1_000));
        let t = SimTime::from_micros(50);
        let (a, b) = (
            Segment::new(FlowId(0), Direction::DataPath),
            Segment::new(FlowId(1), Direction::DataPath),
        );
        // Rack 0 emits `segs` (pooled first, as a launch finds them) and
        // ends its window; racks 1 and 2 then enter their next one, which
        // collects the parity rack 0 handed off to.
        let emitted = |segs: &[(SimTime, Segment)]| {
            let emu = fabric();
            {
                let mut from = emu.shards[0].lock().unwrap();
                for &(at, seg) in segs {
                    let id = from.pool.insert(seg);
                    from.emit(at, id);
                }
                assert_eq!(from.pool.live(), 0, "an emitted segment leaves the source's pool");
                from.end_window();
            }
            assert_eq!(emu.mail.in_flight(), segs.len() as u64);
            emu
        };

        // A B C with A and C to the same (t, rack, host): B broke the
        // run at the source, so they stay two deliveries (the host is
        // flushed between them) although they sit side by side in the
        // 0 → 1 box.
        let emu = emitted(&[(t, a), (t, b), (t, a)]);
        assert_eq!(collected(&emu, 1), [(0, 1), (0, 1)]);
        assert_eq!(collected(&emu, 2), [(0, 1)]);
        assert_eq!(emu.mail.in_flight(), 0);

        // A A' B: one delivery of two segments, then B's.
        let emu = emitted(&[(t, a), (t, a), (t, b)]);
        assert_eq!(collected(&emu, 1), [(0, 2)]);
        assert_eq!(collected(&emu, 2), [(0, 1)]);

        // Same host, different arrival times: no batch.
        let emu = emitted(&[(t, a), (t + SimDuration::from_nanos(1), a)]);
        assert_eq!(collected(&emu, 1), [(0, 1), (0, 1)]);
    }

    #[test]
    fn events_stay_within_the_wheel_node_budget() {
        // Time + seq + link + state on top of a 40-byte event keep the
        // wheel node within one 64-byte line (ROADMAP 4a). The segment
        // itself is in the pool and the mailboxes, which hold most of a
        // fabric's segment bytes at its peak (EXPERIMENTS.md, "Where the
        // memory goes").
        assert!(std::mem::size_of::<REv>() <= 40);
        assert!(TimerWheel::<REv>::node_bytes() <= 64);
        assert!(std::mem::size_of::<Segment>() <= 80);
        assert!(std::mem::size_of::<Msg>() <= 96);
    }
}
