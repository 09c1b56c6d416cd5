//! The N-rack hybrid RDCN of §2.1/Fig. 1, simulated one shard per rack
//! with bit-identical output at any worker count (DESIGN.md §13).
//!
//! The fabric (the two-rack [`crate::Emulator`] is Etalon's *strict
//! time-division* special case of it):
//!
//! * every rack has an always-on EPS uplink, shared round-robin by all
//!   of its per-destination VOQs;
//! * one OCS port per rack, driven by the week in
//!   [`MultiRackConfig::schedule`]: the k-th TDN-1 day connects rotor
//!   matching `k mod (N−1)` ([`crate::schedule::rotor`], demand-oblivious),
//!   and a TDN-0 day leaves every rack on its EPS alone; reconfiguration
//!   nights fall between days. A week of one circuit day is the plain
//!   rotor, which connects every rack pair directly once per `N−1` days;
//!   N = 2 over [`Schedule::hybrid_6to1`] is the paper's two-rack week
//!   with the EPS left on;
//! * per destination the ToR uses the circuit when it exists, otherwise
//!   the packet network ("for a given destination, only one network is
//!   in use at a time");
//! * ToRs notify hosts per flow when their pair's circuit comes up
//!   (TDN 1) or goes away (TDN 0).
//!
//! Flows are unidirectional transfers between rack pairs; each flow has
//! one sender container in the source rack and one receiver in the
//! destination rack, as in the testbed.
//!
//! The engine partitions the fabric *by rack*: each rack shard owns a
//! private event queue ([`simcore::DefaultQueue`]), its own forked RNG
//! and chaos injectors, the transports resident in that rack, its ToR
//! VOQ row, and its EPS/circuit/NIC port state. The only inter-rack
//! traffic is segment delivery, and every wire between racks has a
//! one-way latency of at least the *lookahead*
//! `L = min(packet.one_way, circuit.one_way)` — so all shards can
//! safely simulate a window `[w, min(w + L, schedule.phase_at(w).ends()))`
//! in parallel (conservative-lookahead PDES), exchanging the segments
//! they emitted through per-(source, destination) mailboxes
//! ([`Mailboxes`]): a shard fills a private outbox during a window, hands
//! each non-empty one over when the window ends, and the destination
//! shard collects at the start of its next one.
//!
//! Inside a rack a segment does not move: `poll_send`'s result is written
//! into the rack's segment pool ([`crate::pool`]) and events, VOQ entries
//! and service trains carry its `u32` id. Crossing racks copies it once
//! into the message and once into the destination rack's pool, where the
//! receiving transport reads it in place.
//!
//! Determinism: a shard's window work depends only on its own state,
//! its deterministic queue and the boxes addressed to it, so the mailbox
//! contents are identical at any worker count; the destination shard
//! collects its boxes in (source rack, emission order) before it pops
//! anything, and its queue's FIFO tie-break makes the merged order
//! total. Every reduction at the end folds in fixed rack order.
//! `run(.., workers)` therefore produces a bit-identical
//! [`ShardResult::stats_digest`] for workers 1, 2, 4, … — pinned by
//! `tests/determinism.rs` and `tests/multirack.rs`. At `workers = 1` the
//! loop runs inline on the calling thread: that is the serial N-rack
//! engine, and it runs the same hand-off/collect protocol.
//!
//! Event semantics:
//! * **service trains**: one `CircuitService`/`PacketService` event
//!   launches every already-queued eligible segment back-to-back up to
//!   the window end, with analytic launch times (window ends are
//!   worker-count independent, so trains are too). A train's segments
//!   leave the VOQ when the train starts, not at their launch times;
//! * **lazy struct-of-arrays timers**: per-host `deadline`/`armed`/
//!   `gen` arrays — moving a timer *later* is a plain array write, and
//!   a stale fire rearms from the array; no cancel is ever issued;
//! * **single-side flush**: delivering to a host polls that host only;
//! * **batched delivery**: same-instant segments to one host arrive as
//!   one event.
//!
//! Chaos planes: notification faults (`notify_loss`/`extra_delay`/
//! `duplicate`), EPS transit bursts (`eps_burst`), the full data-path
//! impairment set, and per-host clock skew all run per rack on streams
//! forked from the rack's RNG. Day-fate faults (`link_failure`,
//! `freeze`) are two-rack-emulator concepts and are rejected at
//! construction.
//!
//! Debug builds check a segment conservation law and the pool law (every
//! live pool slot is held by a queued event or a VOQ entry) at every
//! window barrier (`ShardedEmulator::assert_conserved`).

use crate::faults::{EpsVerdict, FaultInjector, FaultPlan, NotifyVerdict, FAULT_STREAM_LABEL};
use crate::impair::{ImpairInjector, ImpairPlan, ImpairVerdict, IMPAIR_STREAM_LABEL};
use crate::clock::{ClockInjector, ClockPlan, ClockVerdict, CLOCK_STREAM_LABEL};
use crate::config::TdnParams;
use crate::notify::{NotifyConfig, NotifyModel};
use crate::schedule::{rotor, Schedule};
use crate::pool::{SegPool, SegRef, NIL};
use crate::voq::{Voq, VoqConfig};
use simcore::{par, DefaultQueue, DetRng, SimDuration, SimTime};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use tcp::{ConnStats, Direction, Segment, Transport};
use testkit::Digest;
use wire::TdnId;

/// Label base for forking one RNG stream per rack off the run seed;
/// rack `r` uses `DetRng::new(seed).fork(RACK_STREAM_BASE + r)`, and
/// the rack's injectors fork their own streams off that.
pub const RACK_STREAM_BASE: u64 = 0x5AAD_0000;

/// Configuration of the N-rack fabric.
#[derive(Debug, Clone)]
pub struct MultiRackConfig {
    /// Number of racks (even, ≥ 2).
    pub racks: usize,
    /// The always-on packet network (per-rack uplink capacity and
    /// one-way latency through the EPS core).
    pub packet: TdnParams,
    /// The circuit network (per-circuit rate and one-way latency).
    pub circuit: TdnParams,
    /// The week: day and night lengths, and whether each day is a
    /// circuit day (TDN 1) or a packet-only day (TDN 0). The fabric has
    /// no third network, so any other TDN is rejected at construction.
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
/// k-th circuit (TDN 1) day takes rotor matching `k mod (racks − 1)`, so
/// the table repeats every `days.len() × (racks − 1)` days.
fn peer_rows(sched: &Schedule, racks: usize) -> Vec<Vec<Option<usize>>> {
    assert!(!sched.days.is_empty(), "the schedule's week has no days");
    assert!(
        sched.num_tdns() <= 2,
        "the fabric has two networks (TDN 0: EPS, TDN 1: circuit); the schedule names TDN {}",
        sched.num_tdns() - 1
    );
    let matchings = rotor::matchings(racks);
    let mut circuit_days = 0;
    (0..sched.days.len() * (racks - 1))
        .map(|day| {
            let mut peers = vec![None; racks];
            if sched.day_tdn(day as u64) == TdnId(1) {
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

/// One flow between a rack pair.
#[derive(Debug, Clone, Copy)]
pub struct PairFlow {
    /// Source rack of the data.
    pub src: usize,
    /// Destination rack.
    pub dst: usize,
}

/// Configuration of a sharded multirack run: the fabric plus one plan
/// per chaos plane (all [`inert`](FaultPlan::none) by default).
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// The fabric (racks, link parameters, schedule, VOQ, notify, seed).
    pub net: MultiRackConfig,
    /// Control-plane notification / EPS-burst faults. `link_failure`
    /// and `freeze` must be `None` (two-rack emulator concepts).
    pub faults: FaultPlan,
    /// Data-path impairments applied per launched segment.
    pub impair: ImpairPlan,
    /// Per-host clock skew; hosts are numbered rack-locally.
    pub clock: ClockPlan,
    /// Skew absorbed at slot edges before the clock plan's slot-edge
    /// policy applies.
    pub guard_band: SimDuration,
}

impl ShardConfig {
    /// A clean (all-chaos-inert) run over `net`.
    pub fn clean(net: MultiRackConfig) -> ShardConfig {
        ShardConfig {
            net,
            faults: FaultPlan::none(),
            impair: ImpairPlan::none(),
            clock: ClockPlan::none(),
            guard_band: SimDuration::ZERO,
        }
    }
}

/// Where each endpoint of a flow lives: racks and rack-local host ids.
#[derive(Debug, Clone, Copy)]
struct FlowSeat {
    src_rack: u32,
    dst_rack: u32,
    /// Sender's host index within `src_rack`.
    s_local: u32,
    /// Receiver's host index within `dst_rack`.
    r_local: u32,
}

/// Rack-local events. Cross-rack arrivals enter as `Deliver` via the
/// window barrier; everything else is scheduled and consumed by the
/// same shard. A segment in an event is its id in the rack's pool.
enum REv {
    /// One or more segments arriving at `host` at the same instant: the
    /// pool chain starting at `head`, in arrival order.
    Deliver { host: u32, head: u32 },
    Enqueue { dst: u32, seg: u32 },
    CircuitService,
    PacketService,
    DayStart { day: u64 },
    NightStart { day: u64 },
    Notify { host: u32, tdn: TdnId, gen: u64 },
    HostTimer { host: u32, tgen: u32 },
}

/// One segment crossing racks: queued by the source shard in emission
/// order, collected by the destination shard one window later. The one
/// place between two hosts where the segment itself is copied.
struct Msg {
    /// Arrival time at the destination host.
    t: SimTime,
    /// Destination host, rack-local.
    host: u32,
    /// The source shard's previous emission had the same `(t, rack,
    /// host)`: the two arrive in one `Deliver`. Fixed by the source's own
    /// emission order, so a batch never depends on what else shares the
    /// box.
    joins_prev: bool,
    seg: Segment,
}

/// One `(source, destination)` box of one parity.
#[derive(Default)]
struct Mailbox {
    /// Set by the hand-off, cleared by the collect: the destination
    /// skips a box its source left empty without taking the lock. The
    /// `Release` store pairs with the `Acquire` load in `collect` (the
    /// window barrier between them orders the two as well).
    full: AtomicBool,
    msgs: Mutex<Vec<Msg>>,
}

/// The cross-rack mailboxes: one box per (source, destination) pair,
/// double-buffered by window parity. A source fills a private outbox per
/// destination during a window of parity `p` and swaps each non-empty
/// one into its row of parity `p` when the window ends — one hand-off
/// per pair per window, not a lock per segment — while the destination
/// collects its column of parity `p ^ 1`, last window's mail. So a box
/// has one writer or one reader in any window, never both, and the locks
/// are never contended. The swap trades the outbox for the box's emptied
/// buffer, both keep their capacity: nothing is allocated or freed across
/// threads in the steady state.
struct Mailboxes {
    racks: usize,
    /// `boxes[parity][src * racks + dst]`.
    boxes: [Vec<Mailbox>; 2],
}

impl Mailboxes {
    fn new(racks: usize) -> Mailboxes {
        let half = || (0..racks * racks).map(|_| Mailbox::default()).collect();
        Mailboxes {
            racks,
            boxes: [half(), half()],
        }
    }

    /// Swap the non-empty `outbox` into the (collected, hence empty)
    /// `(src, dst)` box of `parity`; `outbox` comes back empty.
    fn hand_off(&self, parity: usize, src: usize, dst: usize, outbox: &mut Vec<Msg>) {
        let slot = &self.boxes[parity][src * self.racks + dst];
        let mut msgs = slot.msgs.lock().expect("mailbox poisoned");
        debug_assert!(msgs.is_empty(), "handed off into an uncollected box");
        std::mem::swap(&mut *msgs, outbox);
        slot.full.store(true, Ordering::Release);
    }

    /// Empty column `dst` of `parity` in fixed source-rack order, handing
    /// each run of `joins_prev` messages to `deliver` as one batch.
    fn collect(&self, parity: usize, dst: usize, mut deliver: impl FnMut(&[Msg])) {
        for src in 0..self.racks {
            let slot = &self.boxes[parity][src * self.racks + dst];
            if !slot.full.load(Ordering::Acquire) {
                continue;
            }
            let mut msgs = slot.msgs.lock().expect("mailbox poisoned");
            for run in msgs.chunk_by(|_, next| next.joins_prev) {
                deliver(run);
            }
            msgs.clear();
            slot.full.store(false, Ordering::Release);
        }
    }

    /// Messages handed off and not yet collected, both parities.
    fn in_flight(&self) -> u64 {
        let mut n = 0;
        for slot in self.boxes.iter().flatten() {
            n += slot.msgs.lock().expect("mailbox poisoned").len() as u64;
        }
        n
    }
}

/// One rack's complete simulation state.
struct RackShard<'a> {
    r: usize,
    racks: usize,
    q: DefaultQueue<REv>,
    rng: DetRng,
    notify_model: NotifyModel,
    faults: FaultInjector,
    impair: ImpairInjector,
    clock: ClockInjector,
    /// The week: day/night lengths here and for the clock plane.
    sched: Schedule,
    guard_band: SimDuration,
    /// `peer_of[day % len][rack]`, see [`peer_rows`].
    peer_of: Arc<[Vec<Option<usize>>]>,
    packet: TdnParams,
    circuit: TdnParams,
    host_rate_bps: u64,

    /// Current OCS peer of this rack (None during nights and packet-only
    /// days).
    peer: Option<usize>,
    /// Every segment this rack holds — on its NIC, in a VOQ, in a
    /// scheduled `Deliver`; events and VOQ entries carry ids into it.
    pool: SegPool,
    /// voqs[dst]: per-destination queue at this rack's ToR.
    voqs: Vec<Voq<SegRef>>,
    eps_busy_until: SimTime,
    eps_pending: bool,
    eps_rr: usize,
    circuit_busy_until: SimTime,
    circuit_pending: bool,
    nic_free: SimTime,

    /// Where every flow's endpoints live (shared copy; indexed by the
    /// global flow id carried in each segment).
    seats: Vec<FlowSeat>,
    /// Resident transports, in global flow order (a flow's sender if it
    /// sources here, its receiver if it sinks here — never both).
    hosts: Vec<Box<dyn Transport + Send + 'a>>,
    /// SoA per-host hot state, parallel to `hosts`: global flow id,
    /// sender side, flow src/dst racks, and the lazy timer triple.
    hflow: Vec<u32>,
    hsend: Vec<bool>,
    /// Next deadline wanted by the host (`SimTime::MAX` = none).
    tdeadline: Vec<SimTime>,
    /// Earliest time a live `HostTimer` event will fire (`MAX` = none).
    tarmed: Vec<SimTime>,
    /// Generation guard: a fired event with a stale generation is a
    /// no-op, which is what lets timer *postponement* cost zero queue
    /// operations.
    tgen: Vec<u32>,

    hdone: Vec<bool>,
    completion: Vec<Option<SimTime>>,
    n_senders: usize,
    done_count: usize,

    mail: Arc<Mailboxes>,
    /// `outbox[dst]`: this window's emissions toward rack `dst`, handed
    /// to the mailboxes when the window ends.
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
    /// Exclusive end of the window this shard may simulate.
    w_end: SimTime,
    /// Train/batch segments beyond the event that carried them — added
    /// to the queue's pop count so `events` counts one per segment moved.
    extra_events: u64,
    /// Segment ledger for the barrier-time conservation law; written in
    /// debug builds only.
    ledger: Ledger,
}

/// Where every segment a rack has seen went. Counters move only under
/// `cfg!(debug_assertions)`; nothing here feeds a digest or draws RNG.
#[derive(Default)]
struct Ledger {
    /// Segments polled from resident hosts.
    polled: u64,
    /// Extra copies made by the duplicate impairment.
    wire_dups: u64,
    /// Scheduled `Enqueue`s not yet popped (waiting on the NIC, or a
    /// clock-deferred launch waiting for its slot).
    on_nic: u64,
    /// Dropped at launch: guard band, EPS burst, impairment loss, or a
    /// corrupted pure ACK.
    dropped: u64,
    /// Segments this rack collected from its mailboxes: in a scheduled
    /// `Deliver`, or already delivered.
    routed_in: u64,
    /// The part of `routed_in` not yet delivered.
    in_deliver: u64,
}

/// The sharded N-rack emulator. Construct with [`ShardedEmulator::new`],
/// then [`run`](ShardedEmulator::run).
pub struct ShardedEmulator<'a> {
    shards: Vec<Mutex<RackShard<'a>>>,
    mail: Arc<Mailboxes>,
    flows: Vec<PairFlow>,
    lookahead: SimDuration,
    /// The week; windows end at its edges.
    sched: Schedule,
}

/// Results of a sharded multirack run.
#[derive(Debug)]
pub struct ShardResult {
    /// Per-flow sender stats, in global flow order.
    pub sender_stats: Vec<ConnStats>,
    /// Per-flow receiver stats.
    pub receiver_stats: Vec<ConnStats>,
    /// Per-flow sender completion time (first barrier-visible event at
    /// which the sender reported done), `None` if unfinished.
    pub completions: Vec<Option<SimTime>>,
    /// Whether each flow's sender aborted with a connection error.
    pub sender_errors: Vec<bool>,
    /// Tail drops summed over all VOQs.
    pub drops: u64,
    /// CE marks summed over all VOQs.
    pub ce_marks: u64,
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
    /// Per-rack fault log digests, in rack order.
    pub fault_log_digests: Vec<u64>,
    /// Per-rack impairment log digests, in rack order.
    pub impair_log_digests: Vec<u64>,
    /// Per-rack clock log digests, in rack order.
    pub clock_log_digests: Vec<u64>,
    /// Simulated duration (max over racks).
    pub duration: SimDuration,
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

    /// Fold every counter into `d` in declaration order.
    pub fn write_digest(&self, d: &mut Digest) {
        d.write_u64(self.drops)
            .write_u64(self.ce_marks)
            .write_u64(self.events)
            .write_u64(self.faults_total)
            .write_u64(self.impairments_total)
            .write_u64(self.clock_total);
        for v in &self.rack_events {
            d.write_u64(*v);
        }
        for v in &self.fault_log_digests {
            d.write_u64(*v);
        }
        for v in &self.impair_log_digests {
            d.write_u64(*v);
        }
        for v in &self.clock_log_digests {
            d.write_u64(*v);
        }
        d.write_u64(self.duration.as_nanos());
    }

    /// Digest over everything observable in the result, folded in fixed
    /// order — the object of the worker-count invariance property.
    pub fn stats_digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_usize(self.sender_stats.len());
        for s in &self.sender_stats {
            s.write_digest(&mut d);
        }
        for s in &self.receiver_stats {
            s.write_digest(&mut d);
        }
        for c in &self.completions {
            d.write_bool(c.is_some());
            d.write_u64(c.map_or(0, |t| t.as_nanos()));
        }
        for e in &self.sender_errors {
            d.write_bool(*e);
        }
        self.write_digest(&mut d);
        d.finish()
    }
}

impl<'a> ShardedEmulator<'a> {
    /// Create the sharded fabric with one (sender, receiver) pair per
    /// flow. Transports must be `Send`: a shard runs on the worker
    /// thread it is assigned to, not on the constructing thread.
    pub fn new(
        cfg: ShardConfig,
        flows: Vec<PairFlow>,
        mut factory: impl FnMut(
            usize,
            &PairFlow,
        ) -> (Box<dyn Transport + Send + 'a>, Box<dyn Transport + Send + 'a>),
    ) -> Self {
        let net = &cfg.net;
        assert!(net.racks >= 2 && net.racks.is_multiple_of(2));
        for f in &flows {
            assert!(f.src != f.dst && f.src < net.racks && f.dst < net.racks);
        }
        assert!(
            cfg.faults.link_failure.is_none() && cfg.faults.freeze.is_none(),
            "day-fate faults (link_failure/freeze) are not modeled by the sharded engine"
        );
        let lookahead = net.packet.one_way.min(net.circuit.one_way);
        assert!(
            lookahead > SimDuration::ZERO,
            "conservative lookahead needs a positive minimum one-way latency"
        );
        let peer_of: Arc<[Vec<Option<usize>>]> = peer_rows(&net.schedule, net.racks).into();
        let mail = Arc::new(Mailboxes::new(net.racks));

        // Seat every flow's endpoints: rack-local host ids in global
        // flow order.
        let mut next_local = vec![0u32; net.racks];
        let seats: Vec<FlowSeat> = flows
            .iter()
            .map(|f| {
                let s_local = next_local[f.src];
                next_local[f.src] += 1;
                let r_local = next_local[f.dst];
                next_local[f.dst] += 1;
                FlowSeat {
                    src_rack: f.src as u32,
                    dst_rack: f.dst as u32,
                    s_local,
                    r_local,
                }
            })
            .collect();

        let mut shards: Vec<RackShard<'a>> = (0..net.racks)
            .map(|r| {
                let rng = DetRng::new(net.seed).fork(RACK_STREAM_BASE + r as u64);
                RackShard {
                    r,
                    racks: net.racks,
                    q: DefaultQueue::new(),
                    faults: FaultInjector::new(cfg.faults.clone(), rng.fork(FAULT_STREAM_LABEL)),
                    impair: ImpairInjector::new(cfg.impair.clone(), rng.fork(IMPAIR_STREAM_LABEL)),
                    clock: ClockInjector::new(cfg.clock.clone(), rng.fork(CLOCK_STREAM_LABEL)),
                    rng,
                    notify_model: NotifyModel::new(net.notify),
                    sched: net.schedule.clone(),
                    guard_band: cfg.guard_band,
                    peer_of: Arc::clone(&peer_of),
                    packet: net.packet,
                    circuit: net.circuit,
                    host_rate_bps: net.host_rate_bps,
                    peer: None,
                    pool: SegPool::new(),
                    voqs: (0..net.racks).map(|_| Voq::untraced(net.voq)).collect(),
                    eps_busy_until: SimTime::ZERO,
                    eps_pending: false,
                    eps_rr: 0,
                    circuit_busy_until: SimTime::ZERO,
                    circuit_pending: false,
                    nic_free: SimTime::ZERO,
                    seats: seats.clone(),
                    hosts: Vec::new(),
                    hflow: Vec::new(),
                    hsend: Vec::new(),
                    tdeadline: Vec::new(),
                    tarmed: Vec::new(),
                    tgen: Vec::new(),
                    hdone: Vec::new(),
                    completion: Vec::new(),
                    n_senders: 0,
                    done_count: 0,
                    mail: Arc::clone(&mail),
                    outbox: (0..net.racks).map(|_| Vec::new()).collect(),
                    parity: 1,
                    last_emit: None,
                    out_min: SimTime::MAX,
                    w_end: SimTime::ZERO,
                    extra_events: 0,
                    ledger: Ledger::default(),
                }
            })
            .collect();

        for (i, f) in flows.iter().enumerate() {
            let (s, r) = factory(i, f);
            shards[f.src].add_host(i as u32, true, s);
            shards[f.dst].add_host(i as u32, false, r);
        }

        ShardedEmulator {
            shards: shards.into_iter().map(Mutex::new).collect(),
            mail,
            flows,
            lookahead,
            sched: net.schedule.clone(),
        }
    }

    /// The barrier-time conservation law (debug builds): summed over
    /// racks, every segment polled from a host or duplicated on the wire
    /// is waiting on a NIC, in a VOQ, tail-dropped, dropped with a cause
    /// at launch, in a mailbox, in a scheduled `Deliver`, or delivered.
    /// And the pool law: the slots live in the racks' pools are exactly
    /// the segments waiting on a NIC, in a VOQ or in a scheduled
    /// `Deliver` — an id leaked, or released while something still holds
    /// it, breaks the equality.
    fn assert_conserved(&self) {
        let (mut made, mut found) = (0u64, self.mail.in_flight());
        let (mut live, mut held) = (0u64, 0u64);
        for s in &self.shards {
            let g = s.lock().expect("shard poisoned");
            debug_assert!(g.outbox.iter().all(Vec::is_empty), "outbox kept past its window");
            let l = &g.ledger;
            let queued = g.voqs.iter().map(|v| v.len() as u64).sum::<u64>();
            made += l.polled + l.wire_dups;
            found += l.on_nic + l.dropped + l.routed_in + queued;
            found += g.voqs.iter().map(|v| v.drops).sum::<u64>();
            live += g.pool.live();
            held += l.on_nic + queued + l.in_deliver;
        }
        assert_eq!(made, found, "segment conservation violated at a window barrier");
        assert_eq!(live, held, "segment pool law violated at a window barrier");
    }

    /// The barrier between two windows: decide whether to stop, and
    /// bound the next window. Its start is the earliest pending event —
    /// queued in a shard, or handed off last window and still in a mailbox
    /// (`out_min`) — which is the time the destination's queue will
    /// report once it has collected.
    fn next_window(&self, until: SimTime) -> bool {
        if cfg!(debug_assertions) {
            self.assert_conserved();
        }
        let mut all_done = true;
        let mut w_start = SimTime::MAX;
        for s in &self.shards {
            let mut g = s.lock().expect("shard poisoned");
            all_done &= g.done_count == g.n_senders;
            let queued = g.q.peek_time().unwrap_or(SimTime::MAX);
            w_start = w_start.min(queued).min(g.out_min);
        }
        if all_done || w_start == SimTime::MAX || w_start > until {
            return false;
        }
        // Windows never span a schedule edge, so service trains can use
        // the window's matching throughout.
        let w_end = (w_start + self.lookahead)
            .min(self.sched.phase_at(w_start).ends())
            .min(until + SimDuration::from_nanos(1));
        for s in &self.shards {
            s.lock().expect("shard poisoned").w_end = w_end;
        }
        true
    }

    /// Run the fabric until `until` with up to `workers` threads.
    /// Output is bit-identical for every worker count.
    pub fn run(self, until: SimTime, workers: usize) -> ShardResult {
        for s in &self.shards {
            s.lock().expect("shard poisoned").start();
        }
        par::run_windows(
            workers,
            &self.shards,
            |_| self.next_window(until),
            |_, shard| shard.run_window(),
        );

        // Fold the result in fixed (flow, rack) order.
        let nf = self.flows.len();
        let mut sender_stats = vec![ConnStats::default(); nf];
        let mut receiver_stats = vec![ConnStats::default(); nf];
        let mut completions = vec![None; nf];
        let mut sender_errors = vec![false; nf];
        let mut drops = 0u64;
        let mut ce_marks = 0u64;
        let mut events = 0u64;
        let mut rack_events = Vec::new();
        let mut faults_total = 0u64;
        let mut impairments_total = 0u64;
        let mut clock_total = 0u64;
        let mut fault_log_digests = Vec::new();
        let mut impair_log_digests = Vec::new();
        let mut clock_log_digests = Vec::new();
        let mut duration = SimDuration::ZERO;
        for s in &self.shards {
            let g = s.lock().expect("shard poisoned");
            for h in 0..g.hosts.len() {
                let flow = g.hflow[h] as usize;
                if g.hsend[h] {
                    sender_stats[flow] = *g.hosts[h].stats();
                    completions[flow] = g.completion[h];
                    sender_errors[flow] = g.hosts[h].conn_error().is_some();
                } else {
                    receiver_stats[flow] = *g.hosts[h].stats();
                }
            }
            drops += g.voqs.iter().map(|v| v.drops).sum::<u64>();
            ce_marks += g.voqs.iter().map(|v| v.ce_marks).sum::<u64>();
            let re = g.q.events_processed() + g.extra_events;
            events += re;
            rack_events.push(re);
            faults_total += crate::statfold::InjectorStats::total(g.faults.stats());
            impairments_total += crate::statfold::InjectorStats::total(g.impair.stats());
            clock_total += g.clock.stats().total();
            fault_log_digests.push(g.faults.log_digest());
            impair_log_digests.push(g.impair.log_digest());
            clock_log_digests.push(g.clock.log_digest());
            duration = duration.max(g.q.now().saturating_since(SimTime::ZERO));
        }
        ShardResult {
            sender_stats,
            receiver_stats,
            completions,
            sender_errors,
            drops,
            ce_marks,
            events,
            rack_events,
            faults_total,
            impairments_total,
            clock_total,
            fault_log_digests,
            impair_log_digests,
            clock_log_digests,
            duration,
        }
    }
}

impl<'a> RackShard<'a> {
    fn add_host(&mut self, flow: u32, sender: bool, t: Box<dyn Transport + Send + 'a>) {
        self.hosts.push(t);
        self.hflow.push(flow);
        self.hsend.push(sender);
        self.tdeadline.push(SimTime::MAX);
        self.tarmed.push(SimTime::MAX);
        self.tgen.push(0);
        self.hdone.push(false);
        self.completion.push(None);
        if sender {
            self.n_senders += 1;
        }
    }

    /// Seed day 0, flush every resident host's initial sends, and count
    /// already-done senders (zero-byte flows).
    fn start(&mut self) {
        self.q.schedule(SimTime::ZERO, REv::DayStart { day: 0 });
        for h in 0..self.hosts.len() {
            self.flush(SimTime::ZERO, h);
        }
        for h in 0..self.hosts.len() {
            if self.hsend[h] && self.hosts[h].is_done() {
                self.hdone[h] = true;
                self.completion[h] = Some(SimTime::ZERO);
                self.done_count += 1;
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
                ledger.routed_in += run.len() as u64;
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

    /// Leave the window: hand every non-empty outbox to the mailboxes.
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
        self.begin_window();
        while let Some((now, ev)) = self.q.pop_before(self.w_end) {
            let touched = match &ev {
                REv::Deliver { host, .. }
                | REv::Notify { host, .. }
                | REv::HostTimer { host, .. } => Some(*host as usize),
                _ => None,
            };
            match ev {
                REv::Deliver { host, head } => {
                    let h = host as usize;
                    // The transport reads each segment where it lies.
                    let (mut id, mut n) = (head, 0u64);
                    while id != NIL {
                        let next = self.pool.next(id);
                        self.hosts[h].on_segment(now, self.pool.get(id));
                        self.pool.release(id);
                        id = next;
                        n += 1;
                    }
                    self.extra_events += n - 1;
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
                        self.kick(now, dst);
                    } else {
                        self.pool.release(seg); // tail drop
                    }
                }
                REv::CircuitService => {
                    self.circuit_pending = false;
                    self.circuit_service(now);
                }
                REv::PacketService => {
                    self.eps_pending = false;
                    self.packet_service(now);
                }
                REv::DayStart { day } => self.on_day_start(now, day),
                REv::NightStart { day } => self.on_night_start(now, day),
                REv::Notify { host, tdn, gen } => {
                    let h = host as usize;
                    self.hosts[h].on_tdn_notification(now, tdn, gen);
                    self.flush(now, h);
                }
                REv::HostTimer { host, tgen } => self.host_timer(now, host as usize, tgen),
            }
            if let Some(h) = touched {
                if self.hsend[h] && !self.hdone[h] && self.hosts[h].is_done() {
                    self.hdone[h] = true;
                    self.completion[h] = Some(now);
                    self.done_count += 1;
                }
            }
        }
        self.end_window();
    }

    /// Drain a host's sends through the rack NIC, then maintain its lazy
    /// timer. No cancel is ever issued: pulling a timer *earlier* bumps
    /// the generation and schedules anew; pushing it *later* is just the
    /// `tdeadline` write, and the already-armed event rearms itself when
    /// it fires stale.
    fn flush(&mut self, now: SimTime, h: usize) {
        while let Some(seg) = self.hosts[h].poll_send(now) {
            let seat = self.seats[seg.flow.0 as usize];
            let dst = match seg.dir {
                Direction::DataPath => seat.dst_rack,
                Direction::AckPath => seat.src_rack,
            };
            let start = self.nic_free.max(now);
            let done = start
                + SimDuration::serialization(u64::from(seg.wire_size()), self.host_rate_bps);
            self.nic_free = done;
            if cfg!(debug_assertions) {
                self.ledger.polled += 1;
                self.ledger.on_nic += 1;
            }
            let seg = self.pool.insert(seg);
            self.q.schedule(done, REv::Enqueue { dst, seg });
        }
        let want = self.hosts[h].next_timer().map_or(SimTime::MAX, |t| t.max(now));
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
            self.hosts[h].on_timer(now);
            self.flush(now, h);
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

    /// New data for `dst`: wake whichever service path owns it.
    fn kick(&mut self, now: SimTime, dst: usize) {
        if self.peer == Some(dst) {
            if !self.circuit_pending {
                let at = self.circuit_busy_until.max(now);
                self.q.schedule(at, REv::CircuitService);
                self.circuit_pending = true;
            }
        } else if !self.eps_pending {
            let at = self.eps_busy_until.max(now);
            self.q.schedule(at, REv::PacketService);
            self.eps_pending = true;
        }
    }

    /// Serve the circuit as a train: launch every already-queued
    /// eligible segment back-to-back until the VOQ runs dry or the
    /// window ends. Window ends are worker-count independent, so the
    /// train extent is too.
    fn circuit_service(&mut self, now: SimTime) {
        let Some(dst) = self.peer else { return };
        let mut at = now;
        let mut first = true;
        loop {
            if at >= self.w_end {
                if self.voqs[dst].has_eligible(Some(TdnId(1))) {
                    self.q.schedule(at, REv::CircuitService);
                    self.circuit_pending = true;
                }
                return;
            }
            let Some(item) = self.voqs[dst].dequeue_eligible(at, Some(TdnId(1))) else {
                return;
            };
            if !first {
                self.extra_events += 1;
            }
            first = false;
            let ser = self.launch(at, item, true, dst);
            at += ser;
            self.circuit_busy_until = at;
        }
    }

    /// Serve the shared EPS uplink as a train: round-robin over the
    /// rack's non-circuit destinations until nothing is eligible or the
    /// window ends.
    fn packet_service(&mut self, now: SimTime) {
        let n = self.racks;
        let mut at = now;
        let mut first = true;
        loop {
            if at >= self.w_end {
                let more = (0..n).any(|d| {
                    d != self.r
                        && self.peer != Some(d)
                        && self.voqs[d].has_eligible(Some(TdnId(0)))
                });
                if more {
                    self.q.schedule(at, REv::PacketService);
                    self.eps_pending = true;
                }
                return;
            }
            let start = self.eps_rr;
            let mut chosen = None;
            for k in 0..n {
                let dst = (start + k) % n;
                if dst == self.r || self.peer == Some(dst) {
                    continue; // circuit traffic does not ride the EPS
                }
                if self.voqs[dst].has_eligible(Some(TdnId(0))) {
                    chosen = Some(dst);
                    break;
                }
            }
            let Some(dst) = chosen else { return };
            self.eps_rr = (dst + 1) % n;
            let item = self.voqs[dst]
                .dequeue_eligible(at, Some(TdnId(0)))
                .expect("has_eligible checked");
            if !first {
                self.extra_events += 1;
            }
            first = false;
            let ser = self.launch(at, item, false, dst);
            at += ser;
            self.eps_busy_until = at;
        }
    }

    /// Whether a circuit connects racks `a` and `b` on `day`.
    fn connected_on_day(&self, day: u64, a: usize, b: usize) -> bool {
        self.peer_of[(day % self.peer_of.len() as u64) as usize][a] == Some(b)
    }

    /// Launch the dequeued segment from this rack's ToR toward `dst` at
    /// `at`, running it through the chaos pipeline in fixed order — clock
    /// → EPS jitter → EPS transit faults → wire impairments — reading and
    /// rewriting it in its pool slot, and emitting any surviving copies
    /// toward the destination rack. Every path out of here releases the
    /// slot or re-queues its id. Returns the serialization time the port
    /// slot consumed.
    fn launch(&mut self, at: SimTime, item: SegRef, circuit: bool, dst: usize) -> SimDuration {
        let id = item.id;
        let seg = self.pool.get_mut(id);
        seg.ecn = item.ecn; // the VOQ's CE mark lands in the slot
        let (wire_size, has_payload) = (u64::from(seg.wire_size()), seg.has_payload());
        let mut p = if circuit { self.circuit } else { self.packet };
        let true_ser = SimDuration::serialization(wire_size, p.rate_bps);
        // Time plane: the launching host is always resident (data
        // launches at the flow's source rack, acks at its destination).
        if !self.clock.is_inert() {
            let seat = self.seats[seg.flow.0 as usize];
            let host = match seg.dir {
                Direction::DataPath => seat.s_local,
                Direction::AckPath => seat.r_local,
            } as usize;
            match self.clock.on_send(host, at, &self.sched, self.guard_band) {
                ClockVerdict::Send => {}
                ClockVerdict::GuardDrop => {
                    self.drop_seg(id);
                    return true_ser; // slot burned, segment gone
                }
                ClockVerdict::Defer => {
                    // Re-enqueue at what the host believes is the next
                    // slot start.
                    let next = self.sched.day_start(self.sched.day_number(at) + 1);
                    if cfg!(debug_assertions) {
                        self.ledger.on_nic += 1;
                    }
                    self.q.schedule(next, REv::Enqueue { dst: dst as u32, seg: id });
                    return true_ser;
                }
                ClockVerdict::WrongTdn { perceived_day } => {
                    // The host launches under the network it thinks is
                    // active: stale parameters for this transmission.
                    p = if self.connected_on_day(perceived_day, self.r, dst) {
                        self.circuit
                    } else {
                        self.packet
                    };
                }
            }
        }
        let ser = SimDuration::serialization(wire_size, p.rate_bps);
        let jitter = match p.jitter {
            Some((prob, mean)) if self.rng.chance(prob) => {
                SimDuration::from_nanos(self.rng.exponential(mean.as_nanos() as f64) as u64)
            }
            _ => SimDuration::ZERO,
        };
        // EPS transit faults (burst windows) apply on the packet
        // network only.
        if !circuit {
            match self.faults.on_transit(at) {
                EpsVerdict::Pass => {}
                EpsVerdict::Corrupt if has_payload => self.mangle(id),
                // A corrupted pure ACK is a loss.
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
                if cfg!(debug_assertions) {
                    self.ledger.wire_dups += 1;
                }
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

    /// Damage the payload checksum of the segment in slot `id`.
    fn mangle(&mut self, id: u32) {
        let seg = self.pool.get_mut(id);
        seg.payload_csum = crate::emulator::mangle_csum(seg.payload_csum);
    }

    /// The segment in slot `id` left the fabric at launch, for one of
    /// the causes `Ledger::dropped` lists.
    fn drop_seg(&mut self, id: u32) {
        self.pool.release(id);
        if cfg!(debug_assertions) {
            self.ledger.dropped += 1;
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
        self.outbox[rack as usize].push(Msg {
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
        self.peer = self.peer_of[(day % self.peer_of.len() as u64) as usize][self.r];
        // Notify resident hosts, sampling latencies (and fault
        // verdicts) in fixed host order.
        for h in 0..self.hosts.len() {
            let flow = self.hflow[h] as usize;
            let seat = self.seats[flow];
            let connected =
                self.connected_on_day(day, seat.src_rack as usize, seat.dst_rack as usize);
            let tdn = if connected { TdnId(1) } else { TdnId(0) };
            let lat = self.notify_model.sample(&mut self.rng, flow).total();
            let side = u8::from(!self.hsend[h]);
            match self.faults.on_notify(day, flow, side) {
                NotifyVerdict::Drop => {}
                NotifyVerdict::Deliver { extra, duplicate } => {
                    let base = now + lat + extra;
                    let host = h as u32;
                    self.q.schedule(base, REv::Notify { host, tdn, gen: day });
                    if let Some(lag) = duplicate {
                        self.q
                            .schedule(base + lag, REv::Notify { host, tdn, gen: day });
                    }
                }
            }
        }
        // Kick services for the new matching.
        if let Some(dst) = self.peer {
            if self.voqs[dst].has_eligible(Some(TdnId(1))) && !self.circuit_pending {
                let at = self.circuit_busy_until.max(now);
                self.q.schedule(at, REv::CircuitService);
                self.circuit_pending = true;
            }
        }
        self.kick_eps_if_work(now);
        self.q.schedule(now + self.sched.day_len, REv::NightStart { day });
    }

    fn on_night_start(&mut self, now: SimTime, day: u64) {
        self.peer = None;
        self.q
            .schedule(now + self.sched.night_len, REv::DayStart { day: day + 1 });
        // Traffic that was circuit-bound now needs the EPS.
        self.kick_eps_if_work(now);
    }

    /// Schedule an EPS service pass if any destination has eligible
    /// packet traffic (checking first saves an empty pop per rack per
    /// schedule edge).
    fn kick_eps_if_work(&mut self, now: SimTime) {
        if self.eps_pending {
            return;
        }
        let any = (0..self.racks).any(|d| {
            d != self.r && self.peer != Some(d) && self.voqs[d].has_eligible(Some(TdnId(0)))
        });
        if any {
            let at = self.eps_busy_until.max(now);
            self.q.schedule(at, REv::PacketService);
            self.eps_pending = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp::cc::{CcConfig, Cubic};
    use tcp::{Config, Connection, FlowId};

    fn cubic_pair(
        i: usize,
        bytes: u64,
    ) -> (Box<dyn Transport + Send>, Box<dyn Transport + Send>) {
        let cfg = Config {
            bytes_to_send: bytes,
            ..Config::default()
        };
        let cc = CcConfig::default();
        (
            Box::new(Connection::connect(
                FlowId(i as u32),
                cfg.clone(),
                Box::new(Cubic::new(cc)),
                SimTime::ZERO,
            )),
            Box::new(Connection::listen(
                FlowId(i as u32),
                cfg,
                Box::new(Cubic::new(cc)),
            )),
        )
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

    fn run_digest(cfg: ShardConfig, workers: usize, bytes: u64) -> (u64, ShardResult) {
        let emu = ShardedEmulator::new(cfg, ring_flows(4), |i, _| cubic_pair(i, bytes));
        let res = emu.run(SimTime::from_millis(3), workers);
        (res.stats_digest(), res)
    }

    #[test]
    fn digest_invariant_across_worker_counts() {
        let (d1, r1) = run_digest(small_cfg(), 1, u64::MAX);
        let (d2, _) = run_digest(small_cfg(), 2, u64::MAX);
        let (d4, _) = run_digest(small_cfg(), 4, u64::MAX);
        assert!(r1.total_acked() > 0);
        assert_eq!(d1, d2, "workers=2 diverged from workers=1");
        assert_eq!(d1, d4, "workers=4 diverged from workers=1");
    }

    #[test]
    fn chaos_run_is_worker_invariant() {
        let chaos = || {
            let mut cfg = small_cfg();
            cfg.faults.notify_loss = 0.05;
            cfg.faults.notify_duplicate = 0.05;
            cfg.impair.loss_rate = 0.005;
            cfg.impair.reorder_rate = 0.02;
            cfg.impair.reorder_delay = SimDuration::from_micros(120);
            cfg.clock = ClockPlan {
                offset_bound: SimDuration::from_micros(40),
                ..ClockPlan::none()
            };
            cfg.guard_band = SimDuration::from_micros(2);
            cfg
        };
        let (d1, r1) = run_digest(chaos(), 1, u64::MAX);
        let (d4, _) = run_digest(chaos(), 4, u64::MAX);
        assert!(r1.total_acked() > 0);
        assert_eq!(d1, d4, "chaos run diverged across worker counts");
    }

    #[test]
    #[should_panic(expected = "day-fate faults")]
    fn day_fate_faults_are_rejected() {
        let mut cfg = small_cfg();
        cfg.faults.link_failure = Some(crate::faults::LinkFailure {
            day: 1,
            at_fraction: 0.5,
            outage_days: 1,
        });
        let _ = ShardedEmulator::new(cfg, ring_flows(4), |i, _| cubic_pair(i, 1_000));
    }

    #[test]
    #[should_panic(expected = "names TDN 2")]
    fn third_network_is_rejected() {
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
        emu.shards[2].lock().unwrap().ledger.polled += 1;
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
            shard.w_end = SimTime::from_micros(1);
            shard.run_window();
        }
    }

    /// Start `emu` and step it window by window, inline, until some
    /// shard has handed mail off; returns the parity it went to.
    fn run_until_mail(emu: &ShardedEmulator<'_>) -> usize {
        for s in &emu.shards {
            s.lock().unwrap().start();
        }
        while emu.mail.in_flight() == 0 {
            assert!(emu.next_window(SimTime::from_millis(1)), "ran out before any cross-rack segment");
            for s in &emu.shards {
                s.lock().unwrap().run_window();
            }
        }
        emu.shards[0].lock().unwrap().parity
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "segment conservation violated")]
    fn lost_mail_trips_the_conservation_law() {
        // A collect that drops one batch on the floor: the segment is
        // out of the mailbox and in no queue, and the next barrier says so.
        let emu = ShardedEmulator::new(small_cfg(), ring_flows(4), |i, _| cubic_pair(i, u64::MAX));
        let parity = run_until_mail(&emu);
        let mut lost = 0;
        for dst in 0..4 {
            emu.mail.collect(parity, dst, |run| lost += run.len());
        }
        assert!(lost > 0);
        emu.next_window(SimTime::from_millis(1));
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
        // wheel node within one 64-byte line (ROADMAP 4a); the segment
        // itself is in the pool, whatever it weighs.
        assert!(std::mem::size_of::<REv>() <= 40);
        assert!(DefaultQueue::<REv>::node_bytes() <= 64);
        assert_eq!(std::mem::size_of::<Segment>(), 120);
    }
}
