//! The general N-rack hybrid RDCN of §2.1/Fig. 1.
//!
//! The two-rack [`crate::Emulator`] reproduces Etalon's *strict
//! time-division* emulation (only one network serves the measured pair at
//! a time — their 6:1 schedule stands in for an 8-rack rotor). This
//! module models the full hybrid fabric instead:
//!
//! * every rack has an always-on EPS uplink (10 Gbps, shared by all of
//!   its outgoing pair-queues, round-robin);
//! * one OCS port per rack; a rotor schedule of `N−1` matchings connects
//!   every rack pair directly exactly once per week (demand-oblivious,
//!   [`crate::schedule::rotor`]), with reconfiguration nights between
//!   days;
//! * per destination the ToR uses the circuit when it exists, otherwise
//!   the packet network ("for a given destination, only one network is
//!   in use at a time");
//! * ToRs notify hosts per flow when their pair's circuit comes up
//!   (TDN 1) or goes away (TDN 0).
//!
//! Flows are unidirectional bulk transfers between rack pairs; each flow
//! has one sender container in the source rack and one receiver in the
//! destination rack, as in the testbed.

use crate::config::TdnParams;
use crate::notify::{NotifyConfig, NotifyModel};
use crate::schedule::rotor;
use crate::voq::{Voq, VoqConfig};
use simcore::{DefaultEventId, DefaultQueue, DetRng, SimDuration, SimTime};
use tcp::{ConnStats, Direction, Segment, Transport};
use wire::TdnId;

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
    /// OCS day length.
    pub day_len: SimDuration,
    /// Reconfiguration night between days.
    pub night_len: SimDuration,
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
    pub fn paper_8rack() -> MultiRackConfig {
        MultiRackConfig {
            racks: 8,
            packet: TdnParams::packet_10g(),
            circuit: TdnParams::optical_100g(),
            day_len: SimDuration::from_micros(180),
            night_len: SimDuration::from_micros(20),
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

/// One flow between a rack pair.
#[derive(Debug, Clone, Copy)]
pub struct PairFlow {
    /// Source rack of the data.
    pub src: usize,
    /// Destination rack.
    pub dst: usize,
}

enum Ev {
    Arrive { flow: usize, to_sender: bool, seg: Segment },
    /// Serve the circuit queue of `src` (its current peer's VOQ).
    CircuitService { src: usize },
    /// Serve rack `src`'s shared EPS uplink (round-robin over pair VOQs).
    PacketService { src: usize },
    DayStart { day: u64 },
    NightStart { day: u64 },
    Notify { flow: usize, to_sender: bool, tdn: TdnId, gen: u64 },
    HostTimer { flow: usize, to_sender: bool },
    Enqueue { src: usize, dst: usize, seg: Segment },
}

/// Results of a multi-rack run.
#[derive(Debug)]
pub struct MultiRackResult {
    /// Per-flow sender stats.
    pub sender_stats: Vec<ConnStats>,
    /// Per-flow receiver stats.
    pub receiver_stats: Vec<ConnStats>,
    /// Tail drops summed over all pair VOQs.
    pub drops: u64,
    /// Events processed.
    pub events: u64,
    /// Simulated duration.
    pub duration: SimDuration,
}

impl MultiRackResult {
    /// Aggregate acknowledged bytes.
    pub fn total_acked(&self) -> u64 {
        self.sender_stats.iter().map(|s| s.bytes_acked).sum()
    }
}

/// The N-rack emulator.
pub struct MultiRackEmulator<'a> {
    cfg: MultiRackConfig,
    q: DefaultQueue<Ev>,
    rng: DetRng,
    notify_model: NotifyModel,
    matchings: Vec<Vec<(usize, usize)>>,
    /// Current OCS peer of each rack (None during nights).
    peer: Vec<Option<usize>>,

    flows: Vec<PairFlow>,
    senders: Vec<Box<dyn Transport + 'a>>,
    receivers: Vec<Box<dyn Transport + 'a>>,
    timer_slots: Vec<[Option<(SimTime, DefaultEventId)>; 2]>,

    /// voqs[src][dst]: per-pair queue at the source ToR.
    voqs: Vec<Vec<Voq>>,
    /// Shared EPS uplink state per rack.
    eps_busy_until: Vec<SimTime>,
    eps_pending: Vec<bool>,
    eps_rr: Vec<usize>,
    /// Circuit port state per rack.
    circuit_busy_until: Vec<SimTime>,
    circuit_pending: Vec<bool>,
    /// Host NIC per rack.
    nic_free: Vec<SimTime>,
}

impl<'a> MultiRackEmulator<'a> {
    /// Create the fabric with one (sender, receiver) pair per flow.
    pub fn new(
        cfg: MultiRackConfig,
        flows: Vec<PairFlow>,
        mut factory: impl FnMut(usize, &PairFlow) -> (Box<dyn Transport + 'a>, Box<dyn Transport + 'a>),
    ) -> Self {
        assert!(cfg.racks >= 2 && cfg.racks.is_multiple_of(2));
        for f in &flows {
            assert!(f.src != f.dst && f.src < cfg.racks && f.dst < cfg.racks);
        }
        let matchings = rotor::matchings(cfg.racks);
        let mut senders = Vec::new();
        let mut receivers = Vec::new();
        for (i, f) in flows.iter().enumerate() {
            let (s, r) = factory(i, f);
            senders.push(s);
            receivers.push(r);
        }
        let voqs = (0..cfg.racks)
            .map(|s| {
                (0..cfg.racks)
                    .map(|d| Voq::new(format!("voq_{s}_{d}"), cfg.voq))
                    .collect()
            })
            .collect();
        let n = cfg.racks;
        let nf = flows.len();
        MultiRackEmulator {
            rng: DetRng::new(cfg.seed),
            notify_model: NotifyModel::new(cfg.notify),
            matchings,
            peer: vec![None; n],
            q: DefaultQueue::new(),
            flows,
            senders,
            receivers,
            timer_slots: vec![[None, None]; nf],
            voqs,
            eps_busy_until: vec![SimTime::ZERO; n],
            eps_pending: vec![false; n],
            eps_rr: vec![0; n],
            circuit_busy_until: vec![SimTime::ZERO; n],
            circuit_pending: vec![false; n],
            nic_free: vec![SimTime::ZERO; n],
            cfg,
        }
    }

    /// Run the fabric until `until`.
    pub fn run(mut self, until: SimTime) -> MultiRackResult {
        self.q.schedule(SimTime::ZERO, Ev::DayStart { day: 0 });
        for i in 0..self.senders.len() {
            self.flush(SimTime::ZERO, i, true);
            self.flush(SimTime::ZERO, i, false);
        }
        // Flows finish only during events that call into their
        // transports, so track doneness per touched flow instead of
        // scanning every sender after every event.
        let mut done = vec![false; self.senders.len()];
        let mut done_count = 0;
        for (i, s) in self.senders.iter().enumerate() {
            if s.is_done() {
                done[i] = true;
                done_count += 1;
            }
        }
        while let Some((now, ev)) = self.q.pop() {
            if now > until {
                break;
            }
            let touched = match &ev {
                Ev::Arrive { flow, .. }
                | Ev::Notify { flow, .. }
                | Ev::HostTimer { flow, .. } => Some(*flow),
                _ => None,
            };
            match ev {
                Ev::Arrive { flow, to_sender, seg } => {
                    self.host(flow, to_sender).on_segment(now, &seg);
                    self.flush(now, flow, to_sender);
                    self.flush(now, flow, !to_sender);
                }
                Ev::Enqueue { src, dst, seg } => {
                    if self.voqs[src][dst].enqueue(now, seg) {
                        self.kick(now, src, dst);
                    }
                }
                Ev::CircuitService { src } => {
                    self.circuit_pending[src] = false;
                    self.circuit_service(now, src);
                }
                Ev::PacketService { src } => {
                    self.eps_pending[src] = false;
                    self.packet_service(now, src);
                }
                Ev::DayStart { day } => self.on_day_start(now, day),
                Ev::NightStart { day } => self.on_night_start(now, day),
                Ev::Notify { flow, to_sender, tdn, gen } => {
                    self.host(flow, to_sender).on_tdn_notification(now, tdn, gen);
                    self.flush(now, flow, to_sender);
                }
                Ev::HostTimer { flow, to_sender } => {
                    self.timer_slots[flow][usize::from(to_sender)] = None;
                    self.host(flow, to_sender).on_timer(now);
                    self.flush(now, flow, to_sender);
                }
            }
            if let Some(flow) = touched {
                if !done[flow] && self.senders[flow].is_done() {
                    done[flow] = true;
                    done_count += 1;
                }
            }
            if done_count == self.senders.len() {
                break;
            }
        }
        crate::emulator::EVENTS_TOTAL
            .fetch_add(self.q.events_processed(), std::sync::atomic::Ordering::Relaxed);
        MultiRackResult {
            sender_stats: self.senders.iter().map(|s| *s.stats()).collect(),
            receiver_stats: self.receivers.iter().map(|r| *r.stats()).collect(),
            drops: self
                .voqs
                .iter()
                .flat_map(|row| row.iter().map(|v| v.drops))
                .sum(),
            events: self.q.events_processed(),
            duration: self.q.now().saturating_since(SimTime::ZERO),
        }
    }

    fn host(&mut self, flow: usize, to_sender: bool) -> &mut (dyn Transport + 'a) {
        if to_sender {
            self.senders[flow].as_mut()
        } else {
            self.receivers[flow].as_mut()
        }
    }

    /// The (src, dst) racks a segment travels between, given its flow and
    /// direction.
    fn seg_racks(&self, flow: usize, dir: Direction) -> (usize, usize) {
        let f = self.flows[flow];
        match dir {
            Direction::DataPath => (f.src, f.dst),
            Direction::AckPath => (f.dst, f.src),
        }
    }

    fn flush(&mut self, now: SimTime, flow: usize, sender_side: bool) {
        loop {
            let seg = if sender_side {
                self.senders[flow].poll_send(now)
            } else {
                self.receivers[flow].poll_send(now)
            };
            let Some(seg) = seg else { break };
            let (src, dst) = self.seg_racks(flow, seg.dir);
            // Rack NIC serialization, as in the two-rack model.
            let start = self.nic_free[src].max(now);
            let done = start
                + SimDuration::serialization(u64::from(seg.wire_size()), self.cfg.host_rate_bps);
            self.nic_free[src] = done;
            self.q.schedule(done, Ev::Enqueue { src, dst, seg });
        }
        let want = if sender_side {
            self.senders[flow].next_timer()
        } else {
            self.receivers[flow].next_timer()
        }
        .map(|t| t.max(now));
        let slot = &mut self.timer_slots[flow][usize::from(sender_side)];
        if want != slot.map(|(t, _)| t) {
            if let Some((_, id)) = slot.take() {
                self.q.cancel(id);
            }
            if let Some(t) = want {
                let id = self.q.schedule(
                    t,
                    Ev::HostTimer {
                        flow,
                        to_sender: sender_side,
                    },
                );
                *slot = Some((t, id));
            }
        }
    }

    /// New data arrived for (src, dst): wake whichever service path
    /// currently owns that destination.
    fn kick(&mut self, now: SimTime, src: usize, dst: usize) {
        if self.peer[src] == Some(dst) {
            if !self.circuit_pending[src] {
                let at = self.circuit_busy_until[src].max(now);
                self.q.schedule(at, Ev::CircuitService { src });
                self.circuit_pending[src] = true;
            }
        } else if !self.eps_pending[src] {
            let at = self.eps_busy_until[src].max(now);
            self.q.schedule(at, Ev::PacketService { src });
            self.eps_pending[src] = true;
        }
    }

    /// Serve the circuit: drain the VOQ toward the connected peer.
    fn circuit_service(&mut self, now: SimTime, src: usize) {
        let Some(dst) = self.peer[src] else { return };
        let Some(seg) = self.voqs[src][dst].dequeue_eligible(now, Some(TdnId(1))) else {
            return;
        };
        let p = self.cfg.circuit;
        let ser = SimDuration::serialization(u64::from(seg.wire_size()), p.rate_bps);
        self.deliver(now + ser + p.one_way, seg);
        self.circuit_busy_until[src] = now + ser;
        if self.voqs[src][dst].has_eligible(Some(TdnId(1))) {
            self.q.schedule(now + ser, Ev::CircuitService { src });
            self.circuit_pending[src] = true;
        }
    }

    /// Serve the shared EPS uplink: round-robin over the rack's pair
    /// queues whose destination has no circuit right now.
    fn packet_service(&mut self, now: SimTime, src: usize) {
        let n = self.cfg.racks;
        let start = self.eps_rr[src];
        let mut chosen = None;
        for k in 0..n {
            let dst = (start + k) % n;
            if dst == src || self.peer[src] == Some(dst) {
                continue; // circuit traffic does not ride the EPS
            }
            if self.voqs[src][dst].has_eligible(Some(TdnId(0))) {
                chosen = Some(dst);
                break;
            }
        }
        let Some(dst) = chosen else { return };
        self.eps_rr[src] = (dst + 1) % n;
        let seg = self.voqs[src][dst]
            .dequeue_eligible(now, Some(TdnId(0)))
            .expect("has_eligible checked");
        let p = self.cfg.packet;
        let ser = SimDuration::serialization(u64::from(seg.wire_size()), p.rate_bps);
        let jitter = match p.jitter {
            Some((prob, mean)) if self.rng.chance(prob) => {
                SimDuration::from_nanos(self.rng.exponential(mean.as_nanos() as f64) as u64)
            }
            _ => SimDuration::ZERO,
        };
        self.deliver(now + ser + p.one_way + jitter, seg);
        self.eps_busy_until[src] = now + ser;
        // More EPS work for this rack?
        let more = (0..n).any(|d| {
            d != src && self.peer[src] != Some(d) && self.voqs[src][d].has_eligible(Some(TdnId(0)))
        });
        if more {
            self.q.schedule(now + ser, Ev::PacketService { src });
            self.eps_pending[src] = true;
        }
    }

    fn deliver(&mut self, at: SimTime, seg: Segment) {
        let flow = seg.flow.0 as usize;
        let to_sender = seg.dir == Direction::AckPath;
        self.q.schedule(at, Ev::Arrive { flow, to_sender, seg });
    }

    fn on_day_start(&mut self, now: SimTime, day: u64) {
        let m = &self.matchings[(day % self.matchings.len() as u64) as usize];
        let mut peer = vec![None; self.cfg.racks];
        for &(a, b) in m {
            peer[a] = Some(b);
            peer[b] = Some(a);
        }
        self.peer = peer;
        // Notify flows whose pair's connectivity changed; every flow gets
        // a notification each day (circuit up -> TDN 1, otherwise TDN 0),
        // mirroring the ToR broadcast.
        for i in 0..self.flows.len() {
            let f = self.flows[i];
            let tdn = if self.peer[f.src] == Some(f.dst) {
                TdnId(1)
            } else {
                TdnId(0)
            };
            for to_sender in [true, false] {
                let lat = self.notify_model.sample(&mut self.rng, i).total();
                self.q
                    .schedule(now + lat, Ev::Notify { flow: i, to_sender, tdn, gen: day });
            }
        }
        // Kick services: circuits for the new matching, EPS for the rest.
        for src in 0..self.cfg.racks {
            if let Some(dst) = self.peer[src] {
                if self.voqs[src][dst].has_eligible(Some(TdnId(1))) && !self.circuit_pending[src] {
                    let at = self.circuit_busy_until[src].max(now);
                    self.q.schedule(at, Ev::CircuitService { src });
                    self.circuit_pending[src] = true;
                }
            }
            if !self.eps_pending[src] {
                let at = self.eps_busy_until[src].max(now);
                self.q.schedule(at, Ev::PacketService { src });
                self.eps_pending[src] = true;
            }
        }
        self.q
            .schedule(now + self.cfg.day_len, Ev::NightStart { day });
    }

    fn on_night_start(&mut self, now: SimTime, day: u64) {
        // Circuits go dark while the OCS reconfigures; the EPS keeps
        // running (the general hybrid model — unlike the strict-TDM
        // two-rack emulation).
        self.peer = vec![None; self.cfg.racks];
        self.q
            .schedule(now + self.cfg.night_len, Ev::DayStart { day: day + 1 });
        // Traffic that was circuit-bound now needs the EPS.
        for src in 0..self.cfg.racks {
            if !self.eps_pending[src] {
                self.q.schedule(now, Ev::PacketService { src });
                self.eps_pending[src] = true;
            }
        }
    }
}
