//! The one test harness of the root suites: the constants every
//! case sizes its endpoints with, the handshake, the peer-segment
//! builder, single-host scripts, the two-host driver, the forwarding
//! wrapper at the `Transport` seam and the busy chaos plans every armed
//! run shares. It lives in the library, not in a `tests/common` module,
//! so each root test binary links it whole.

use std::collections::VecDeque;
use std::ops::Deref;

use rdcn::{ClockPlan, FaultPlan, ImpairPlan, NetConfig};
use simcore::{SimDuration, SimTime};
use tcp::cc::{CcConfig, CongestionControl, Cubic, Dctcp, ReTcp, ReTcpConfig, Reno};
use tcp::{
    ConnError, ConnStats, Connection, Direction, FlowId, SackBlocks, Segment, SeqNum, Transport,
};
use tdtcp::{TdtcpConfig, TdtcpConnection};
use wire::{Ecn, TdnId};

/// The test segment size.
pub const MSS: u32 = 1000;

/// The flow every hand-driven connection and peer segment belongs to.
pub const FLOW: FlowId = FlowId(1);

/// The sizing of every test controller: a ten-segment initial window
/// and a 16 MiB ceiling no test reaches.
pub const CC: CcConfig = CcConfig {
    mss: MSS,
    init_cwnd_pkts: 10,
    max_cwnd: 1 << 24,
};

/// `us` microseconds after the start.
pub fn t(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

/// The controller numbered `kind` modulo 4: CUBIC, Reno, DCTCP, reTCP.
pub fn cca(kind: u8) -> Box<dyn CongestionControl> {
    match kind % 4 {
        0 => Box::new(Cubic::new(CC)),
        1 => Box::new(Reno::new(CC)),
        2 => Box::new(Dctcp::new(CC)),
        _ => Box::new(ReTcp::new(ReTcpConfig {
            cc: CC,
            ..ReTcpConfig::default()
        })),
    }
}

/// A TCP endpoint's configuration with `bytes` to send at the test MSS.
pub fn config(bytes: u64) -> tcp::Config {
    tcp::Config {
        mss: MSS,
        bytes_to_send: bytes,
        ..tcp::Config::default()
    }
}

/// A TDTCP endpoint's configuration (two TDNs) over [`config`]`(bytes)`.
pub fn td_config(bytes: u64) -> TdtcpConfig {
    TdtcpConfig {
        tcp: config(bytes),
        ..TdtcpConfig::default()
    }
}

/// A TCP sender and listener on `cfg`, each with controller `kind`.
pub fn tcp_pair(cfg: tcp::Config, kind: u8) -> (Connection, Connection) {
    let snd = Connection::connect(FLOW, cfg.clone(), cca(kind), SimTime::ZERO);
    (snd, Connection::listen(FLOW, cfg, cca(kind)))
}

/// A TDTCP sender and listener on `cfg`, cloning controller `kind`.
pub fn td_pair(cfg: TdtcpConfig, kind: u8) -> (Connection, Connection) {
    let cc = cca(kind);
    let snd = TdtcpConnection::connect(FLOW, cfg.clone(), cc.as_ref(), SimTime::ZERO);
    (snd, TdtcpConnection::listen(FLOW, cfg, cc.as_ref()))
}

/// The busy control plane: 5 % of notifications lost.
pub fn busy_faults() -> FaultPlan {
    FaultPlan::notification_loss(0.05)
}

/// The busy data path: 1 % of segments lost, 5 % held back up to 150 µs,
/// 1 % duplicated and 0.2 % corrupted.
pub fn busy_impair() -> ImpairPlan {
    ImpairPlan {
        loss_rate: 0.01,
        reorder_rate: 0.05,
        reorder_delay: SimDuration::from_micros(150),
        duplicate_rate: 0.01,
        corrupt_rate: 0.002,
    }
}

/// The busy time plane, every mechanism at once: per-host offsets up to
/// 120 µs, 200 ppm drift, 500 ns read jitter, and a resync every
/// millisecond to within 2 µs.
pub fn busy_clock() -> ClockPlan {
    ClockPlan {
        offset_bound: SimDuration::from_micros(120),
        drift_ppm: 200.0,
        jitter: SimDuration::from_nanos(500),
        resync_interval: SimDuration::from_millis(1),
        resync_error: SimDuration::from_micros(2),
        ..ClockPlan::default()
    }
}

/// Arm every chaos plane of `net` with its busy plan.
pub fn arm(net: &mut NetConfig) {
    net.faults = busy_faults();
    net.impair = busy_impair();
    net.clock = busy_clock();
}

/// The three-way handshake of `(a, b)`: `a`'s SYN at 0 µs reaches `b`
/// at 10, `b`'s SYN-ACK reaches `a` at 20, and `a`'s handshake ACK,
/// which carries no data, reaches `b` at 30. Returns both ends and the
/// three segments.
pub fn handshake<T: Transport>((mut a, mut b): (T, T)) -> (T, T, [Segment; 3]) {
    let syn = a.poll_send(t(0)).expect("SYN");
    assert!(syn.flags.syn);
    b.on_segment(t(10), &syn);
    let syn_ack = b.poll_send(t(10)).expect("SYN-ACK");
    a.on_segment(t(20), &syn_ack);
    let ack = a.poll_send(t(20)).expect("handshake ACK");
    assert!(!ack.has_payload());
    b.on_segment(t(30), &ack);
    assert!(a.is_established() && b.is_established());
    (a, b, [syn, syn_ack, ack])
}

/// The one builder of the segments a test plays the peer with: a
/// constructor for the kind of segment, then a setter per field that
/// differs, e.g. `Peer::ack(1 + 2 * MSS).wnd(0).sack(&[(l, r)])`. It
/// dereferences to the `Segment`.
#[derive(Debug, Clone, Copy)]
pub struct Peer(pub Segment);

impl Peer {
    /// A cumulative ACK of `ack` from the receiver, window 1 MiB.
    pub fn ack(ack: u32) -> Peer {
        let mut s = Segment::new(FLOW, Direction::AckPath);
        s.flags.ack = true;
        s.ack = SeqNum(ack);
        s.wnd = 1 << 20;
        Peer(s)
    }

    /// A reset from the receiver.
    pub fn rst() -> Peer {
        let mut s = Segment::new(FLOW, Direction::AckPath);
        s.flags.rst = true;
        Peer(s)
    }

    /// The sender's SYN, window 1 MiB.
    pub fn syn() -> Peer {
        let mut s = Segment::new(FLOW, Direction::DataPath);
        s.flags.syn = true;
        s.wnd = 1 << 20;
        Peer(s)
    }

    /// `len` stamped data bytes at `seq` from the sender.
    pub fn data(seq: u32, len: u32) -> Peer {
        let mut s = Segment::new(FLOW, Direction::DataPath);
        s.seq = SeqNum(seq);
        s.len = len;
        s.stamp_payload();
        Peer(s)
    }

    /// Advertise `wnd` bytes.
    pub fn wnd(mut self, wnd: u32) -> Peer {
        self.0.wnd = wnd;
        self
    }

    /// SACK the `[left, right)` blocks.
    pub fn sack(mut self, blocks: &[(u32, u32)]) -> Peer {
        let mut sack = SackBlocks::EMPTY;
        for &(left, right) in blocks {
            sack.push(SeqNum(left), SeqNum(right));
        }
        self.0.set_sack(sack);
        self
    }

    /// Sent on TDN `tdn`: the ACK's TDTCP tag.
    pub fn tdn(mut self, tdn: u8) -> Peer {
        self.0.ack_tdn = Some(TdnId(tdn));
        self
    }

    /// Acknowledge the SYN-ACK too.
    pub fn acking(mut self) -> Peer {
        self.0.flags.ack = true;
        self.0.ack = SeqNum(1);
        self
    }

    /// The switch's circuit mark.
    pub fn circuit_mark(mut self) -> Peer {
        self.0.circuit_mark = true;
        self
    }

    /// Pinned to MPTCP subflow `tdn`.
    pub fn pin(mut self, tdn: u8) -> Peer {
        self.0.pin = Some(TdnId(tdn));
        self
    }

    /// MPTCP: the payload maps to data sequence `dsn`.
    pub fn dsn(mut self, dsn: u64) -> Peer {
        self.0.set_dss(dsn);
        self
    }

    /// MPTCP: MP_CAPABLE, on the first subflow's handshake.
    pub fn mp_capable(mut self) -> Peer {
        self.0.set_mp_capable();
        self
    }
}

impl Deref for Peer {
    type Target = Segment;

    fn deref(&self) -> &Segment {
        &self.0
    }
}

/// One step of a single-host script: what reaches the host, what it
/// must send or withhold, and what its state must be. Times are µs and
/// never move the clock backwards.
pub enum Step<T: ?Sized> {
    /// The peer's segment arrives.
    In(u64, Peer),
    /// A segment comes out, and the predicate holds of it.
    Out(u64, fn(&Segment) -> bool),
    /// `n` data segments come out.
    Sends(u64, usize),
    /// Nothing comes out.
    Quiet(u64),
    /// The host's next timer (one is armed) fires at its deadline.
    Timer,
    /// A TDN-change notification, with the next generation, arrives.
    Notify(u64, u8),
    /// The host's state passes the check, which asserts.
    Check(fn(&T)),
}

/// Play `script` against `host`, clock starting at `from`; returns the
/// clock at its end. A step that fails panics with its index.
pub fn play<T: Transport + ?Sized>(host: &mut T, from: SimTime, script: &[Step<T>]) -> SimTime {
    let (mut now, mut gen) = (from, 0);
    for (i, step) in script.iter().enumerate() {
        use Step::*;
        if let In(us, _) | Out(us, _) | Sends(us, _) | Quiet(us) | Notify(us, _) = *step {
            now = now.max(t(us));
        }
        match *step {
            In(_, seg) => host.on_segment(now, &seg),
            Out(_, holds) => {
                let seg = host.poll_send(now);
                assert!(seg.is_some_and(|s| holds(&s)), "step {i}: {seg:?} came out");
            }
            Sends(_, n) => {
                for k in 0..n {
                    let seg = host.poll_send(now);
                    let sent = seg.is_some_and(|s| s.has_payload());
                    assert!(sent, "step {i}: segment {k} of {n} was {seg:?}");
                }
            }
            Quiet(_) => {
                let seg = host.poll_send(now);
                assert!(seg.is_none(), "step {i}: {seg:?} came out");
            }
            Timer => {
                let deadline = host.next_timer();
                now = now.max(deadline.unwrap_or_else(|| panic!("step {i}: no timer armed")));
                host.on_timer(now);
            }
            Notify(_, tdn) => {
                host.on_tdn_notification(now, TdnId(tdn), gen);
                gen += 1;
            }
            Check(check) => check(host),
        }
    }
    now
}

/// One end of a [`World`].
#[derive(Debug, Clone, Copy)]
pub enum Side {
    Sender,
    Receiver,
}

/// What the network does to a segment it delivers.
#[derive(Debug, Clone, Copy)]
pub enum Fate {
    Pass,
    Drop,
    Dup,
    Corrupt,
    CeMark,
    CircuitMark,
}

/// One step of a two-host run.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Let `us` microseconds pass.
    Wait(u32),
    /// Take the `pick`-th segment in flight *from* `from` (anything but 0
    /// reorders) and apply `fate` to it.
    Deliver { from: Side, pick: u8, fate: Fate },
    /// Jump to `side`'s next timer deadline and fire it.
    Timer(Side),
    /// A TDN-change notification reaches both hosts.
    Notify(u8),
}

/// The two-host driver: one connection pair and the two directions of
/// wire between them, each segment stamped with when it was sent. Either
/// `step` moves it one [`Op`] at a time, or `relay` runs it over a fixed
/// delay to the end.
pub struct World<T: Transport + ?Sized = dyn Transport> {
    pub snd: Box<T>,
    pub rcv: Box<T>,
    from_snd: VecDeque<(SimTime, Segment)>,
    from_rcv: VecDeque<(SimTime, Segment)>,
    /// Everything either end emitted since the caller last cleared it.
    pub log: Vec<Segment>,
}

impl<T: Transport + ?Sized> World<T> {
    /// The pair at time zero, the sender's SYN on the wire.
    pub fn new(snd: Box<T>, rcv: Box<T>) -> World<T> {
        let mut w = World {
            snd,
            rcv,
            from_snd: VecDeque::new(),
            from_rcv: VecDeque::new(),
            log: Vec::new(),
        };
        w.flush(Side::Sender, SimTime::ZERO);
        w
    }

    fn host(&mut self, side: Side) -> &mut T {
        match side {
            Side::Sender => &mut self.snd,
            Side::Receiver => &mut self.rcv,
        }
    }

    /// Drain `side` onto its wire, as the emulator does after every event.
    fn flush(&mut self, side: Side, now: SimTime) {
        let (ep, wire) = match side {
            Side::Sender => (&mut self.snd, &mut self.from_snd),
            Side::Receiver => (&mut self.rcv, &mut self.from_rcv),
        };
        for _ in 0..256 {
            let Some(seg) = ep.poll_send(now) else { break };
            self.log.push(seg);
            wire.push_back((now, seg));
        }
    }

    /// Hand `seg` to the side it is travelling to and drain that side.
    fn deliver(&mut self, from: Side, now: SimTime, seg: &Segment, copies: usize) {
        let to = match from {
            Side::Sender => Side::Receiver,
            Side::Receiver => Side::Sender,
        };
        for _ in 0..copies {
            self.host(to).on_segment(now, seg);
        }
        self.flush(to, now);
    }

    /// Fire `side`'s timer at `now` and drain it.
    fn fire(&mut self, side: Side, now: SimTime) {
        self.host(side).on_timer(now);
        self.flush(side, now);
    }

    /// Apply one op; returns the (possibly advanced) clock.
    pub fn step(&mut self, op: Op, now: SimTime) -> SimTime {
        match op {
            Op::Wait(us) => return now + SimDuration::from_micros(u64::from(us)),
            Op::Deliver { from, pick, fate } => {
                let wire = match from {
                    Side::Sender => &mut self.from_snd,
                    Side::Receiver => &mut self.from_rcv,
                };
                let pick = usize::from(pick).min(wire.len().saturating_sub(1));
                let Some((_, mut seg)) = wire.remove(pick) else {
                    return now;
                };
                match fate {
                    Fate::Corrupt if seg.has_payload() => seg.payload_csum ^= 0x5a5a,
                    Fate::CeMark if seg.ecn == Ecn::Ect0 => seg.ecn = Ecn::Ce,
                    Fate::CircuitMark => seg.circuit_mark = true,
                    _ => {}
                }
                let copies = match fate {
                    Fate::Drop => 0,
                    Fate::Dup => 2,
                    _ => 1,
                };
                self.deliver(from, now, &seg, copies);
            }
            Op::Timer(side) => {
                let Some(deadline) = self.host(side).next_timer() else {
                    return now;
                };
                let now = now.max(deadline);
                self.fire(side, now);
                return now;
            }
            Op::Notify(tdn) => {
                // Strictly increasing generations: every notification is
                // fresh, as from a ToR that loses and reorders nothing.
                let gen = now.as_nanos();
                for side in [Side::Sender, Side::Receiver] {
                    self.host(side).on_tdn_notification(now, TdnId(tdn), gen);
                    self.flush(side, now);
                }
            }
        }
        now
    }

    /// Run the pair over a wire of one-way `delay` until both ends are
    /// done or the clock passes `deadline`; returns the clock at the last
    /// event. `drop` sees each segment the sender sends with data, SYN or
    /// FIN, numbered from 1, and the wire loses it when `drop` says so.
    pub fn relay(
        &mut self,
        delay: SimDuration,
        mut drop: impl FnMut(&Segment, u64) -> bool,
        deadline: SimTime,
    ) -> SimTime {
        let (mut now, mut counted) = (SimTime::ZERO, 0);
        loop {
            let arrival = |wire: &VecDeque<(SimTime, Segment)>| Some(wire.front()?.0 + delay);
            let events = [
                arrival(&self.from_snd),
                arrival(&self.from_rcv),
                self.snd.next_timer(),
                self.rcv.next_timer(),
            ];
            let next = events.into_iter().enumerate().filter_map(|(k, at)| Some((at?, k))).min();
            let Some((at, event)) = next else { return now };
            if at > deadline {
                return now;
            }
            now = now.max(at);
            match event {
                0 => {
                    let (_, seg) = self.from_snd.pop_front().expect("a segment in flight");
                    let counts = seg.has_payload() || seg.flags.syn || seg.flags.fin;
                    counted += u64::from(counts);
                    let lost = counts && drop(&seg, counted);
                    self.deliver(Side::Sender, now, &seg, usize::from(!lost));
                }
                1 => {
                    let (_, seg) = self.from_rcv.pop_front().expect("a segment in flight");
                    self.deliver(Side::Receiver, now, &seg, 1);
                }
                2 => self.fire(Side::Sender, now),
                _ => self.fire(Side::Receiver, now),
            }
            if self.snd.is_done() && self.rcv.is_done() {
                return now;
            }
        }
    }
}

/// What a [`Tap`] reports of the host it wraps: every segment in and
/// out, every timer, every notification and every circuit prepare
/// signal, each with `now`. An observer returns nothing, so it cannot
/// feed the host; its one filter, `hears`, can only make the host deaf.
pub trait Observer {
    fn segment_in(&mut self, _now: SimTime, _seg: &Segment) {}
    fn segment_out(&mut self, _now: SimTime, _seg: &Segment) {}
    fn timer(&mut self, _now: SimTime) {}
    fn notification(&mut self, _now: SimTime, _tdn: TdnId, _gen: u64) {}
    fn circuit_prepare(&mut self, _now: SimTime) {}
    /// Whether a segment arriving at `now` reaches the host (and this
    /// observer) at all. Default: always.
    fn hears(&self, _now: SimTime) -> bool {
        true
    }
}

/// A host wrapped at the `Transport` seam: every method is forwarded to
/// `host`, and every call [`Observer`] names is reported to `observer`
/// first.
pub struct Tap<H: Transport + ?Sized, O> {
    pub host: Box<H>,
    pub observer: O,
}

impl<H: Transport + ?Sized, O: Observer> Transport for Tap<H, O> {
    fn on_segment(&mut self, now: SimTime, seg: &Segment) {
        if self.observer.hears(now) {
            self.observer.segment_in(now, seg);
            self.host.on_segment(now, seg);
        }
    }
    fn poll_send(&mut self, now: SimTime) -> Option<Segment> {
        self.host.poll_send(now).inspect(|s| self.observer.segment_out(now, s))
    }
    fn next_timer(&self) -> Option<SimTime> {
        self.host.next_timer()
    }
    fn on_timer(&mut self, now: SimTime) {
        self.observer.timer(now);
        self.host.on_timer(now);
    }
    fn on_tdn_notification(&mut self, now: SimTime, tdn: TdnId, gen: u64) {
        self.observer.notification(now, tdn, gen);
        self.host.on_tdn_notification(now, tdn, gen);
    }
    fn on_circuit_prepare(&mut self, now: SimTime) {
        self.observer.circuit_prepare(now);
        self.host.on_circuit_prepare(now);
    }
    fn stats(&self) -> &ConnStats {
        self.host.stats()
    }
    fn is_established(&self) -> bool {
        self.host.is_established()
    }
    fn is_done(&self) -> bool {
        self.host.is_done()
    }
    fn conn_error(&self) -> Option<ConnError> {
        self.host.conn_error()
    }
    fn variant(&self) -> &'static str {
        self.host.variant()
    }
    fn cwnd_report(&self) -> Vec<u32> {
        self.host.cwnd_report()
    }
}
