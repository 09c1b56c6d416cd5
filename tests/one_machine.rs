//! The TDTCP shell at one state set adds nothing.
//!
//! TDTCP duplicates TCP's congestion, RTT and pipe state per TDN (§3.1,
//! §4.3), so a TDTCP connection that only ever uses one state set *is*
//! TCP. This suite holds the implementation to that sentence: it drives a
//! plain `tcp::Connection` pair and a candidate pair through the same
//! scripted and random segment / timer streams — the same reordering,
//! drops, duplicates, corruption, CE and circuit marks, the same timer
//! firings at the same instants — and requires, after every step, equal
//! `ConnStats::digest()`s, equal `next_timer()`s, equal window reports and
//! equal emitted `(seq, len, flags, ack, sack, wnd)` sequences.
//!
//! The candidates are every way a `TdtcpConnection` ends up on one state
//! set: `num_tdns = 1`; the `per_tdn_state = false` ablation (which also
//! ignores notifications); and a two-TDN endpoint whose `TD_CAPABLE`
//! offer was not echoed — or never made — by a plain-TCP peer (§4.2
//! downgrade). What is left to differ is exactly what the shell adds:
//! negotiation, option tagging and notification handling.

use simcore::{SimDuration, SimTime};
use std::collections::VecDeque;
use tcp::cc::{CcConfig, CongestionControl, Cubic, Dctcp, ReTcp, ReTcpConfig, Reno};
use tcp::rtt::RttConfig;
use tcp::{Connection, FlowId, SackBlocks, Segment, SeqNum, Transport};
use tdtcp::{TdtcpConfig, TdtcpConnection};
use testkit::prop::{just, range, tuple2, tuple4, vec_of, weighted, Gen};
use testkit::{tk_assert_eq, Counters};
use wire::{Ecn, TcpFlags, TdnId};

const MSS: u32 = 1000;

/// What both machines must agree on for every emitted segment.
type Emitted = (SeqNum, u32, TcpFlags, SeqNum, SackBlocks, u32);

fn emitted(s: &Segment) -> Emitted {
    (s.seq, s.len, s.flags, s.ack, s.sack, s.wnd)
}

#[derive(Debug, Clone, Copy)]
enum Side {
    Sender,
    Receiver,
}

/// What the network does to the segment it was asked to deliver.
#[derive(Debug, Clone, Copy)]
enum Fate {
    Pass,
    Drop,
    Dup,
    Corrupt,
    CeMark,
    CircuitMark,
}

#[derive(Debug, Clone, Copy)]
enum Op {
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

fn arb_fate() -> Gen<Fate> {
    weighted(vec![
        (12, just(Fate::Pass)),
        (3, just(Fate::Drop)),
        (1, just(Fate::Dup)),
        (1, just(Fate::Corrupt)),
        (2, just(Fate::CeMark)),
        (2, just(Fate::CircuitMark)),
    ])
}

fn arb_side() -> Gen<Side> {
    weighted(vec![(1, just(Side::Sender)), (1, just(Side::Receiver))])
}

fn arb_op(max_tdn: u8) -> Gen<Op> {
    let deliver = |from: Side| {
        tuple2(range(0u8..6), arb_fate()).map(move |(pick, fate)| Op::Deliver {
            from,
            // Mostly in order; sometimes a later segment overtakes.
            pick: pick.saturating_sub(3),
            fate,
        })
    };
    weighted(vec![
        (3, range(1u32..400).map(Op::Wait)),
        (8, deliver(Side::Sender)),
        (8, deliver(Side::Receiver)),
        (2, arb_side().map(Op::Timer)),
        (1, range(0u8..max_tdn + 1).map(Op::Notify)),
    ])
}

/// The four congestion controllers, so every `CongestionControl` hook the
/// machine calls (`on_ack`, recovery enter/exit, `on_rto`,
/// `on_circuit_signal`) is observable through the window it produces.
fn cca(kind: u8) -> Box<dyn CongestionControl> {
    let cc = CcConfig {
        mss: MSS,
        init_cwnd_pkts: 10,
        max_cwnd: 1 << 22,
    };
    match kind % 4 {
        0 => Box::new(Cubic::new(cc)),
        1 => Box::new(Reno::new(cc)),
        2 => Box::new(Dctcp::new(cc)),
        _ => Box::new(ReTcp::new(ReTcpConfig {
            cc,
            ..ReTcpConfig::default()
        })),
    }
}

fn tcp_cfg(kind: u8, bytes: u64) -> tcp::Config {
    tcp::Config {
        mss: MSS,
        recv_buf: 64 * MSS,
        bytes_to_send: bytes,
        ecn: kind % 4 == 2,
        pacing: false,
        // The default 10 ms RTO floor would clamp away any difference in
        // how the timeout is synthesized from microsecond RTTs.
        rtt: RttConfig {
            min_rto: SimDuration::from_micros(1),
            ..RttConfig::default()
        },
        max_retries: 6,
        ..tcp::Config::default()
    }
}

type Pair = (Box<dyn Transport>, Box<dyn Transport>);

fn tcp_sender(kind: u8, bytes: u64) -> Box<dyn Transport> {
    Box::new(Connection::connect(
        FlowId(1),
        tcp_cfg(kind, bytes),
        cca(kind),
        SimTime::ZERO,
    ))
}

fn tcp_receiver(kind: u8) -> Box<dyn Transport> {
    Box::new(Connection::listen(FlowId(1), tcp_cfg(kind, 0), cca(kind)))
}

fn td_cfg(kind: u8, bytes: u64, num_tdns: u8, per_tdn_state: bool) -> TdtcpConfig {
    TdtcpConfig {
        tcp: tcp_cfg(kind, bytes),
        num_tdns,
        per_tdn_state,
        watchdog: None,
        ..TdtcpConfig::default()
    }
}

fn td_sender(kind: u8, bytes: u64, num_tdns: u8, per_tdn_state: bool) -> Box<dyn Transport> {
    let cfg = td_cfg(kind, bytes, num_tdns, per_tdn_state);
    Box::new(TdtcpConnection::connect(
        FlowId(1),
        cfg,
        cca(kind).as_ref(),
        SimTime::ZERO,
    ))
}

fn td_receiver(kind: u8, num_tdns: u8, per_tdn_state: bool) -> Box<dyn Transport> {
    let cfg = td_cfg(kind, 0, num_tdns, per_tdn_state);
    Box::new(TdtcpConnection::listen(FlowId(1), cfg, cca(kind).as_ref()))
}

/// One connection pair and the two directions of wire between them.
struct World {
    snd: Box<dyn Transport>,
    rcv: Box<dyn Transport>,
    from_snd: VecDeque<Segment>,
    from_rcv: VecDeque<Segment>,
    /// Everything either end emitted during the current step.
    log: Vec<Emitted>,
    notify_after_handshake: bool,
}

impl World {
    fn new((snd, rcv): Pair) -> World {
        let mut w = World {
            snd,
            rcv,
            from_snd: VecDeque::new(),
            from_rcv: VecDeque::new(),
            log: Vec::new(),
            notify_after_handshake: false,
        };
        w.flush(Side::Sender, SimTime::ZERO);
        w
    }

    /// Drain `side` onto its wire, as the emulator does after every event.
    fn flush(&mut self, side: Side, now: SimTime) {
        let (ep, wire) = match side {
            Side::Sender => (&mut self.snd, &mut self.from_snd),
            Side::Receiver => (&mut self.rcv, &mut self.from_rcv),
        };
        for _ in 0..256 {
            let Some(seg) = ep.poll_send(now) else { break };
            self.log.push(emitted(&seg));
            wire.push_back(seg);
        }
    }

    /// Apply one op; returns the (possibly advanced) clock.
    fn step(&mut self, op: Op, now: SimTime) -> SimTime {
        match op {
            Op::Wait(us) => return now + SimDuration::from_micros(u64::from(us)),
            Op::Deliver { from, pick, fate } => {
                let (wire, to, ep) = match from {
                    Side::Sender => (&mut self.from_snd, Side::Receiver, &mut self.rcv),
                    Side::Receiver => (&mut self.from_rcv, Side::Sender, &mut self.snd),
                };
                let Some(mut seg) =
                    wire.remove(usize::from(pick).min(wire.len().saturating_sub(1)))
                else {
                    return now;
                };
                let copies = match fate {
                    Fate::Drop => 0,
                    Fate::Dup => 2,
                    _ => 1,
                };
                match fate {
                    Fate::Corrupt if seg.has_payload() => seg.payload_csum ^= 0x5a5a,
                    Fate::CeMark if seg.ecn == Ecn::Ect0 => seg.ecn = Ecn::Ce,
                    Fate::CircuitMark => seg.circuit_mark = true,
                    _ => {}
                }
                for _ in 0..copies {
                    ep.on_segment(now, &seg);
                }
                self.flush(to, now);
            }
            Op::Timer(side) => {
                let ep = match side {
                    Side::Sender => &mut self.snd,
                    Side::Receiver => &mut self.rcv,
                };
                let Some(deadline) = ep.next_timer() else {
                    return now;
                };
                let now = now.max(deadline);
                ep.on_timer(now);
                self.flush(side, now);
                return now;
            }
            // Until the handshake settles who speaks TDTCP, a two-TDN
            // endpoint applies notifications; that is the shell's own
            // behaviour, not the machine's, so the downgrade property
            // withholds them until then.
            Op::Notify(_)
                if self.notify_after_handshake
                    && !(self.snd.is_established() && self.rcv.is_established()) => {}
            Op::Notify(tdn) => {
                // Strictly increasing generations: every notification is
                // fresh, as from a ToR that loses and reorders nothing.
                let gen = now.as_nanos();
                for side in [Side::Sender, Side::Receiver] {
                    let ep = match side {
                        Side::Sender => &mut self.snd,
                        Side::Receiver => &mut self.rcv,
                    };
                    ep.on_tdn_notification(now, TdnId(tdn), gen);
                    self.flush(side, now);
                }
            }
        }
        now
    }

    /// Everything observable about the pair besides what it emitted.
    fn observe(&self) -> [Observed; 2] {
        [&self.snd, &self.rcv].map(|ep| Observed {
            stats_digest: ep.stats().digest(),
            next_timer: ep.next_timer(),
            // Set 0's window: a downgraded shell still reports the
            // (idle) sets it allocated before negotiation failed.
            cwnd: ep.cwnd_report().first().copied(),
            established: ep.is_established(),
            done: ep.is_done(),
            errored: ep.conn_error().is_some(),
        })
    }
}

/// What one endpoint shows the outside world between events.
#[derive(Debug, PartialEq)]
struct Observed {
    stats_digest: u64,
    next_timer: Option<SimTime>,
    cwnd: Option<u32>,
    established: bool,
    done: bool,
    errored: bool,
}

/// Run `ops` through the reference pair and the candidate pair in lock
/// step; the first step after which they differ in any observable fails.
fn lockstep(reference: Pair, candidate: Pair, ops: &[Op]) -> Result<(), String> {
    lockstep_worlds(World::new(reference), World::new(candidate), ops)
}

fn lockstep_worlds(mut r: World, mut c: World, ops: &[Op]) -> Result<(), String> {
    let (mut now_r, mut now_c) = (SimTime::ZERO, SimTime::ZERO);
    tk_assert_eq!(r.log, c.log, "SYN differs");
    for (i, &op) in ops.iter().enumerate() {
        r.log.clear();
        c.log.clear();
        // A clock that only moves forward, and never stands still
        // between events (distinct events share no instant).
        now_r = r.step(op, now_r) + SimDuration::from_nanos(1);
        now_c = c.step(op, now_c) + SimDuration::from_nanos(1);
        tk_assert_eq!(now_r, now_c, "clocks diverged at op {i} {op:?}");
        tk_assert_eq!(r.log, c.log, "emitted segments diverged at op {i} {op:?}");
        tk_assert_eq!(r.observe(), c.observe(), "state diverged at op {i} {op:?}");
    }
    Ok(())
}

/// A transfer size: a short flow (handshake, FIN and timers dominate), a
/// flow of a few windows, or an unbounded bulk source.
fn arb_bytes() -> Gen<u64> {
    weighted(vec![
        (2, range(1u64..5_000)),
        (3, range(5_000u64..200_000)),
        (2, just(u64::MAX)),
    ])
}

fn arb_case(max_tdn: u8) -> Gen<(u8, u64, Vec<Op>, u8)> {
    tuple4(
        range(0u8..4),
        arb_bytes(),
        vec_of(arb_op(max_tdn), 1..400),
        range(0u8..2),
    )
}

testkit::props! {
    #[cases(96)]
    /// `num_tdns = 1`: one state set by configuration. (Notifications can
    /// only ever name TDN 0 here — naming another is the runtime growth
    /// path of §4.2, which is a second state set by design.)
    fn one_tdn_tdtcp_is_tcp(case in arb_case(0)) {
        let (kind, bytes, ops, _) = case;
        lockstep(
            (tcp_sender(kind, bytes), tcp_receiver(kind)),
            (td_sender(kind, bytes, 1, true), td_receiver(kind, 1, true)),
            &ops,
        )?;
    }

    #[cases(96)]
    /// The `per_tdn_state = false` ablation: two TDNs negotiated and
    /// tagged, notifications arriving, one state set.
    fn flat_state_tdtcp_is_tcp(case in arb_case(1)) {
        let (kind, bytes, ops, _) = case;
        lockstep(
            (tcp_sender(kind, bytes), tcp_receiver(kind)),
            (td_sender(kind, bytes, 2, false), td_receiver(kind, 2, false)),
            &ops,
        )?;
    }

    #[cases(96)]
    /// §4.2 downgrade: a two-TDN endpoint facing a plain-TCP peer (either
    /// way round) falls back to regular TCP and ignores notifications.
    fn downgraded_tdtcp_is_tcp(case in arb_case(1)) {
        let (kind, bytes, ops, td_side) = case;
        let candidate = if td_side == 0 {
            (td_sender(kind, bytes, 2, true), tcp_receiver(kind))
        } else {
            (tcp_sender(kind, bytes), td_receiver(kind, 2, true))
        };
        let mut r = World::new((tcp_sender(kind, bytes), tcp_receiver(kind)));
        let mut c = World::new(candidate);
        (r.notify_after_handshake, c.notify_after_handshake) = (true, true);
        lockstep_worlds(r, c, &ops)?;
    }
}

// ---------------------------------------------------------------------
// Scripted streams: one per fork the two copies of the machine had at a
// single state set (DESIGN.md §14), each steering straight at it.
// ---------------------------------------------------------------------

fn pass(from: Side) -> Op {
    Op::Deliver {
        from,
        pick: 0,
        fate: Fate::Pass,
    }
}

fn lose(from: Side) -> Op {
    Op::Deliver {
        from,
        pick: 0,
        fate: Fate::Drop,
    }
}

/// Handshake, then the sender's first window of ten segments is on the
/// wire and nothing else is.
fn handshake() -> Vec<Op> {
    vec![
        pass(Side::Sender),   // SYN
        pass(Side::Receiver), // SYN-ACK
        Op::Wait(50),
        pass(Side::Sender), // handshake ACK; ten data segments follow it
    ]
}

fn scripted(kind: u8, bytes: u64, ops: &[Op]) {
    for (num_tdns, per_tdn_state) in [(1, true), (2, false)] {
        lockstep(
            (tcp_sender(kind, bytes), tcp_receiver(kind)),
            (
                td_sender(kind, bytes, num_tdns, per_tdn_state),
                td_receiver(kind, num_tdns, per_tdn_state),
            ),
            ops,
        )
        .unwrap_or_else(|e| panic!("num_tdns={num_tdns} per_tdn_state={per_tdn_state}: {e}"));
    }
}

/// Clean ACK-clocked transfer to completion: RTT sampling, RTO/TLP
/// arming from the synthesized timeout, slow start, FIN.
#[test]
fn scripted_clean_transfer() {
    let mut ops = handshake();
    for _ in 0..120 {
        ops.extend([
            Op::Wait(37),
            pass(Side::Sender),
            Op::Wait(41),
            pass(Side::Receiver),
        ]);
    }
    for kind in 0..4 {
        scripted(kind, 60_000, &ops);
    }
}

/// A whole window is lost; the RTO fires and backs off; then ACKs that
/// carry new SACK information but no cumulative progress arrive. What the
/// backoff does on those decides when the next timeout falls.
#[test]
fn scripted_rto_backoff_then_sack_only_acks() {
    let mut ops = handshake();
    ops.extend([lose(Side::Sender), lose(Side::Sender)]); // segments 1, 2 lost
    ops.extend([
        Op::Timer(Side::Sender),
        Op::Timer(Side::Sender),
        Op::Timer(Side::Sender),
    ]);
    // Later originals arrive one by one: each ACK SACKs one more segment
    // above the hole.
    for _ in 0..6 {
        ops.extend([
            Op::Wait(20),
            pass(Side::Sender),
            Op::Wait(20),
            pass(Side::Receiver),
        ]);
    }
    ops.extend([Op::Timer(Side::Sender), Op::Timer(Side::Sender)]);
    for _ in 0..40 {
        ops.extend([
            Op::Wait(20),
            pass(Side::Sender),
            Op::Wait(20),
            pass(Side::Receiver),
        ]);
    }
    for kind in 0..4 {
        scripted(kind, u64::MAX, &ops);
    }
}

/// One segment overtakes another (a single SACK, below the dupACK
/// threshold: Disorder); the rest of the window arrives but only the last
/// ACK makes it back, emptying the retransmission queue at a stroke; then
/// it all happens again. The second overtaking is only a *fresh*
/// reordering event if the machine went back to Open in between.
#[test]
fn scripted_disorder_returns_to_open() {
    let overtake = Op::Deliver {
        from: Side::Sender,
        pick: 1,
        fate: Fate::Pass,
    };
    let last_ack = Op::Deliver {
        from: Side::Receiver,
        pick: u8::MAX,
        fate: Fate::Pass,
    };
    let mut ops = handshake();
    for _ in 0..3 {
        ops.extend([overtake, pass(Side::Receiver)]);
        ops.extend([pass(Side::Sender); 40]); // the whole window arrives...
        ops.extend([Op::Wait(30), last_ack]); // ...one cumulative ACK returns...
        ops.extend([lose(Side::Receiver); 40]); // ...and the stale ones never do.
    }
    for kind in 0..4 {
        scripted(kind, u64::MAX, &ops);
    }
}

/// reTCP: the switch marks segments that rode the circuit, the receiver
/// echoes the mark, and the sender's window jumps on the edge.
#[test]
fn scripted_circuit_marks_reach_the_cca() {
    let marked = Op::Deliver {
        from: Side::Sender,
        pick: 0,
        fate: Fate::CircuitMark,
    };
    let mut ops = handshake();
    for round in 0..60 {
        let data = if (round / 10) % 2 == 1 {
            marked
        } else {
            pass(Side::Sender)
        };
        ops.extend([Op::Wait(30), data, Op::Wait(30), pass(Side::Receiver)]);
    }
    scripted(3, u64::MAX, &ops);
}

/// A fast-retransmit episode with a lost retransmission: dupACK
/// threshold, RACK marking, stale-retransmission refresh, recovery exit.
#[test]
fn scripted_fast_recovery_with_lost_retransmit() {
    let mut ops = handshake();
    ops.push(lose(Side::Sender)); // first data segment lost
    for _ in 0..5 {
        ops.extend([
            Op::Wait(15),
            pass(Side::Sender),
            Op::Wait(15),
            pass(Side::Receiver),
        ]);
    }
    ops.push(lose(Side::Sender)); // ...and so is whatever went out next
    for _ in 0..60 {
        ops.extend([
            Op::Wait(15),
            pass(Side::Sender),
            Op::Wait(15),
            pass(Side::Receiver),
        ]);
    }
    ops.extend([Op::Timer(Side::Sender), Op::Timer(Side::Sender)]);
    for _ in 0..60 {
        ops.extend([
            Op::Wait(15),
            pass(Side::Sender),
            Op::Wait(15),
            pass(Side::Receiver),
        ]);
    }
    for kind in 0..4 {
        scripted(kind, 40_000, &ops);
    }
}
