//! The time-division policy at one state set adds nothing.
//!
//! TDTCP duplicates TCP's congestion, RTT and pipe state per TDN (§3.1,
//! §4.3), so a TDTCP connection that only ever uses one state set *is*
//! TCP. This suite holds the implementation to that sentence: it drives a
//! `tcp::Connection` pair without the time-division policy and a
//! candidate pair with it through the same scripted and random segment /
//! timer streams — the same reordering, drops, duplicates, corruption, CE
//! and circuit marks, the same timer firings at the same instants — and
//! requires, after every step, equal `ConnStats::digest()`s, equal
//! `next_timer()`s, equal window reports and equal emitted `(seq, len,
//! flags, ack, sack, wnd)` sequences.
//!
//! The candidates are every way a connection with the policy ends up on
//! one state set: `num_tdns = 1`; the `per_tdn_state = false` ablation
//! (which also ignores notifications); and a two-TDN endpoint whose
//! `TD_CAPABLE` offer was not echoed — or never made — by a plain-TCP
//! peer (§4.2 downgrade). What is left to differ is exactly what the
//! policy adds: negotiation, option tagging and notification handling.

use simcore::{SimDuration, SimTime};
use tcp::rtt::RttConfig;
use tcp::{Segment, SeqNum, Transport};
use tdtcp::TdtcpConfig;
use tdtcp_repro::harness::{tcp_pair, td_pair, Fate, Op, Side, World, MSS};
use testkit::prop::{just, range, tuple2, tuple4, vec_of, weighted, Gen};
use testkit::{tk_assert_eq, Counters};
use wire::TcpFlags;

/// What both machines must agree on for every emitted segment.
type Emitted = (SeqNum, u32, TcpFlags, SeqNum, Vec<(SeqNum, SeqNum)>, u32);

fn emitted(log: &[Segment]) -> Vec<Emitted> {
    log.iter().map(|s| (s.seq, s.len, s.flags, s.ack, s.sack().to_vec(), s.wnd)).collect()
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

/// Every controller (`harness::cca`: CUBIC, Reno, DCTCP, reTCP) runs
/// each case, so every `CongestionControl` hook the machine calls
/// (`on_ack`, recovery enter/exit, `on_rto`, `on_circuit_signal`) is
/// observable through the window it produces.
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

fn td_cfg(kind: u8, bytes: u64, num_tdns: u8, per_tdn_state: bool) -> TdtcpConfig {
    TdtcpConfig {
        tcp: tcp_cfg(kind, bytes),
        num_tdns,
        per_tdn_state,
        ..TdtcpConfig::default()
    }
}

fn tcp_ends(kind: u8, bytes: u64) -> Pair {
    let (snd, rcv) = tcp_pair(tcp_cfg(kind, bytes), kind);
    (Box::new(snd), Box::new(rcv))
}

fn td_ends(kind: u8, bytes: u64, num_tdns: u8, per_tdn_state: bool) -> Pair {
    let (snd, rcv) = td_pair(td_cfg(kind, bytes, num_tdns, per_tdn_state), kind);
    (Box::new(snd), Box::new(rcv))
}

/// Everything observable about the pair besides what it emitted.
fn observe(w: &World) -> [Observed; 2] {
    [&w.snd, &w.rcv].map(|ep| Observed {
        stats_digest: ep.stats().digest(),
        next_timer: ep.next_timer(),
        // Set 0's window: a downgraded endpoint still reports the
        // (idle) sets it allocated before negotiation failed.
        cwnd: ep.cwnd_report().first().copied(),
        established: ep.is_established(),
        done: ep.is_done(),
        errored: ep.conn_error().is_some(),
    })
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
    lockstep_worlds(reference, candidate, ops, false)
}

/// [`lockstep`]; with `settle_first`, notifications wait for the
/// handshake. Until the handshake settles who speaks TDTCP, a two-TDN
/// endpoint applies notifications; that is the policy's own behaviour,
/// not the machine's, so the downgrade property withholds them until
/// then.
fn lockstep_worlds(
    (r_snd, r_rcv): Pair,
    (c_snd, c_rcv): Pair,
    ops: &[Op],
    settle_first: bool,
) -> Result<(), String> {
    let (mut r, mut c) = (World::new(r_snd, r_rcv), World::new(c_snd, c_rcv));
    let (mut now_r, mut now_c) = (SimTime::ZERO, SimTime::ZERO);
    tk_assert_eq!(emitted(&r.log), emitted(&c.log), "SYN differs");
    for (i, &op) in ops.iter().enumerate() {
        r.log.clear();
        c.log.clear();
        // Both worlds are established together, or the last step failed.
        let withheld = settle_first && !(r.snd.is_established() && r.rcv.is_established());
        let op = match op {
            Op::Notify(_) if withheld => Op::Wait(0),
            op => op,
        };
        // A clock that only moves forward, and never stands still
        // between events (distinct events share no instant).
        now_r = r.step(op, now_r) + SimDuration::from_nanos(1);
        now_c = c.step(op, now_c) + SimDuration::from_nanos(1);
        tk_assert_eq!(now_r, now_c, "clocks diverged at op {i} {op:?}");
        let (r_out, c_out) = (emitted(&r.log), emitted(&c.log));
        tk_assert_eq!(r_out, c_out, "emitted segments diverged at op {i} {op:?}");
        tk_assert_eq!(observe(&r), observe(&c), "state diverged at op {i} {op:?}");
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
        lockstep(tcp_ends(kind, bytes), td_ends(kind, bytes, 1, true), &ops)?;
    }

    #[cases(96)]
    /// The `per_tdn_state = false` ablation: two TDNs negotiated and
    /// tagged, notifications arriving, one state set.
    fn flat_state_tdtcp_is_tcp(case in arb_case(1)) {
        let (kind, bytes, ops, _) = case;
        lockstep(tcp_ends(kind, bytes), td_ends(kind, bytes, 2, false), &ops)?;
    }

    #[cases(96)]
    /// §4.2 downgrade: a two-TDN endpoint facing a plain-TCP peer (either
    /// way round) falls back to regular TCP and ignores notifications.
    fn downgraded_tdtcp_is_tcp(case in arb_case(1)) {
        let (kind, bytes, ops, td_side) = case;
        let (tcp, td) = (tcp_ends(kind, bytes), td_ends(kind, bytes, 2, true));
        let candidate = if td_side == 0 { (td.0, tcp.1) } else { (tcp.0, td.1) };
        lockstep_worlds(tcp_ends(kind, bytes), candidate, &ops, true)?;
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

/// The handshake's ops, after which the sender's first window of ten
/// segments is on the wire and nothing else is.
fn opening() -> Vec<Op> {
    vec![
        pass(Side::Sender),   // SYN
        pass(Side::Receiver), // SYN-ACK
        Op::Wait(50),
        pass(Side::Sender), // handshake ACK; ten data segments follow it
    ]
}

fn scripted(kind: u8, bytes: u64, ops: &[Op]) {
    for (num_tdns, per_tdn_state) in [(1, true), (2, false)] {
        lockstep(tcp_ends(kind, bytes), td_ends(kind, bytes, num_tdns, per_tdn_state), ops)
        .unwrap_or_else(|e| panic!("num_tdns={num_tdns} per_tdn_state={per_tdn_state}: {e}"));
    }
}

/// Clean ACK-clocked transfer to completion: RTT sampling, RTO/TLP
/// arming from the synthesized timeout, slow start, FIN.
#[test]
fn scripted_clean_transfer() {
    let mut ops = opening();
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
    let mut ops = opening();
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
    let mut ops = opening();
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
    let mut ops = opening();
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
    let mut ops = opening();
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
