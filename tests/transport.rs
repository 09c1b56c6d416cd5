//! The transport endpoints, driven by hand through the one harness
//! (`tdtcp_repro::harness`): single-host scripts against a peer the
//! test plays, and pairs joined by the two-host driver.
//!
//! * TCP: RST, zero-window and persist probing, stale and overshooting
//!   ACKs, reTCP's circuit-mark echo, pacing, the retransmission and
//!   persist aborts, and SACK reneging — the behaviours the chaos soak's
//!   no-silent-stall invariant leans on.
//! * TCP over a delay-and-drop wire: handshake, bulk transfer, SACK,
//!   TLP and RTO recovery, FIN teardown and determinism.
//! * TDTCP: `TD_CAPABLE` negotiation and downgrade (§4.2),
//!   notification-driven state swaps, the relaxed cross-TDN loss
//!   detection (§3.4), per-TDN RTT filtering (§4.4), the SYN counted
//!   under TDN 0 (App. A.2) and per-TDN controllers (§3.5).
//! * TDTCP properties: arbitrary interleavings of notifications, crafted
//!   ACKs, timers and polls keep the state invariants and replay
//!   deterministically, over the paper's two TDNs, one TDN and the
//!   `per_tdn_state = false` ablation.

use simcore::{DetRng, SimDuration, SimTime};
use tcp::cc::{CcConfig, CongestionControl, ReTcpConfig, Reno};
use tcp::{ConnError, Connection, SeqNum, State, Transport};
use tdtcp::{TdtcpConfig, TdtcpConnection};
use tdtcp_repro::harness::Step::{Check, In, Notify, Out, Quiet, Sends, Timer};
use tdtcp_repro::harness::{
    cca, config, handshake, play, t, tcp_pair, td_config, td_pair, Peer, World, CC, FLOW, MSS,
};
use testkit::prop::{just, option_of, range, tuple2, tuple3, vec_of, weighted, Gen};
use testkit::{tk_assert, tk_assert_eq, Counters};
use wire::TdnId;

// ---------------------------------------------------------------------
// TCP, one host against a scripted peer
// ---------------------------------------------------------------------

#[test]
fn rst_terminates_connection() {
    let (mut a, ..) = handshake(tcp_pair(config(u64::MAX), 0));
    play(&mut a, t(200), &[
        In(200, Peer::rst()),
        Check(|a| assert!(a.is_done() && a.state() == State::Done)),
        // No further transmissions.
        Quiet(201),
    ]);
}

/// The peer's window closes completely while a hole exists; the hole's
/// retransmission must still go out (retransmissions are not gated by
/// the advertised window) so the window can reopen.
#[test]
fn zero_window_does_not_deadlock_recovery() {
    let (mut a, ..) = handshake(tcp_pair(config(u64::MAX), 0));
    play(&mut a, t(110), &[
        Sends(110, 6),
        // SACK 2..6, cumulative stuck at 1 (hole = first segment), window 0.
        In(300, Peer::ack(1).wnd(0).sack(&[(1 + MSS, 1 + 6 * MSS)])),
        // RACK anchors its cutoff at the newest SACKed transmission, so a
        // same-instant hole is "too recent" to mark — tail recovery is the
        // TLP's job. Fire it: its probe is not window-gated.
        Quiet(301),
        Timer,
        Out(0, |s| s.seq == SeqNum(1) && s.has_payload()),
        // Window reopens once the hole is delivered.
        In(400, Peer::ack(1 + 6 * MSS)),
        Out(401, |_| true),
    ]);
}

#[test]
fn ack_beyond_snd_nxt_ignored() {
    let (mut a, ..) = handshake(tcp_pair(config(u64::MAX), 0));
    play(&mut a, t(110), &[
        Sends(110, 1),
        Check(|a| assert_eq!(a.stats().bytes_acked, 0)),
        In(200, Peer::ack(1_000_000)), // far beyond anything sent
        Check(|a| assert_eq!(a.stats().bytes_acked, 0, "bogus ACK changed nothing")),
    ]);
}

#[test]
fn stale_ack_is_counted_as_dupack_not_progress() {
    let (mut a, ..) = handshake(tcp_pair(config(u64::MAX), 0));
    play(&mut a, t(110), &[
        Sends(110, 4),
        In(200, Peer::ack(1 + 2 * MSS)),
        Check(|a| assert_eq!(a.stats().bytes_acked, 2 * u64::from(MSS))),
        // An older (stale) ACK afterwards: no regression.
        In(210, Peer::ack(1 + MSS)),
        Check(|a| assert_eq!(a.stats().bytes_acked, 2 * u64::from(MSS))),
    ]);
}

/// The receiver echoes circuit marks on its ACKs; the reTCP sender
/// boosts on the off->on edge and shrinks on the on->off edge.
#[test]
fn retcp_circuit_mark_echo_drives_boost() {
    let (mut a, ..) = handshake(tcp_pair(config(u64::MAX), 3));
    play(&mut a, t(110), &[
        Sends(110, 1),
        Check(|a| assert_eq!(a.cwnd(), 10 * MSS)),
        // ACK with the circuit mark echoed: boost.
        In(200, Peer::ack(1 + MSS).circuit_mark()),
        Check(|a| assert!(a.cwnd() >= 30 * MSS, "boosted: {}", a.cwnd())),
        // Mark disappears: shrink back near the original.
        Sends(210, 1),
        In(300, Peer::ack(1 + 2 * MSS)),
        Check(|a| assert!(a.cwnd() < 20 * MSS, "shrunk: {}", a.cwnd())),
    ]);
}

#[test]
fn receiver_echoes_circuit_mark() {
    let (_, mut b) = tcp_pair(config(0), 0);
    play(&mut b, t(10), &[
        In(10, Peer::syn()),
        Out(10, |s| s.flags.syn && s.flags.ack),
        // Data arrives with the switch's circuit mark set.
        In(50, Peer::data(1, MSS).acking().circuit_mark()),
        Out(51, |s| s.circuit_mark), // mark echoed to the sender
    ]);
}

#[test]
fn pacing_spreads_transmissions() {
    let (mut a, ..) = handshake(tcp_pair(tcp::Config { pacing: true, ..config(u64::MAX) }, 0));
    play(&mut a, t(100), &[
        // An RTT sample of 100 µs gives the pacer a rate.
        Sends(100, 1),
        In(200, Peer::ack(1 + MSS)),
        // The first send passes; an immediate second poll is pace-gated...
        Sends(200, 1),
        Quiet(200),
        // ...with a pacing wake-up scheduled, after which sending resumes.
        Check(|a| {
            let wake = Transport::next_timer(a).expect("pacing timer armed");
            assert!(wake > t(200) && wake < t(250), "wake-up at {wake:?}");
        }),
        Timer,
        Sends(0, 1),
    ]);
}

/// A paced connection that stops for a reason other than the pacer —
/// here a full congestion window — must not leave a pacing wake-up armed:
/// `next_timer` would name an instant at which `poll_send` has nothing to
/// release, and a driver that re-arms on whatever `next_timer` says spins
/// at that instant forever (the two-rack engine did exactly that).
#[test]
fn paced_sender_advertises_no_wake_up_without_work() {
    let (mut a, ..) = handshake(tcp_pair(tcp::Config { pacing: true, ..config(u64::MAX) }, 0));
    // Follow the advertised wake-ups, draining at each: every one must
    // lie strictly ahead of the instant it is read at — also at the two
    // instants where the window, not the pacer, is what stops the sender
    // (the release stamped by the last send, and the instant after it).
    let mut now = t(100);
    let mut window_full_polls = 0;
    while window_full_polls < 2 {
        while a.poll_send(now).is_some() {}
        let wake = Transport::next_timer(&a).expect("data is outstanding: an RTO at least");
        assert!(
            wake > now,
            "wake-up {wake:?} advertised at {now:?} with nothing to release (flight {} of cwnd {})",
            a.flight_bytes(),
            a.cwnd()
        );
        window_full_polls += usize::from(a.flight_bytes() >= a.cwnd());
        now = wake;
    }
}

/// A sender on the RTO path only (TLP off) with `bytes` to send, opened.
fn rto_only(bytes: u64, max_retries: u32) -> Connection {
    let cfg = tcp::Config { tlp: false, max_retries, ..config(bytes) };
    handshake(tcp_pair(cfg, 0)).0
}

/// Four segments out, all acked, the window shut: the sender has data
/// it may not send.
fn park_behind_zero_window(a: &mut Connection) {
    play(a, t(110), &[Sends(110, 4), In(300, Peer::ack(1 + 4 * MSS).wnd(0)), Quiet(300)]);
}

#[test]
fn persist_probe_fires_backs_off_and_resumes() {
    let mut a = rto_only(u64::from(10 * MSS), 15);
    park_behind_zero_window(&mut a);

    // The persist timer is armed (nothing outstanding, so it is the only
    // timer) and fires a one-byte probe from the unsent stream.
    let fire1 = Transport::next_timer(&a).expect("persist armed");
    let gap1 = fire1.saturating_since(t(300));
    a.on_timer(fire1);
    let probe = a.poll_send(fire1).expect("probe sent");
    assert_eq!(probe.seq, SeqNum(1 + 4 * MSS));
    assert_eq!(probe.len, 1, "window probe is one byte of real data");
    assert_eq!(a.stats().persist_probes, 1);

    // The peer acks the probe byte but keeps the window shut: the timer
    // re-arms with exponential backoff.
    let t2 = fire1 + gap1 / 4;
    a.on_segment(t2, &Peer::ack(1 + 4 * MSS + 1).wnd(0));
    let fire2 = Transport::next_timer(&a).expect("persist re-armed");
    let gap2 = fire2.saturating_since(t2);
    assert!(gap2 > gap1, "backoff must grow: {gap1} then {gap2}");
    a.on_timer(fire2);
    let probe2 = a.poll_send(fire2).expect("second probe");
    assert_eq!(probe2.seq, SeqNum(1 + 4 * MSS + 1));
    assert_eq!(a.stats().persist_probes, 2);

    // The window reopens: full-size sending resumes in sequence.
    let t3 = fire2 + gap1;
    a.on_segment(t3, &Peer::ack(1 + 4 * MSS + 2));
    let seg = a.poll_send(t3).expect("window reopened");
    assert_eq!(seg.seq, SeqNum(1 + 4 * MSS + 2));
    assert_eq!(seg.len, MSS);
    assert!(a.conn_error().is_none());
}

#[test]
fn persist_timeout_aborts_with_conn_error() {
    let mut a = rto_only(u64::from(10 * MSS), 3);
    park_behind_zero_window(&mut a);

    // The peer acks every probe but never reopens its window; after
    // `max_retries` probes the connection surrenders explicitly.
    let mut acked = 1 + 4 * MSS;
    for _ in 0..20 {
        if a.is_done() {
            break;
        }
        let fire = Transport::next_timer(&a).expect("a timer while alive");
        a.on_timer(fire);
        while let Some(seg) = a.poll_send(fire) {
            if seg.has_payload() {
                acked = (seg.seq + seg.len).0;
            }
        }
        if !a.is_done() {
            a.on_segment(fire + SimDuration::from_micros(1), &Peer::ack(acked).wnd(0));
        }
    }
    assert!(a.is_done(), "zero-window flow must terminate");
    assert_eq!(a.conn_error(), Some(ConnError::PersistTimeout { probes: 3 }));
    assert_eq!(a.stats().persist_probes, 3);
    assert_eq!(a.stats().conn_aborts, 1);
}

/// A blackholed flow (no ACKs, ever) terminates with
/// `ConnError::RetransmitLimit` instead of retrying forever behind the
/// shift-capped RTO backoff.
#[test]
fn blackholed_flow_aborts_with_retransmit_limit() {
    let mut a = rto_only(u64::from(10 * MSS), 3);
    play(&mut a, t(110), &[Sends(110, 4)]);
    // Nothing ever comes back. Drive timers until the engine gives up.
    let mut fired = 0;
    while !a.is_done() {
        let fire = Transport::next_timer(&a).expect("RTO armed while alive");
        a.on_timer(fire);
        while a.poll_send(fire).is_some() {}
        fired += 1;
        assert!(fired <= 10, "flow did not terminate within the retry budget");
    }
    assert_eq!(a.conn_error(), Some(ConnError::RetransmitLimit { retries: 3 }));
    assert!(a.stats().rtos >= 3);
    assert_eq!(a.stats().conn_aborts, 1);
    assert!(a.poll_send(t(1_000_000)).is_none(), "an aborted flow transmits nothing");
}

/// SACK reneging tolerance: ranges the receiver SACKed and then
/// discarded are re-marked lost at the next RTO (never freed on SACK
/// alone), retransmitted, and the flow completes cleanly.
#[test]
fn sack_reneged_ranges_are_retransmitted_and_flow_completes() {
    let mut a = rto_only(u64::from(6 * MSS), 15);
    let sent = std::iter::from_fn(|| a.poll_send(t(110))).filter(|s| s.has_payload()).count();
    assert_eq!(sent, 6, "all data plus FIN go out");

    // Cumulative stuck at 1 (hole = segment 1), segments 2..=6 SACKed,
    // and the RTO retransmits the hole.
    let fire = play(&mut a, t(400), &[
        In(400, Peer::ack(1).sack(&[(1 + MSS, 1 + 6 * MSS)])),
        Timer,
        Out(0, |s| s.seq == SeqNum(1)),
    ]);
    let after = |at: SimTime, us| at + SimDuration::from_micros(us);

    // The receiver reneged: its cumulative ACK only covers the hole —
    // the previously SACKed 2..=6 are gone from its buffer.
    a.on_segment(after(fire, 50), &Peer::ack(1 + MSS));

    // Next RTO finds the queue head still marked SACKed: reneging is
    // detected, marks are cleared, and the ranges retransmit.
    let fire2 = Transport::next_timer(&a).expect("RTO re-armed");
    a.on_timer(fire2);
    let payloads = std::iter::from_fn(|| a.poll_send(fire2)).filter(|s| s.has_payload());
    let retx: Vec<SeqNum> = payloads.map(|s| s.seq).collect();
    assert!(a.stats().sack_reneges > 0, "reneging must be detected and counted");
    assert!(retx.contains(&SeqNum(1 + MSS)), "reneged range must retransmit, got {retx:?}");

    // With the data really delivered this time, the flow completes.
    let all = Peer::ack(1 + 6 * MSS + 1);
    a.on_segment(after(fire2, 50), &all);
    let mut guard = 0;
    while !a.is_done() {
        let Some(fire) = Transport::next_timer(&a) else {
            break;
        };
        a.on_timer(fire);
        while a.poll_send(fire).is_some() {}
        a.on_segment(after(fire, 10), &all);
        guard += 1;
        assert!(guard <= 10, "flow must complete after reneging recovery");
    }
    assert!(a.is_done());
    assert!(a.conn_error().is_none(), "reneging is survivable, not fatal");
    assert_eq!(a.stats().bytes_acked, u64::from(6 * MSS));
}

/// retcpdyn: the ToR's prepare signal, one lead before a circuit day,
/// reaches the sender's reTCP controller, whose window takes the circuit
/// boost early; the circuit mark that follows does not boost it again.
#[test]
fn circuit_prepare_boosts_a_retcp_window() {
    let (mut a, ..) = handshake(tcp_pair(config(u64::MAX), 3));
    let before = a.cwnd();
    let boosted = (8 * before).min(ReTcpConfig::default().boost_cap);
    a.on_circuit_prepare(t(40));
    assert_eq!(a.cwnd(), boosted, "the prepare signal boosts the window");
    play(&mut a, t(40), &[Sends(50, 1), In(60, Peer::ack(1 + MSS).circuit_mark())]);
    assert!(a.cwnd() <= boosted + MSS, "no second boost: {}", a.cwnd());
}

// ---------------------------------------------------------------------
// TCP over a delay-and-drop wire
// ---------------------------------------------------------------------

/// A `cfg` flow with controller `kind` over a wire of one-way `delay_us`,
/// losing the sender's segments that `drop` picks; the pair and the
/// instant it went quiet.
fn transfer(
    cfg: tcp::Config,
    kind: u8,
    delay_us: u64,
    drop: impl FnMut(&tcp::Segment, u64) -> bool,
) -> (World<Connection>, SimTime) {
    let (snd, rcv) = tcp_pair(cfg, kind);
    let mut world = World::new(Box::new(snd), Box::new(rcv));
    let end = world.relay(SimDuration::from_micros(delay_us), drop, SimTime::from_secs(10));
    (world, end)
}

/// A CUBIC flow of `bytes` over a 50 µs wire.
fn cubic_transfer(bytes: u64, drop: impl FnMut(&tcp::Segment, u64) -> bool) -> World<Connection> {
    transfer(config(bytes), 0, 50, drop).0
}

#[test]
fn clean_transfer_completes() {
    let w = cubic_transfer(100_000, |_, _| false);
    assert!(w.snd.is_done(), "sender: {:?}", w.snd);
    assert!(w.rcv.is_done(), "receiver: {:?}", w.rcv);
    assert_eq!(w.rcv.stats().bytes_delivered, 100_000);
    assert_eq!(w.snd.stats().bytes_acked, 100_000);
    assert_eq!(w.snd.stats().retransmits, 0);
    assert_eq!(w.rcv.stats().spurious_retransmits, 0);
}

#[test]
fn handshake_establishes_both_ends() {
    let w = cubic_transfer(1_000, |_, _| false);
    assert!(w.rcv.established_at().is_some());
    // The initiator establishes after one RTT (SYN + SYN-ACK).
    assert_eq!(w.snd.established_at(), Some(t(100)));
}

#[test]
fn rtt_estimator_converges_to_path_rtt() {
    let w = cubic_transfer(500_000, |_, _| false);
    let us = w.snd.rtt().srtt().expect("samples taken").as_micros();
    assert!((95..=115).contains(&us), "srtt {us}us should be ~100us");
}

#[test]
fn single_loss_recovers_via_sack() {
    // Drop exactly the 20th data transmission.
    let w = cubic_transfer(300_000, |_, n| n == 20);
    let s = w.snd.stats();
    assert!(w.snd.is_done());
    assert_eq!(w.rcv.stats().bytes_delivered, 300_000);
    assert!(s.retransmits >= 1);
    assert!(s.fast_recoveries >= 1 || s.tlps >= 1);
    // No RTO needed: SACK/TLP recovery is enough for a mid-stream loss.
    assert_eq!(s.rtos, 0, "stats: {s:?}");
}

#[test]
fn burst_loss_recovers() {
    let w = cubic_transfer(300_000, |_, n| (30..36).contains(&n));
    assert!(w.snd.is_done(), "sender {:?} {:?}", w.snd, w.snd.stats());
    assert_eq!(w.rcv.stats().bytes_delivered, 300_000);
    assert!(w.snd.stats().retransmits >= 6);
}

#[test]
fn random_heavy_loss_still_completes() {
    let mut rng = DetRng::new(7);
    let w = cubic_transfer(200_000, move |_, _| rng.chance(0.05));
    assert!(w.snd.is_done(), "{:?}", w.snd.stats());
    assert_eq!(w.rcv.stats().bytes_delivered, 200_000);
}

#[test]
fn tail_loss_recovered_by_probe_or_rto() {
    // Drop the very last data segment: seq 1 + 50_000 bytes, so the last
    // partial segment is [49952, 50001).
    let w = cubic_transfer(50_000, |s, _| (s.seq + s.len).0 == 50_001 && s.len == 49);
    assert!(w.snd.is_done(), "{:?} {:?}", w.snd, w.snd.stats());
    assert_eq!(w.rcv.stats().bytes_delivered, 50_000);
}

#[test]
fn syn_loss_retransmitted_by_rto() {
    let w = cubic_transfer(10_000, |s, n| s.flags.syn && n == 1);
    assert!(w.snd.is_done());
    assert_eq!(w.rcv.stats().bytes_delivered, 10_000);
    assert!(w.snd.stats().rtos >= 1, "SYN loss needs an RTO");
}

/// Two data losses on a slower wire, whose retransmissions may race a
/// TLP's: the receiver still gets every byte once.
#[test]
fn duplicate_delivery_counts_spurious() {
    let (w, _) = transfer(config(100_000), 0, 200, |_, n| n == 50 || n == 53);
    assert!(w.snd.is_done());
    assert_eq!(w.rcv.stats().bytes_delivered, 100_000);
}

/// 100 kB over a 100 µs RTT without loss finishes in a handful of RTTs
/// (slow start from 10 segments covers 100 in ~4) plus the handshake.
#[test]
fn throughput_reasonable_for_window_limited_flow() {
    let (_, end) = transfer(config(100_000), 0, 50, |_, _| false);
    assert!(end <= t(1200), "transfer took {end}, expected < 1.2ms");
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let (w, end) = transfer(config(150_000), 0, 50, |_, n| n % 37 == 0);
        (end, *w.snd.stats(), *w.rcv.stats())
    };
    assert_eq!(run(), run());
}

#[test]
fn reno_also_completes() {
    let (w, _) = transfer(config(100_000), 1, 50, |_, n| n == 11);
    assert!(w.snd.is_done());
    assert_eq!(w.rcv.stats().bytes_delivered, 100_000);
}

#[test]
fn receiver_window_limits_inflight() {
    // Tiny receive buffer: the sender must respect it and still finish.
    let cfg = tcp::Config { recv_buf: 4 * MSS, ..config(50_000) };
    let (w, _) = transfer(cfg, 0, 50, |_, _| false);
    assert!(w.snd.is_done());
    assert_eq!(w.rcv.stats().bytes_delivered, 50_000);
}

// ---------------------------------------------------------------------
// TDTCP endpoint rules
// ---------------------------------------------------------------------

#[test]
fn td_capable_negotiation_succeeds_on_match() {
    let (a, b, _) = handshake(td_pair(td_config(10_000), 0));
    assert!(a.is_tdtcp());
    assert!(b.is_tdtcp());
}

#[test]
fn syn_carries_td_capable_option() {
    let (.., [syn, _, _]) = handshake(td_pair(td_config(1000), 0));
    assert_eq!(syn.td_capable, Some(2));
}

#[test]
fn tdn_count_mismatch_downgrades() {
    let (a, _) = td_pair(TdtcpConfig { num_tdns: 2, ..td_config(10_000) }, 0);
    let (_, b) = td_pair(TdtcpConfig { num_tdns: 3, ..td_config(0) }, 0);
    let (mut a, b, [_, syn_ack, _]) = handshake((a, b));
    assert_eq!(syn_ack.td_capable, None, "mismatch: no echo");
    assert!(!a.is_tdtcp());
    assert!(!b.is_tdtcp());
    // Data still flows as plain TCP: segments carry no TDN tags.
    play(&mut a, t(30), &[Out(30, |s| s.has_payload() && s.data_tdn.is_none())]);
}

#[test]
fn notification_switches_current_and_sets_change_pointer() {
    let (mut a, ..) = handshake(td_pair(td_config(u64::MAX), 0));
    play(&mut a, t(30), &[
        Check(|a| assert_eq!(a.current(), TdnId(0))),
        // A few segments on TDN 0, then the switch.
        Sends(40, 3),
        Notify(50, 1),
        Check(|a| assert_eq!((a.current(), a.stats().tdn_switches), (TdnId(1), 1))),
        // New data is tagged with the new TDN.
        Out(51, |s| s.data_tdn == Some(TdnId(1))),
        // A repeated notification of the same TDN is a no-op.
        Notify(60, 1),
        Check(|a| assert_eq!(a.stats().tdn_switches, 1)),
    ]);
}

#[test]
fn new_tdn_id_allocates_state_at_runtime() {
    let (mut a, ..) = handshake(td_pair(td_config(u64::MAX), 0));
    play(&mut a, t(30), &[
        Check(|a| assert_eq!(a.paths().len(), 2)),
        Notify(50, 5),
        Check(|a| {
            assert_eq!(a.paths().len(), 6, "states 2..=5 allocated");
            assert_eq!(a.current(), TdnId(5));
            // The fresh state starts at the initial window.
            assert_eq!(a.path(TdnId(5)).cc.cwnd(), 10 * MSS);
        }),
    ]);
}

#[test]
fn downgrade_ignores_notifications() {
    let (a, _) = td_pair(td_config(u64::MAX), 0);
    let (_, b) = td_pair(TdtcpConfig { num_tdns: 3, ..td_config(0) }, 0);
    let (mut a, ..) = handshake((a, b));
    play(&mut a, t(30), &[
        Check(|a| assert!(!a.is_tdtcp())),
        Notify(50, 1),
        Check(|a| assert_eq!((a.current(), a.stats().tdn_switches), (TdnId(0), 0))),
        // Still sends, with no TDTCP options.
        Out(51, |s| s.has_payload() && s.data_tdn.is_none()),
    ]);
}

/// The §3.4 scenario: three segments sent on TDN 0 (seqs 1, 1001,
/// 2001), a switch, three on TDN 1 (3001, 4001, 5001).
fn cross_tdn_scenario(relaxed_reordering: bool) -> Connection {
    let cfg = TdtcpConfig { relaxed_reordering, ..td_config(u64::MAX) };
    let (mut a, ..) = handshake(td_pair(cfg, 0));
    play(&mut a, t(30), &[Sends(40, 3), Notify(45, 1), Sends(46, 3)]);
    a
}

#[test]
fn relaxed_detection_spares_cross_tdn_holes() {
    play(&mut cross_tdn_scenario(true), t(46), &[
        // ACKs for the TDN-1 segments arrive first (low-latency network),
        // SACKing 3001..6001 while 1..3001 (TDN 0) is still in flight.
        In(60, Peer::ack(1).sack(&[(3001, 6001)]).tdn(1)),
        Check(|a| {
            assert!(a.stats().relaxed_skips >= 3, "TDN-0 holes spared: {:?}", a.stats());
            let marked = a.stats().reorder_marked_pkts;
            assert_eq!(marked, 0, "nothing marked lost on pure cross-TDN reordering");
            // No retransmission is queued, and TDN 0 stays Open (Fig. 4).
            assert_eq!(a.stats().retransmits, 0);
            assert!(!a.path(TdnId(0)).in_recovery());
        }),
        // The delayed TDN-0 ACK then arrives and everything resolves.
        In(90, Peer::ack(6001).tdn(0)),
        Check(|a| assert_eq!(a.stats().retransmits, 0)),
    ]);
}

#[test]
fn classic_detection_marks_cross_tdn_holes() {
    play(&mut cross_tdn_scenario(false), t(46), &[
        In(60, Peer::ack(1).sack(&[(3001, 6001)]).tdn(1)),
        Check(|a| {
            // Without relaxation the TDN-0 segments are declared lost.
            assert!(a.stats().reorder_marked_pkts >= 3, "{:?}", a.stats());
        }),
        // And spurious retransmissions go out.
        Out(61, |s| s.has_payload()),
        Check(|a| assert!(a.stats().retransmits >= 1)),
    ]);
}

/// Loss within one TDN must still be detected promptly with relaxation
/// on: all six segments sent on TDN 1, the hole has the trigger's TDN.
#[test]
fn same_tdn_hole_is_a_real_loss() {
    let (mut a, ..) = handshake(td_pair(td_config(u64::MAX), 0));
    play(&mut a, t(30), &[
        Notify(35, 1),
        Sends(40, 6),
        // The first segment (1..1001) lost; 1001..6001 SACKed on TDN 1.
        In(60, Peer::ack(1).sack(&[(1001, 6001)]).tdn(1)),
        Check(|a| {
            assert!(a.stats().reorder_marked_pkts >= 1, "{:?}", a.stats());
            assert!(a.path(TdnId(1)).in_recovery());
        }),
        Out(61, |s| s.seq == SeqNum(1)), // fast retransmit
    ]);
}

/// A cross-TDN hole older than the slowest-RTT cutoff is a true tail
/// loss and must be marked even under relaxation (§3.4's RACK-TLP
/// fallback): the spare test's SACK, 1.5 ms after the TDN-0 segments
/// went out — far beyond any plausible delayed delivery (the handshake
/// seeded srtt, so the cutoff is known).
#[test]
fn stale_cross_tdn_hole_eventually_marked() {
    play(&mut cross_tdn_scenario(true), t(46), &[
        In(1500, Peer::ack(1).sack(&[(3001, 6001)]).tdn(1)),
        Check(|a| {
            let marked = a.stats().reorder_marked_pkts;
            assert!(marked >= 1, "stale hole must be declared lost: {:?}", a.stats());
        }),
    ]);
}

#[test]
fn rtt_samples_filtered_by_tdn() {
    let (mut a, ..) = handshake(td_pair(td_config(u64::MAX), 0));
    play(&mut a, t(30), &[
        // A segment sent on TDN 0 at 40 µs; its ACK returns tagged TDN 1:
        // a type-3 sample, discarded.
        Sends(40, 1),
        In(140, Peer::ack(1001).tdn(1)),
        Check(|a| {
            assert_eq!(a.stats().cross_tdn_rtt_discards, 1);
            assert_eq!(a.path(TdnId(0)).rtt.samples(), 1, "handshake sample only");
        }),
        // The next segment's ACK returns on TDN 0: accepted into TDN 0.
        Sends(150, 1),
        In(250, Peer::ack(2001).tdn(0)),
        Check(|a| {
            let rtt = &a.path(TdnId(0)).rtt;
            assert_eq!((rtt.samples(), rtt.latest()), (2, Some(SimDuration::from_micros(100))));
        }),
    ]);
}

/// Every TDN's estimator is reachable, not just the first eight: the
/// per-ACK "already sampled" scratch is sized by the TDN id space
/// (`TdnId::MAX_TDNS`), the same bound runtime growth allocates up to.
#[test]
fn rtt_samples_reach_high_numbered_tdns() {
    let (mut a, ..) = handshake(td_pair(TdtcpConfig { num_tdns: 9, ..td_config(u64::MAX) }, 0));
    play(&mut a, t(30), &[
        Check(|a| assert_eq!(a.paths().len(), 9)),
        // Sent on TDN 8 at 40 µs; its ACK returns on TDN 8 at 140.
        Notify(35, 8),
        Out(40, |s| s.data_tdn == Some(TdnId(8))),
        In(140, Peer::ack(1001).tdn(8)),
        Check(|a| {
            assert_eq!(a.stats().cross_tdn_rtt_discards, 0);
            let rtt = &a.path(TdnId(8)).rtt;
            assert_eq!(rtt.samples(), 1, "sample recorded on TDN 8");
            assert_eq!(rtt.latest(), Some(SimDuration::from_micros(100)));
            assert_eq!(a.path(TdnId(0)).rtt.samples(), 1, "handshake sample only");
        }),
    ]);
}

#[test]
fn per_tdn_cwnd_checkpoints_survive_switches() {
    let (mut a, ..) = handshake(td_pair(td_config(u64::MAX), 0));
    // Grow TDN 0's window: send and ack a few rounds.
    let mut next_ack = 1;
    for round in 1..=5 {
        let at = t(100 * round);
        while a.poll_send(at).is_some() {}
        next_ack += a.packets_out() * MSS;
        a.on_segment(at + SimDuration::from_micros(50), &Peer::ack(next_ack).tdn(0));
    }
    let grown = a.path(TdnId(0)).cc.cwnd();
    assert!(grown > 10 * MSS, "TDN 0 window grew: {grown}");
    // Switch away and back: the checkpoint is intact.
    a.on_tdn_notification(t(1000), TdnId(1), 0);
    assert_eq!(a.path(TdnId(1)).cc.cwnd(), 10 * MSS, "fresh TDN 1");
    a.on_tdn_notification(t(1200), TdnId(0), 1);
    assert_eq!(a.path(TdnId(0)).cc.cwnd(), grown, "checkpoint resumed");
}

#[test]
fn ack_with_nothing_outstanding_ignored() {
    let (mut a, ..) = handshake(td_pair(td_config(u64::MAX), 0));
    let untouched = |a: &Connection| {
        assert_eq!((a.stats().bytes_acked, a.stats().reorder_events), (0, 0));
    };
    play(&mut a, t(30), &[Check(untouched), In(100, Peer::ack(1).tdn(0)), Check(untouched)]);
}

/// Appendix A.2: even if the very first notification says TDN 1, the
/// SYN is accounted to TDN 0 and its ACK credits TDN 0.
#[test]
fn syn_tracked_under_tdn_zero() {
    let (mut a, b) = td_pair(td_config(u64::MAX), 0);
    a.on_tdn_notification(t(0), TdnId(1), 0);
    let (a, ..) = handshake((a, b));
    assert_eq!(a.packets_out(), 0, "SYN credited despite TDN 1 active");
}

#[test]
fn fin_transfer_completes() {
    let (a, b) = td_pair(td_config(2500), 0);
    let mut w = World::new(Box::new(a), Box::new(b));
    w.relay(SimDuration::from_micros(5), |_, _| false, SimTime::from_secs(1));
    assert!(w.snd.is_done(), "{:?}", w.snd);
    assert_eq!(w.rcv.stats().bytes_delivered, 2500);
}

/// Reno with a four-segment initial window for TDN 0, CUBIC for TDN 1.
fn reno_then_cubic() -> Vec<Box<dyn CongestionControl>> {
    let reno = Reno::new(CcConfig { init_cwnd_pkts: 4, max_cwnd: 1 << 20, ..CC });
    vec![Box::new(reno), cca(0)]
}

/// §3.5 extension: a different CCA in each TDN. Each TDN's state reports
/// its own algorithm and evolves independently.
#[test]
fn heterogeneous_ccas_per_tdn() {
    let a = TdtcpConnection::connect_with_ccas(FLOW, td_config(u64::MAX), reno_then_cubic(), t(0));
    let (mut a, ..) = handshake((a, td_pair(td_config(0), 0).1));
    play(&mut a, t(30), &[
        Check(|a| {
            assert_eq!(a.path(TdnId(0)).cc.name(), "reno");
            assert_eq!(a.path(TdnId(1)).cc.name(), "cubic");
            assert_eq!(a.path(TdnId(0)).cc.cwnd(), 4 * MSS, "Reno's init cwnd");
            assert_eq!(a.path(TdnId(1)).cc.cwnd(), 10 * MSS, "CUBIC's init cwnd");
        }),
        // A loss on TDN 1 leaves TDN 0's Reno untouched.
        Notify(110, 1),
        Sends(120, 6),
        In(200, Peer::ack(1).sack(&[(1001, 6001)]).tdn(1)),
        Check(|a| {
            assert!(a.path(TdnId(1)).in_recovery());
            assert!(!a.path(TdnId(0)).in_recovery());
            assert_eq!(a.path(TdnId(0)).cc.cwnd(), 4 * MSS);
        }),
    ]);
}

#[test]
fn runtime_tdn_growth_clones_template_cca() {
    let cfg = td_config(u64::MAX);
    let mut a = TdtcpConnection::connect_with_ccas(FLOW, cfg, reno_then_cubic(), t(0));
    a.on_tdn_notification(t(5), TdnId(3), 0);
    assert_eq!(a.paths().len(), 4);
    // Newly allocated TDNs clone from state 0's algorithm family.
    assert_eq!(a.path(TdnId(3)).cc.name(), "reno");
}

// ---------------------------------------------------------------------
// TDTCP properties
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Poll,
    Notify(u8),
    Ack { ack_kmss: u32, sack: Option<(u32, u32)>, ack_tdn: u8 },
    Timer,
}

fn arb_op() -> Gen<Op> {
    let sack = option_of(tuple2(range(0u32..64), range(1u32..16)));
    let ack = tuple3(range(0u32..64), sack, range(0u8..3)).map(|(ack_kmss, sack, ack_tdn)| {
        let sack = sack.map(|(s, l)| (s, s + l));
        Op::Ack { ack_kmss, sack, ack_tdn }
    });
    weighted(vec![
        (3, just(Op::Poll)),
        (1, range(0u8..4).map(Op::Notify)),
        (3, ack),
        (1, just(Op::Timer)),
    ])
}

/// `(num_tdns, per_tdn_state)` rows every property is run over.
const SHAPES: [(u8, bool); 3] = [(2, true), (1, true), (2, false)];

fn arb_shape() -> Gen<(u8, bool)> {
    range(0usize..SHAPES.len()).map(|i| SHAPES[i])
}

/// A bulk sender of `shape`, opened.
fn sender((num_tdns, per_tdn_state): (u8, bool)) -> Connection {
    let cfg = TdtcpConfig { num_tdns, per_tdn_state, ..td_config(u64::MAX) };
    let (a, ..) = handshake(td_pair(cfg, 0));
    assert!(a.is_tdtcp());
    assert_eq!(a.paths().len(), if per_tdn_state { usize::from(num_tdns) } else { 1 });
    a
}

/// The peer's ACK of `ack_kmss` segments, window 4 MiB.
fn kmss_ack(ack_kmss: u32) -> Peer {
    Peer::ack(1 + ack_kmss * MSS).wnd(1 << 22)
}

/// Apply one op to a connection; returns the updated simulated clock.
fn apply_op(conn: &mut Connection, op: &Op, mut now_us: u64) -> u64 {
    let now = t(now_us);
    match *op {
        Op::Poll => {
            // Drain at most a window's worth to bound the test.
            for _ in 0..64 {
                if conn.poll_send(now).is_none() {
                    break;
                }
            }
        }
        Op::Notify(tdn) => conn.on_tdn_notification(now, TdnId(tdn), now_us),
        Op::Ack { ack_kmss, sack, ack_tdn } => {
            let sack = sack.map(|(l, r)| (1 + l * MSS, 1 + r * MSS));
            conn.on_segment(now, &kmss_ack(ack_kmss).tdn(ack_tdn).sack(sack.as_slice()));
        }
        Op::Timer => {
            if let Some(deadline) = conn.next_timer() {
                now_us = deadline.as_micros().max(now_us) + 1;
                conn.on_timer(t(now_us));
            }
        }
    }
    now_us
}

testkit::props! {
    #[cases(64)]
    fn random_op_sequences_keep_invariants(input in tuple2(arb_shape(), vec_of(arb_op(), 1..120))) {
        let (shape, ops) = input;
        let mut conn = sender(shape);
        let mut now_us = 200u64;
        let mut last_acked = 0u64;
        for op in &ops {
            now_us += 37;
            now_us = apply_op(&mut conn, op, now_us);

            // Sequence progress is monotone.
            let acked = conn.stats().bytes_acked;
            tk_assert!(acked >= last_acked);
            last_acked = acked;
            // The current TDN is always indexable.
            let cur = conn.current();
            tk_assert!(cur.index() < conn.paths().len().max(1) + 256);
            let _ = conn.path(cur); // must not panic
            // Per-TDN pipes exclude lost and SACKed segments, so they
            // partition at most the total outstanding (plus
            // retransmissions in flight, bounded by the total).
            let total = conn.packets_out();
            let tdns = 0..conn.paths().len() as u8;
            let per: u32 = tdns.map(|i| conn.pipe_bytes(TdnId(i)) / MSS).sum();
            tk_assert!(per <= total * 2 + 2);
            // The flat-state ablation never grows or leaves set 0.
            if !shape.1 {
                tk_assert_eq!(conn.paths().len(), 1);
                tk_assert_eq!(cur, TdnId::ZERO);
            }
        }
    }

    // Stats counters are monotone under any op sequence.
    #[cases(64)]
    fn counters_monotone(input in tuple2(arb_shape(), vec_of(arb_op(), 1..80))) {
        let (shape, ops) = input;
        let mut conn = sender(shape);
        let mut now_us = 200u64;
        let mut prev = *conn.stats();
        for op in &ops {
            now_us += 53;
            let now = t(now_us);
            match *op {
                Op::Poll => { let _ = conn.poll_send(now); }
                Op::Notify(tdn) => conn.on_tdn_notification(now, TdnId(tdn), now_us),
                Op::Ack { ack_kmss, .. } => conn.on_segment(now, &kmss_ack(ack_kmss)),
                Op::Timer => conn.on_timer(now),
            }
            let s = *conn.stats();
            tk_assert!(s.bytes_sent >= prev.bytes_sent);
            tk_assert!(s.retransmits >= prev.retransmits);
            tk_assert!(s.tdn_switches >= prev.tdn_switches);
            tk_assert!(s.segs_received >= prev.segs_received);
            prev = s;
        }
    }

    // Gen-tagged TDN updates are idempotent and commutative up to the
    // newest generation: delivering the same notification set in any
    // order, with any amount of duplication, leaves the connection on
    // the same TDN, and every non-record delivery is discarded as
    // stale. This is the endpoint half of the fault-tolerance story —
    // the network may duplicate or reorder notifications freely.
    #[cases(64)]
    fn tdn_updates_idempotent(
        input in tuple3(
            range(1u8..3),
            vec_of(range(0u8..4), 1..16),
            vec_of(range(0usize..1_000), 0..48),
        )
    ) {
        // (The flat-state ablation ignores notifications altogether; it
        // has no update to be idempotent about.)
        let (num_tdns, tdns, picks) = input;
        // Delivery order: arbitrary picks (with repeats) into the base
        // set, then every index once so nothing is permanently lost.
        let mut order: Vec<usize> = picks.iter().map(|p| p % tdns.len()).collect();
        order.extend(0..tdns.len());

        let mut inorder = sender((num_tdns, true));
        let mut shuffled = sender((num_tdns, true));
        let mut now_us = 200u64;
        for (i, &tdn) in tdns.iter().enumerate() {
            now_us += 11;
            inorder.on_tdn_notification(t(now_us), TdnId(tdn), i as u64);
        }
        let mut expected_stale = 0u64;
        let mut max_gen: Option<u64> = None;
        for &i in &order {
            now_us += 11;
            shuffled.on_tdn_notification(t(now_us), TdnId(tdns[i]), i as u64);
            if max_gen.is_some_and(|m| i as u64 <= m) {
                expected_stale += 1;
            } else {
                max_gen = Some(i as u64);
            }
        }
        // Both converge on the newest generation's TDN...
        tk_assert_eq!(inorder.current(), TdnId(*tdns.last().unwrap()));
        tk_assert_eq!(shuffled.current(), inorder.current());
        // ...and every duplicate / out-of-order delivery was discarded.
        tk_assert_eq!(shuffled.stats().stale_notifies, expected_stale);
        tk_assert_eq!(inorder.stats().stale_notifies, 0);

        // Redelivering the whole set changes nothing but the stale count.
        let before = shuffled.current();
        let switches = shuffled.stats().tdn_switches;
        for &i in &order {
            now_us += 11;
            shuffled.on_tdn_notification(t(now_us), TdnId(tdns[i]), i as u64);
        }
        tk_assert_eq!(shuffled.current(), before);
        tk_assert_eq!(shuffled.stats().tdn_switches, switches);
        tk_assert_eq!(shuffled.stats().stale_notifies, expected_stale + order.len() as u64);
    }

    // Connection evolution is a pure function of the op sequence:
    // replaying identical ops on a fresh connection reproduces
    // byte-identical stats digests at every step. This is the
    // per-connection half of the golden-trace determinism guarantee.
    #[cases(64)]
    fn replay_is_deterministic(input in tuple2(arb_shape(), vec_of(arb_op(), 1..100))) {
        let (shape, ops) = input;
        let mut a = sender(shape);
        let mut b = sender(shape);
        let (mut now_a, mut now_b) = (200u64, 200u64);
        for op in &ops {
            now_a += 37;
            now_b += 37;
            now_a = apply_op(&mut a, op, now_a);
            now_b = apply_op(&mut b, op, now_b);
            tk_assert_eq!(now_a, now_b, "timer schedules must agree");
            tk_assert_eq!(a.stats().digest(), b.stats().digest(), "stats diverged after {op:?}");
            tk_assert_eq!(a.current(), b.current());
            tk_assert_eq!(a.packets_out(), b.packets_out());
        }
    }
}
