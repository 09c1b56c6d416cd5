//! Edge-case tests for the TCP engine: RST handling, zero-window
//! deadlock freedom, stale/overshooting ACKs, and reTCP's circuit-mark
//! echo path.

use simcore::{SimDuration, SimTime};
use tcp::cc::{CcConfig, Cubic, ReTcp, ReTcpConfig};
use tcp::{Config, Connection, Direction, FlowId, SackBlocks, Segment, SeqNum, State, Transport};

const MSS: u32 = 1000;

fn t(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

fn cfg(bytes: u64) -> Config {
    Config {
        mss: MSS,
        bytes_to_send: bytes,
        ..Config::default()
    }
}

fn cc() -> Box<dyn tcp::CongestionControl> {
    Box::new(Cubic::new(CcConfig {
        mss: MSS,
        init_cwnd_pkts: 10,
        max_cwnd: 1 << 24,
    }))
}

/// Establish by hand; returns the sender.
fn establish(mut config: Config) -> Connection {
    config.pacing = false;
    let mut a = Connection::connect(FlowId(1), config, cc(), t(0));
    let _syn = a.poll_send(t(0)).unwrap();
    let mut synack = Segment::new(FlowId(1), Direction::AckPath);
    synack.flags.syn = true;
    synack.flags.ack = true;
    synack.seq = SeqNum(0);
    synack.ack = SeqNum(1);
    synack.wnd = 1 << 20;
    a.on_segment(t(100), &synack);
    assert!(a.is_established());
    // Drain the handshake ACK so subsequent polls yield data.
    let hs = a.poll_send(t(100)).expect("handshake ACK");
    assert!(!hs.has_payload());
    a
}

#[test]
fn rst_terminates_connection() {
    let mut a = establish(cfg(u64::MAX));
    let mut rst = Segment::new(FlowId(1), Direction::AckPath);
    rst.flags.rst = true;
    a.on_segment(t(200), &rst);
    assert!(a.is_done());
    assert_eq!(a.state(), State::Done);
    // No further transmissions.
    assert!(Transport::poll_send(&mut a, t(201)).is_none());
}

#[test]
fn zero_window_does_not_deadlock_recovery() {
    // The peer's window closes completely while a hole exists; the hole's
    // retransmission must still go out (retransmissions are not gated by
    // the advertised window) so the window can reopen.
    let mut a = establish(cfg(u64::MAX));
    // Send 6 segments.
    for _ in 0..6 {
        Transport::poll_send(&mut a, t(110)).expect("window open");
    }
    // SACK 2..6, cumulative stuck at 1 (hole = first segment), window 0.
    let mut ack = Segment::new(FlowId(1), Direction::AckPath);
    ack.flags.ack = true;
    ack.ack = SeqNum(1);
    ack.wnd = 0; // closed!
    let mut sb = SackBlocks::EMPTY;
    sb.push(SeqNum(1 + MSS), SeqNum(1 + 6 * MSS));
    ack.sack = sb;
    a.on_segment(t(300), &ack);
    // RACK anchors its cutoff at the newest SACKed transmission, so a
    // same-instant hole is "too recent" to mark — tail recovery is the
    // TLP's job. Fire it.
    assert!(Transport::poll_send(&mut a, t(301)).is_none(), "no new data at wnd=0");
    let tlp_at = Transport::next_timer(&a).expect("TLP armed");
    a.on_timer(tlp_at);
    let seg = Transport::poll_send(&mut a, tlp_at).expect("probe not window-gated");
    assert_eq!(seg.seq, SeqNum(1));
    assert!(seg.has_payload());
    // Window reopens once the hole is delivered.
    let mut ack2 = Segment::new(FlowId(1), Direction::AckPath);
    ack2.flags.ack = true;
    ack2.ack = SeqNum(1 + 6 * MSS);
    ack2.wnd = 1 << 20;
    a.on_segment(t(400), &ack2);
    assert!(Transport::poll_send(&mut a, t(401)).is_some());
}

#[test]
fn ack_beyond_snd_nxt_ignored() {
    let mut a = establish(cfg(u64::MAX));
    Transport::poll_send(&mut a, t(110)).unwrap();
    let before = a.stats().bytes_acked;
    let mut bogus = Segment::new(FlowId(1), Direction::AckPath);
    bogus.flags.ack = true;
    bogus.ack = SeqNum(1_000_000); // far beyond anything sent
    bogus.wnd = 1 << 20;
    a.on_segment(t(200), &bogus);
    assert_eq!(a.stats().bytes_acked, before, "bogus ACK changed nothing");
}

#[test]
fn stale_ack_is_counted_as_dupack_not_progress() {
    let mut a = establish(cfg(u64::MAX));
    for _ in 0..4 {
        Transport::poll_send(&mut a, t(110)).unwrap();
    }
    let mut ack = Segment::new(FlowId(1), Direction::AckPath);
    ack.flags.ack = true;
    ack.ack = SeqNum(1 + 2 * MSS);
    ack.wnd = 1 << 20;
    a.on_segment(t(200), &ack);
    let progressed = a.stats().bytes_acked;
    assert_eq!(progressed, 2 * u64::from(MSS));
    // An older (stale) ACK afterwards: no regression.
    let mut old = Segment::new(FlowId(1), Direction::AckPath);
    old.flags.ack = true;
    old.ack = SeqNum(1 + MSS);
    old.wnd = 1 << 20;
    a.on_segment(t(210), &old);
    assert_eq!(a.stats().bytes_acked, progressed);
}

#[test]
fn retcp_circuit_mark_echo_drives_boost() {
    // Receiver echoes circuit marks on its ACKs; the reTCP sender boosts
    // on the off->on edge and shrinks on the on->off edge.
    let mut config = cfg(u64::MAX);
    config.pacing = false;
    let retcp = ReTcp::new(ReTcpConfig {
        cc: CcConfig {
            mss: MSS,
            init_cwnd_pkts: 10,
            max_cwnd: 1 << 24,
        },
        scale: 4.0,
        boost_cap: 1 << 20,
    });
    let mut a = Connection::connect(FlowId(1), config, Box::new(retcp), t(0));
    let _syn = a.poll_send(t(0)).unwrap();
    let mut synack = Segment::new(FlowId(1), Direction::AckPath);
    synack.flags.syn = true;
    synack.flags.ack = true;
    synack.ack = SeqNum(1);
    synack.wnd = 1 << 20;
    a.on_segment(t(100), &synack);
    let _hs_ack = Transport::poll_send(&mut a, t(100)).unwrap();
    let data = Transport::poll_send(&mut a, t(110)).unwrap();
    assert!(data.has_payload());
    let w0 = a.cwnd();
    // ACK with the circuit mark echoed: boost.
    let mut ack = Segment::new(FlowId(1), Direction::AckPath);
    ack.flags.ack = true;
    ack.ack = SeqNum(1 + MSS);
    ack.wnd = 1 << 20;
    ack.circuit_mark = true;
    a.on_segment(t(200), &ack);
    assert!(a.cwnd() >= w0 * 3, "boosted: {} -> {}", w0, a.cwnd());
    // Mark disappears: shrink back near the original.
    Transport::poll_send(&mut a, t(210)).unwrap();
    let mut ack2 = Segment::new(FlowId(1), Direction::AckPath);
    ack2.flags.ack = true;
    ack2.ack = SeqNum(1 + 2 * MSS);
    ack2.wnd = 1 << 20;
    ack2.circuit_mark = false;
    a.on_segment(t(300), &ack2);
    assert!(a.cwnd() < w0 * 2, "shrunk: {}", a.cwnd());
}

#[test]
fn receiver_echoes_circuit_mark() {
    let mut b = Connection::listen(FlowId(1), cfg(0), cc());
    let mut syn = Segment::new(FlowId(1), Direction::DataPath);
    syn.flags.syn = true;
    syn.wnd = 1 << 20;
    b.on_segment(t(10), &syn);
    let _synack = Transport::poll_send(&mut b, t(10)).unwrap();
    // Data arrives with the switch's circuit mark set.
    let mut data = Segment::new(FlowId(1), Direction::DataPath);
    data.seq = SeqNum(1);
    data.len = MSS;
    data.flags.ack = true;
    data.ack = SeqNum(1);
    data.circuit_mark = true;
    b.on_segment(t(50), &data);
    let ack = Transport::poll_send(&mut b, t(51)).expect("ACK generated");
    assert!(ack.circuit_mark, "mark echoed to the sender");
}

#[test]
fn pacing_spreads_transmissions() {
    let mut config = cfg(u64::MAX);
    config.pacing = true;
    let mut a = Connection::connect(FlowId(1), config, cc(), t(0));
    let _syn = a.poll_send(t(0)).unwrap();
    let mut synack = Segment::new(FlowId(1), Direction::AckPath);
    synack.flags.syn = true;
    synack.flags.ack = true;
    synack.ack = SeqNum(1);
    synack.wnd = 1 << 20;
    a.on_segment(t(100), &synack);
    // Prime srtt (100us) so the pacer has a rate.
    Transport::poll_send(&mut a, t(100)).unwrap();
    let mut ack = Segment::new(FlowId(1), Direction::AckPath);
    ack.flags.ack = true;
    ack.ack = SeqNum(1 + MSS);
    ack.wnd = 1 << 20;
    a.on_segment(t(200), &ack);
    // First send passes, immediate second poll at the same instant is
    // pace-gated.
    assert!(Transport::poll_send(&mut a, t(200)).is_some());
    assert!(Transport::poll_send(&mut a, t(200)).is_none(), "pacing gates");
    // And a pacing wake-up is scheduled.
    let wake = Transport::next_timer(&a).expect("pacing timer armed");
    assert!(wake > t(200));
    assert!(wake < t(200) + SimDuration::from_micros(50));
    // After the gap, sending resumes.
    assert!(Transport::poll_send(&mut a, wake).is_some());
}

/// A paced connection that stops for a reason other than the pacer —
/// here a full congestion window — must not leave a pacing wake-up armed:
/// `next_timer` would name an instant at which `poll_send` has nothing to
/// release, and a driver that re-arms on whatever `next_timer` says spins
/// at that instant forever (the two-rack engine did exactly that).
#[test]
fn paced_sender_advertises_no_wake_up_without_work() {
    let mut config = cfg(u64::MAX);
    config.pacing = true;
    let mut a = Connection::connect(FlowId(1), config, cc(), t(0));
    let _syn = a.poll_send(t(0)).unwrap();
    let mut synack = Segment::new(FlowId(1), Direction::AckPath);
    synack.flags.syn = true;
    synack.flags.ack = true;
    synack.ack = SeqNum(1);
    synack.wnd = 1 << 20;
    a.on_segment(t(100), &synack);
    // Follow the advertised wake-ups, draining at each: every one must
    // lie strictly ahead of the instant it is read at — also at the two
    // instants where the window, not the pacer, is what stops the sender
    // (the release stamped by the last send, and the instant after it).
    let mut now = t(100);
    let mut window_full_polls = 0;
    while window_full_polls < 2 {
        while Transport::poll_send(&mut a, now).is_some() {}
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
