//! TDTCP behaviour tests: TD_CAPABLE negotiation, notification-driven
//! state swaps, the §3.4 relaxed reordering heuristic, §4.4 RTT sample
//! filtering, and the runtime TDN-growth / downgrade features of §4.2.

use simcore::{SimDuration, SimTime};
use tcp::cc::{CcConfig, Cubic};
use tcp::{FlowId, SackBlocks, Segment, SeqNum, Transport};
use tdtcp::{TdtcpConfig, TdtcpConnection};
use wire::TdnId;

const MSS: u32 = 1000;

fn cfg(bytes: u64) -> TdtcpConfig {
    TdtcpConfig {
        tcp: tcp::Config {
            mss: MSS,
            bytes_to_send: bytes,
            ..tcp::Config::default()
        },
        ..TdtcpConfig::default()
    }
}

fn cubic() -> Cubic {
    Cubic::new(CcConfig {
        mss: MSS,
        init_cwnd_pkts: 10,
        max_cwnd: 1 << 24,
    })
}

fn t(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

/// Drive the three-way handshake by hand; returns (sender, receiver).
fn establish(c: TdtcpConfig) -> (TdtcpConnection, TdtcpConnection) {
    let mut a = TdtcpConnection::connect(FlowId(1), c.clone(), &cubic(), t(0));
    let mut b = TdtcpConnection::listen(FlowId(1), c, &cubic());
    let syn = a.poll_send(t(0)).expect("SYN");
    assert!(syn.flags.syn);
    b.on_segment(t(10), &syn);
    let synack = b.poll_send(t(10)).expect("SYN-ACK");
    a.on_segment(t(20), &synack);
    let ack = a.poll_send(t(20)).expect("handshake ACK");
    b.on_segment(t(30), &ack);
    assert!(a.is_established());
    assert!(b.is_established());
    (a, b)
}

#[test]
fn td_capable_negotiation_succeeds_on_match() {
    let (a, b) = establish(cfg(10_000));
    assert!(a.is_tdtcp());
    assert!(b.is_tdtcp());
}

#[test]
fn syn_carries_td_capable_option() {
    let mut a = TdtcpConnection::connect(FlowId(1), cfg(1000), &cubic(), t(0));
    let syn = a.poll_send(t(0)).unwrap();
    assert_eq!(syn.td_capable, Some(2));
}

#[test]
fn tdn_count_mismatch_downgrades() {
    let mut ca = cfg(10_000);
    ca.num_tdns = 2;
    let mut cb = cfg(0);
    cb.num_tdns = 3; // disagrees
    let mut a = TdtcpConnection::connect(FlowId(1), ca, &cubic(), t(0));
    let mut b = TdtcpConnection::listen(FlowId(1), cb, &cubic());
    let syn = a.poll_send(t(0)).unwrap();
    b.on_segment(t(10), &syn);
    let synack = b.poll_send(t(10)).unwrap();
    assert_eq!(synack.td_capable, None, "mismatch: no echo");
    a.on_segment(t(20), &synack);
    assert!(!a.is_tdtcp());
    assert!(!b.is_tdtcp());
    // Data still flows as plain TCP: segments carry no TDN tags.
    let seg = a.poll_send(t(21)).unwrap(); // handshake ack
    b.on_segment(t(25), &seg);
    let data = a.poll_send(t(30)).expect("data");
    assert!(data.has_payload());
    assert_eq!(data.data_tdn, None);
}

#[test]
fn notification_switches_current_and_sets_change_pointer() {
    let (mut a, _) = establish(cfg(u64::MAX));
    assert_eq!(a.conn().current(), TdnId(0));
    // Send a few segments on TDN 0.
    for _ in 0..3 {
        a.poll_send(t(40)).expect("window open");
    }
    a.on_notification(t(50), TdnId(1));
    assert_eq!(a.conn().current(), TdnId(1));
    assert_eq!(a.stats().tdn_switches, 1);
    // New data is tagged with the new TDN.
    let seg = a.poll_send(t(51)).expect("window open");
    assert_eq!(seg.data_tdn, Some(TdnId(1)));
    // Duplicate notification of the same TDN is a no-op.
    a.on_notification(t(60), TdnId(1));
    assert_eq!(a.stats().tdn_switches, 1);
}

#[test]
fn new_tdn_id_allocates_state_at_runtime() {
    let (mut a, _) = establish(cfg(u64::MAX));
    assert_eq!(a.conn().paths().len(), 2);
    a.on_notification(t(50), TdnId(5));
    assert_eq!(a.conn().paths().len(), 6, "states 2..=5 allocated");
    assert_eq!(a.conn().current(), TdnId(5));
    // The fresh state starts at the initial window.
    assert_eq!(a.conn().path(TdnId(5)).cc.cwnd(), 10 * MSS);
}

#[test]
fn downgrade_ignores_notifications() {
    let (mut a, _) = establish(cfg(u64::MAX));
    a.downgrade();
    assert!(!a.is_tdtcp());
    a.on_notification(t(50), TdnId(1));
    assert_eq!(a.conn().current(), TdnId(0));
    assert_eq!(a.stats().tdn_switches, 0);
    let seg = a.poll_send(t(51)).expect("still sends");
    assert_eq!(seg.data_tdn, None, "no TDTCP options after downgrade");
}

/// Build the §3.4 scenario: segments sent on TDN 0, then a switch, then
/// segments on TDN 1; the TDN-1 segments are SACKed first.
fn cross_tdn_scenario(relaxed: bool) -> (TdtcpConnection, Vec<Segment>) {
    let mut c = cfg(u64::MAX);
    c.relaxed_reordering = relaxed;
    let (mut a, _) = establish(c);
    let mut sent = Vec::new();
    // Three segments on TDN 0 (seqs 1, 1001, 2001).
    for _ in 0..3 {
        sent.push(a.poll_send(t(40)).expect("cwnd open"));
    }
    a.on_notification(t(45), TdnId(1));
    // Three segments on TDN 1 (seqs 3001, 4001, 5001).
    for _ in 0..3 {
        sent.push(a.poll_send(t(46)).expect("cwnd open"));
    }
    (a, sent)
}

fn sack_ack(ack: u32, blocks: &[(u32, u32)], ack_tdn: Option<u8>) -> Segment {
    let mut s = Segment::new(FlowId(1), tcp::Direction::AckPath);
    s.flags.ack = true;
    s.ack = SeqNum(ack);
    s.wnd = 1 << 20;
    s.ack_tdn = ack_tdn.map(TdnId);
    let mut sb = SackBlocks::EMPTY;
    for &(l, r) in blocks {
        sb.push(SeqNum(l), SeqNum(r));
    }
    s.sack = sb;
    s
}

#[test]
fn relaxed_detection_spares_cross_tdn_holes() {
    let (mut a, _) = cross_tdn_scenario(true);
    // ACKs for the TDN-1 segments arrive first (low-latency network),
    // SACKing 3001..6001 while 1..3001 (TDN 0) is still in flight.
    let ack = sack_ack(1, &[(3001, 6001)], Some(1));
    a.on_segment(t(60), &ack);
    assert!(
        a.stats().relaxed_skips >= 3,
        "TDN-0 holes spared: {:?}",
        a.stats()
    );
    assert_eq!(
        a.stats().reorder_marked_pkts, 0,
        "nothing marked lost on pure cross-TDN reordering"
    );
    // No retransmission is queued.
    assert_eq!(a.stats().retransmits, 0);
    // TDN 0 stays Open (Fig. 4).
    assert!(!a.conn().path(TdnId(0)).in_recovery());
    // The delayed TDN-0 ACK then arrives and everything resolves.
    let late = sack_ack(6001, &[], Some(0));
    a.on_segment(t(90), &late);
    assert_eq!(a.stats().retransmits, 0);
}

#[test]
fn classic_detection_marks_cross_tdn_holes() {
    let (mut a, _) = cross_tdn_scenario(false);
    let ack = sack_ack(1, &[(3001, 6001)], Some(1));
    a.on_segment(t(60), &ack);
    assert!(
        a.stats().reorder_marked_pkts >= 3,
        "without relaxation the TDN-0 segments are declared lost: {:?}",
        a.stats()
    );
    // And spurious retransmissions go out.
    let r = a.poll_send(t(61)).expect("retransmission queued");
    assert!(r.has_payload());
    assert!(a.stats().retransmits >= 1);
}

#[test]
fn same_tdn_hole_is_a_real_loss() {
    // Loss within one TDN must still be detected promptly even with
    // relaxation on: segments 1 and 2 sent on TDN 1 along with 3..6; the
    // hole has the same TDN as the trigger -> marked.
    let mut c = cfg(u64::MAX);
    c.relaxed_reordering = true;
    let (mut a, _) = establish(c);
    a.on_notification(t(35), TdnId(1));
    for _ in 0..6 {
        a.poll_send(t(40)).expect("cwnd open");
    }
    // First segment (seq 1..1001) lost; 1001..6001 SACKed on same TDN.
    let ack = sack_ack(1, &[(1001, 6001)], Some(1));
    a.on_segment(t(60), &ack);
    assert!(a.stats().reorder_marked_pkts >= 1, "{:?}", a.stats());
    assert!(a.conn().path(TdnId(1)).in_recovery());
    let r = a.poll_send(t(61)).expect("fast retransmit");
    assert_eq!(r.seq, SeqNum(1));
}

#[test]
fn stale_cross_tdn_hole_eventually_marked() {
    // A cross-TDN hole older than the slowest-RTT cutoff is a true tail
    // loss and must be marked even under relaxation (§3.4's RACK-TLP
    // fallback).
    let (mut a, _) = cross_tdn_scenario(true);
    // Same SACK pattern as the spare test, but arriving 1.5 ms after the
    // TDN-0 segments went out — far beyond any plausible delayed
    // delivery (the handshake seeded srtt, so the cutoff is known).
    let ack = sack_ack(1, &[(3001, 6001)], Some(1));
    a.on_segment(t(1500), &ack);
    assert!(
        a.stats().reorder_marked_pkts >= 1,
        "stale hole must be declared lost: {:?}",
        a.stats()
    );
}

#[test]
fn rtt_samples_filtered_by_tdn() {
    let (mut a, _) = establish(cfg(u64::MAX));
    // Segment sent on TDN 0 at t=40.
    a.poll_send(t(40)).expect("data");
    // Its ACK returns tagged TDN 1: type-3 sample, discarded.
    let ack = sack_ack(1001, &[], Some(1));
    a.on_segment(t(140), &ack);
    assert_eq!(a.stats().cross_tdn_rtt_discards, 1);
    assert_eq!(a.conn().path(TdnId(0)).rtt.samples(), 1, "handshake sample only");
    // Next segment's ACK returns on TDN 0: accepted into TDN 0.
    a.poll_send(t(150)).expect("data");
    let ack2 = sack_ack(2001, &[], Some(0));
    a.on_segment(t(250), &ack2);
    assert_eq!(a.conn().path(TdnId(0)).rtt.samples(), 2);
    assert_eq!(
        a.conn().path(TdnId(0)).rtt.latest(),
        Some(SimDuration::from_micros(100))
    );
}

/// Every TDN's estimator is reachable, not just the first eight: the
/// per-ACK "already sampled" scratch is sized by the TDN id space
/// (`TdnId::MAX_TDNS`), the same bound runtime growth allocates up to.
#[test]
fn rtt_samples_reach_high_numbered_tdns() {
    let mut c = cfg(u64::MAX);
    c.num_tdns = 9;
    let (mut a, _) = establish(c);
    assert_eq!(a.conn().paths().len(), 9);
    a.on_notification(t(35), TdnId(8));
    // Segment sent on TDN 8 at t=40; its ACK returns on TDN 8 at t=140.
    let seg = a.poll_send(t(40)).expect("data");
    assert_eq!(seg.data_tdn, Some(TdnId(8)));
    a.on_segment(t(140), &sack_ack(1001, &[], Some(8)));
    assert_eq!(a.stats().cross_tdn_rtt_discards, 0);
    assert_eq!(a.conn().path(TdnId(8)).rtt.samples(), 1, "sample recorded on TDN 8");
    assert_eq!(
        a.conn().path(TdnId(8)).rtt.latest(),
        Some(SimDuration::from_micros(100))
    );
    assert_eq!(a.conn().path(TdnId(0)).rtt.samples(), 1, "handshake sample only");
}

#[test]
fn per_tdn_cwnd_checkpoints_survive_switches() {
    let (mut a, _) = establish(cfg(u64::MAX));
    // Grow TDN 0's window: send + ack a few rounds.
    let mut next_ack = 1u32;
    for round in 0..5 {
        let base = t(100 * (round + 1));
        while a.poll_send(base).is_some() {}
        // Ack everything outstanding.
        next_ack = {
            let outstanding = a.conn().packets_out();
            next_ack + outstanding * MSS
        };
        let ack = sack_ack(next_ack, &[], Some(0));
        a.on_segment(base + SimDuration::from_micros(50), &ack);
    }
    let grown = a.conn().path(TdnId(0)).cc.cwnd();
    assert!(grown > 10 * MSS, "TDN 0 window grew: {grown}");
    // Switch away and back: the checkpoint is intact.
    a.on_notification(t(1000), TdnId(1));
    assert_eq!(a.conn().path(TdnId(1)).cc.cwnd(), 10 * MSS, "fresh TDN 1");
    a.on_notification(t(1200), TdnId(0));
    assert_eq!(a.conn().path(TdnId(0)).cc.cwnd(), grown, "checkpoint resumed");
}

#[test]
fn ack_with_nothing_outstanding_ignored() {
    let (mut a, _) = establish(cfg(u64::MAX));
    let before = *a.stats();
    let stale = sack_ack(1, &[], Some(0));
    a.on_segment(t(100), &stale);
    let after = *a.stats();
    assert_eq!(before.bytes_acked, after.bytes_acked);
    assert_eq!(before.reorder_events, after.reorder_events);
}

#[test]
fn syn_tracked_under_tdn_zero() {
    // Appendix A.2: even if the very first notification says TDN 1, the
    // SYN is accounted to TDN 0 and its ACK credits TDN 0.
    let mut a = TdtcpConnection::connect(FlowId(1), cfg(u64::MAX), &cubic(), t(0));
    a.on_notification(t(0), TdnId(1));
    let _syn = a.poll_send(t(0)).unwrap();
    let mut synack = Segment::new(FlowId(1), tcp::Direction::AckPath);
    synack.flags.syn = true;
    synack.flags.ack = true;
    synack.seq = SeqNum(0);
    synack.ack = SeqNum(1);
    synack.wnd = 1 << 20;
    synack.td_capable = Some(2);
    a.on_segment(t(100), &synack);
    assert!(a.is_established());
    assert_eq!(a.conn().packets_out(), 0, "SYN credited despite TDN 1 active");
}

#[test]
fn fin_transfer_completes() {
    let (mut a, mut b) = establish(cfg(2500));
    let mut now = 40u64;
    // Simple synchronous relay until both ends are done.
    for _ in 0..200 {
        now += 10;
        let mut moved = false;
        while let Some(s) = a.poll_send(t(now)) {
            b.on_segment(t(now + 5), &s);
            moved = true;
        }
        while let Some(s) = b.poll_send(t(now + 5)) {
            a.on_segment(t(now + 10), &s);
            moved = true;
        }
        if a.is_done() && b.is_done() {
            break;
        }
        if !moved {
            // Let timers fire if stalled.
            if let Some(tt) = a.next_timer() {
                now = now.max(tt.as_micros() + 1);
                a.on_timer(t(now));
            }
        }
    }
    assert!(a.is_done(), "{a:?}");
    assert_eq!(b.stats().bytes_delivered, 2500);
}

#[test]
fn heterogeneous_ccas_per_tdn() {
    // §3.5 extension: a different CCA in each TDN. Give TDN 0 Reno and
    // TDN 1 CUBIC and confirm each TDN's state reports its own algorithm
    // and evolves independently.
    use tcp::cc::{CongestionControl, Reno};
    let ccs: Vec<Box<dyn CongestionControl>> = vec![
        Box::new(Reno::new(tcp::cc::CcConfig {
            mss: MSS,
            init_cwnd_pkts: 4,
            max_cwnd: 1 << 20,
        })),
        Box::new(cubic()),
    ];
    let mut a = TdtcpConnection::connect_with_ccas(FlowId(1), cfg(u64::MAX), ccs, t(0));
    // Complete the handshake by hand.
    let _syn = a.poll_send(t(0)).unwrap();
    let mut synack = Segment::new(FlowId(1), tcp::Direction::AckPath);
    synack.flags.syn = true;
    synack.flags.ack = true;
    synack.ack = SeqNum(1);
    synack.wnd = 1 << 20;
    synack.td_capable = Some(2);
    a.on_segment(t(100), &synack);
    assert!(a.is_established());
    assert_eq!(a.conn().path(TdnId(0)).cc.name(), "reno");
    assert_eq!(a.conn().path(TdnId(1)).cc.name(), "cubic");
    assert_eq!(a.conn().path(TdnId(0)).cc.cwnd(), 4 * MSS, "Reno's init cwnd");
    assert_eq!(a.conn().path(TdnId(1)).cc.cwnd(), 10 * MSS, "CUBIC's init cwnd");
    // A loss on TDN 1 leaves TDN 0's Reno untouched.
    a.on_notification(t(110), TdnId(1));
    for _ in 0..6 {
        a.poll_send(t(120));
    }
    let ack = sack_ack(1, &[(1001, 6001)], Some(1));
    a.on_segment(t(200), &ack);
    assert!(a.conn().path(TdnId(1)).in_recovery());
    assert!(!a.conn().path(TdnId(0)).in_recovery());
    assert_eq!(a.conn().path(TdnId(0)).cc.cwnd(), 4 * MSS);
}

#[test]
fn runtime_tdn_growth_clones_template_cca() {
    use tcp::cc::{CongestionControl, Reno};
    let ccs: Vec<Box<dyn CongestionControl>> = vec![
        Box::new(Reno::new(tcp::cc::CcConfig {
            mss: MSS,
            init_cwnd_pkts: 4,
            max_cwnd: 1 << 20,
        })),
        Box::new(cubic()),
    ];
    let mut a = TdtcpConnection::connect_with_ccas(FlowId(1), cfg(u64::MAX), ccs, t(0));
    a.on_notification(t(5), TdnId(3));
    assert_eq!(a.conn().paths().len(), 4);
    // Newly allocated TDNs clone from state 0's algorithm family.
    assert_eq!(a.conn().path(TdnId(3)).cc.name(), "reno");
}
