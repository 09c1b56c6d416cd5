//! Cross-TDN reordering walkthrough (Fig. 3 / Appendix A.1) plus a wire
//! dissector for the TDTCP packet formats (Fig. 5).
//!
//! ```sh
//! cargo run --release --example reordering_analysis
//! ```
//!
//! Part 1 replays the paper's Fig. 3(a) data-reordering scenario against
//! a TDTCP sender with the relaxed heuristic on and off, showing the
//! spurious retransmissions the heuristic prevents.
//!
//! Part 2 encodes TDTCP's three packet formats to real bytes and
//! dissects them back — the role the paper's Wireshark patches play.

use simcore::SimTime;
use tcp::cc::{CcConfig, Cubic};
use tcp::{Connection, Direction, FlowId, SackBlocks, Segment, SeqNum, Transport};
use tdtcp::{TdtcpConfig, TdtcpConnection};
use wire::{TcpHeader, TdnId, TdnNotification};
use wire::ip::protocol;

const MSS: u32 = 1000;

fn t(us: u64) -> SimTime {
    SimTime::from_micros(us)
}

/// Establish a TDTCP pair by relaying the handshake by hand.
fn establish(relaxed: bool) -> Connection {
    let mut cfg = TdtcpConfig::default();
    cfg.tcp.mss = MSS;
    cfg.tcp.pacing = false; // hand-driven scenario: send on demand
    cfg.relaxed_reordering = relaxed;
    let cubic = Cubic::new(CcConfig {
        mss: MSS,
        init_cwnd_pkts: 10,
        max_cwnd: 1 << 24,
    });
    let mut a = TdtcpConnection::connect(FlowId(1), cfg.clone(), &cubic, t(0));
    let mut b = TdtcpConnection::listen(FlowId(1), cfg, &cubic);
    let syn = a.poll_send(t(0)).expect("SYN");
    b.on_segment(t(10), &syn);
    let synack = b.poll_send(t(10)).expect("SYN-ACK");
    a.on_segment(t(20), &synack);
    let ack = a.poll_send(t(20)).expect("ACK");
    b.on_segment(t(30), &ack);
    a
}

fn fig3a_scenario(relaxed: bool) -> (u64, u64, u64) {
    let mut sender = establish(relaxed);
    // Segments 1-3 go out on the high-latency TDN 0...
    for _ in 0..3 {
        sender.poll_send(t(40)).expect("window open");
    }
    // ...the network reconfigures...
    sender.on_tdn_notification(t(45), TdnId(1), 0);
    // ...and segments 4-6 go out on the low-latency TDN 1.
    for _ in 0..3 {
        sender.poll_send(t(46)).expect("window open");
    }
    // TDN 1 delivers first: the receiver SACKs 4-6 while 1-3 are still in
    // flight on the slow path. Build that ACK by hand (Fig. 3a).
    let mut ack = Segment::new(FlowId(1), Direction::AckPath);
    ack.flags.ack = true;
    ack.ack = SeqNum(1);
    ack.wnd = 1 << 20;
    ack.ack_tdn = Some(TdnId(1));
    let mut sack = SackBlocks::EMPTY;
    sack.push(SeqNum(3 * MSS + 1), SeqNum(6 * MSS + 1));
    ack.set_sack(sack);
    sender.on_segment(t(60), &ack);
    // Drain the output: marked holes go out as (spurious) retransmissions
    // ahead of new data.
    while sender.poll_send(t(61)).is_some() {}
    let s = sender.stats();
    (s.retransmits, s.reorder_marked_pkts, s.relaxed_skips)
}

fn main() {
    println!("== Part 1: Fig. 3(a) data reordering at a TDN switch ==\n");
    for (name, relaxed) in [("classic TCP heuristics", false), ("TDTCP relaxed detection", true)] {
        let (retx, marked, skipped) = fig3a_scenario(relaxed);
        println!(
            "{name:>26}: {retx} spurious retransmissions queued \
             ({marked} marked lost, {skipped} holes spared)"
        );
    }
    println!(
        "\nThe relaxed heuristic inspects the TDN ID of every hole segment \
         (§3.4):\ncross-TDN holes are delayed, not lost, so nothing is resent."
    );

    println!("\n== Part 2: dissecting TDTCP's wire formats (Fig. 5) ==");
    // (a) The ICMP TDN-change notification.
    let mut buf = Vec::new();
    TdnNotification {
        active_tdn: TdnId(1),
    }
    .emit(&mut buf);
    println!("\nICMP TDN-change notification ({} bytes): {buf:02x?}", buf.len());
    let parsed = TdnNotification::parse(&buf).expect("valid");
    println!("  -> type=253 (experimental), active TDN = {}", parsed.active_tdn);

    // (b) A TD_CAPABLE SYN.
    let mut syn = Segment::new(FlowId(7), Direction::DataPath);
    syn.flags.syn = true;
    syn.td_capable = Some(2);
    syn.wnd = 1 << 20;
    let bytes = syn.to_wire(0x0A00_0001, 0x0A00_0002, 40000, 5001);
    println!("\nTD_CAPABLE SYN ({} bytes on the wire):", bytes.len());
    dissect(&bytes);

    // (c) A tagged data segment with SACK.
    let mut data = Segment::new(FlowId(7), Direction::DataPath);
    data.seq = SeqNum(9001);
    data.ack = SeqNum(555);
    data.len = 64;
    data.flags.ack = true;
    data.flags.psh = true;
    data.wnd = 1 << 20;
    data.data_tdn = Some(TdnId(1));
    data.ack_tdn = Some(TdnId(0));
    let mut sack = SackBlocks::EMPTY;
    sack.push(SeqNum(12_001), SeqNum(15_001));
    data.set_sack(sack);
    let bytes = data.to_wire(0x0A00_0001, 0x0A00_0002, 40000, 5001);
    println!("\nTD_DATA_ACK data segment ({} bytes on the wire):", bytes.len());
    dissect(&bytes);
}

/// A miniature Wireshark: parse IPv4+TCP bytes and print every field and
/// option.
fn dissect(bytes: &[u8]) {
    let (ip, total) = wire::Ipv4Header::parse(bytes).expect("valid IPv4");
    println!(
        "  IPv4  src={:08x} dst={:08x} proto={} ecn={:?} total={total}",
        ip.src, ip.dst, ip.protocol, ip.ecn
    );
    assert_eq!(ip.protocol, protocol::TCP);
    let (tcp, payload_off) = TcpHeader::parse(&bytes[20..total as usize], &ip).expect("valid TCP");
    println!(
        "  TCP   {} -> {} seq={} ack={} flags[syn={} ack={} psh={}] wnd={}",
        tcp.src_port,
        tcp.dst_port,
        tcp.seq,
        tcp.ack,
        tcp.flags.syn,
        tcp.flags.ack,
        tcp.flags.psh,
        tcp.window
    );
    for opt in &tcp.options {
        println!("  opt   {opt:?}");
    }
    println!("  data  {} payload bytes", bytes.len() - 20 - payload_off);
}
