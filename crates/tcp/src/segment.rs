//! The simulation-level segment.
//!
//! The simulator passes this structured form instead of encoded bytes so a
//! multi-second run does not spend its time in codecs; [`Segment::to_wire`]
//! and [`Segment::from_wire`] convert to and from the byte-exact formats in
//! the `wire` crate. The root wire law (`tests/laws.rs`) round-trips every
//! segment a run sends and receives through them, so the struct is
//! equivalent to real packets on every field the wire carries.

use crate::seq::SeqNum;
use wire::ip::{protocol, IPV4_HEADER_LEN};
use wire::options::DssMapping;
use wire::{Ecn, Ipv4Header, ParseError, TcpFlags, TcpHeader, TcpOption, TdnId};

/// The window scale both ends announce on their SYN (RFC 7323): every
/// other segment's window field counts KiB.
const WSCALE: u8 = 10;

/// Identifies one flow (connection) in a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u32);

/// Which way a segment travels. Flows are unidirectional bulk transfers:
/// data travels `DataPath`, ACKs travel `AckPath`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Sender → receiver (data).
    DataPath,
    /// Receiver → sender (ACKs).
    AckPath,
}

/// Up to four SACK blocks, fixed-size to keep [`Segment`] allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SackBlocks {
    blocks: [(SeqNum, SeqNum); 4],
    len: u8,
}

impl SackBlocks {
    /// No blocks.
    pub const EMPTY: SackBlocks = SackBlocks {
        blocks: [(SeqNum(0), SeqNum(0)); 4],
        len: 0,
    };

    /// Append a `[left, right)` block; silently ignored beyond four blocks
    /// (the least recent blocks are the ones dropped by construction order,
    /// matching RFC 2018's best-effort semantics).
    pub fn push(&mut self, left: SeqNum, right: SeqNum) {
        debug_assert!(left.before(right), "SACK block must be non-empty");
        if (self.len as usize) < 4 {
            self.blocks[self.len as usize] = (left, right);
            self.len += 1;
        }
    }

    /// Keep the first `n` blocks, the most recent (RFC 2018 §4): what a
    /// sender does when its other options leave room for fewer than four.
    pub fn truncate(&mut self, n: usize) {
        while self.len() > n {
            self.len -= 1;
            self.blocks[self.len as usize] = (SeqNum(0), SeqNum(0));
        }
    }

    /// The blocks in order.
    pub fn iter(&self) -> impl Iterator<Item = (SeqNum, SeqNum)> + '_ {
        self.blocks[..self.len as usize].iter().copied()
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether there are no blocks.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Data-sequence mapping carried by MPTCP subflow segments (simplified DSS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DssMap {
    /// Connection-level (data) sequence number of the first payload byte.
    pub dsn: u64,
    /// Subflow sequence number of the first payload byte.
    pub ssn: SeqNum,
    /// Mapped length in bytes.
    pub len: u32,
}

/// A TCP segment in flight in the simulator.
///
/// `len` is the payload length; payload bytes themselves are not carried
/// (bulk flows synthesize them on demand), which keeps the event queue
/// allocation-free per packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// The flow this segment belongs to.
    pub flow: FlowId,
    /// Travel direction (used by the network for routing).
    pub dir: Direction,
    /// Sequence number of the first payload byte.
    pub seq: SeqNum,
    /// Acknowledgment number (valid when `flags.ack`).
    pub ack: SeqNum,
    /// Payload length in bytes.
    pub len: u32,
    /// TCP flags.
    pub flags: TcpFlags,
    /// Advertised receive window in bytes (already descaled).
    pub wnd: u32,
    /// SACK blocks.
    pub sack: SackBlocks,
    /// TDTCP: TDN on which the data in this segment was sent.
    pub data_tdn: Option<TdnId>,
    /// TDTCP: TDN on which this (ACK) segment was sent.
    pub ack_tdn: Option<TdnId>,
    /// TDTCP: `TD_CAPABLE` number of TDNs (SYN/SYN-ACK only).
    pub td_capable: Option<u8>,
    /// MPTCP: data-sequence mapping for the payload.
    pub dss: Option<DssMap>,
    /// MPTCP: connection-level cumulative data ACK.
    pub data_ack: Option<u64>,
    /// IP ECN codepoint; switches rewrite ECT → CE above threshold.
    pub ecn: Ecn,
    /// reTCP: switch sets this when the segment traversed the circuit.
    pub circuit_mark: bool,
    /// Routing pin: the segment may only be serviced while this TDN is
    /// active (MPTCP subflows are pinned; everything else floats).
    pub pin: Option<TdnId>,
    /// End-to-end payload checksum. Payload bytes are synthesized, so the
    /// checksum is modelled as a pure function of `(flow, seq, len)`
    /// (see [`Segment::expected_payload_csum`]): senders stamp it on
    /// every payload-carrying segment, impairment injectors mangle it,
    /// and receivers discard segments whose stamp does not verify.
    /// `0` means "unstamped" (control segments; legacy paths).
    pub payload_csum: u32,
}

/// Fixed per-segment header overhead assumed for serialization timing:
/// 20 B IPv4 + 20 B TCP + up to 20 B of options, one constant for every
/// variant. SACK blocks beside TDTCP's tag or MPTCP's DSS make the real
/// header longer (up to 80 B): of the segments the hosts received in 16
/// bulk flows × 20 ms on the paper baseline, TDTCP's 2 980 of 11 088 and
/// MPTCP's 1 983 of 8 974 had a header above 60 B. Whether serialization
/// should charge the real length is left to ROADMAP item 3.
pub const HEADER_OVERHEAD: u32 = 60;

impl Segment {
    /// A zeroed template for flow `flow` travelling `dir`.
    pub fn new(flow: FlowId, dir: Direction) -> Segment {
        Segment {
            flow,
            dir,
            seq: SeqNum::ZERO,
            ack: SeqNum::ZERO,
            len: 0,
            flags: TcpFlags::default(),
            wnd: 0,
            sack: SackBlocks::EMPTY,
            data_tdn: None,
            ack_tdn: None,
            td_capable: None,
            dss: None,
            data_ack: None,
            ecn: Ecn::NotEct,
            circuit_mark: false,
            pin: None,
            payload_csum: 0,
        }
    }

    /// The checksum a pristine copy of this segment's payload would carry.
    /// Payload bytes are synthesized deterministically from the stream
    /// position, so the checksum is a pure function of `(flow, seq, len)`
    /// — always nonzero, so a stamped segment is distinguishable from an
    /// unstamped one. Only its equal / not-equal verdict against a
    /// mangled stamp is ever observed (no digest folds the value), so one
    /// multiply-xorshift stands in for a hash chain: it runs twice per
    /// data segment, at the stamp and at the verify.
    #[inline]
    pub fn expected_payload_csum(&self) -> u32 {
        let key = (u64::from(self.flow.0) << 32 | u64::from(self.seq.0))
            .wrapping_add(u64::from(self.len) << 20);
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let folded = (h ^ (h >> 32)) as u32;
        if folded == 0 {
            1
        } else {
            folded
        }
    }

    /// Stamp the payload checksum (no-op on segments without payload).
    pub fn stamp_payload(&mut self) {
        if self.has_payload() {
            self.payload_csum = self.expected_payload_csum();
        }
    }

    /// Whether the payload arrived damaged: the segment carries a stamp
    /// and it does not verify. Unstamped segments are accepted (control
    /// segments never carry a stamp).
    pub fn payload_is_corrupt(&self) -> bool {
        self.has_payload() && self.payload_csum != 0 && self.payload_csum != self.expected_payload_csum()
    }

    /// Total on-wire size used for serialization-delay computation.
    pub fn wire_size(&self) -> u32 {
        HEADER_OVERHEAD + self.len
    }

    /// Sequence number consumed on the circle: payload plus one for SYN
    /// and one for FIN.
    pub fn seq_space(&self) -> u32 {
        self.len + u32::from(self.flags.syn) + u32::from(self.flags.fin)
    }

    /// Whether the segment carries payload bytes.
    pub fn has_payload(&self) -> bool {
        self.len > 0
    }

    /// Encode to real IPv4+TCP bytes (payload synthesized as zeros).
    ///
    /// A SYN carries the window unscaled, capped at 65 535, and announces
    /// window scale 10; every other window is sent in whole KiB. Panics if the
    /// options exceed the 40 B option space: the sender that attaches an
    /// option trims its SACK blocks to fit.
    pub fn to_wire(&self, src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16) -> Vec<u8> {
        let mut options = Vec::new();
        if self.flags.syn {
            options.push(TcpOption::Mss(8948));
            options.push(TcpOption::SackPermitted);
            options.push(TcpOption::WindowScale(WSCALE));
        }
        if let Some(n) = self.td_capable {
            options.push(TcpOption::TdCapable {
                version: 0,
                num_tdns: n,
            });
        }
        if self.data_tdn.is_some() || self.ack_tdn.is_some() {
            options.push(TcpOption::TdDataAck {
                data_tdn: self.data_tdn,
                ack_tdn: self.ack_tdn,
            });
        }
        if self.dss.is_some() || self.data_ack.is_some() {
            options.push(TcpOption::MpDss {
                data_ack: self.data_ack,
                map: self.dss.map(|dss| DssMapping {
                    data_seq: dss.dsn,
                    subflow_seq: dss.ssn.0,
                    len: u16::try_from(dss.len).expect("a DSS mapping fits its 16-bit length"),
                }),
            });
        }
        if !self.sack.is_empty() {
            options.push(TcpOption::Sack(self.sack.iter().map(|(l, r)| (l.0, r.0)).collect()));
        }
        let mut ip = Ipv4Header::new(src_ip, dst_ip, protocol::TCP);
        ip.ecn = self.ecn;
        let window = if self.flags.syn { self.wnd } else { self.wnd >> WSCALE };
        let tcp = TcpHeader {
            src_port,
            dst_port,
            seq: self.seq.0,
            ack: self.ack.0,
            flags: self.flags,
            window: window.min(u32::from(u16::MAX)) as u16,
            options,
        };
        let payload = vec![0u8; self.len as usize];
        let mut buf = Vec::with_capacity(IPV4_HEADER_LEN + tcp.header_len() + payload.len());
        ip.emit(&mut buf, tcp.header_len() + payload.len());
        tcp.emit(&mut buf, &ip, &payload);
        buf
    }

    /// Decode from IPv4+TCP bytes produced by [`Segment::to_wire`].
    ///
    /// `flow` and `dir` are routing context the wire does not carry.
    /// Malformed input is an error, never a panic: a total length beyond
    /// the buffer is [`ParseError::Truncated`], an empty SACK block
    /// [`ParseError::BadOption`].
    pub fn from_wire(data: &[u8], flow: FlowId, dir: Direction) -> wire::Result<Segment> {
        let (ip, total) = Ipv4Header::parse(data)?;
        let tcp_bytes = data
            .get(IPV4_HEADER_LEN..usize::from(total))
            .ok_or(ParseError::Truncated)?;
        let (tcp, payload_off) = TcpHeader::parse(tcp_bytes, &ip)?;
        let mut seg = Segment::new(flow, dir);
        seg.seq = SeqNum(tcp.seq);
        seg.ack = SeqNum(tcp.ack);
        seg.flags = tcp.flags;
        seg.wnd = u32::from(tcp.window);
        if !tcp.flags.syn {
            seg.wnd <<= WSCALE;
        }
        seg.len = (tcp_bytes.len() - payload_off) as u32;
        seg.ecn = ip.ecn;
        for opt in &tcp.options {
            match opt {
                TcpOption::TdCapable { num_tdns, .. } => seg.td_capable = Some(*num_tdns),
                TcpOption::TdDataAck { data_tdn, ack_tdn } => {
                    seg.data_tdn = *data_tdn;
                    seg.ack_tdn = *ack_tdn;
                }
                TcpOption::Sack(blocks) => {
                    for &(l, r) in blocks {
                        if !SeqNum(l).before(SeqNum(r)) {
                            return Err(ParseError::BadOption);
                        }
                        seg.sack.push(SeqNum(l), SeqNum(r));
                    }
                }
                TcpOption::MpDss { data_ack, map } => {
                    seg.data_ack = *data_ack;
                    seg.dss = map.map(|m| DssMap {
                        dsn: m.data_seq,
                        ssn: SeqNum(m.subflow_seq),
                        len: u32::from(m.len),
                    });
                }
                _ => {}
            }
        }
        Ok(seg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_space_accounting() {
        let mut s = Segment::new(FlowId(1), Direction::DataPath);
        s.seq = SeqNum(100);
        s.len = 50;
        assert_eq!(s.seq_space(), 50);
        s.flags.syn = true;
        assert_eq!(s.seq_space(), 51);
        s.flags.fin = true;
        assert_eq!(s.seq_space(), 52);
        let mut bare = Segment::new(FlowId(1), Direction::AckPath);
        bare.flags.ack = true;
        assert_eq!(bare.seq_space(), 0, "pure ACK consumes no sequence space");
    }

    #[test]
    fn sack_blocks_capacity() {
        let mut sb = SackBlocks::EMPTY;
        for i in 0..6u32 {
            sb.push(SeqNum(i * 100), SeqNum(i * 100 + 50));
        }
        assert_eq!(sb.len(), 4, "capped at four blocks");
        let v: Vec<_> = sb.iter().collect();
        assert_eq!(v[0], (SeqNum(0), SeqNum(50)));
        assert_eq!(v[3], (SeqNum(300), SeqNum(350)));
        sb.truncate(3);
        let mut three = SackBlocks::EMPTY;
        for i in 0..3u32 {
            three.push(SeqNum(i * 100), SeqNum(i * 100 + 50));
        }
        assert_eq!(sb, three, "truncate keeps the first blocks and nothing else");
    }

    #[test]
    fn wire_round_trip_data_segment() {
        let mut s = Segment::new(FlowId(7), Direction::DataPath);
        s.seq = SeqNum(12345);
        s.ack = SeqNum(999);
        s.len = 100;
        s.flags.ack = true;
        s.flags.psh = true;
        s.wnd = 1 << 16;
        s.data_tdn = Some(TdnId(1));
        s.ecn = Ecn::Ect0;
        let bytes = s.to_wire(0x0A000001, 0x0A000002, 40000, 5001);
        let back = Segment::from_wire(&bytes, FlowId(7), Direction::DataPath).unwrap();
        assert_eq!(back.seq, s.seq);
        assert_eq!(back.ack, s.ack);
        assert_eq!(back.len, s.len);
        assert_eq!(back.flags, s.flags);
        assert_eq!(back.wnd, s.wnd);
        assert_eq!(back.data_tdn, s.data_tdn);
        assert_eq!(back.ecn, s.ecn);
    }

    #[test]
    fn wire_round_trip_tdtcp_syn() {
        let mut s = Segment::new(FlowId(0), Direction::DataPath);
        s.flags.syn = true;
        s.td_capable = Some(2);
        s.wnd = 1 << 20;
        let bytes = s.to_wire(1, 2, 3, 4);
        let back = Segment::from_wire(&bytes, FlowId(0), Direction::DataPath).unwrap();
        assert_eq!(back.td_capable, Some(2));
        assert!(back.flags.syn);
    }

    #[test]
    fn syn_window_is_unscaled_and_announces_the_scale() {
        for (wnd, field) in [(1 << 20, 65_535), (4_000, 4_000)] {
            let mut s = Segment::new(FlowId(0), Direction::DataPath);
            s.flags.syn = true;
            s.wnd = wnd;
            let bytes = s.to_wire(1, 2, 3, 4);
            let (ip, _) = Ipv4Header::parse(&bytes).unwrap();
            let (tcp, _) = TcpHeader::parse(&bytes[IPV4_HEADER_LEN..], &ip).unwrap();
            assert_eq!(tcp.window, field);
            assert!(tcp.options.contains(&TcpOption::WindowScale(WSCALE)));
            let back = Segment::from_wire(&bytes, FlowId(0), Direction::DataPath).unwrap();
            assert_eq!(back.wnd, field.into(), "a SYN's window reads back unscaled");
        }
    }

    #[test]
    fn an_empty_sack_block_is_malformed() {
        let ip = Ipv4Header::new(1, 2, protocol::TCP);
        let tcp = TcpHeader {
            src_port: 3,
            dst_port: 4,
            seq: 0,
            ack: 0,
            flags: TcpFlags::default(),
            window: 0,
            options: vec![TcpOption::Sack(vec![(500, 500)])],
        };
        let mut bytes = Vec::new();
        ip.emit(&mut bytes, tcp.header_len());
        tcp.emit(&mut bytes, &ip, &[]);
        assert_eq!(
            Segment::from_wire(&bytes, FlowId(0), Direction::AckPath),
            Err(ParseError::BadOption)
        );
    }

    #[test]
    fn wire_round_trip_sack_ack() {
        let mut s = Segment::new(FlowId(0), Direction::AckPath);
        s.flags.ack = true;
        s.ack = SeqNum(5000);
        s.ack_tdn = Some(TdnId(0));
        s.sack.push(SeqNum(6000), SeqNum(7000));
        s.sack.push(SeqNum(8000), SeqNum(9000));
        let bytes = s.to_wire(1, 2, 3, 4);
        let back = Segment::from_wire(&bytes, FlowId(0), Direction::AckPath).unwrap();
        assert_eq!(back.sack.len(), 2);
        assert_eq!(
            back.sack.iter().collect::<Vec<_>>(),
            vec![(SeqNum(6000), SeqNum(7000)), (SeqNum(8000), SeqNum(9000))]
        );
        assert_eq!(back.ack_tdn, Some(TdnId(0)));
    }

    #[test]
    fn wire_round_trip_mptcp_dss() {
        let mut s = Segment::new(FlowId(3), Direction::DataPath);
        s.flags.ack = true;
        s.len = 1448;
        s.dss = Some(DssMap {
            dsn: 1 << 40,
            ssn: SeqNum(777),
            len: 1448,
        });
        let bytes = s.to_wire(1, 2, 3, 4);
        let back = Segment::from_wire(&bytes, FlowId(3), Direction::DataPath).unwrap();
        assert_eq!(back.dss, s.dss);
    }

    #[test]
    fn payload_csum_stamp_and_verify() {
        let mut s = Segment::new(FlowId(3), Direction::DataPath);
        s.seq = SeqNum(8948);
        s.len = 8948;
        assert!(!s.payload_is_corrupt(), "unstamped segments are accepted");
        s.stamp_payload();
        assert_ne!(s.payload_csum, 0, "stamp is always nonzero");
        assert!(!s.payload_is_corrupt());
        s.payload_csum ^= 0x00C0_FFEE;
        assert!(s.payload_is_corrupt(), "a mangled stamp is detected");

        // Pure ACKs never carry a stamp.
        let mut a = Segment::new(FlowId(3), Direction::AckPath);
        a.flags.ack = true;
        a.stamp_payload();
        assert_eq!(a.payload_csum, 0);
        assert!(!a.payload_is_corrupt());
    }

    #[test]
    fn payload_csum_depends_on_flow_seq_len() {
        let mut s = Segment::new(FlowId(1), Direction::DataPath);
        s.seq = SeqNum(100);
        s.len = 50;
        let base = s.expected_payload_csum();
        let mut other = s;
        other.flow = FlowId(2);
        assert_ne!(base, other.expected_payload_csum());
        other = s;
        other.seq = SeqNum(101);
        assert_ne!(base, other.expected_payload_csum());
        other = s;
        other.len = 51;
        assert_ne!(base, other.expected_payload_csum());
    }
}
