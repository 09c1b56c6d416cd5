//! The simulation-level segment.
//!
//! The simulator passes this structured form instead of encoded bytes so a
//! multi-second run does not spend its time in codecs; [`Segment::to_wire`]
//! and [`Segment::from_wire`] convert to and from the byte-exact formats in
//! the `wire` crate. The root wire law (`tests/laws.rs`) round-trips every
//! segment a run sends and receives through them, so the struct is
//! equivalent to real packets on every field the wire carries.

use crate::seq::SeqNum;
use std::fmt;
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

/// Up to four SACK blocks, fixed-size to keep [`Segment`] allocation-free:
/// what a receiver builds before [`Segment::set_sack`] stores it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SackBlocks {
    blocks: [(SeqNum, SeqNum); 4],
    len: u8,
}

impl SackBlocks {
    /// No blocks.
    pub const EMPTY: SackBlocks = SackBlocks {
        blocks: [NO_BLOCK; 4],
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

/// An unused SACK slot.
const NO_BLOCK: (SeqNum, SeqNum) = (SeqNum(0), SeqNum(0));

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

/// The one MPTCP option a segment carries, if any. A DSS mapping and a
/// DATA_ACK keep their 64-bit value in the fourth SACK slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mp {
    None,
    /// MP_CAPABLE on the first subflow's handshake.
    Capable,
    /// A DSS mapping of the payload: the value is its DSN.
    Dss,
    /// A DSS data ACK: the value is the connection-level cumulative ACK.
    DataAck,
}

/// The MPTCP keys of the model's one handshake shape (RFC 8684 §3.1):
/// the initiator's and the listener's. The model has no crypto (no
/// HMAC, no token, no MP_JOIN), so every connection opens with these two
/// constants; they exist so the handshake's bytes are the RFC's.
const MP_KEY_INITIATOR: u64 = 0x7464_7463_7030_0001;
const MP_KEY_LISTENER: u64 = 0x7464_7463_7030_0002;
/// MP_CAPABLE version 1 with only flag `H` (HMAC-SHA256) set: no DSS
/// checksum, as the DSS this model sends carries none.
const MP_VERSION: u8 = 1;
const MP_FLAGS: u8 = 0x01;

/// A TCP segment in flight in the simulator.
///
/// `len` is the payload length; payload bytes themselves are not carried
/// (bulk flows synthesize them on demand), which keeps the event queue
/// allocation-free per packet.
///
/// Options share one 32-byte area, as they share TCP's 40 bytes of
/// option space: up to four SACK blocks, or up to three beside one
/// MPTCP option, whose 64-bit value (a DSS mapping's DSN or a DATA_ACK)
/// takes the fourth block's slot. A DSS mapping's subflow sequence and
/// length are the segment's own `seq` and `len`. Storage a segment does
/// not use is zero, so the derived `PartialEq` compares what it carries.
#[derive(Clone, Copy, PartialEq, Eq)]
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
    /// TDTCP: TDN on which the data in this segment was sent.
    pub data_tdn: Option<TdnId>,
    /// TDTCP: TDN on which this (ACK) segment was sent.
    pub ack_tdn: Option<TdnId>,
    /// TDTCP: `TD_CAPABLE` number of TDNs (SYN/SYN-ACK only).
    pub td_capable: Option<u8>,
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
    /// SACK blocks `0..sacks`; slot 3 holds `mp`'s value, high word
    /// first, when it has one.
    slots: [(SeqNum, SeqNum); 4],
    sacks: u8,
    mp: Mp,
}

/// Fixed per-segment header overhead assumed for serialization timing:
/// 20 B IPv4 + 20 B TCP + up to 20 B of options, one constant for every
/// variant. SACK blocks beside TDTCP's tag or MPTCP's DSS make the real
/// header longer (up to 80 B): of the segments the hosts received in 16
/// bulk flows × 20 ms on the paper baseline, TDTCP's 2 980 of 11 088 and
/// MPTCP's 1 983 of 8 974 had a header above 60 B. Whether serialization
/// should charge the real length is left to ROADMAP item 12c.
pub const HEADER_OVERHEAD: u32 = 60;

/// What of a segment the wire carries, under its two rules: a window
/// travels in whole KiB (window scale 10), and a SYN's window is
/// unscaled and capped at 65 535 (RFC 7323 §2.2). Flow, direction,
/// routing pin, circuit mark and payload stamp are simulation context
/// the wire does not carry. A segment and its `from_wire(to_wire(..))`
/// have one view.
#[derive(Debug, PartialEq, Eq)]
pub struct WireView {
    /// Sequence number.
    pub seq: SeqNum,
    /// Acknowledgment number.
    pub ack: SeqNum,
    /// Payload length.
    pub len: u32,
    /// TCP flags.
    pub flags: TcpFlags,
    /// The window field as sent.
    pub wnd: u32,
    /// SACK blocks.
    pub sack: Vec<(SeqNum, SeqNum)>,
    /// TDTCP data tag.
    pub data_tdn: Option<TdnId>,
    /// TDTCP ACK tag.
    pub ack_tdn: Option<TdnId>,
    /// TDTCP capability.
    pub td_capable: Option<u8>,
    /// MPTCP capability.
    pub mp_capable: bool,
    /// MPTCP mapping.
    pub dss: Option<DssMap>,
    /// MPTCP data ACK.
    pub data_ack: Option<u64>,
    /// IP ECN codepoint.
    pub ecn: Ecn,
}

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
            data_tdn: None,
            ack_tdn: None,
            td_capable: None,
            ecn: Ecn::NotEct,
            circuit_mark: false,
            pin: None,
            payload_csum: 0,
            slots: [NO_BLOCK; 4],
            sacks: 0,
            mp: Mp::None,
        }
    }

    /// The SACK blocks in the order the receiver wrote them (RFC 2018
    /// §4: the most recent first).
    pub fn sack(&self) -> &[(SeqNum, SeqNum)] {
        &self.slots[..usize::from(self.sacks)]
    }

    /// Carry `blocks`: only the first three beside a DSS mapping or a
    /// DATA_ACK.
    pub fn set_sack(&mut self, blocks: SackBlocks) {
        let room = self.sack_room();
        let n = blocks.len().min(room);
        self.slots[..room].copy_from_slice(&blocks.blocks[..room]);
        self.slots[n..room].fill(NO_BLOCK);
        self.sacks = n as u8;
    }

    /// SACK slots free of an MPTCP value.
    fn sack_room(&self) -> usize {
        match self.mp {
            Mp::Dss | Mp::DataAck => 3,
            Mp::None | Mp::Capable => 4,
        }
    }

    /// Carry MPTCP option `mp` with `value`, trimming the SACK blocks to
    /// the three that fit beside it in 40 B of option space (the DSS
    /// takes 12 B, the SACK option's header 2 B).
    fn set_mp(&mut self, mp: Mp, value: u64) {
        if self.sack_room() == 3 {
            self.slots[3] = NO_BLOCK;
        }
        self.mp = mp;
        if self.sack_room() == 3 {
            self.sacks = self.sacks.min(3);
            self.slots[3] = (SeqNum((value >> 32) as u32), SeqNum(value as u32));
        }
    }

    /// The 64-bit value of a DSS mapping or DATA_ACK.
    fn mp_value(&self) -> u64 {
        let (hi, lo) = self.slots[3];
        u64::from(hi.0) << 32 | u64::from(lo.0)
    }

    /// MPTCP: whether the segment carries MP_CAPABLE.
    pub fn mp_capable(&self) -> bool {
        self.mp == Mp::Capable
    }

    /// MPTCP: carry MP_CAPABLE. Its keys follow from the flags: none on
    /// a SYN, the listener's on a SYN-ACK, both on the third ACK.
    pub fn set_mp_capable(&mut self) {
        self.set_mp(Mp::Capable, 0);
    }

    /// MPTCP: the data-sequence mapping of the payload, if carried.
    pub fn dss(&self) -> Option<DssMap> {
        (self.mp == Mp::Dss).then(|| DssMap {
            dsn: self.mp_value(),
            ssn: self.seq,
            len: self.len,
        })
    }

    /// MPTCP: map the payload to data sequence `dsn` onwards.
    pub fn set_dss(&mut self, dsn: u64) {
        self.set_mp(Mp::Dss, dsn);
    }

    /// MPTCP: the connection-level cumulative data ACK, if carried.
    pub fn data_ack(&self) -> Option<u64> {
        (self.mp == Mp::DataAck).then(|| self.mp_value())
    }

    /// MPTCP: carry the connection-level cumulative data ACK `ack`.
    pub fn set_data_ack(&mut self, ack: u64) {
        self.set_mp(Mp::DataAck, ack);
    }

    /// What of this segment the wire carries. The destructuring names
    /// every field, so a new one does not compile until it is either
    /// put in the view or named as simulation context.
    pub fn wire_view(&self) -> WireView {
        let Segment {
            flow: _,
            dir: _,
            seq,
            ack,
            len,
            flags,
            wnd,
            data_tdn,
            ack_tdn,
            td_capable,
            ecn,
            circuit_mark: _,
            pin: _,
            payload_csum: _,
            slots: _,
            sacks: _,
            mp: _,
        } = *self;
        WireView {
            seq,
            ack,
            len,
            flags,
            wnd: if flags.syn { wnd.min(u32::from(u16::MAX)) } else { wnd >> WSCALE },
            sack: self.sack().to_vec(),
            data_tdn,
            ack_tdn,
            td_capable,
            mp_capable: self.mp_capable(),
            dss: self.dss(),
            data_ack: self.data_ack(),
            ecn,
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
        match self.mp {
            Mp::None => {}
            Mp::Capable => {
                let (sender_key, receiver_key) = mp_keys(self.flags);
                options.push(TcpOption::MpCapable {
                    version: MP_VERSION,
                    flags: MP_FLAGS,
                    sender_key,
                    receiver_key,
                });
            }
            Mp::Dss | Mp::DataAck => options.push(TcpOption::MpDss {
                data_ack: self.data_ack(),
                map: self.dss().map(|dss| DssMapping {
                    data_seq: dss.dsn,
                    subflow_seq: dss.ssn.0,
                    len: u16::try_from(dss.len).expect("a DSS mapping fits its 16-bit length"),
                }),
            }),
        }
        if !self.sack().is_empty() {
            options.push(TcpOption::Sack(self.sack().iter().map(|(l, r)| (l.0, r.0)).collect()));
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
    /// the buffer is [`ParseError::Truncated`]. An option this struct
    /// cannot hold is [`ParseError::BadOption`]: an empty SACK block, a
    /// second MPTCP option, a DSS that both maps and ACKs, a mapping
    /// whose subflow sequence or length is not the segment's own, an
    /// MPTCP value beside four SACK blocks, or MP_CAPABLE keys other
    /// than the model's for the segment's place in the handshake.
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
        let mut sack = SackBlocks::EMPTY;
        for opt in &tcp.options {
            match *opt {
                TcpOption::TdCapable { num_tdns, .. } => seg.td_capable = Some(num_tdns),
                TcpOption::TdDataAck { data_tdn, ack_tdn } => {
                    seg.data_tdn = data_tdn;
                    seg.ack_tdn = ack_tdn;
                }
                TcpOption::Sack(ref blocks) => {
                    for &(l, r) in blocks {
                        if !SeqNum(l).before(SeqNum(r)) {
                            return Err(ParseError::BadOption);
                        }
                        sack.push(SeqNum(l), SeqNum(r));
                    }
                }
                TcpOption::MpCapable {
                    version,
                    flags,
                    sender_key,
                    receiver_key,
                } if seg.mp == Mp::None
                    && (version, flags) == (MP_VERSION, MP_FLAGS)
                    && (sender_key, receiver_key) == mp_keys(seg.flags) =>
                {
                    seg.set_mp_capable();
                }
                TcpOption::MpDss {
                    data_ack: Some(ack),
                    map: None,
                } if seg.mp == Mp::None => seg.set_data_ack(ack),
                TcpOption::MpDss {
                    data_ack: None,
                    map: Some(m),
                } if seg.mp == Mp::None
                    && m.subflow_seq == tcp.seq
                    && u32::from(m.len) == seg.len =>
                {
                    seg.set_dss(m.data_seq)
                }
                TcpOption::MpCapable { .. } | TcpOption::MpDss { .. } => {
                    return Err(ParseError::BadOption)
                }
                _ => {}
            }
        }
        if sack.len() > seg.sack_room() {
            return Err(ParseError::BadOption);
        }
        seg.set_sack(sack);
        Ok(seg)
    }
}

/// The MP_CAPABLE keys `(sender, receiver)` a segment with `flags`
/// carries (RFC 8684 §3.1, version 1): none on the SYN, the listener's
/// own on its SYN-ACK, the initiator's and then the listener's on the
/// third ACK.
fn mp_keys(flags: TcpFlags) -> (Option<u64>, Option<u64>) {
    match (flags.syn, flags.ack) {
        (true, false) => (None, None),
        (true, true) => (Some(MP_KEY_LISTENER), None),
        (false, _) => (Some(MP_KEY_INITIATOR), Some(MP_KEY_LISTENER)),
    }
}

impl fmt::Debug for Segment {
    /// The fields, with the option area read as options.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Segment")
            .field("flow", &self.flow)
            .field("dir", &self.dir)
            .field("seq", &self.seq)
            .field("ack", &self.ack)
            .field("len", &self.len)
            .field("flags", &self.flags)
            .field("wnd", &self.wnd)
            .field("sack", &self.sack())
            .field("data_tdn", &self.data_tdn)
            .field("ack_tdn", &self.ack_tdn)
            .field("td_capable", &self.td_capable)
            .field("mp_capable", &self.mp_capable())
            .field("dss", &self.dss())
            .field("data_ack", &self.data_ack())
            .field("ecn", &self.ecn)
            .field("circuit_mark", &self.circuit_mark)
            .field("pin", &self.pin)
            .field("payload_csum", &self.payload_csum)
            .finish()
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

    fn blocks(n: u32) -> SackBlocks {
        let mut sb = SackBlocks::EMPTY;
        for i in 0..n {
            sb.push(SeqNum(i * 100), SeqNum(i * 100 + 50));
        }
        sb
    }

    #[test]
    fn sack_blocks_capacity() {
        let sb = blocks(6);
        assert_eq!(sb.len(), 4, "capped at four blocks");
        let v: Vec<_> = sb.iter().collect();
        assert_eq!(v[0], (SeqNum(0), SeqNum(50)));
        assert_eq!(v[3], (SeqNum(300), SeqNum(350)));
    }

    #[test]
    fn a_segment_fits_in_76_bytes_and_options_share_their_slots() {
        assert_eq!(std::mem::size_of::<Segment>(), 76);
        let mut s = Segment::new(FlowId(1), Direction::AckPath);
        s.set_sack(blocks(4));
        assert_eq!(s.sack().len(), 4);
        s.set_data_ack(u64::MAX - 5);
        assert_eq!(s.data_ack(), Some(u64::MAX - 5), "the value takes the fourth slot");
        assert_eq!(s.sack(), &blocks(3).blocks[..3], "the most recent three stay");
        s.set_sack(blocks(4));
        assert_eq!((s.sack().len(), s.data_ack()), (3, Some(u64::MAX - 5)));
        let mut three = Segment::new(FlowId(1), Direction::AckPath);
        three.set_sack(blocks(3));
        three.set_data_ack(u64::MAX - 5);
        assert_eq!(s, three, "storage a segment does not use is zero");
        s.set_mp_capable();
        three = Segment::new(FlowId(1), Direction::AckPath);
        three.set_sack(blocks(3));
        three.set_mp_capable();
        assert_eq!(s, three, "MP_CAPABLE holds no value");
        assert_eq!((s.dss(), s.data_ack(), s.mp_capable()), (None, None, true));
    }

    #[test]
    fn a_dss_mapping_is_the_segments_own_range() {
        let mut s = Segment::new(FlowId(3), Direction::DataPath);
        s.seq = SeqNum(777);
        s.len = 1448;
        s.set_dss(1 << 40);
        assert_eq!(s.dss(), Some(DssMap { dsn: 1 << 40, ssn: SeqNum(777), len: 1448 }));
        assert_eq!(s.data_ack(), None);
        let round = s.to_wire(1, 2, 3, 4);
        assert_eq!(Segment::from_wire(&round, FlowId(3), Direction::DataPath), Ok(s));
        for (subflow_seq, len) in [(778, 1448), (777, 1447)] {
            let ip = Ipv4Header::new(1, 2, protocol::TCP);
            let map = DssMapping { data_seq: 1 << 40, subflow_seq, len };
            let tcp = TcpHeader {
                src_port: 3,
                dst_port: 4,
                seq: 777,
                ack: 0,
                flags: TcpFlags::default(),
                window: 0,
                options: vec![TcpOption::MpDss { data_ack: None, map: Some(map) }],
            };
            let payload = [0; 1448];
            let mut bytes = Vec::new();
            ip.emit(&mut bytes, tcp.header_len() + payload.len());
            tcp.emit(&mut bytes, &ip, &payload);
            assert_eq!(
                Segment::from_wire(&bytes, FlowId(3), Direction::DataPath),
                Err(ParseError::BadOption),
                "a mapping of {len} B at {subflow_seq} on a segment of 1448 B at 777"
            );
        }
    }

    #[test]
    fn mp_capable_carries_the_keys_of_its_handshake_step() {
        let mut s = Segment::new(FlowId(3), Direction::DataPath);
        s.set_mp_capable();
        for (syn, ack, keys) in [(true, false, 0), (true, true, 1), (false, true, 2)] {
            (s.flags.syn, s.flags.ack) = (syn, ack);
            let bytes = s.to_wire(1, 2, 3, 4);
            let (ip, _) = Ipv4Header::parse(&bytes).unwrap();
            let (tcp, _) = TcpHeader::parse(&bytes[IPV4_HEADER_LEN..], &ip).unwrap();
            let opt = tcp.options.iter().find(|o| matches!(o, TcpOption::MpCapable { .. }));
            assert_eq!(opt.map(TcpOption::wire_len), Some(4 + 8 * keys));
            let back = Segment::from_wire(&bytes, FlowId(3), Direction::DataPath).unwrap();
            assert_eq!(back.wire_view(), s.wire_view());
        }
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
        let mut sack = SackBlocks::EMPTY;
        sack.push(SeqNum(6000), SeqNum(7000));
        sack.push(SeqNum(8000), SeqNum(9000));
        s.set_sack(sack);
        let bytes = s.to_wire(1, 2, 3, 4);
        let back = Segment::from_wire(&bytes, FlowId(0), Direction::AckPath).unwrap();
        assert_eq!(
            back.sack(),
            [(SeqNum(6000), SeqNum(7000)), (SeqNum(8000), SeqNum(9000))]
        );
        assert_eq!(back.ack_tdn, Some(TdnId(0)));
    }

    #[test]
    fn wire_round_trip_mptcp_dss() {
        let mut s = Segment::new(FlowId(3), Direction::DataPath);
        s.flags.ack = true;
        s.seq = SeqNum(777);
        s.len = 1448;
        s.set_dss(1 << 40);
        let bytes = s.to_wire(1, 2, 3, 4);
        let back = Segment::from_wire(&bytes, FlowId(3), Direction::DataPath).unwrap();
        assert_eq!(back.dss(), s.dss());
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
