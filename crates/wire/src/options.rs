//! TCP options, including the two TDTCP options of Fig. 5(b,c), and the
//! MPTCP options the `mptcp` baseline crate sends: MP_CAPABLE (RFC 8684
//! §3.1, version 1) on its handshake, and DSS (§3.3, without its
//! checksum) for its data ACK and mappings.
//!
//! TDTCP options use a single private option kind ([`TDTCP_KIND`]) with a
//! subtype nibble, mirroring how the kernel implementation piggybacks on
//! MPTCP's option layout:
//!
//! ```text
//! TD_CAPABLE   [kind=175][len=4][subtype=0 | version][num_tdns]
//! TD_DATA_ACK  [kind=175][len=5][subtype=1 | flags(D,A)][data_tdn][ack_tdn]
//! ```
//!
//! The `D` flag says the `data_tdn` byte is meaningful (segment carries
//! data sent on that TDN); `A` likewise for `ack_tdn` (§4.1).

use crate::error::{ParseError, Result};
use crate::tdn::TdnId;

/// Private TCP option kind used by TDTCP (unassigned by IANA; the data
/// center operator controls both ends, §3.3).
pub const TDTCP_KIND: u8 = 175;
/// IANA option kind for MPTCP.
pub const MPTCP_KIND: u8 = 30;

/// TDTCP subtype: capability negotiation on SYN/SYN-ACK.
pub const TD_SUBTYPE_CAPABLE: u8 = 0;
/// TDTCP subtype: per-segment TDN tagging.
pub const TD_SUBTYPE_DATA_ACK: u8 = 1;
/// MPTCP subtype: capability negotiation on the first subflow's handshake.
pub const MP_SUBTYPE_CAPABLE: u8 = 0;
/// MPTCP subtype: data sequence signal (DSS).
pub const MP_SUBTYPE_DSS: u8 = 2;

/// DSS flag bits (RFC 8684 §3.3): a data ACK is present (`A`) and is 8
/// octets (`a`); a mapping is present (`M`) and its data sequence number
/// is 8 octets (`m`).
const DSS_A: u8 = 0x01;
const DSS_A8: u8 = 0x02;
const DSS_M: u8 = 0x04;
const DSS_M8: u8 = 0x08;

/// A DSS mapping: `len` bytes of this subflow from `subflow_seq` on
/// carry connection-level bytes from `data_seq` on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DssMapping {
    /// Connection-level (data) sequence number of the first mapped byte.
    pub data_seq: u64,
    /// Subflow-level sequence number of the first mapped byte.
    pub subflow_seq: u32,
    /// Length of the mapped region in bytes.
    pub len: u16,
}

/// Maximum SACK blocks that fit alongside other options (RFC 2018).
pub const MAX_SACK_BLOCKS: usize = 4;

/// A single parsed TCP option.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpOption {
    /// No-op padding.
    Nop,
    /// Maximum segment size (SYN only).
    Mss(u16),
    /// Window scale shift (SYN only).
    WindowScale(u8),
    /// SACK permitted (SYN only).
    SackPermitted,
    /// Selective acknowledgment blocks, `(left_edge, right_edge)` pairs.
    Sack(Vec<(u32, u32)>),
    /// TDTCP capability negotiation (Fig. 5b).
    TdCapable {
        /// Protocol version (0 in this reproduction).
        version: u8,
        /// Number of TDNs the sender observes; both ends must agree (§4.2).
        num_tdns: u8,
    },
    /// TDTCP per-segment tagging (Fig. 5c).
    TdDataAck {
        /// TDN the data in this segment was sent on, if it carries data.
        data_tdn: Option<TdnId>,
        /// TDN the acknowledgment in this segment was sent on, if ACK set.
        ack_tdn: Option<TdnId>,
    },
    /// MPTCP MP_CAPABLE (RFC 8684 §3.1): version 1 carries no key on
    /// the SYN, the option sender's key on the SYN-ACK, and both keys on
    /// the third ACK. A receiver key without a sender key has no
    /// encoding.
    MpCapable {
        /// Protocol version (1 for RFC 8684).
        version: u8,
        /// The flag bits `A` to `H` (`H`: HMAC-SHA256, set in version 1).
        flags: u8,
        /// The key of the host sending this option.
        sender_key: Option<u64>,
        /// The key of the host receiving it (third ACK only).
        receiver_key: Option<u64>,
    },
    /// MPTCP DSS: a connection-level cumulative data ACK, a mapping of
    /// this subflow segment into the data sequence space, or both. Emitted
    /// with 8-octet fields; 4-octet ones parse too.
    MpDss {
        /// Connection-level cumulative data ACK.
        data_ack: Option<u64>,
        /// The payload's mapping.
        map: Option<DssMapping>,
    },
    /// Any option we do not interpret, preserved verbatim.
    Unknown {
        /// Option kind byte.
        kind: u8,
        /// Raw option body (excluding kind and length bytes).
        data: Vec<u8>,
    },
}

impl TcpOption {
    /// Encoded size in bytes, excluding inter-option padding.
    pub fn wire_len(&self) -> usize {
        match self {
            TcpOption::Nop => 1,
            TcpOption::Mss(_) => 4,
            TcpOption::WindowScale(_) => 3,
            TcpOption::SackPermitted => 2,
            TcpOption::Sack(blocks) => 2 + 8 * blocks.len(),
            TcpOption::TdCapable { .. } => 4,
            TcpOption::TdDataAck { .. } => 5,
            TcpOption::MpCapable {
                sender_key,
                receiver_key,
                ..
            } => 4 + 8 * (usize::from(sender_key.is_some()) + usize::from(receiver_key.is_some())),
            TcpOption::MpDss { data_ack, map } => {
                4 + data_ack.map_or(0, |_| 8) + map.map_or(0, |_| 14)
            }
            TcpOption::Unknown { data, .. } => 2 + data.len(),
        }
    }

    /// Append this option to `buf`.
    pub fn emit(&self, buf: &mut Vec<u8>) {
        match self {
            TcpOption::Nop => buf.push(1),
            TcpOption::Mss(mss) => {
                buf.extend_from_slice(&[2, 4]);
                buf.extend_from_slice(&mss.to_be_bytes());
            }
            TcpOption::WindowScale(shift) => buf.extend_from_slice(&[3, 3, *shift]),
            TcpOption::SackPermitted => buf.extend_from_slice(&[4, 2]),
            TcpOption::Sack(blocks) => {
                assert!(
                    blocks.len() <= MAX_SACK_BLOCKS,
                    "at most {MAX_SACK_BLOCKS} SACK blocks fit in the option space"
                );
                buf.extend_from_slice(&[5, (2 + 8 * blocks.len()) as u8]);
                for &(l, r) in blocks {
                    buf.extend_from_slice(&l.to_be_bytes());
                    buf.extend_from_slice(&r.to_be_bytes());
                }
            }
            TcpOption::TdCapable { version, num_tdns } => {
                assert!(*version < 16, "version is a nibble");
                buf.extend_from_slice(&[TDTCP_KIND, 4, (TD_SUBTYPE_CAPABLE << 4) | version, *num_tdns]);
            }
            TcpOption::TdDataAck { data_tdn, ack_tdn } => {
                let mut flags = 0u8;
                if data_tdn.is_some() {
                    flags |= 0x1; // D bit
                }
                if ack_tdn.is_some() {
                    flags |= 0x2; // A bit
                }
                buf.extend_from_slice(&[
                    TDTCP_KIND,
                    5,
                    (TD_SUBTYPE_DATA_ACK << 4) | flags,
                    data_tdn.map_or(0, |t| t.0),
                    ack_tdn.map_or(0, |t| t.0),
                ]);
            }
            TcpOption::MpCapable {
                version,
                flags,
                sender_key,
                receiver_key,
            } => {
                assert!(*version < 16, "version is a nibble");
                assert!(
                    sender_key.is_some() || receiver_key.is_none(),
                    "MP_CAPABLE has no encoding for a receiver key alone"
                );
                buf.extend_from_slice(&[
                    MPTCP_KIND,
                    self.wire_len() as u8,
                    (MP_SUBTYPE_CAPABLE << 4) | version,
                    *flags,
                ]);
                for key in [sender_key, receiver_key].into_iter().flatten() {
                    buf.extend_from_slice(&key.to_be_bytes());
                }
            }
            TcpOption::MpDss { data_ack, map } => {
                let mut flags = 0u8;
                if data_ack.is_some() {
                    flags |= DSS_A | DSS_A8;
                }
                if map.is_some() {
                    flags |= DSS_M | DSS_M8;
                }
                buf.extend_from_slice(&[MPTCP_KIND, self.wire_len() as u8, MP_SUBTYPE_DSS << 4, flags]);
                if let Some(ack) = data_ack {
                    buf.extend_from_slice(&ack.to_be_bytes());
                }
                if let Some(m) = map {
                    buf.extend_from_slice(&m.data_seq.to_be_bytes());
                    buf.extend_from_slice(&m.subflow_seq.to_be_bytes());
                    buf.extend_from_slice(&m.len.to_be_bytes());
                }
            }
            TcpOption::Unknown { kind, data } => {
                buf.extend_from_slice(&[*kind, (2 + data.len()) as u8]);
                buf.extend_from_slice(data);
            }
        }
    }

    /// Parse one option from the front of `data`.
    ///
    /// Returns the option and the number of bytes consumed, or `Ok(None)`
    /// when an end-of-option-list byte (kind 0) is hit.
    pub fn parse(data: &[u8]) -> Result<Option<(TcpOption, usize)>> {
        let Some(&kind) = data.first() else {
            return Err(ParseError::Truncated);
        };
        if kind == 0 {
            return Ok(None); // EOL
        }
        if kind == 1 {
            return Ok(Some((TcpOption::Nop, 1)));
        }
        let Some(&len) = data.get(1) else {
            return Err(ParseError::Truncated);
        };
        let len = len as usize;
        if len < 2 || len > data.len() {
            return Err(ParseError::BadOption);
        }
        let body = &data[2..len];
        let opt = match kind {
            2 => {
                if body.len() != 2 {
                    return Err(ParseError::BadOption);
                }
                TcpOption::Mss(u16::from_be_bytes([body[0], body[1]]))
            }
            3 => {
                if body.len() != 1 {
                    return Err(ParseError::BadOption);
                }
                TcpOption::WindowScale(body[0])
            }
            4 => {
                if !body.is_empty() {
                    return Err(ParseError::BadOption);
                }
                TcpOption::SackPermitted
            }
            5 => {
                if body.is_empty() || !body.len().is_multiple_of(8) || body.len() / 8 > MAX_SACK_BLOCKS {
                    return Err(ParseError::BadOption);
                }
                let blocks = body
                    .chunks_exact(8)
                    .map(|c| {
                        (
                            u32::from_be_bytes([c[0], c[1], c[2], c[3]]),
                            u32::from_be_bytes([c[4], c[5], c[6], c[7]]),
                        )
                    })
                    .collect();
                TcpOption::Sack(blocks)
            }
            TDTCP_KIND => {
                if body.is_empty() {
                    return Err(ParseError::BadOption);
                }
                let subtype = body[0] >> 4;
                match subtype {
                    TD_SUBTYPE_CAPABLE => {
                        if body.len() != 2 {
                            return Err(ParseError::BadOption);
                        }
                        TcpOption::TdCapable {
                            version: body[0] & 0x0F,
                            num_tdns: body[1],
                        }
                    }
                    TD_SUBTYPE_DATA_ACK => {
                        if body.len() != 3 {
                            return Err(ParseError::BadOption);
                        }
                        let flags = body[0] & 0x0F;
                        TcpOption::TdDataAck {
                            data_tdn: (flags & 0x1 != 0).then_some(TdnId(body[1])),
                            ack_tdn: (flags & 0x2 != 0).then_some(TdnId(body[2])),
                        }
                    }
                    _ => TcpOption::Unknown {
                        kind,
                        data: body.to_vec(),
                    },
                }
            }
            MPTCP_KIND => {
                if body.is_empty() {
                    return Err(ParseError::BadOption);
                }
                match body[0] >> 4 {
                    MP_SUBTYPE_CAPABLE => parse_capable(body)?,
                    MP_SUBTYPE_DSS => parse_dss(body)?,
                    _ => TcpOption::Unknown {
                        kind,
                        data: body.to_vec(),
                    },
                }
            }
            _ => TcpOption::Unknown {
                kind,
                data: body.to_vec(),
            },
        };
        Ok(Some((opt, len)))
    }

    /// Parse a full option block (the variable part of a TCP header).
    pub fn parse_all(mut data: &[u8]) -> Result<Vec<TcpOption>> {
        let mut out = Vec::new();
        while !data.is_empty() {
            match TcpOption::parse(data)? {
                None => break, // EOL: rest is padding
                Some((TcpOption::Nop, n)) => data = &data[n..],
                Some((opt, n)) => {
                    out.push(opt);
                    data = &data[n..];
                }
            }
        }
        Ok(out)
    }
}

/// An MP_CAPABLE option's body (after kind and length): the subtype and
/// version byte, the flags, then no key, one or two. The 22- and 24-byte
/// forms that carry a first data segment's data-level length are not
/// sent here, so they are malformed too.
fn parse_capable(body: &[u8]) -> Result<TcpOption> {
    let key = |at: usize| u64::from_be_bytes(body[at..at + 8].try_into().expect("eight bytes"));
    let keys = match body.len() {
        2 => 0,
        10 => 1,
        18 => 2,
        _ => return Err(ParseError::BadOption),
    };
    Ok(TcpOption::MpCapable {
        version: body[0] & 0x0F,
        flags: body[1],
        sender_key: (keys > 0).then(|| key(2)),
        receiver_key: (keys > 1).then(|| key(10)),
    })
}

/// A DSS option's body (after kind and length): the subtype byte, the
/// flags, then the fields the flags name, each 4 or 8 octets wide as
/// `a` and `m` say. A body of any other length is malformed.
fn parse_dss(body: &[u8]) -> Result<TcpOption> {
    let flags = *body.get(1).ok_or(ParseError::BadOption)?;
    let width = |present: u8, wide: u8| match (flags & present != 0, flags & wide != 0) {
        (false, _) => 0,
        (true, false) => 4,
        (true, true) => 8,
    };
    let (ack_len, dsn_len) = (width(DSS_A, DSS_A8), width(DSS_M, DSS_M8));
    let map_len = if dsn_len > 0 { dsn_len + 6 } else { 0 };
    if body.len() != 2 + ack_len + map_len {
        return Err(ParseError::BadOption);
    }
    let be = |b: &[u8]| b.iter().fold(0u64, |v, &x| (v << 8) | u64::from(x));
    let (ack, map) = body[2..].split_at(ack_len);
    Ok(TcpOption::MpDss {
        data_ack: (ack_len > 0).then(|| be(ack)),
        map: (map_len > 0).then(|| {
            let (dsn, rest) = map.split_at(dsn_len);
            DssMapping {
                data_seq: be(dsn),
                subflow_seq: be(&rest[..4]) as u32,
                len: be(&rest[4..]) as u16,
            }
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(opt: TcpOption) {
        let mut buf = Vec::new();
        opt.emit(&mut buf);
        assert_eq!(buf.len(), opt.wire_len(), "wire_len matches emit");
        let (parsed, consumed) = TcpOption::parse(&buf).unwrap().unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(parsed, opt);
    }

    #[test]
    fn round_trip_standard_options() {
        round_trip(TcpOption::Nop);
        round_trip(TcpOption::Mss(8948));
        round_trip(TcpOption::WindowScale(10));
        round_trip(TcpOption::SackPermitted);
        round_trip(TcpOption::Sack(vec![(1000, 2000), (3000, 4000)]));
    }

    #[test]
    fn round_trip_tdtcp_options() {
        round_trip(TcpOption::TdCapable {
            version: 0,
            num_tdns: 2,
        });
        round_trip(TcpOption::TdDataAck {
            data_tdn: Some(TdnId(1)),
            ack_tdn: Some(TdnId(0)),
        });
        round_trip(TcpOption::TdDataAck {
            data_tdn: None,
            ack_tdn: Some(TdnId(3)),
        });
        round_trip(TcpOption::TdDataAck {
            data_tdn: Some(TdnId(255)),
            ack_tdn: None,
        });
    }

    #[test]
    fn round_trip_mptcp_dss() {
        let map = Some(DssMapping {
            data_seq: 0x1122_3344_5566_7788,
            subflow_seq: 0x99AA_BBCC,
            len: 8948,
        });
        for data_ack in [None, Some(0x0102_0304_0506_0708)] {
            round_trip(TcpOption::MpDss { data_ack, map });
        }
        round_trip(TcpOption::MpDss {
            data_ack: Some(7),
            map: None,
        });
    }

    #[test]
    fn round_trip_mp_capable() {
        for (sender_key, receiver_key) in [(None, None), (Some(7), None), (Some(7), Some(9))] {
            round_trip(TcpOption::MpCapable {
                version: 1,
                flags: 0x01,
                sender_key,
                receiver_key,
            });
        }
    }

    #[test]
    fn mp_capable_on_wire_matches_rfc8684() {
        let mut buf = Vec::new();
        TcpOption::MpCapable {
            version: 1,
            flags: 0x01,
            sender_key: Some(0x0102_0304_0506_0708),
            receiver_key: None,
        }
        .emit(&mut buf);
        assert_eq!(buf, vec![MPTCP_KIND, 12, 0x01, 0x01, 1, 2, 3, 4, 5, 6, 7, 8]);
        // A first data segment's 22-byte form is not one this parser reads.
        let mut long = vec![MPTCP_KIND, 22, 0x01, 0x01];
        long.extend_from_slice(&[0; 18]);
        assert_eq!(TcpOption::parse(&long), Err(ParseError::BadOption));
    }

    #[test]
    fn dss_flag_bits_on_wire() {
        let mut buf = Vec::new();
        TcpOption::MpDss {
            data_ack: Some(9),
            map: None,
        }
        .emit(&mut buf);
        let head = [MPTCP_KIND, 12, MP_SUBTYPE_DSS << 4, DSS_A | DSS_A8];
        assert_eq!(buf, [&head[..], &9u64.to_be_bytes()].concat());
        // A 4-octet data ACK and a 4-octet data sequence number parse.
        let short: Vec<u8> = [MPTCP_KIND, 18, MP_SUBTYPE_DSS << 4, DSS_A | DSS_M]
            .into_iter()
            .chain(9u32.to_be_bytes())
            .chain(5u32.to_be_bytes())
            .chain(1u32.to_be_bytes())
            .chain(3u16.to_be_bytes())
            .collect();
        let (opt, used) = TcpOption::parse(&short).unwrap().unwrap();
        assert_eq!(used, 18);
        let map = Some(DssMapping {
            data_seq: 5,
            subflow_seq: 1,
            len: 3,
        });
        assert_eq!(opt, TcpOption::MpDss { data_ack: Some(9), map });
    }

    #[test]
    fn td_data_ack_flag_bits_on_wire() {
        let mut buf = Vec::new();
        TcpOption::TdDataAck {
            data_tdn: Some(TdnId(1)),
            ack_tdn: None,
        }
        .emit(&mut buf);
        assert_eq!(buf, vec![TDTCP_KIND, 5, (TD_SUBTYPE_DATA_ACK << 4) | 0x1, 1, 0]);
    }

    #[test]
    fn td_capable_on_wire_matches_fig5b() {
        let mut buf = Vec::new();
        TcpOption::TdCapable {
            version: 0,
            num_tdns: 2,
        }
        .emit(&mut buf);
        assert_eq!(buf, vec![TDTCP_KIND, 4, 0x00, 2]);
    }

    #[test]
    fn unknown_option_preserved() {
        round_trip(TcpOption::Unknown {
            kind: 99,
            data: vec![1, 2, 3],
        });
    }

    #[test]
    fn parse_all_with_padding() {
        let mut buf = Vec::new();
        TcpOption::Mss(1460).emit(&mut buf);
        TcpOption::Nop.emit(&mut buf);
        TcpOption::SackPermitted.emit(&mut buf);
        buf.push(0); // EOL
        buf.push(0xAB); // garbage after EOL must be ignored
        let opts = TcpOption::parse_all(&buf).unwrap();
        assert_eq!(opts, vec![TcpOption::Mss(1460), TcpOption::SackPermitted]);
    }

    #[test]
    fn malformed_options_rejected() {
        assert_eq!(TcpOption::parse(&[]), Err(ParseError::Truncated));
        assert_eq!(TcpOption::parse(&[2]), Err(ParseError::Truncated));
        // MSS with bad length.
        assert_eq!(TcpOption::parse(&[2, 3, 0]), Err(ParseError::BadOption));
        // Length overruns the buffer.
        assert_eq!(TcpOption::parse(&[5, 10, 0, 0]), Err(ParseError::BadOption));
        // Length below minimum.
        assert_eq!(TcpOption::parse(&[99, 1]), Err(ParseError::BadOption));
        // SACK body not a multiple of 8.
        assert_eq!(
            TcpOption::parse(&[5, 6, 0, 0, 0, 0]),
            Err(ParseError::BadOption)
        );
        // Too many SACK blocks.
        let mut b = vec![5u8, 2 + 8 * 5];
        b.extend_from_slice(&[0; 40]);
        assert_eq!(TcpOption::parse(&b), Err(ParseError::BadOption));
    }

    #[test]
    fn unknown_tdtcp_subtype_degrades_to_unknown() {
        let buf = [TDTCP_KIND, 4, 0xF0, 7];
        let (opt, _) = TcpOption::parse(&buf).unwrap().unwrap();
        assert!(matches!(opt, TcpOption::Unknown { kind: TDTCP_KIND, .. }));
    }
}
