//! TCP header encoding and parsing, with full option support and
//! pseudo-header checksumming.

use crate::checksum;
use crate::error::{ParseError, Result};
use crate::ip::Ipv4Header;
use crate::options::TcpOption;

/// TCP header flags (we omit URG; nothing in the reproduction uses it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// No more data from sender.
    pub fin: bool,
    /// Synchronize sequence numbers.
    pub syn: bool,
    /// Reset the connection.
    pub rst: bool,
    /// Push buffered data to the application.
    pub psh: bool,
    /// Acknowledgment field is significant.
    pub ack: bool,
    /// ECN echo — receiver saw a CE mark (RFC 3168).
    pub ece: bool,
    /// Congestion window reduced — sender reacted to ECE.
    pub cwr: bool,
}

impl TcpFlags {
    /// Pack into the low byte of the flags field.
    pub fn to_byte(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
            | (self.ece as u8) << 6
            | (self.cwr as u8) << 7
    }

    /// Unpack from the flags byte.
    pub fn from_byte(b: u8) -> TcpFlags {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
            ece: b & 0x40 != 0,
            cwr: b & 0x80 != 0,
        }
    }
}

/// Minimum TCP header length (no options).
pub const TCP_HEADER_MIN: usize = 20;
/// Maximum option space.
pub const TCP_MAX_OPTIONS: usize = 40;

/// A TCP header plus parsed options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Acknowledgment number (valid when `flags.ack`).
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Receive window (unscaled wire value).
    pub window: u16,
    /// Options.
    pub options: Vec<TcpOption>,
}

impl TcpHeader {
    /// Encoded header length: 20 bytes plus options padded to 4-byte words.
    pub fn header_len(&self) -> usize {
        let opt: usize = self.options.iter().map(TcpOption::wire_len).sum();
        assert!(opt <= TCP_MAX_OPTIONS, "options exceed 40 bytes");
        TCP_HEADER_MIN + opt.div_ceil(4) * 4
    }

    /// Encode the header and payload with a correct checksum computed over
    /// the pseudo-header from `ip`.
    pub fn emit(&self, buf: &mut Vec<u8>, ip: &Ipv4Header, payload: &[u8]) {
        let hlen = self.header_len();
        let mut hdr = vec![0u8; TCP_HEADER_MIN];
        hdr[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        hdr[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        hdr[4..8].copy_from_slice(&self.seq.to_be_bytes());
        hdr[8..12].copy_from_slice(&self.ack.to_be_bytes());
        hdr[12] = ((hlen / 4) as u8) << 4;
        hdr[13] = self.flags.to_byte();
        hdr[14..16].copy_from_slice(&self.window.to_be_bytes());
        for opt in &self.options {
            opt.emit(&mut hdr);
        }
        hdr.resize(hlen, 0); // EOL padding
        let sum = ip
            .pseudo_header_sum(hlen + payload.len())
            .wrapping_add(checksum::sum_words(&hdr))
            .wrapping_add(checksum::sum_words(payload));
        let ck = !checksum::fold(sum);
        hdr[16..18].copy_from_slice(&ck.to_be_bytes());
        buf.extend_from_slice(&hdr);
        buf.extend_from_slice(payload);
    }

    /// Parse a TCP segment out of `data`, verifying the checksum against
    /// the pseudo-header from `ip`. Returns the header and payload offset.
    pub fn parse(data: &[u8], ip: &Ipv4Header) -> Result<(TcpHeader, usize)> {
        if data.len() < TCP_HEADER_MIN {
            return Err(ParseError::Truncated);
        }
        let hlen = ((data[12] >> 4) as usize) * 4;
        if hlen < TCP_HEADER_MIN || hlen > data.len() {
            return Err(ParseError::BadLength);
        }
        let sum = ip
            .pseudo_header_sum(data.len())
            .wrapping_add(checksum::sum_words(data));
        if checksum::fold(sum) != 0xFFFF {
            return Err(ParseError::BadChecksum);
        }
        let options = TcpOption::parse_all(&data[TCP_HEADER_MIN..hlen])?;
        Ok((
            TcpHeader {
                src_port: u16::from_be_bytes([data[0], data[1]]),
                dst_port: u16::from_be_bytes([data[2], data[3]]),
                seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
                ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
                flags: TcpFlags::from_byte(data[13]),
                window: u16::from_be_bytes([data[14], data[15]]),
                options,
            },
            hlen,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::protocol;
    use crate::tdn::TdnId;

    const ACK: TcpFlags = TcpFlags {
        fin: false,
        syn: false,
        rst: false,
        psh: false,
        ack: true,
        ece: false,
        cwr: false,
    };

    fn ip() -> Ipv4Header {
        Ipv4Header::new(0x0A000001, 0x0A000002, protocol::TCP)
    }

    #[test]
    fn round_trip_plain_segment() {
        let h = TcpHeader {
            src_port: 40000,
            dst_port: 5001,
            seq: 0x11223344,
            ack: 0x55667788,
            flags: ACK,
            window: 0xFFFF,
            options: vec![],
        };
        let payload = b"hello, rdcn";
        let mut buf = Vec::new();
        h.emit(&mut buf, &ip(), payload);
        let (parsed, off) = TcpHeader::parse(&buf, &ip()).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(&buf[off..], payload);
    }

    #[test]
    fn round_trip_tdtcp_syn() {
        let h = TcpHeader {
            src_port: 1,
            dst_port: 2,
            seq: 1000,
            ack: 0,
            flags: TcpFlags {
                syn: true,
                ..Default::default()
            },
            window: 65535,
            options: vec![
                TcpOption::Mss(8948),
                TcpOption::SackPermitted,
                TcpOption::WindowScale(10),
                TcpOption::TdCapable {
                    version: 0,
                    num_tdns: 2,
                },
            ],
        };
        let mut buf = Vec::new();
        h.emit(&mut buf, &ip(), &[]);
        assert_eq!(buf.len() % 4, 0, "header padded to 32-bit words");
        let (parsed, _) = TcpHeader::parse(&buf, &ip()).unwrap();
        assert_eq!(parsed, h);
    }

    #[test]
    fn round_trip_data_segment_with_td_tag_and_sack() {
        let h = TcpHeader {
            src_port: 9,
            dst_port: 10,
            seq: 5000,
            ack: 777,
            flags: TcpFlags {
                ack: true,
                psh: true,
                ..Default::default()
            },
            window: 512,
            options: vec![
                TcpOption::TdDataAck {
                    data_tdn: Some(TdnId(1)),
                    ack_tdn: Some(TdnId(0)),
                },
                TcpOption::Sack(vec![(6000, 7000), (8000, 9000)]),
            ],
        };
        let mut buf = Vec::new();
        h.emit(&mut buf, &ip(), &[0xAA; 100]);
        let (parsed, off) = TcpHeader::parse(&buf, &ip()).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(buf.len() - off, 100);
    }

    #[test]
    fn checksum_covers_payload() {
        let h = TcpHeader {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: ACK,
            window: 100,
            options: vec![],
        };
        let mut buf = Vec::new();
        h.emit(&mut buf, &ip(), b"data!");
        *buf.last_mut().unwrap() ^= 0x01;
        assert_eq!(TcpHeader::parse(&buf, &ip()), Err(ParseError::BadChecksum));
    }

    #[test]
    fn checksum_covers_pseudo_header() {
        let h = TcpHeader {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: ACK,
            window: 100,
            options: vec![],
        };
        let mut buf = Vec::new();
        h.emit(&mut buf, &ip(), &[]);
        // Same bytes, different claimed source address: checksum must fail.
        let wrong_ip = Ipv4Header::new(0x0A0000FF, 0x0A000002, protocol::TCP);
        assert_eq!(
            TcpHeader::parse(&buf, &wrong_ip),
            Err(ParseError::BadChecksum)
        );
    }

    #[test]
    fn data_offset_below_minimum_rejected() {
        let h = TcpHeader {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: ACK,
            window: 100,
            options: vec![],
        };
        let mut buf = Vec::new();
        h.emit(&mut buf, &ip(), &[]);
        buf[12] = 0x40; // data offset 4 words = 16 bytes < 20
        assert_eq!(TcpHeader::parse(&buf, &ip()), Err(ParseError::BadLength));
    }

    #[test]
    fn flags_round_trip_all_combinations() {
        for b in 0u16..=0xFF {
            let b = b as u8 & !0x20; // skip URG which we do not model
            assert_eq!(TcpFlags::from_byte(b).to_byte(), b);
        }
    }
}
