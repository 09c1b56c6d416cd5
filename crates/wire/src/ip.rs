//! Minimal IPv4 header (no IP options), with explicit ECN codepoint
//! handling because DCTCP's feedback loop runs over ECN marks.

use crate::checksum;
use crate::error::{ParseError, Result};

/// ECN codepoint in the low two bits of the (former) TOS byte (RFC 3168).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ecn {
    /// Not ECN-capable transport.
    #[default]
    NotEct,
    /// ECN-capable, codepoint ECT(1).
    Ect1,
    /// ECN-capable, codepoint ECT(0).
    Ect0,
    /// Congestion experienced — set by a switch over threshold.
    Ce,
}

impl Ecn {
    /// The two-bit wire encoding.
    pub fn to_bits(self) -> u8 {
        match self {
            Ecn::NotEct => 0b00,
            Ecn::Ect1 => 0b01,
            Ecn::Ect0 => 0b10,
            Ecn::Ce => 0b11,
        }
    }

    /// Decode from the two low bits.
    pub fn from_bits(bits: u8) -> Ecn {
        match bits & 0b11 {
            0b00 => Ecn::NotEct,
            0b01 => Ecn::Ect1,
            0b10 => Ecn::Ect0,
            _ => Ecn::Ce,
        }
    }

    /// Whether the packet advertises an ECN-capable transport.
    pub fn is_capable(self) -> bool {
        !matches!(self, Ecn::NotEct)
    }
}

/// IP protocol numbers we emit.
pub mod protocol {
    /// TCP.
    pub const TCP: u8 = 6;
}

/// An IPv4 header without options (IHL = 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// DSCP bits (upper six of the TOS byte).
    pub dscp: u8,
    /// ECN codepoint.
    pub ecn: Ecn,
    /// Identification field.
    pub ident: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub protocol: u8,
    /// Source address.
    pub src: u32,
    /// Destination address.
    pub dst: u32,
}

/// Fixed length of the headers we emit (no options).
pub const IPV4_HEADER_LEN: usize = 20;

impl Ipv4Header {
    /// A default header for protocol `proto` between `src` and `dst`.
    pub fn new(src: u32, dst: u32, proto: u8) -> Self {
        Ipv4Header {
            dscp: 0,
            ecn: Ecn::NotEct,
            ident: 0,
            ttl: 64,
            protocol: proto,
            src,
            dst,
        }
    }

    /// Encode with the given payload length; computes the header checksum.
    pub fn emit(&self, buf: &mut Vec<u8>, payload_len: usize) {
        let total = (IPV4_HEADER_LEN + payload_len) as u16;
        let mut hdr = [0u8; IPV4_HEADER_LEN];
        hdr[0] = 0x45; // version 4, IHL 5
        hdr[1] = (self.dscp << 2) | self.ecn.to_bits();
        hdr[2..4].copy_from_slice(&total.to_be_bytes());
        hdr[4..6].copy_from_slice(&self.ident.to_be_bytes());
        // flags/frag offset zero (don't-fragment semantics are irrelevant here)
        hdr[8] = self.ttl;
        hdr[9] = self.protocol;
        hdr[12..16].copy_from_slice(&self.src.to_be_bytes());
        hdr[16..20].copy_from_slice(&self.dst.to_be_bytes());
        let ck = checksum::internet_checksum(&hdr);
        hdr[10..12].copy_from_slice(&ck.to_be_bytes());
        buf.extend_from_slice(&hdr);
    }

    /// Parse a header; returns the header and the total-length field value.
    pub fn parse(data: &[u8]) -> Result<(Ipv4Header, u16)> {
        if data.len() < IPV4_HEADER_LEN {
            return Err(ParseError::Truncated);
        }
        if data[0] >> 4 != 4 {
            return Err(ParseError::BadVersion);
        }
        if (data[0] & 0x0F) != 5 {
            // We never emit IP options; reject rather than mis-parse.
            return Err(ParseError::BadLength);
        }
        if !checksum::verify(&data[..IPV4_HEADER_LEN]) {
            return Err(ParseError::BadChecksum);
        }
        let total = u16::from_be_bytes([data[2], data[3]]);
        if (total as usize) < IPV4_HEADER_LEN {
            return Err(ParseError::BadLength);
        }
        Ok((
            Ipv4Header {
                dscp: data[1] >> 2,
                ecn: Ecn::from_bits(data[1]),
                ident: u16::from_be_bytes([data[4], data[5]]),
                ttl: data[8],
                protocol: data[9],
                src: u32::from_be_bytes([data[12], data[13], data[14], data[15]]),
                dst: u32::from_be_bytes([data[16], data[17], data[18], data[19]]),
            },
            total,
        ))
    }

    /// TCP/UDP pseudo-header checksum contribution (RFC 793).
    pub fn pseudo_header_sum(&self, payload_len: usize) -> u32 {
        let mut sum = 0u32;
        for half in [
            (self.src >> 16) as u16,
            self.src as u16,
            (self.dst >> 16) as u16,
            self.dst as u16,
            self.protocol as u16,
            payload_len as u16,
        ] {
            sum = sum.wrapping_add(u32::from(half));
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let h = Ipv4Header {
            dscp: 0x2E,
            ecn: Ecn::Ect0,
            ident: 0x1234,
            ttl: 63,
            protocol: protocol::TCP,
            src: 0x0A00_0001,
            dst: 0x0A00_0102,
        };
        let mut buf = Vec::new();
        h.emit(&mut buf, 100);
        assert_eq!(buf.len(), IPV4_HEADER_LEN);
        let (parsed, total) = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(total, 120);
    }

    #[test]
    fn corrupted_checksum_rejected() {
        let h = Ipv4Header::new(1, 2, protocol::TCP);
        let mut buf = Vec::new();
        h.emit(&mut buf, 0);
        buf[8] ^= 0xFF; // mangle TTL
        assert_eq!(Ipv4Header::parse(&buf), Err(ParseError::BadChecksum));
    }

    #[test]
    fn bad_version_rejected() {
        let h = Ipv4Header::new(1, 2, protocol::TCP);
        let mut buf = Vec::new();
        h.emit(&mut buf, 0);
        buf[0] = 0x65; // version 6
        assert_eq!(Ipv4Header::parse(&buf), Err(ParseError::BadVersion));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(Ipv4Header::parse(&[0x45; 10]), Err(ParseError::Truncated));
    }

    #[test]
    fn ecn_bits_round_trip() {
        for e in [Ecn::NotEct, Ecn::Ect0, Ecn::Ect1, Ecn::Ce] {
            assert_eq!(Ecn::from_bits(e.to_bits()), e);
        }
        assert!(!Ecn::NotEct.is_capable());
        assert!(Ecn::Ect0.is_capable());
        assert!(Ecn::Ce.is_capable());
    }

    #[test]
    fn ce_mark_survives_reencoding() {
        // A switch marks CE by rewriting the ECN bits; emulate that and
        // confirm the mark parses back out.
        let mut h = Ipv4Header::new(1, 2, protocol::TCP);
        h.ecn = Ecn::Ect0;
        let mut buf = Vec::new();
        h.emit(&mut buf, 0);
        // Switch rewrites: set CE and recompute checksum.
        h.ecn = Ecn::Ce;
        let mut buf2 = Vec::new();
        h.emit(&mut buf2, 0);
        let (parsed, _) = Ipv4Header::parse(&buf2).unwrap();
        assert_eq!(parsed.ecn, Ecn::Ce);
    }
}
