//! The ICMP TDN-change notification (Fig. 5a).
//!
//! ToR switches proactively notify attached hosts when the RDCN
//! reconfigures (§3.2). The notification is a dedicated ICMP packet whose
//! payload's first byte carries the now-active TDN ID. We use an
//! experimental ICMP type so the packet can never be confused with
//! echo/unreachable traffic.

use crate::checksum;
use crate::error::{ParseError, Result};
use crate::tdn::TdnId;

/// Experimental ICMP type used for TDN-change notifications (RFC 4727
/// reserves 253/254 for experimentation).
pub const ICMP_TYPE_TDN_CHANGE: u8 = 253;

/// Fixed wire length: 4-byte ICMP header + 4-byte payload
/// (TDN ID + 3 reserved bytes keeping 4-byte alignment).
pub const TDN_NOTIFY_LEN: usize = 8;

/// A parsed TDN-change notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TdnNotification {
    /// The TDN that is active from now on.
    pub active_tdn: TdnId,
}

impl TdnNotification {
    /// Encode, computing the ICMP checksum.
    pub fn emit(&self, buf: &mut Vec<u8>) {
        let mut pkt = [0u8; TDN_NOTIFY_LEN];
        pkt[0] = ICMP_TYPE_TDN_CHANGE;
        pkt[1] = 0; // code
        pkt[4] = self.active_tdn.0;
        // pkt[5..8] reserved, zero
        let ck = checksum::internet_checksum(&pkt);
        pkt[2..4].copy_from_slice(&ck.to_be_bytes());
        buf.extend_from_slice(&pkt);
    }

    /// Parse and verify a notification.
    pub fn parse(data: &[u8]) -> Result<TdnNotification> {
        if data.len() < TDN_NOTIFY_LEN {
            return Err(ParseError::Truncated);
        }
        let data = &data[..TDN_NOTIFY_LEN];
        if data[0] != ICMP_TYPE_TDN_CHANGE {
            return Err(ParseError::BadValue);
        }
        if data[1] != 0 {
            return Err(ParseError::BadValue);
        }
        if !checksum::verify(data) {
            return Err(ParseError::BadChecksum);
        }
        Ok(TdnNotification {
            active_tdn: TdnId(data[4]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_ids() {
        for id in [0u8, 1, 2, 127, 255] {
            let n = TdnNotification {
                active_tdn: TdnId(id),
            };
            let mut buf = Vec::new();
            n.emit(&mut buf);
            assert_eq!(buf.len(), TDN_NOTIFY_LEN);
            assert_eq!(TdnNotification::parse(&buf).unwrap(), n);
        }
    }

    #[test]
    fn wrong_type_rejected() {
        let n = TdnNotification {
            active_tdn: TdnId(1),
        };
        let mut buf = Vec::new();
        n.emit(&mut buf);
        buf[0] = 8; // echo request
        assert_eq!(TdnNotification::parse(&buf), Err(ParseError::BadValue));
    }

    #[test]
    fn corruption_rejected() {
        let n = TdnNotification {
            active_tdn: TdnId(1),
        };
        let mut buf = Vec::new();
        n.emit(&mut buf);
        buf[4] = 2; // flip the TDN ID without fixing the checksum
        assert_eq!(TdnNotification::parse(&buf), Err(ParseError::BadChecksum));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            TdnNotification::parse(&[ICMP_TYPE_TDN_CHANGE, 0, 0]),
            Err(ParseError::Truncated)
        );
    }

    #[test]
    fn trailing_bytes_tolerated() {
        // A notification padded out to minimum frame size still parses.
        let n = TdnNotification {
            active_tdn: TdnId(5),
        };
        let mut buf = Vec::new();
        n.emit(&mut buf);
        buf.extend_from_slice(&[0xEE; 26]);
        assert_eq!(TdnNotification::parse(&buf).unwrap(), n);
    }
}
