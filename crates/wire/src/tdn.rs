//! The TDN identifier.
//!
//! A time-division network (TDN) is one discrete network condition the RDCN
//! moves between (§2.1). The paper allocates a single byte for the ID in
//! every packet format (§4.1), bounding an RDCN at 256 distinct paths.

use core::fmt;

/// Identifier of a time-division network, `0..=255`.
///
/// By convention in the paper's evaluation, TDN 0 is the electrical packet
/// network and TDN 1 the optical circuit network; the SYN of every
/// connection is accounted to TDN 0 (Appendix A.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TdnId(pub u8);

impl TdnId {
    /// The packet-network TDN (and the TDN that owns every SYN).
    pub const ZERO: TdnId = TdnId(0);

    /// Maximum number of distinct TDNs an RDCN may advertise (one byte on
    /// the wire).
    pub const MAX_TDNS: usize = 256;

    /// The raw byte value.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TdnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TDN{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_index() {
        assert!(TdnId(0) < TdnId(1));
        assert_eq!(TdnId(7).index(), 7);
        assert_eq!(TdnId::ZERO, TdnId::default());
        assert_eq!(format!("{}", TdnId(3)), "TDN3");
    }
}
