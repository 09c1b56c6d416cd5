//! Receiver-side reassembly and SACK generation.
//!
//! The receiver keeps `rcv_nxt` plus a set of out-of-order intervals.
//! In-order data is "delivered" to the application immediately (bulk sinks
//! read as fast as data arrives), so the advertised window only shrinks by
//! the bytes parked in the out-of-order store.

use crate::segment::SackBlocks;
use crate::seq::SeqNum;

/// Outcome of receiving one data segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RxOutcome {
    /// Bytes newly delivered in order (advance of `rcv_nxt`).
    pub delivered: u32,
    /// Every byte of the segment was already received (pure duplicate —
    /// evidence of a spurious retransmission by the peer).
    pub duplicate: bool,
    /// The segment landed out of order (left a gap).
    pub out_of_order: bool,
}

/// Reassembly state for one connection direction.
#[derive(Debug)]
pub struct Reassembler {
    rcv_nxt: SeqNum,
    /// Disjoint, sorted (by `start`), non-adjacent out-of-order intervals
    /// strictly above `rcv_nxt`. Intervals are `[start, end)`.
    ooo: Vec<(SeqNum, SeqNum)>,
    /// Start of the most recently updated interval, listed first in SACK
    /// blocks per RFC 2018.
    most_recent: Option<SeqNum>,
    /// Receive buffer capacity in bytes.
    cap: u32,
}

impl Reassembler {
    /// New reassembler expecting `isn` next, with `cap` bytes of buffer.
    pub fn new(isn: SeqNum, cap: u32) -> Self {
        Reassembler {
            rcv_nxt: isn,
            ooo: Vec::new(),
            most_recent: None,
            cap,
        }
    }

    /// Next expected sequence number.
    pub fn rcv_nxt(&self) -> SeqNum {
        self.rcv_nxt
    }

    /// Advance `rcv_nxt` by `n` without data (SYN/FIN occupy one octet).
    pub fn advance(&mut self, n: u32) {
        self.rcv_nxt += n;
    }

    /// Bytes parked out of order.
    pub fn ooo_bytes(&self) -> u32 {
        self.ooo.iter().map(|&(s, e)| e - s).sum()
    }

    /// Currently advertisable receive window.
    pub fn window(&self) -> u32 {
        self.cap.saturating_sub(self.ooo_bytes())
    }

    /// Receive a data segment covering `[seq, seq+len)`.
    pub fn on_data(&mut self, seq: SeqNum, len: u32) -> RxOutcome {
        debug_assert!(len > 0, "on_data requires payload");
        let mut start = seq;
        let end = seq + len;
        let mut out = RxOutcome::default();

        // Clip anything already consumed.
        if start.before(self.rcv_nxt) {
            if end.before_eq(self.rcv_nxt) {
                // Entirely old: pure duplicate.
                out.duplicate = true;
                return out;
            }
            start = self.rcv_nxt;
        }

        if start == self.rcv_nxt {
            // In-order (possibly after clipping): deliver, then drain any
            // now-contiguous out-of-order intervals.
            let covered = self.remove_covered(start, end);
            self.rcv_nxt = end;
            out.delivered = end - start;
            self.drain_contiguous(&mut out);
            if covered == end - start && covered > 0 {
                out.duplicate = true;
            }
            return out;
        }

        // Out of order: insert/merge into the interval set.
        out.out_of_order = true;
        let before = self.ooo_bytes();
        self.insert_interval(start, end);
        if self.ooo_bytes() == before {
            out.duplicate = true; // contributed nothing new
        } else {
            self.most_recent = Some(self.containing_interval(start).expect("just inserted").0);
        }
        out
    }

    /// Remove out-of-order bytes covered by `[start, end)`, returning how
    /// many buffered bytes that range already contained.
    fn remove_covered(&mut self, start: SeqNum, end: SeqNum) -> u32 {
        let mut covered = 0;
        self.ooo.retain_mut(|iv| {
            if iv.1.before_eq(start) || iv.0.after_eq(end) {
                return true;
            }
            // Overlap; compute and trim. Intervals never extend below
            // rcv_nxt so in practice the overlap is a prefix.
            let lo = if iv.0.after_eq(start) { iv.0 } else { start };
            let hi = if iv.1.before_eq(end) { iv.1 } else { end };
            covered += hi - lo;
            if iv.0.after_eq(start) && iv.1.before_eq(end) {
                false // fully covered: drop
            } else if iv.0.after_eq(start) {
                iv.0 = end;
                true
            } else {
                iv.1 = start;
                true
            }
        });
        covered
    }

    /// After `rcv_nxt` advanced, deliver any intervals that became
    /// contiguous with it.
    fn drain_contiguous(&mut self, out: &mut RxOutcome) {
        while let Some(pos) = self.ooo.iter().position(|&(s, _)| s == self.rcv_nxt) {
            let (_, e) = self.ooo.remove(pos);
            out.delivered += e - self.rcv_nxt;
            self.rcv_nxt = e;
        }
        if self.ooo.is_empty() {
            self.most_recent = None;
        }
    }

    fn containing_interval(&self, seq: SeqNum) -> Option<(SeqNum, SeqNum)> {
        self.ooo
            .iter()
            .copied()
            .find(|&(s, e)| seq.after_eq(s) && seq.before(e))
    }

    fn insert_interval(&mut self, start: SeqNum, end: SeqNum) {
        let mut new = (start, end);
        // Merge all overlapping or adjacent intervals into `new`.
        self.ooo.retain(|&(s, e)| {
            let disjoint = e.before(new.0) || s.after(new.1);
            if !disjoint {
                if s.before(new.0) {
                    new.0 = s;
                }
                if e.after(new.1) {
                    new.1 = e;
                }
            }
            disjoint
        });
        let pos = self
            .ooo
            .iter()
            .position(|&(s, _)| s.after(new.0))
            .unwrap_or(self.ooo.len());
        self.ooo.insert(pos, new);
    }

    /// Generate SACK blocks: the interval containing the most recent
    /// arrival first (RFC 2018 §4), then the rest in sequence order, up to
    /// four blocks.
    pub fn sack_blocks(&self) -> SackBlocks {
        let mut blocks = SackBlocks::EMPTY;
        let first = self
            .most_recent
            .and_then(|s| self.containing_interval(s))
            .or_else(|| self.ooo.first().copied());
        if let Some((s, e)) = first {
            blocks.push(s, e);
            for &(is, ie) in &self.ooo {
                if (is, ie) != (s, e) {
                    blocks.push(is, ie);
                }
            }
        }
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r() -> Reassembler {
        Reassembler::new(SeqNum(1000), 1 << 20)
    }

    #[test]
    fn in_order_delivery() {
        let mut rx = r();
        let o = rx.on_data(SeqNum(1000), 100);
        assert_eq!(o.delivered, 100);
        assert!(!o.out_of_order && !o.duplicate);
        assert_eq!(rx.rcv_nxt(), SeqNum(1100));
        assert_eq!(rx.ooo_bytes(), 0);
    }

    #[test]
    fn out_of_order_then_fill() {
        let mut rx = r();
        let o1 = rx.on_data(SeqNum(1100), 100);
        assert!(o1.out_of_order);
        assert_eq!(o1.delivered, 0);
        assert_eq!(rx.ooo_bytes(), 100);
        let o2 = rx.on_data(SeqNum(1000), 100);
        assert_eq!(o2.delivered, 200, "hole fill drains the buffered interval");
        assert_eq!(rx.rcv_nxt(), SeqNum(1200));
        assert_eq!(rx.ooo_bytes(), 0);
        assert_eq!(rx.window(), 1 << 20);
    }

    #[test]
    fn duplicate_detection() {
        let mut rx = r();
        rx.on_data(SeqNum(1000), 100);
        let o = rx.on_data(SeqNum(1000), 100);
        assert!(o.duplicate);
        assert_eq!(o.delivered, 0);
        // Duplicate of an out-of-order segment.
        rx.on_data(SeqNum(1200), 100);
        let o2 = rx.on_data(SeqNum(1200), 100);
        assert!(o2.duplicate && o2.out_of_order);
    }

    #[test]
    fn overlapping_segments_merge() {
        let mut rx = r();
        rx.on_data(SeqNum(1100), 100);
        rx.on_data(SeqNum(1150), 100); // overlaps previous interval
        assert_eq!(rx.ooo_bytes(), 150);
        let blocks = rx.sack_blocks();
        assert_eq!(
            blocks.iter().next().unwrap(),
            (SeqNum(1100), SeqNum(1250))
        );
    }

    #[test]
    fn multiple_gaps_sack_ordering() {
        let mut rx = r();
        rx.on_data(SeqNum(1200), 100); // gap A
        rx.on_data(SeqNum(1400), 100); // gap B (most recent)
        let blocks: Vec<_> = rx.sack_blocks().iter().collect();
        assert_eq!(blocks[0], (SeqNum(1400), SeqNum(1500)), "most recent first");
        assert_eq!(blocks[1], (SeqNum(1200), SeqNum(1300)));
        // A third arrival updates recency.
        rx.on_data(SeqNum(1200), 50); // duplicate bytes, no recency change
        let blocks2: Vec<_> = rx.sack_blocks().iter().collect();
        assert_eq!(blocks2[0], (SeqNum(1400), SeqNum(1500)));
    }

    #[test]
    fn adjacent_intervals_coalesce() {
        let mut rx = r();
        rx.on_data(SeqNum(1100), 100);
        rx.on_data(SeqNum(1200), 100); // touches the previous one
        assert_eq!(rx.sack_blocks().len(), 1);
        assert_eq!(
            rx.sack_blocks().iter().next().unwrap(),
            (SeqNum(1100), SeqNum(1300))
        );
    }

    #[test]
    fn partial_old_segment_delivers_new_part() {
        let mut rx = r();
        rx.on_data(SeqNum(1000), 100);
        // Retransmission covering [950,1150): only [1100,1150) is new.
        let o = rx.on_data(SeqNum(1050), 100);
        assert_eq!(o.delivered, 50);
        assert_eq!(rx.rcv_nxt(), SeqNum(1150));
    }

    #[test]
    fn window_shrinks_with_ooo_bytes() {
        let mut rx = Reassembler::new(SeqNum(0), 1000);
        rx.on_data(SeqNum(500), 300);
        assert_eq!(rx.window(), 700);
        rx.on_data(SeqNum(0), 500);
        assert_eq!(rx.window(), 1000);
    }

    #[test]
    fn in_order_segment_bridging_gap() {
        let mut rx = r();
        rx.on_data(SeqNum(1100), 100); // gap [1000,1100)
        rx.on_data(SeqNum(1300), 100); // gap [1200,1300)
        // One big segment covers both holes and the buffered interval.
        let o = rx.on_data(SeqNum(1000), 300);
        assert_eq!(o.delivered, 400);
        assert_eq!(rx.rcv_nxt(), SeqNum(1400));
        assert_eq!(rx.ooo_bytes(), 0);
    }

    #[test]
    fn advance_for_syn() {
        let mut rx = Reassembler::new(SeqNum(41), 1000);
        rx.advance(1); // SYN consumed
        assert_eq!(rx.rcv_nxt(), SeqNum(42));
    }

    #[test]
    fn cross_tdn_reordering_scenario_a() {
        // Fig. 3(a): segments 4-6 (sent later, low-latency TDN) arrive
        // before 1-3 (high-latency TDN). The receiver SACKs 4-6, then the
        // late arrivals fill in and everything delivers.
        let mut rx = Reassembler::new(SeqNum(0), 1 << 20);
        for i in 3..6u32 {
            let o = rx.on_data(SeqNum(i * 100), 100);
            assert!(o.out_of_order);
        }
        assert_eq!(rx.sack_blocks().len(), 1);
        assert_eq!(
            rx.sack_blocks().iter().next().unwrap(),
            (SeqNum(300), SeqNum(600))
        );
        let mut delivered = 0;
        for i in 0..3u32 {
            delivered += rx.on_data(SeqNum(i * 100), 100).delivered;
        }
        assert_eq!(delivered, 600);
        assert_eq!(rx.ooo_bytes(), 0);
    }
}
