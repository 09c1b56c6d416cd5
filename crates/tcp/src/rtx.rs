//! The retransmission queue: per-segment transmit metadata and the SACK
//! scoreboard (RFC 2018 / RFC 6675 pipe accounting).
//!
//! Every transmitted-but-unacknowledged segment carries the TDN it was
//! (last) sent on, which is what lets TDTCP implement the "specific TDN"
//! accounting of §4.3 (an incoming cumulative ACK may acknowledge data
//! sent over several TDNs; the queue is scanned to credit each one) and
//! the relaxed reordering heuristics of §3.4.
//!
//! Beside the segments the queue keeps three bitsets, one bit per queued
//! segment each: *unsacked*, *unmarked* (neither SACKed nor lost) and
//! *retransmission in flight*, the first two stored complemented so a
//! freshly sent segment's bits are all clear. "Wants retransmit" is
//! unsacked, not unmarked and not in flight. Every scoreboard walk — SACK
//! marking, loss marking, the stale-retransmission refresh, the scoped
//! mutators' searches and the hole test's
//! [`first_unsacked`](RtxQueue::first_unsacked) — steps from set bit to
//! set bit, so it visits only the segments its flag test could pass, in
//! queue order, and asks its predicate about exactly the segments a
//! front-to-back scan would. Under incast, where most of a queue is
//! SACKed and loss recovery runs on every ACK, that is the difference
//! between the unsettled segments and all of them. The bits change where
//! flags do — [`RtxQueue::push`] and the scoped mutation helper — and a
//! cumulative ACK's drain only moves the queue's start past its bits.

use crate::seq::SeqNum;
use simcore::SimTime;
use std::collections::VecDeque;
use wire::TdnId;

/// Metadata for one transmitted, unacknowledged segment.
#[derive(Debug, Clone, Copy)]
pub struct TxSeg {
    /// First sequence number.
    pub seq: SeqNum,
    /// Sequence space consumed (payload + SYN/FIN).
    pub len: u32,
    /// Segment carries SYN.
    pub is_syn: bool,
    /// Segment carries FIN.
    pub is_fin: bool,
    /// TDN of the most recent transmission of this segment.
    pub tdn: TdnId,
    /// Time of the most recent transmission.
    pub tx_time: SimTime,
    /// Time of the first transmission.
    pub first_tx: SimTime,
    /// Selectively acknowledged.
    pub sacked: bool,
    /// Declared lost by loss detection.
    pub lost: bool,
    /// A retransmission of this segment is currently in flight.
    pub retx_in_flight: bool,
    /// Total times retransmitted.
    pub retx_count: u32,
}

impl TxSeg {
    /// Exclusive end of the segment's sequence range.
    pub fn end(&self) -> SeqNum {
        self.seq + self.len
    }

    /// Karn's rule: never sample RTT from a segment that was ever
    /// retransmitted.
    pub fn ever_retransmitted(&self) -> bool {
        self.retx_count > 0
    }

    /// Whether this segment needs (re)transmission right now.
    pub fn wants_retransmit(&self) -> bool {
        self.lost && !self.retx_in_flight && !self.sacked
    }
}

/// Counters in packets, Linux-style (`tcp_sock` fields of §3.1's "pipe"
/// class).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipeCounts {
    /// Segments outstanding (`packets_out`).
    pub packets_out: u32,
    /// Segments SACKed (`sacked_out`).
    pub sacked_out: u32,
    /// Segments marked lost (`lost_out`).
    pub lost_out: u32,
    /// Retransmissions in flight (`retrans_out`).
    pub retrans_out: u32,
}

impl PipeCounts {
    /// RFC 6675 pipe: an estimate of segments currently in the network.
    pub fn pipe(&self) -> u32 {
        (self.packets_out + self.retrans_out).saturating_sub(self.sacked_out + self.lost_out)
    }
}

/// Result of processing a cumulative ACK.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CumAckResult {
    /// Fully acknowledged segments removed from the queue.
    pub acked_segs: u32,
    /// Bytes of sequence space newly acknowledged.
    pub acked_space: u32,
}

/// Result of applying an ACK's SACK blocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct SackResult {
    /// Segments that were not sacked before and are now.
    pub newly_sacked: u32,
    /// The last of them, in block order (a copy, flags as marked).
    pub last: Option<TxSeg>,
}

/// Planes of [`RtxQueue`]'s flag words. The unsacked and unmarked
/// planes are stored complemented, as SACKed and as marked (SACKed or
/// lost), so that a freshly sent segment's bits are all clear.
const SACKED: usize = 0;
const MARKED: usize = 1;
const IN_FLIGHT: usize = 2;

/// `seg`'s three stored bits, in plane order.
fn flag_bits(seg: &TxSeg) -> [bool; 3] {
    [seg.sacked, seg.sacked || seg.lost, seg.retx_in_flight]
}

/// A forward walk over set bits of [`RtxQueue`]'s flag words. It holds
/// the unvisited bits of its current word, so the caller may mutate the
/// segment it was just given (which rewrites only that segment's bits)
/// and go on.
struct Walk<F> {
    pick: F,
    w: usize,
    bits: u64,
}

impl<F: Fn(&[u64; 3]) -> u64> Walk<F> {
    /// Index of the next segment in `q` whose picked bit is set. A
    /// complemented plane reads set past the back, so the walk ends at
    /// the first index that is not queued.
    fn next(&mut self, q: &RtxQueue) -> Option<usize> {
        while self.bits == 0 {
            self.w += 1;
            self.bits = (self.pick)(q.flags.get(self.w)?);
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        let i = self.w * 64 + b - q.off;
        (i < q.segs.len()).then_some(i)
    }
}

/// A lazily maintained scoreboard aggregate: `Dirty` after a mutation
/// that may have invalidated it; recomputed on the next read.
#[derive(Debug, Clone, Copy, Default)]
enum Cache<T> {
    #[default]
    Dirty,
    Clean(Option<T>),
}

/// The retransmission queue proper: contiguous segments covering
/// `[snd_una, snd_nxt)` in order.
///
/// Hot per-connection state is packed struct-of-arrays style: every
/// scoreboard aggregate the send path reads per ACK — total and per-TDN
/// [`PipeCounts`], retransmission demand, queued FINs, the highest
/// SACKed edge and the newest SACKed transmit time — is maintained
/// incrementally on each flag transition, so the per-ACK reads that used
/// to scan the whole queue ([`counts`](RtxQueue::counts),
/// [`counts_for_tdn`](RtxQueue::counts_for_tdn),
/// [`has_retransmit`](RtxQueue::has_retransmit), …) are O(1). Segment
/// flags therefore only change through queue methods; the scoped
/// mutators ([`with_next_retransmit`](RtxQueue::with_next_retransmit),
/// [`with_last_unsacked`](RtxQueue::with_last_unsacked)) re-account the
/// mutated segment when the closure returns.
#[derive(Debug, Default)]
pub struct RtxQueue {
    segs: VecDeque<TxSeg>,
    /// The flag bitsets (module docs), 64 segments per element: bit
    /// `p % 64` of `flags[p / 64][plane]` belongs to `segs[p - off]`.
    /// Words run to the back's; bits past the back are clear. Bits
    /// before `off` are stale, and every walk starts at or after it.
    flags: Vec<[u64; 3]>,
    /// Bit position of `segs[0]` in `flags`.
    off: usize,
    /// Incremental [`RtxQueue::counts`] over all segments.
    total: PipeCounts,
    /// Incremental per-TDN counts, indexed by [`TdnId::index`]; grown on
    /// first use of a TDN. Sums to `total` at all times.
    by_tdn: Vec<PipeCounts>,
    /// Segments with [`TxSeg::wants_retransmit`] set.
    retx_wanted: u32,
    /// Segments carrying FIN.
    fins: u32,
    /// Cached [`RtxQueue::highest_sacked`].
    hi_sacked: Cache<SeqNum>,
    /// Cached [`RtxQueue::newest_sacked_tx_time`].
    newest_sacked: Cache<SimTime>,
}

impl RtxQueue {
    /// Empty queue.
    pub fn new() -> Self {
        RtxQueue {
            hi_sacked: Cache::Clean(None),
            newest_sacked: Cache::Clean(None),
            ..RtxQueue::default()
        }
    }

    /// Fold `seg` into every incremental aggregate.
    fn account_add(&mut self, seg: &TxSeg) {
        let idx = seg.tdn.index();
        if idx >= self.by_tdn.len() {
            self.by_tdn.resize(idx + 1, PipeCounts::default());
        }
        for c in [&mut self.total, &mut self.by_tdn[idx]] {
            c.packets_out += 1;
            if seg.sacked {
                c.sacked_out += 1;
            }
            if seg.lost {
                c.lost_out += 1;
            }
            if seg.retx_in_flight {
                c.retrans_out += 1;
            }
        }
        if seg.wants_retransmit() {
            self.retx_wanted += 1;
        }
        if seg.is_fin {
            self.fins += 1;
        }
        if seg.sacked {
            // Newly visible sacked segment: extend the clean caches (a
            // dirty cache stays dirty and recomputes on read).
            if let Cache::Clean(hi) = &mut self.hi_sacked {
                *hi = Some(hi.map_or(seg.end(), |h: SeqNum| {
                    if h.before(seg.end()) {
                        seg.end()
                    } else {
                        h
                    }
                }));
            }
            if let Cache::Clean(t) = &mut self.newest_sacked {
                *t = Some(t.map_or(seg.tx_time, |t: SimTime| t.max(seg.tx_time)));
            }
        }
    }

    /// Remove `seg` from every incremental aggregate.
    fn account_remove(&mut self, seg: &TxSeg) {
        let idx = seg.tdn.index();
        for c in [&mut self.total, &mut self.by_tdn[idx]] {
            c.packets_out -= 1;
            if seg.sacked {
                c.sacked_out -= 1;
            }
            if seg.lost {
                c.lost_out -= 1;
            }
            if seg.retx_in_flight {
                c.retrans_out -= 1;
            }
        }
        if seg.wants_retransmit() {
            self.retx_wanted -= 1;
        }
        if seg.is_fin {
            self.fins -= 1;
        }
        if seg.sacked {
            // A sacked segment leaving the aggregate may have been the
            // maximum; recompute lazily on the next read.
            self.hi_sacked = Cache::Dirty;
            self.newest_sacked = Cache::Dirty;
        }
    }

    /// Run `f` on `segs[i]`, re-accounting whatever it changed. The
    /// closure must not alter the segment's sequence range.
    fn mutate_at<R>(&mut self, i: usize, f: impl FnOnce(&mut TxSeg) -> R) -> R {
        let seg = &mut self.segs[i];
        let before = *seg;
        let r = f(seg);
        let after = *seg;
        debug_assert_eq!(before.seq, after.seq, "scoped mutators must not renumber");
        self.account_remove(&before);
        self.account_add(&after);
        self.write_flags(i, &after);
        r
    }

    /// Set `segs[i]`'s bits in the flag words from `seg`'s flags.
    fn write_flags(&mut self, i: usize, seg: &TxSeg) {
        let p = self.off + i;
        let shift = p % 64;
        let [s, m, f] = flag_bits(seg);
        let word = &mut self.flags[p / 64];
        word[SACKED] = (word[SACKED] & !(1 << shift)) | (u64::from(s) << shift);
        word[MARKED] = (word[MARKED] & !(1 << shift)) | (u64::from(m) << shift);
        word[IN_FLIGHT] = (word[IN_FLIGHT] & !(1 << shift)) | (u64::from(f) << shift);
    }

    /// A walk over the segments from index `i` on whose flag bits,
    /// combined by `pick`, are set.
    fn walk<F: Fn(&[u64; 3]) -> u64>(&self, i: usize, pick: F) -> Walk<F> {
        let p = self.off + i;
        let bits = self
            .flags
            .get(p / 64)
            .map_or(0, |w| pick(w) & (!0 << (p % 64)));
        Walk {
            pick,
            w: p / 64,
            bits,
        }
    }

    /// The first unsacked segment: the lowest hole, if any.
    pub fn first_unsacked(&self) -> Option<&TxSeg> {
        let i = self.walk(0, |w| !w[SACKED]).next(self)?;
        Some(&self.segs[i])
    }

    /// Number of outstanding segments.
    pub fn len(&self) -> usize {
        self.segs.len()
    }

    /// Whether nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Append a newly transmitted segment. Its `seq` must equal the current
    /// right edge (contiguity invariant).
    pub fn push(&mut self, seg: TxSeg) {
        if let Some(last) = self.segs.back() {
            debug_assert_eq!(
                last.end(),
                seg.seq,
                "rtx queue must stay contiguous: last ends {} but pushed {}",
                last.end(),
                seg.seq
            );
        }
        if (self.off + self.segs.len()).is_multiple_of(64) {
            // The new segment starts a word: first drop the words that
            // hold drained segments only.
            self.flags.drain(..self.off / 64);
            self.off %= 64;
            self.flags.push([0; 3]);
        }
        // A new position's bits are clear, which is what a freshly sent
        // segment needs.
        if flag_bits(&seg) != [false; 3] {
            self.write_flags(self.segs.len(), &seg);
        }
        self.segs.push_back(seg);
        self.account_add(&seg);
    }

    /// Process a cumulative ACK at `ack`: remove fully covered segments,
    /// showing each to `visit`, newest first (the order RTT sampling
    /// wants). Nothing is collected, so an ACK costs no heap call.
    /// A mid-segment ACK trims the front segment (only possible if a peer
    /// ACKs at sub-segment granularity, which ours never does, but the
    /// queue stays correct regardless).
    pub fn cum_ack_with(&mut self, ack: SeqNum, mut visit: impl FnMut(&TxSeg)) -> CumAckResult {
        let covered = self
            .segs
            .iter()
            .take_while(|s| s.end().before_eq(ack))
            .count();
        let mut out = CumAckResult {
            acked_segs: covered as u32,
            acked_space: 0,
        };
        for i in (0..covered).rev() {
            let seg = self.segs[i];
            self.account_remove(&seg);
            out.acked_space += seg.len;
            visit(&seg);
        }
        self.segs.drain(..covered);
        // The drained segments' bits go stale; `push` drops their words.
        self.off += covered;
        if let Some(front) = self.segs.front_mut() {
            if front.seq.before(ack) {
                // Partial: trim the acknowledged prefix (flags and
                // therefore the aggregates are unchanged).
                let trimmed = ack - front.seq;
                front.seq = ack;
                front.len -= trimmed;
                front.is_syn = false; // SYN is the first octet; it is covered
                out.acked_space += trimmed;
            }
        }
        out
    }

    /// [`RtxQueue::cum_ack_with`] for a caller that only wants the totals.
    pub fn cum_ack(&mut self, ack: SeqNum) -> CumAckResult {
        self.cum_ack_with(ack, |_| {})
    }

    /// Apply SACK blocks; reports how many segments they newly covered
    /// and the last one marked.
    pub fn mark_sacked(&mut self, blocks: impl Iterator<Item = (SeqNum, SeqNum)>) -> SackResult {
        let mut out = SackResult::default();
        for (left, right) in blocks {
            // The queue is seq-sorted and contiguous: binary-search the
            // first segment at or after `left`, then walk only the
            // covered range instead of scanning the whole queue per
            // block.
            let (mut lo, mut hi) = (0usize, self.segs.len());
            while lo < hi {
                let mid = (lo + hi) / 2;
                if self.segs[mid].seq.before(left) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            // Only unsacked segments can change, so step over the rest.
            let mut walk = self.walk(lo, |w| !w[SACKED]);
            while let Some(i) = walk.next(self) {
                if !self.segs[i].end().before_eq(right) {
                    break;
                }
                let copy = self.mutate_at(i, |s| {
                    s.sacked = true;
                    // A sacked segment is definitionally not lost.
                    s.lost = false;
                    s.retx_in_flight = false;
                    *s
                });
                out.newly_sacked += 1;
                out.last = Some(copy);
            }
        }
        out
    }

    /// Highest SACKed sequence (exclusive end), if any segment is sacked.
    pub fn highest_sacked(&mut self) -> Option<SeqNum> {
        if let Cache::Clean(v) = self.hi_sacked {
            return v;
        }
        let v = self.segs.iter().rev().find(|s| s.sacked).map(|s| s.end());
        self.hi_sacked = Cache::Clean(v);
        v
    }

    /// Most recent transmit time among sacked segments (RACK's reference
    /// point: anything sent sufficiently earlier and still unsacked is
    /// presumed lost).
    pub fn newest_sacked_tx_time(&mut self) -> Option<SimTime> {
        if let Cache::Clean(v) = self.newest_sacked {
            return v;
        }
        let v = self.segs.iter().filter(|s| s.sacked).map(|s| s.tx_time).max();
        self.newest_sacked = Cache::Clean(v);
        v
    }

    /// Count of sacked segments strictly above `seq`.
    pub fn sacked_above(&self, seq: SeqNum) -> u32 {
        // The queue covers [snd_una, snd_nxt) contiguously, so asking
        // from the front edge covers every segment: O(1).
        if self.segs.front().is_none_or(|f| f.seq == seq) {
            return self.total.sacked_out;
        }
        self.segs
            .iter()
            .filter(|s| s.sacked && s.seq.after_eq(seq))
            .count() as u32
    }

    /// Mark as lost every unsacked, not-already-lost segment below
    /// `below` that satisfies `pred`; returns how many were marked.
    /// `pred` is only asked about segments that are otherwise eligible,
    /// so each one it accepts is marked — a caller that needs to know
    /// *which* were marked records that in `pred`. This is the hook
    /// TDTCP's relaxed detection uses: its predicate rejects hole
    /// segments whose TDN differs from the triggering ACK's TDN (§3.4).
    pub fn mark_lost_below<F>(&mut self, below: SeqNum, mut pred: F) -> u32
    where
        F: FnMut(&TxSeg) -> bool,
    {
        let mut marked = 0;
        // Sacked and lost are mutually exclusive, so when every segment
        // carries one of the marks there is nothing left to mark.
        if self.total.packets_out == self.total.sacked_out + self.total.lost_out {
            return marked;
        }
        let mut walk = self.walk(0, |w| !w[MARKED]);
        while let Some(i) = walk.next(self) {
            let seg = &self.segs[i];
            if seg.seq.after_eq(below) {
                break;
            }
            if pred(seg) {
                self.mutate_at(i, |s| {
                    s.lost = true;
                    s.retx_in_flight = false;
                });
                marked += 1;
            }
        }
        marked
    }

    /// RACK-style refresh of stale retransmissions: a retransmission
    /// transmitted at or before `cutoff` that is still unacknowledged was
    /// itself lost; clear its in-flight flag (and ensure it is marked
    /// lost) so it is retransmitted again. Without this, a dropped
    /// retransmission plugs the hole until an RTO. Returns the number of
    /// segments refreshed.
    pub fn refresh_stale_retx<F>(&mut self, cutoff: SimTime, mut pred: F) -> u32
    where
        F: FnMut(&TxSeg) -> bool,
    {
        let mut n = 0;
        if self.total.retrans_out == 0 {
            return 0;
        }
        let mut walk = self.walk(0, |w| w[IN_FLIGHT]);
        while let Some(i) = walk.next(self) {
            let seg = &self.segs[i];
            if !seg.sacked && seg.tx_time <= cutoff && pred(seg) {
                self.mutate_at(i, |s| {
                    s.retx_in_flight = false;
                    s.lost = true;
                });
                n += 1;
            }
        }
        n
    }

    /// SACK-reneging recovery (the `tcp_check_sack_reneging` analogue):
    /// forget every SACK mark so the segments become eligible for
    /// retransmission again. Data is *never* freed on SACK alone — only
    /// [`RtxQueue::cum_ack`] removes segments — so reneged ranges are
    /// still here to re-mark and resend. Returns the number of segments
    /// whose marks were cleared.
    pub fn clear_sack_marks(&mut self) -> u32 {
        let mut n = 0;
        for i in 0..self.segs.len() {
            if self.segs[i].sacked {
                self.mutate_at(i, |s| {
                    s.sacked = false;
                    s.retx_in_flight = false;
                });
                n += 1;
            }
        }
        n
    }

    /// Mark every unsacked segment lost (RTO recovery).
    pub fn mark_all_lost(&mut self) -> u32 {
        let mut n = 0;
        for i in 0..self.segs.len() {
            if !self.segs[i].sacked {
                self.mutate_at(i, |s| {
                    s.lost = true;
                    s.retx_in_flight = false;
                });
                n += 1;
            }
        }
        n
    }

    /// Whether any segment currently wants retransmission. O(1).
    pub fn has_retransmit(&self) -> bool {
        self.retx_wanted > 0
    }

    /// Whether a FIN is queued. O(1).
    pub fn has_fin(&self) -> bool {
        self.fins > 0
    }

    /// Whether every outstanding segment is SACKed. O(1).
    pub fn all_sacked(&self) -> bool {
        self.total.packets_out == self.total.sacked_out
    }

    /// The last (highest) outstanding segment.
    pub fn back(&self) -> Option<&TxSeg> {
        self.segs.back()
    }

    /// Run `f` on the next segment wanting retransmission (lowest
    /// sequence first), re-accounting its flags afterwards. Returns
    /// `None` (without calling `f`) when nothing wants retransmission.
    pub fn with_next_retransmit<R>(&mut self, f: impl FnOnce(&mut TxSeg) -> R) -> Option<R> {
        if self.retx_wanted == 0 {
            return None;
        }
        // Unsacked and lost, with no retransmission in flight.
        let i = self
            .walk(0, |w| w[MARKED] & !w[SACKED] & !w[IN_FLIGHT])
            .next(self)?;
        Some(self.mutate_at(i, f))
    }

    /// Run `f` on the highest unsacked segment (the TLP probe target),
    /// re-accounting its flags afterwards.
    pub fn with_last_unsacked<R>(&mut self, f: impl FnOnce(&mut TxSeg) -> R) -> Option<R> {
        if self.all_sacked() {
            return None;
        }
        // Walk down from the back: some queued segment is unsacked, so
        // the first unsacked bit met is queued, not stale.
        let back = self.off + self.segs.len() - 1;
        let mut w = back / 64;
        let mut bits = !self.flags[w][SACKED] & (!0 >> (63 - back % 64));
        while bits == 0 {
            w -= 1;
            bits = !self.flags[w][SACKED];
        }
        let i = w * 64 + 63 - bits.leading_zeros() as usize - self.off;
        Some(self.mutate_at(i, f))
    }

    /// The first (oldest) outstanding segment.
    pub fn front(&self) -> Option<&TxSeg> {
        self.segs.front()
    }

    /// Iterate over outstanding segments in sequence order.
    pub fn iter(&self) -> impl Iterator<Item = &TxSeg> {
        self.segs.iter()
    }

    /// Pipe counters over all segments. O(1).
    pub fn counts(&self) -> PipeCounts {
        self.total
    }

    /// Pipe counters for one TDN. O(1).
    pub fn counts_for_tdn(&self, tdn: TdnId) -> PipeCounts {
        self.by_tdn.get(tdn.index()).copied().unwrap_or_default()
    }

    /// Recompute every aggregate by scanning the queue — the reference
    /// implementation the incremental counters are checked against in
    /// tests.
    pub fn recounted(&self) -> PipeCounts {
        let mut c = PipeCounts::default();
        for seg in self.segs.iter() {
            c.packets_out += 1;
            if seg.sacked {
                c.sacked_out += 1;
            }
            if seg.lost {
                c.lost_out += 1;
            }
            if seg.retx_in_flight {
                c.retrans_out += 1;
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;

    fn seg(seq: u32, len: u32, tdn: u8, t_us: u64) -> TxSeg {
        TxSeg {
            seq: SeqNum(seq),
            len,
            is_syn: false,
            is_fin: false,
            tdn: TdnId(tdn),
            tx_time: SimTime::from_micros(t_us),
            first_tx: SimTime::from_micros(t_us),
            sacked: false,
            lost: false,
            retx_in_flight: false,
            retx_count: 0,
        }
    }

    fn queue_of(n: u32) -> RtxQueue {
        let mut q = RtxQueue::new();
        for i in 0..n {
            q.push(seg(i * 100, 100, (i % 2) as u8, i as u64));
        }
        q
    }

    #[test]
    fn cum_ack_removes_covered() {
        let mut q = queue_of(5);
        let mut seen = Vec::new();
        let r = q.cum_ack_with(SeqNum(300), |s| seen.push(s.seq));
        assert_eq!(r.acked_segs, 3);
        assert_eq!(r.acked_space, 300);
        assert_eq!(seen, [SeqNum(200), SeqNum(100), SeqNum(0)], "newest first");
        assert_eq!(q.len(), 2);
        assert_eq!(q.front().unwrap().seq, SeqNum(300));
    }

    #[test]
    fn cum_ack_idempotent_and_stale() {
        let mut q = queue_of(3);
        q.cum_ack(SeqNum(200));
        let r = q.cum_ack(SeqNum(100)); // stale ACK
        assert_eq!(r, CumAckResult::default());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn cum_ack_partial_trims() {
        let mut q = queue_of(2);
        let r = q.cum_ack(SeqNum(150));
        assert_eq!(r.acked_segs, 1);
        assert_eq!(r.acked_space, 150);
        let front = q.front().unwrap();
        assert_eq!(front.seq, SeqNum(150));
        assert_eq!(front.len, 50);
    }

    #[test]
    fn sack_marks_and_reports_newly() {
        let mut q = queue_of(5);
        let newly = q.mark_sacked([(SeqNum(200), SeqNum(400))].into_iter());
        assert_eq!(newly.newly_sacked, 2);
        let last = newly.last.expect("two segments marked");
        assert_eq!(last.seq, SeqNum(300));
        assert!(last.sacked, "the copy carries the new mark");
        // Re-applying the same block marks nothing new.
        let again = q.mark_sacked([(SeqNum(200), SeqNum(400))].into_iter());
        assert_eq!(again.newly_sacked, 0);
        assert!(again.last.is_none());
        assert_eq!(q.highest_sacked(), Some(SeqNum(400)));
        assert_eq!(q.sacked_above(SeqNum(0)), 2);
    }

    #[test]
    fn sack_ignores_partial_overlap() {
        let mut q = queue_of(3);
        // Block covers only half of segment [100,200): not sacked.
        let newly = q.mark_sacked([(SeqNum(100), SeqNum(150))].into_iter());
        assert_eq!(newly.newly_sacked, 0);
    }

    #[test]
    fn mark_lost_below_with_predicate() {
        let mut q = queue_of(6); // TDNs alternate 0,1,0,1,0,1
        q.mark_sacked([(SeqNum(500), SeqNum(600))].into_iter());
        // Mark lost only TDN-1 segments below 500.
        let marked = q.mark_lost_below(SeqNum(500), |s| s.tdn == TdnId(1));
        assert_eq!(marked, 2);
        assert_eq!(q.counts_for_tdn(TdnId(1)).lost_out, 2);
        assert_eq!(q.counts_for_tdn(TdnId(0)).lost_out, 0);
        let c = q.counts();
        assert_eq!(c.packets_out, 6);
        assert_eq!(c.sacked_out, 1);
        assert_eq!(c.lost_out, 2);
        assert_eq!(c.pipe(), 3);
    }

    #[test]
    fn mark_lost_skips_sacked_and_already_lost() {
        let mut q = queue_of(4);
        q.mark_sacked([(SeqNum(100), SeqNum(200))].into_iter());
        let first = q.mark_lost_below(SeqNum(400), |_| true);
        assert_eq!(first, 3, "sacked seg skipped");
        let second = q.mark_lost_below(SeqNum(400), |_| true);
        assert_eq!(second, 0, "already-lost not re-marked");
    }

    #[test]
    fn retransmit_flow() {
        let mut q = queue_of(3);
        q.mark_lost_below(SeqNum(200), |_| true);
        assert!(q.has_retransmit());
        let seq = q
            .with_next_retransmit(|s| {
                s.retx_in_flight = true;
                s.retx_count += 1;
                s.tx_time = SimTime::from_micros(99);
                s.seq
            })
            .expect("segment 0 wants retx");
        assert_eq!(seq, SeqNum(0));
        let seq = q
            .with_next_retransmit(|s| {
                s.retx_in_flight = true;
                s.seq
            })
            .expect("segment 1 next");
        assert_eq!(seq, SeqNum(100));
        assert!(!q.has_retransmit());
        assert!(q.with_next_retransmit(|_| ()).is_none());
        let c = q.counts();
        assert_eq!(c.retrans_out, 2);
        assert_eq!(c.pipe(), 1 + 2); // one clean + two retransmissions
    }

    #[test]
    fn sack_clears_lost_and_retx() {
        let mut q = queue_of(2);
        q.mark_lost_below(SeqNum(100), |_| true);
        q.with_next_retransmit(|s| s.retx_in_flight = true).unwrap();
        // The "lost" original arrives after all; SACK cleans everything.
        let newly = q.mark_sacked([(SeqNum(0), SeqNum(100))].into_iter());
        assert_eq!(newly.newly_sacked, 1);
        let c = q.counts();
        assert_eq!(c.lost_out, 0);
        assert_eq!(c.retrans_out, 0);
        assert_eq!(c.sacked_out, 1);
    }

    #[test]
    fn rto_marks_all_lost() {
        let mut q = queue_of(4);
        q.mark_sacked([(SeqNum(300), SeqNum(400))].into_iter());
        let n = q.mark_all_lost();
        assert_eq!(n, 3);
        assert_eq!(q.counts().lost_out, 3);
    }

    #[test]
    fn sack_never_frees_data_and_reneging_remarks() {
        let mut q = queue_of(4);
        q.mark_sacked([(SeqNum(100), SeqNum(300))].into_iter());
        // SACK alone never removes segments from the queue (RFC 2018:
        // the receiver may renege, so the sender must keep the data).
        assert_eq!(q.len(), 4, "SACK must not free rtx-queue data");
        assert_eq!(q.counts().sacked_out, 2);

        // The receiver reneges: clear the marks, then RTO-style loss
        // marking makes the formerly-sacked range retransmittable.
        let cleared = q.clear_sack_marks();
        assert_eq!(cleared, 2);
        assert_eq!(q.counts().sacked_out, 0);
        q.mark_all_lost();
        let seqs: Vec<_> = std::iter::from_fn(|| {
            q.with_next_retransmit(|s| {
                s.retx_in_flight = true;
                s.seq
            })
        })
        .collect();
        assert_eq!(
            seqs,
            vec![SeqNum(0), SeqNum(100), SeqNum(200), SeqNum(300)],
            "reneged ranges are retransmitted with everything else"
        );
    }

    #[test]
    fn per_tdn_counts() {
        let q = queue_of(6);
        let t0 = q.counts_for_tdn(TdnId(0));
        let t1 = q.counts_for_tdn(TdnId(1));
        assert_eq!(t0.packets_out, 3);
        assert_eq!(t1.packets_out, 3);
        assert_eq!(
            t0.packets_out + t1.packets_out,
            q.counts().packets_out,
            "per-TDN counts partition the total (§4.3 'all TDNs' check)"
        );
    }

    #[test]
    fn newest_sacked_tx_time() {
        let mut q = queue_of(4);
        assert_eq!(q.newest_sacked_tx_time(), None);
        q.mark_sacked([(SeqNum(100), SeqNum(200)), (SeqNum(300), SeqNum(400))].into_iter());
        assert_eq!(q.newest_sacked_tx_time(), Some(SimTime::from_micros(3)));
    }

    #[test]
    fn last_unsacked_for_tlp() {
        let mut q = queue_of(3);
        q.mark_sacked([(SeqNum(200), SeqNum(300))].into_iter());
        assert_eq!(q.with_last_unsacked(|s| s.seq), Some(SeqNum(100)));
    }

    #[test]
    fn incremental_counts_match_recount() {
        let mut q = queue_of(8);
        q.mark_sacked([(SeqNum(200), SeqNum(400)), (SeqNum(600), SeqNum(700))].into_iter());
        q.mark_lost_below(SeqNum(600), |s| s.tdn == TdnId(0));
        q.with_next_retransmit(|s| s.retx_in_flight = true);
        q.refresh_stale_retx(SimTime::from_micros(50), |_| true);
        q.cum_ack(SeqNum(150));
        assert_eq!(q.counts(), q.recounted(), "aggregates drifted from a scan");
        let per: u32 = (0..2).map(|t| q.counts_for_tdn(TdnId(t)).packets_out).sum();
        assert_eq!(per, q.counts().packets_out, "per-TDN buckets partition the total");
        q.clear_sack_marks();
        q.mark_all_lost();
        assert_eq!(q.counts(), q.recounted());
        assert!(q.has_retransmit());
        assert!(!q.has_fin());
        assert!(!q.all_sacked());
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    #[cfg(debug_assertions)]
    fn push_gap_panics_in_debug() {
        let mut q = queue_of(1);
        q.push(seg(500, 100, 0, 9));
    }
}
