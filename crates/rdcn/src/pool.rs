//! The segment pool: where a segment sits while the fabric moves it.
//!
//! A [`Segment`] is 76 bytes, and one hop used to copy it about eleven
//! times — into an event, into the wheel node, out again, into the VOQ
//! deque, out again, into the launch, the mailbox, the batch, the next
//! event. Here it is written once, into a slot of its engine's private
//! pool, and everything between `poll_send` and `on_segment` — events,
//! VOQ entries, service trains — carries the slot's `u32` id. The fabric
//! reads `wire_size`/`flow`/`dir` in place, mangles the checksum and sets
//! the circuit mark and CE in place, and the receiving transport is
//! handed a `&Segment` into the slot, which is then released (DESIGN.md
//! §13 "What a segment costs to move").
//!
//! Life-cycle of an id: `insert` at `poll_send` (or when collected mail
//! is copied into the destination rack's pool, or for the second copy the
//! duplicate impairment makes); `release` exactly once — at delivery, at
//! a tail drop, at a drop with a cause, or when the segment is copied
//! into a cross-rack message. A clock-deferred launch re-queues the same
//! id. Debug builds track `Vacant | Live` per slot, so a double release
//! or a read of a released id panics at the site, and the engine checks
//! at their barriers that the live count equals what their queues hold.
//!
//! Nothing here allocates in steady state: the slab grows to the peak
//! number of segments the engine ever held at once and is kept, as the
//! wheel's node slab is.

use crate::voq::VoqItem;
use tcp::Segment;
use wire::{Ecn, TdnId};

/// End-of-chain marker, and the head of an empty free list.
pub(crate) const NIL: u32 = u32::MAX;

/// A pooled segment's handle plus the two fields VOQ admission and
/// service read, so the queue never touches the slot: 8 bytes per entry
/// where a `Segment` entry was 120.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegRef {
    pub(crate) id: u32,
    pub(crate) pin: Option<TdnId>,
    /// The slot's codepoint at enqueue, `Ce` once the VOQ marked it; the
    /// engine writes it back into the slot when it dequeues.
    pub(crate) ecn: Ecn,
}

impl VoqItem for SegRef {
    fn pin(&self) -> Option<TdnId> {
        self.pin
    }
    fn ecn(&self) -> Ecn {
        self.ecn
    }
    fn mark_ce(&mut self) {
        self.ecn = Ecn::Ce;
    }
}

/// One engine's segment slab with an intrusive free list.
pub(crate) struct SegPool {
    slots: Vec<Segment>,
    /// Per slot: the next free slot while vacant; while live, the next
    /// segment of the same delivery batch (see [`SegPool::chain`]).
    next: Vec<u32>,
    /// Head of the free list.
    free: u32,
    live: u64,
    /// `Vacant | Live` per slot; kept in debug builds only.
    occupied: Vec<bool>,
}

impl SegPool {
    pub(crate) fn new() -> SegPool {
        SegPool {
            slots: Vec::new(),
            next: Vec::new(),
            free: NIL,
            live: 0,
            occupied: Vec::new(),
        }
    }

    /// Copy `seg` into a free slot (growing the slab when there is none)
    /// and return its id. The slot starts unchained.
    #[inline]
    pub(crate) fn insert(&mut self, seg: Segment) -> u32 {
        self.live += 1;
        let id = self.free;
        if id == NIL {
            let id = u32::try_from(self.slots.len())
                .ok()
                .filter(|&n| n != NIL)
                .expect("more than u32::MAX - 1 segments in flight");
            self.slots.push(seg);
            self.next.push(NIL);
            if cfg!(debug_assertions) {
                self.occupied.push(true);
            }
            return id;
        }
        let i = id as usize;
        if cfg!(debug_assertions) {
            assert!(!self.occupied[i], "live segment slot {id} on the free list");
            self.occupied[i] = true;
        }
        self.free = self.next[i];
        self.slots[i] = seg;
        self.next[i] = NIL;
        id
    }

    #[inline]
    fn check_live(&self, id: u32, what: &str) {
        if cfg!(debug_assertions) {
            assert!(
                self.occupied[id as usize],
                "segment id {id} {what} after its release"
            );
        }
    }

    /// The segment in slot `id`.
    #[inline]
    pub(crate) fn get(&self, id: u32) -> &Segment {
        self.check_live(id, "read");
        &self.slots[id as usize]
    }

    /// The segment in slot `id`, to be changed in place.
    #[inline]
    pub(crate) fn get_mut(&mut self, id: u32) -> &mut Segment {
        self.check_live(id, "written");
        &mut self.slots[id as usize]
    }

    /// The handle a VOQ queues for slot `id`.
    #[inline]
    pub(crate) fn seg_ref(&self, id: u32) -> SegRef {
        let seg = self.get(id);
        SegRef {
            id,
            pin: seg.pin,
            ecn: seg.ecn,
        }
    }

    /// Make `next` follow `id` in a delivery batch.
    pub(crate) fn chain(&mut self, id: u32, next: u32) {
        self.check_live(id, "chained");
        self.next[id as usize] = next;
    }

    /// What follows `id` in its delivery batch, or [`NIL`].
    #[inline]
    pub(crate) fn next(&self, id: u32) -> u32 {
        self.check_live(id, "walked");
        self.next[id as usize]
    }

    /// Put slot `id` back on the free list.
    #[inline]
    pub(crate) fn release(&mut self, id: u32) {
        self.check_live(id, "released");
        if cfg!(debug_assertions) {
            self.occupied[id as usize] = false;
        }
        self.next[id as usize] = self.free;
        self.free = id;
        self.live -= 1;
    }

    /// Slots currently handed out.
    pub(crate) fn live(&self) -> u64 {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcp::{Direction, FlowId, SeqNum};

    fn seg(seq: u32) -> Segment {
        let mut s = Segment::new(FlowId(0), Direction::DataPath);
        s.seq = SeqNum(seq);
        s
    }

    #[test]
    fn slots_are_reused_and_keep_their_segment() {
        let mut pool = SegPool::new();
        let a = pool.insert(seg(1));
        let b = pool.insert(seg(2));
        assert_eq!(pool.live(), 2);
        assert_eq!((pool.get(a).seq, pool.get(b).seq), (SeqNum(1), SeqNum(2)));
        pool.get_mut(a).circuit_mark = true;
        assert!(pool.get(a).circuit_mark && !pool.get(b).circuit_mark);
        pool.release(a);
        let c = pool.insert(seg(3));
        assert_eq!(c, a, "the freed slot is the next one handed out");
        assert!(
            !pool.get(c).circuit_mark,
            "a reused slot holds the new segment"
        );
        assert_eq!(pool.next(c), NIL, "and starts unchained");
        assert_eq!(pool.live(), 2);
    }

    #[test]
    fn chains_walk_in_link_order() {
        let mut pool = SegPool::new();
        let ids: Vec<u32> = (0..4).map(|i| pool.insert(seg(i))).collect();
        for w in ids.windows(2) {
            pool.chain(w[0], w[1]);
        }
        let (mut id, mut seen) = (ids[0], Vec::new());
        while id != NIL {
            let next = pool.next(id);
            seen.push(pool.get(id).seq.0);
            pool.release(id);
            id = next;
        }
        assert_eq!(seen, [0, 1, 2, 3]);
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn seg_ref_carries_what_the_voq_reads() {
        let mut pool = SegPool::new();
        let mut s = seg(0);
        s.pin = Some(TdnId(1));
        s.ecn = Ecn::Ect0;
        let id = pool.insert(s);
        let r = pool.seg_ref(id);
        assert_eq!((r.pin(), r.ecn()), (Some(TdnId(1)), Ecn::Ect0));
        assert!(std::mem::size_of::<SegRef>() <= 8);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "released after its release")]
    fn double_release_panics_at_the_site() {
        let mut pool = SegPool::new();
        let a = pool.insert(seg(1));
        pool.release(a);
        pool.release(a);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "read after its release")]
    fn reading_a_released_id_panics_at_the_site() {
        let mut pool = SegPool::new();
        let a = pool.insert(seg(1));
        pool.release(a);
        let _ = pool.get(a);
    }
}
