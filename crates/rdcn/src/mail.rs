//! The cross-rack mailboxes: the only way a segment changes racks.
//!
//! A rack shard reaches another rack through these calls and nothing
//! else: [`Mailboxes::new`], [`Mailboxes::lend`],
//! [`Mailboxes::hand_off`], [`Mailboxes::collect`] and
//! [`Mailboxes::in_flight`]. The boxes
//! themselves are private to this module, so the compiler rejects any
//! other access. A rack never holds the leader (the emulator that owns
//! every shard) either: `simcore::par::run_windows` hands each worker
//! only its own `&mut RackShard`, and the leader runs between windows.

use simcore::SimTime;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use tcp::Segment;

/// One segment crossing racks: queued by the source shard in emission
/// order, collected by the destination shard one window later. The one
/// place between two hosts where the segment itself is copied.
pub(crate) struct Msg {
    /// Arrival time at the destination host.
    pub(crate) t: SimTime,
    /// Destination host, rack-local.
    pub(crate) host: u32,
    /// The source shard's previous emission had the same `(t, rack,
    /// host)`: the two arrive in one `Deliver`. Fixed by the source's own
    /// emission order, so a batch never depends on what else shares the
    /// box.
    pub(crate) joins_prev: bool,
    pub(crate) seg: Segment,
}

/// One `(source, destination)` box of one parity.
#[derive(Default)]
struct Mailbox {
    /// Set by the hand-off, cleared by the collect: the destination
    /// skips a box its source left empty without taking the lock. The
    /// `Release` store pairs with the `Acquire` load in `collect` (the
    /// window barrier between them orders the two as well).
    full: AtomicBool,
    msgs: Mutex<Vec<Msg>>,
}

/// The cross-rack mailboxes: one box per (source, destination) pair,
/// double-buffered by window parity. During a window of parity `p` a
/// source borrows the buffer of its `(src, dst)` box of parity `p` at its
/// first emission toward `dst`, fills it as a private outbox, and gives
/// it back when the window ends — two locks per pair per window, not one
/// per segment — while the destination collects its column of parity
/// `p ^ 1`, last window's mail. So a box has one writer or one reader in
/// any window, never both, and the locks are never contended. A pair's
/// capacity lives in its two boxes and nowhere else: nothing is
/// allocated or freed across threads in the steady state.
pub(crate) struct Mailboxes {
    racks: usize,
    /// `boxes[parity][src * racks + dst]`.
    boxes: [Vec<Mailbox>; 2],
}

impl Mailboxes {
    pub(crate) fn new(racks: usize) -> Mailboxes {
        let half = || (0..racks * racks).map(|_| Mailbox::default()).collect();
        Mailboxes {
            racks,
            boxes: [half(), half()],
        }
    }

    /// Lend the (collected, hence empty) buffer of the `(src, dst)` box
    /// of `parity` to `outbox`, which holds none of its own.
    pub(crate) fn lend(&self, parity: usize, src: usize, dst: usize, outbox: &mut Vec<Msg>) {
        let slot = &self.boxes[parity][src * self.racks + dst];
        let mut msgs = slot.msgs.lock().expect("mailbox poisoned");
        debug_assert!(msgs.is_empty(), "lent an uncollected box");
        debug_assert!(outbox.capacity() == 0, "an outbox kept a buffer of its own");
        *outbox = std::mem::take(&mut *msgs);
    }

    /// Give the non-empty `outbox` back to the `(src, dst)` box of
    /// `parity` it was lent from; `outbox` comes back with no buffer.
    pub(crate) fn hand_off(&self, parity: usize, src: usize, dst: usize, outbox: &mut Vec<Msg>) {
        let slot = &self.boxes[parity][src * self.racks + dst];
        let mut msgs = slot.msgs.lock().expect("mailbox poisoned");
        debug_assert!(msgs.capacity() == 0, "handed off into a box that kept its buffer");
        *msgs = std::mem::take(outbox);
        slot.full.store(true, Ordering::Release);
    }

    /// Empty column `dst` of `parity` in fixed source-rack order, handing
    /// each run of `joins_prev` messages to `deliver` as one batch.
    pub(crate) fn collect(&self, parity: usize, dst: usize, mut deliver: impl FnMut(&[Msg])) {
        for src in 0..self.racks {
            let slot = &self.boxes[parity][src * self.racks + dst];
            if !slot.full.load(Ordering::Acquire) {
                continue;
            }
            let mut msgs = slot.msgs.lock().expect("mailbox poisoned");
            for run in msgs.chunk_by(|_, next| next.joins_prev) {
                deliver(run);
            }
            msgs.clear();
            slot.full.store(false, Ordering::Release);
        }
    }

    /// Messages handed off and not yet collected, both parities.
    pub(crate) fn in_flight(&self) -> u64 {
        let mut n = 0;
        for slot in self.boxes.iter().flatten() {
            n += slot.msgs.lock().expect("mailbox poisoned").len() as u64;
        }
        n
    }
}
