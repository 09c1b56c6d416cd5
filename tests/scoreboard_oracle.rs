//! Differential oracle for the SACK scoreboard: `tcp::rtx::RtxQueue`
//! against a reference queue that keeps nothing but the segments and
//! answers every query by scanning them, over random scripts.
//!
//! The reference's method bodies are the queue's plain scans: every
//! walk visits the queue front to back (or back to front) and tests each
//! segment's flags. The real queue may skip segments however it likes as
//! long as it marks the same segments, returns the same values and asks
//! a predicate about exactly the same segments in the same order — the
//! loss detector's predicates count what they are shown, so a changed
//! call sequence is a changed run. This suite holds the two to that, step
//! by step, and compares every segment's flags after each step.

use simcore::SimTime;
use std::collections::VecDeque;
use tcp::rtx::{CumAckResult, PipeCounts, RtxQueue, SackResult, TxSeg};
use tcp::SeqNum;
use testkit::prop::{just, range, tuple2, tuple3, uniform, vec_of, weighted, Gen};
use testkit::{tk_assert, tk_assert_eq};
use wire::TdnId;

/// The scanning reference: `segs` and nothing else.
#[derive(Default)]
struct Reference {
    segs: VecDeque<TxSeg>,
}

impl Reference {
    fn counts(&self) -> PipeCounts {
        let mut c = PipeCounts::default();
        for s in self.segs.iter() {
            c.packets_out += 1;
            c.sacked_out += u32::from(s.sacked);
            c.lost_out += u32::from(s.lost);
            c.retrans_out += u32::from(s.retx_in_flight);
        }
        c
    }

    fn cum_ack_with(&mut self, ack: SeqNum, mut visit: impl FnMut(&TxSeg)) -> CumAckResult {
        let covered = self
            .segs
            .iter()
            .take_while(|s| s.end().before_eq(ack))
            .count();
        let mut out = CumAckResult {
            acked_segs: covered as u32,
            acked_space: 0,
        };
        for seg in self.segs.drain(..covered).rev() {
            out.acked_space += seg.len;
            visit(&seg);
        }
        if let Some(front) = self.segs.front_mut() {
            if front.seq.before(ack) {
                let trimmed = ack - front.seq;
                front.seq = ack;
                front.len -= trimmed;
                front.is_syn = false;
                out.acked_space += trimmed;
            }
        }
        out
    }

    fn mark_sacked(&mut self, blocks: &[(SeqNum, SeqNum)]) -> SackResult {
        let mut out = SackResult::default();
        for &(left, right) in blocks {
            for s in self.segs.iter_mut().skip_while(|s| s.seq.before(left)) {
                if !s.end().before_eq(right) {
                    break;
                }
                if !s.sacked {
                    s.sacked = true;
                    s.lost = false;
                    s.retx_in_flight = false;
                    out.newly_sacked += 1;
                    out.last = Some(*s);
                }
            }
        }
        out
    }

    fn highest_sacked(&self) -> Option<SeqNum> {
        self.segs.iter().rev().find(|s| s.sacked).map(|s| s.end())
    }

    fn newest_sacked_tx_time(&self) -> Option<SimTime> {
        self.segs
            .iter()
            .filter(|s| s.sacked)
            .map(|s| s.tx_time)
            .max()
    }

    fn mark_lost_below(&mut self, below: SeqNum, mut pred: impl FnMut(&TxSeg) -> bool) -> u32 {
        let c = self.counts();
        if c.packets_out == c.sacked_out + c.lost_out {
            return 0;
        }
        let mut marked = 0;
        for s in self.segs.iter_mut() {
            if s.seq.after_eq(below) {
                break;
            }
            if !s.sacked && !s.lost && pred(s) {
                s.lost = true;
                s.retx_in_flight = false;
                marked += 1;
            }
        }
        marked
    }

    fn refresh_stale_retx(&mut self, cutoff: SimTime, mut pred: impl FnMut(&TxSeg) -> bool) -> u32 {
        let mut n = 0;
        for s in self.segs.iter_mut() {
            if s.retx_in_flight && !s.sacked && s.tx_time <= cutoff && pred(s) {
                s.retx_in_flight = false;
                s.lost = true;
                n += 1;
            }
        }
        n
    }

    fn clear_sack_marks(&mut self) -> u32 {
        let mut n = 0;
        for s in self.segs.iter_mut().filter(|s| s.sacked) {
            s.sacked = false;
            s.retx_in_flight = false;
            n += 1;
        }
        n
    }

    fn mark_all_lost(&mut self) -> u32 {
        let mut n = 0;
        for s in self.segs.iter_mut().filter(|s| !s.sacked) {
            s.lost = true;
            s.retx_in_flight = false;
            n += 1;
        }
        n
    }

    fn with_next_retransmit<R>(&mut self, f: impl FnOnce(&mut TxSeg) -> R) -> Option<R> {
        self.segs.iter_mut().find(|s| s.wants_retransmit()).map(f)
    }

    fn with_last_unsacked<R>(&mut self, f: impl FnOnce(&mut TxSeg) -> R) -> Option<R> {
        self.segs.iter_mut().rev().find(|s| !s.sacked).map(f)
    }
}

/// One scripted step. Sequence arguments are in 50-byte units above the
/// queue front; segments are 100–300 bytes long, so blocks and ACKs land
/// on and between segment edges alike.
#[derive(Debug, Clone)]
enum Op {
    /// Append a segment of `len` units on `tdn`; `flags` (3 bits:
    /// sacked, lost, retransmission in flight) is almost always 0, as the
    /// connection pushes, but any value is legal; 7 also marks it FIN.
    Push {
        len: u32,
        tdn: u8,
        flags: u8,
    },
    CumAck(u32),
    /// One to four `(left, length)` blocks.
    Sack(Vec<(u32, u32)>),
    LostBelow {
        below: u32,
        salt: u64,
    },
    Refresh {
        cutoff: u64,
        salt: u64,
    },
    /// The scoped mutators: stamp the segment as retransmitted at `t` on
    /// `tdn`, then overwrite its flags with `flags` if that is nonzero.
    NextRetransmit {
        t: u64,
        tdn: u8,
        flags: u8,
    },
    LastUnsacked {
        t: u64,
        tdn: u8,
        flags: u8,
    },
    ClearSack,
    AllLost,
}

fn flags() -> Gen<u8> {
    weighted(vec![(12, range(0u8..1)), (1, range(0u8..8))])
}

fn op() -> Gen<Op> {
    let stamp = || tuple3(range(0u64..4_000), range(0u8..4), flags());
    weighted(vec![
        (
            12,
            tuple3(range(2u32..7), range(0u8..4), flags()).map(|(len, tdn, flags)| Op::Push {
                len,
                tdn,
                flags,
            }),
        ),
        (3, range(0u32..12).map(Op::CumAck)),
        (
            6,
            vec_of(tuple2(range(0u32..400), range(1u32..60)), 1..5).map(Op::Sack),
        ),
        (
            4,
            tuple2(range(0u32..500), uniform::<u64>())
                .map(|(below, salt)| Op::LostBelow { below, salt }),
        ),
        (
            3,
            tuple2(range(0u64..4_000), uniform::<u64>())
                .map(|(cutoff, salt)| Op::Refresh { cutoff, salt }),
        ),
        (
            5,
            stamp().map(|(t, tdn, flags)| Op::NextRetransmit { t, tdn, flags }),
        ),
        (
            2,
            stamp().map(|(t, tdn, flags)| Op::LastUnsacked { t, tdn, flags }),
        ),
        (1, just(Op::ClearSack)),
        (1, just(Op::AllLost)),
    ])
}

/// A predicate answer that depends only on the segment and the step.
fn verdict(s: &TxSeg, salt: u64) -> bool {
    let mut x = (u64::from(s.seq.0) << 20) ^ s.tx_time.as_nanos() ^ salt;
    x = (x ^ (x >> 31)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    (x >> 62) != 0
}

fn stamp(s: &mut TxSeg, t: u64, tdn: u8, flags: u8) -> String {
    s.tx_time = SimTime::from_nanos(t * 1_000);
    s.tdn = TdnId(tdn);
    s.retx_count += 1;
    s.retx_in_flight = true;
    if flags != 0 {
        s.sacked = flags & 1 != 0;
        s.lost = flags & 2 != 0;
        s.retx_in_flight = flags & 4 != 0;
    }
    format!("{s:?}")
}

struct Pair {
    real: RtxQueue,
    reference: Reference,
    /// The next segment's first sequence number.
    next_seq: SeqNum,
    /// Steps taken, which also stamps each push's transmit time.
    steps: u64,
}

impl Pair {
    fn front(&self) -> SeqNum {
        self.reference.segs.front().map_or(self.next_seq, |s| s.seq)
    }

    fn step(&mut self, op: &Op) -> Result<(), String> {
        self.steps += 1;
        let unit = |n: u32| n * 50;
        let front = self.front();
        let (real, reference) = (&mut self.real, &mut self.reference);
        let (got, want) = match *op {
            Op::Push { len, tdn, flags } => {
                let at = SimTime::from_nanos(self.steps * 1_000);
                let seg = TxSeg {
                    seq: self.next_seq,
                    len: unit(len),
                    is_syn: false,
                    is_fin: flags == 7,
                    tdn: TdnId(tdn),
                    tx_time: at,
                    first_tx: at,
                    sacked: flags & 1 != 0,
                    lost: flags & 2 != 0,
                    retx_in_flight: flags & 4 != 0,
                    retx_count: 0,
                };
                self.next_seq += seg.len;
                real.push(seg);
                reference.segs.push_back(seg);
                (String::new(), String::new())
            }
            Op::CumAck(n) => {
                let ack = front + unit(n);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                let ra = real.cum_ack_with(ack, |s| a.push(format!("{s:?}")));
                let rb = reference.cum_ack_with(ack, |s| b.push(format!("{s:?}")));
                (format!("{ra:?} {a:?}"), format!("{rb:?} {b:?}"))
            }
            Op::Sack(ref blocks) => {
                let blocks: Vec<(SeqNum, SeqNum)> = blocks
                    .iter()
                    .map(|&(l, n)| (front + unit(l), front + unit(l + n)))
                    .collect();
                let ra = real.mark_sacked(blocks.iter().copied());
                let rb = reference.mark_sacked(&blocks);
                (format!("{ra:?}"), format!("{rb:?}"))
            }
            Op::LostBelow { below, salt } => {
                let below = front + unit(below);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                let ra = real.mark_lost_below(below, |s| {
                    a.push(s.seq);
                    verdict(s, salt)
                });
                let rb = reference.mark_lost_below(below, |s| {
                    b.push(s.seq);
                    verdict(s, salt)
                });
                (format!("{ra} {a:?}"), format!("{rb} {b:?}"))
            }
            Op::Refresh { cutoff, salt } => {
                let cutoff = SimTime::from_nanos(cutoff * 1_000);
                let (mut a, mut b) = (Vec::new(), Vec::new());
                let ra = real.refresh_stale_retx(cutoff, |s| {
                    a.push(s.seq);
                    verdict(s, salt)
                });
                let rb = reference.refresh_stale_retx(cutoff, |s| {
                    b.push(s.seq);
                    verdict(s, salt)
                });
                (format!("{ra} {a:?}"), format!("{rb} {b:?}"))
            }
            Op::NextRetransmit { t, tdn, flags } => (
                format!(
                    "{:?}",
                    real.with_next_retransmit(|s| stamp(s, t, tdn, flags))
                ),
                format!(
                    "{:?}",
                    reference.with_next_retransmit(|s| stamp(s, t, tdn, flags))
                ),
            ),
            Op::LastUnsacked { t, tdn, flags } => (
                format!("{:?}", real.with_last_unsacked(|s| stamp(s, t, tdn, flags))),
                format!(
                    "{:?}",
                    reference.with_last_unsacked(|s| stamp(s, t, tdn, flags))
                ),
            ),
            Op::ClearSack => (
                real.clear_sack_marks().to_string(),
                reference.clear_sack_marks().to_string(),
            ),
            Op::AllLost => (
                real.mark_all_lost().to_string(),
                reference.mark_all_lost().to_string(),
            ),
        };
        tk_assert_eq!(got, want, "return value or predicate calls of {op:?}");
        self.check().map_err(|e| format!("after {op:?}: {e}"))
    }

    /// Every observable of the two queues agrees.
    fn check(&mut self) -> Result<(), String> {
        let (real, reference) = (&mut self.real, &self.reference);
        tk_assert_eq!(real.len(), reference.segs.len());
        for (i, (a, b)) in real.iter().zip(reference.segs.iter()).enumerate() {
            tk_assert_eq!(format!("{a:?}"), format!("{b:?}"), "segment {i}");
        }
        tk_assert_eq!(real.counts(), reference.counts());
        tk_assert_eq!(real.counts(), real.recounted());
        for t in 0..4 {
            let want = reference.segs.iter().filter(|s| s.tdn == TdnId(t)).fold(
                PipeCounts::default(),
                |mut c, s| {
                    c.packets_out += 1;
                    c.sacked_out += u32::from(s.sacked);
                    c.lost_out += u32::from(s.lost);
                    c.retrans_out += u32::from(s.retx_in_flight);
                    c
                },
            );
            tk_assert_eq!(real.counts_for_tdn(TdnId(t)), want, "TDN {t}");
        }
        tk_assert_eq!(real.highest_sacked(), reference.highest_sacked());
        tk_assert_eq!(
            real.newest_sacked_tx_time(),
            reference.newest_sacked_tx_time()
        );
        tk_assert_eq!(
            real.has_retransmit(),
            reference.segs.iter().any(TxSeg::wants_retransmit)
        );
        tk_assert_eq!(
            format!("{:?}", real.first_unsacked()),
            format!("{:?}", reference.segs.iter().find(|s| !s.sacked))
        );
        tk_assert_eq!(real.all_sacked(), reference.segs.iter().all(|s| s.sacked));
        tk_assert_eq!(real.has_fin(), reference.segs.iter().any(|s| s.is_fin));
        let front = reference.segs.front().map_or(self.next_seq, |s| s.seq);
        tk_assert_eq!(
            real.sacked_above(front + 100),
            reference
                .segs
                .iter()
                .filter(|s| s.sacked && s.seq.after_eq(front + 100))
                .count() as u32
        );
        Ok(())
    }
}

fn run_script(isn: u32, ops: &[Op]) -> Result<(), String> {
    let mut pair = Pair {
        real: RtxQueue::new(),
        reference: Reference::default(),
        next_seq: SeqNum(isn),
        steps: 0,
    };
    for (i, op) in ops.iter().enumerate() {
        pair.step(op).map_err(|e| format!("step {i}: {e}"))?;
    }
    tk_assert!(pair.real.len() == pair.reference.segs.len());
    Ok(())
}

/// First sequence numbers: anywhere, and just below the wrap.
fn isn() -> Gen<u32> {
    weighted(vec![
        (3, uniform::<u32>()),
        (1, range(u32::MAX - 20_000..u32::MAX)),
    ])
}

testkit::props! {
    #[cases(200)]
    /// Scripts long enough to hold a few hundred segments, so every walk
    /// crosses 64-segment word edges and the front moves through them.
    fn scoreboard_matches_scanning_reference(input in tuple2(isn(), vec_of(op(), 1..600))) {
        let (isn, ops) = input;
        run_script(isn, &ops)?;
    }
}

#[test]
fn a_long_recovery_episode_matches() {
    // A 300-segment window, half of it SACKed in scattered blocks, loss
    // marking below the top, retransmissions, stale refreshes and ACKs
    // that move the front across word edges.
    let mut ops: Vec<Op> = (0..300)
        .map(|i| Op::Push {
            len: 2 + i % 3,
            tdn: (i % 4) as u8,
            flags: 0,
        })
        .collect();
    for round in 0..6u32 {
        let blocks = (0..4).map(|k| (round * 90 + k * 30 + 7, 11)).collect();
        ops.push(Op::Sack(blocks));
        ops.push(Op::LostBelow {
            below: round * 90 + 100,
            salt: u64::from(round),
        });
        for t in 0..5 {
            ops.push(Op::NextRetransmit {
                t: 400 + u64::from(round * 10 + t),
                tdn: 1,
                flags: 0,
            });
        }
        ops.push(Op::Refresh {
            cutoff: 400 + u64::from(round * 10),
            salt: 3,
        });
        ops.push(Op::LastUnsacked {
            t: 900,
            tdn: 2,
            flags: 0,
        });
        ops.push(Op::CumAck(40 + round * 7));
    }
    ops.push(Op::ClearSack);
    ops.push(Op::AllLost);
    ops.push(Op::CumAck(2_000));
    run_script(0, &ops).unwrap();
}
