//! Property tests on the TCP engine's core data structures: sequence
//! arithmetic laws, retransmission-queue accounting invariants, SACK
//! scoreboard idempotence, and reassembler correctness against a
//! reference model. Runs on the in-repo `testkit` harness.

use simcore::SimTime;
use tcp::recv::Reassembler;
use tcp::rtx::{RtxQueue, TxSeg};
use tcp::SeqNum;
use testkit::prop::{range, tuple2, tuple3, tuple4, uniform, vec_of};
use testkit::rng::TkRng;
use testkit::{tk_assert, tk_assert_eq};
use wire::TdnId;

fn seg(i: u32, tdn: u8) -> TxSeg {
    TxSeg {
        seq: SeqNum(i * 100),
        len: 100,
        is_syn: false,
        is_fin: false,
        tdn: TdnId(tdn),
        tx_time: SimTime::from_micros(u64::from(i)),
        first_tx: SimTime::from_micros(u64::from(i)),
        sacked: false,
        lost: false,
        retx_in_flight: false,
        retx_count: 0,
    }
}

testkit::props! {
    // ---------------- sequence arithmetic ----------------

    fn seq_ordering_antisymmetric(
        input in tuple2(uniform::<u32>(), range(1u32..i32::MAX as u32))
    ) {
        let (a, d) = input;
        let x = SeqNum(a);
        let y = x + d;
        tk_assert!(x.before(y));
        tk_assert!(y.after(x));
        tk_assert!(!y.before(x));
        tk_assert_eq!(y - x, d);
        tk_assert_eq!(y.distance(x), d as i64 as i32);
    }

    fn seq_add_associative(
        input in tuple3(uniform::<u32>(), range(0u32..1_000_000), range(0u32..1_000_000))
    ) {
        let (a, m, n) = input;
        tk_assert_eq!((SeqNum(a) + m) + n, SeqNum(a) + (m + n));
    }

    fn seq_within_halfopen(
        input in tuple3(uniform::<u32>(), range(1u32..1_000_000), range(0u32..1_000_000))
    ) {
        let (base, len, off) = input;
        let lo = SeqNum(base);
        let hi = lo + len;
        let p = lo + off;
        tk_assert_eq!(p.within(lo, hi), off < len);
    }

    // ---------------- rtx queue accounting ----------------

    // Whatever sequence of SACKs, loss marks, and cumulative ACKs is
    // applied, the pipe counters stay consistent: partitions sum to the
    // total, nothing goes negative, and per-TDN counts partition the
    // whole (§4.3 "all TDNs" semantics).
    fn rtx_counter_invariants(
        input in tuple4(
            range(1usize..60),
            vec_of(tuple2(range(0u32..60), range(1u32..20)), 0..12),
            vec_of(range(0u32..60), 0..12),
            vec_of(range(0u32..80), 0..8),
        )
    ) {
        let (nsegs, sacks, losses, acks) = input;
        let mut q = RtxQueue::new();
        for i in 0..nsegs {
            q.push(seg(i as u32, (i % 3) as u8));
        }
        for (start, n) in sacks {
            let l = SeqNum(start * 100);
            let r = SeqNum((start + n) * 100);
            q.mark_sacked([(l, r)].into_iter());
        }
        for below in losses {
            q.mark_lost_below(SeqNum(below * 100), |_| true);
        }
        for ack in acks {
            q.cum_ack(SeqNum(ack * 100));
        }
        let c = q.counts();
        tk_assert!(c.sacked_out + c.lost_out <= c.packets_out + c.retrans_out);
        tk_assert_eq!(c.packets_out as usize, q.len());
        // Per-TDN counts partition the totals.
        let mut sum = tcp::rtx::PipeCounts::default();
        for t in 0..3u8 {
            let p = q.counts_for_tdn(TdnId(t));
            sum.packets_out += p.packets_out;
            sum.sacked_out += p.sacked_out;
            sum.lost_out += p.lost_out;
            sum.retrans_out += p.retrans_out;
        }
        tk_assert_eq!(sum, c);
        // No segment is simultaneously sacked and lost.
        for s in q.iter() {
            tk_assert!(!(s.sacked && s.lost));
        }
    }

    // Cumulative ACK never removes un-covered bytes and is monotone.
    fn rtx_cum_ack_monotone(
        input in tuple2(range(1usize..50), vec_of(range(0u32..6000), 1..10))
    ) {
        let (nsegs, acks) = input;
        let mut q = RtxQueue::new();
        for i in 0..nsegs {
            let mut s = seg(i as u32, 0);
            s.tx_time = SimTime::ZERO;
            s.first_tx = SimTime::ZERO;
            q.push(s);
        }
        let mut highest = SeqNum(0);
        let mut total_acked = 0u32;
        for a in acks {
            let ack = SeqNum(a);
            let r = q.cum_ack(ack);
            total_acked += r.acked_space;
            if ack.after(highest) {
                highest = ack;
            }
            // The queue front is never below the highest ACK seen.
            if let Some(front) = q.front() {
                tk_assert!(front.end().after(highest));
            }
        }
        let covered = highest.min(SeqNum(nsegs as u32 * 100));
        tk_assert_eq!(total_acked, covered - SeqNum(0));
    }

    // New with the testkit port: the SACK scoreboard is idempotent — and
    // never un-marks — under arbitrary ack/loss interleavings. Replaying
    // the full SACK history a second time changes nothing.
    fn rtx_sack_idempotent(
        input in tuple3(
            range(1usize..50),
            vec_of(tuple2(range(0u32..50), range(1u32..16)), 1..10),
            vec_of(range(0u32..50), 0..6),
        )
    ) {
        let (nsegs, sacks, losses) = input;
        let blocks: Vec<(SeqNum, SeqNum)> = sacks
            .iter()
            .map(|&(s, n)| (SeqNum(s * 100), SeqNum((s + n) * 100)))
            .collect();
        let mut q = RtxQueue::new();
        for i in 0..nsegs {
            q.push(seg(i as u32, (i % 2) as u8));
        }
        // Interleave loss marks between SACK applications.
        for (j, b) in blocks.iter().enumerate() {
            q.mark_sacked([*b].into_iter());
            if let Some(&below) = losses.get(j) {
                q.mark_lost_below(SeqNum(below * 100), |_| true);
            }
        }
        let counts_once = q.counts();
        let sacked_once: Vec<bool> = q.iter().map(|s| s.sacked).collect();
        // Replay the entire SACK history.
        q.mark_sacked(blocks.iter().copied());
        tk_assert_eq!(q.counts(), counts_once);
        let sacked_twice: Vec<bool> = q.iter().map(|s| s.sacked).collect();
        tk_assert_eq!(sacked_twice, sacked_once);
    }

    // ---------------- reassembler vs reference model ----------------

    // The reassembler agrees with a naive bitmap model for arbitrary
    // segment arrival orders (including overlaps and duplicates).
    fn reassembler_matches_reference(
        segs in vec_of(tuple2(range(0u32..40), range(1u32..8)), 1..40)
    ) {
        let mut rx = Reassembler::new(SeqNum(0), 1 << 20);
        let mut bitmap = [false; 512];
        let mut delivered_total = 0u64;
        for (start, len) in segs {
            let out = rx.on_data(SeqNum(start * 10), len * 10);
            delivered_total += u64::from(out.delivered);
            // Duplicate flag only when the segment added no new bytes.
            if out.duplicate {
                let range = (start * 10) as usize..(start * 10 + len * 10) as usize;
                tk_assert!(bitmap[range].iter().all(|&x| x), "duplicates add nothing");
            }
            for b in (start * 10)..(start * 10 + len * 10) {
                bitmap[b as usize] = true;
            }
            // Reference rcv_nxt: first false bit.
            let ref_nxt = bitmap.iter().position(|&x| !x).unwrap_or(bitmap.len()) as u32;
            tk_assert_eq!(rx.rcv_nxt(), SeqNum(ref_nxt));
            // OOO bytes = received bits above rcv_nxt.
            let ref_ooo: u32 = bitmap[ref_nxt as usize..]
                .iter()
                .map(|&x| u32::from(x))
                .sum();
            tk_assert_eq!(rx.ooo_bytes(), ref_ooo);
            // SACK blocks exactly cover the out-of-order bits.
            let mut sack_covered = 0u32;
            for (l, r) in rx.sack_blocks().iter() {
                tk_assert!(l.after_eq(rx.rcv_nxt()));
                tk_assert!(l.before(r));
                sack_covered += r - l;
            }
            if rx.sack_blocks().len() < 4 {
                // With at most 4 blocks reported and our merged intervals
                // never exceeding that here, coverage must be exact.
                tk_assert_eq!(sack_covered, ref_ooo);
            }
        }
        tk_assert_eq!(delivered_total, u64::from(rx.rcv_nxt() - SeqNum(0)));
    }

    // Arrival order is irrelevant: the same segment set fed in any
    // shuffled order (MPTCP's reinjection across subflows reorders its
    // data level freely) converges to the same final state.
    fn reassembler_order_independent(
        input in tuple2(
            vec_of(tuple2(range(0u32..60), range(1u32..8)), 1..40),
            range(0u64..1_000_000),
        )
    ) {
        let (segs, shuffle_seed) = input;
        let mut in_order = Reassembler::new(SeqNum(0), 1 << 20);
        for &(s, l) in &segs {
            in_order.on_data(SeqNum(s * 10), l * 10);
        }
        let mut shuffled = segs.clone();
        TkRng::new(shuffle_seed).shuffle(&mut shuffled);
        let mut reordered = Reassembler::new(SeqNum(0), 1 << 20);
        for &(s, l) in &shuffled {
            reordered.on_data(SeqNum(s * 10), l * 10);
        }
        tk_assert_eq!(reordered.rcv_nxt(), in_order.rcv_nxt());
        tk_assert_eq!(reordered.ooo_bytes(), in_order.ooo_bytes());
    }
}
