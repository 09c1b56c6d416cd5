//! Property tests on the TDTCP connection: arbitrary interleavings of
//! notifications, crafted ACKs, timer fires and polls never violate the
//! state invariants (no panic, per-TDN accounting partitions the total,
//! the current TDN always has a state set, sequence progress is
//! monotone), and connection evolution is deterministic under replay.
//! Every property runs over the three shapes a TDTCP endpoint's state can
//! take: the paper's two TDNs, a single TDN (`num_tdns = 1`, where
//! notifications for other TDNs are §4.2 runtime growth), and the
//! `per_tdn_state = false` ablation (one set, notifications ignored).
//! Runs on the in-repo `testkit` harness.

use simcore::SimTime;
use tcp::cc::{CcConfig, Cubic};
use tcp::{FlowId, SackBlocks, Segment, SeqNum, Transport};
use tdtcp::{TdtcpConfig, TdtcpConnection};
use testkit::prop::{option_of, range, tuple3, vec_of, weighted, Gen};
use testkit::{tk_assert, tk_assert_eq, Counters};
use wire::TdnId;

const MSS: u32 = 1000;

#[derive(Debug, Clone)]
enum Op {
    Poll,
    Notify(u8),
    Ack {
        ack_kmss: u32,
        sack: Option<(u32, u32)>,
        ack_tdn: u8,
    },
    Timer,
}

fn arb_op() -> Gen<Op> {
    weighted(vec![
        (3, testkit::prop::just(Op::Poll)),
        (1, range(0u8..4).map(Op::Notify)),
        (
            3,
            tuple3(
                range(0u32..64),
                option_of(testkit::prop::tuple2(range(0u32..64), range(1u32..16))),
                range(0u8..3),
            )
            .map(|(ack_kmss, sack, ack_tdn)| Op::Ack {
                ack_kmss,
                sack: sack.map(|(s, l)| (s, s + l)),
                ack_tdn,
            }),
        ),
        (1, testkit::prop::just(Op::Timer)),
    ])
}

/// `(num_tdns, per_tdn_state)` rows every property is run over.
const SHAPES: [(u8, bool); 3] = [(2, true), (1, true), (2, false)];

fn arb_shape() -> Gen<(u8, bool)> {
    range(0usize..SHAPES.len()).map(|i| SHAPES[i])
}

fn establish((num_tdns, per_tdn_state): (u8, bool)) -> TdtcpConnection {
    let mut cfg = TdtcpConfig {
        num_tdns,
        per_tdn_state,
        ..TdtcpConfig::default()
    };
    cfg.tcp.mss = MSS;
    cfg.tcp.pacing = false;
    let cubic = Cubic::new(CcConfig {
        mss: MSS,
        init_cwnd_pkts: 10,
        max_cwnd: 1 << 24,
    });
    let mut a = TdtcpConnection::connect(FlowId(1), cfg, &cubic, SimTime::ZERO);
    let mut synack = Segment::new(FlowId(1), tcp::Direction::AckPath);
    synack.flags.syn = true;
    synack.flags.ack = true;
    synack.seq = SeqNum(0);
    synack.ack = SeqNum(1);
    synack.wnd = 1 << 22;
    synack.td_capable = Some(num_tdns);
    a.on_segment(SimTime::from_micros(100), &synack);
    assert!(a.is_established() && a.is_tdtcp());
    assert_eq!(a.conn().paths().len(), if per_tdn_state { usize::from(num_tdns) } else { 1 });
    a
}

/// Apply one op to a connection; returns the updated simulated clock.
fn apply_op(conn: &mut TdtcpConnection, op: &Op, mut now_us: u64) -> u64 {
    let now = SimTime::from_micros(now_us);
    match *op {
        Op::Poll => {
            // Drain at most a window's worth to bound the test.
            for _ in 0..64 {
                if conn.poll_send(now).is_none() {
                    break;
                }
            }
        }
        Op::Notify(tdn) => conn.on_notification(now, TdnId(tdn)),
        Op::Ack {
            ack_kmss,
            sack,
            ack_tdn,
        } => {
            let mut seg = Segment::new(FlowId(1), tcp::Direction::AckPath);
            seg.flags.ack = true;
            seg.ack = SeqNum(1) + ack_kmss * MSS;
            seg.wnd = 1 << 22;
            seg.ack_tdn = Some(TdnId(ack_tdn));
            if let Some((l, r)) = sack {
                let mut sb = SackBlocks::EMPTY;
                sb.push(SeqNum(1) + l * MSS, SeqNum(1) + r * MSS);
                seg.sack = sb;
            }
            conn.on_segment(now, &seg);
        }
        Op::Timer => {
            if let Some(t) = conn.next_timer() {
                let fire = t.as_micros().max(now_us) + 1;
                now_us = fire;
                conn.on_timer(SimTime::from_micros(fire));
            }
        }
    }
    now_us
}

testkit::props! {
    #[cases(64)]
    fn random_op_sequences_keep_invariants(
        input in testkit::prop::tuple2(arb_shape(), vec_of(arb_op(), 1..120))
    ) {
        let (shape, ops) = input;
        let mut conn = establish(shape);
        let mut now_us = 200u64;
        let mut last_acked = 0u64;
        for op in &ops {
            now_us += 37;
            now_us = apply_op(&mut conn, op, now_us);

            // --- invariants ---
            // Sequence progress is monotone.
            let acked = conn.stats().bytes_acked;
            tk_assert!(acked >= last_acked);
            last_acked = acked;
            // The current TDN is always indexable.
            let machine = conn.conn();
            let cur = machine.current();
            tk_assert!(cur.index() < machine.paths().len().max(1) + 256);
            let _ = machine.path(cur); // must not panic
            // Per-TDN pipes never exceed the total outstanding.
            let total = machine.packets_out();
            let mut per = 0;
            for i in 0..machine.paths().len() {
                per += machine.pipe_bytes(TdnId(i as u8)) / MSS;
            }
            // pipe excludes lost/sacked so the partition is <= total
            // (plus retransmissions in flight, bounded by total).
            tk_assert!(per <= total * 2 + 2);
            // The flat-state ablation never grows or leaves set 0.
            if !shape.1 {
                tk_assert_eq!(machine.paths().len(), 1);
                tk_assert_eq!(cur, TdnId::ZERO);
            }
        }
    }

    // Stats counters are monotone under any op sequence.
    #[cases(64)]
    fn counters_monotone(
        input in testkit::prop::tuple2(arb_shape(), vec_of(arb_op(), 1..80))
    ) {
        let (shape, ops) = input;
        let mut conn = establish(shape);
        let mut now_us = 200u64;
        let mut prev = *conn.stats();
        for op in &ops {
            now_us += 53;
            let now = SimTime::from_micros(now_us);
            match *op {
                Op::Poll => { let _ = conn.poll_send(now); }
                Op::Notify(t) => conn.on_notification(now, TdnId(t)),
                Op::Ack { ack_kmss, .. } => {
                    let mut seg = Segment::new(FlowId(1), tcp::Direction::AckPath);
                    seg.flags.ack = true;
                    seg.ack = SeqNum(1) + ack_kmss * MSS;
                    seg.wnd = 1 << 22;
                    conn.on_segment(now, &seg);
                }
                Op::Timer => conn.on_timer(now),
            }
            let s = *conn.stats();
            tk_assert!(s.bytes_sent >= prev.bytes_sent);
            tk_assert!(s.retransmits >= prev.retransmits);
            tk_assert!(s.tdn_switches >= prev.tdn_switches);
            tk_assert!(s.segs_received >= prev.segs_received);
            prev = s;
        }
    }

    // Gen-tagged TDN updates are idempotent and commutative up to the
    // newest generation: delivering the same notification set in any
    // order, with any amount of duplication, leaves the connection on
    // the same TDN, and every non-record delivery is discarded as
    // stale. This is the endpoint half of the fault-tolerance story —
    // the network may duplicate or reorder notifications freely.
    #[cases(64)]
    fn tdn_updates_idempotent(
        input in tuple3(
            range(1u8..3),
            vec_of(range(0u8..4), 1..16),
            vec_of(range(0usize..1_000), 0..48),
        )
    ) {
        // (The flat-state ablation ignores notifications altogether; it
        // has no update to be idempotent about.)
        let (num_tdns, tdns, picks) = input;
        let establish = || establish((num_tdns, true));
        // Delivery order: arbitrary picks (with repeats) into the base
        // set, then every index once so nothing is permanently lost.
        let mut order: Vec<usize> = picks.iter().map(|p| p % tdns.len()).collect();
        order.extend(0..tdns.len());

        let mut inorder = establish();
        let mut shuffled = establish();
        let mut now_us = 200u64;
        for (i, &t) in tdns.iter().enumerate() {
            now_us += 11;
            inorder.on_tdn_notification(SimTime::from_micros(now_us), TdnId(t), i as u64);
        }
        let mut expected_stale = 0u64;
        let mut max_gen: Option<u64> = None;
        for &i in &order {
            now_us += 11;
            shuffled.on_tdn_notification(
                SimTime::from_micros(now_us),
                TdnId(tdns[i]),
                i as u64,
            );
            if max_gen.is_some_and(|m| i as u64 <= m) {
                expected_stale += 1;
            } else {
                max_gen = Some(i as u64);
            }
        }
        // Both converge on the newest generation's TDN...
        tk_assert_eq!(inorder.conn().current(), TdnId(*tdns.last().unwrap()));
        tk_assert_eq!(shuffled.conn().current(), inorder.conn().current());
        // ...and every duplicate / out-of-order delivery was discarded.
        tk_assert_eq!(shuffled.stats().stale_notifies, expected_stale);
        tk_assert_eq!(inorder.stats().stale_notifies, 0);

        // Redelivering the whole set changes nothing but the stale count.
        let before = shuffled.conn().current();
        let switches = shuffled.stats().tdn_switches;
        for &i in &order {
            now_us += 11;
            shuffled.on_tdn_notification(
                SimTime::from_micros(now_us),
                TdnId(tdns[i]),
                i as u64,
            );
        }
        tk_assert_eq!(shuffled.conn().current(), before);
        tk_assert_eq!(shuffled.stats().tdn_switches, switches);
        tk_assert_eq!(
            shuffled.stats().stale_notifies,
            expected_stale + order.len() as u64
        );
    }

    // New with the testkit port: connection evolution is a pure function
    // of the op sequence — replaying identical ops on a fresh connection
    // reproduces byte-identical stats digests at every step. This is the
    // per-connection half of the golden-trace determinism guarantee.
    #[cases(64)]
    fn replay_is_deterministic(
        input in testkit::prop::tuple2(arb_shape(), vec_of(arb_op(), 1..100))
    ) {
        let (shape, ops) = input;
        let mut a = establish(shape);
        let mut b = establish(shape);
        let (mut now_a, mut now_b) = (200u64, 200u64);
        for op in &ops {
            now_a += 37;
            now_b += 37;
            now_a = apply_op(&mut a, op, now_a);
            now_b = apply_op(&mut b, op, now_b);
            tk_assert_eq!(now_a, now_b, "timer schedules must agree");
            tk_assert_eq!(
                a.stats().digest(),
                b.stats().digest(),
                "stats diverged after {op:?}"
            );
            tk_assert_eq!(a.conn().current(), b.conn().current());
            tk_assert_eq!(a.conn().packets_out(), b.conn().packets_out());
        }
    }
}
