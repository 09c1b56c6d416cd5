//! Workspace-level integration tests: real transports over the emulated
//! RDCN, the behaviours no single crate can check alone — transfer
//! integrity for every variant, variant interop and downgrade between
//! TDTCP and plain TCP endpoints, full-run determinism across the whole
//! stack, the paper's headline orderings, and the dynamics every figure
//! rests on (fair sharing, VOQs that drain on optical days, DCTCP's
//! shallower queue, day records, drops under a tiny VOQ).

use bench::{Variant, Workload, ALL_VARIANTS};
use rdcn::{analytic, Emulator, EndpointFactory, NetConfig, RunResult};
use simcore::{SimDuration, SimTime};
use std::cell::Cell;
use std::rc::Rc;
use tcp::cc::{CcConfig, Cubic};
use tcp::{FlowId, Segment, Transport};
use tdtcp::{TdtcpConfig, TdtcpConnection};
use tdtcp_repro::harness::{play, Observer, Peer, Step, Tap, FLOW};
use wire::TdnId;

/// Every variant moves every byte of a finite transfer, exactly once.
#[test]
fn all_variants_complete_finite_transfers() {
    for v in ALL_VARIANTS {
        let mut net = NetConfig::paper_baseline();
        v.apply_net_config(&mut net);
        let total: u64 = 3_000_000;
        let emu = Emulator::new(net, 2, v.factory(total));
        let res = emu.run(SimTime::from_millis(200));
        for (i, s) in res.sender_stats.iter().enumerate() {
            assert_eq!(
                s.bytes_acked, total,
                "{} flow {i}: acked {} of {total}",
                v.label(),
                s.bytes_acked
            );
        }
        for (i, r) in res.receiver_stats.iter().enumerate() {
            assert_eq!(
                r.bytes_delivered, total,
                "{} flow {i}: delivered {} of {total}",
                v.label(),
                r.bytes_delivered
            );
        }
    }
}

/// A flow's transport names and its first segment.
fn first_words(
    mut s: Box<dyn Transport>,
    r: Box<dyn Transport>,
    now: SimTime,
) -> (&'static str, &'static str, Option<tcp::Segment>) {
    (s.variant(), r.variant(), s.poll_send(now))
}

/// One builder: for every variant, the tails family's
/// `tails::make_endpoints` builds what `Variant::endpoints` builds — the
/// same transport, sending the same SYN (DCTCP's asks for ECN).
#[test]
fn tails_builds_the_transport_each_variant_names() {
    let net = NetConfig::paper_baseline();
    let now = SimTime::from_micros(7);
    let mut wrong = Vec::new();
    for v in ALL_VARIANTS {
        let (s, r) = v.endpoints(3, 100_000, Some(bench::variants::watchdog_for(&net)), now);
        let direct = first_words(s, r, now);
        let (s, r) = bench::tails::make_endpoints(v, &net, 3, 100_000, now);
        let tails = first_words(s, r, now);
        if tails != direct {
            wrong.push((v.label(), tails.0));
        }
    }
    assert!(wrong.is_empty(), "(variant, what tails built): {wrong:?}");
}

/// Identical seeds reproduce every counter bit-for-bit across the whole
/// stack (DESIGN.md §5), for the paper's 16 flows and for smaller runs
/// of four CUBIC and two MPTCP flows over 10 ms.
#[test]
fn whole_stack_determinism() {
    let runs = [
        Workload::bulk(Variant::Tdtcp, SimTime::from_millis(8)),
        Workload::bulk(Variant::Cubic, SimTime::from_millis(8)),
        Workload::bulk(Variant::Mptcp, SimTime::from_millis(8)),
        Workload { flows: 4, ..Workload::bulk(Variant::Cubic, SimTime::from_millis(10)) },
        Workload { flows: 2, ..Workload::bulk(Variant::Mptcp, SimTime::from_millis(10)) },
    ];
    for wl in runs {
        let run = || {
            let res = wl.run(&NetConfig::paper_baseline());
            (
                res.total_acked(),
                res.drops_ab,
                res.events,
                res.sender_stats.iter().map(|s| s.retransmits).sum::<u64>(),
            )
        };
        let (label, flows) = (wl.variant.label(), wl.flows);
        assert_eq!(run(), run(), "{label} ({flows} flows) must be deterministic");
    }
}

/// A TDTCP initiator talking to a plain TCP listener downgrades cleanly
/// (§4.2) and still completes its transfer.
#[test]
fn tdtcp_downgrades_against_plain_tcp() {
    let net = NetConfig::paper_baseline();
    let cc = CcConfig::default();
    let total: u64 = 1_000_000;
    let factory: rdcn::EndpointFactory = Box::new(move |i| {
        let mut tdtcp_cfg = TdtcpConfig::default();
        tdtcp_cfg.tcp.bytes_to_send = total;
        let template = Cubic::new(cc);
        let sender =
            TdtcpConnection::connect(FlowId(i as u32), tdtcp_cfg, &template, SimTime::ZERO);
        // The peer speaks plain TCP: no TD_CAPABLE echo.
        let listener = tcp::Connection::listen(
            FlowId(i as u32),
            tcp::Config::default(),
            Box::new(Cubic::new(cc)),
        );
        (
            Box::new(sender) as Box<dyn Transport>,
            Box::new(listener) as Box<dyn Transport>,
        )
    });
    let res = Emulator::new(net, 1, factory).run(SimTime::from_millis(200));
    assert_eq!(res.receiver_stats[0].bytes_delivered, total);
    assert_eq!(
        res.sender_stats[0].tdn_switches, 0,
        "downgraded connection ignores notifications"
    );
}

/// The headline ordering of §5.2 holds end to end: TDTCP > reTCP-class >
/// CUBIC > MPTCP, all between packet-only and optimal. MPTCP's strict
/// subflow isolation makes it the worst performer, below even
/// single-path CUBIC (§2.2, Fig. 2), yet it moves data.
#[test]
fn headline_ordering() {
    let horizon = SimTime::from_millis(25);
    let net = NetConfig::paper_baseline();
    let acked = |v: Variant| Workload::bulk(v, horizon).run(&net).total_acked() as f64;
    let tdtcp = acked(Variant::Tdtcp);
    let cubic = acked(Variant::Cubic);
    let mptcp = acked(Variant::Mptcp);
    let optimal = rdcn::analytic::optimal_bytes(&net, horizon);
    assert!(
        tdtcp > cubic * 1.08,
        "tdtcp {tdtcp:.0} must clearly beat cubic {cubic:.0}"
    );
    assert!(
        cubic > mptcp * 1.05,
        "cubic {cubic:.0} must beat mptcp {mptcp:.0}"
    );
    assert!(mptcp > 0.0);
    assert!(tdtcp < optimal);
}

/// The headline result (§1, §5.2) with TDTCP endpoints that carry no
/// notification watchdog: per-TDN state lets TDTCP resume each network's
/// window from a checkpoint instead of re-probing, which beats
/// single-path CUBIC by double digits and exploits the optical capacity
/// beyond any packet-only strategy. (`headline_ordering` runs the
/// figures' TDTCP, whose watchdog makes it a different run.)
#[test]
fn tdtcp_beats_cubic_headline() {
    let horizon = SimTime::from_millis(25);
    let net = NetConfig::paper_baseline();
    let acked = |v: Variant| {
        let emu = Emulator::new(net.clone(), 16, v.factory(u64::MAX));
        emu.run(horizon).total_acked() as f64
    };
    let (cubic, tdtcp) = (acked(Variant::Cubic), acked(Variant::Tdtcp));
    let optimal = analytic::optimal_bytes(&net, horizon);
    let packet_only = analytic::packet_only_bytes(&net, horizon);
    let gain = tdtcp / cubic - 1.0;
    // The paper reports 24% over CUBIC in this setting; demand the right
    // shape: a double-digit improvement, bounded by optimal.
    assert!(gain > 0.10, "TDTCP gain over CUBIC only {:.1}%", gain * 100.0);
    assert!(tdtcp < optimal);
    assert!(tdtcp > packet_only, "tdtcp {tdtcp:.0} vs packet-only {packet_only:.0}");
}

/// The Fig. 10 shape holds: TDTCP's circuit days are almost always free
/// of spurious retransmissions while CUBIC pays at most transitions.
#[test]
fn fig10_shape() {
    let fig = bench::experiments::fig10::run(SimTime::from_millis(25));
    let tdtcp = fig
        .spurious
        .iter()
        .find(|c| c.label == "tdtcp")
        .expect("tdtcp measured");
    let cubic = fig
        .spurious
        .iter()
        .find(|c| c.label == "cubic")
        .expect("cubic measured");
    assert!(
        tdtcp.frac_zero >= 0.8,
        "paper: ~80% of TDTCP optical days are clean; got {:.2}",
        tdtcp.frac_zero
    );
    assert!(
        cubic.frac_zero < tdtcp.frac_zero,
        "CUBIC pays spurious retransmissions more often than TDTCP"
    );
    assert!(cubic.p90 >= 1.0);
}

/// Fig. 11's direction holds: notification optimizations buy TDTCP
/// meaningful throughput.
#[test]
fn fig11_direction() {
    let fig = bench::experiments::fig11::run(SimTime::from_millis(25));
    assert!(
        fig.gain() > 0.05,
        "optimizations should be worth >5%, got {:.1}%",
        fig.gain() * 100.0
    );
}

/// A three-TDN schedule (one fast, one medium, one slow path) exercises
/// runtime multi-TDN state end to end: TDTCP allocates and uses a state
/// set per TDN and still beats CUBIC.
#[test]
fn three_tdn_schedule() {
    use rdcn::{Schedule, TdnParams};
    use simcore::SimDuration;
    use wire::TdnId;
    let mut net = NetConfig::paper_baseline();
    net.tdns = vec![
        TdnParams::packet_10g(),
        TdnParams::optical_100g(),
        TdnParams {
            rate_bps: 40_000_000_000,
            one_way: SimDuration::from_micros(30),
            jitter: None,
        },
    ];
    net.schedule = Schedule {
        day_len: SimDuration::from_micros(180),
        night_len: SimDuration::from_micros(20),
        days: vec![TdnId(0), TdnId(0), TdnId(2), TdnId(0), TdnId(0), TdnId(1)],
    };
    let cc = CcConfig::default();
    let mk_tdtcp: rdcn::EndpointFactory = Box::new(move |i| {
        let cfg = TdtcpConfig {
            num_tdns: 3,
            ..TdtcpConfig::default()
        };
        let template = Cubic::new(cc);
        (
            Box::new(TdtcpConnection::connect(
                FlowId(i as u32),
                cfg.clone(),
                &template,
                SimTime::ZERO,
            )) as Box<dyn Transport>,
            Box::new(TdtcpConnection::listen(FlowId(i as u32), cfg, &template))
                as Box<dyn Transport>,
        )
    });
    let horizon = SimTime::from_millis(15);
    let tdtcp = Emulator::new(net.clone(), 8, mk_tdtcp).run(horizon);
    let cubic = Workload {
        flows: 8,
        ..Workload::bulk(Variant::Cubic, horizon)
    }
    .run(&net);
    assert!(tdtcp.total_acked() > 0);
    assert!(
        tdtcp.total_acked() as f64 > cubic.total_acked() as f64 * 1.02,
        "3-TDN: tdtcp {} vs cubic {}",
        tdtcp.total_acked(),
        cubic.total_acked()
    );
    // All three TDN state sets saw use: switches counted per flow.
    assert!(tdtcp.sender_stats[0].tdn_switches > 10);
}

/// Reinjection ablation: with it on, stranded subflow ACKs trigger
/// connection-level reinjection, and MPTCP pays duplicate transmissions
/// to shorten data-level stalls; with it off, no reinjection ever occurs
/// and progress waits for the stranded subflow's next day. (In this
/// model the two roughly trade off — the paper frames reinjection as the
/// stall-recovery mechanism, not a free win.)
#[test]
fn mptcp_reinjection_ablation() {
    use mptcp::{MptcpConfig, MptcpConnection};
    let horizon = SimTime::from_millis(20);
    let run = |reinject: bool| {
        let mut net = NetConfig::paper_baseline();
        Variant::Mptcp.apply_net_config(&mut net);
        let factory: rdcn::EndpointFactory = Box::new(move |i| {
            let cfg = MptcpConfig {
                reinject,
                ..MptcpConfig::default()
            };
            let template = Cubic::new(CcConfig::default());
            (
                Box::new(MptcpConnection::connect(
                    FlowId(i as u32),
                    cfg.clone(),
                    &template,
                    SimTime::ZERO,
                )) as Box<dyn Transport>,
                Box::new(MptcpConnection::listen(FlowId(i as u32), cfg, &template))
                    as Box<dyn Transport>,
            )
        });
        let res = Emulator::new(net, 8, factory).run(horizon);
        let reinj: u64 = res.sender_stats.iter().map(|s| s.reinjections).sum();
        let dups: u64 = res.receiver_stats.iter().map(|s| s.dup_segs_received).sum();
        (res.total_acked(), reinj, dups)
    };
    let (acked_with, reinj_with, dups_with) = run(true);
    let (acked_without, reinj_without, dups_without) = run(false);
    assert!(reinj_with > 0, "reinjection engages under stalls");
    assert!(dups_with > 0, "reinjected ranges arrive twice");
    assert_eq!(reinj_without, 0);
    let _ = dups_without; // data-level duplicates also arise from subflow
                          // retransmissions, so their count is not a
                          // reinjection-only signal.
    // Both configurations make progress within 2x of each other.
    let ratio = acked_with as f64 / acked_without as f64;
    assert!((0.5..2.0).contains(&ratio), "ratio {ratio:.2}");
}

/// A data range that reaches an MPTCP receiver on both subflows — a
/// reinjected copy whose original also landed — is a duplicate at the
/// data level, though each subflow sees its copy once and counts nothing.
#[test]
fn mptcp_receiver_counts_data_level_duplicates() {
    use mptcp::{MptcpConfig, MptcpConnection};
    let template = Cubic::new(CcConfig::default());
    let mut rcv = MptcpConnection::listen(FLOW, MptcpConfig::default(), &template);
    for tdn in [0, 1] {
        rcv.on_segment(SimTime::ZERO, &Peer::syn().pin(tdn));
        rcv.on_segment(SimTime::ZERO, &Peer::data(1, 1000).pin(tdn).dsn(0));
    }
    let stats = rcv.stats();
    assert_eq!(stats.bytes_delivered, 1000, "{stats:?}");
    assert_eq!(stats.dup_segs_received, 1, "the second copy is a duplicate: {stats:?}");
}

/// The MPTCP option a segment carries, read from its header bytes:
/// `(subtype, option length)`. MP_CAPABLE is subtype 0 and DSS 2
/// (RFC 8684 §3.1, §3.3).
fn mptcp_option(seg: &Segment) -> Option<(u8, u8)> {
    const IP: usize = 20;
    let bytes = seg.to_wire(0x0A00_0001, 0x0A00_0002, 40_000, 5_001);
    let header = usize::from(bytes[IP + 12] >> 4) * 4;
    let mut opts = &bytes[IP + 20..IP + header];
    while let [kind, rest @ ..] = opts {
        match (*kind, rest) {
            (0, _) => break,
            (1, _) => opts = rest,
            (wire::options::MPTCP_KIND, [len, subtype, ..]) => return Some((subtype >> 4, *len)),
            (_, [len, ..]) => opts = &opts[usize::from(*len)..],
            _ => break,
        }
    }
    None
}

/// An MPTCP initiator opens as RFC 8684 §3.1 says: MP_CAPABLE without a
/// key on its SYN (4 B), with both keys on its third ACK (20 B), and a
/// DSS mapping (18 B) only on the data that follows.
#[test]
fn mptcp_initiator_opens_with_mp_capable() {
    use mptcp::{MptcpConfig, MptcpConnection};
    let template = Cubic::new(CcConfig::default());
    let mut snd = MptcpConnection::connect(FLOW, MptcpConfig::default(), &template, SimTime::ZERO);
    play(
        &mut snd,
        SimTime::ZERO,
        &[
            Step::Out(0, |s| s.flags.syn && !s.flags.ack && mptcp_option(s) == Some((0, 4))),
            Step::In(10, Peer::syn().acking().pin(0)),
            Step::Out(10, |s| {
                !s.flags.syn && !s.has_payload() && mptcp_option(s) == Some((0, 20))
            }),
            Step::Out(10, |s| s.has_payload() && mptcp_option(s) == Some((2, 18))),
        ],
    );
}

/// An MPTCP listener answers an MP_CAPABLE SYN with a SYN-ACK that
/// carries its key (12 B) and no DATA_ACK: RFC 8684 §3.1 puts no DSS on
/// the handshake. The third ACK draws nothing, and the first data draws
/// an ACK with the data ACK in a DSS (12 B).
#[test]
fn mptcp_syn_ack_carries_no_data_ack() {
    use mptcp::{MptcpConfig, MptcpConnection};
    let template = Cubic::new(CcConfig::default());
    let mut rcv = MptcpConnection::listen(FLOW, MptcpConfig::default(), &template);
    play(
        &mut rcv,
        SimTime::ZERO,
        &[
            Step::In(0, Peer::syn().pin(0).mp_capable()),
            Step::Out(0, |s| {
                s.flags.syn && s.flags.ack && s.data_ack().is_none() && mptcp_option(s) == Some((0, 12))
            }),
            Step::In(10, Peer::data(1, 0).acking().wnd(1 << 20).pin(0).mp_capable()),
            Step::Quiet(10),
            Step::In(20, Peer::data(1, 1000).acking().pin(0).dsn(0)),
            Step::Out(20, |s| s.data_ack() == Some(1000) && mptcp_option(s) == Some((2, 12))),
        ],
    );
}

/// An MPTCP receiver's ACK carries the connection-level data ACK, and the
/// wire keeps it: `to_wire` emits it in a DSS option and `from_wire`
/// restores it.
#[test]
fn mptcp_data_ack_survives_the_wire() {
    use mptcp::{MptcpConfig, MptcpConnection};
    let template = Cubic::new(CcConfig::default());
    let mut rcv = MptcpConnection::listen(FLOW, MptcpConfig::default(), &template);
    rcv.on_segment(SimTime::ZERO, &Peer::syn().pin(0));
    rcv.on_segment(SimTime::ZERO, &Peer::data(1, 1000).pin(0).dsn(0));
    let acks: Vec<Segment> = std::iter::from_fn(|| rcv.poll_send(SimTime::ZERO)).collect();
    assert!(acks.iter().any(|s| s.data_ack() == Some(1000)), "{acks:?}");
    for seg in &acks {
        let bytes = seg.to_wire(0x0A00_0002, 0x0A00_0001, 5_001, 40_000);
        let back = Segment::from_wire(&bytes, FLOW, seg.dir).expect("own encoding parses");
        assert_eq!((back.data_ack(), back.dss()), (seg.data_ack(), seg.dss()));
        assert_eq!((back.seq, back.ack, back.flags), (seg.seq, seg.ack, seg.flags));
    }
}

/// Paced single-path TCP runs to the horizon through the two-rack door. A
/// paced sender that is cwnd-blocked used to keep advertising its last
/// pacing release; the engine re-armed the host timer at that (past)
/// instant after every firing and `run` never returned. Bounded events
/// per simulated millisecond is the observable: bulk CUBIC on this
/// network costs ~10^5 events/ms, a spin costs all of them at one instant.
#[test]
fn paced_single_path_flows_reach_the_horizon() {
    let factory: rdcn::EndpointFactory = Box::new(|i| {
        let cfg = tcp::Config {
            pacing: true,
            ..tcp::Config::default()
        };
        let cubic = || Box::new(Cubic::new(CcConfig::default()));
        let flow = FlowId(i as u32);
        (
            Box::new(tcp::Connection::connect(flow, cfg.clone(), cubic(), SimTime::ZERO))
                as Box<dyn Transport>,
            Box::new(tcp::Connection::listen(flow, cfg, cubic())) as Box<dyn Transport>,
        )
    });
    let res = Emulator::new(NetConfig::paper_baseline(), 2, factory).run(SimTime::from_millis(5));
    assert!(res.total_acked() > 1_000_000, "paced flows made progress");
    assert!(res.events < 5_000_000, "{} events in 5 ms: timer spin", res.events);
}

/// One MPTCP flow moves every byte, counted at the connection level.
#[test]
fn mptcp_bulk_transfer_completes() {
    let res = Emulator::new(NetConfig::paper_baseline(), 1, Variant::Mptcp.factory(1_000_000))
        .run(SimTime::from_millis(100));
    let s = &res.sender_stats[0];
    assert_eq!(s.bytes_acked, 1_000_000, "all data acked at the connection level: {s:?}");
    assert_eq!(res.receiver_stats[0].bytes_delivered, 1_000_000);
}

/// Payload segments a sender put out, per pin: `[TDN 0, TDN 1, unpinned]`.
struct PerPin(Rc<Cell<[u64; 3]>>);

impl Observer for PerPin {
    fn segment_out(&mut self, _now: SimTime, seg: &Segment) {
        if seg.len > 0 {
            let mut n = self.0.get();
            n[seg.pin.map_or(2, |t| usize::from(t.0).min(2))] += 1;
            self.0.set(n);
        }
    }
}

/// Both subflows carry payload: the sender, tapped at the `Transport`
/// seam, puts data segments on the packet network (TDN 0) and on the
/// circuit (TDN 1), and no data goes out unpinned.
#[test]
fn mptcp_both_subflows_carry_data() {
    let sent = Rc::new(Cell::new([0u64; 3]));
    let counts = Rc::clone(&sent);
    let factory: EndpointFactory = Box::new(move |i| {
        let (host, r) = Variant::Mptcp.endpoints(i, u64::MAX, None, SimTime::ZERO);
        let observer = PerPin(Rc::clone(&counts));
        (Box::new(Tap { host, observer }) as Box<dyn Transport>, r as Box<dyn Transport>)
    });
    let res = Emulator::new(NetConfig::paper_baseline(), 1, factory).run(SimTime::from_millis(10));
    let [tdn0, tdn1, unpinned] = sent.get();
    assert!(tdn0 > 0 && tdn1 > 0, "payload segments: TDN 0 {tdn0}, TDN 1 {tdn1}");
    assert_eq!(unpinned, 0, "MPTCP pins every payload segment to a subflow's TDN");
    assert!(res.sender_stats[0].bytes_acked > 0);
    // Switch notifications reached the scheduler.
    assert!(res.sender_stats[0].tdn_switches > 0);
}

/// `flows` CUBIC flows of `bytes` each over `net` until `horizon`,
/// sampled every 2 µs when `sampled`.
fn cubic_run(net: NetConfig, flows: usize, bytes: u64, until: SimTime, sampled: bool) -> RunResult {
    let mut emu = Emulator::new(net, flows, Variant::Cubic.factory(bytes));
    if sampled {
        emu.set_sample_interval(SimDuration::from_micros(2));
    }
    emu.run(until)
}

#[test]
fn single_flow_bulk_completes() {
    let res = cubic_run(NetConfig::paper_baseline(), 1, 2_000_000, SimTime::from_millis(50), false);
    assert_eq!(res.receiver_stats[0].bytes_delivered, 2_000_000, "{res:?}");
    assert_eq!(res.sender_stats[0].bytes_acked, 2_000_000);
}

/// The central Fig. 2 observation: 16 CUBIC flows, every one of which
/// makes progress, land above half the packet-only floor and below
/// optimal.
#[test]
fn cubic_lands_between_packet_only_and_optimal() {
    let net = NetConfig::paper_baseline();
    let horizon = SimTime::from_millis(20);
    let res = cubic_run(net.clone(), 16, u64::MAX, horizon, false);
    let per_flow: Vec<u64> = res.receiver_stats.iter().map(|s| s.bytes_delivered).collect();
    for (i, &b) in per_flow.iter().enumerate() {
        assert!(b > 0, "flow {i} starved: {per_flow:?}");
    }
    let measured = res.total_acked() as f64;
    let optimal = analytic::optimal_bytes(&net, horizon);
    let packet_only = analytic::packet_only_bytes(&net, horizon);
    assert!(measured < optimal, "measured {measured:.0} must be below optimal {optimal:.0}");
    assert!(
        measured > packet_only * 0.5,
        "measured {measured:.0} vs packet-only {packet_only:.0}: too low"
    );
}

/// Appendix A.3: with CUBIC the VOQ stays occupied during packet days
/// and is nearly empty during optical days (service rate >> arrival).
#[test]
fn voq_drains_during_optical_days() {
    let net = NetConfig::paper_baseline();
    let sched = net.schedule.clone();
    let res = cubic_run(net, 16, u64::MAX, SimTime::from_millis(15), true);
    // Average occupancy over packet vs optical days, skipping warmup.
    let (mut pkt_sum, mut pkt_n, mut opt_sum, mut opt_n) = (0.0, 0u64, 0.0, 0u64);
    let mut t = SimTime::from_millis(5);
    while t < SimTime::from_millis(15) {
        let v = res.voq_ab.value_at(t, 0.0);
        match sched.phase_at(t).active() {
            Some(TdnId(0)) => (pkt_sum, pkt_n) = (pkt_sum + v, pkt_n + 1),
            Some(_) => (opt_sum, opt_n) = (opt_sum + v, opt_n + 1),
            None => {}
        }
        t += SimDuration::from_micros(5);
    }
    let pkt_avg = pkt_sum / pkt_n as f64;
    let opt_avg = opt_sum / opt_n as f64;
    assert!(
        opt_avg < pkt_avg,
        "optical-day VOQ {opt_avg:.2} should sit below packet-day {pkt_avg:.2}"
    );
}

/// With 16 flows the VOQ is floor-limited (16 x 2-MSS minimum windows
/// exceed cap + BDP) and every CCA pins the queue — the regime of
/// Fig. 7b where only TDTCP escapes. Four flows give DCTCP's ECN
/// back-off room to show.
#[test]
fn dctcp_keeps_voq_below_cubic() {
    let run = |variant: Variant| {
        let mut net = NetConfig::paper_baseline();
        net.voq.ecn_threshold = (variant == Variant::Dctcp).then_some(4);
        let mut emu = Emulator::new(net, 4, variant.factory(u64::MAX));
        emu.set_sample_interval(SimDuration::from_micros(2));
        let res = emu.run(SimTime::from_millis(15));
        let from = SimTime::from_millis(5);
        let late = res.voq_ab.points().filter(|(t, _)| *t >= from);
        let (sum, n) = late.fold((0.0, 0u32), |(s, n), (_, v)| (s + v, n + 1));
        (sum / n as f64, res.ce_marks_ab)
    };
    let (cubic_avg, cubic_marks) = run(Variant::Cubic);
    let (dctcp_avg, dctcp_marks) = run(Variant::Dctcp);
    assert_eq!(cubic_marks, 0);
    assert!(dctcp_marks > 0, "DCTCP flows must see CE marks");
    assert!(
        dctcp_avg < cubic_avg,
        "DCTCP mean VOQ {dctcp_avg:.2} should undercut CUBIC {cubic_avg:.2}"
    );
}

#[test]
fn day_records_cover_run() {
    let net = NetConfig::paper_baseline();
    let res = cubic_run(net.clone(), 4, u64::MAX, SimTime::from_millis(10), true);
    // 10ms / 200us slots = 50 days; the last may be unfinished.
    assert!(res.day_records.len() >= 48, "{}", res.day_records.len());
    for (i, rec) in res.day_records.iter().enumerate() {
        assert_eq!(rec.day, i as u64);
        assert_eq!(rec.tdn, net.schedule.day_tdn(i as u64));
    }
    // Optical days exist in the record (1 in 7).
    assert!(res.day_records.iter().any(|r| r.tdn == TdnId(1)));
}

#[test]
fn drops_occur_with_bursty_cubic_and_tiny_voq() {
    let mut net = NetConfig::paper_baseline();
    net.voq.cap_pkts = 4;
    let res = cubic_run(net, 16, u64::MAX, SimTime::from_millis(10), false);
    assert!(res.drops_ab > 0, "a 4-packet VOQ under 16 bursty flows drops");
    // And the flows survive it.
    assert!(res.total_acked() > 0);
}
