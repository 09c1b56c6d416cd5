//! End-to-end emulator tests: real TCP flows over the emulated RDCN.
//! These pin down the dynamics every figure depends on: flows complete,
//! throughput lands between the packet-only floor and the optimal
//! ceiling, VOQs drain during optical days, and runs are deterministic.

use rdcn::{analytic, Emulator, NetConfig};
use simcore::{SimDuration, SimTime};
use tcp::cc::{CcConfig, Cubic, Dctcp};
use tcp::{Config, Connection, FlowId, Transport};

fn cubic_factory(
    n_bytes: u64,
    ecn: bool,
) -> impl FnMut(usize) -> (Box<dyn Transport>, Box<dyn Transport>) {
    move |i| {
        let cfg = Config {
            bytes_to_send: n_bytes,
            ecn,
            ..Config::default()
        };
        let cc = CcConfig::default();
        let mk = |c: CcConfig| -> Box<dyn tcp::CongestionControl> {
            if ecn {
                Box::new(Dctcp::new(c))
            } else {
                Box::new(Cubic::new(c))
            }
        };
        let s = Connection::connect(FlowId(i as u32), cfg.clone(), mk(cc), SimTime::ZERO);
        let r = Connection::listen(FlowId(i as u32), cfg, mk(cc));
        (
            Box::new(s) as Box<dyn Transport>,
            Box::new(r) as Box<dyn Transport>,
        )
    }
}

#[test]
fn single_flow_bulk_completes() {
    let cfg = NetConfig::paper_baseline();
    let emu = Emulator::new(cfg, 1, Box::new(cubic_factory(2_000_000, false)));
    let res = emu.run(SimTime::from_millis(50));
    assert_eq!(res.receiver_stats[0].bytes_delivered, 2_000_000, "{res:?}");
    assert_eq!(res.sender_stats[0].bytes_acked, 2_000_000);
}

#[test]
fn sixteen_flows_share_fairly_enough() {
    let cfg = NetConfig::paper_baseline();
    let emu = Emulator::new(cfg, 16, Box::new(cubic_factory(u64::MAX, false)));
    let res = emu.run(SimTime::from_millis(20));
    let per_flow: Vec<u64> = res.receiver_stats.iter().map(|s| s.bytes_delivered).collect();
    let total: u64 = per_flow.iter().sum();
    assert!(total > 0);
    // Every flow makes progress (no starvation).
    for (i, &b) in per_flow.iter().enumerate() {
        assert!(b > 0, "flow {i} starved: {per_flow:?}");
    }
}

#[test]
fn cubic_lands_between_packet_only_and_optimal() {
    // The central Fig. 2 observation: CUBIC beats nothing below the
    // packet-only floor by much, and sits far below optimal.
    let cfg = NetConfig::paper_baseline();
    let horizon = SimTime::from_millis(20);
    let emu = Emulator::new(cfg.clone(), 16, Box::new(cubic_factory(u64::MAX, false)));
    let res = emu.run(horizon);
    let measured = res.total_acked() as f64;
    let optimal = analytic::optimal_bytes(&cfg, horizon);
    let packet_only = analytic::packet_only_bytes(&cfg, horizon);
    assert!(
        measured < optimal,
        "measured {measured:.0} must be below optimal {optimal:.0}"
    );
    assert!(
        measured > packet_only * 0.5,
        "measured {measured:.0} vs packet-only {packet_only:.0}: too low"
    );
}

#[test]
fn voq_drains_during_optical_days() {
    // Appendix A.3: with CUBIC the VOQ stays occupied during packet days
    // and is nearly empty during optical days (service rate >> arrival).
    let cfg = NetConfig::paper_baseline();
    let sched = cfg.schedule.clone();
    let mut emu = Emulator::new(cfg, 16, Box::new(cubic_factory(u64::MAX, false)));
    emu.set_sample_interval(SimDuration::from_micros(2));
    let res = emu.run(SimTime::from_millis(15));
    // Average occupancy over packet vs optical days, skipping warmup.
    let (mut pkt_sum, mut pkt_n, mut opt_sum, mut opt_n) = (0.0, 0u64, 0.0, 0u64);
    let start = SimTime::from_millis(5);
    let mut t = start;
    while t < SimTime::from_millis(15) {
        let v = res.voq_ab.value_at(t, 0.0);
        match sched.phase_at(t).active() {
            Some(wire::TdnId(0)) => {
                pkt_sum += v;
                pkt_n += 1;
            }
            Some(_) => {
                opt_sum += v;
                opt_n += 1;
            }
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

#[test]
fn dctcp_keeps_voq_below_cubic() {
    // With 16 flows the VOQ is floor-limited (16 x 2-MSS minimum windows
    // exceed cap + BDP) and every CCA pins the queue — the regime of
    // Fig. 7b where only TDTCP escapes. Use 4 flows so DCTCP's ECN
    // back-off has room to show.
    let run = |ecn: bool| {
        let mut cfg = NetConfig::paper_baseline();
        cfg.voq.ecn_threshold = if ecn { Some(4) } else { None };
        let mut emu = Emulator::new(cfg, 4, Box::new(cubic_factory(u64::MAX, ecn)));
        emu.set_sample_interval(SimDuration::from_micros(2));
        let res = emu.run(SimTime::from_millis(15));
        let from = SimTime::from_millis(5);
        let (sum, n) = res
            .voq_ab
            .points()
            .filter(|(t, _)| *t >= from)
            .fold((0.0, 0u32), |(s, n), (_, v)| (s + v, n + 1));
        (sum / n as f64, res.ce_marks_ab)
    };
    let (cubic_avg, cubic_marks) = run(false);
    let (dctcp_avg, dctcp_marks) = run(true);
    assert_eq!(cubic_marks, 0);
    assert!(dctcp_marks > 0, "DCTCP flows must see CE marks");
    assert!(
        dctcp_avg < cubic_avg,
        "DCTCP mean VOQ {dctcp_avg:.2} should undercut CUBIC {cubic_avg:.2}"
    );
}

#[test]
fn deterministic_runs() {
    let run = || {
        let cfg = NetConfig::paper_baseline();
        let emu = Emulator::new(cfg, 4, Box::new(cubic_factory(u64::MAX, false)));
        let res = emu.run(SimTime::from_millis(10));
        (res.total_acked(), res.drops_ab, res.events)
    };
    assert_eq!(run(), run());
}

#[test]
fn day_records_cover_run() {
    let cfg = NetConfig::paper_baseline();
    let mut emu = Emulator::new(cfg.clone(), 4, Box::new(cubic_factory(u64::MAX, false)));
    emu.set_sample_interval(SimDuration::from_micros(2));
    let res = emu.run(SimTime::from_millis(10));
    // 10ms / 200us slots = 50 days; the last may be unfinished.
    assert!(res.day_records.len() >= 48, "{}", res.day_records.len());
    for (i, rec) in res.day_records.iter().enumerate() {
        assert_eq!(rec.day, i as u64);
        assert_eq!(rec.tdn, cfg.schedule.day_tdn(i as u64));
    }
    // Optical days exist in the record (1 in 7).
    assert!(res.day_records.iter().any(|r| r.tdn == wire::TdnId(1)));
}

#[test]
fn drops_occur_with_bursty_cubic_and_tiny_voq() {
    let mut cfg = NetConfig::paper_baseline();
    cfg.voq.cap_pkts = 4;
    let emu = Emulator::new(cfg, 16, Box::new(cubic_factory(u64::MAX, false)));
    let res = emu.run(SimTime::from_millis(10));
    assert!(res.drops_ab > 0, "a 4-packet VOQ under 16 bursty flows drops");
    // And the flows survive it.
    assert!(res.total_acked() > 0);
}
