//! The §3.5 generality scenario: satellite links with a periodic
//! strong/weak signal pattern, backed by ground-station fiber.
//!
//! ```sh
//! cargo run --release --example satellite
//! ```
//!
//! "Satellite signal coverage has a periodic strong-weak pattern as
//! satellites orbit the earth. Satellite links are used if a strong
//! signal can be detected. When the signal falls weak, fiber links
//! between ground stations are often used as a backup. At any time, only
//! one link is selected. TDTCP is particularly suitable for a network
//! with this pattern." — §3.5
//!
//! TDN 0 = ground fiber (1 Gbps, 30 ms RTT via distant ground stations),
//! TDN 1 = satellite pass (400 Mbps, 10 ms RTT overhead link). The
//! "schedule" is the orbit: 800 ms satellite passes alternating with
//! 1.6 s fiber fallback, with a 50 ms handover blackout.

use rdcn::{Emulator, NetConfig, NotifyConfig, Schedule, TdnParams, VoqConfig};
use simcore::{SimDuration, SimTime};
use tcp::cc::{CcConfig, Cubic};
use tcp::rtt::RttConfig;
use tcp::{Config, Connection, FlowId, Transport};
use tdtcp::{TdtcpConfig, TdtcpConnection};
use wire::TdnId;

fn satellite_net() -> NetConfig {
    let schedule = Schedule {
        day_len: SimDuration::from_millis(800),
        night_len: SimDuration::from_millis(50),
        // Orbit: fiber, fiber, satellite pass.
        days: vec![TdnId(0), TdnId(0), TdnId(1)],
    };
    let guard_band = schedule.slot_len() / 2;
    NetConfig {
        tdns: vec![
            TdnParams {
                rate_bps: 1_000_000_000,
                one_way: SimDuration::from_millis(15),
                jitter: Some((0.1, SimDuration::from_micros(300))),
            },
            TdnParams {
                rate_bps: 400_000_000,
                one_way: SimDuration::from_millis(5),
                jitter: Some((0.1, SimDuration::from_micros(300))),
            },
        ],
        schedule,
        voq: VoqConfig {
            cap_pkts: 2048,
            ecn_threshold: None,
        },
        notify: NotifyConfig::optimized(),
        circuit_marking: false,
        retcpdyn: false,
        host_rate_bps: 10_000_000_000,
        seed: 42,
        faults: rdcn::FaultPlan::default(),
        impair: rdcn::ImpairPlan::default(),
        clock: rdcn::ClockPlan::default(),
        guard_band,
    }
}

fn base_tcp_config() -> Config {
    Config {
        mss: 1448, // WAN MTU, not data center jumbo frames
        recv_buf: 16 << 20,
        rtt: RttConfig {
            min_rto: SimDuration::from_millis(200), // true Linux floor at WAN scale
            max_rto: SimDuration::from_secs(60),
            initial_rto: SimDuration::from_secs(1),
        },
        ..Config::default()
    }
}

fn main() {
    let net = satellite_net();
    let horizon = SimTime::from_secs(20);
    let cc = CcConfig {
        mss: 1448,
        init_cwnd_pkts: 10,
        max_cwnd: 64 << 20,
    };

    // TDTCP with per-link state.
    let tdtcp_factory: rdcn::EndpointFactory = Box::new(move |i| {
        let cfg = TdtcpConfig {
            tcp: {
                let mut c = base_tcp_config();
                c.pacing = true;
                c
            },
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
    // Single-path CUBIC for contrast.
    let cubic_factory: rdcn::EndpointFactory = Box::new(move |i| {
        let cfg = base_tcp_config();
        (
            Box::new(Connection::connect(
                FlowId(i as u32),
                cfg.clone(),
                Box::new(Cubic::new(cc)),
                SimTime::ZERO,
            )) as Box<dyn Transport>,
            Box::new(Connection::listen(FlowId(i as u32), cfg, Box::new(Cubic::new(cc))))
                as Box<dyn Transport>,
        )
    });

    println!("satellite/fiber alternation, 1 flow, 20 s simulated:");
    println!("  TDN0 fiber    : 1 Gbps, 30 ms RTT (1.6 s per cycle)");
    println!("  TDN1 satellite: 400 Mbps, 10 ms RTT (800 ms passes)");
    for (name, factory) in [("tdtcp", tdtcp_factory), ("cubic", cubic_factory)] {
        let res = Emulator::new(net.clone(), 1, factory).run(horizon);
        let gbps = res.total_acked() as f64 * 8.0 / horizon.as_nanos() as f64;
        println!(
            "  {name:>6}: {:>12} bytes acked ({gbps:.3} Gbps), {} rtos, {} spurious retx",
            res.total_acked(),
            res.sender_stats[0].rtos,
            res.receiver_stats[0].spurious_retransmits,
        );

    }
    println!("(per-path state lets TDTCP resume each link at its own operating point)");
}
