//! MPTCP behaviour over the emulated RDCN: transfers complete, subflow
//! pinning holds, reinjection unblocks stalls, and — the paper's central
//! claim about MPTCP — it underperforms single-path CUBIC in this
//! environment.

use mptcp::{MptcpConfig, MptcpConnection};
use rdcn::{Emulator, NetConfig};
use simcore::{SimDuration, SimTime};
use tcp::cc::{CcConfig, Cubic};
use tcp::{Config, Connection, FlowId, Transport};

fn mptcp_factory(
    bytes: u64,
    reinject: bool,
) -> impl FnMut(usize) -> (Box<dyn Transport>, Box<dyn Transport>) {
    move |i| {
        let cfg = MptcpConfig {
            bytes_to_send: bytes,
            reinject,
            ..MptcpConfig::default()
        };
        let template = Cubic::new(CcConfig::default());
        let s = MptcpConnection::connect(FlowId(i as u32), cfg.clone(), &template, SimTime::ZERO);
        let r = MptcpConnection::listen(FlowId(i as u32), cfg, &template);
        (
            Box::new(s) as Box<dyn Transport>,
            Box::new(r) as Box<dyn Transport>,
        )
    }
}

#[test]
fn bulk_transfer_completes() {
    let cfg = NetConfig::paper_baseline();
    let emu = Emulator::new(cfg, 1, Box::new(mptcp_factory(1_000_000, true)));
    let res = emu.run(SimTime::from_millis(100));
    assert_eq!(
        res.sender_stats[0].bytes_acked, 1_000_000,
        "all data acked at the connection level: {:?}",
        res.sender_stats[0]
    );
    assert_eq!(res.receiver_stats[0].bytes_delivered, 1_000_000);
}

#[test]
fn both_subflows_carry_data() {
    let cfg = NetConfig::paper_baseline();
    let mut emu = Emulator::new(cfg, 1, Box::new(mptcp_factory(u64::MAX, true)));
    emu.set_sample_interval(SimDuration::from_micros(2));
    let res = emu.run(SimTime::from_millis(10));
    // Two subflow windows reported once both subflows are connected.
    assert_eq!(res.final_cwnds[0].len(), 2, "{:?}", res.final_cwnds);
    assert!(res.sender_stats[0].bytes_acked > 0);
    // Switch notifications reached the scheduler.
    assert!(res.sender_stats[0].tdn_switches > 0);
}

#[test]
fn reinjection_fires_on_stalls() {
    let cfg = NetConfig::paper_baseline();
    let emu = Emulator::new(cfg, 4, Box::new(mptcp_factory(u64::MAX, true)));
    let res = emu.run(SimTime::from_millis(20));
    let reinj: u64 = res.sender_stats.iter().map(|s| s.reinjections).sum();
    assert!(
        reinj > 0,
        "stranded subflow ACKs must trigger connection-level reinjection"
    );
    // Reinjection implies data-level duplicates at the receiver.
    let dups: u64 = res.receiver_stats.iter().map(|s| s.dup_segs_received).sum();
    assert!(dups > 0, "reinjected ranges arrive twice");
}

#[test]
fn mptcp_below_cubic_headline() {
    // §2.2 / Fig. 2: MPTCP's strict subflow isolation makes it the worst
    // performer, below even single-path CUBIC.
    let horizon = SimTime::from_millis(25);
    let net = NetConfig::paper_baseline();
    let mp = Emulator::new(net.clone(), 16, Box::new(mptcp_factory(u64::MAX, true)))
        .run(horizon)
        .total_acked();
    let cubic = {
        let factory: rdcn::EndpointFactory = Box::new(|i| {
            let c = Config::default();
            let cc = CcConfig::default();
            (
                Box::new(Connection::connect(
                    FlowId(i as u32),
                    c.clone(),
                    Box::new(Cubic::new(cc)),
                    SimTime::ZERO,
                )) as Box<dyn Transport>,
                Box::new(Connection::listen(FlowId(i as u32), c, Box::new(Cubic::new(cc))))
                    as Box<dyn Transport>,
            )
        });
        Emulator::new(net, 16, factory).run(horizon).total_acked()
    };
    assert!(
        (mp as f64) < cubic as f64 * 0.95,
        "MPTCP ({mp}) should clearly underperform CUBIC ({cubic})"
    );
    assert!(mp > 0);
}

#[test]
fn deterministic() {
    let run = || {
        let cfg = NetConfig::paper_baseline();
        let emu = Emulator::new(cfg, 2, Box::new(mptcp_factory(u64::MAX, true)));
        let res = emu.run(SimTime::from_millis(10));
        (res.total_acked(), res.drops_ab)
    };
    assert_eq!(run(), run());
}
