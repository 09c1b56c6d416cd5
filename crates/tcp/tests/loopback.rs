//! End-to-end loopback tests: two `Connection`s joined by a simple
//! delay/loss pipe, driven by the simcore event queue the engine runs on
//! (`DefaultQueue`, the wheel). These exercise the handshake, bulk
//! transfer, SACK recovery, RTO, TLP, FIN teardown, and determinism — the
//! machinery every experiment in the harness relies on.

use simcore::{DefaultEventId, DefaultQueue, SimDuration, SimTime};
use tcp::cc::{CcConfig, Cubic, Reno};
use tcp::{Config, Connection, Segment, Transport};

const MSS: u32 = 1000;

fn test_config(bytes: u64) -> Config {
    Config {
        mss: MSS,
        recv_buf: 1 << 20,
        bytes_to_send: bytes,
        ..Config::default()
    }
}

enum Ev {
    Deliver { to: usize, seg: Segment },
    Timer { who: usize },
}

/// Drive both endpoints until quiescent or `deadline`. `drop_tx` decides,
/// per segment leaving endpoint 0 (the sender), whether the network drops
/// it; `delay` is the one-way latency both ways.
type DropFn = Box<dyn FnMut(&Segment, u64) -> bool>;

struct Pipe {
    q: DefaultQueue<Ev>,
    delay: SimDuration,
    drop_tx: DropFn,
    tx_count: u64,
    timer_scheduled: [Option<(SimTime, DefaultEventId)>; 2],
}

impl Pipe {
    fn new(delay_us: u64, drop_tx: impl FnMut(&Segment, u64) -> bool + 'static) -> Self {
        Pipe {
            q: DefaultQueue::new(),
            delay: SimDuration::from_micros(delay_us),
            drop_tx: Box::new(drop_tx),
            tx_count: 0,
            timer_scheduled: [None, None],
        }
    }

    fn flush(&mut self, now: SimTime, who: usize, conn: &mut Connection) {
        while let Some(seg) = Transport::poll_send(conn, now) {
            let dropped = if seg.has_payload() || seg.flags.syn || seg.flags.fin {
                self.tx_count += 1;
                (self.drop_tx)(&seg, self.tx_count)
            } else {
                false
            };
            if !dropped {
                self.q.schedule(now + self.delay, Ev::Deliver { to: 1 - who, seg });
            }
        }
        // (Re)arm the endpoint's timer event.
        let want = Transport::next_timer(conn);
        let have = self.timer_scheduled[who];
        if want.map(|t| t.max(now)) != have.map(|(t, _)| t) {
            if let Some((_, id)) = have {
                self.q.cancel(id);
            }
            self.timer_scheduled[who] = want.map(|t| {
                let t = t.max(now);
                (t, self.q.schedule(t, Ev::Timer { who }))
            });
        }
    }

    fn run(&mut self, conns: &mut [Connection; 2], deadline: SimTime) -> SimTime {
        self.flush(SimTime::ZERO, 0, &mut conns[0]);
        self.flush(SimTime::ZERO, 1, &mut conns[1]);
        let mut now = SimTime::ZERO;
        while let Some((t, ev)) = self.q.pop() {
            now = t;
            if now > deadline {
                break;
            }
            match ev {
                Ev::Deliver { to, seg } => {
                    conns[to].on_segment(now, &seg);
                    self.flush(now, to, &mut conns[to]);
                    self.flush(now, 1 - to, &mut conns[1 - to]);
                }
                Ev::Timer { who } => {
                    self.timer_scheduled[who] = None;
                    conns[who].on_timer(now);
                    self.flush(now, who, &mut conns[who]);
                }
            }
            if conns[0].is_done() && conns[1].is_done() {
                break;
            }
        }
        now
    }
}

fn transfer(
    bytes: u64,
    delay_us: u64,
    drop_tx: impl FnMut(&Segment, u64) -> bool + 'static,
) -> ([Connection; 2], SimTime) {
    let cfg = test_config(bytes);
    let cc = CcConfig {
        mss: MSS,
        init_cwnd_pkts: 10,
        max_cwnd: 1 << 24,
    };
    let mut conns = [
        Connection::connect(
            tcp::FlowId(1),
            cfg.clone(),
            Box::new(Cubic::new(cc)),
            SimTime::ZERO,
        ),
        Connection::listen(tcp::FlowId(1), cfg, Box::new(Cubic::new(cc))),
    ];
    let mut pipe = Pipe::new(delay_us, drop_tx);
    let end = pipe.run(&mut conns, SimTime::from_secs(10));
    (conns, end)
}

#[test]
fn clean_transfer_completes() {
    let (conns, _) = transfer(100_000, 50, |_, _| false);
    assert!(conns[0].is_done(), "sender: {:?}", conns[0]);
    assert!(conns[1].is_done(), "receiver: {:?}", conns[1]);
    assert_eq!(conns[1].stats().bytes_delivered, 100_000);
    assert_eq!(conns[0].stats().bytes_acked, 100_000);
    assert_eq!(conns[0].stats().retransmits, 0);
    assert_eq!(conns[1].stats().spurious_retransmits, 0);
}

#[test]
fn handshake_establishes_both_ends() {
    let (conns, _) = transfer(1_000, 50, |_, _| false);
    assert!(conns[0].established_at().is_some());
    assert!(conns[1].established_at().is_some());
    // Roughly 1.5 RTT for the initiator to establish (SYN + SYN-ACK).
    let t = conns[0].established_at().unwrap();
    assert_eq!(t, SimTime::from_micros(100));
}

#[test]
fn rtt_estimator_converges_to_path_rtt() {
    let (conns, _) = transfer(500_000, 50, |_, _| false);
    let srtt = conns[0].rtt().srtt().expect("samples taken");
    let us = srtt.as_micros();
    assert!((95..=115).contains(&us), "srtt {us}us should be ~100us");
}

#[test]
fn single_loss_recovers_via_sack() {
    // Drop exactly the 20th data transmission.
    let (conns, _) = transfer(300_000, 50, |_, n| n == 20);
    assert!(conns[0].is_done());
    assert_eq!(conns[1].stats().bytes_delivered, 300_000);
    assert!(conns[0].stats().retransmits >= 1);
    assert!(conns[0].stats().fast_recoveries >= 1 || conns[0].stats().tlps >= 1);
    // No RTO needed: SACK/TLP recovery is enough for a mid-stream loss.
    assert_eq!(conns[0].stats().rtos, 0, "stats: {:?}", conns[0].stats());
}

#[test]
fn burst_loss_recovers() {
    let (conns, _) = transfer(300_000, 50, |_, n| (30..36).contains(&n));
    assert!(conns[0].is_done(), "sender {:?} {:?}", conns[0], conns[0].stats());
    assert_eq!(conns[1].stats().bytes_delivered, 300_000);
    assert!(conns[0].stats().retransmits >= 6);
}

#[test]
fn random_heavy_loss_still_completes() {
    use simcore::DetRng;
    let mut rng = DetRng::new(7);
    let (conns, _) = transfer(200_000, 50, move |_, _| rng.chance(0.05));
    assert!(conns[0].is_done(), "{:?}", conns[0].stats());
    assert_eq!(conns[1].stats().bytes_delivered, 200_000);
}

#[test]
fn tail_loss_recovered_by_probe_or_rto() {
    // Drop the very last data segment (and the FIN once).
    let (conns, _) = transfer(50_000, 50, |seg, _| {
        seg.has_payload() && seg.seq.0 as u64 + seg.len as u64 == 50_001 && seg.len == 49
    });
    // seq 1 + 50_000 bytes; last partial segment [49952, 50001).
    assert!(conns[0].is_done(), "{:?} {:?}", conns[0], conns[0].stats());
    assert_eq!(conns[1].stats().bytes_delivered, 50_000);
}

#[test]
fn syn_loss_retransmitted_by_rto() {
    let mut dropped_syn = false;
    let (conns, _) = transfer(10_000, 50, move |seg, _| {
        if seg.flags.syn && !dropped_syn {
            dropped_syn = true;
            return true;
        }
        false
    });
    assert!(conns[0].is_done());
    assert_eq!(conns[1].stats().bytes_delivered, 10_000);
    assert!(conns[0].stats().rtos >= 1, "SYN loss needs an RTO");
}

#[test]
fn duplicate_delivery_counts_spurious() {
    // Never drop, but duplicate one data segment by a custom pipe: easiest
    // proxy — force a retransmit by dropping an ACK-side segment? ACKs are
    // not dropped by our hook, so instead drop a data segment whose
    // retransmission will arrive after a TLP already resent it.
    let (conns, _) = transfer(100_000, 200, |_, n| n == 50 || n == 53);
    assert!(conns[0].is_done());
    assert_eq!(conns[1].stats().bytes_delivered, 100_000);
}

#[test]
fn throughput_reasonable_for_window_limited_flow() {
    // 100k bytes, 100us RTT, no loss: should finish in a handful of RTTs
    // (slow start from 10 segments: 10+20+40+64... covers 100 segments in
    // ~4 RTTs) plus handshake.
    let (_, end) = transfer(100_000, 50, |_, _| false);
    assert!(
        end <= SimTime::from_micros(1200),
        "transfer took {end}, expected < 1.2ms"
    );
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let (conns, end) = transfer(150_000, 50, |_, n| n % 37 == 0);
        (
            end,
            *conns[0].stats(),
            *conns[1].stats(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

#[test]
fn reno_also_completes() {
    let cfg = test_config(100_000);
    let cc = CcConfig {
        mss: MSS,
        init_cwnd_pkts: 10,
        max_cwnd: 1 << 24,
    };
    let mut conns = [
        Connection::connect(
            tcp::FlowId(2),
            cfg.clone(),
            Box::new(Reno::new(cc)),
            SimTime::ZERO,
        ),
        Connection::listen(tcp::FlowId(2), cfg, Box::new(Reno::new(cc))),
    ];
    let mut pipe = Pipe::new(50, |_, n| n == 11);
    pipe.run(&mut conns, SimTime::from_secs(10));
    assert!(conns[0].is_done());
    assert_eq!(conns[1].stats().bytes_delivered, 100_000);
}

#[test]
fn receiver_window_limits_inflight() {
    // Tiny receive buffer: sender must respect it and still finish.
    let mut cfg = test_config(50_000);
    cfg.recv_buf = 4 * MSS;
    let cc = CcConfig {
        mss: MSS,
        init_cwnd_pkts: 10,
        max_cwnd: 1 << 24,
    };
    let mut conns = [
        Connection::connect(
            tcp::FlowId(3),
            cfg.clone(),
            Box::new(Cubic::new(cc)),
            SimTime::ZERO,
        ),
        Connection::listen(tcp::FlowId(3), cfg, Box::new(Cubic::new(cc))),
    ];
    let mut pipe = Pipe::new(50, |_, _| false);
    pipe.run(&mut conns, SimTime::from_secs(10));
    assert!(conns[0].is_done());
    assert_eq!(conns[1].stats().bytes_delivered, 50_000);
}
