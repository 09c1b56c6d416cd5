//! Micro-kernels: one small, fixed script of operations per layer
//! primitive, timed in isolation.
//!
//! Scripts are generated from `--seed` before timing and handed to the
//! kernels through `black_box`, as are the kernels' results, so the
//! compiler can neither precompute nor drop the measured work. A kernel
//! returns how many operations it performed; the figure reported is the
//! median over batches of host ns per operation.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Duration;

use bench::chaos::ChaosSpec;
use bench::tails::{self, Population, TAIL_STREAM_LABEL};
use bench::{check_invariants, Variant};
use rdcn::{
    ClockInjector, ClockPlan, Emulator, FaultInjector, FaultPlan, ImpairInjector, ImpairPlan,
    NetConfig, NotifyConfig, NotifyModel, Schedule, SlotEdgePolicy, Voq, VoqConfig,
    CLOCK_STREAM_LABEL, FAULT_STREAM_LABEL, IMPAIR_STREAM_LABEL,
};
use simcore::{par, DetRng, EventQueue, SimDuration, SimTime, TimerWheel};
use tcp::recv::Reassembler;
use tcp::rtx::{RtxQueue, TxSeg};
use tcp::{Direction, FlowId, Segment, SeqNum};
use wire::TdnId;

use crate::stats::median;
use crate::trace::now;
use crate::workloads::{fabric_emulator, short_spec};

/// The stream the op scripts are drawn from, forked off `--seed`.
pub const BENCH_MICRO_STREAM_LABEL: u64 = 0xBE7C_31C0;

const BATCHES: usize = 7;
const BATCH: Duration = Duration::from_millis(4);

/// Median over [`BATCHES`] batches of ns per operation; a batch repeats
/// `kernel` for at least [`BATCH`].
fn ns_per_op(mut kernel: impl FnMut() -> u64) -> f64 {
    let mut samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t0 = now();
        let mut ops = 0u64;
        while t0.elapsed() < BATCH {
            ops += black_box(kernel());
        }
        samples.push(t0.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&mut samples)
}

/// Every micro-kernel metric, by name.
pub fn run_all(seed: u64) -> Vec<(&'static str, f64)> {
    let mut rng = DetRng::new(seed).fork(BENCH_MICRO_STREAM_LABEL);
    let mut out = Vec::new();
    queues(&mut rng, &mut out);
    out.push(("simcore.barrier_ns_per_window", barrier()));
    rtx(&mut rng, &mut out);
    reassembler(&mut rng, &mut out);
    segment(&mut out);
    out.push(("rdcn.voq_ns_per_seg", voq(&mut rng)));
    control_plane(&mut rng, &mut out);
    injectors(&mut rng, &mut out);
    constructors(seed, &mut out);
    harness(&mut rng, &mut out);
    out
}

// --- simcore ---------------------------------------------------------------

/// The same script on both queues: a 4096-deep schedule, a cancel and
/// re-arm of every fourth timer, then a drain in 5 µs `pop_before`
/// windows with one re-arm per pop while the script lasts.
macro_rules! queue_kernel {
    ($new:expr, $times:expr, $rearm:expr) => {{
        let (times, rearm): (&[u64], &[u64]) = ($times, $rearm);
        ns_per_op(|| {
            let mut q = $new;
            let mut ops = 0u64;
            let mut ids = Vec::with_capacity(times.len());
            for (i, &t) in black_box(times).iter().enumerate() {
                ids.push(q.schedule(SimTime::from_nanos(t), i as u64));
            }
            ops += times.len() as u64;
            for (k, id) in ids.iter().step_by(4).enumerate() {
                q.cancel(*id);
                q.schedule(SimTime::from_nanos(times[k] + 7), k as u64);
                ops += 2;
            }
            let mut rearms = black_box(rearm).iter();
            let mut w_end = SimTime::from_nanos(5_000);
            let mut acc = 0u64;
            while !q.is_empty() {
                while let Some((at, v)) = q.pop_before(w_end) {
                    acc = acc.wrapping_add(v);
                    ops += 1;
                    if let Some(&d) = rearms.next() {
                        q.schedule(at + SimDuration::from_nanos(d), v);
                        ops += 1;
                    }
                }
                w_end += SimDuration::from_nanos(5_000);
            }
            black_box(acc);
            ops
        })
    }};
}

fn queues(rng: &mut DetRng, out: &mut Vec<(&'static str, f64)>) {
    let times: Vec<u64> = (0..4096).map(|_| rng.gen_range(0u64..200_000)).collect();
    let rearm: Vec<u64> = (0..4096).map(|_| rng.gen_range(1u64..9_000)).collect();
    out.push((
        "simcore.wheel_ns_per_op",
        queue_kernel!(TimerWheel::<u64>::new(), &times, &rearm),
    ));
    out.push((
        "simcore.heap_ns_per_op",
        queue_kernel!(EventQueue::<u64>::new(), &times, &rearm),
    ));
}

/// `par::run_windows` over 16 shards with nothing to do, two workers:
/// what one window of the sharded engine costs before any event runs.
fn barrier() -> f64 {
    const WINDOWS: u64 = 1_000;
    let shards: Vec<Mutex<u64>> = (0..16).map(|_| Mutex::new(0)).collect();
    ns_per_op(|| {
        let mut left = WINDOWS;
        par::run_windows(
            2,
            &shards,
            |_| {
                left -= 1;
                left > 0
            },
            |_, s| *s += 1,
        );
        WINDOWS
    })
}

// --- tcp -------------------------------------------------------------------

fn tx_seg(i: u32) -> TxSeg {
    let at = SimTime::from_micros(u64::from(i));
    TxSeg {
        seq: SeqNum(i * 1000),
        len: 1000,
        is_syn: false,
        is_fin: false,
        tdn: TdnId((i % 2) as u8),
        tx_time: at,
        first_tx: at,
        sacked: false,
        lost: false,
        retx_in_flight: false,
        retx_count: 0,
    }
}

fn rtx(rng: &mut DetRng, out: &mut Vec<(&'static str, f64)>) {
    // The ACK-clocked steady state: a 64-segment window, one push and
    // one cumulative ACK per segment, no holes.
    out.push((
        "tcp.rtx_ns_per_ack",
        ns_per_op(|| {
            let mut q = RtxQueue::new();
            let mut acked = 0u32;
            for i in 0..black_box(1024u32) {
                q.push(tx_seg(i));
                if i >= 64 {
                    acked += q.cum_ack(SeqNum((i - 63) * 1000)).acked_space;
                }
            }
            black_box(acked);
            1024 - 64
        }),
    ));
    // Loss recovery: per 100-segment window, scripted SACK blocks above
    // holes, loss marking below the highest, then ACKs across the holes.
    let blocks: Vec<(u32, u32)> = (0..8)
        .map(|_| {
            let left = rng.gen_range(10u32..90);
            (left, left + rng.gen_range(1u32..10))
        })
        .collect();
    out.push((
        "tcp.rtx_sack_ns_per_op",
        ns_per_op(|| {
            let mut q = RtxQueue::new();
            for i in 0..100 {
                q.push(tx_seg(i));
            }
            let mut ops = 0;
            let mut highest = 0;
            for &(l, r) in black_box(&blocks) {
                black_box(q.mark_sacked([(SeqNum(l * 1000), SeqNum(r * 1000))].into_iter()));
                highest = highest.max(r);
                ops += 1;
            }
            black_box(q.mark_lost_below(SeqNum(highest * 1000), |_| true));
            black_box(q.cum_ack(SeqNum(highest * 500)));
            black_box(q.cum_ack(SeqNum(100_000)));
            ops + 3
        }),
    ));
}

fn reassembler(rng: &mut DetRng, out: &mut Vec<(&'static str, f64)>) {
    const SEGS: u32 = 1024;
    out.push((
        "tcp.reasm_inorder_ns_per_seg",
        ns_per_op(|| {
            let mut rx = Reassembler::new(SeqNum(0), 1 << 20);
            for i in 0..black_box(SEGS) {
                black_box(rx.on_data(SeqNum(i * 1000), 1000));
            }
            u64::from(SEGS)
        }),
    ));
    // Reordering within 32-segment blocks, as a burst crossing a TDN
    // switch arrives: gaps open, fill, and SACK blocks are read.
    let mut order: Vec<u32> = (0..SEGS).collect();
    for block in order.chunks_mut(32) {
        rng.shuffle(block);
    }
    out.push((
        "tcp.reasm_ooo_ns_per_seg",
        ns_per_op(|| {
            let mut rx = Reassembler::new(SeqNum(0), 1 << 20);
            for &i in black_box(&order) {
                black_box(rx.on_data(SeqNum(i * 1000), 1000));
                black_box(rx.sack_blocks());
            }
            u64::from(SEGS)
        }),
    ));
}

fn data_segment(i: u32) -> Segment {
    let mut s = Segment::new(FlowId(i % 16), Direction::DataPath);
    s.seq = SeqNum(i * 1000);
    s.len = 1000;
    s.flags.ack = true;
    s.wnd = 1 << 16;
    s.data_tdn = Some(TdnId((i % 2) as u8));
    s.pin = match i % 3 {
        0 => None,
        r => Some(TdnId((r - 1) as u8)),
    };
    s.stamp_payload();
    s
}

fn segment(out: &mut Vec<(&'static str, f64)>) {
    out.push(("tcp.segment_bytes", std::mem::size_of::<Segment>() as f64));
    let segs: Vec<Segment> = (0..1024).map(data_segment).collect();
    let mut copy = Vec::with_capacity(segs.len());
    out.push((
        "tcp.segment_clone_ns",
        ns_per_op(|| {
            copy.clear();
            for s in black_box(&segs) {
                copy.push(black_box(*s));
            }
            black_box(&copy);
            segs.len() as u64
        }),
    ));
    out.push((
        "wire.segment_roundtrip_ns",
        ns_per_op(|| {
            for s in black_box(&segs[..64]) {
                let bytes = s.to_wire(0x0A00_0001, 0x0A00_0002, 40_000, 5_001);
                black_box(Segment::from_wire(&bytes, s.flow, s.dir).expect("own encoding parses"));
            }
            64
        }),
    ));
}

// --- rdcn ------------------------------------------------------------------

/// A 16-packet VOQ fed bursts of pinned and floating segments while the
/// active TDN alternates, as across day and night.
fn voq(rng: &mut DetRng) -> f64 {
    let segs: Vec<Segment> = (0..24)
        .map(|_| data_segment(rng.gen_range(0u32..4096)))
        .collect();
    ns_per_op(|| {
        let cfg = VoqConfig {
            cap_pkts: 16,
            ecn_threshold: Some(8),
        };
        let mut v = Voq::new("bench", cfg);
        let mut served = 0u64;
        for round in 0..8u64 {
            let at = SimTime::from_nanos(round * 1_000);
            for s in black_box(&segs) {
                v.enqueue(at, *s);
            }
            let active = Some(TdnId((round % 2) as u8));
            while let Some(s) = v.dequeue_eligible(at, active) {
                black_box(s);
                served += 1;
            }
        }
        black_box((served, v.drops));
        8 * segs.len() as u64
    })
}

fn control_plane(rng: &mut DetRng, out: &mut Vec<(&'static str, f64)>) {
    let model = NotifyModel::new(NotifyConfig::optimized());
    let mut draw = rng.fork(BENCH_MICRO_STREAM_LABEL);
    out.push((
        "rdcn.notify_sample_ns",
        ns_per_op(|| {
            for flow in 0..black_box(64usize) {
                black_box(model.sample(&mut draw, flow % 16).total());
            }
            64
        }),
    ));
    let schedule = Schedule::hybrid_6to1();
    let times: Vec<SimTime> = (0..256)
        .map(|_| SimTime::from_nanos(rng.gen_range(0u64..300_000_000)))
        .collect();
    out.push((
        "rdcn.schedule_phase_at_ns",
        ns_per_op(|| {
            for &t in black_box(&times) {
                black_box(schedule.phase_at(t));
            }
            times.len() as u64
        }),
    ));
}

/// Each chaos injector at mid-range rates of the chaos soak, plus the
/// impairment injector with nothing armed: the price every clean
/// workload pays for the plane existing.
fn injectors(rng: &mut DetRng, out: &mut Vec<(&'static str, f64)>) {
    const CALLS: u64 = 256;
    let armed = ImpairPlan {
        loss_rate: 0.012,
        reorder_rate: 0.075,
        reorder_delay: SimDuration::from_micros(150),
        duplicate_rate: 0.01,
        corrupt_rate: 0.005,
    };
    for (name, plan) in [
        ("rdcn.impair_on_wire_ns", armed),
        ("rdcn.impair_inert_ns", ImpairPlan::none()),
    ] {
        let mut inj = ImpairInjector::new(plan, rng.fork(IMPAIR_STREAM_LABEL));
        let mut t = 0u64;
        out.push((
            name,
            ns_per_op(|| {
                for _ in 0..black_box(CALLS) {
                    t += 800;
                    black_box(inj.on_wire(SimTime::from_nanos(t)));
                }
                CALLS
            }),
        ));
    }
    let mut faults = FaultInjector::new(
        FaultPlan::notification_loss(0.025),
        rng.fork(FAULT_STREAM_LABEL),
    );
    let mut day = 0u64;
    out.push((
        "rdcn.fault_on_notify_ns",
        ns_per_op(|| {
            day += 1;
            for flow in 0..black_box(CALLS as usize) {
                black_box(faults.on_notify(day, flow % 16, (flow % 2) as u8));
            }
            CALLS
        }),
    ));
    let plan = ClockPlan {
        offset_bound: SimDuration::from_micros(85),
        drift_ppm: 40.0,
        jitter: SimDuration::ZERO,
        resync_interval: SimDuration::from_millis(2),
        resync_error: SimDuration::from_micros(2),
        slot_edge_policy: SlotEdgePolicy::Drop,
    };
    let mut clock = ClockInjector::new(plan, rng.fork(CLOCK_STREAM_LABEL));
    let mut t = 0u64;
    out.push((
        "rdcn.clock_perceived_ns",
        ns_per_op(|| {
            for host in 0..black_box(CALLS as usize) {
                t += 500;
                black_box(clock.perceived(host % 6, SimTime::from_nanos(t)));
            }
            CALLS
        }),
    ));
}

fn constructors(seed: u64, out: &mut Vec<(&'static str, f64)>) {
    out.push((
        "rdcn.emulator_new_ns",
        ns_per_op(|| {
            let net = NetConfig::paper_baseline();
            black_box(Emulator::new(net, 16, Variant::Cubic.factory(u64::MAX)));
            1
        }),
    ));
    out.push((
        "rdcn.sharded_new_ns",
        ns_per_op(|| {
            black_box(fabric_emulator(black_box(seed), None));
            1
        }),
    ));
}

// --- bench -----------------------------------------------------------------

fn harness(rng: &mut DetRng, out: &mut Vec<(&'static str, f64)>) {
    let spec = short_spec(Population::Uniform(Variant::Tdtcp));
    let parent = rng.fork(BENCH_MICRO_STREAM_LABEL);
    out.push((
        "bench.generate_ns",
        ns_per_op(|| {
            black_box(tails::generate(
                black_box(&spec),
                &mut parent.fork(TAIL_STREAM_LABEL),
            ));
            1
        }),
    ));
    let chaos = ChaosSpec {
        seed: rng.gen_range(0u64..1_000_000),
        variant_idx: 0,
        flows_idx: 2,
        bytes_kb: 128,
        loss_pm: 12,
        reorder_pm: 75,
        reorder_delay_us: 150,
        dup_pm: 10,
        corrupt_pm: 5,
        notify_loss_pm: 25,
        eps_burst: true,
        clock_offset_us: 80,
        clock_drift_ppm: 40,
        slot_edge_idx: 1,
        clock_resync: true,
    };
    let res = chaos.run();
    out.push((
        "bench.check_invariants_ns",
        ns_per_op(|| {
            black_box(check_invariants(black_box(&chaos), black_box(&res)))
                .expect("mid-range scenario is clean");
            1
        }),
    ));
}
