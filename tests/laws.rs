//! Laws of the one simulation loop (ROADMAP 7 and 10a), each run
//! through the two-rack door: two metamorphic properties over random
//! scenarios, and the wire law over every variant.
//!
//! *Inert flow.* A flow whose start lies beyond the horizon never runs,
//! so appending one must leave every other flow's `ConnStats`,
//! completion and connection error bit-identical. The loop holds this
//! because only hosts that can hear a day draw its notification latency
//! and fault verdict: a slot whose flow starts later than the day start
//! plus the notification model's worst-case latency draws nothing.
//!
//! *Observer.* Sampling reads the run and never feeds it: the same run
//! sampled every 2 µs, 7 µs or 100 µs, or not observed at all, has one
//! `stats_digest` — the whole run's simulation state, which no
//! observation field enters — on every paper variant, clean or under
//! all three chaos planes, with simultaneous or staggered starts. The
//! unobserved run records none of the three observation fields.
//!
//! *Wire.* Every segment a host sends or receives survives the byte
//! encoding of Fig. 5: `Segment::from_wire(to_wire(s))` equals `s` on
//! every field the wire carries (`tcp::segment::WireView`), on every variant over the
//! paper baseline and on TDTCP and MPTCP with all three chaos planes
//! armed. The law taps each host at the `Transport` seam, so the
//! received side sees what the switches did (CE marks). It lives here
//! and not in the engine: in a debug build the round trips cost 35–125×
//! the run they check. Its companion property holds `from_wire`
//! to an error, never a panic, on bytes from outside the program.

use bench::{Variant, ALL_VARIANTS};
use rdcn::emulator::TimedEndpointFactory;
use rdcn::{Emulator, EndpointFactory, FlowSpec, NetConfig, RunResult};
use simcore::{SimDuration, SimTime};
use std::cell::Cell;
use std::rc::Rc;
use tcp::{Direction, FlowId, SackBlocks, Segment, SeqNum, Transport};
use tdtcp_repro::harness::{arm, Observer, Tap};
use testkit::prop::{range, tuple2, tuple3, tuple4, uniform, vec_of};
use testkit::{tk_assert, tk_assert_eq};
use wire::{Ecn, ParseError, TdnId};

const HORIZON: SimTime = SimTime::from_millis(12);

/// The observer law's horizon.
const OBSERVED: SimTime = SimTime::from_millis(5);

/// The scenario's flows: two bulk background flows from time zero, so
/// the run lasts to the horizon, then the finite ones as
/// `(start, bytes)`.
fn flows(finite: &[(u64, u64)]) -> Vec<(SimTime, u64)> {
    let bulk = (SimTime::ZERO, u64::MAX);
    [bulk, bulk]
        .into_iter()
        .chain(
            finite
                .iter()
                .map(|&(start_us, kb)| (SimTime::from_micros(start_us), kb * 1_000)),
        )
        .collect()
}

fn net(variant: Variant, seed: u64) -> NetConfig {
    let mut net = NetConfig::paper_baseline();
    variant.apply_net_config(&mut net);
    net.seed = seed;
    net
}

fn run(variant: Variant, seed: u64, flows: &[(SimTime, u64)]) -> RunResult {
    staggered(net(variant, seed), variant, flows).run(HORIZON)
}

/// The two-rack door with flow `i` starting at `flows[i].0`.
fn staggered(net: NetConfig, variant: Variant, flows: &[(SimTime, u64)]) -> Emulator<'_> {
    let watchdog = Some(bench::variants::watchdog_for(&net));
    let factory: TimedEndpointFactory = Box::new(move |i, now| {
        let (s, r) = variant.endpoints(i, flows[i].1, watchdog, now);
        (s, r)
    });
    let specs = flows.iter().map(|&(start, _)| FlowSpec { start }).collect();
    Emulator::new_staggered(net, specs, factory)
}

/// The two-rack door with every flow starting at zero.
fn simultaneous(net: NetConfig, variant: Variant, flows: &[(SimTime, u64)]) -> Emulator<'_> {
    let watchdog = Some(bench::variants::watchdog_for(&net));
    let factory: EndpointFactory = Box::new(move |i| {
        let (s, r) = variant.endpoints(i, flows[i].1, watchdog, SimTime::ZERO);
        (s, r)
    });
    Emulator::new(net, flows.len(), factory)
}

/// The five variants of the paper's evaluation.
const PAPER_VARIANTS: [Variant; 5] =
    [Variant::Tdtcp, Variant::Cubic, Variant::Mptcp, Variant::ReTcpDyn, Variant::Dctcp];

testkit::props! {
    #[cases(24)]
    /// TDTCP and CUBIC, 1–6 finite flows at random starts, a random seed,
    /// and one extra flow starting 1–5 ms past the horizon.
    fn a_flow_starting_after_the_horizon_changes_nothing(input in tuple4(
        uniform::<u64>(),
        range(0u8..2),
        vec_of(tuple2(range(0u64..10_000), range(20u64..400)), 1..7),
        tuple2(range(1_000u64..5_000), range(20u64..400)),
    )) {
        let (seed, pick, finite, (late_us, late_kb)) = input;
        let variant = [Variant::Tdtcp, Variant::Cubic][usize::from(pick)];
        let base = flows(&finite);
        let mut more = base.clone();
        more.push((HORIZON + SimDuration::from_micros(late_us), late_kb * 1_000));
        let (a, b) = (run(variant, seed, &base), run(variant, seed, &more));
        let n = base.len();
        tk_assert_eq!(b.sender_stats[n], tcp::ConnStats::default(), "the late flow ran");
        tk_assert_eq!(a.sender_stats[..], b.sender_stats[..n]);
        tk_assert_eq!(a.receiver_stats[..], b.receiver_stats[..n]);
        tk_assert_eq!(a.completions[..], b.completions[..n]);
        tk_assert_eq!(a.conn_errors[..], b.conn_errors[..n]);
    }
}

testkit::props! {
    #[cases(30)]
    /// A paper variant, one of a few seeds, a clean or an armed plan, and
    /// two bulk flows plus 1–4 finite ones, all starting at zero or each
    /// at its own time; the run is sampled at three intervals, and once
    /// not at all.
    fn sampling_leaves_the_simulation_alone(input in tuple4(
        tuple2(range(0u8..5), range(1u64..4)),
        range(0u8..2),
        range(0u8..2),
        vec_of(tuple2(range(0u64..4_000), range(20u64..400)), 1..5),
    )) {
        let ((pick, seed), chaos, stagger, finite) = input;
        let variant = PAPER_VARIANTS[usize::from(pick)];
        let mut net = net(variant, seed);
        if chaos == 1 {
            arm(&mut net);
        }
        let flows = flows(&finite);
        let sampled = |us: Option<u64>| {
            let mut emu = match stagger {
                0 => simultaneous(net.clone(), variant, &flows),
                _ => staggered(net.clone(), variant, &flows),
            };
            if let Some(us) = us {
                emu.set_sample_interval(SimDuration::from_micros(us));
            }
            emu.run(OBSERVED)
        };
        let reference = sampled(Some(2));
        tk_assert!(!reference.seq_series.is_empty(), "a sampled run kept no samples");
        for us in [7, 100] {
            tk_assert_eq!(reference.stats_digest(), sampled(Some(us)).stats_digest());
        }
        let quiet = sampled(None);
        tk_assert_eq!(reference.stats_digest(), quiet.stats_digest());
        tk_assert!(quiet.seq_series.is_empty() && quiet.day_records.is_empty());
        tk_assert!(quiet.voq_ab.is_empty());
    }
}

/// Segments a run put on the wire; how many of them carried SACK blocks
/// (where the window is not a whole KiB), a switch's CE mark, MPTCP's
/// MP_CAPABLE and a DSS mapping.
#[derive(Debug, Clone, Copy, Default)]
struct Crossed {
    segments: u64,
    sacked: u64,
    marked: u64,
    capable: u64,
    mapped: u64,
}

/// An observer that encodes every segment its host sends or receives,
/// parses it back and holds it to its `WireView`.
struct OnTheWire {
    variant: &'static str,
    crossed: Rc<Cell<Crossed>>,
}

impl OnTheWire {
    fn cross(&self, s: &Segment) {
        let bytes = s.to_wire(0x0A00_0001, 0x0A00_0002, 40_000, 5_001);
        let back = Segment::from_wire(&bytes, s.flow, s.dir).expect("own encoding parses");
        assert_eq!(back.wire_view(), s.wire_view(), "{} segment {s:?}", self.variant);
        let mut c = self.crossed.get();
        c.segments += 1;
        c.sacked += u64::from(!s.sack().is_empty());
        c.marked += u64::from(s.ecn == Ecn::Ce);
        c.capable += u64::from(s.mp_capable());
        c.mapped += u64::from(s.dss().is_some());
        self.crossed.set(c);
    }
}

impl Observer for OnTheWire {
    fn segment_in(&mut self, _now: SimTime, seg: &Segment) {
        self.cross(seg);
    }
    fn segment_out(&mut self, _now: SimTime, seg: &Segment) {
        self.cross(seg);
    }
}

/// The wire law's bulk flows and horizon: a debug-build round trip costs
/// ~0.3 ms, so the nine runs of 4 flows × 3 ms take ~7 s, and every run
/// still sends SACK blocks (MPTCP's receiver reaches four before its
/// trim).
const WIRE_FLOWS: usize = 4;
const WIRE_HORIZON: SimTime = SimTime::from_millis(3);

/// Every variant over the paper baseline, then TDTCP and MPTCP with all
/// three chaos planes armed: every segment each host sends or receives
/// reads back as itself, some of them carried SACK blocks, DCTCP's
/// carried CE marks, and MPTCP's carried MP_CAPABLE and DSS mappings.
#[test]
fn every_segment_survives_the_wire() {
    let clean = ALL_VARIANTS.map(|v| (v, false));
    for (variant, chaos) in clean.into_iter().chain([(Variant::Tdtcp, true), (Variant::Mptcp, true)]) {
        let mut net = net(variant, 1);
        if chaos {
            arm(&mut net);
        }
        let watchdog = Some(bench::variants::watchdog_for(&net));
        let crossed = Rc::new(Cell::new(Crossed::default()));
        let wrap = |host: Box<dyn Transport + Send>| -> Box<dyn Transport> {
            let observer = OnTheWire { variant: host.variant(), crossed: Rc::clone(&crossed) };
            Box::new(Tap { host, observer })
        };
        let factory: EndpointFactory = Box::new(|i| {
            let (s, r) = variant.endpoints(i, u64::MAX, watchdog, SimTime::ZERO);
            (wrap(s), wrap(r))
        });
        Emulator::new(net, WIRE_FLOWS, factory).run(WIRE_HORIZON);
        let c = crossed.get();
        assert!(c.sacked > 0, "{variant:?} (chaos {chaos}) sent no SACK block: {c:?}");
        if variant == Variant::Dctcp {
            assert!(c.marked > 0, "no CE mark crossed the wire: {c:?}");
        }
        if variant == Variant::Mptcp {
            assert!(c.capable > 0 && c.mapped > 0, "no MP_CAPABLE or DSS mapping crossed: {c:?}");
        }
    }
}

/// A segment of a shape a run sends: a TDTCP SYN (`shape` 0), a
/// TDN-tagged segment with up to four SACK blocks (1), an MPTCP ACK
/// with a data ACK and up to three (2), an MPTCP data segment with its
/// DSS mapping (3), or an MPTCP handshake step with MP_CAPABLE: SYN,
/// SYN-ACK or third ACK as `seq` modulo 3 says (4).
fn shaped(shape: u8, (seq, ack, wnd, len): (u32, u32, u32, u32), blocks: u32) -> Segment {
    let mut s = Segment::new(FlowId(0), Direction::AckPath);
    s.seq = SeqNum(seq);
    s.ack = SeqNum(ack);
    s.wnd = wnd;
    s.len = len;
    s.flags.ack = true;
    let room = match shape {
        0 => {
            s.flags.syn = true;
            s.td_capable = Some(2);
            0
        }
        1 => {
            (s.data_tdn, s.ack_tdn) = (Some(TdnId(1)), Some(TdnId(0)));
            4
        }
        2 => {
            s.set_data_ack(u64::from(ack));
            3
        }
        3 => {
            s.set_dss(u64::from(seq) << 16 | u64::from(ack));
            0
        }
        _ => {
            (s.flags.syn, s.flags.ack) = (seq % 3 < 2, seq % 3 > 0);
            s.set_mp_capable();
            0
        }
    };
    let mut sack = SackBlocks::EMPTY;
    for i in 0..blocks.min(room) {
        let left = s.ack + 1_000 * (2 * i + 1);
        sack.push(left, left + 500);
    }
    s.set_sack(sack);
    s
}

testkit::props! {
    /// Bytes from outside the program: arbitrary ones; a real encoding
    /// cut short, which is `Truncated`; or a real encoding whose IPv4
    /// total length is false (its header checksum repaired, so the IPv4
    /// parser accepts it), `Truncated` when that length overruns the
    /// buffer. `from_wire` returns on every one of them.
    fn from_wire_never_panics(input in tuple4(
        tuple3(
            range(0u8..5),
            tuple4(uniform::<u32>(), uniform::<u32>(), uniform::<u32>(), range(0u32..1_500)),
            range(0u32..5),
        ),
        range(0u8..3),
        uniform::<u16>(),
        vec_of(uniform::<u8>(), 0..80),
    )) {
        let ((shape, fields, blocks), mode, n, noise) = input;
        let mut bytes = shaped(shape, fields, blocks).to_wire(1, 2, 3, 4);
        let parse = |b: &[u8]| Segment::from_wire(b, FlowId(0), Direction::AckPath).err();
        match mode {
            0 => {
                parse(&noise);
            }
            1 => {
                bytes.truncate(usize::from(n) % bytes.len());
                tk_assert_eq!(parse(&bytes), Some(ParseError::Truncated));
            }
            _ => {
                bytes[2..4].copy_from_slice(&n.to_be_bytes());
                bytes[10..12].fill(0);
                let ck = wire::checksum::internet_checksum(&bytes[..20]);
                bytes[10..12].copy_from_slice(&ck.to_be_bytes());
                let got = parse(&bytes);
                if usize::from(n) > bytes.len() {
                    tk_assert_eq!(got, Some(ParseError::Truncated));
                }
            }
        }
    }
}
