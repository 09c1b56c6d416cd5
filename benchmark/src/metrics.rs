//! The metric catalogue: every name the benchmark emits, with its unit,
//! direction and regression bound. `BENCHMARK.json` carries the same
//! catalogue for the driver; a unit test keeps the two in step.

use crate::trace::{Call, LegProfile};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median the metric may worsen by before
    /// `compare` reports a breach. `None`: reported, never gated.
    pub bound: Option<f64>,
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

const fn bounded(def: Def, bound: f64) -> Def {
    Def {
        bound: Some(bound),
        ..def
    }
}

/// What a user of the simulator sees, on every workload, tracing off.
/// `sim_*` is simulated time (exact at one seed); the rest is host time.
pub const END_TO_END: &[Def] = &[
    bounded(lower("wall_ns_per_sim_ms", "ns/ms"), 0.25),
    bounded(lower("wall_ns_per_delivered_seg", "ns/seg"), 0.25),
    bounded(lower("setup_s", "s"), 0.25),
    bounded(lower("peak_rss_mb", "MB"), 0.25),
    bounded(higher("sim_goodput_gbps", "Gbps"), 0.15),
];

/// One layer each (layer = crate, the prefix of the name). 0 on a
/// workload that does not exercise the thing measured.
pub const PER_LAYER: &[Def] = &[
    // Simulated results and host-time distributions that exist on one
    // workload only (so they cannot be end-to-end metrics of all five).
    bounded(higher("sim.tdtcp_gain_over_cubic", "ratio"), 0.02),
    bounded(higher("sim.frac_of_optimal", "ratio"), 0.02),
    bounded(lower("sim.fct_p50_us", "us"), 0.05),
    bounded(lower("sim.fct_p95_us", "us"), 0.05),
    bounded(lower("sim.fct_censored_frac", "ratio"), 0.05),
    bounded(lower("chaos.scenario_wall_us_p50", "us"), 0.25),
    bounded(lower("chaos.scenario_wall_us_p99", "us"), 0.25),
    // Spans around the calls into the transport crates (traced passes).
    lower("tcp.on_segment_ns", "ns/call"),
    lower("tcp.poll_send_ns", "ns/call"),
    lower("tcp.on_timer_ns", "ns/call"),
    lower("core.on_segment_ns", "ns/call"),
    lower("core.poll_send_ns", "ns/call"),
    lower("core.on_timer_ns", "ns/call"),
    lower("core.on_notify_ns", "ns/call"),
    lower("mptcp.on_segment_ns", "ns/call"),
    lower("mptcp.poll_send_ns", "ns/call"),
    higher("tcp.poll_send_useful_frac", "ratio"),
    higher("core.poll_send_useful_frac", "ratio"),
    higher("mptcp.poll_send_useful_frac", "ratio"),
    lower("core.cost_over_tcp", "ratio"),
    higher("rdcn.transport_share", "ratio"),
    lower("rdcn.engine_self_ns_per_event", "ns/event"),
    lower("rdcn.events_per_delivered_seg", "1/seg"),
    lower("rdcn.notify_calls_per_delivered_seg", "1/seg"),
    lower("rdcn.transport_calls_per_delivered_seg", "1/seg"),
    // Exact counts from the engines' results.
    lower("rdcn.voq_drop_frac", "ratio"),
    lower("tcp.retx_frac", "ratio"),
    lower("tcp.rto_stalls", "count"),
    higher("rdcn.chaos_applied", "count"),
    lower("rdcn.shard_w2_over_w1", "ratio"),
    lower("rdcn.shard_peak_imbalance", "ratio"),
    // Micro-kernels.
    lower("simcore.wheel_ns_per_op", "ns/op"),
    lower("simcore.heap_ns_per_op", "ns/op"),
    lower("simcore.barrier_ns_per_window", "ns/window"),
    lower("tcp.rtx_ns_per_ack", "ns/ack"),
    lower("tcp.rtx_sack_ns_per_op", "ns/op"),
    lower("tcp.reasm_inorder_ns_per_seg", "ns/seg"),
    lower("tcp.reasm_ooo_ns_per_seg", "ns/seg"),
    lower("tcp.segment_bytes", "B"),
    lower("tcp.segment_clone_ns", "ns/seg"),
    lower("wire.segment_roundtrip_ns", "ns/seg"),
    lower("rdcn.voq_ns_per_seg", "ns/seg"),
    lower("rdcn.notify_sample_ns", "ns/call"),
    lower("rdcn.schedule_phase_at_ns", "ns/call"),
    lower("rdcn.impair_on_wire_ns", "ns/call"),
    lower("rdcn.impair_inert_ns", "ns/call"),
    lower("rdcn.fault_on_notify_ns", "ns/call"),
    lower("rdcn.clock_perceived_ns", "ns/call"),
    lower("rdcn.emulator_new_ns", "ns/call"),
    lower("rdcn.sharded_new_ns", "ns/call"),
    lower("bench.generate_ns", "ns/call"),
    lower("bench.check_invariants_ns", "ns/call"),
    // Qualifiers of the numbers above.
    lower("bench.trace_overhead_frac", "ratio"),
    lower("bench.pass_spread", "ratio"),
    higher("bench.available_parallelism", "count"),
];

/// Simulated time (exact at one seed) rather than host time.
pub fn is_simulated(name: &str) -> bool {
    name.starts_with("sim_") || name.starts_with("sim.")
}

#[cfg(test)]
pub fn find(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Span metrics of one traced run: `legs` by variant label, `total`
/// their sum.
pub fn span_metrics(
    legs: &std::collections::BTreeMap<&'static str, LegProfile>,
    total: &LegProfile,
) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let empty = LegProfile::default();
    // One leg stands for each transport crate: CUBIC for `tcp`, TDTCP
    // for `core`, MPTCP for `mptcp`.
    let leg = |label: &str| legs.get(label).unwrap_or(&empty);
    let (tcp, core, mptcp) = (leg("cubic"), leg("tdtcp"), leg("mptcp"));
    for (name, leg, call) in [
        ("tcp.on_segment_ns", tcp, Call::OnSegment),
        ("tcp.poll_send_ns", tcp, Call::PollSend),
        ("tcp.on_timer_ns", tcp, Call::OnTimer),
        ("core.on_segment_ns", core, Call::OnSegment),
        ("core.poll_send_ns", core, Call::PollSend),
        ("core.on_timer_ns", core, Call::OnTimer),
        ("core.on_notify_ns", core, Call::OnNotify),
        ("mptcp.on_segment_ns", mptcp, Call::OnSegment),
        ("mptcp.poll_send_ns", mptcp, Call::PollSend),
    ] {
        out.push((name, leg.call(call).mean_ns()));
    }
    for (name, leg) in [
        ("tcp.poll_send_useful_frac", tcp),
        ("core.poll_send_useful_frac", core),
        ("mptcp.poll_send_useful_frac", mptcp),
    ] {
        let polls = leg.call(Call::PollSend).calls;
        out.push((name, ratio(polls - leg.poll_empty, polls)));
    }
    let per_seg = |l: &LegProfile| ratio(l.transport_ns(), l.delivered_segs);
    let cost_over_tcp = if per_seg(tcp) > 0.0 {
        per_seg(core) / per_seg(tcp)
    } else {
        0.0
    };
    out.push(("core.cost_over_tcp", cost_over_tcp));
    out.push((
        "rdcn.transport_share",
        ratio(total.transport_ns(), total.run_ns),
    ));
    out.push((
        "rdcn.engine_self_ns_per_event",
        ratio(
            total.run_ns.saturating_sub(total.transport_ns()),
            total.events,
        ),
    ));
    out.push((
        "rdcn.notify_calls_per_delivered_seg",
        ratio(total.call(Call::OnNotify).calls, total.delivered_segs),
    ));
    out.push((
        "rdcn.transport_calls_per_delivered_seg",
        ratio(total.transport_calls(), total.delivered_segs),
    ));
    out
}

/// `num / den`, 0 when there is nothing to divide by.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
