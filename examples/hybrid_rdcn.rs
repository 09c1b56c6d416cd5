//! The paper's headline scenario as a runnable demo: 16 long-lived flows
//! on the hybrid RDCN, TDTCP against CUBIC and MPTCP, with a per-day
//! breakdown and an ASCII sequence graph.
//!
//! ```sh
//! cargo run --release --example hybrid_rdcn
//! ```

use bench::{Variant, Workload};
use rdcn::{analytic, NetConfig};
use simcore::{SimDuration, SimTime};

fn main() {
    let net = NetConfig::paper_baseline();
    let horizon = SimTime::from_millis(30);
    let variants = [Variant::Tdtcp, Variant::Cubic, Variant::Mptcp];

    println!("hybrid RDCN, 16 flows, {}ms:", 30);
    println!(
        "schedule: {} days of {} + nights of {}, TDN1 (optical) 1 day in {}",
        net.schedule.days.len(),
        net.schedule.day_len,
        net.schedule.night_len,
        net.schedule.days.len(),
    );

    let mut results = Vec::new();
    for v in variants {
        let res = Workload::bulk(v, horizon).run(&net);
        results.push((v, res));
    }

    // Steady-state rates per phase.
    println!(
        "\n{:>8} {:>12} {:>14} {:>14}",
        "variant", "total Gbps", "packet-day Gbps", "optical-day Gbps"
    );
    let warmup_day = 50u64;
    let last_day = horizon.as_nanos() / net.schedule.slot_len().as_nanos() - 1;
    for (v, res) in &results {
        let (mut pb, mut pd, mut ob, mut od) = (0.0, 0u64, 0.0, 0u64);
        for day in warmup_day..last_day {
            let d = res
                .seq_series
                .value_at(net.schedule.day_start(day + 1), 0.0)
                - res.seq_series.value_at(net.schedule.day_start(day), 0.0);
            if rdcn::is_circuit(net.schedule.day_tdn(day)) {
                ob += d;
                od += 1;
            } else {
                pb += d;
                pd += 1;
            }
        }
        let slot_ns = net.schedule.slot_len().as_nanos() as f64;
        let total = (pb + ob) * 8.0 / ((pd + od) as f64 * slot_ns);
        println!(
            "{:>8} {:>12.2} {:>14.2} {:>14.2}",
            v.label(),
            total,
            pb * 8.0 / (pd as f64 * slot_ns),
            ob * 8.0 / (od as f64 * slot_ns),
        );
    }
    println!(
        "{:>8} {:>12.2}   (analytic optimal)",
        "optimal",
        analytic::optimal_rate_bps(&net) / 1e9
    );

    // ASCII sequence graph over one optical week of steady state.
    println!("\nsequence progress over one week (# = bytes acked, . = optimal):");
    let start = net.schedule.day_start(70);
    let step = SimDuration::from_micros(50);
    let cols = (net.schedule.week_len().as_nanos() / step.as_nanos()) as usize;
    let opt_week =
        analytic::optimal_bytes(&net, start + net.schedule.week_len()) - analytic::optimal_bytes(&net, start);
    for (v, res) in &results {
        let base = res.seq_series.value_at(start, 0.0);
        print!("{:>8} |", v.label());
        for k in 0..cols {
            let t = start + step * k as u64;
            let frac = (res.seq_series.value_at(t, 0.0) - base) / opt_week;
            let optimal_frac =
                (analytic::optimal_bytes(&net, t) - analytic::optimal_bytes(&net, start)) / opt_week;
            let c = if frac >= optimal_frac * 0.98 {
                '#'
            } else if frac >= optimal_frac * 0.5 {
                '+'
            } else {
                '.'
            };
            print!("{c}");
        }
        println!("|");
    }
    println!(
        "{:>8}  (column = 50us; '#' tracks optimal, '+' above half, '.' below)",
        ""
    );
}
