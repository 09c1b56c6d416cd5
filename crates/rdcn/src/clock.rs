//! Deterministic per-host clock skew/drift injection — the time plane of
//! the chaos triad.
//!
//! [`crate::faults`] attacks the control plane and [`crate::impair`] the
//! data path; this module attacks the assumption underneath both: that
//! every host agrees with the ToR about *when* the rotor schedule is.
//! A [`ClockPlan`] on `NetConfig` gives each host a local clock with a
//! static offset, a constant ppm drift rate, bounded per-read jitter,
//! and periodic PTP-style resyncs that collapse the accumulated offset
//! back to a configurable residual error floor. The engine computes
//! each host's *perceived* time through [`ClockInjector::perceived`] and
//! judges every link-service launch through [`ClockInjector::on_send`]:
//! a segment launched while the sender's perceived day disagrees with
//! the true day, by more skew than the guard band absorbs, is dropped,
//! deferred to the next day, or delivered on the sender's stale TDN —
//! per the plan's [`SlotEdgePolicy`].
//!
//! Like the other injectors, the clock draws from its own RNG stream
//! forked from the run seed under [`CLOCK_STREAM_LABEL`], and every draw
//! is guarded so an inert plan makes **zero** draws and allocates no
//! host state: a clean run is bit-identical whether or not a
//! `ClockPlan::none()` is attached, and a skewed run is fully
//! reproducible per `(seed, plan)`. Per-host parameters are drawn
//! lazily on first touch; the engine's event order is deterministic,
//! so the draw order is too. Each rack owns an injector for its
//! resident hosts, numbered rack-locally.

use crate::schedule::Schedule;
use crate::statfold::{Books, LogEvent};
use simcore::{DetRng, SimDuration, SimTime};
use testkit::{Counters, Digest};

/// The fixed fork label carving the clock stream out of a run's seed;
/// keeps the main emulator stream (and the fault/impair streams)
/// identical whether or not a plan is attached.
pub const CLOCK_STREAM_LABEL: u64 = 0xC10C;

/// What the fabric does with a segment launched across a slot edge —
/// i.e. when the sender's perceived day disagrees with the true day by
/// more than the guard band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlotEdgePolicy {
    /// The segment dies at the edge (slot-edge loss, the T-RACKs
    /// tail-loss regime). The default.
    #[default]
    Drop,
    /// The segment is held and launched at the start of the next true
    /// day (models ToR-side admission parking mis-timed traffic).
    Defer,
    /// The segment is delivered, but attributed to the sender's stale
    /// TDN view (models a mis-labelled launch crossing the
    /// reconfiguration).
    WrongTdn,
}

/// Declarative description of time-plane adversity. The default plan
/// skews nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockPlan {
    /// Per-host static offset bound: each host draws a fixed offset
    /// uniform in `[-offset_bound, +offset_bound]`.
    pub offset_bound: SimDuration,
    /// Per-host drift-rate bound in parts per million: each host draws
    /// a constant rate uniform in `[-drift_ppm, +drift_ppm]`.
    pub drift_ppm: f64,
    /// Per-read clock jitter bound: every perceived-time read wobbles
    /// uniform in `[-jitter, +jitter]` (clamped so each host's
    /// perceived clock stays monotone).
    pub jitter: SimDuration,
    /// Period of PTP-style resync events per host; `ZERO` disables
    /// resync, so offset and accumulated drift persist.
    pub resync_interval: SimDuration,
    /// Residual error floor after a resync: the offset collapses to a
    /// fresh draw uniform in `[-resync_error, +resync_error]` rather
    /// than to zero (drift keeps running — it is a hardware property).
    pub resync_error: SimDuration,
    /// What the fabric does with a mis-timed launch.
    pub slot_edge_policy: SlotEdgePolicy,
}

impl Default for ClockPlan {
    fn default() -> Self {
        ClockPlan {
            offset_bound: SimDuration::ZERO,
            drift_ppm: 0.0,
            jitter: SimDuration::ZERO,
            resync_interval: SimDuration::ZERO,
            resync_error: SimDuration::ZERO,
            slot_edge_policy: SlotEdgePolicy::Drop,
        }
    }
}

impl ClockPlan {
    /// A plan that skews nothing (`Default`).
    pub fn none() -> ClockPlan {
        ClockPlan::default()
    }

    /// A pure drift plan: hosts drift apart at up to `ppm`, never
    /// resyncing.
    pub fn drift(ppm: f64) -> ClockPlan {
        ClockPlan {
            drift_ppm: ppm,
            ..ClockPlan::default()
        }
    }

    /// A static-offset plan: hosts disagree by up to `bound`, stably.
    pub fn offset(bound: SimDuration) -> ClockPlan {
        ClockPlan {
            offset_bound: bound,
            ..ClockPlan::default()
        }
    }

    /// Whether the plan skews anything at all.
    pub fn is_none(&self) -> bool {
        *self == ClockPlan::default()
    }
}

/// Counters of time-plane effects actually applied during a run. All
/// monotone except `max_abs_skew_ns` (a running maximum, still
/// non-decreasing, and merged across racks by taking the larger);
/// digested into `RunResult::stats_digest`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClockStats {
    /// Launches made while the sender's perceived day disagreed with
    /// the true day (whether or not the guard band absorbed it).
    pub skewed_sends: u64,
    /// Mis-timed launches killed at the slot edge (policy `Drop`).
    pub guard_drops: u64,
    /// Mis-timed launches parked until the next true day (policy
    /// `Defer`).
    pub deferred_sends: u64,
    /// Mis-timed launches delivered on the sender's stale TDN (policy
    /// `WrongTdn`).
    pub wrong_tdn_deliveries: u64,
    /// PTP-style resync events applied across all hosts.
    pub resyncs: u64,
    /// Largest absolute perceived-minus-true skew observed on any host,
    /// in nanoseconds (the maximum of `|skew|`).
    pub max_abs_skew_ns: u64,
}

impl ClockStats {
    /// Total time-plane events applied (the running maximum is not an
    /// event count and is excluded).
    pub fn total(&self) -> u64 {
        self.sum()
    }
}

impl Counters for ClockStats {
    fn counters_mut(&mut self) -> impl IntoIterator<Item = &mut u64> {
        testkit::counters!(self, ClockStats {
            skewed_sends,
            guard_drops,
            deferred_sends,
            wrong_tdn_deliveries,
            resyncs,
        } skip { max_abs_skew_ns })
    }

    fn maxima_mut(&mut self) -> impl IntoIterator<Item = &mut u64> {
        [&mut self.max_abs_skew_ns]
    }
}

/// One concrete applied time-plane event, recorded in order of
/// application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockEvent {
    /// A host's clock resynced, collapsing its offset to a residual.
    Resync {
        /// True simulated time of the resync in nanoseconds.
        at_ns: u64,
        /// Host index.
        host: usize,
        /// Residual offset after the resync, in nanoseconds.
        residual_ns: i64,
    },
    /// A mis-timed launch was killed at the slot edge.
    GuardDrop {
        /// True simulated time of the launch in nanoseconds.
        at_ns: u64,
        /// Sending host index.
        host: usize,
        /// The sender's skew at launch, in nanoseconds.
        skew_ns: i64,
    },
    /// A mis-timed launch was parked until the next true day.
    Defer {
        /// True simulated time of the launch in nanoseconds.
        at_ns: u64,
        /// Sending host index.
        host: usize,
        /// The sender's skew at launch, in nanoseconds.
        skew_ns: i64,
    },
    /// A mis-timed launch was delivered on the sender's stale TDN.
    WrongTdn {
        /// True simulated time of the launch in nanoseconds.
        at_ns: u64,
        /// Sending host index.
        host: usize,
        /// The sender's skew at launch, in nanoseconds.
        skew_ns: i64,
    },
}

impl LogEvent for ClockEvent {
    type Stats = ClockStats;

    fn counter(self, s: &mut ClockStats) -> &mut u64 {
        match self {
            ClockEvent::Resync { .. } => &mut s.resyncs,
            ClockEvent::GuardDrop { .. } => &mut s.guard_drops,
            ClockEvent::Defer { .. } => &mut s.deferred_sends,
            ClockEvent::WrongTdn { .. } => &mut s.wrong_tdn_deliveries,
        }
    }

    fn write_digest(&self, d: &mut Digest) {
        match *self {
            ClockEvent::Resync {
                at_ns,
                host,
                residual_ns,
            } => {
                d.write_u64(1).write_u64(at_ns).write_usize(host).write_i64(residual_ns);
            }
            ClockEvent::GuardDrop { at_ns, host, skew_ns } => {
                d.write_u64(2).write_u64(at_ns).write_usize(host).write_i64(skew_ns);
            }
            ClockEvent::Defer { at_ns, host, skew_ns } => {
                d.write_u64(3).write_u64(at_ns).write_usize(host).write_i64(skew_ns);
            }
            ClockEvent::WrongTdn { at_ns, host, skew_ns } => {
                d.write_u64(4).write_u64(at_ns).write_usize(host).write_i64(skew_ns);
            }
        }
    }
}

/// The injector's decision for one segment launched onto a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockVerdict {
    /// The launch is aligned (or absorbed by the guard band): deliver
    /// normally.
    Send,
    /// Kill the segment at the slot edge.
    GuardDrop,
    /// Park the segment; the emulator relaunches it at the next true
    /// day start.
    Defer,
    /// Deliver, but attributed to the sender's perceived (stale) day —
    /// the segment rides that day's TDN characteristics instead of the
    /// true active one's.
    WrongTdn {
        /// The day the sender believed was active at launch.
        perceived_day: u64,
    },
}

/// One host's local clock: a fixed offset, a constant drift rate, and
/// the true time of its last resync.
#[derive(Debug, Clone, Copy)]
struct HostClock {
    /// Offset at the last sync point, in nanoseconds.
    offset_ns: i64,
    /// Drift rate in parts per million (perceived runs fast when
    /// positive).
    drift_ppm: f64,
    /// True time of the last (re)sync the drift term accumulates from.
    synced_at: SimTime,
    /// Monotonicity clamp: the largest perceived time handed out so
    /// far.
    last_perceived: SimTime,
    /// True time of the last read. Reads come in time order: one from
    /// the future would carry the clamp and resyncs past the simulation.
    last_read: SimTime,
}

/// Executes a [`ClockPlan`] against a dedicated RNG stream, owns every
/// host's local clock, and records what was applied.
#[derive(Debug)]
pub struct ClockInjector {
    plan: ClockPlan,
    rng: DetRng,
    books: Books<ClockEvent>,
    hosts: Vec<Option<HostClock>>,
}

impl ClockInjector {
    /// An injector for `plan` drawing from `rng` (conventionally
    /// `run_rng.fork(CLOCK_STREAM_LABEL)`).
    pub fn new(plan: ClockPlan, rng: DetRng) -> Self {
        ClockInjector {
            plan,
            rng,
            books: Books::default(),
            hosts: Vec::new(),
        }
    }

    /// The counters and log of every time-plane effect applied so far.
    pub fn books(&self) -> &Books<ClockEvent> {
        &self.books
    }

    /// Whether the plan skews nothing (the zero-draw fast path).
    pub fn is_inert(&self) -> bool {
        self.plan.is_none()
    }

    /// Draw a value uniform in `[-bound, +bound]` nanoseconds, making
    /// no draw (and returning 0) when the bound is zero.
    fn draw_signed(rng: &mut DetRng, bound: SimDuration) -> i64 {
        let b = bound.as_nanos();
        if b == 0 {
            return 0;
        }
        rng.gen_range(0..=2 * b) as i64 - b as i64
    }

    /// The host's clock, drawing its parameters on first touch and
    /// applying any resyncs due by `now`.
    fn host_mut(&mut self, host: usize, now: SimTime) -> &mut HostClock {
        if self.hosts.len() <= host {
            self.hosts.resize(host + 1, None);
        }
        if self.hosts[host].is_none() {
            let offset_ns = Self::draw_signed(&mut self.rng, self.plan.offset_bound);
            let drift_ppm = if self.plan.drift_ppm > 0.0 {
                (self.rng.gen_f64() * 2.0 - 1.0) * self.plan.drift_ppm
            } else {
                0.0
            };
            self.hosts[host] = Some(HostClock {
                offset_ns,
                drift_ppm,
                synced_at: SimTime::ZERO,
                last_perceived: SimTime::ZERO,
                last_read: SimTime::ZERO,
            });
        }
        // Apply every resync that has come due since the last touch.
        let interval = self.plan.resync_interval;
        if interval > SimDuration::ZERO {
            loop {
                let due = {
                    let hc = self.hosts[host].as_ref().unwrap();
                    hc.synced_at + interval
                };
                if now < due {
                    break;
                }
                let residual_ns = Self::draw_signed(&mut self.rng, self.plan.resync_error);
                let hc = self.hosts[host].as_mut().unwrap();
                hc.synced_at = due;
                hc.offset_ns = residual_ns;
                self.books.record(ClockEvent::Resync {
                    at_ns: due.as_nanos(),
                    host,
                    residual_ns,
                });
            }
        }
        self.hosts[host].as_mut().unwrap()
    }

    /// The host's perceived local time at true time `now`: offset plus
    /// accumulated drift plus bounded read jitter, clamped monotone.
    /// Inert plans return `now` untouched with zero draws. A host's
    /// reads must come in time order.
    pub fn perceived(&mut self, host: usize, now: SimTime) -> SimTime {
        if self.is_inert() {
            return now;
        }
        let jitter = self.plan.jitter;
        let jitter_ns = Self::draw_signed(&mut self.rng, jitter);
        let hc = self.host_mut(host, now);
        debug_assert!(
            now >= hc.last_read,
            "host {host}'s clock read at {now:?} after a read at {:?}",
            hc.last_read
        );
        hc.last_read = now;
        let elapsed = now.saturating_since(hc.synced_at).as_nanos();
        let drift_ns = (hc.drift_ppm * elapsed as f64 / 1e6) as i64;
        let raw = now.as_nanos() as i128 + hc.offset_ns as i128 + drift_ns as i128
            + jitter_ns as i128;
        let p = SimTime::from_nanos(raw.clamp(0, u64::MAX as i128) as u64);
        let p = if p < hc.last_perceived { hc.last_perceived } else { p };
        hc.last_perceived = p;
        let max = &mut self.books.stats_mut().max_abs_skew_ns;
        *max = (*max).max(p.as_nanos().abs_diff(now.as_nanos()));
        p
    }

    /// Perceived-minus-true skew of `host` at `now`, in nanoseconds.
    pub fn skew_ns(&mut self, host: usize, now: SimTime) -> i64 {
        let p = self.perceived(host, now);
        p.as_nanos() as i64 - now.as_nanos() as i64
    }

    /// Judge one segment launched by `host` at true time `now`: if the
    /// sender's perceived day (per `sched`) disagrees with the true day
    /// by more skew than `guard_band` absorbs, the plan's slot-edge
    /// policy applies. Aligned launches — and all launches under an
    /// inert plan — pass untouched.
    pub fn on_send(
        &mut self,
        host: usize,
        now: SimTime,
        sched: &Schedule,
        guard_band: SimDuration,
    ) -> ClockVerdict {
        if self.is_inert() {
            return ClockVerdict::Send;
        }
        let p = self.perceived(host, now);
        let perceived_day = sched.day_number(p);
        if perceived_day == sched.day_number(now) {
            return ClockVerdict::Send;
        }
        self.books.stats_mut().skewed_sends += 1;
        let skew_ns = p.as_nanos() as i64 - now.as_nanos() as i64;
        if skew_ns.unsigned_abs() <= guard_band.as_nanos() {
            // The guard band exists precisely to absorb this much skew.
            return ClockVerdict::Send;
        }
        let at_ns = now.as_nanos();
        let (ev, verdict) = match self.plan.slot_edge_policy {
            SlotEdgePolicy::Drop => (
                ClockEvent::GuardDrop { at_ns, host, skew_ns },
                ClockVerdict::GuardDrop,
            ),
            SlotEdgePolicy::Defer => (ClockEvent::Defer { at_ns, host, skew_ns }, ClockVerdict::Defer),
            SlotEdgePolicy::WrongTdn => (
                ClockEvent::WrongTdn { at_ns, host, skew_ns },
                ClockVerdict::WrongTdn { perceived_day },
            ),
        };
        self.books.record(ev);
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(plan: ClockPlan, seed: u64) -> ClockInjector {
        ClockInjector::new(plan, DetRng::new(seed).fork(CLOCK_STREAM_LABEL))
    }

    #[test]
    fn inert_plan_skews_nothing_and_draws_nothing() {
        let mut inj = injector(ClockPlan::none(), 1);
        let sched = Schedule::hybrid_6to1();
        for i in 0..200u64 {
            let t = SimTime::from_micros(i * 7);
            assert_eq!(inj.perceived(3, t), t);
            assert_eq!(inj.skew_ns(5, t), 0);
            assert_eq!(
                inj.on_send(3, t, &sched, SimDuration::ZERO),
                ClockVerdict::Send
            );
        }
        assert_eq!(inj.books().stats().total(), 0);
        assert_eq!(inj.books().stats().max_abs_skew_ns, 0);
        assert!(inj.books().log().is_empty());
        assert!(inj.hosts.is_empty(), "inert plans allocate no host state");
    }

    #[test]
    fn static_offset_is_bounded_and_stable() {
        let plan = ClockPlan::offset(SimDuration::from_micros(50));
        let mut inj = injector(plan, 7);
        for host in 0..8 {
            let s0 = inj.skew_ns(host, SimTime::from_micros(100));
            let s1 = inj.skew_ns(host, SimTime::from_millis(40));
            assert!(s0.unsigned_abs() <= 50_000, "offset {s0} out of bound");
            assert_eq!(s0, s1, "a pure offset must not move");
        }
        assert!(
            (0..8).any(|h| inj.skew_ns(h, SimTime::from_millis(40)) != 0),
            "some host should draw a nonzero offset"
        );
    }

    #[test]
    fn drift_accumulates_linearly() {
        let plan = ClockPlan::drift(100.0);
        let mut inj = injector(plan, 11);
        // 100 ppm over 10 ms is at most 1 µs of skew.
        let early = inj.skew_ns(0, SimTime::from_millis(1));
        let late = inj.skew_ns(0, SimTime::from_millis(10));
        assert!(late.unsigned_abs() <= 1_000, "skew {late} over ppm bound");
        if early != 0 {
            assert!(
                late.unsigned_abs() >= early.unsigned_abs(),
                "drift must accumulate ({early} -> {late})"
            );
        }
    }

    #[test]
    fn resync_collapses_offset_to_error_floor() {
        let plan = ClockPlan {
            offset_bound: SimDuration::from_micros(80),
            resync_interval: SimDuration::from_millis(1),
            resync_error: SimDuration::from_micros(2),
            ..ClockPlan::default()
        };
        let mut inj = injector(plan, 13);
        // Touch early so the initial offset is drawn, then jump past
        // several resync intervals.
        let _ = inj.skew_ns(0, SimTime::from_micros(10));
        let s = inj.skew_ns(0, SimTime::from_millis(5));
        assert!(
            s.unsigned_abs() <= 2_000,
            "post-resync skew {s} above the error floor"
        );
        assert!(inj.books().stats().resyncs >= 5, "resyncs {}", inj.books().stats().resyncs);
    }

    #[test]
    fn guard_band_absorbs_small_skew_and_policy_applies_past_it() {
        let sched = Schedule::hybrid_6to1();
        // Force a deterministic, large positive offset by drawing until
        // a host with |offset| > 40 µs turns up.
        let plan = ClockPlan {
            offset_bound: SimDuration::from_micros(60),
            ..ClockPlan::default()
        };
        let mut inj = injector(plan.clone(), 17);
        let host = (0..64)
            .find(|&h| inj.skew_ns(h, SimTime::ZERO).unsigned_abs() > 40_000)
            .expect("some host draws a large offset");
        let skew = inj.skew_ns(host, SimTime::ZERO);
        // Pick a true launch time so that now and now+skew straddle a
        // day boundary: just before a boundary for positive skew, just
        // after for negative.
        let slot = sched.slot_len();
        let boundary = SimTime::ZERO + slot * 3;
        let launch = if skew > 0 {
            boundary - SimDuration::from_nanos(skew.unsigned_abs() / 2)
        } else {
            boundary + SimDuration::from_nanos(skew.unsigned_abs() / 2 - 1)
        };
        // Wide guard band: absorbed.
        assert_eq!(
            inj.on_send(host, launch, &sched, SimDuration::from_micros(100)),
            ClockVerdict::Send
        );
        assert_eq!(inj.books().stats().guard_drops, 0);
        assert!(inj.books().stats().skewed_sends > 0, "mis-timing must be counted");
        // Narrow guard band: the policy fires.
        assert_eq!(
            inj.on_send(host, launch, &sched, SimDuration::from_micros(1)),
            ClockVerdict::GuardDrop
        );
        assert_eq!(inj.books().stats().guard_drops, 1);
        // Same scenario under the other policies.
        for policy in [SlotEdgePolicy::Defer, SlotEdgePolicy::WrongTdn] {
            let mut inj2 = injector(
                ClockPlan {
                    slot_edge_policy: policy,
                    ..plan.clone()
                },
                17,
            );
            let v = inj2.on_send(host, launch, &sched, SimDuration::from_micros(1));
            match policy {
                SlotEdgePolicy::Defer => assert_eq!(v, ClockVerdict::Defer),
                SlotEdgePolicy::WrongTdn => {
                    assert!(matches!(v, ClockVerdict::WrongTdn { .. }), "got {v:?}");
                }
                SlotEdgePolicy::Drop => unreachable!(),
            }
        }
    }

    #[test]
    fn log_digest_is_deterministic_per_seed_and_plan() {
        let sched = Schedule::hybrid_6to1();
        let plan = ClockPlan {
            offset_bound: SimDuration::from_micros(120),
            drift_ppm: 200.0,
            jitter: SimDuration::from_nanos(500),
            resync_interval: SimDuration::from_millis(2),
            resync_error: SimDuration::from_micros(1),
            ..ClockPlan::default()
        };
        let mut a = injector(plan.clone(), 21);
        let mut b = injector(plan.clone(), 21);
        for i in 0..4_000u64 {
            let t = SimTime::from_nanos(i * 3_113);
            let host = (i % 6) as usize;
            assert_eq!(
                a.on_send(host, t, &sched, SimDuration::from_micros(5)),
                b.on_send(host, t, &sched, SimDuration::from_micros(5))
            );
        }
        assert_eq!(a.books().digest(), b.books().digest());
        assert_eq!(a.books().log(), b.books().log());
        assert_eq!(a.books().stats(), b.books().stats());
        let mut c = injector(plan, 22);
        for i in 0..4_000u64 {
            let t = SimTime::from_nanos(i * 3_113);
            c.on_send((i % 6) as usize, t, &sched, SimDuration::from_micros(5));
        }
        assert_ne!(a.books().digest(), c.books().digest(), "seed must matter");
    }

    #[test]
    fn perceived_time_is_monotone_per_host() {
        let plan = ClockPlan {
            jitter: SimDuration::from_micros(3),
            drift_ppm: 50.0,
            ..ClockPlan::default()
        };
        let mut inj = injector(plan, 29);
        let mut last = SimTime::ZERO;
        for i in 0..2_000u64 {
            let p = inj.perceived(0, SimTime::from_nanos(i * 400));
            assert!(p >= last, "perceived time went backwards");
            last = p;
        }
    }
}
