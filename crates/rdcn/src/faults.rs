//! Deterministic fault injection for the emulated RDCN.
//!
//! TDTCP's premise is that hosts track the network's time-division state
//! via ToR notifications (§3.2, §5.4) — so the interesting question is
//! what happens when that signal is late, lost, duplicated, or the
//! optical day itself fails mid-cycle. A [`FaultPlan`] declares the
//! adversity; a [`FaultInjector`] executes it against its own
//! [`DetRng`] stream (forked from the run seed under a fixed label), so
//! a `(seed, plan)` pair fully determines the injected-event sequence
//! and faulted runs stay digest-stable like clean ones.
//!
//! Fault classes:
//! - **Notification faults**: drop, extra delay, and duplication of TDN
//!   change notifications. A duplicate is re-delivered with a lag of up
//!   to two schedule slots, which also produces *reordering* — the
//!   duplicate of day N can arrive after day N+1's notification.
//! - **Link failure**: an OCS circuit day truncated mid-day (the light
//!   path drops while packets are in flight) followed by an outage
//!   window during which circuit days simply never come up. Failures
//!   are unannounced: the ToR sends no notifications for absent days,
//!   so hosts discover the outage only through their watchdogs.
//! - **Schedule freeze**: the rotor stops advancing for a window of
//!   days, replaying one day's TDN (a stuck-rotor fault).
//! - **EPS burst**: a window of random drop/corruption of segments as
//!   they launch on the packet network (corrupted segments fail their
//!   checksum at delivery and are discarded, so both manifest as loss
//!   with distinct counters).

use crate::schedule::is_circuit;
use crate::statfold::{Books, LogEvent};
use simcore::{DetRng, SimDuration, SimTime};
use testkit::{Counters, Digest};
use wire::TdnId;

/// A mid-day OCS circuit failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFailure {
    /// Global day number of the circuit day that fails (must map to the
    /// circuit TDN for the fault to trigger).
    pub day: u64,
    /// Fraction of the day length after which the circuit drops
    /// (clamped to `[0, 1]`).
    pub at_fraction: f64,
    /// Outage length in day-slots: any circuit day `d` with
    /// `day < d < day + outage_days` never comes up at all.
    pub outage_days: u64,
}

/// A stuck rotor: the schedule replays `from_day`'s TDN for `days`
/// consecutive days.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleFreeze {
    /// First frozen day.
    pub from_day: u64,
    /// Number of days the rotor stays stuck.
    pub days: u64,
}

/// A burst of random drop/corruption applied to packet-network launches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsBurst {
    /// Burst window start.
    pub start: SimTime,
    /// Burst window length.
    pub len: SimDuration,
    /// Per-segment drop probability within the window.
    pub drop_rate: f64,
    /// Per-segment corruption probability within the window (checked
    /// after the drop draw; corrupted segments are discarded too).
    pub corrupt_rate: f64,
}

/// Declarative description of the adversity to inject into a run. The
/// default plan injects nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Probability that a TDN-change notification is silently dropped.
    pub notify_loss: f64,
    /// With probability `.0`, add an exponentially distributed extra
    /// delivery delay of mean `.1` to a notification.
    pub notify_extra_delay: Option<(f64, SimDuration)>,
    /// Probability that a notification is delivered twice; the duplicate
    /// lags the original by up to ~2 schedule slots (so it can arrive
    /// out of order with the next day's notification).
    pub notify_duplicate: f64,
    /// Mid-day OCS circuit failure plus outage window.
    pub link_failure: Option<LinkFailure>,
    /// Stuck-rotor schedule freeze.
    pub freeze: Option<ScheduleFreeze>,
    /// Packet-network drop/corruption burst.
    pub eps_burst: Option<EpsBurst>,
}

impl FaultPlan {
    /// A plan that injects nothing (`Default`).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan that only drops notifications at `rate`.
    pub fn notification_loss(rate: f64) -> FaultPlan {
        FaultPlan {
            notify_loss: rate,
            ..FaultPlan::default()
        }
    }
}

/// Counters of every fault actually injected during a run. All monotone;
/// digested into `RunResult::stats_digest`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Notifications silently dropped.
    pub notifications_dropped: u64,
    /// Notifications delivered with injected extra delay.
    pub notifications_delayed: u64,
    /// Notifications delivered twice.
    pub notifications_duplicated: u64,
    /// Circuit days truncated mid-day.
    pub days_truncated: u64,
    /// Circuit days that never came up during an outage window.
    pub days_absent: u64,
    /// Days served with a frozen (replayed) TDN.
    pub days_frozen: u64,
    /// Segments dropped by the EPS burst.
    pub eps_drops: u64,
    /// Segments corrupted (and discarded) by the EPS burst.
    pub eps_corruptions: u64,
}

impl FaultStats {
    /// Total faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.sum()
    }
}

impl Counters for FaultStats {
    fn counters_mut(&mut self) -> impl IntoIterator<Item = &mut u64> {
        testkit::counters!(self, FaultStats {
            notifications_dropped,
            notifications_delayed,
            notifications_duplicated,
            days_truncated,
            days_absent,
            days_frozen,
            eps_drops,
            eps_corruptions,
        })
    }
}

/// One concrete injected fault, recorded in order of injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// A notification was dropped.
    NotifyDropped {
        /// Day whose notification was lost.
        day: u64,
        /// Flow index.
        flow: u32,
        /// Endpoint side (0 = sender rack, 1 = receiver rack).
        side: u8,
    },
    /// A notification picked up injected extra delay.
    NotifyDelayed {
        /// Day whose notification was delayed.
        day: u64,
        /// Flow index.
        flow: u32,
        /// Endpoint side.
        side: u8,
        /// Injected extra delay in nanoseconds.
        extra_ns: u64,
    },
    /// A notification was delivered twice.
    NotifyDuplicated {
        /// Day whose notification was duplicated.
        day: u64,
        /// Flow index.
        flow: u32,
        /// Endpoint side.
        side: u8,
        /// Duplicate's lag behind the original in nanoseconds.
        lag_ns: u64,
    },
    /// A circuit day was truncated mid-day.
    DayTruncated {
        /// The truncated day.
        day: u64,
    },
    /// A circuit day never came up (outage window).
    DayAbsent {
        /// The absent day.
        day: u64,
    },
    /// A day was served with a frozen (replayed) TDN.
    DayFrozen {
        /// The frozen day.
        day: u64,
    },
    /// A segment was dropped at its packet-network launch.
    EpsDrop {
        /// Simulated time of the drop in nanoseconds.
        at_ns: u64,
    },
    /// A segment was corrupted (and discarded) at its packet-network launch.
    EpsCorrupt {
        /// Simulated time of the corruption in nanoseconds.
        at_ns: u64,
    },
}

impl LogEvent for InjectedFault {
    type Stats = FaultStats;

    fn counter(self, s: &mut FaultStats) -> &mut u64 {
        match self {
            InjectedFault::NotifyDropped { .. } => &mut s.notifications_dropped,
            InjectedFault::NotifyDelayed { .. } => &mut s.notifications_delayed,
            InjectedFault::NotifyDuplicated { .. } => &mut s.notifications_duplicated,
            InjectedFault::DayTruncated { .. } => &mut s.days_truncated,
            InjectedFault::DayAbsent { .. } => &mut s.days_absent,
            InjectedFault::DayFrozen { .. } => &mut s.days_frozen,
            InjectedFault::EpsDrop { .. } => &mut s.eps_drops,
            InjectedFault::EpsCorrupt { .. } => &mut s.eps_corruptions,
        }
    }

    fn write_digest(&self, d: &mut Digest) {
        match *self {
            InjectedFault::NotifyDropped { day, flow, side } => {
                d.write_u64(1).write_u64(day).write_u32(flow);
                d.write_u64(u64::from(side));
            }
            InjectedFault::NotifyDelayed {
                day,
                flow,
                side,
                extra_ns,
            } => {
                d.write_u64(2).write_u64(day).write_u32(flow);
                d.write_u64(u64::from(side)).write_u64(extra_ns);
            }
            InjectedFault::NotifyDuplicated {
                day,
                flow,
                side,
                lag_ns,
            } => {
                d.write_u64(3).write_u64(day).write_u32(flow);
                d.write_u64(u64::from(side)).write_u64(lag_ns);
            }
            InjectedFault::DayTruncated { day } => {
                d.write_u64(4).write_u64(day);
            }
            InjectedFault::DayAbsent { day } => {
                d.write_u64(5).write_u64(day);
            }
            InjectedFault::DayFrozen { day } => {
                d.write_u64(6).write_u64(day);
            }
            InjectedFault::EpsDrop { at_ns } => {
                d.write_u64(7).write_u64(at_ns);
            }
            InjectedFault::EpsCorrupt { at_ns } => {
                d.write_u64(8).write_u64(at_ns);
            }
        }
    }
}

/// The injector's decision for one notification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotifyVerdict {
    /// Silently dropped.
    Drop,
    /// Delivered (possibly late, possibly twice).
    Deliver {
        /// Extra delivery delay beyond the latency model's sample.
        extra: SimDuration,
        /// If set, deliver a second copy this much after the original.
        duplicate: Option<SimDuration>,
    },
}

/// What becomes of one scheduled day.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DayFate {
    /// The day proceeds normally.
    Normal,
    /// The day starts but the link fails after this fraction of it.
    Truncated(f64),
    /// The day never comes up; no notifications are sent.
    Absent,
}

/// The injector's decision for one segment launching on the packet network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpsVerdict {
    /// Forward normally.
    Pass,
    /// Drop at launch.
    Drop,
    /// Corrupt; the segment fails its checksum downstream and is
    /// discarded.
    Corrupt,
}

/// Executes a [`FaultPlan`] against a dedicated RNG stream and records
/// what was injected.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: DetRng,
    books: Books<InjectedFault>,
}

/// The fixed fork label carving the fault stream out of a run's seed;
/// keeps the main emulator stream identical whether or not a plan is
/// attached.
pub const FAULT_STREAM_LABEL: u64 = 0xFA17;

impl FaultInjector {
    /// An injector for `plan` drawing from `rng` (conventionally
    /// `run_rng.fork(FAULT_STREAM_LABEL)`).
    pub fn new(plan: FaultPlan, rng: DetRng) -> Self {
        FaultInjector {
            plan,
            rng,
            books: Books::default(),
        }
    }

    /// The counters and log of every fault injected so far.
    pub fn books(&self) -> &Books<InjectedFault> {
        &self.books
    }

    /// Decide the fate of the notification for (`day`, `flow`, `side`).
    pub fn on_notify(&mut self, day: u64, flow: usize, side: u8) -> NotifyVerdict {
        let flow = flow as u32;
        if self.plan.notify_loss > 0.0 && self.rng.chance(self.plan.notify_loss) {
            self.books.record(InjectedFault::NotifyDropped { day, flow, side });
            return NotifyVerdict::Drop;
        }
        let mut extra = SimDuration::ZERO;
        if let Some((p, mean)) = self.plan.notify_extra_delay {
            if p > 0.0 && self.rng.chance(p) {
                extra =
                    SimDuration::from_nanos(self.rng.exponential(mean.as_nanos() as f64) as u64);
                self.books.record(InjectedFault::NotifyDelayed {
                    day,
                    flow,
                    side,
                    extra_ns: extra.as_nanos(),
                });
            }
        }
        let duplicate = if self.plan.notify_duplicate > 0.0
            && self.rng.chance(self.plan.notify_duplicate)
        {
            // Lag up to ~2 hybrid-schedule slots: duplicates routinely
            // arrive after the *next* day's notification, exercising the
            // endpoint's out-of-order (stale-generation) path.
            let lag = SimDuration::from_nanos(self.rng.gen_range(1_000..400_000u64));
            self.books.record(InjectedFault::NotifyDuplicated {
                day,
                flow,
                side,
                lag_ns: lag.as_nanos(),
            });
            Some(lag)
        } else {
            None
        };
        NotifyVerdict::Deliver { extra, duplicate }
    }

    /// Map a schedule day through the freeze fault: frozen days replay
    /// `from_day`'s position in the rotor. A pure function of the plan
    /// and the day, so every rack derives the same day without a
    /// message; [`FaultInjector::record_day`] counts it.
    pub fn schedule_day(&self, day: u64) -> u64 {
        match self.plan.freeze {
            Some(fz) if day > fz.from_day && day < fz.from_day.saturating_add(fz.days) => {
                fz.from_day
            }
            _ => day,
        }
    }

    /// Decide the fate of day `day` serving `tdn` (the link-failure fault
    /// applies to circuit days only). Pure, like
    /// [`FaultInjector::schedule_day`].
    pub fn day_fate(&self, day: u64, tdn: TdnId) -> DayFate {
        let Some(lf) = self.plan.link_failure else {
            return DayFate::Normal;
        };
        if !is_circuit(tdn) {
            DayFate::Normal
        } else if day == lf.day {
            DayFate::Truncated(lf.at_fraction.clamp(0.0, 1.0))
        } else if day > lf.day && day < lf.day.saturating_add(lf.outage_days) {
            DayFate::Absent
        } else {
            DayFate::Normal
        }
    }

    /// Count and log what [`FaultInjector::schedule_day`] (`sched_day`)
    /// and [`FaultInjector::day_fate`] (`fate`) decided for `day` — once
    /// per day for the whole fabric.
    pub fn record_day(&mut self, day: u64, sched_day: u64, fate: DayFate) {
        if sched_day != day {
            self.books.record(InjectedFault::DayFrozen { day });
        }
        match fate {
            DayFate::Normal => {}
            DayFate::Truncated(_) => {
                self.books.record(InjectedFault::DayTruncated { day });
            }
            DayFate::Absent => {
                self.books.record(InjectedFault::DayAbsent { day });
            }
        }
    }

    /// Decide the fate of one segment launching on the packet network at
    /// `now`.
    pub fn on_transit(&mut self, now: SimTime) -> EpsVerdict {
        let Some(b) = self.plan.eps_burst else {
            return EpsVerdict::Pass;
        };
        if now < b.start || now >= b.start + b.len {
            return EpsVerdict::Pass;
        }
        if b.drop_rate > 0.0 && self.rng.chance(b.drop_rate) {
            self.books.record(InjectedFault::EpsDrop { at_ns: now.as_nanos() });
            return EpsVerdict::Drop;
        }
        if b.corrupt_rate > 0.0 && self.rng.chance(b.corrupt_rate) {
            self.books.record(InjectedFault::EpsCorrupt { at_ns: now.as_nanos() });
            return EpsVerdict::Corrupt;
        }
        EpsVerdict::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(plan: FaultPlan, seed: u64) -> FaultInjector {
        FaultInjector::new(plan, DetRng::new(seed).fork(FAULT_STREAM_LABEL))
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let mut inj = injector(FaultPlan::none(), 1);
        for day in 0..50 {
            assert_eq!(
                inj.on_notify(day, 0, 0),
                NotifyVerdict::Deliver {
                    extra: SimDuration::ZERO,
                    duplicate: None
                }
            );
            assert_eq!(inj.day_fate(day, TdnId(1)), DayFate::Normal);
            assert_eq!(inj.schedule_day(day), day);
            assert_eq!(
                inj.on_transit(SimTime::from_micros(day)),
                EpsVerdict::Pass
            );
        }
        assert_eq!(inj.books().stats().total(), 0);
        assert!(inj.books().log().is_empty());
    }

    #[test]
    fn notification_loss_rate_is_respected() {
        let mut inj = injector(FaultPlan::notification_loss(0.2), 7);
        let mut dropped = 0u64;
        for day in 0..5_000 {
            if inj.on_notify(day, 0, 0) == NotifyVerdict::Drop {
                dropped += 1;
            }
        }
        assert_eq!(dropped, inj.books().stats().notifications_dropped);
        let rate = dropped as f64 / 5_000.0;
        assert!((0.15..0.25).contains(&rate), "loss rate {rate}");
    }

    #[test]
    fn link_failure_truncates_then_absents_circuit_days() {
        let plan = FaultPlan {
            link_failure: Some(LinkFailure {
                day: 6,
                at_fraction: 0.5,
                outage_days: 14,
            }),
            ..FaultPlan::default()
        };
        let mut inj = injector(plan, 3);
        let circuit = TdnId(1);
        // Packet days are untouched even inside the outage window.
        assert_eq!(inj.day_fate(7, TdnId(0)), DayFate::Normal);
        assert_eq!(inj.day_fate(6, circuit), DayFate::Truncated(0.5));
        assert_eq!(inj.day_fate(13, circuit), DayFate::Absent);
        assert_eq!(inj.day_fate(20, circuit), DayFate::Normal);
        assert_eq!(inj.books().stats().total(), 0, "deciding a fate counts nothing");
        for day in [6, 13, 20] {
            let fate = inj.day_fate(day, circuit);
            inj.record_day(day, day, fate);
        }
        assert_eq!(inj.books().stats().days_truncated, 1);
        assert_eq!(inj.books().stats().days_absent, 1);
    }

    #[test]
    fn freeze_replays_the_stuck_day() {
        let plan = FaultPlan {
            freeze: Some(ScheduleFreeze { from_day: 3, days: 4 }),
            ..FaultPlan::default()
        };
        let mut inj = injector(plan, 3);
        assert_eq!(inj.schedule_day(2), 2);
        assert_eq!(inj.schedule_day(3), 3);
        assert_eq!(inj.schedule_day(4), 3);
        assert_eq!(inj.schedule_day(5), 3);
        assert_eq!(inj.schedule_day(6), 3);
        assert_eq!(inj.schedule_day(7), 7);
        for day in 2..8 {
            let sched_day = inj.schedule_day(day);
            inj.record_day(day, sched_day, DayFate::Normal);
        }
        assert_eq!(inj.books().stats().days_frozen, 3);
    }

    #[test]
    fn eps_burst_only_fires_inside_its_window() {
        let plan = FaultPlan {
            eps_burst: Some(EpsBurst {
                start: SimTime::from_micros(100),
                len: SimDuration::from_micros(50),
                drop_rate: 1.0,
                corrupt_rate: 0.0,
            }),
            ..FaultPlan::default()
        };
        let mut inj = injector(plan, 5);
        assert_eq!(inj.on_transit(SimTime::from_micros(99)), EpsVerdict::Pass);
        assert_eq!(inj.on_transit(SimTime::from_micros(100)), EpsVerdict::Drop);
        assert_eq!(inj.on_transit(SimTime::from_micros(149)), EpsVerdict::Drop);
        assert_eq!(inj.on_transit(SimTime::from_micros(150)), EpsVerdict::Pass);
        assert_eq!(inj.books().stats().eps_drops, 2);
    }

    #[test]
    fn log_digest_reflects_injections() {
        let mut a = injector(FaultPlan::notification_loss(0.5), 11);
        let mut b = injector(FaultPlan::notification_loss(0.5), 11);
        for day in 0..100 {
            a.on_notify(day, day as usize % 4, (day % 2) as u8);
            b.on_notify(day, day as usize % 4, (day % 2) as u8);
        }
        assert_eq!(a.books().digest(), b.books().digest());
        assert_eq!(a.books().log(), b.books().log());
        let mut c = injector(FaultPlan::notification_loss(0.5), 12);
        for day in 0..100 {
            c.on_notify(day, day as usize % 4, (day % 2) as u8);
        }
        assert_ne!(a.books().digest(), c.books().digest(), "seed must matter");
    }
}
