//! The books of a chaos plane.
//!
//! Every chaos plane ([`crate::faults`], [`crate::impair`],
//! [`crate::clock`]) keeps the same [`Books`]: a block of monotone
//! counters folded into `RunResult::stats_digest`, and a capped log of
//! applied events. [`Books::record`] enters one applied event in both,
//! so it is each plane's one emission seam, and [`Books::digest`] folds
//! the log length, every event and the counters into one value.

use testkit::{Counters, Digest};

/// Cap on retained applied-event log entries per injector; the counters
/// keep counting past it.
pub const LOG_CAP: usize = 4096;

/// One applied chaos event: it names the counter its kind bumps and
/// folds itself into a digest (discriminant first, then payload, so
/// reordered variants cannot collide).
pub trait LogEvent: Copy {
    /// The plane's counter block.
    type Stats: Counters + Default + std::fmt::Debug + PartialEq;

    /// The counter in `stats` that this event's kind bumps.
    fn counter(self, stats: &mut Self::Stats) -> &mut u64;

    /// Feed the event into `d`, discriminant first.
    fn write_digest(&self, d: &mut Digest);
}

/// A chaos plane's counters and its capped log of applied events.
#[derive(Debug, PartialEq)]
pub struct Books<E: LogEvent> {
    stats: E::Stats,
    log: Vec<E>,
}

impl<E: LogEvent> Default for Books<E> {
    fn default() -> Self {
        Books {
            stats: E::Stats::default(),
            log: Vec::new(),
        }
    }
}

impl<E: LogEvent> Books<E> {
    /// Counters of the events applied so far.
    pub fn stats(&self) -> &E::Stats {
        &self.stats
    }

    /// The applied-event log, in application order (capped at
    /// [`LOG_CAP`] entries; the counters keep counting past the cap).
    pub fn log(&self) -> &[E] {
        &self.log
    }

    /// Digest of the log length, then every event in application order,
    /// then the counters — the object of each plan's determinism
    /// property.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_usize(self.log.len());
        for ev in &self.log {
            ev.write_digest(&mut d);
        }
        self.stats.write_digest(&mut d);
        d.finish()
    }

    /// Enter one applied event: bump the counter its kind names, then
    /// append it to the log unless the [`LOG_CAP`] is reached.
    pub(crate) fn record(&mut self, ev: E) {
        *ev.counter(&mut self.stats) += 1;
        if self.log.len() < LOG_CAP {
            self.log.push(ev);
        }
    }

    /// The counters no event names (the clock's skewed sends and its
    /// skew maximum).
    pub(crate) fn stats_mut(&mut self) -> &mut E::Stats {
        &mut self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    struct OneStat(u64);
    impl Counters for OneStat {
        fn counters_mut(&mut self) -> impl IntoIterator<Item = &mut u64> {
            [&mut self.0]
        }
    }
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Ev(u64);
    impl LogEvent for Ev {
        type Stats = OneStat;
        fn counter(self, stats: &mut OneStat) -> &mut u64 {
            &mut stats.0
        }
        fn write_digest(&self, d: &mut Digest) {
            d.write_u64(1).write_u64(self.0);
        }
    }

    fn books(events: &[u64]) -> Books<Ev> {
        let mut b = Books::default();
        events.iter().for_each(|&e| b.record(Ev(e)));
        b
    }

    #[test]
    fn push_capped_stops_at_cap() {
        let n = LOG_CAP as u64 + 10;
        let b = books(&(0..n).collect::<Vec<_>>());
        assert_eq!(b.log().len(), LOG_CAP);
        assert_eq!(b.stats().0, n, "the counter keeps counting past the cap");
    }

    #[test]
    fn fold_covers_len_events_and_stats() {
        let a = books(&[3, 4]).digest();
        assert_eq!(a, books(&[3, 4]).digest());
        let mut more = books(&[3, 4]);
        more.stats_mut().0 += 1;
        assert_ne!(a, more.digest(), "stats must fold");
        let mut short = books(&[3]);
        short.stats_mut().0 += 1;
        assert_ne!(a, short.digest(), "len must fold");
        assert_ne!(a, books(&[3, 5]).digest(), "events must fold");
    }
}
