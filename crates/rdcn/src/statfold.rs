//! The shared injector bookkeeping shape.
//!
//! Every chaos layer ([`crate::faults`], [`crate::impair`],
//! [`crate::clock`]) carries the same three-piece bookkeeping block: a
//! struct of monotone counters folded into `RunResult::stats_digest`, a
//! capped log of applied events, and a `log_digest` that folds the log
//! length, every event, and the counters into one value. The first two
//! copies were hand-rolled; this module is the single home for the
//! pattern so the third (and any later) layer reuses it.

use testkit::Digest;

/// Cap on retained applied-event log entries per injector; the counters
/// keep counting past it.
pub const LOG_CAP: usize = 4096;

/// Counter block of one chaos injector: every field monotone, every
/// field folded into the run digest.
pub trait InjectorStats {
    /// Feed every counter into `d` in declaration order. Implementations
    /// destructure `self` exhaustively, so a counter no fold names is a
    /// compile error.
    fn write_digest(&self, d: &mut Digest);
}

/// One applied chaos event that can fold itself into a digest
/// (discriminant first, then payload, so reordered variants cannot
/// collide).
pub trait LogEvent {
    /// Feed the event into `d`, discriminant first.
    fn write_digest(&self, d: &mut Digest);
}

/// `AddAssign` for a counter block whose fields all sum across racks.
/// The destructuring makes a field added to the block and not to the
/// macro call a compile error.
macro_rules! summed_counters {
    ($t:ident { $($f:ident),* $(,)? }) => {
        impl std::ops::AddAssign for $t {
            fn add_assign(&mut self, o: $t) {
                let $t { $($f),* } = o;
                $(self.$f += $f;)*
            }
        }
    };
}
pub(crate) use summed_counters;

/// Append `ev` to `log` unless the [`LOG_CAP`] is reached.
pub fn push_capped<E>(log: &mut Vec<E>, ev: E) {
    if log.len() < LOG_CAP {
        log.push(ev);
    }
}

/// The shared log-digest fold: log length, then every event in
/// application order, then the counters.
pub fn log_digest<E: LogEvent, S: InjectorStats>(log: &[E], stats: &S) -> u64 {
    let mut d = Digest::new();
    d.write_usize(log.len());
    for ev in log {
        ev.write_digest(&mut d);
    }
    stats.write_digest(&mut d);
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct OneStat(u64);
    impl InjectorStats for OneStat {
        fn write_digest(&self, d: &mut Digest) {
            d.write_u64(self.0);
        }
    }
    struct Ev(u64);
    impl LogEvent for Ev {
        fn write_digest(&self, d: &mut Digest) {
            d.write_u64(1).write_u64(self.0);
        }
    }

    #[test]
    fn push_capped_stops_at_cap() {
        let mut log = Vec::new();
        for i in 0..(LOG_CAP as u64 + 10) {
            push_capped(&mut log, Ev(i));
        }
        assert_eq!(log.len(), LOG_CAP);
    }

    #[test]
    fn fold_covers_len_events_and_stats() {
        let log = vec![Ev(3), Ev(4)];
        let a = log_digest(&log, &OneStat(7));
        assert_eq!(a, log_digest(&log, &OneStat(7)));
        assert_ne!(a, log_digest(&log, &OneStat(8)), "stats must fold");
        assert_ne!(a, log_digest(&log[..1], &OneStat(7)), "len must fold");
    }
}
