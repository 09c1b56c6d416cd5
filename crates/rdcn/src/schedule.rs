//! The demand-oblivious RDCN schedule (§2.1).
//!
//! OCSes cycle through a fixed set of configurations — *days* — separated
//! by reconfiguration blackouts — *nights* — during which no packets move.
//! The full cycle is a *week*. For the evaluated rack pair the schedule
//! reduces to a repeating pattern of which TDN is active in each day
//! (six packet days then one optical day in the paper's 6:1 setting).
//!
//! [`rotor`] generates full N-rack round-robin matchings and proves the
//! demand-oblivious property: every rack pair is directly connected
//! exactly once per week.

use simcore::{SimDuration, SimTime};
use wire::TdnId;

/// Whether a day naming `tdn` is a circuit day: every TDN but TDN 0, the
/// packet network, is a circuit.
pub fn is_circuit(tdn: TdnId) -> bool {
    tdn != TdnId::ZERO
}

/// What the network is doing at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A configuration is up: `tdn` carries traffic until `ends`.
    Day {
        /// Index of this day within the week.
        index: usize,
        /// The active TDN.
        tdn: TdnId,
        /// When this day started.
        started: SimTime,
        /// When this day ends (night begins).
        ends: SimTime,
    },
    /// Reconfiguration blackout: nothing moves until `ends`.
    Night {
        /// The TDN of the day that follows.
        next_tdn: TdnId,
        /// When the blackout ends.
        ends: SimTime,
    },
}

impl Phase {
    /// The currently active TDN, if any.
    pub fn active(&self) -> Option<TdnId> {
        match self {
            Phase::Day { tdn, .. } => Some(*tdn),
            Phase::Night { .. } => None,
        }
    }

    /// When this phase ends.
    pub fn ends(&self) -> SimTime {
        match self {
            Phase::Day { ends, .. } | Phase::Night { ends, .. } => *ends,
        }
    }
}

/// A repeating day/night schedule for one rack pair.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Length of each day.
    pub day_len: SimDuration,
    /// Length of each night (reconfiguration blackout).
    pub night_len: SimDuration,
    /// The TDN active in each day of the week, in order.
    pub days: Vec<TdnId>,
}

impl Schedule {
    /// The paper's baseline: 180 µs days, 20 µs nights, six packet (TDN 0)
    /// days then one optical (TDN 1) day — the natural schedule of an
    /// 8-rack hybrid RDCN (§5.1).
    pub fn hybrid_6to1() -> Schedule {
        Schedule {
            day_len: SimDuration::from_micros(180),
            night_len: SimDuration::from_micros(20),
            days: vec![
                TdnId(0),
                TdnId(0),
                TdnId(0),
                TdnId(0),
                TdnId(0),
                TdnId(0),
                TdnId(1),
            ],
        }
    }

    /// A uniform week: each TDN in `cycle` gets one `day_len` day, in
    /// order.
    pub fn alternating(day_len: SimDuration, night_len: SimDuration, cycle: Vec<TdnId>) -> Schedule {
        assert!(!cycle.is_empty());
        Schedule {
            day_len,
            night_len,
            days: cycle,
        }
    }

    /// One full day+night slot.
    pub fn slot_len(&self) -> SimDuration {
        self.day_len + self.night_len
    }

    /// The length of a week.
    pub fn week_len(&self) -> SimDuration {
        self.slot_len() * self.days.len() as u64
    }

    /// Number of distinct TDNs this schedule references.
    pub fn num_tdns(&self) -> usize {
        self.days.iter().map(|t| t.index()).max().unwrap_or(0) + 1
    }

    /// The phase at time `t`. Days run `[k·slot, k·slot + day_len)`;
    /// nights fill the rest of the slot.
    pub fn phase_at(&self, t: SimTime) -> Phase {
        let slot_ns = self.slot_len().as_nanos();
        let week_ns = self.week_len().as_nanos();
        let in_week = t.as_nanos() % week_ns;
        let index = (in_week / slot_ns) as usize;
        let in_slot = in_week % slot_ns;
        let slot_start = t.as_nanos() - in_slot;
        if in_slot < self.day_len.as_nanos() {
            Phase::Day {
                index,
                tdn: self.days[index],
                started: SimTime::from_nanos(slot_start),
                ends: SimTime::from_nanos(slot_start + self.day_len.as_nanos()),
            }
        } else {
            let next = self.days[(index + 1) % self.days.len()];
            Phase::Night {
                next_tdn: next,
                ends: SimTime::from_nanos(slot_start + slot_ns),
            }
        }
    }

    /// Global day counter at time `t` (how many day starts have passed).
    pub fn day_number(&self, t: SimTime) -> u64 {
        t.as_nanos() / self.slot_len().as_nanos()
            + u64::from(t.as_nanos() % self.slot_len().as_nanos() >= self.day_len.as_nanos())
    }

    /// Start time of day number `n` (0-based).
    pub fn day_start(&self, n: u64) -> SimTime {
        SimTime::from_nanos(n * self.slot_len().as_nanos())
    }

    /// The TDN of day number `n`.
    pub fn day_tdn(&self, n: u64) -> TdnId {
        self.days[(n % self.days.len() as u64) as usize]
    }

    /// Total time TDN `tdn` is up during one week.
    pub fn uptime_per_week(&self, tdn: TdnId) -> SimDuration {
        let n = self.days.iter().filter(|&&d| d == tdn).count() as u64;
        self.day_len * n
    }
}

/// Round-robin rotor matchings for an N-rack OCS (RotorNet-style).
pub mod rotor {
    /// Generate the week of matchings for `n` racks (n even): `n - 1`
    /// configurations, each a perfect matching, which together connect
    /// every rack pair exactly once (the classic circle method for
    /// round-robin tournaments).
    pub fn matchings(n: usize) -> Vec<Vec<(usize, usize)>> {
        assert!(n >= 2 && n.is_multiple_of(2), "rotor needs an even rack count");
        let mut out = Vec::with_capacity(n - 1);
        // Fix rack n-1; rotate the rest.
        for round in 0..n - 1 {
            let mut pairs = Vec::with_capacity(n / 2);
            let pos = |i: usize| -> usize {
                if i == n - 1 {
                    n - 1
                } else {
                    (i + round) % (n - 1)
                }
            };
            // Pair positions (0, n-1), (1, n-2), ...
            let mut ring: Vec<usize> = vec![0; n];
            for i in 0..n {
                ring[if pos(i) == n - 1 { n - 1 } else { pos(i) }] = i;
            }
            pairs.push((ring[n - 1], ring[0]));
            for k in 1..n / 2 {
                pairs.push((ring[k], ring[n - 1 - k]));
            }
            out.push(pairs);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(x: u64) -> SimTime {
        SimTime::from_micros(x)
    }

    #[test]
    fn hybrid_schedule_parameters() {
        let s = Schedule::hybrid_6to1();
        assert_eq!(s.slot_len(), SimDuration::from_micros(200));
        assert_eq!(s.week_len(), SimDuration::from_micros(1400));
        assert_eq!(s.num_tdns(), 2);
        assert_eq!(
            s.uptime_per_week(TdnId(0)),
            SimDuration::from_micros(1080)
        );
        assert_eq!(s.uptime_per_week(TdnId(1)), SimDuration::from_micros(180));
    }

    #[test]
    fn phase_at_day_and_night() {
        let s = Schedule::hybrid_6to1();
        match s.phase_at(us(0)) {
            Phase::Day { index, tdn, started, ends } => {
                assert_eq!(index, 0);
                assert_eq!(tdn, TdnId(0));
                assert_eq!(started, us(0));
                assert_eq!(ends, us(180));
            }
            p => panic!("expected day, got {p:?}"),
        }
        match s.phase_at(us(190)) {
            Phase::Night { next_tdn, ends } => {
                assert_eq!(next_tdn, TdnId(0));
                assert_eq!(ends, us(200));
            }
            p => panic!("expected night, got {p:?}"),
        }
        // Day 6 (index 6) is optical.
        match s.phase_at(us(6 * 200 + 10)) {
            Phase::Day { index, tdn, .. } => {
                assert_eq!(index, 6);
                assert_eq!(tdn, TdnId(1));
            }
            p => panic!("{p:?}"),
        }
        // Night before the wrap announces day 0's TDN.
        match s.phase_at(us(6 * 200 + 190)) {
            Phase::Night { next_tdn, .. } => assert_eq!(next_tdn, TdnId(0)),
            p => panic!("{p:?}"),
        }
    }

    #[test]
    fn phase_repeats_weekly() {
        let s = Schedule::hybrid_6to1();
        let week = s.week_len();
        for t in [0u64, 50, 180, 199, 777, 1250] {
            let a = s.phase_at(us(t)).active();
            let b = s.phase_at(us(t) + week).active();
            assert_eq!(a, b, "t={t}");
        }
    }

    #[test]
    fn day_boundaries_exact() {
        let s = Schedule::hybrid_6to1();
        // The instant a day ends, the night phase begins (half-open).
        assert_eq!(s.phase_at(us(179)).active(), Some(TdnId(0)));
        assert_eq!(s.phase_at(us(180)).active(), None);
        assert_eq!(s.phase_at(us(200)).active(), Some(TdnId(0)));
    }

    #[test]
    fn day_numbering() {
        let s = Schedule::hybrid_6to1();
        assert_eq!(s.day_number(us(0)), 0);
        assert_eq!(s.day_number(us(100)), 0);
        assert_eq!(s.day_number(us(185)), 1, "night counts toward next day");
        assert_eq!(s.day_number(us(200)), 1);
        assert_eq!(s.day_start(7), us(1400));
        assert_eq!(s.day_tdn(6), TdnId(1));
        assert_eq!(s.day_tdn(13), TdnId(1));
        assert_eq!(s.day_tdn(7), TdnId(0));
    }

    #[test]
    fn alternating_builder() {
        let s = Schedule::alternating(
            SimDuration::from_micros(100),
            SimDuration::from_micros(10),
            vec![TdnId(0), TdnId(1), TdnId(2)],
        );
        assert_eq!(s.num_tdns(), 3);
        assert_eq!(s.week_len(), SimDuration::from_micros(330));
    }

    #[test]
    fn rotor_matchings_cover_all_pairs_once() {
        for n in [2usize, 4, 8, 16] {
            let ms = rotor::matchings(n);
            assert_eq!(ms.len(), n - 1, "n={n}");
            let mut seen = std::collections::BTreeSet::new();
            for m in &ms {
                assert_eq!(m.len(), n / 2);
                let mut in_round = std::collections::BTreeSet::new();
                for &(a, b) in m {
                    assert_ne!(a, b);
                    assert!(in_round.insert(a), "rack {a} appears twice in a round");
                    assert!(in_round.insert(b), "rack {b} appears twice in a round");
                    let key = (a.min(b), a.max(b));
                    assert!(seen.insert(key), "pair {key:?} connected twice (n={n})");
                }
            }
            assert_eq!(seen.len(), n * (n - 1) / 2, "all pairs covered");
        }
    }
}
