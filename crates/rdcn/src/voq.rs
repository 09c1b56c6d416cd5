//! The ToR virtual output queue (VOQ).
//!
//! Etalon emulates one VOQ per rack per direction (§5.1); it tail-drops at
//! a configurable cap (16 jumbo frames in the baseline), optionally marks
//! ECN above a threshold (DCTCP), and supports runtime resizing (the
//! "retcpdyn" variant enlarges it to 50 packets 150 µs before a circuit
//! day). MPTCP subflow segments are *pinned* to a TDN and may only be
//! serviced while that TDN is active; the service scan skips over them
//! otherwise, preserving FIFO order within each pin class.
//!
//! There is one queue implementation, generic over what it queues
//! ([`VoqItem`]): admission and service read an entry's pin and ECN
//! codepoint and nothing else. The engine queues 8-byte handles to
//! pooled segments (`crate::pool::SegRef`); `Voq<Segment>`, the default,
//! queues whole segments for callers that have no pool.

use simcore::{SimTime, TimeSeries};
use tcp::Segment;
use wire::{Ecn, TdnId};
use std::collections::VecDeque;

/// VOQ configuration.
#[derive(Debug, Clone, Copy)]
pub struct VoqConfig {
    /// Capacity in packets (tail drop beyond).
    pub cap_pkts: usize,
    /// ECN marking threshold in packets (mark CE when occupancy at
    /// enqueue is at or above this), if ECN is in use.
    pub ecn_threshold: Option<usize>,
}

impl Default for VoqConfig {
    fn default() -> Self {
        VoqConfig {
            cap_pkts: 16,
            ecn_threshold: Some(8),
        }
    }
}

/// What a [`Voq`] reads of, and writes to, an entry.
pub trait VoqItem {
    /// The TDN this entry may only be serviced on, if any.
    fn pin(&self) -> Option<TdnId>;
    /// The entry's ECN codepoint.
    fn ecn(&self) -> Ecn;
    /// Rewrite the codepoint to CE (the queue was above its threshold).
    fn mark_ce(&mut self);
}

impl VoqItem for Segment {
    fn pin(&self) -> Option<TdnId> {
        self.pin
    }
    fn ecn(&self) -> Ecn {
        self.ecn
    }
    fn mark_ce(&mut self) {
        self.ecn = Ecn::Ce;
    }
}

/// One direction's virtual output queue.
#[derive(Debug)]
pub struct Voq<T = Segment> {
    q: VecDeque<T>,
    cap: usize,
    base_cap: usize,
    ecn_k: Option<usize>,
    /// Occupancy per pin class (index 0 = unpinned, 1 + tdn = pinned).
    /// Kept in sync with `q` so the per-class cap/ECN check at enqueue
    /// and the eligibility test are O(1) instead of a queue scan.
    class_len: Vec<usize>,
    /// Total pinned segments queued; zero means every segment is
    /// eligible and dequeue can take the head without scanning.
    pinned_total: usize,
    /// Occupancy over time, the raw series behind Figs. 7b/8b/13/14.
    series: TimeSeries,
    /// Whether occupancy changes append to the series. Only a run its
    /// caller observes traces its VOQs; skipping the per-op append keeps
    /// every other run's hot path free of unbounded trace growth.
    traced: bool,
    /// Tail drops.
    pub drops: u64,
    /// Total enqueues accepted.
    pub enqueued: u64,
    /// CE marks applied.
    pub ce_marks: u64,
}

/// Pin-class index: unpinned traffic is class 0, TDN `t` is class `1+t`.
fn class_of(pin: Option<TdnId>) -> usize {
    pin.map_or(0, |t| 1 + t.0 as usize)
}

impl<T: VoqItem> Voq<T> {
    /// New VOQ with the given config; `name` labels its trace series.
    pub fn new(name: impl Into<String>, cfg: VoqConfig) -> Self {
        Voq {
            q: VecDeque::new(),
            cap: cfg.cap_pkts,
            base_cap: cfg.cap_pkts,
            ecn_k: cfg.ecn_threshold,
            class_len: Vec::new(),
            pinned_total: 0,
            series: TimeSeries::new(name),
            traced: true,
            drops: 0,
            enqueued: 0,
            ce_marks: 0,
        }
    }

    /// New VOQ that keeps all counters (drops and CE marks, which the
    /// run digest folds, and enqueues) but records no occupancy trace. Queue
    /// *behaviour* is identical to [`Voq::new`]; only the `series()`
    /// observation is absent.
    pub fn untraced(cfg: VoqConfig) -> Self {
        let mut v = Voq::new(String::new(), cfg);
        v.traced = false;
        v
    }

    /// Current occupancy in packets.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Current capacity in packets.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Resize at runtime (retcpdyn). Shrinking below the current
    /// occupancy does not drop queued packets — they drain normally, the
    /// cap only gates new arrivals (matching Etalon's behaviour).
    pub fn set_cap(&mut self, cap: usize) {
        self.cap = cap;
    }

    /// Restore the configured base capacity.
    pub fn reset_cap(&mut self) {
        self.cap = self.base_cap;
    }

    /// Offer a segment. Returns `false` on tail drop.
    ///
    /// Capacity (and the ECN threshold) applies *per pin class*: pinned
    /// traffic physically queues at its own ToR uplink port (EPS vs OCS),
    /// so TDN-pinned MPTCP subflows cannot starve each other or unpinned
    /// traffic out of buffer space. Single-path variants (all unpinned)
    /// see exactly one 16-packet queue.
    pub fn enqueue(&mut self, now: SimTime, mut seg: T) -> bool {
        let pin = seg.pin();
        let class = class_of(pin);
        if class >= self.class_len.len() {
            self.class_len.resize(class + 1, 0);
        }
        let class_len = self.class_len[class];
        if class_len >= self.cap {
            self.drops += 1;
            return false;
        }
        if let Some(k) = self.ecn_k {
            if class_len >= k && seg.ecn().is_capable() {
                seg.mark_ce();
                self.ce_marks += 1;
            }
        }
        self.class_len[class] += 1;
        if pin.is_some() {
            self.pinned_total += 1;
        }
        self.q.push_back(seg);
        self.enqueued += 1;
        if self.traced {
            self.series.push(now, self.q.len() as f64);
        }
        true
    }

    /// Dequeue the first segment eligible under `active`: unpinned
    /// segments are always eligible; pinned segments only when their pin
    /// matches the active TDN. Returns `None` during blackouts
    /// (`active = None` never services anything: time division is strict,
    /// §2.1). `now` is the launch: a segment the engine's trains have
    /// not launched yet still counts toward admission and ECN marking.
    pub fn dequeue_eligible(&mut self, now: SimTime, active: Option<TdnId>) -> Option<T> {
        let active = active?;
        if !self.has_eligible(Some(active)) {
            return None;
        }
        let seg = if self.pinned_total == 0 {
            // All-unpinned queue (the single-path variants): the head is
            // always eligible, no scan needed.
            self.q.pop_front().expect("has_eligible implies non-empty")
        } else {
            let idx = self
                .q
                .iter()
                .position(|s| s.pin().is_none_or(|p| p == active))
                .expect("class counts said an eligible segment exists");
            self.q.remove(idx).expect("index in range")
        };
        let pin = seg.pin();
        self.class_len[class_of(pin)] -= 1;
        if pin.is_some() {
            self.pinned_total -= 1;
        }
        if self.traced {
            self.series.push(now, self.q.len() as f64);
        }
        Some(seg)
    }

    /// Whether any segment is eligible under `active`.
    pub fn has_eligible(&self, active: Option<TdnId>) -> bool {
        match active {
            None => false,
            Some(a) => {
                self.class_len.first().is_some_and(|&n| n > 0)
                    || self.class_len.get(class_of(Some(a))).is_some_and(|&n| n > 0)
            }
        }
    }

    /// The occupancy trace.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Consume, returning the occupancy trace.
    pub fn into_series(self) -> TimeSeries {
        self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::SegRef;
    use tcp::{Direction, FlowId};

    /// An entry type the behaviour checks can build and tell apart.
    trait Probe: VoqItem {
        fn make(tag: u32, pin: Option<u8>, ecn: bool) -> Self;
        fn tag(&self) -> u32;
    }

    impl Probe for Segment {
        fn make(tag: u32, pin: Option<u8>, ecn: bool) -> Segment {
            let mut s = Segment::new(FlowId(0), Direction::DataPath);
            s.len = 1000;
            s.seq = tcp::SeqNum(tag);
            s.ecn = if ecn { Ecn::Ect0 } else { Ecn::NotEct };
            s.pin = pin.map(TdnId);
            s
        }
        fn tag(&self) -> u32 {
            self.seq.0
        }
    }

    impl Probe for SegRef {
        fn make(tag: u32, pin: Option<u8>, ecn: bool) -> SegRef {
            SegRef {
                id: tag,
                pin: pin.map(TdnId),
                ecn: if ecn { Ecn::Ect0 } else { Ecn::NotEct },
            }
        }
        fn tag(&self) -> u32 {
            self.id
        }
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn capped<T: VoqItem>(cap_pkts: usize, ecn_threshold: Option<usize>) -> Voq<T> {
        Voq::new("q", VoqConfig { cap_pkts, ecn_threshold })
    }

    /// Every behaviour of the queue, for one entry type.
    fn behaviour<T: Probe>() {
        let seg = |pin, ecn| T::make(0, pin, ecn);

        // FIFO order among unpinned entries, on any TDN.
        let mut v = Voq::new("q", VoqConfig::default());
        for i in 0..3u32 {
            assert!(v.enqueue(t(u64::from(i)), T::make(i * 1000, None, false)));
        }
        assert_eq!(v.len(), 3);
        assert_eq!(v.dequeue_eligible(t(5), Some(TdnId(0))).unwrap().tag(), 0);
        assert_eq!(
            v.dequeue_eligible(t(6), Some(TdnId(1))).unwrap().tag(),
            1000,
            "unpinned serves on any TDN"
        );

        // Tail drop at the cap.
        let mut v = capped(2, None);
        assert!(v.enqueue(t(0), seg(None, false)));
        assert!(v.enqueue(t(0), seg(None, false)));
        assert!(!v.enqueue(t(0), seg(None, false)), "third is dropped");
        assert_eq!((v.drops, v.enqueued), (1, 2));

        // ECN marking at or above the threshold.
        let mut v = capped(16, Some(2));
        for _ in 0..3 {
            v.enqueue(t(0), seg(None, true)); // the third sees occupancy 2 -> mark
        }
        assert_eq!(v.ce_marks, 1);
        v.dequeue_eligible(t(1), Some(TdnId(0)));
        v.dequeue_eligible(t(1), Some(TdnId(0)));
        let marked = v.dequeue_eligible(t(1), Some(TdnId(0))).unwrap();
        assert_eq!(marked.ecn(), Ecn::Ce);

        // Not-ECT is never marked.
        let mut v = capped(16, Some(0));
        v.enqueue(t(0), seg(None, false));
        let s = v.dequeue_eligible(t(1), Some(TdnId(0))).unwrap();
        assert_eq!((s.ecn(), v.ce_marks), (Ecn::NotEct, 0));

        // Pinned entries wait for their TDN.
        let mut v = Voq::new("q", VoqConfig::default());
        v.enqueue(t(0), seg(Some(1), false)); // optical-pinned at head
        v.enqueue(t(0), seg(Some(0), false));
        // Packet day: the head is ineligible, the second serves.
        let s = v.dequeue_eligible(t(1), Some(TdnId(0))).unwrap();
        assert_eq!(s.pin(), Some(TdnId(0)));
        assert_eq!(v.len(), 1);
        // Still packet day: nothing eligible.
        assert!(v.dequeue_eligible(t(2), Some(TdnId(0))).is_none());
        assert!(v.has_eligible(Some(TdnId(1))));
        let s = v.dequeue_eligible(t(3), Some(TdnId(1))).unwrap();
        assert_eq!(s.pin(), Some(TdnId(1)));

        // A blackout services nothing.
        let mut v = Voq::new("q", VoqConfig::default());
        v.enqueue(t(0), seg(None, false));
        assert!(v.dequeue_eligible(t(1), None).is_none());
        assert!(!v.has_eligible(None));
        assert_eq!(v.len(), 1, "segment held through the night");

        // Runtime resize.
        let mut v = capped(2, None);
        v.enqueue(t(0), seg(None, false));
        v.enqueue(t(0), seg(None, false));
        assert!(!v.enqueue(t(0), seg(None, false)));
        v.set_cap(50);
        assert!(v.enqueue(t(1), seg(None, false)), "enlarged cap admits");
        v.reset_cap();
        assert_eq!(v.cap(), 2);
        // Over-occupied after shrink: drains without dropping queued.
        assert_eq!(v.len(), 3);
        assert!(!v.enqueue(t(2), seg(None, false)), "but admits nothing new");

        // The series tracks occupancy; an untraced queue records nothing.
        let mut v = Voq::new("q", VoqConfig::default());
        let mut quiet = Voq::untraced(VoqConfig::default());
        for q in [&mut v, &mut quiet] {
            q.enqueue(t(1), seg(None, false));
            q.enqueue(t(2), seg(None, false));
            q.dequeue_eligible(t(3), Some(TdnId(0)));
        }
        let occupancy: Vec<f64> = v.series().points().map(|(_, n)| n).collect();
        assert_eq!(occupancy, [1.0, 2.0, 1.0]);
        assert!(quiet.series().is_empty());
        assert_eq!((quiet.len(), quiet.enqueued), (1, 2));
    }

    #[test]
    fn behaviour_queueing_segments() {
        behaviour::<Segment>();
    }

    #[test]
    fn behaviour_queueing_pool_handles() {
        behaviour::<SegRef>();
    }
}
