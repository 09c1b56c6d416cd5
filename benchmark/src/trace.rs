//! Tracing from outside: a [`Transport`] wrapper that times every call
//! the engines make into an endpoint.
//!
//! The engines take their endpoints from a caller-supplied factory, so
//! wrapping what the factory returns puts a span on each layer boundary
//! (engine → transport crate) without touching the crates. A span is
//! one `on_segment` / `poll_send` / `on_timer` / `on_tdn_notification`
//! call; its parent is the `run` span of the engine that made it, which
//! the workload times around `run()`. Spans are aggregated in memory —
//! per leg (the variant label of the endpoints) and call kind — as a
//! call count, total ns and a log2 histogram, and read when the run
//! ends. Engine self time is the run span minus its child spans.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::ops::DerefMut;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use simcore::SimTime;
use tcp::{ConnError, ConnStats, Segment, Transport};
use wire::TdnId;

/// The one place the benchmark reads the host clock.
#[inline]
pub fn now() -> Instant {
    // detlint: allow(wall_clock) — the benchmark measures host time by design; nothing simulated reads it
    Instant::now()
}

/// Timed call kinds, in the order of [`LegProfile::calls`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    OnSegment,
    PollSend,
    OnTimer,
    OnNotify,
}

pub const CALLS: [Call; 4] = [
    Call::OnSegment,
    Call::PollSend,
    Call::OnTimer,
    Call::OnNotify,
];

impl Call {
    pub fn name(self) -> &'static str {
        match self {
            Call::OnSegment => "on_segment",
            Call::PollSend => "poll_send",
            Call::OnTimer => "on_timer",
            Call::OnNotify => "on_tdn_notification",
        }
    }
}

/// Spans of one call kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallAgg {
    pub calls: u64,
    pub ns: u64,
    /// `hist[b]` counts spans of `[2^(b-1), 2^b)` ns (`hist[0]`: 0 ns).
    pub hist: [u64; 32],
}

impl CallAgg {
    #[inline]
    fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
        let bucket = (u64::BITS - ns.leading_zeros()).min(31) as usize;
        self.hist[bucket] += 1;
    }

    fn merge(&mut self, o: &CallAgg) {
        self.calls += o.calls;
        self.ns += o.ns;
        for (a, b) in self.hist.iter_mut().zip(&o.hist) {
            *a += b;
        }
    }

    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Everything traced on one leg: child spans from the endpoints, run
/// spans and exact counts from the workload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LegProfile {
    /// Indexed by `Call as usize`.
    pub calls: [CallAgg; 4],
    /// `poll_send` calls that returned `None`.
    pub poll_empty: u64,
    /// `next_timer` calls (counted, not timed: it is a field read).
    pub next_timer_calls: u64,
    /// Total ns of the engines' `run()` spans.
    pub run_ns: u64,
    /// Events the engines reported for those runs.
    pub events: u64,
    /// Segments delivered to receivers in those runs.
    pub delivered_segs: u64,
}

impl LegProfile {
    pub fn transport_ns(&self) -> u64 {
        self.calls.iter().map(|c| c.ns).sum()
    }

    pub fn transport_calls(&self) -> u64 {
        self.calls.iter().map(|c| c.calls).sum()
    }

    pub fn call(&self, c: Call) -> &CallAgg {
        &self.calls[c as usize]
    }

    fn merge(&mut self, o: &LegProfile) {
        for (a, b) in self.calls.iter_mut().zip(&o.calls) {
            a.merge(b);
        }
        self.poll_empty += o.poll_empty;
        self.next_timer_calls += o.next_timer_calls;
        self.run_ns += o.run_ns;
        self.events += o.events;
        self.delivered_segs += o.delivered_segs;
    }
}

/// The in-memory trace of a run, keyed by leg label. Endpoints fold
/// their private aggregates in when the engine drops them, so the hot
/// path takes no lock; `BTreeMap` keeps the report order stable.
#[derive(Debug, Default)]
pub struct Profile {
    legs: Mutex<BTreeMap<&'static str, LegProfile>>,
}

impl Profile {
    fn fold(&self, leg: &'static str, part: &LegProfile) {
        // A poisoned lock means another endpoint panicked mid-merge; the
        // run is already failing, and Drop must not panic on top of it.
        if let Ok(mut legs) = self.legs.lock() {
            legs.entry(leg).or_default().merge(part);
        }
    }

    /// Record one engine `run()` span and its exact counts.
    pub fn add_run(&self, leg: &'static str, run_ns: u64, events: u64, delivered_segs: u64) {
        self.fold(
            leg,
            &LegProfile {
                run_ns,
                events,
                delivered_segs,
                ..LegProfile::default()
            },
        );
    }

    pub fn legs(&self) -> BTreeMap<&'static str, LegProfile> {
        self.legs
            .lock()
            .expect("no endpoint panicked while folding its trace")
            .clone()
    }

    pub fn total(&self) -> LegProfile {
        let mut all = LegProfile::default();
        for leg in self.legs().values() {
            all.merge(leg);
        }
        all
    }
}

/// A transport endpoint with a span around every call into it. `T` is
/// any owning pointer to an endpoint — `Box<dyn Transport>` for the
/// two-rack engine, `Box<TdtcpConnection>` (which stays `Send`) for the
/// sharded one.
pub struct Traced<T> {
    inner: T,
    leg: &'static str,
    agg: LegProfile,
    next_timer_calls: Cell<u64>,
    sink: Arc<Profile>,
}

impl<T> Traced<T> {
    pub fn new(inner: T, leg: &'static str, sink: &Arc<Profile>) -> Self {
        Traced {
            inner,
            leg,
            agg: LegProfile::default(),
            next_timer_calls: Cell::new(0),
            sink: Arc::clone(sink),
        }
    }
}

impl<T> Drop for Traced<T> {
    fn drop(&mut self) {
        self.agg.next_timer_calls = self.next_timer_calls.get();
        self.sink.fold(self.leg, &self.agg);
    }
}

impl<T> Traced<T>
where
    T: DerefMut,
    T::Target: Transport,
{
    #[inline]
    fn span<R>(&mut self, call: Call, f: impl FnOnce(&mut T::Target) -> R) -> R {
        let t0 = now();
        let r = f(&mut self.inner);
        self.agg.calls[call as usize].record(t0.elapsed().as_nanos() as u64);
        r
    }
}

impl<T> Transport for Traced<T>
where
    T: DerefMut,
    T::Target: Transport,
{
    fn on_segment(&mut self, now: SimTime, seg: &Segment) {
        self.span(Call::OnSegment, |t| t.on_segment(now, seg));
    }

    fn poll_send(&mut self, now: SimTime) -> Option<Segment> {
        let seg = self.span(Call::PollSend, |t| t.poll_send(now));
        self.agg.poll_empty += u64::from(seg.is_none());
        seg
    }

    fn next_timer(&self) -> Option<SimTime> {
        self.next_timer_calls.set(self.next_timer_calls.get() + 1);
        self.inner.next_timer()
    }

    fn on_timer(&mut self, now: SimTime) {
        self.span(Call::OnTimer, |t| t.on_timer(now));
    }

    fn on_tdn_notification(&mut self, now: SimTime, tdn: TdnId, gen: u64) {
        self.span(Call::OnNotify, |t| t.on_tdn_notification(now, tdn, gen));
    }

    // Once per flow per optical day on retcpdyn legs only: passed
    // through untimed, so it lands in engine self time.
    fn on_circuit_prepare(&mut self, now: SimTime) {
        self.inner.on_circuit_prepare(now);
    }

    fn stats(&self) -> &ConnStats {
        self.inner.stats()
    }

    fn is_established(&self) -> bool {
        self.inner.is_established()
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn conn_error(&self) -> Option<ConnError> {
        self.inner.conn_error()
    }

    fn variant(&self) -> &'static str {
        self.inner.variant()
    }

    fn cwnd_report(&self) -> Vec<u32> {
        self.inner.cwnd_report()
    }
}
