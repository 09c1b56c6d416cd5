//! Time division: the policy that makes a connection over one path per
//! TDN TDTCP. The machine already runs every rule that merely indexes a
//! path (§3.3–§4.4); the policy adds what the paper puts on top:
//! `TD_CAPABLE` negotiation and downgrade (§4.2), TD option tagging,
//! generation-tagged TDN-change notifications that select the current
//! path (§3.2), and the desynchronization hardening — a watchdog that
//! infers a missed notification, a skew estimator over notification
//! arrival phase, a send gate across predicted slot edges, and the
//! degraded posture (one path, capped window) they escalate into.

use super::{Connection, State};
use crate::segment::Segment;
use crate::transport::Transport;
use simcore::{SimDuration, SimTime};
use wire::TdnId;

/// Notification watchdog parameters.
///
/// The host knows the schedule is periodic (§3.2's pull model polls "the
/// global variable" at this cadence); if no notification arrives within
/// one period plus a guard band covering delivery-latency spread, the
/// host must assume it missed a TDN change and can no longer trust its
/// per-TDN state selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Expected notification period (the schedule's day+night slot).
    pub period: SimDuration,
    /// Guard band absorbing notification delivery-latency variation.
    pub guard: SimDuration,
}

/// Congestion-window cap, in packets, while desynchronized.
const DEGRADED_CWND_PKTS: u32 = 4;

/// TDTCP's state beside the machine: what it negotiated, the
/// notifications it applied and its hardening posture.
#[derive(Debug)]
pub struct TimeDivision {
    /// TDNs this host observes; both ends must agree (§4.2).
    num_tdns: u8,
    /// One path per TDN (§3.1); without, notifications are ignored.
    per_tdn_state: bool,
    watchdog: Option<WatchdogConfig>,
    negotiated: bool,
    /// Locally downgraded to regular TCP (§4.2): every TDN on path 0, no
    /// TDTCP options emitted, notifications ignored.
    downgraded: bool,
    /// Whether this endpoint's SYN (or SYN-ACK) has gone out once. Only
    /// that first copy carries `TD_CAPABLE`; a retransmitted one is
    /// rebuilt from the retransmission queue without it, so a lost SYN
    /// downgrades the connection (kept as found — see DESIGN.md §14).
    syn_sent: bool,
    /// The last applied notification: its generation (duplicates and
    /// reordered deliveries carry one at or below it and are discarded)
    /// and its arrival time (the watchdog's baseline).
    last: Option<(u64, SimTime)>,
    /// Desynchronized since this instant: every TDN maps to path 0 and the
    /// window is capped until a fresh notification resynchronizes the host.
    degraded_since: Option<SimTime>,
    /// Phase reference for the skew estimator: the first notification
    /// applied since the last (re)baseline. Notification `g` is expected
    /// `(g - ref_gen)·period` after it on a well-disciplined clock; the
    /// residual is local-clock skew plus bounded delivery-latency noise.
    skew_ref: Option<(u64, SimTime)>,
    /// EWMA (gain 1/8) of those residuals in nanoseconds.
    skew_ewma_ns: f64,
}

impl TimeDivision {
    /// The policy of a host observing `num_tdns` TDNs, with one path per
    /// TDN unless `per_tdn_state` is off, hardened by `watchdog` if given.
    pub fn new(num_tdns: u8, per_tdn_state: bool, watchdog: Option<WatchdogConfig>) -> Self {
        TimeDivision {
            num_tdns,
            per_tdn_state,
            watchdog,
            negotiated: false,
            downgraded: false,
            syn_sent: false,
            last: None,
            degraded_since: None,
            skew_ref: None,
            skew_ewma_ns: 0.0,
        }
    }

    fn is_tdtcp(&self) -> bool {
        self.negotiated && !self.downgraded
    }

    fn degraded(&self) -> bool {
        self.degraded_since.is_some()
    }

    /// Tell the machine which posture the policy is in. Downgraded or
    /// degraded, every TDN maps to path 0; degraded, the window is capped
    /// as well: a desynchronized host cannot know which TDN it is on, so
    /// it must not blast a stale TDN's window onto an unknown path.
    fn sync_posture(&self, conn: &mut Connection) {
        conn.collapse_paths(self.downgraded || self.degraded());
        let capped = self.degraded() && self.watchdog.is_some();
        conn.cwnd_cap = capped.then_some(DEGRADED_CWND_PKTS.saturating_mul(conn.cfg.mss));
    }

    fn degrade(&mut self, conn: &mut Connection, now: SimTime) {
        self.degraded_since = Some(now);
        self.sync_posture(conn);
    }

    /// Negotiate on the peer's SYN (listener) or SYN-ACK (initiator),
    /// before the machine sees it: the TDN counts must match exactly
    /// (§4.2); anything else downgrades this side to regular TCP.
    pub(super) fn negotiate(&mut self, conn: &mut Connection, seg: &Segment) {
        let handshake = match conn.state {
            State::Closed => seg.flags.syn && !seg.flags.ack,
            State::SynSent => seg.flags.syn && seg.flags.ack,
            _ => false,
        };
        if handshake && !seg.flags.rst {
            self.negotiated = seg.td_capable == Some(self.num_tdns);
            if !self.negotiated {
                self.downgraded = true;
                conn.select_path(TdnId::ZERO);
                self.sync_posture(conn);
            }
        }
    }

    /// Attach the TD options to a segment the machine emitted on `tdn`.
    pub(super) fn tag(&mut self, seg: &mut Segment, tdn: TdnId) {
        if seg.flags.syn && !self.syn_sent {
            // TD_CAPABLE: offered on the SYN, echoed on the SYN-ACK once
            // the offer matched.
            self.syn_sent = true;
            if !seg.flags.ack || self.negotiated {
                seg.td_capable = Some(self.num_tdns);
            }
        } else if self.is_tdtcp() {
            // TD_DATA_ACK: the TDN the data rides (D flag) and the TDN
            // this ACK returns on (A flag).
            if seg.seq_space() > 0 {
                seg.data_tdn = Some(tdn);
            }
            if seg.flags.ack {
                seg.ack_tdn = Some(tdn);
            }
        }
    }

    /// A TDN-change notification carrying the ToR's monotone generation
    /// `gen`. A gen at or below the last applied one marks a duplicated
    /// or reordered delivery and is discarded (idempotence); a fresh gen
    /// resynchronizes a degraded connection.
    pub(super) fn notify(&mut self, conn: &mut Connection, now: SimTime, tdn: TdnId, gen: u64) {
        if self.downgraded || !self.per_tdn_state {
            return;
        }
        if self.last.is_some_and(|(last, _)| gen <= last) {
            conn.stats.stale_notifies += 1;
            return;
        }
        self.last = Some((gen, now));
        if let Some(since) = self.degraded_since.take() {
            // Fresh authoritative word from the ToR: leave the
            // conservative posture and resume per-TDN operation.
            conn.stats.degraded_ns += now.saturating_since(since).as_nanos();
            self.sync_posture(conn);
            conn.stats.notify_resyncs += 1;
        }
        self.update_skew_estimate(conn, now, gen);
        // First sight of a new TDN allocates a fresh path (§4.2);
        // everything sent from here on is tagged with the new TDN (§3.4's
        // TDN change pointer, kept per segment).
        if conn.select_path(tdn) {
            conn.stats.tdn_switches += 1;
        }
    }

    /// Update the skew estimate from this (applied, fresh) notification's
    /// arrival residual against the phase reference, and degrade when the
    /// estimate exceeds the guard band: a clock that far off can no
    /// longer place sends inside a slot, and the host need not wait for
    /// the watchdog's full period to conclude that.
    fn update_skew_estimate(&mut self, conn: &mut Connection, now: SimTime, gen: u64) {
        let Some(wd) = self.watchdog else { return };
        let period_ns = wd.period.as_nanos();
        if period_ns == 0 {
            return;
        }
        let Some((ref_gen, ref_at)) = self.skew_ref else {
            self.skew_ref = Some((gen, now));
            return;
        };
        let expect =
            ref_at + SimDuration::from_nanos(gen.saturating_sub(ref_gen).saturating_mul(period_ns));
        let resid = now.as_nanos() as i64 - expect.as_nanos() as i64;
        self.skew_ewma_ns = self.skew_ewma_ns * 0.875 + resid as f64 * 0.125;
        if !self.degraded() && self.skew_ewma_ns.abs() > wd.guard.as_nanos() as f64 {
            conn.stats.skew_escalations += 1;
            self.degrade(conn, now);
            // Re-baseline: when a fresh notification later resynchronizes
            // the host, the estimator starts over instead of instantly
            // re-escalating against the stale reference.
            self.skew_ref = None;
            self.skew_ewma_ns = 0.0;
        }
    }

    /// The skew-aware send gate: with low confidence in the local clock
    /// (estimate past half the guard band), new transmissions pause
    /// across the predicted slot edge — segments launched into the edge
    /// would be killed or deferred by the switch's slot-edge enforcement
    /// anyway, so holding them costs less than losing them.
    pub(super) fn gate(&mut self, conn: &mut Connection, now: SimTime) {
        let Some(wd) = self.watchdog else { return };
        if conn.hold_until.is_some_and(|until| now < until) || self.degraded() || !self.is_tdtcp() {
            return;
        }
        if self.skew_ewma_ns.abs() <= wd.guard.as_nanos() as f64 / 2.0 {
            return;
        }
        let Some((_, last)) = self.last else { return };
        let edge = last + wd.period;
        // Past the predicted edge with no fresh notification yet, the
        // watchdog owns truly missed slots; gating here would stall.
        if now < edge && now + wd.guard >= edge {
            conn.hold_until = Some(edge);
            conn.stats.skew_gate_pauses += 1;
        }
    }

    /// The watchdog deadline: one period plus a guard band after the last
    /// applied notification. Armed only while the connection is live,
    /// speaking TDTCP, and not already degraded (a degraded host has
    /// nothing further to infer — it waits for the ToR).
    pub(super) fn deadline(&self, conn: &Connection) -> Option<SimTime> {
        let wd = self.watchdog?;
        if self.degraded() || !self.is_tdtcp() || !conn.is_established() {
            return None;
        }
        // Before the first notification, baseline from establishment: a
        // run whose very first notification is lost is still covered.
        let base = self.last.map(|(_, at)| at).or(conn.established_at)?;
        Some(base + wd.period + wd.guard)
    }

    /// Past its deadline the watchdog infers a missed TDN change and
    /// degrades the host.
    pub(super) fn on_timer(&mut self, conn: &mut Connection, now: SimTime) {
        if self.deadline(conn).is_some_and(|wd| wd <= now) {
            conn.stats.notify_watchdog_fires += 1;
            self.degrade(conn, now);
        }
    }
}

impl Connection {
    /// Run the time-division `policy`: TDTCP over per-TDN paths, with the
    /// §3.4 and §4.4 cross-path rules on unless ablated.
    pub fn with_time_division(
        mut self,
        policy: TimeDivision,
        relaxed_reordering: bool,
        pessimistic_rto: bool,
    ) -> Self {
        self.td = Some(Box::new(policy));
        self.relaxed_reordering = relaxed_reordering;
        self.pessimistic_rto = pessimistic_rto;
        self
    }

    /// Whether this connection runs the time-division policy and
    /// negotiated TDTCP with its peer (not downgraded).
    pub fn is_tdtcp(&self) -> bool {
        self.td.as_ref().is_some_and(|td| td.is_tdtcp())
    }

    /// Run `f` on the policy and the machine, if there is a policy.
    pub(super) fn with_policy(&mut self, f: impl FnOnce(&mut TimeDivision, &mut Self)) {
        if let Some(mut td) = self.td.take() {
            f(&mut td, self);
            self.td = Some(td);
        }
    }
}
