//! The TDTCP connection: a thin shell over [`tcp::Connection`].
//!
//! TDTCP *is* TCP with its path model duplicated per TDN (§3.1), so the
//! send / receive / loss-recovery machine is not forked here: it is
//! `tcp::Connection`, built over one [`TdnState`] per TDN instead of one.
//! The machine already does everything that merely *indexes* a state set
//! — crediting ACKs to the TDN that carried the data (§4.3), filtering
//! cross-TDN RTT samples and timing out pessimistically (§4.4), sparing
//! cross-TDN holes from loss marking (§3.4), recovering and collapsing
//! per TDN (Fig. 4), keeping one sequence space (§3.3). This shell is
//! what the paper adds on top of that:
//!
//! 1. **`TD_CAPABLE` negotiation and downgrade** (§4.2): offer on the
//!    SYN, require the peer to echo the same TDN count, otherwise fall
//!    back to regular TCP on state set 0.
//! 2. **TD option tagging** (§4.2): every data segment says which TDN it
//!    rides, every ACK which TDN it returns on.
//! 3. **TDN change notifications** (§3.2): an out-of-band, generation-
//!    tagged signal selects the machine's current state set; duplicated
//!    and reordered deliveries are discarded.
//! 4. **Desynchronization hardening**: a watchdog that infers a missed
//!    notification, a skew estimator over notification arrival phase, a
//!    send gate across predicted slot edges, and the degraded posture
//!    (one state set, capped window) they escalate into.
//!
//! It drives the machine through four inherent methods — `select_path`,
//! `collapse_paths`, `cap_cwnd`, `hold_sends_until` — plus the two
//! ablation switches it forwards at construction.

use simcore::{SimDuration, SimTime};
use tcp::cc::CongestionControl;
use tcp::rtt::RttEstimator;
use tcp::{ConnError, ConnStats, Connection, FlowId, Path as TdnState, Segment, State, Transport};
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

/// TDTCP configuration: the base TCP knobs plus the TDTCP-specific ones.
#[derive(Debug, Clone)]
pub struct TdtcpConfig {
    /// Base engine configuration (MSS, buffers, RTO bounds, ...).
    pub tcp: tcp::Config,
    /// Number of TDNs this host observes; both ends must agree (§4.2).
    pub num_tdns: u8,
    /// Relaxed cross-TDN reordering detection (§3.4). Disabling it is the
    /// ablation that degrades TDTCP to Reno-style hole marking.
    pub relaxed_reordering: bool,
    /// Pessimistic RTO synthesis `½·RTT_n + ½·RTT_slowest` (§4.4).
    /// Disabling it uses each TDN's own RTO (the premature-timeout
    /// ablation).
    pub pessimistic_rto: bool,
    /// Duplicate state per TDN (§3.1). Disabling collapses every TDN onto
    /// set 0 — the ablation that makes TDTCP behave like single-path TCP.
    pub per_tdn_state: bool,
    /// Missed-notification watchdog; `None` (the default) trusts every
    /// notification to arrive, the pre-hardening behavior.
    pub watchdog: Option<WatchdogConfig>,
}

impl Default for TdtcpConfig {
    fn default() -> Self {
        // Sender pacing prevents the cwnd-sized burst at every TDN switch
        // from overflowing the shallow ToR VOQ (§5.2's "initial burst").
        let tcp_cfg = tcp::Config {
            pacing: true,
            ..tcp::Config::default()
        };
        TdtcpConfig {
            tcp: tcp_cfg,
            num_tdns: 2,
            relaxed_reordering: true,
            pessimistic_rto: true,
            per_tdn_state: true,
            watchdog: None,
        }
    }
}

/// A TDTCP endpoint.
pub struct TdtcpConnection {
    cfg: TdtcpConfig,
    /// The connection machine, over one state set per TDN. Its current
    /// path tag is the TDN this host believes is active (§3.2's "pull
    /// model" global variable).
    conn: Connection,
    /// Whether TD_CAPABLE negotiation succeeded.
    negotiated: bool,
    /// Locally downgraded to regular TCP (§4.2): per-TDN logic off, no
    /// TDTCP options emitted, notifications ignored.
    downgraded: bool,
    /// Whether this endpoint's SYN (or SYN-ACK) has gone out once. Only
    /// that first copy carries `TD_CAPABLE`; a retransmitted one is
    /// rebuilt from the retransmission queue without it, so a lost SYN
    /// downgrades the connection (kept as found — see DESIGN.md §14).
    syn_sent: bool,

    // --- notification hardening ---
    /// Highest notification generation applied; duplicates and reordered
    /// deliveries carry a gen at or below this and are discarded.
    last_gen: Option<u64>,
    /// Arrival time of the last applied notification (watchdog baseline).
    last_notify_at: Option<SimTime>,
    /// Desynchronized: the watchdog inferred a missed TDN change. Per-TDN
    /// state selection collapses to set 0 and the effective cwnd is
    /// capped until a fresh notification resynchronizes the host.
    degraded: bool,
    degraded_since: Option<SimTime>,

    // --- skew hardening (local-clock drift vs. the ToR's cadence) ---
    /// Phase reference for the skew estimator: generation and local
    /// arrival time of the first applied notification since the last
    /// (re)baseline. Notification `g` is expected at
    /// `ref_time + (g - ref_gen)·period` on a well-disciplined clock;
    /// the signed residual against that is pure local-clock skew plus
    /// bounded delivery-latency noise.
    skew_ref: Option<(u64, SimTime)>,
    /// EWMA (gain 1/8) of those residuals in nanoseconds — the host's
    /// estimate of how far its clock has slid against the schedule.
    skew_ewma_ns: f64,
}

impl TdtcpConnection {
    /// Create the initiating endpoint; queues a SYN carrying `TD_CAPABLE`.
    pub fn connect(
        flow: FlowId,
        cfg: TdtcpConfig,
        cc_template: &dyn CongestionControl,
        now: SimTime,
    ) -> Self {
        Self::connect_with_ccas(flow, cfg, vec![cc_template.clone_box()], now)
    }

    /// Create the passive endpoint (bulk sink).
    pub fn listen(flow: FlowId, cfg: TdtcpConfig, cc_template: &dyn CongestionControl) -> Self {
        let paths = state_sets(&cfg, vec![cc_template.clone_box()]);
        let conn = Connection::listen_paths(flow, cfg.tcp.clone(), paths);
        Self::wrap(cfg, conn)
    }

    /// Create an initiating endpoint with a *different* congestion control
    /// algorithm in each TDN — the §3.5 extension ("in principle, TDTCP
    /// could use multiple, different CCAs within a single flow").
    ///
    /// `ccas[i]` serves TDN `i`; TDNs beyond the list (configured, or
    /// allocated at runtime) get a fresh instance of `ccas[0]`.
    ///
    /// # Panics
    /// Panics if `ccas` is empty.
    pub fn connect_with_ccas(
        flow: FlowId,
        cfg: TdtcpConfig,
        ccas: Vec<Box<dyn CongestionControl>>,
        now: SimTime,
    ) -> Self {
        let paths = state_sets(&cfg, ccas);
        let conn = Connection::connect_paths(flow, cfg.tcp.clone(), paths, now);
        Self::wrap(cfg, conn)
    }

    fn wrap(cfg: TdtcpConfig, mut conn: Connection) -> Self {
        conn.set_relaxed_reordering(cfg.relaxed_reordering);
        conn.set_pessimistic_rto(cfg.pessimistic_rto);
        TdtcpConnection {
            cfg,
            conn,
            negotiated: false,
            downgraded: false,
            syn_sent: false,
            last_gen: None,
            last_notify_at: None,
            degraded: false,
            degraded_since: None,
            skew_ref: None,
            skew_ewma_ns: 0.0,
        }
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    /// The connection machine under the shell, read-only: its state, the
    /// TDN it believes is active (`current`), the per-TDN state sets
    /// (`path`, `paths`), the window gating transmission after the
    /// degraded-mode cap (`cwnd`), and the "specific TDN" and "all TDNs"
    /// accounting of §4.3 (`pipe_bytes`, `packets_out`).
    pub fn conn(&self) -> &Connection {
        &self.conn
    }

    /// Whether TD_CAPABLE negotiation succeeded and the connection speaks
    /// TDTCP (not downgraded).
    pub fn is_tdtcp(&self) -> bool {
        self.negotiated && !self.downgraded
    }

    /// Locally downgrade to regular TCP (§4.2): stop emitting TDTCP
    /// options and ignore further notifications.
    pub fn downgrade(&mut self) {
        self.downgraded = true;
        self.conn.select_path(TdnId::ZERO);
        self.sync_posture();
    }

    /// Tell the machine which posture the shell is in. Downgraded or
    /// degraded, every TDN maps to state set 0; degraded, the window is
    /// capped as well: a desynchronized host cannot know which TDN it is
    /// on, so it must not blast a stale TDN's window onto an unknown path.
    fn sync_posture(&mut self) {
        self.conn.collapse_paths(self.downgraded || self.degraded);
        let capped = self.degraded && self.cfg.watchdog.is_some();
        let cap = DEGRADED_CWND_PKTS.saturating_mul(self.cfg.tcp.mss);
        self.conn.cap_cwnd(capped.then_some(cap));
    }

    /// Enter the conservative fallback posture until the next fresh
    /// notification.
    fn degrade(&mut self, now: SimTime) {
        self.degraded = true;
        self.degraded_since = Some(now);
        self.sync_posture();
    }

    // ------------------------------------------------------------------
    // TDN change notification (§3.2)
    // ------------------------------------------------------------------

    /// Process an out-of-band TDN-change notification from the ToR,
    /// assigning it the next fresh generation (for drivers that deliver
    /// notifications reliably and in order).
    pub fn on_notification(&mut self, now: SimTime, tdn: TdnId) {
        let gen = self.last_gen.map_or(0, |g| g + 1);
        self.on_tdn_notification(now, tdn, gen);
    }

    /// Update the skew estimate from this (applied, fresh) notification's
    /// arrival residual against the phase reference, and escalate into
    /// the degraded posture when the estimate exceeds the guard band:
    /// a clock that far off can no longer place sends inside a slot, so
    /// trusting per-TDN state selection is worse than the conservative
    /// fallback — and the host need not wait for the watchdog's full
    /// period to conclude that.
    fn update_skew_estimate(&mut self, now: SimTime, gen: u64) {
        let Some(wd) = self.cfg.watchdog else { return };
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
        if !self.degraded && self.skew_ewma_ns.abs() > wd.guard.as_nanos() as f64 {
            self.conn.stats_mut().skew_escalations += 1;
            self.degrade(now);
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
    fn update_skew_gate(&mut self, now: SimTime) {
        let Some(wd) = self.cfg.watchdog else { return };
        if self.conn.sends_held(now) || self.degraded || !self.is_tdtcp() {
            return;
        }
        if self.skew_ewma_ns.abs() <= wd.guard.as_nanos() as f64 / 2.0 {
            return;
        }
        let Some(last) = self.last_notify_at else {
            return;
        };
        let edge = last + wd.period;
        // Past the predicted edge with no fresh notification yet, the
        // watchdog owns truly missed slots; gating here would stall.
        if now < edge && now + wd.guard >= edge {
            self.conn.hold_sends_until(edge);
            self.conn.stats_mut().skew_gate_pauses += 1;
        }
    }

    /// The watchdog deadline: one period plus a guard band after the last
    /// applied notification. Armed only while the connection is live,
    /// speaking TDTCP, and not already degraded (a degraded host has
    /// nothing further to infer — it waits for the ToR).
    fn watchdog_deadline(&self) -> Option<SimTime> {
        let wd = self.cfg.watchdog?;
        if self.degraded || !self.is_tdtcp() || !self.conn.is_established() {
            return None;
        }
        // Before the first notification, baseline from establishment: a
        // run whose very first notification is lost is still covered.
        let base = self.last_notify_at.or(self.conn.established_at())?;
        Some(base + wd.period + wd.guard)
    }
}

/// One state set per TDN (or a single one under the `per_tdn_state`
/// ablation): `ccas[i]` for TDN `i`, fresh instances of `ccas[0]` beyond
/// the list.
fn state_sets(cfg: &TdtcpConfig, mut ccas: Vec<Box<dyn CongestionControl>>) -> Vec<TdnState> {
    assert!(cfg.num_tdns >= 1);
    assert!(!ccas.is_empty(), "at least one CCA required");
    let n = if cfg.per_tdn_state {
        usize::from(cfg.num_tdns)
    } else {
        1
    };
    ccas.truncate(n);
    while ccas.len() < n {
        let fresh = ccas[0].clone_box();
        ccas.push(fresh);
    }
    ccas.into_iter()
        .map(|cc| TdnState::new(cc, RttEstimator::new(cfg.tcp.rtt)))
        .collect()
}

impl std::fmt::Debug for TdtcpConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TdtcpConnection")
            .field("conn", &self.conn)
            .field("tdtcp", &self.is_tdtcp())
            .field("degraded", &self.degraded)
            .finish()
    }
}

/// The shell's only entry points: segments and timers negotiate and tag
/// around the machine's own, and notifications select its state set.
impl Transport for TdtcpConnection {
    fn on_segment(&mut self, now: SimTime, seg: &Segment) {
        // Negotiate on the peer's SYN (listener) or SYN-ACK (initiator):
        // the TDN counts must match exactly (§4.2); anything else
        // downgrades this side to regular TCP before the machine sees
        // the segment.
        let handshake = match self.conn.state() {
            State::Closed => seg.flags.syn && !seg.flags.ack,
            State::SynSent => seg.flags.syn && seg.flags.ack,
            _ => false,
        };
        if handshake && !seg.flags.rst {
            self.negotiated = seg.td_capable == Some(self.cfg.num_tdns);
            if !self.negotiated {
                self.downgrade();
            }
        }
        self.conn.on_segment(now, seg);
    }

    /// The machine's next segment, TD options attached.
    fn poll_send(&mut self, now: SimTime) -> Option<Segment> {
        self.update_skew_gate(now);
        let mut seg = self.conn.poll_send(now)?;
        let tdn = self.conn.current();
        if seg.flags.syn && !self.syn_sent {
            // TD_CAPABLE: offered on the SYN, echoed on the SYN-ACK once
            // the offer matched.
            self.syn_sent = true;
            if !seg.flags.ack || self.negotiated {
                seg.td_capable = Some(self.cfg.num_tdns);
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
        Some(seg)
    }

    fn next_timer(&self) -> Option<SimTime> {
        let timer = self.conn.next_timer();
        match self.watchdog_deadline() {
            Some(wd) => Some(timer.map_or(wd, |t| t.min(wd))),
            None => timer,
        }
    }

    fn on_timer(&mut self, now: SimTime) {
        if self.watchdog_deadline().is_some_and(|wd| wd <= now) {
            // The watchdog inferred a missed TDN change.
            self.conn.stats_mut().notify_watchdog_fires += 1;
            self.degrade(now);
        }
        self.conn.on_timer(now);
    }

    /// Process a TDN-change notification carrying the ToR's monotone
    /// generation `gen`. A gen at or below the last applied one marks a
    /// duplicated or reordered delivery and is discarded (idempotence);
    /// a fresh gen resynchronizes a degraded connection.
    fn on_tdn_notification(&mut self, now: SimTime, tdn: TdnId, gen: u64) {
        if self.downgraded || !self.cfg.per_tdn_state {
            return;
        }
        if self.last_gen.is_some_and(|last| gen <= last) {
            self.conn.stats_mut().stale_notifies += 1;
            return;
        }
        self.last_gen = Some(gen);
        self.last_notify_at = Some(now);
        if self.degraded {
            // Fresh authoritative word from the ToR: leave the
            // conservative posture and resume per-TDN operation.
            if let Some(since) = self.degraded_since.take() {
                self.conn.stats_mut().degraded_ns += now.saturating_since(since).as_nanos();
            }
            self.degraded = false;
            self.sync_posture();
            self.conn.stats_mut().notify_resyncs += 1;
        }
        self.update_skew_estimate(now, gen);
        // First sight of a new TDN allocates a fresh state set (§4.2);
        // everything sent from here on is tagged with the new TDN (§3.4's
        // TDN change pointer, kept per segment).
        if self.conn.select_path(tdn) {
            self.conn.stats_mut().tdn_switches += 1;
        }
    }

    fn stats(&self) -> &ConnStats {
        self.conn.stats()
    }

    fn is_established(&self) -> bool {
        self.conn.is_established()
    }

    fn is_done(&self) -> bool {
        self.conn.is_done()
    }

    fn conn_error(&self) -> Option<ConnError> {
        self.conn.conn_error()
    }

    fn variant(&self) -> &'static str {
        "tdtcp"
    }

    fn cwnd_report(&self) -> Vec<u32> {
        self.conn.cwnd_report()
    }
}
