//! The connection state machine: handshake, bulk data transfer with SACK
//! loss recovery, RACK-style time-based loss marking, tail-loss probes,
//! RTO with backoff, zero-window persist, ECN feedback and pacing — over
//! a *set* of [`Path`]s sharing one sequence space.
//!
//! This is the only send / receive / loss-recovery implementation in the
//! workspace. Everything TCP uses to model the network lives in a
//! [`Path`]; the machine keeps one retransmission queue and one
//! reassembler (a single sequence space, §3.3) and *indexes a path*
//! wherever the model is consulted: ACK crediting and RTT sampling go to
//! the path each segment was sent on, loss marking compares a hole's path
//! with the path the ACK returned on, recovery is entered and left per
//! path, an RTO collapses only the path of the timed-out segment, and the
//! window and pipe that gate sending are the current path's. With one
//! path every index is 0 and the machine is plain single-path TCP — the
//! cross-path rules (§3.4 relaxed reordering, §4.4 pessimistic RTO and
//! same-path RTT filter) only ever see "same path". TDTCP adds the
//! [`TimeDivision`] policy around the machine's own work; the `mptcp`
//! crate runs one single-path instance per subflow.
//!
//! The engine is poll-based in the smoltcp style: the owner feeds it
//! segments and timer expirations and drains outgoing segments through
//! its [`Transport`] impl, the machine's only entry points; nothing inside
//! blocks or knows about wall clocks.

use crate::ca::CaState;
use crate::cc::{AckEvent, CongestionControl};
use crate::path::Path;
use crate::recv::Reassembler;
use crate::rtt::{RttConfig, RttEstimator};
use crate::rtx::{RtxQueue, TxSeg};
use crate::segment::{Direction, FlowId, Segment};
use crate::seq::SeqNum;
use crate::stats::ConnStats;
use crate::transport::{ConnError, Transport};
use simcore::{SimDuration, SimTime};
use std::collections::VecDeque;
use wire::{Ecn, TdnId};

mod timediv;
pub use timediv::{TimeDivision, WatchdogConfig};

/// Initial sequence number of every connection (fixed for determinism).
pub const ISN: SeqNum = SeqNum::ZERO;

/// Duplicate-ACK / SACKed-segment threshold for fast retransmit.
const DUPACK_THRESH: u32 = 3;

/// Connection configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Maximum segment size (payload bytes per segment).
    pub mss: u32,
    /// Receive buffer (advertised window ceiling).
    pub recv_buf: u32,
    /// RTT estimator knobs.
    pub rtt: RttConfig,
    /// Application bytes to send (`u64::MAX` = unbounded bulk source).
    pub bytes_to_send: u64,
    /// Negotiate and use ECN (set ECT(0) on data, echo CE as ECE).
    pub ecn: bool,
    /// Enable tail loss probes.
    pub tlp: bool,
    /// Pace data segments at cwnd/min_rtt instead of bursting.
    pub pacing: bool,
    /// Give up after this many consecutive RTO fires (or persist probes)
    /// without progress, aborting the connection with a [`ConnError`]
    /// instead of retrying forever (the `tcp_retries2` analogue). With
    /// exponential backoff capped at shift 12, 15 retries against the
    /// 10 ms RTO floor is tens of seconds of simulated silence.
    pub max_retries: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            mss: 8948,
            recv_buf: 4 << 20,
            rtt: RttConfig::default(),
            bytes_to_send: u64::MAX,
            ecn: false,
            tlp: true,
            pacing: false,
            max_retries: 15,
        }
    }
}

/// TCP connection state (simplified close path: the data sender half-closes
/// with FIN; the pure receiver ACKs it — no TIME_WAIT modelling, which no
/// experiment in the paper depends on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    /// No connection.
    Closed,
    /// SYN sent, awaiting SYN-ACK.
    SynSent,
    /// SYN received, SYN-ACK sent.
    SynRcvd,
    /// Data flows.
    Established,
    /// FIN sent, awaiting its ACK.
    FinWait,
    /// Transfer complete.
    Done,
}

/// A connection endpoint (either side) over one or more paths.
pub struct Connection {
    cfg: Config,
    flow: FlowId,
    /// Direction our data segments travel (initiator sends on `DataPath`).
    data_dir: Direction,
    state: State,

    // --- paths ---
    /// Per-path state, indexed through [`Connection::path_index`].
    paths: Vec<Path>,
    /// The path tag stamped on every (re)transmission made now ("current
    /// TDN", §4.3); always `TdnId::ZERO` for single-path TCP.
    current: TdnId,
    /// Every tag maps to path 0 while set (a TDTCP endpoint that has been
    /// downgraded, or cannot tell which TDN is active).
    collapsed: bool,
    /// The highest path index a tag can map to: the last path allocated,
    /// or 0 while collapsed. Derived; see `remap`.
    last_path: usize,
    /// `path_index(current)`. Derived; see `remap`.
    cur: usize,
    /// Upper bound on the window that gates sending, if any.
    cwnd_cap: Option<u32>,
    /// New data and retransmissions wait until this instant, if set
    /// (TDTCP's skew gate); queued control segments still flow.
    hold_until: Option<SimTime>,
    /// §3.4: a hole on another path than the triggering ACK's is not
    /// declared lost until it is stale. Vacuous with one path.
    relaxed_reordering: bool,
    /// §4.4: time out as if ACKs return on the slowest path. Vacuous with
    /// one path.
    pessimistic_rto: bool,
    /// TDTCP's time-division policy, run at five points of the
    /// [`Transport`] methods; `None` for plain TCP and MPTCP subflows.
    td: Option<Box<TimeDivision>>,

    // --- send half (one sequence space across paths, §3.3) ---
    snd_una: SeqNum,
    snd_nxt: SeqNum,
    rtx: RtxQueue,
    peer_wnd: u32,
    bytes_unsent: u64,
    fin_acked: bool,
    dupacks: u32,

    rto_deadline: Option<SimTime>,
    tlp_deadline: Option<SimTime>,
    rto_backoff: u32,
    /// When the RTO timer was last (re)armed — the last send/ACK activity
    /// on the retransmission path. The gap to a subsequent RTO firing is
    /// the dead air accounted to `ConnStats::stall_ns`.
    rto_armed_at: SimTime,
    /// Pacing release time for the next data segment; `ZERO` = disarmed.
    next_paced_at: SimTime,
    /// Zero-window persist timer: armed when the peer's window is closed,
    /// nothing is outstanding (so no RTO is armed), and data waits.
    persist_deadline: Option<SimTime>,
    persist_backoff: u32,
    /// Terminal error, if the connection aborted.
    error: Option<ConnError>,

    // --- receive half ---
    rx: Option<Reassembler>,
    peer_fin: Option<SeqNum>,
    /// Last circuit mark observed on data, echoed on ACKs (reTCP support).
    echo_circuit: bool,

    pending: VecDeque<Segment>,
    stats: ConnStats,
    established_at: Option<SimTime>,
}

impl Connection {
    /// Create the initiating single-path endpoint and queue its SYN.
    pub fn connect(
        flow: FlowId,
        cfg: Config,
        cc: Box<dyn CongestionControl>,
        now: SimTime,
    ) -> Self {
        let path = Path::new(cc, RttEstimator::new(cfg.rtt));
        Connection::connect_paths(flow, cfg, vec![path], now)
    }

    /// Create the passive single-path endpoint (bulk sink).
    pub fn listen(flow: FlowId, cfg: Config, cc: Box<dyn CongestionControl>) -> Self {
        let path = Path::new(cc, RttEstimator::new(cfg.rtt));
        Connection::listen_paths(flow, cfg, vec![path])
    }

    /// Create the initiating endpoint over `paths` (non-empty) and queue
    /// its SYN. Sending starts on path 0.
    pub fn connect_paths(flow: FlowId, cfg: Config, paths: Vec<Path>, now: SimTime) -> Self {
        let mut c = Connection::new_endpoint(flow, Direction::DataPath, cfg, paths);
        let mut syn = Segment::new(c.flow, c.data_dir);
        syn.seq = c.snd_nxt;
        syn.flags.syn = true;
        syn.wnd = c.cfg.recv_buf;
        if c.cfg.ecn {
            syn.flags.ece = true;
            syn.flags.cwr = true; // ECN-setup SYN (RFC 3168)
        }
        // Appendix A.2: the SYN is always accounted to TDN 0.
        c.track(1, true, false, TdnId::ZERO, now);
        c.pending.push_back(syn);
        c.arm_rto(now);
        c.state = State::SynSent;
        c
    }

    /// Create the passive endpoint (bulk sink) over `paths` (non-empty).
    pub fn listen_paths(flow: FlowId, mut cfg: Config, paths: Vec<Path>) -> Self {
        cfg.bytes_to_send = 0; // pure receiver
        Connection::new_endpoint(flow, Direction::AckPath, cfg, paths)
    }

    fn new_endpoint(flow: FlowId, data_dir: Direction, cfg: Config, paths: Vec<Path>) -> Self {
        assert!(!paths.is_empty(), "a connection needs at least one path");
        Connection {
            bytes_unsent: cfg.bytes_to_send,
            last_path: paths.len() - 1,
            paths,
            current: TdnId::ZERO,
            collapsed: false,
            cur: 0,
            cwnd_cap: None,
            hold_until: None,
            relaxed_reordering: true,
            pessimistic_rto: true,
            td: None,
            snd_una: ISN,
            snd_nxt: ISN,
            cfg,
            flow,
            data_dir,
            state: State::Closed,
            rtx: RtxQueue::new(),
            peer_wnd: u32::MAX,
            fin_acked: false,
            dupacks: 0,
            rto_deadline: None,
            tlp_deadline: None,
            rto_backoff: 0,
            rto_armed_at: SimTime::ZERO,
            next_paced_at: SimTime::ZERO,
            persist_deadline: None,
            persist_backoff: 0,
            error: None,
            rx: None,
            peer_fin: None,
            echo_circuit: false,
            pending: VecDeque::new(),
            stats: ConnStats::new(),
            established_at: None,
        }
    }

    // ------------------------------------------------------------------
    // accessors
    // ------------------------------------------------------------------

    /// Current state.
    pub fn state(&self) -> State {
        self.state
    }

    /// The window that gates sending right now: the current path's
    /// congestion window, under the cap if one is set (bytes).
    pub fn cwnd(&self) -> u32 {
        let raw = self.cur().cc.cwnd();
        self.cwnd_cap.map_or(raw, |cap| raw.min(cap))
    }

    /// The current path's RTT estimator (read-only).
    pub fn rtt(&self) -> &RttEstimator {
        &self.cur().rtt
    }

    /// Bytes of sequence space in flight over all paths (estimate,
    /// RFC 6675 pipe).
    pub fn flight_bytes(&self) -> u32 {
        self.rtx.counts().pipe().saturating_mul(self.cfg.mss)
    }

    /// Pipe (bytes in flight) attributed to the path `tdn` maps to,
    /// derived from the shared retransmission queue ("specific TDN"
    /// accounting, §4.3).
    pub fn pipe_bytes(&self, tdn: TdnId) -> u32 {
        self.path_pipe_bytes(self.path_index(tdn))
    }

    /// Segments outstanding over all paths ("all TDNs" accounting).
    pub fn packets_out(&self) -> u32 {
        self.rtx.counts().packets_out
    }

    /// When the handshake completed, if it has.
    pub fn established_at(&self) -> Option<SimTime> {
        self.established_at
    }

    /// Append `n` application bytes to the send stream. Used by MPTCP's
    /// scheduler, which feeds each subflow chunk by chunk instead of
    /// configuring a fixed transfer size.
    pub fn enqueue_app_bytes(&mut self, n: u64) {
        self.bytes_unsent = self.bytes_unsent.saturating_add(n);
    }

    /// Application bytes accepted but not yet transmitted for the first
    /// time.
    pub fn unsent_bytes(&self) -> u64 {
        self.bytes_unsent
    }

    /// Oldest unacknowledged sequence number.
    pub fn snd_una(&self) -> SeqNum {
        self.snd_una
    }

    // ------------------------------------------------------------------
    // paths
    // ------------------------------------------------------------------

    /// All paths, in index order.
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// The path a segment tagged `tdn` is accounted to: its own, clamped
    /// to the last one allocated — or path 0 for every tag while the
    /// paths are collapsed.
    pub fn path(&self, tdn: TdnId) -> &Path {
        &self.paths[self.path_index(tdn)]
    }

    /// The tag (re)transmissions made now are stamped with.
    pub fn current(&self) -> TdnId {
        self.current
    }

    /// Make `tdn` the current path tag, allocating fresh paths (path 0's
    /// algorithm at its initial window, no RTT samples) up to it on first
    /// sight — a runtime schedule change, §4.2. Returns whether the
    /// current tag changed.
    fn select_path(&mut self, tdn: TdnId) -> bool {
        while tdn.index() >= self.paths.len() && self.paths.len() < TdnId::MAX_TDNS {
            let cc = self.paths[0].cc.clone_box();
            self.paths
                .push(Path::new(cc, RttEstimator::new(self.cfg.rtt)));
        }
        let changed = tdn != self.current;
        self.current = tdn;
        self.remap();
        changed
    }

    /// Account every tag to path 0 (`true`) or to its own path (`false`).
    /// The other paths' state is kept, frozen, for when they come back.
    fn collapse_paths(&mut self, collapsed: bool) {
        self.collapsed = collapsed;
        self.remap();
    }

    /// Recompute the tag → path mapping after the path set or the
    /// collapse switch changed.
    fn remap(&mut self) {
        self.last_path = if self.collapsed {
            0
        } else {
            self.paths.len() - 1
        };
        self.cur = self.path_index(self.current);
    }

    fn path_index(&self, tdn: TdnId) -> usize {
        path_of(tdn, self.last_path)
    }

    fn cur(&self) -> &Path {
        &self.paths[self.cur]
    }

    /// With every tag on path 0 (one path, or collapsed) that path's pipe
    /// is the whole queue's. Otherwise, tags never exceed the allocated
    /// paths (`select_path` grows first), so a path's pipe is its tag's
    /// bucket in the queue. O(1) either way.
    fn path_pipe_bytes(&self, idx: usize) -> u32 {
        let counts = if self.last_path == 0 {
            self.rtx.counts()
        } else {
            self.rtx.counts_for_tdn(TdnId(idx as u8))
        };
        counts.pipe().saturating_mul(self.cfg.mss)
    }

    /// Smoothed RTT of the slowest path (the §4.4 pessimistic assumption).
    fn slowest_srtt(&self) -> Option<SimDuration> {
        self.paths.iter().filter_map(|p| p.rtt.srtt()).max()
    }

    /// The retransmission timeout for a segment sent on path `idx`. §4.4:
    /// ACKs may return on the slowest path, so the timeout is taken
    /// halfway from this path's srtt to the slowest one's, with the
    /// largest variance term. When this path is the slowest — or the
    /// only — one, that is exactly its own `rtt.rto()`, which the single-
    /// path case takes directly (`tests/one_machine.rs` holds the two to
    /// the nanosecond).
    fn rto_for(&self, idx: usize) -> SimDuration {
        let own = &self.paths[idx].rtt;
        if !self.pessimistic_rto || self.paths.len() == 1 {
            return own.rto();
        }
        let (Some(srtt), Some(slow)) = (own.srtt(), self.slowest_srtt()) else {
            return own.rto();
        };
        let synth = srtt + (slow - srtt) / 2;
        let var = self.paths.iter().map(|p| p.rtt.rttvar()).max();
        let var = var.unwrap_or(SimDuration::ZERO).saturating_mul(4);
        (synth + var.max(SimDuration::from_nanos(1)))
            .clamp(self.cfg.rtt.min_rto, self.cfg.rtt.max_rto)
    }

    // ------------------------------------------------------------------
    // segment input
    // ------------------------------------------------------------------

    /// Put `len` octets of sequence space starting at `snd_nxt` on the
    /// retransmission queue, tagged `tdn`.
    fn track(&mut self, len: u32, is_syn: bool, is_fin: bool, tdn: TdnId, now: SimTime) {
        self.rtx.push(TxSeg {
            seq: self.snd_nxt,
            len,
            is_syn,
            is_fin,
            tdn,
            tx_time: now,
            first_tx: now,
            sacked: false,
            lost: false,
            retx_in_flight: false,
            retx_count: 0,
        });
        self.snd_nxt += len;
    }

    fn on_syn(&mut self, now: SimTime, seg: &Segment) {
        self.rx = Some(Reassembler::new(seg.seq + 1, self.cfg.recv_buf));
        self.peer_wnd = seg.wnd;
        // SYN-ACK.
        let mut sa = Segment::new(self.flow, self.data_dir);
        sa.seq = self.snd_nxt;
        sa.ack = seg.seq + 1;
        sa.flags.syn = true;
        sa.flags.ack = true;
        sa.wnd = self.cfg.recv_buf;
        if self.cfg.ecn && seg.flags.ece && seg.flags.cwr {
            sa.flags.ece = true; // accept ECN setup
        }
        self.track(1, true, false, TdnId::ZERO, now);
        self.pending.push_back(sa);
        self.state = State::SynRcvd;
        self.arm_rto(now);
    }

    fn on_syn_ack(&mut self, now: SimTime, seg: &Segment) {
        let rcv_nxt = seg.seq + 1;
        self.rx = Some(Reassembler::new(rcv_nxt, self.cfg.recv_buf));
        self.peer_wnd = seg.wnd;
        self.process_ack(now, seg);
        self.state = State::Established;
        self.established_at = Some(now);
        // Complete the handshake with a bare ACK.
        let mut ack = Segment::new(self.flow, self.data_dir);
        ack.seq = self.snd_nxt;
        ack.ack = rcv_nxt;
        ack.flags.ack = true;
        ack.wnd = self.cfg.recv_buf;
        self.pending.push_back(ack);
        self.stats.acks_sent += 1;
    }

    fn on_data(&mut self, seg: &Segment) {
        let Some(rx) = self.rx.as_mut() else { return };
        if seg.has_payload() {
            let outcome = rx.on_data(seg.seq, seg.len);
            self.stats.bytes_delivered += u64::from(outcome.delivered);
            if outcome.duplicate {
                self.stats.dup_segs_received += 1;
                self.stats.spurious_retransmits += 1;
            }
            if seg.ecn == Ecn::Ce {
                self.stats.ce_received += 1;
            }
        }
        if seg.flags.fin {
            self.peer_fin = Some(seg.seq + (seg.seq_space() - 1));
        }
        // Consume the FIN octet once all data before it has arrived.
        if self.peer_fin == Some(rx.rcv_nxt()) {
            rx.advance(1);
            self.peer_fin = None;
            if self.state == State::Established && self.cfg.bytes_to_send == 0 {
                self.state = State::Done;
            }
        }
        // RFC 8257 §3.2 with one ACK per data segment: echo this
        // segment's CE mark.
        let ece = self.cfg.ecn && seg.ecn == Ecn::Ce;
        self.echo_circuit = seg.circuit_mark;
        self.queue_ack(ece);
    }

    /// Queue a pure ACK reflecting current receive state.
    fn queue_ack(&mut self, ece: bool) {
        let rx = self.rx.as_ref().expect("established");
        let mut ack = Segment::new(self.flow, self.data_dir);
        ack.seq = self.snd_nxt;
        ack.ack = rx.rcv_nxt();
        ack.flags.ack = true;
        ack.flags.ece = ece;
        ack.wnd = rx.window();
        ack.set_sack(rx.sack_blocks());
        ack.circuit_mark = self.echo_circuit;
        self.pending.push_back(ack);
        self.stats.acks_sent += 1;
    }

    // ------------------------------------------------------------------
    // ACK processing / loss detection (§4.3 semantics throughout)
    // ------------------------------------------------------------------

    fn process_ack(&mut self, now: SimTime, seg: &Segment) {
        // "All TDNs": an ACK with nothing outstanding on any path is stale.
        if self.rtx.is_empty() && seg.ack == self.snd_una && seg.sack().is_empty() {
            // Still a window update: a zero-window receiver reopening
            // its window sends exactly this "stale" ACK shape, and it
            // must cancel (or re-pace) the persist timer.
            self.peer_wnd = seg.wnd;
            self.maybe_arm_persist(now);
            return;
        }
        if seg.ack.after(self.snd_nxt) {
            return; // acks data never sent; drop
        }

        let progress = seg.ack.after(self.snd_una);

        // One pass over the acknowledged segments, newest first, as the
        // queue drops them.
        //
        // "Specific TDN" crediting: acknowledged bytes go to the path each
        // segment was sent on.
        //
        // RTT sampling (§4.4): the newest never-retransmitted segment
        // (Karn) of each path yields that path one sample — but only when
        // the ACK returned on the same path; a sample whose data and ACK
        // crossed paths (type-3) is discarded. An untagged ACK (`ack_tdn`
        // absent: plain TCP, or a downgraded peer) is accepted.
        let last = self.last_path;
        let ack_path = seg.ack_tdn.map(|t| path_of(t, last));
        let mut sampled = [0u64; TdnId::MAX_TDNS / 64];
        let mut acked_payload = 0u32;
        let res = self.rtx.cum_ack_with(seg.ack, |s| {
            let idx = path_of(s.tdn, last);
            let payload = seg_payload(s);
            acked_payload += payload;
            self.paths[idx].credit += payload;
            self.fin_acked |= s.is_fin;
            let (word, bit) = (idx / 64, 1u64 << (idx % 64));
            if s.ever_retransmitted() || sampled[word] & bit != 0 {
                return;
            }
            if ack_path.is_some_and(|a| a != idx) {
                self.stats.cross_tdn_rtt_discards += 1;
            } else {
                self.paths[idx].rtt.on_sample_between(s.tx_time, now);
                sampled[word] |= bit;
            }
        });
        if progress {
            self.snd_una = seg.ack;
        }
        if progress && res.acked_segs == 0 && res.acked_space > 0 {
            // Partial trim of the head segment.
            acked_payload = res.acked_space;
            self.paths[self.cur].credit += res.acked_space;
        }
        self.stats.bytes_acked += u64::from(acked_payload);

        // SACK processing and duplicate-ACK bookkeeping.
        let sacked = self.rtx.mark_sacked(seg.sack().iter().copied());
        if progress {
            self.dupacks = 0;
        } else if !self.rtx.is_empty()
            && (seg.has_payload() || sacked.newly_sacked > 0 || seg.sack().is_empty())
        {
            self.dupacks += 1;
        }

        self.detect_losses(now, seg, sacked.last);

        // Per-path recovery exit: a path leaves Recovery/Loss once
        // snd_una passes its recovery point (Fig. 4's independent
        // machines); Disorder ends when nothing is left out (Linux
        // `tcp_try_keep_open`).
        let all_sacked = self.rtx.all_sacked();
        for p in self.paths.iter_mut() {
            if p.recovery_point.is_some_and(|rp| self.snd_una.after_eq(rp)) {
                p.recovery_point = None;
                p.ca = CaState::Open;
                p.cc.on_exit_recovery(now);
            }
            if all_sacked && p.ca == CaState::Disorder {
                p.ca = CaState::Open;
            }
        }

        // Congestion control: each path's CCA sees only the bytes
        // acknowledged for data it carried, against its own pipe.
        if seg.flags.ece {
            self.stats.ece_received += 1;
        }
        for idx in 0..self.paths.len() {
            let bytes = std::mem::take(&mut self.paths[idx].credit);
            if bytes == 0 {
                continue;
            }
            let flight_size = self.path_pipe_bytes(idx);
            let p = &mut self.paths[idx];
            p.cc.on_ack(&AckEvent {
                now,
                bytes_acked: bytes,
                rtt_sample: p.rtt.latest(),
                srtt: p.rtt.srtt(),
                flight_size,
                in_recovery: p.ca.in_recovery(),
                ecn_bytes: if seg.flags.ece { bytes } else { 0 },
            });
        }
        // reTCP: the echoed circuit mark drives explicit window scaling.
        self.paths[self.cur]
            .cc
            .on_circuit_signal(now, seg.circuit_mark);

        self.peer_wnd = seg.wnd;

        // Timers: new information re-arms the RTO; emptiness disarms.
        if self.rtx.is_empty() {
            self.rto_deadline = None;
            self.tlp_deadline = None;
            self.rto_backoff = 0;
        } else if progress || sacked.newly_sacked > 0 {
            self.rto_backoff = 0;
            self.arm_rto(now);
            self.arm_tlp(now);
        }
        self.maybe_arm_persist(now);
    }

    /// Loss detection: dupACK / SACK threshold, then RACK-style time
    /// filtering with the §3.4 relaxation — a hole sent on another path
    /// than the one that triggered detection is reordering across a path
    /// change, not loss, until it is old enough to be a true tail loss.
    /// `newest_sack` is the last segment this ACK newly SACKed, if any.
    fn detect_losses(&mut self, now: SimTime, seg: &Segment, newest_sack: Option<TxSeg>) {
        let Some(high_sacked) = self.rtx.highest_sacked() else {
            return;
        };
        // A hole is an unsacked segment below the highest SACKed edge.
        let hole_exists = self
            .rtx
            .first_unsacked()
            .is_some_and(|s| s.seq.before(high_sacked));
        if !hole_exists {
            return;
        }
        // A "reordering event" is a fresh detection: the first hole
        // evidence while the current path's machine was still Open.
        let cur = self.cur;
        if newest_sack.is_some() && self.paths[cur].ca == CaState::Open {
            self.stats.reorder_events += 1;
        }

        if self.dupacks < DUPACK_THRESH && self.rtx.sacked_above(self.snd_una) < DUPACK_THRESH {
            if self.paths[cur].ca == CaState::Open {
                self.paths[cur].ca = CaState::Disorder;
            }
            return;
        }

        // The path that triggered the heuristic: the one the ACK rode,
        // or the newest sacked segment's when the ACK is untagged.
        let trigger = seg
            .ack_tdn
            .or(newest_sack.map(|s| s.tdn))
            .unwrap_or(self.current);
        let trigger_idx = self.path_index(trigger);

        // Same-path holes: RACK. Intra-path reordering (jitter) is not
        // loss either; a hole counts as lost once it is older than the
        // newest SACKed transmission by the reordering window
        // (min_rtt / 4).
        let reo_wnd = self.paths[trigger_idx]
            .rtt
            .min_rtt()
            .map_or(SimDuration::ZERO, |m| m / 4);
        let rack_cutoff = self.rtx.newest_sacked_tx_time().map(|t| t - reo_wnd);
        // Cross-path holes (there are none with one path, with the paths
        // collapsed, or with the relaxation ablated): only when old
        // enough that delayed delivery is no longer plausible — the
        // RACK-TLP fallback for true tail losses of a previous path
        // (§3.4).
        let last = self.last_path;
        let relaxed = self.relaxed_reordering && last > 0;
        let tail_cutoff = match self.slowest_srtt() {
            Some(slow) if relaxed => now - slow.mul_f64(1.25),
            _ => SimTime::ZERO,
        };
        let same_path = |s: &TxSeg| !relaxed || path_of(s.tdn, last) == trigger_idx;
        let mut skipped = 0u64;
        // Which paths had a segment marked, as a bitset over path indices.
        let mut hit = [0u64; TdnId::MAX_TDNS / 64];
        let marked = self.rtx.mark_lost_below(high_sacked, |s| {
            let lost = if same_path(s) {
                rack_cutoff.is_none_or(|cutoff| s.tx_time <= cutoff)
            } else if s.tx_time <= tail_cutoff {
                true
            } else {
                skipped += 1;
                false
            };
            if lost {
                let idx = path_of(s.tdn, last);
                hit[idx / 64] |= 1 << (idx % 64);
            }
            lost
        });
        self.stats.relaxed_skips += skipped;
        self.stats.reorder_marked_pkts += u64::from(marked);

        // A retransmission that old and still unacknowledged was itself
        // lost: release it for another try, under the same two rules
        // (it carries the tag of the path that last carried it).
        self.rtx
            .refresh_stale_retx(rack_cutoff.unwrap_or(SimTime::ZERO), |s| {
                same_path(s) || s.tx_time <= tail_cutoff
            });

        // Paths with marked (to-be-retransmitted) segments enter Recovery
        // (Fig. 4); the others stay Open and keep sending at full speed.
        // Each entry reads only the finished scoreboard and its own
        // path, so the order paths are taken in is immaterial.
        for idx in 0..self.paths.len() {
            if hit[idx / 64] & (1 << (idx % 64)) != 0 && !self.paths[idx].in_recovery() {
                let flight = self.path_pipe_bytes(idx);
                let p = &mut self.paths[idx];
                p.ca = CaState::Recovery;
                p.recovery_point = Some(self.snd_nxt);
                p.cc.on_enter_recovery(now, flight);
                self.stats.fast_recoveries += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // timers
    // ------------------------------------------------------------------

    fn arm_rto(&mut self, now: SimTime) {
        // The timer covers the oldest outstanding segment, with the
        // timeout of the path that carried it. The shift cap bounds the
        // arithmetic; `max_retries` (checked in `fire_rto`) bounds the
        // *retrying* — a blackholed flow aborts with `ConnError` before
        // the cap ever plateaus the backoff.
        let tdn = self.rtx.front().map_or(self.current, |s| s.tdn);
        let backoff = 1u64 << self.rto_backoff.min(12);
        let rto = self.rto_for(self.path_index(tdn));
        self.rto_deadline = Some(now + rto.saturating_mul(backoff));
        self.rto_armed_at = now;
    }

    /// Whether the connection is stuck behind a closed peer window: data
    /// waits, nothing is outstanding (so no RTO is armed), and the peer
    /// advertises zero. Without a persist probe this is a silent
    /// deadlock — the classic lost-window-update stall.
    fn needs_persist(&self) -> bool {
        self.state == State::Established
            && self.peer_wnd == 0
            && self.rtx.is_empty()
            && self.bytes_unsent > 0
    }

    /// Arm, re-arm or disarm the persist timer to match current state.
    fn maybe_arm_persist(&mut self, now: SimTime) {
        if self.needs_persist() {
            if self.persist_deadline.is_none() {
                let backoff = 1u64 << self.persist_backoff.min(12);
                let delay = self
                    .rto_for(self.cur)
                    .saturating_mul(backoff)
                    .min(self.cfg.rtt.max_rto);
                self.persist_deadline = Some(now + delay);
            }
        } else {
            self.persist_deadline = None;
            if self.peer_wnd > 0 {
                self.persist_backoff = 0;
            }
        }
    }

    /// The persist timer fired: transmit a one-byte window probe from the
    /// unsent stream (RFC 9293 §3.8.6.1), on the current path. The byte
    /// is real data — it goes on the rtx queue and is cumulatively
    /// acknowledged like any other — so a reopening window resumes
    /// exactly in sequence. The timer is re-armed, with backoff, if the
    /// probe's ACK still says zero.
    fn fire_persist(&mut self, now: SimTime) {
        if !self.needs_persist() {
            return;
        }
        if self.persist_backoff >= self.cfg.max_retries {
            self.abort(ConnError::PersistTimeout {
                probes: self.persist_backoff,
            });
            return;
        }
        self.stats.persist_probes += 1;
        self.persist_backoff += 1;
        let seg = self.data_segment(self.snd_nxt, 1, false, false);
        self.track(1, false, false, self.current, now);
        self.bytes_unsent -= 1;
        self.stats.bytes_sent += 1;
        self.stats.segs_sent += 1;
        self.pending.push_back(seg);
        self.arm_rto(now);
    }

    /// Abort with a terminal error: surface it, stop all timers, and
    /// report done so the driver terminates the flow.
    fn abort(&mut self, err: ConnError) {
        self.error = Some(err);
        self.state = State::Done;
        self.stats.conn_aborts += 1;
        self.pending.clear();
        self.rto_deadline = None;
        self.tlp_deadline = None;
        self.persist_deadline = None;
    }

    fn arm_tlp(&mut self, now: SimTime) {
        if !self.cfg.tlp {
            return;
        }
        let pto = match self.cur().rtt.srtt() {
            // 2·srtt, pessimistically stretched towards the slowest path.
            Some(srtt) => srtt + self.slowest_srtt().unwrap_or(srtt),
            None => self.rto_for(self.cur) / 2,
        };
        let deadline = now + pto;
        // TLP must fire before the RTO or it is useless.
        if self.rto_deadline.is_none_or(|rto| deadline < rto) {
            self.tlp_deadline = Some(deadline);
        }
    }

    fn fire_tlp(&mut self, now: SimTime) {
        if self.rtx.is_empty() {
            return;
        }
        self.stats.tlps += 1;
        // Probe: retransmit the highest unsacked segment, on the current
        // path.
        let tdn = self.current;
        if let Some(s) = self
            .rtx
            .with_last_unsacked(|s| mark_retransmitted(s, now, tdn))
        {
            let out = self.data_segment(s.seq, seg_payload(&s), s.is_syn, s.is_fin);
            self.stats.retransmits += 1;
            self.stats.segs_sent += 1;
            self.pending.push_back(out);
        }
        self.arm_rto(now);
    }

    fn fire_rto(&mut self, now: SimTime) {
        let Some(head) = self.rtx.front().copied() else {
            self.rto_deadline = None;
            return;
        };
        if self.rto_backoff >= self.cfg.max_retries {
            self.abort(ConnError::RetransmitLimit {
                retries: self.rto_backoff,
            });
            return;
        }
        // SACK reneging (the `tcp_check_sack_reneging` analogue): an RTO
        // with the *head* of the queue SACKed means the receiver
        // acknowledged that range selectively but never cumulatively —
        // it reneged (or the network lied). Forget every SACK mark so
        // `mark_all_lost` re-marks the reneged ranges; without this the
        // sacked head is never eligible for retransmission and the
        // connection RTO-spins to a wrongful abort.
        if head.sacked {
            let n = self.rtx.clear_sack_marks();
            self.stats.sack_reneges += u64::from(n);
        }
        self.stats.rtos += 1;
        // RTO-stall accounting: a firing with zero backoff opens a new
        // timer-recovery episode; backoff refires extend it. Either way
        // the wait between arming and firing was dead air for the flow.
        if self.rto_backoff == 0 {
            self.stats.rto_stalls += 1;
        }
        self.stats.stall_ns += now.saturating_since(self.rto_armed_at).as_nanos();
        // Only the path that carried the timed-out (oldest) segment
        // collapses; the other paths' models are not to blame and stay
        // intact (§3.1's isolation of per-path state).
        let victim = self.path_index(head.tdn);
        let p = &mut self.paths[victim];
        p.ca = CaState::Loss;
        p.recovery_point = Some(self.snd_nxt);
        p.cc.on_rto(now);
        self.dupacks = 0;
        self.rtx.mark_all_lost();
        self.rto_backoff += 1;
        self.arm_rto(now);
        self.tlp_deadline = None;
    }

    // ------------------------------------------------------------------
    // output path
    // ------------------------------------------------------------------

    /// A segment occupying sequence space (data, FIN, window probe, or a
    /// retransmission of any of those or of a SYN), piggybacking the
    /// current receive state.
    fn data_segment(&self, seq: SeqNum, len: u32, syn: bool, fin: bool) -> Segment {
        let mut seg = Segment::new(self.flow, self.data_dir);
        seg.seq = seq;
        seg.len = len;
        seg.flags.syn = syn;
        seg.flags.fin = fin;
        seg.flags.psh = len > 0;
        seg.wnd = self.cfg.recv_buf;
        if let Some(rx) = self.rx.as_ref() {
            seg.flags.ack = true;
            seg.ack = rx.rcv_nxt();
            seg.wnd = rx.window();
        }
        if self.cfg.ecn && len > 0 {
            seg.ecn = Ecn::Ect0;
        }
        seg.stamp_payload();
        seg
    }

    fn after_transmit(&mut self, now: SimTime, seg: &Segment) {
        if self.rto_deadline.is_none() {
            self.arm_rto(now);
        }
        self.arm_tlp(now);
        if self.cfg.pacing {
            // The next data segment may leave one serialization interval
            // of the paced rate cwnd/rtt later. Pace against the path's
            // *minimum* RTT, not srtt: ACKs generated at the tail of a
            // day are stranded through the night and arrive during other
            // TDNs' days still tagged with their own TDN, so a path's
            // srtt is inflated by schedule artifacts that say nothing
            // about its real capacity. min_rtt is immune.
            let rtt = self.cur().rtt.min_rtt().or(self.cur().rtt.srtt());
            let rtt = rtt.unwrap_or(SimDuration::from_micros(50));
            let cwnd = self.cwnd().max(self.cfg.mss);
            let gap = rtt.mul_f64(f64::from(seg.wire_size()) / f64::from(cwnd));
            self.next_paced_at = now + gap;
        }
    }

    /// The machine's next segment, gated by hold, pacing and window.
    fn next_segment(&mut self, now: SimTime) -> Option<Segment> {
        // Control/ACK segments bypass every gate.
        if let Some(seg) = self.pending.pop_front() {
            return Some(seg);
        }
        // Hold before pacing: while held, the hold — not the pacer — is
        // the binding constraint, so disarm the pacing wake-up (stamped
        // fresh on the next real send) or `next_timer` would advertise a
        // stale past release and spin the driver at one instant.
        if let Some(until) = self.hold_until {
            if now < until {
                self.next_paced_at = SimTime::ZERO;
                return None;
            }
            self.hold_until = None;
        }
        if self.cfg.pacing && now < self.next_paced_at {
            return None;
        }

        // Gate on the *current path's* window against the *current
        // path's* pipe — the swap that gives TDTCP a wide-open window
        // with near-zero inflight right after a switch (§5.2's initial
        // burst).
        let cwnd = self.cwnd();
        let pipe = self.path_pipe_bytes(self.cur);

        // Retransmissions first (Linux behaviour; §4.3's "any TDN" rule):
        // lost segments go out at the first opportunity whatever path
        // they were first sent on — in RTO recovery even past a full
        // window — re-tagged with the path that now carries them.
        if pipe < cwnd || self.paths.iter().any(|p| p.ca == CaState::Loss) {
            let tdn = self.current;
            if let Some(s) = self
                .rtx
                .with_next_retransmit(|s| mark_retransmitted(s, now, tdn))
            {
                let out = self.data_segment(s.seq, seg_payload(&s), s.is_syn, s.is_fin);
                self.stats.retransmits += 1;
                self.stats.segs_sent += 1;
                self.after_transmit(now, &out);
                return Some(out);
            }
        }

        if self.state == State::Established && pipe < cwnd {
            // New data.
            let inflight_seq = self.snd_nxt - self.snd_una;
            if self.bytes_unsent > 0 && inflight_seq < self.peer_wnd {
                let len = u64::from(self.cfg.mss)
                    .min(self.bytes_unsent)
                    .min(u64::from(self.peer_wnd - inflight_seq)) as u32;
                let seg = self.data_segment(self.snd_nxt, len, false, false);
                self.track(len, false, false, self.current, now);
                self.bytes_unsent -= u64::from(len);
                self.stats.bytes_sent += u64::from(len);
                self.stats.segs_sent += 1;
                self.after_transmit(now, &seg);
                return Some(seg);
            }
            // FIN once everything is sent.
            if self.bytes_unsent == 0
                && self.cfg.bytes_to_send > 0
                && !(self.fin_acked || self.rtx.has_fin())
            {
                let fin = self.data_segment(self.snd_nxt, 0, false, true);
                self.track(1, false, true, self.current, now);
                self.state = State::FinWait;
                self.arm_rto(now);
                return Some(fin);
            }
        }
        // Nothing sendable for a non-pacing reason (cwnd/rwnd-blocked or
        // no data): disarm the pacing wake-up so `next_timer` cannot
        // advertise a release that has no work; an arriving ACK re-opens
        // the window and restarts pacing. A zero-window block instead
        // arms the persist timer — the driver polls after every event,
        // so the stall is always noticed.
        self.next_paced_at = SimTime::ZERO;
        self.maybe_arm_persist(now);
        None
    }
}

/// [`Connection::path_index`] for code that holds `last_path` by value
/// because the connection is mutably borrowed (scoreboard visitors).
fn path_of(tdn: TdnId, last_path: usize) -> usize {
    tdn.index().min(last_path)
}

fn seg_payload(s: &TxSeg) -> u32 {
    s.len - u32::from(s.is_syn) - u32::from(s.is_fin)
}

/// Record a retransmission of `s` at `now` on the path tagged `tdn`;
/// returns a copy for building the wire segment.
fn mark_retransmitted(s: &mut TxSeg, now: SimTime, tdn: TdnId) -> TxSeg {
    s.tx_time = now;
    s.tdn = tdn;
    s.retx_count += 1;
    s.retx_in_flight = true;
    *s
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("flow", &self.flow)
            .field("state", &self.state)
            .field("snd_una", &self.snd_una)
            .field("snd_nxt", &self.snd_nxt)
            .field("current", &self.current)
            .field("paths", &self.paths)
            .field("time_division", &self.td)
            .finish()
    }
}

impl Transport for Connection {
    fn on_segment(&mut self, now: SimTime, seg: &Segment) {
        self.with_policy(|td, conn| td.negotiate(conn, seg));
        self.stats.segs_received += 1;
        // End-to-end payload checksum: a damaged segment is discarded
        // whole (headers included — a real NIC cannot trust any of it),
        // exactly as if the network had dropped it, but counted apart
        // from drops so corruption is observable.
        if seg.payload_is_corrupt() {
            self.stats.corrupt_rx += 1;
            return;
        }
        if seg.flags.rst {
            self.state = State::Done;
            self.pending.clear();
            return;
        }
        match self.state {
            State::Closed => {
                if seg.flags.syn && !seg.flags.ack {
                    self.on_syn(now, seg);
                }
            }
            State::SynSent => {
                if seg.flags.syn && seg.flags.ack {
                    self.on_syn_ack(now, seg);
                }
            }
            State::SynRcvd => {
                if seg.flags.ack {
                    self.process_ack(now, seg);
                    if self.snd_una.after(ISN) {
                        self.state = State::Established;
                        self.established_at = Some(now);
                    }
                }
                if seg.has_payload() {
                    // The handshake ACK can carry data.
                    self.on_data(seg);
                }
            }
            State::Established | State::FinWait => {
                if seg.flags.ack {
                    self.process_ack(now, seg);
                }
                if seg.has_payload() || seg.flags.fin {
                    self.on_data(seg);
                }
                if self.state == State::FinWait && self.fin_acked && self.rtx.is_empty() {
                    self.state = State::Done;
                }
            }
            State::Done => {
                // TIME-WAIT duty: a retransmitted FIN means the peer
                // never got our final ACK (it was lost or corrupted on
                // the wire). Re-ACK it, or the peer retries its FIN
                // until its retransmission limit — a silent stall from
                // the application's point of view.
                if seg.flags.fin && self.rx.is_some() {
                    self.queue_ack(false);
                }
            }
        }
    }

    /// The machine's next segment; under the policy, the skew gate runs
    /// first and the TD options go on what the machine emits.
    fn poll_send(&mut self, now: SimTime) -> Option<Segment> {
        self.with_policy(|td, conn| td.gate(conn, now));
        let mut out = self.next_segment(now);
        if let (Some(seg), Some(td)) = (out.as_mut(), self.td.as_deref_mut()) {
            td.tag(seg, self.current);
        }
        out
    }

    fn next_timer(&self) -> Option<SimTime> {
        // A pacing wake-up only matters while there is something to send.
        let paced = (self.cfg.pacing
            && self.next_paced_at > SimTime::ZERO
            && (self.bytes_unsent > 0 || self.rtx.has_retransmit()))
        .then_some(self.next_paced_at);
        let watchdog = self.td.as_ref().and_then(|td| td.deadline(self));
        let timers = [
            self.rto_deadline,
            self.tlp_deadline,
            self.persist_deadline,
            self.hold_until,
            paced,
            watchdog,
        ];
        timers.into_iter().flatten().min()
    }

    fn on_timer(&mut self, now: SimTime) {
        self.with_policy(|td, conn| td.on_timer(conn, now));
        if self.tlp_deadline.is_some_and(|tlp| tlp <= now) {
            self.tlp_deadline = None;
            self.fire_tlp(now);
        }
        if self.rto_deadline.is_some_and(|rto| rto <= now) {
            self.fire_rto(now);
        }
        if self.persist_deadline.is_some_and(|p| p <= now) {
            self.persist_deadline = None;
            self.fire_persist(now);
        }
    }

    /// Under the policy, a notification selects the current path (§3.2).
    fn on_tdn_notification(&mut self, now: SimTime, tdn: TdnId, gen: u64) {
        self.with_policy(|td, conn| td.notify(conn, now, tdn, gen));
    }

    /// retcpdyn: the current path's controller hears the ToR's prepare
    /// signal, as it hears the echoed circuit mark on every ACK.
    fn on_circuit_prepare(&mut self, now: SimTime) {
        self.paths[self.cur].cc.on_circuit_prepare(now);
    }

    fn stats(&self) -> &ConnStats {
        &self.stats
    }

    fn is_established(&self) -> bool {
        matches!(self.state, State::Established | State::FinWait)
    }

    fn is_done(&self) -> bool {
        self.state == State::Done
    }

    fn conn_error(&self) -> Option<ConnError> {
        self.error
    }

    fn variant(&self) -> &'static str {
        if self.td.is_some() {
            "tdtcp"
        } else {
            self.paths[0].cc.name()
        }
    }

    fn cwnd_report(&self) -> Vec<u32> {
        self.paths.iter().map(|p| p.cc.cwnd()).collect()
    }
}
