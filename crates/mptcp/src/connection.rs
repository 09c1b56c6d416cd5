//! The MPTCP baseline with the paper's `tdm_schd` scheduler (§2.2).
//!
//! One full TCP subflow per TDN, each *pinned* to its network (segments
//! only traverse the RDCN while that TDN is active). A connection-level
//! 64-bit data sequence space maps over the subflows via simplified DSS
//! options, after the first subflow's handshake has carried MP_CAPABLE
//! with two fixed keys (the model has no crypto); `tdm_schd` steers new
//! data to the subflow of the currently active TDN. When ACKs for data
//! sent on the previous TDN are stranded (the receiver cannot transmit
//! on an inactive subflow), the connection-level send buffer fills and
//! the sender stalls until *reinjection* re-sends the unacknowledged data
//! ranges on the active subflow — the exact pathology §2.2 measures.

use simcore::SimTime;
use tcp::cc::CongestionControl;
use tcp::recv::Reassembler;
use tcp::{ConnStats, FlowId, Segment, SeqNum, Transport};
use wire::TdnId;

/// Connection-level send buffer: unacknowledged data-level bytes may not
/// exceed this. This is what converts stranded ACKs into stalls.
const SEND_BUF: u64 = 1 << 20;

/// Connection-level receive buffer: data held above a data-level hole
/// (stranded on an inactive subflow) consumes it, closing the advertised
/// window — the §2.2 "flow control stall".
const RECV_BUF_CONN: u64 = 512 << 10;

/// Number of subflows: one per TDN of the paper's two-TDN network.
const NUM_SUBFLOWS: usize = 2;

/// MPTCP configuration.
#[derive(Debug, Clone)]
pub struct MptcpConfig {
    /// Per-subflow TCP knobs (MSS, buffers, RTO bounds...).
    pub tcp: tcp::Config,
    /// Total application bytes to transfer (`u64::MAX` = unbounded bulk).
    pub bytes_to_send: u64,
    /// Enable connection-level reinjection (the Linux MPTCP work-around;
    /// disabling it is the ablation that shows permanent stalls).
    pub reinject: bool,
}

impl Default for MptcpConfig {
    fn default() -> Self {
        let tcp_cfg = tcp::Config {
            bytes_to_send: 0, // subflows are fed by the scheduler
            ..tcp::Config::default()
        };
        MptcpConfig {
            tcp: tcp_cfg,
            bytes_to_send: u64::MAX,
            reinject: true,
        }
    }
}

/// One byte-range mapping from a subflow's sequence space into the data
/// sequence space.
#[derive(Debug, Clone, Copy)]
struct Mapping {
    ssn: SeqNum,
    dsn: u64,
    len: u32,
}

/// Subflow `i` is pinned to TDN `i`.
#[derive(Debug)]
struct Subflow {
    conn: Option<tcp::Connection>,
    /// Active data mappings, oldest first.
    mappings: Vec<Mapping>,
    /// Subflow sequence where the next enqueued byte will land.
    app_end: SeqNum,
}

impl Subflow {
    fn new(conn: Option<tcp::Connection>) -> Self {
        Subflow {
            conn,
            mappings: Vec::new(),
            app_end: tcp::ISN + 1, // data starts after the SYN
        }
    }

    /// Map `len` bytes from data sequence `dsn` onto the subflow's next
    /// bytes and hand them to its connection. Only an established
    /// subflow that has sent all it was given takes a mapping, so every
    /// segment lies within one; returns whether this one was taken.
    fn map(&mut self, dsn: u64, len: u32) -> bool {
        let ready = |c: &&mut tcp::Connection| c.is_established() && c.unsent_bytes() == 0;
        let Some(conn) = self.conn.as_mut().filter(ready) else {
            return false;
        };
        conn.enqueue_app_bytes(u64::from(len));
        self.mappings.push(Mapping {
            ssn: self.app_end,
            dsn,
            len,
        });
        self.app_end += len;
        true
    }
}

/// Endpoint role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Sender,
    Receiver,
}

/// An MPTCP endpoint (both subflows plus connection-level state).
#[derive(Debug)]
pub struct MptcpConnection {
    cfg: MptcpConfig,
    flow: FlowId,
    role: Role,
    cc_template: Box<dyn CongestionControl>,
    subflows: [Subflow; NUM_SUBFLOWS],
    /// tdm_schd: the TDN whose subflow receives new data.
    current: TdnId,
    /// The generation of the last notification applied.
    last_gen: Option<u64>,
    /// Next data sequence to assign.
    dsn_next: u64,
    /// Cumulative data-level acknowledgment received.
    dsn_una: u64,
    /// Lowest data sequence not yet reinjected in the current stall.
    reinject_cursor: u64,
    /// Receiver-side data-level reassembly, over the DSN truncated to 32
    /// bits: live ranges span at most the 1 MB send buffer, far below the
    /// 2^31 that wrapping comparison needs.
    rx: Reassembler,
    /// Data-level bytes delivered in order: the 64-bit DATA_ACK.
    data_delivered: u64,
    /// Data-level duplicates: ranges that reached the receiver twice,
    /// once per subflow (a reinjected range whose original also landed).
    data_dups: u64,
    stats: ConnStats,
    /// The initiator has sent the first subflow's third ACK.
    opened: bool,
}

impl MptcpConnection {
    /// Create the sending endpoint. Subflow 0 (packet network) connects
    /// immediately; other subflows connect lazily when their TDN first
    /// activates (queueing a TDN-pinned SYN at `t = 0` would park it in
    /// the ToR VOQ for a full week).
    pub fn connect(
        flow: FlowId,
        cfg: MptcpConfig,
        cc_template: &dyn CongestionControl,
        now: SimTime,
    ) -> Self {
        let subflows = std::array::from_fn(|_| Subflow::new(None));
        let mut c = Self::new_endpoint(flow, Role::Sender, cfg, cc_template, subflows);
        c.activate_subflow(0, now);
        c
    }

    /// Create the receiving endpoint: one listener per subflow.
    pub fn listen(flow: FlowId, cfg: MptcpConfig, cc_template: &dyn CongestionControl) -> Self {
        let subflows = std::array::from_fn(|_| {
            let conn = tcp::Connection::listen(flow, cfg.tcp.clone(), cc_template.clone_box());
            Subflow::new(Some(conn))
        });
        Self::new_endpoint(flow, Role::Receiver, cfg, cc_template, subflows)
    }

    fn new_endpoint(
        flow: FlowId,
        role: Role,
        cfg: MptcpConfig,
        cc_template: &dyn CongestionControl,
        subflows: [Subflow; NUM_SUBFLOWS],
    ) -> Self {
        MptcpConnection {
            cfg,
            flow,
            role,
            cc_template: cc_template.clone_box(),
            subflows,
            current: TdnId::ZERO,
            last_gen: None,
            dsn_next: 0,
            dsn_una: 0,
            reinject_cursor: 0,
            rx: Reassembler::new(SeqNum(0), RECV_BUF_CONN as u32),
            data_delivered: 0,
            data_dups: 0,
            stats: ConnStats::new(),
            opened: false,
        }
    }

    fn activate_subflow(&mut self, idx: usize, now: SimTime) {
        if self.subflows[idx].conn.is_none() && self.role == Role::Sender {
            let conn = tcp::Connection::connect(
                self.flow,
                self.cfg.tcp.clone(),
                self.cc_template.clone_box(),
                now,
            );
            self.subflows[idx].conn = Some(conn);
        }
    }

    fn subflow_index(&self, pin: Option<TdnId>) -> usize {
        pin.map_or(0, |t| t.index().min(NUM_SUBFLOWS - 1))
    }

    /// The subflow of the active TDN, which tdm_schd feeds.
    fn active(&self) -> usize {
        self.subflow_index(Some(self.current))
    }

    /// A sender has delivered every byte it was given.
    fn data_done(&self) -> bool {
        self.role == Role::Sender
            && self.cfg.bytes_to_send != u64::MAX
            && self.dsn_una >= self.cfg.bytes_to_send
    }

    /// The mapping that carries data sequence `dsn`, with the index of its
    /// subflow: the lowest-indexed subflow with a mapping that covers it.
    /// Reinjection gives a range a second mapping, so that rule alone
    /// could name the copy. It never does, because the only caller asks
    /// at `reinject_cursor`, and the cursor never moves back below a
    /// reinjected range: it only grows (by `max` with `dsn_una`, and past
    /// each chunk it reinjects). Every DSN asked about thus has one
    /// mapping, its original.
    fn mapping_at(&self, dsn: u64) -> Option<(usize, Mapping)> {
        self.subflows.iter().enumerate().find_map(|(i, sf)| {
            sf.mappings
                .iter()
                .find(|m| m.dsn <= dsn && dsn < m.dsn + u64::from(m.len))
                .map(|&m| (i, m))
        })
    }

    /// tdm_schd assignment: feed the active subflow one chunk at a time.
    fn assign_chunks(&mut self) {
        if self.role != Role::Sender {
            return;
        }
        let inflight = self.dsn_next - self.dsn_una;
        let unassigned = self.cfg.bytes_to_send - self.dsn_next;
        // New data is limited by both the send buffer and the shared
        // connection-level receive window (data parked above a hole that
        // is stranded on an inactive subflow consumes the peer's buffer —
        // the §2.2 flow-control stall). Hole-filling reinjection is not
        // window-limited and proceeds via maybe_reinject.
        if inflight >= SEND_BUF.min(RECV_BUF_CONN) || unassigned == 0 {
            return;
        }
        let len = u64::from(self.cfg.tcp.mss)
            .min(unassigned)
            .min(SEND_BUF - inflight) as u32;
        let active = self.active();
        if self.subflows[active].map(self.dsn_next, len) {
            self.dsn_next += u64::from(len);
        }
    }

    /// Connection-level reinjection: when progress is blocked by
    /// unacknowledged data owned by an *inactive* subflow, re-send that
    /// data range on the active subflow, one chunk at a time.
    fn maybe_reinject(&mut self) {
        if self.role != Role::Sender || !self.cfg.reinject {
            return;
        }
        // Reinject when data-level progress is head-of-line blocked by a
        // range owned by an inactive subflow *and* the send buffer is
        // under real pressure — the Linux implementation only reinjects
        // when the scheduler can no longer push new data, which is what
        // produces the measured stall-then-recover pattern (§2.2).
        // Trigger before the shared receive window fully closes, so the
        // reinjected copy can still be delivered and reopen the window.
        if self.dsn_next.saturating_sub(self.dsn_una) < RECV_BUF_CONN / 2 {
            return;
        }
        self.reinject_cursor = self.reinject_cursor.max(self.dsn_una);
        if self.reinject_cursor >= self.dsn_next {
            return;
        }
        let active = self.active();
        let Some((owner, owner_map)) = self.mapping_at(self.reinject_cursor) else {
            return;
        };
        if owner == active {
            return; // blocking data already rides the active subflow
        }
        let len = owner_map.len - (self.reinject_cursor - owner_map.dsn) as u32;
        if self.subflows[active].map(self.reinject_cursor, len) {
            self.reinject_cursor += u64::from(len);
            self.stats.reinjections += 1;
        }
    }

    fn refresh_stats(&mut self) {
        let mut s = ConnStats::new();
        for c in self.subflows.iter().filter_map(|sf| sf.conn.as_ref()) {
            s += *c.stats();
        }
        // Connection-level semantics for the sequence-progress metrics,
        // and the counters only the data level sees.
        s.bytes_acked = self.dsn_una;
        s.bytes_delivered = self.data_delivered;
        s.reinjections = self.stats.reinjections;
        s.tdn_switches = self.stats.tdn_switches;
        s.stale_notifies = self.stats.stale_notifies;
        s.dup_segs_received += self.data_dups;
        self.stats = s;
    }
}

impl Transport for MptcpConnection {
    fn on_segment(&mut self, now: SimTime, seg: &Segment) {
        // A damaged segment must not reach the MPTCP data level either:
        // the subflow engine discards and counts it.
        if !seg.payload_is_corrupt() {
            if let Some(dss) = seg.dss().filter(|_| seg.has_payload()) {
                let out = self
                    .rx
                    .on_data(SeqNum(dss.dsn as u32), dss.len.min(seg.len));
                self.data_delivered += u64::from(out.delivered);
                self.data_dups += u64::from(out.duplicate);
            }
            if let Some(dack) = seg.data_ack() {
                self.dsn_una = self.dsn_una.max(dack);
            }
        }
        // Only this subflow's acknowledgment can have moved, so only its
        // mappings can be done.
        let sf = &mut self.subflows[self.subflow_index(seg.pin)];
        if let Some(conn) = sf.conn.as_mut() {
            conn.on_segment(now, seg);
            let una = conn.snd_una();
            sf.mappings.retain(|m| (m.ssn + m.len).after(una));
        }
        self.refresh_stats();
    }

    fn poll_send(&mut self, now: SimTime) -> Option<Segment> {
        self.assign_chunks();
        self.maybe_reinject();
        // Poll the active subflow first, then the others (retransmissions
        // and stranded ACKs may still be queued there).
        let active = self.active();
        let others = (0..NUM_SUBFLOWS).filter(|&i| i != active);
        for i in std::iter::once(active).chain(others) {
            let sf = &mut self.subflows[i];
            let Some(mut seg) = sf.conn.as_mut().and_then(|c| c.poll_send(now)) else {
                continue;
            };
            seg.pin = Some(TdnId(i as u8));
            // RFC 8684 §3.1: the first subflow opens with MP_CAPABLE
            // on its SYN, its SYN-ACK and the initiator's third ACK,
            // and no DSS goes out before it. Later subflows would
            // join with MP_JOIN, which the model does not send.
            let opening = seg.flags.syn || (self.role == Role::Sender && !self.opened);
            if i == 0 && opening {
                debug_assert!(!seg.has_payload(), "the third ACK carries no data");
                self.opened |= !seg.flags.syn;
                seg.set_mp_capable();
            } else if seg.has_payload() {
                // Attach the DSS mapping covering this segment.
                let covers =
                    |m: &&Mapping| seg.seq.after_eq(m.ssn) && seg.seq.before(m.ssn + m.len);
                if let Some(m) = sf.mappings.iter().find(covers) {
                    let offset = seg.seq - m.ssn;
                    debug_assert!(seg.len <= m.len - offset, "segment must not span mappings");
                    seg.set_dss(m.dsn + u64::from(offset));
                }
            }
            if seg.flags.ack && !seg.flags.syn && self.role == Role::Receiver {
                seg.set_data_ack(self.data_delivered);
            }
            self.refresh_stats();
            return Some(seg);
        }
        None
    }

    fn next_timer(&self) -> Option<SimTime> {
        self.subflows
            .iter()
            .filter_map(|sf| sf.conn.as_ref()?.next_timer())
            .min()
    }

    fn on_timer(&mut self, now: SimTime) {
        for conn in self.subflows.iter_mut().filter_map(|sf| sf.conn.as_mut()) {
            conn.on_timer(now);
        }
        self.refresh_stats();
    }

    /// A gen at or below the last applied one is a duplicated or
    /// overtaken delivery: it is discarded and counted, as TDTCP's
    /// policy does, so it cannot steer new data to a dark TDN.
    fn on_tdn_notification(&mut self, now: SimTime, tdn: TdnId, gen: u64) {
        if self.last_gen.is_some_and(|last| gen <= last) {
            self.stats.stale_notifies += 1;
            return;
        }
        self.last_gen = Some(gen);
        if tdn != self.current {
            self.stats.tdn_switches += 1;
        }
        self.current = tdn;
        self.activate_subflow(self.active(), now);
        // A new stall episode may begin; allow the fresh ranges to be
        // reinjected once progress is judged blocked again.
        self.reinject_cursor = self.reinject_cursor.max(self.dsn_una);
    }

    /// retcpdyn's prepare signal reaches the active subflow's controller,
    /// as a connection's reaches its current path's.
    fn on_circuit_prepare(&mut self, now: SimTime) {
        if let Some(conn) = self.subflows[self.active()].conn.as_mut() {
            conn.on_circuit_prepare(now);
        }
    }

    fn stats(&self) -> &ConnStats {
        &self.stats
    }

    fn is_established(&self) -> bool {
        let first = self.subflows[0].conn.as_ref();
        first.is_some_and(tcp::Connection::is_established)
    }

    /// Done when the data level has finished, or when every subflow
    /// aborted: a connection with an error is done too.
    fn is_done(&self) -> bool {
        self.data_done() || self.conn_error().is_some()
    }

    fn conn_error(&self) -> Option<tcp::ConnError> {
        // The connection as a whole fails only when the transfer never
        // completed and every subflow gave up; a single aborted subflow
        // with a surviving sibling can still finish via reinjection.
        if self.data_done() {
            return None;
        }
        let mut conns = self.subflows.iter().filter_map(|sf| sf.conn.as_ref());
        let first = conns.next()?.conn_error()?;
        conns.all(|c| c.conn_error().is_some()).then_some(first)
    }

    fn variant(&self) -> &'static str {
        "mptcp"
    }

    fn cwnd_report(&self) -> Vec<u32> {
        self.subflows
            .iter()
            .filter_map(|sf| Some(sf.conn.as_ref()?.cwnd()))
            .collect()
    }
}
