//! The MPTCP baseline with the paper's `tdm_schd` scheduler (§2.2).
//!
//! One full TCP subflow per TDN, each *pinned* to its network (segments
//! only traverse the RDCN while that TDN is active). A connection-level
//! 64-bit data sequence space maps over the subflows via simplified DSS
//! options; `tdm_schd` steers new data to the subflow of the currently
//! active TDN. When ACKs for data sent on the previous TDN are stranded
//! (the receiver cannot transmit on an inactive subflow), the
//! connection-level send buffer fills and the sender stalls until
//! *reinjection* re-sends the unacknowledged data ranges on the active
//! subflow — the exact pathology §2.2 measures.

use simcore::SimTime;
use tcp::cc::CongestionControl;
use tcp::recv::Reassembler;
use tcp::{ConnStats, DssMap, FlowId, Segment, SeqNum, Transport};
use wire::TdnId;

/// Connection-level send buffer: unacknowledged data-level bytes may not
/// exceed this. This is what converts stranded ACKs into stalls.
const SEND_BUF: u64 = 1 << 20;

/// Connection-level receive buffer: data held above a data-level hole
/// (stranded on an inactive subflow) consumes it, closing the advertised
/// window — the §2.2 "flow control stall".
const RECV_BUF_CONN: u64 = 512 << 10;

/// SACK blocks that fit beside the DSS option a receiver's data ACK rides
/// in: 40 B of TCP option space less the DSS's 12 B leaves room for the
/// SACK option's 2 B and three 8 B blocks.
const SACK_BLOCKS_BESIDE_DATA_ACK: usize = 3;

/// Number of subflows: one per TDN of the paper's two-TDN network.
const NUM_SUBFLOWS: u8 = 2;

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

struct Subflow {
    conn: Option<tcp::Connection>,
    tdn: TdnId,
    /// Active data mappings, oldest first.
    mappings: Vec<Mapping>,
    /// Subflow sequence where the next enqueued byte will land.
    app_end: SeqNum,
}

impl Subflow {
    fn established(&self) -> bool {
        self.conn.as_ref().is_some_and(|c| c.is_established())
    }
}

/// Endpoint role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Sender,
    Receiver,
}

/// An MPTCP endpoint (both subflows plus connection-level state).
pub struct MptcpConnection {
    cfg: MptcpConfig,
    flow: FlowId,
    role: Role,
    cc_template: Box<dyn CongestionControl>,
    subflows: Vec<Subflow>,
    /// tdm_schd: the TDN whose subflow receives new data.
    current: TdnId,
    /// Next data sequence to assign.
    dsn_next: u64,
    /// Cumulative data-level acknowledgment received.
    dsn_una: u64,
    /// Application bytes not yet assigned to any subflow.
    bytes_unassigned: u64,
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
    done: bool,
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
        let mut c = Self::new_endpoint(flow, Role::Sender, cfg, cc_template);
        c.bytes_unassigned = c.cfg.bytes_to_send;
        c.activate_subflow(0, now);
        c
    }

    /// Create the receiving endpoint: one listener per subflow.
    pub fn listen(flow: FlowId, cfg: MptcpConfig, cc_template: &dyn CongestionControl) -> Self {
        let mut c = Self::new_endpoint(flow, Role::Receiver, cfg, cc_template);
        for i in 0..c.subflows.len() {
            let conn = tcp::Connection::listen(flow, c.cfg.tcp.clone(), c.cc_template.clone_box());
            c.subflows[i].conn = Some(conn);
        }
        c
    }

    fn new_endpoint(
        flow: FlowId,
        role: Role,
        cfg: MptcpConfig,
        cc_template: &dyn CongestionControl,
    ) -> Self {
        let subflows = (0..NUM_SUBFLOWS)
            .map(|i| Subflow {
                conn: None,
                tdn: TdnId(i),
                mappings: Vec::new(),
                app_end: tcp::ISN + 1, // data starts after the SYN
            })
            .collect();
        MptcpConnection {
            cfg,
            flow,
            role,
            cc_template: cc_template.clone_box(),
            subflows,
            current: TdnId::ZERO,
            dsn_next: 0,
            dsn_una: 0,
            bytes_unassigned: 0,
            reinject_cursor: 0,
            rx: Reassembler::new(SeqNum(0), RECV_BUF_CONN as u32),
            data_delivered: 0,
            data_dups: 0,
            stats: ConnStats::new(),
            done: false,
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
        pin.map(|t| t.index().min(self.subflows.len() - 1))
            .unwrap_or(0)
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
        let idx = self.subflow_index(Some(self.current));
        if !self.subflows[idx].established() {
            return;
        }
        let inflight = self.dsn_next - self.dsn_una;
        // New data is limited by both the send buffer and the shared
        // connection-level receive window (data parked above a hole that
        // is stranded on an inactive subflow consumes the peer's buffer —
        // the §2.2 flow-control stall). Hole-filling reinjection is not
        // window-limited and proceeds via maybe_reinject.
        if inflight >= SEND_BUF.min(RECV_BUF_CONN)
            || self.bytes_unassigned == 0
        {
            return;
        }
        let sf = &mut self.subflows[idx];
        let conn = sf.conn.as_mut().expect("established");
        if conn.unsent_bytes() > 0 {
            return; // keep segments aligned with whole mappings
        }
        let len = u64::from(self.cfg.tcp.mss)
            .min(self.bytes_unassigned)
            .min(SEND_BUF - inflight) as u32;
        if len == 0 {
            return;
        }
        sf.mappings.push(Mapping {
            ssn: sf.app_end,
            dsn: self.dsn_next,
            len,
        });
        conn.enqueue_app_bytes(u64::from(len));
        sf.app_end += len;
        self.dsn_next += u64::from(len);
        self.bytes_unassigned -= u64::from(len);
    }

    /// Connection-level reinjection: when progress is blocked by
    /// unacknowledged data owned by an *inactive* subflow, re-send that
    /// data range on the active subflow.
    fn maybe_reinject(&mut self) {
        if self.role != Role::Sender || !self.cfg.reinject {
            return;
        }
        let idx = self.subflow_index(Some(self.current));
        if !self.subflows[idx].established() {
            return;
        }
        // Reinject when data-level progress is head-of-line blocked by a
        // range owned by an inactive subflow *and* the send buffer is
        // under real pressure — the Linux implementation only reinjects
        // when the scheduler can no longer push new data, which is what
        // produces the measured stall-then-recover pattern (§2.2).
        if self.dsn_una >= self.dsn_next {
            return;
        }
        // Trigger before the shared receive window fully closes, so the
        // reinjected copy can still be delivered and reopen the window.
        if self.dsn_next - self.dsn_una < RECV_BUF_CONN / 2 {
            return;
        }
        self.reinject_cursor = self.reinject_cursor.max(self.dsn_una);
        if self.reinject_cursor >= self.dsn_next {
            return;
        }
        let Some((owner, owner_map)) = self.mapping_at(self.reinject_cursor) else {
            return;
        };
        if owner == idx {
            return; // blocking data already rides the active subflow
        }
        // Don't flood: one reinjected chunk at a time through the subflow.
        if self.subflows[idx]
            .conn
            .as_ref()
            .expect("established")
            .unsent_bytes()
            > 0
        {
            return;
        }
        // Reinject one MSS-sized chunk of the blocking range.
        let offset = self.reinject_cursor - owner_map.dsn;
        let len = owner_map.len - offset as u32;
        let sf = &mut self.subflows[idx];
        sf.mappings.push(Mapping {
            ssn: sf.app_end,
            dsn: self.reinject_cursor,
            len,
        });
        sf.conn
            .as_mut()
            .expect("established")
            .enqueue_app_bytes(u64::from(len));
        sf.app_end += len;
        self.reinject_cursor += u64::from(len);
        self.stats.reinjections += 1;
    }

    /// Drop mappings fully acknowledged at the subflow level.
    fn gc_mappings(&mut self) {
        for sf in &mut self.subflows {
            let Some(conn) = sf.conn.as_ref() else { continue };
            let una = conn.snd_una();
            sf.mappings
                .retain(|m| (m.ssn + m.len).after(una));
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
        s.dup_segs_received += self.data_dups;
        self.stats = s;
    }
}

impl Transport for MptcpConnection {
    fn on_segment(&mut self, now: SimTime, seg: &Segment) {
        let idx = self.subflow_index(seg.pin);
        // A damaged segment must not reach the MPTCP data level either:
        // hand it to the subflow engine (which discards and counts it)
        // and skip the DSS/data-ACK bookkeeping entirely.
        if seg.payload_is_corrupt() {
            if let Some(conn) = self.subflows[idx].conn.as_mut() {
                conn.on_segment(now, seg);
            }
            self.refresh_stats();
            return;
        }
        // Data-level bookkeeping happens at the MPTCP layer.
        if seg.has_payload() {
            if let Some(dss) = seg.dss {
                let out = self.rx.on_data(SeqNum(dss.dsn as u32), dss.len.min(seg.len));
                self.data_delivered += u64::from(out.delivered);
                if out.duplicate {
                    self.data_dups += 1;
                }
            }
        }
        if let Some(dack) = seg.data_ack {
            if dack > self.dsn_una {
                self.dsn_una = dack;
            }
        }
        if let Some(conn) = self.subflows[idx].conn.as_mut() {
            conn.on_segment(now, seg);
        }
        self.gc_mappings();
        if self.role == Role::Sender
            && self.cfg.bytes_to_send != u64::MAX
            && self.dsn_una >= self.cfg.bytes_to_send
        {
            self.done = true;
        }
        self.refresh_stats();
    }

    fn poll_send(&mut self, now: SimTime) -> Option<Segment> {
        self.assign_chunks();
        self.maybe_reinject();
        // Poll the active subflow first, then the others (retransmissions
        // and stranded ACKs may still be queued there).
        let active = self.subflow_index(Some(self.current));
        let others = (0..self.subflows.len()).filter(|&i| i != active);
        for i in std::iter::once(active).chain(others) {
            let data_ack = self.data_delivered;
            let sf = &mut self.subflows[i];
            let Some(conn) = sf.conn.as_mut() else { continue };
            if let Some(mut seg) = conn.poll_send(now) {
                seg.pin = Some(sf.tdn);
                if seg.has_payload() {
                    // Attach the DSS mapping covering this segment.
                    let m = sf
                        .mappings
                        .iter()
                        .find(|m| {
                            seg.seq.after_eq(m.ssn) && seg.seq.before(m.ssn + m.len)
                        })
                        .copied();
                    if let Some(m) = m {
                        let offset = seg.seq - m.ssn;
                        debug_assert!(
                            seg.len <= m.len - offset,
                            "segment must not span mappings"
                        );
                        seg.dss = Some(DssMap {
                            dsn: m.dsn + u64::from(offset),
                            ssn: seg.seq,
                            len: seg.len,
                        });
                    }
                }
                // RFC 8684 carries no DSS on a SYN: the listener's
                // SYN-ACK goes out without a DATA_ACK.
                if seg.flags.ack && !seg.flags.syn && self.role == Role::Receiver {
                    seg.data_ack = Some(data_ack);
                    seg.sack.truncate(SACK_BLOCKS_BESIDE_DATA_ACK);
                }
                self.refresh_stats();
                return Some(seg);
            }
        }
        None
    }

    fn next_timer(&self) -> Option<SimTime> {
        self.subflows
            .iter()
            .filter_map(|sf| sf.conn.as_ref().and_then(|c| c.next_timer()))
            .min()
    }

    fn on_timer(&mut self, now: SimTime) {
        for sf in &mut self.subflows {
            if let Some(conn) = sf.conn.as_mut() {
                conn.on_timer(now);
            }
        }
        self.refresh_stats();
    }

    fn on_tdn_notification(&mut self, now: SimTime, tdn: TdnId, _gen: u64) {
        if tdn != self.current {
            self.stats.tdn_switches += 1;
        }
        self.current = tdn;
        let idx = self.subflow_index(Some(tdn));
        self.activate_subflow(idx, now);
        // A new stall episode may begin; allow the fresh ranges to be
        // reinjected once progress is judged blocked again.
        self.reinject_cursor = self.reinject_cursor.max(self.dsn_una);
    }

    fn stats(&self) -> &ConnStats {
        &self.stats
    }

    fn is_established(&self) -> bool {
        self.subflows
            .first()
            .is_some_and(Subflow::established)
    }

    fn is_done(&self) -> bool {
        self.done
    }

    fn conn_error(&self) -> Option<tcp::ConnError> {
        // The connection as a whole fails only when the transfer never
        // completed and every subflow gave up; a single aborted subflow
        // with a surviving sibling can still finish via reinjection.
        if self.done {
            return None;
        }
        let errors: Vec<_> = self
            .subflows
            .iter()
            .filter_map(|sf| sf.conn.as_ref())
            .map(tcp::Connection::conn_error)
            .collect();
        if !errors.is_empty() && errors.iter().all(Option::is_some) {
            errors[0]
        } else {
            None
        }
    }

    fn variant(&self) -> &'static str {
        "mptcp"
    }

    fn cwnd_report(&self) -> Vec<u32> {
        self.subflows
            .iter()
            .filter_map(|sf| sf.conn.as_ref().map(tcp::Connection::cwnd))
            .collect()
    }
}

impl std::fmt::Debug for MptcpConnection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MptcpConnection")
            .field("flow", &self.flow)
            .field("role", &self.role)
            .field("current", &self.current)
            .field("dsn_next", &self.dsn_next)
            .field("dsn_una", &self.dsn_una)
            .field("done", &self.done)
            .finish()
    }
}
