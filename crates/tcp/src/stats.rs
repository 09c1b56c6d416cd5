//! Cumulative per-connection counters.
//!
//! All counters are monotone; the experiment harness snapshots them at day
//! boundaries and diffs to attribute events to optical days (Fig. 10) or
//! computes rates over windows (throughput tables).

use testkit::Counters;

/// Cumulative statistics for one connection (or one MPTCP subflow).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Payload bytes handed to the network for the first time.
    pub bytes_sent: u64,
    /// Payload bytes cumulatively acknowledged.
    pub bytes_acked: u64,
    /// Payload bytes delivered in order to the receiving application.
    pub bytes_delivered: u64,
    /// Data segments transmitted (including retransmissions).
    pub segs_sent: u64,
    /// Pure ACK segments transmitted.
    pub acks_sent: u64,
    /// Segments received (data and ACK).
    pub segs_received: u64,
    /// Retransmitted segments.
    pub retransmits: u64,
    /// Retransmissions later proven unnecessary (the original had arrived:
    /// detected by the receiver seeing a fully duplicate segment).
    pub spurious_retransmits: u64,
    /// Duplicate segments observed at the receiver.
    pub dup_segs_received: u64,
    /// Times the sender entered fast recovery.
    pub fast_recoveries: u64,
    /// Times loss detection found a sequence hole (a "reordering event"
    /// in Fig. 10's terms: cumulative-ACK < SACK with a gap between).
    pub reorder_events: u64,
    /// Packets marked for retransmission by those events (Fig. 10b: the
    /// would-be spurious retransmissions if cwnd permits).
    pub reorder_marked_pkts: u64,
    /// Retransmission timeouts fired.
    pub rtos: u64,
    /// Tail-loss probes fired.
    pub tlps: u64,
    /// Data segments received carrying a CE mark.
    pub ce_received: u64,
    /// ACKs received carrying ECN-Echo.
    pub ece_received: u64,
    /// Segments dropped by the network (counted by the network model).
    pub drops: u64,
    /// TDN change notifications processed (TDTCP only).
    pub tdn_switches: u64,
    /// RTT samples discarded as cross-TDN (type-3) samples (TDTCP only).
    pub cross_tdn_rtt_discards: u64,
    /// Hole segments skipped by relaxed reordering detection because their
    /// TDN differed from the triggering ACK's (TDTCP only).
    pub relaxed_skips: u64,
    /// MPTCP: segments reinjected onto another subflow.
    pub reinjections: u64,
    /// Times the notification watchdog inferred a missed TDN change and
    /// entered degraded mode (TDTCP only).
    pub notify_watchdog_fires: u64,
    /// Times a fresh notification resynchronized a degraded connection
    /// (TDTCP only).
    pub notify_resyncs: u64,
    /// Total nanoseconds spent in degraded (desynchronized) mode (TDTCP
    /// only).
    pub degraded_ns: u64,
    /// Duplicated or out-of-order notifications discarded because their
    /// generation was not newer than the last applied one (TDTCP only).
    pub stale_notifies: u64,
    /// Zero-window persist probes transmitted.
    pub persist_probes: u64,
    /// Segments whose SACK marks were cleared after the receiver reneged
    /// (head of the rtx queue SACKed-but-never-cumulatively-acked at RTO).
    pub sack_reneges: u64,
    /// Received data segments discarded because their payload checksum
    /// failed to verify (counted separately from network drops).
    pub corrupt_rx: u64,
    /// Times the connection aborted with a terminal `ConnError` instead
    /// of retrying forever.
    pub conn_aborts: u64,
    /// Episodes of timer-based loss recovery: an RTO fired with no
    /// fast-recovery path available (counted once per episode — backoff
    /// refires extend the episode rather than starting a new one). The
    /// T-RACKs pathology for short flows is exactly these episodes.
    pub rto_stalls: u64,
    /// Total nanoseconds spent waiting on RTO timers: for every RTO that
    /// fired, the dead air between the send/ACK activity that armed the
    /// timer and the timer firing. The tail-latency suite attributes
    /// p99/p999 FCT inflation to this counter.
    pub stall_ns: u64,
    /// Pause episodes of the skew-aware send gate: the sender held its
    /// pacer across a predicted slot edge because its clock-skew estimate
    /// exceeded half the guard band (TDTCP only).
    pub skew_gate_pauses: u64,
    /// Times the skew estimator exceeded the full guard band and the
    /// connection escalated into the degraded single-state posture
    /// without waiting for the watchdog (TDTCP only).
    pub skew_escalations: u64,
}

impl ConnStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mean goodput in bits per second over `elapsed`, judged by delivered
    /// (application-order) bytes.
    pub fn goodput_bps(&self, elapsed: simcore::SimDuration) -> f64 {
        if elapsed == simcore::SimDuration::ZERO {
            return 0.0;
        }
        (self.bytes_delivered as f64 * 8.0) / elapsed.as_secs_f64()
    }
}

/// Every counter, in declaration order: the digest, the sum and `+=`
/// all read this one list.
impl Counters for ConnStats {
    fn counters_mut(&mut self) -> impl IntoIterator<Item = &mut u64> {
        testkit::counters!(self, ConnStats {
            bytes_sent,
            bytes_acked,
            bytes_delivered,
            segs_sent,
            acks_sent,
            segs_received,
            retransmits,
            spurious_retransmits,
            dup_segs_received,
            fast_recoveries,
            reorder_events,
            reorder_marked_pkts,
            rtos,
            tlps,
            ce_received,
            ece_received,
            drops,
            tdn_switches,
            cross_tdn_rtt_discards,
            relaxed_skips,
            reinjections,
            notify_watchdog_fires,
            notify_resyncs,
            degraded_ns,
            stale_notifies,
            persist_probes,
            sack_reneges,
            corrupt_rx,
            conn_aborts,
            rto_stalls,
            stall_ns,
            skew_gate_pauses,
            skew_escalations,
        })
    }
}

/// Counter-wise sum (an MPTCP connection totals its subflows).
impl std::ops::AddAssign for ConnStats {
    fn add_assign(&mut self, rhs: ConnStats) {
        self.merge(rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    #[test]
    fn goodput_math() {
        let mut s = ConnStats::new();
        s.bytes_delivered = 1_250_000; // 1.25 MB in 1 ms = 10 Gbps
        let g = s.goodput_bps(SimDuration::from_millis(1));
        assert!((g - 1e10).abs() / 1e10 < 1e-9, "got {g}");
    }

    #[test]
    fn goodput_zero_elapsed() {
        let s = ConnStats::new();
        assert_eq!(s.goodput_bps(SimDuration::ZERO), 0.0);
    }
}
