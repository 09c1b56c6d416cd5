//! # tdtcp — Time-division TCP (SIGCOMM 2022)
//!
//! The paper's primary contribution: a TCP variant for reconfigurable
//! data center networks that multiplexes a connection across independent
//! per-path congestion states over *time*, the way MPTCP multiplexes
//! subflows over space — except only one "subflow" is ever active, and
//! all of them share a single sequence number space.
//!
//! A TDTCP endpoint is a [`tcp::Connection`] over one [`TdnState`] per
//! TDN (§3.1; `tcp::Path` under the paper's name) running `tcp`'s
//! [`tcp::TimeDivision`] policy: the machine implements every rule that
//! merely indexes a state set (§3.3–§4.4), the policy negotiates, tags,
//! applies TDN notifications (§3.2, §4.2) and hardens against missed
//! ones. This crate keeps the paper's [`TdtcpConfig`] — with an ablation
//! switch for every design decision, so the benches can quantify each —
//! and [`TdtcpConnection`], the constructors that build the endpoint.

#![warn(missing_docs)]

use simcore::SimTime;
use tcp::cc::CongestionControl;
use tcp::rtt::RttEstimator;
use tcp::{Connection, FlowId, TimeDivision};

pub use tcp::{Path as TdnState, WatchdogConfig};

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
        TdtcpConfig {
            tcp: tcp::Config {
                pacing: true,
                ..tcp::Config::default()
            },
            num_tdns: 2,
            relaxed_reordering: true,
            pessimistic_rto: true,
            per_tdn_state: true,
            watchdog: None,
        }
    }
}

/// The constructors of a TDTCP endpoint. The endpoint itself is a
/// [`tcp::Connection`] running the [`TimeDivision`] policy; this type only
/// names where it is built.
pub enum TdtcpConnection {}

impl TdtcpConnection {
    /// Create the initiating endpoint; queues a SYN carrying `TD_CAPABLE`.
    pub fn connect(
        flow: FlowId,
        cfg: TdtcpConfig,
        cc_template: &dyn CongestionControl,
        now: SimTime,
    ) -> Connection {
        Self::connect_with_ccas(flow, cfg, vec![cc_template.clone_box()], now)
    }

    /// Create the passive endpoint (bulk sink).
    pub fn listen(flow: FlowId, cfg: TdtcpConfig, cc: &dyn CongestionControl) -> Connection {
        endpoint(cfg, vec![cc.clone_box()], |tcp, paths| {
            Connection::listen_paths(flow, tcp, paths)
        })
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
    ) -> Connection {
        endpoint(cfg, ccas, |tcp, paths| {
            Connection::connect_paths(flow, tcp, paths, now)
        })
    }
}

/// The endpoint `open` builds over one state set per TDN (or a single one
/// under the `per_tdn_state` ablation) — `ccas[i]` for TDN `i`, fresh
/// instances of `ccas[0]` beyond the list — running the policy `cfg`
/// describes.
fn endpoint(
    cfg: TdtcpConfig,
    mut ccas: Vec<Box<dyn CongestionControl>>,
    open: impl FnOnce(tcp::Config, Vec<TdnState>) -> Connection,
) -> Connection {
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
    let rtt = cfg.tcp.rtt;
    let paths = ccas
        .into_iter()
        .map(|cc| TdnState::new(cc, RttEstimator::new(rtt)))
        .collect();
    let policy = TimeDivision::new(cfg.num_tdns, cfg.per_tdn_state, cfg.watchdog);
    open(cfg.tcp, paths).with_time_division(policy, cfg.relaxed_reordering, cfg.pessimistic_rto)
}
