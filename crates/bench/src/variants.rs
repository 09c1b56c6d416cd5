//! The TCP variants under evaluation and their endpoint factories.
//!
//! §5.2 compares: single-path CUBIC and DCTCP, MPTCP with `tdm_schd`,
//! reTCP with and without dynamic buffer resizing, and TDTCP. Reno is
//! included as an extra reference. Each variant may also require network
//! support (ECN marking for DCTCP, circuit marks for reTCP, VOQ resizing
//! and prepare signals for retcpdyn, notifications for TDTCP), which
//! [`Variant::apply_net_config`] switches on.

use mptcp::{MptcpConfig, MptcpConnection};
use rdcn::NetConfig;
use simcore::SimTime;
use tcp::cc::{CcConfig, Cubic, Dctcp, Reno, ReTcp, ReTcpConfig};
use tcp::{Config, Connection, FlowId, Transport};
use tdtcp::{TdtcpConfig, TdtcpConnection, WatchdogConfig};

/// One flow's `(sender, receiver)`. `Send`, so the N-rack door can move
/// a rack's hosts to its worker thread; the two-rack door takes them as
/// plain `Box<dyn Transport>`.
pub type Endpoints = (Box<dyn Transport + Send>, Box<dyn Transport + Send>);

/// A TCP variant under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Single-path CUBIC (Linux default).
    Cubic,
    /// Single-path DCTCP (needs ECN marking at the VOQ).
    Dctcp,
    /// Single-path NewReno.
    Reno,
    /// reTCP without dynamic buffer resizing.
    ReTcp,
    /// reTCP with advance VOQ enlargement and prepare signal ("retcpdyn").
    ReTcpDyn,
    /// MPTCP with the `tdm_schd` scheduler, one subflow per TDN.
    Mptcp,
    /// Time-division TCP (the paper's contribution).
    Tdtcp,
}

/// The notification watchdog sized for `net`'s slot and guard band, so
/// lost notifications degrade goodput instead of stranding a host on a
/// stale TDN: what every TDTCP endpoint built for a network carries.
pub fn watchdog_for(net: &NetConfig) -> WatchdogConfig {
    WatchdogConfig {
        period: net.schedule.slot_len(),
        guard: net.guard_band,
    }
}

/// All variants in the paper's presentation order.
pub const ALL_VARIANTS: [Variant; 7] = [
    Variant::ReTcpDyn,
    Variant::Tdtcp,
    Variant::ReTcp,
    Variant::Dctcp,
    Variant::Cubic,
    Variant::Reno,
    Variant::Mptcp,
];

impl Variant {
    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Cubic => "cubic",
            Variant::Dctcp => "dctcp",
            Variant::Reno => "reno",
            Variant::ReTcp => "retcp",
            Variant::ReTcpDyn => "retcpdyn",
            Variant::Mptcp => "mptcp",
            Variant::Tdtcp => "tdtcp",
        }
    }

    /// Parse a label.
    pub fn parse(s: &str) -> Option<Variant> {
        ALL_VARIANTS.iter().copied().find(|v| v.label() == s)
    }

    /// Adjust the network configuration for the switch support this
    /// variant requires.
    pub fn apply_net_config(self, cfg: &mut NetConfig) {
        // ECN marking only for DCTCP (marking non-ECT traffic is a no-op,
        // but keeping thresholds off elsewhere avoids surprises).
        cfg.voq.ecn_threshold = match self {
            Variant::Dctcp => Some(8),
            _ => None,
        };
        cfg.circuit_marking = matches!(self, Variant::ReTcp | Variant::ReTcpDyn);
        cfg.retcpdyn = self == Variant::ReTcpDyn;
    }

    /// Build the endpoint factory for this variant with `bytes` per flow,
    /// tuned to `net`: TDTCP endpoints get [`watchdog_for`]`(net)`.
    pub fn factory_for(self, net: &NetConfig, bytes: u64) -> rdcn::EndpointFactory<'static> {
        self.boxed(bytes, Some(watchdog_for(net)))
    }

    /// Build the endpoint factory for this variant with `bytes` per flow.
    pub fn factory(self, bytes: u64) -> rdcn::EndpointFactory<'static> {
        self.boxed(bytes, None)
    }

    /// [`Variant::endpoints`] at `t = 0` as a two-rack door factory.
    fn boxed(self, bytes: u64, watchdog: Option<WatchdogConfig>) -> rdcn::EndpointFactory<'static> {
        Box::new(move |i| -> (Box<dyn Transport>, Box<dyn Transport>) {
            let (s, r) = self.endpoints(i, bytes, watchdog, SimTime::ZERO);
            (s, r)
        })
    }

    /// Flow `i`'s `(sender, receiver)` with `bytes` to send, the sender
    /// opening at `now`: the one place each variant's connection is
    /// built, for either engine. `watchdog` arms TDTCP's notification
    /// watchdog; the other variants have none and ignore it.
    pub fn endpoints(
        self,
        i: usize,
        bytes: u64,
        watchdog: Option<WatchdogConfig>,
        now: SimTime,
    ) -> Endpoints {
        let flow = FlowId(i as u32);
        let cc = CcConfig::default();
        match self {
            Variant::Cubic
            | Variant::Dctcp
            | Variant::Reno
            | Variant::ReTcp
            | Variant::ReTcpDyn => {
                let cfg = Config {
                    bytes_to_send: bytes,
                    ecn: self == Variant::Dctcp,
                    ..Config::default()
                };
                let mk = || -> Box<dyn tcp::CongestionControl> {
                    match self {
                        Variant::Cubic => Box::new(Cubic::new(cc)),
                        Variant::Dctcp => Box::new(Dctcp::new(cc)),
                        Variant::Reno => Box::new(Reno::new(cc)),
                        Variant::ReTcp | Variant::ReTcpDyn => {
                            Box::new(ReTcp::new(ReTcpConfig::default()))
                        }
                        _ => unreachable!(),
                    }
                };
                (
                    Box::new(Connection::connect(flow, cfg.clone(), mk(), now)),
                    Box::new(Connection::listen(flow, cfg, mk())),
                )
            }
            Variant::Mptcp => {
                let cfg = MptcpConfig {
                    bytes_to_send: bytes,
                    ..MptcpConfig::default()
                };
                let template = Cubic::new(cc);
                (
                    Box::new(MptcpConnection::connect(
                        flow,
                        cfg.clone(),
                        &template,
                        now,
                    )),
                    Box::new(MptcpConnection::listen(flow, cfg, &template)),
                )
            }
            Variant::Tdtcp => {
                let mut cfg = TdtcpConfig::default();
                cfg.tcp.bytes_to_send = bytes;
                cfg.watchdog = watchdog;
                let template = Cubic::new(cc);
                (
                    Box::new(TdtcpConnection::connect(
                        flow,
                        cfg.clone(),
                        &template,
                        now,
                    )),
                    Box::new(TdtcpConnection::listen(flow, cfg, &template)),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for v in ALL_VARIANTS {
            assert_eq!(Variant::parse(v.label()), Some(v));
        }
        assert_eq!(Variant::parse("nope"), None);
    }

    #[test]
    fn net_config_switches() {
        let mut cfg = NetConfig::paper_baseline();
        Variant::Dctcp.apply_net_config(&mut cfg);
        assert!(cfg.voq.ecn_threshold.is_some());
        assert!(!cfg.circuit_marking);
        Variant::ReTcpDyn.apply_net_config(&mut cfg);
        assert!(cfg.circuit_marking);
        assert!(cfg.retcpdyn);
        assert!(cfg.voq.ecn_threshold.is_none());
        Variant::Tdtcp.apply_net_config(&mut cfg);
        assert!(!cfg.retcpdyn);
    }
}
