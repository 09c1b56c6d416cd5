//! # rdcn — the reconfigurable data center network substrate
//!
//! A deterministic emulation of the paper's Etalon testbed (§5.1): the
//! demand-oblivious rotor [`schedule`], ToR virtual output queues
//! ([`voq`]) with ECN marking, circuit marking and runtime resizing, the
//! ToR-generated TDN-change [`notify`] latency model with the three §5.4
//! optimizations, the three chaos planes ([`faults`], [`impair`],
//! [`clock`]), analytic reference curves ([`analytic`]), and one event
//! loop ([`shard`]) that drives any [`tcp::Transport`] implementation
//! over the fabric. The loop has two doors: [`Emulator`] for the paper's
//! two-rack pair and [`ShardedEmulator`] for an N-rack fabric at any
//! worker count.

#![warn(missing_docs)]

pub mod analytic;
pub mod clock;
pub mod config;
pub mod emulator;
pub mod faults;
pub mod impair;
mod mail;
pub mod notify;
mod pool;
pub mod schedule;
pub mod shard;
pub mod statfold;
pub mod voq;

pub use clock::{
    ClockEvent, ClockInjector, ClockPlan, ClockStats, ClockVerdict, SlotEdgePolicy,
    CLOCK_STREAM_LABEL,
};
pub use config::{NetConfig, TdnParams};
pub use faults::{
    DayFate, EpsBurst, EpsVerdict, FaultInjector, FaultPlan, FaultStats, InjectedFault,
    LinkFailure, NotifyVerdict, ScheduleFreeze, FAULT_STREAM_LABEL,
};
pub use emulator::{
    DayRecord, Emulator, EndpointFactory, FlowSpec, RunResult, TimedEndpointFactory,
};
pub use impair::{
    ImpairEvent, ImpairInjector, ImpairPlan, ImpairStats, ImpairVerdict, IMPAIR_STREAM_LABEL,
};
pub use notify::{NotifyConfig, NotifyModel, NotifySample};
pub use schedule::{is_circuit, Phase, Schedule};
pub use shard::{
    MultiRackConfig, PairFlow, ShardConfig, ShardResult, ShardedEmulator, RACK_STREAM_BASE,
};
pub use statfold::{Books, LogEvent, LOG_CAP};
pub use voq::{Voq, VoqConfig, VoqItem};
