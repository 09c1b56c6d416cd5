//! One module per table/figure of the paper's evaluation. Each returns a
//! structured result (so integration tests can assert on shapes) and
//! knows how to print itself in the row/series form the paper reports.

pub mod ablation;
pub mod faultsweep;
pub mod fig10;
pub mod fig11;
pub mod multirack;
pub mod notify;
pub mod sensitivity;
pub mod seqgraph;
pub mod shortflows;
pub mod table1;
pub mod tails;
pub mod voqfig;

use crate::variants::Variant;
use rdcn::NetConfig;
use simcore::SimTime;

/// One figure of a plot kind: its name, the network it runs on and the
/// variants it plots ([`seqgraph::FIGURES`], [`voqfig::FIGURES`]).
pub type Figure = (&'static str, fn() -> NetConfig, &'static [Variant]);

/// The six variants the all-variant figures plot, in legend order (Reno
/// is an extra reference the paper does not draw).
pub const SIX_VARIANTS: [Variant; 6] = [
    Variant::ReTcpDyn,
    Variant::Tdtcp,
    Variant::ReTcp,
    Variant::Dctcp,
    Variant::Cubic,
    Variant::Mptcp,
];

/// The figure named `name` in `table`.
pub fn figure(table: &[Figure], name: &str) -> Option<Figure> {
    table.iter().copied().find(|f| f.0 == name)
}

/// Standard full-quality horizon for figure-grade runs.
pub fn default_horizon() -> SimTime {
    SimTime::from_millis(60)
}

/// Warmup excluded from steady-state measurements.
pub fn default_warmup() -> SimTime {
    SimTime::from_millis(10)
}
