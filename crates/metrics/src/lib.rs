//! Lightweight measurement substrate for the `streambal` workspace.
//!
//! The paper reports five metric families (§V *Evaluation Metrics*):
//! workload skewness, migration cost, throughput, average plan-generation
//! time, and processing latency. This crate provides the raw instruments
//! those reports are built from:
//!
//! * [`Counter`] — lock-free tuple and byte counting; the engine divides
//!   its per-interval deltas by wall time for throughput timelines
//!   (Figs. 13–16).
//! * [`Histogram`] — a log-bucketed (HDR-flavoured) histogram for latency
//!   quantiles (Fig. 13b).
//! * [`TimeSeries`] — `(tick, value)` recording for the timeline figures
//!   (Figs. 15, 16).
//! * [`Stopwatch`] / [`OnlineStats`] — wall-time measurement and running
//!   mean/min/max for plan-generation times (Figs. 8a, 9a, 10a, 12a).

pub mod counter;
pub mod histogram;
pub mod stats;
pub mod timeseries;

pub use counter::Counter;
pub use histogram::Histogram;
pub use stats::{OnlineStats, Stopwatch};
pub use timeseries::TimeSeries;
