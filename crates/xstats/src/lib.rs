//! Measurement statistics used throughout the reproduction.
//!
//! This crate collects the numeric machinery the paper's evaluation relies
//! on: percentile summaries with linear interpolation (Figs. 1, 12–14),
//! empirical CDFs (Fig. 14a), histograms (headroom distribution, §4.2),
//! distribution skewness (§3.1 footnote), least-squares line/parabola
//! fitting with `R²` for the tail-latency-vs-throughput knee (Fig. 15),
//! and bounded-memory streaming quantile sketches ([`sketch`]) for
//! million-request figure runs where collecting every sample is not an
//! option.
//!
//! Everything is plain, allocation-light `f64` math with no external
//! dependencies, so the simulator crates can use it freely from hot paths.

#![forbid(unsafe_code)]

pub mod cdf;
pub mod fit;
pub mod hist;
pub mod percentile;
pub mod report;
pub mod sketch;
pub mod slo;

pub use cdf::Cdf;
pub use fit::{piecewise_knee_fit, LinearFit, PiecewiseFit, QuadraticFit};
pub use hist::Histogram;
pub use percentile::Summary;
pub use sketch::LogHist;
pub use slo::{
    slo_violation_ns, time_above_threshold, try_slo_violation_ns, try_time_above_threshold,
    try_violation_minutes, violation_minutes,
};
