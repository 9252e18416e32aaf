//! # pi2-stats — measurement post-processing
//!
//! The paper's evaluation reports means, P1/P25/P99 percentiles, CDFs,
//! utilization summaries and rate-balance ratios. This crate provides the
//! small, well-tested toolkit the experiment runners use to turn the raw
//! samples collected by `pi2-netsim`'s monitor into those figures.

pub mod cdf;
pub mod column;
pub mod series;
pub mod summary;
pub mod table;

pub use cdf::Cdf;
pub use column::RunColumn;
pub use series::{excursions_above, peak_in, settle_time, time_above};
pub use summary::{
    jain_fairness, mean, percentile, percentile_sorted, stddev, variance, variance_from_moments,
    F32Column, Sample, Summary,
};
pub use table::{format_table, Align};
