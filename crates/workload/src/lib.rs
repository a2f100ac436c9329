//! Workload-trace substrate: cluster CPU-utilization time series.
//!
//! The paper evaluates H2P against three trace classes (Sec. V-C):
//!
//! * **Drastic** — Alibaba cluster trace, 1,313 servers over 12 h,
//!   "drastic and frequent fluctuations";
//! * **Irregular** — 1,000 servers for 24 h from the Google cluster
//!   trace, "relatively common, but with occasional high peaks";
//! * **Common** — another 1,000 Google servers for 24 h, "very little
//!   fluctuations".
//!
//! The original traces are a data gate (multi-GB external downloads), so
//! this crate provides *seeded synthetic generators* matched to the
//! qualitative shape the paper names for each class — a diurnal baseline
//! with per-server phase, mean-reverting (Ornstein-Uhlenbeck) noise, and
//! (for Irregular/Drastic) stochastic load bursts. The statistical
//! contract (volatility ordering, peak structure, mean band) is pinned
//! down by tests, and every generator is deterministic in its seed.
//!
//! # Examples
//!
//! ```
//! use h2p_workload::{TraceGenerator, TraceKind};
//!
//! let cluster = TraceGenerator::paper(TraceKind::Common, 42).generate();
//! assert_eq!(cluster.servers(), 1000);
//! assert_eq!(cluster.steps(), 288); // 24 h at 5-minute intervals
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)` is used as a deliberate NaN-rejecting validation idiom
// throughout (NaN fails the guard, unlike `x <= 0.0`).
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// Test code opts back into panicking asserts/unwraps (see [workspace.lints]).
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::float_cmp,
        clippy::cast_lossless,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )
)]

mod generators;
pub mod io;
pub mod jobs;
pub mod repair;
mod trace;

pub use generators::{
    BurstProfile, GeneratorProfile, ServerStart, ServerStarts, ShardStream, TraceBasis,
    TraceGenerator, TraceKind, TraceShard,
};
pub use jobs::{JobRecord, JobTrace};
pub use repair::{RepairPolicy, RepairReport};
pub use trace::{Aggregate, ClusterTrace, Trace};

use core::fmt;

/// Errors from trace construction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WorkloadError {
    /// A trace needs at least one sample.
    EmptyTrace,
    /// A sample was outside `\[0, 1\]` or NaN.
    InvalidSample {
        /// Index of the bad sample.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The sampling interval must be strictly positive.
    NonPositiveInterval {
        /// The offending value in seconds.
        seconds: f64,
    },
    /// The sampling interval must be finite.
    NonFiniteInterval {
        /// The offending value in seconds.
        seconds: f64,
    },
    /// Cluster members disagreed in length or interval.
    InconsistentCluster {
        /// Index of the first offending member.
        index: usize,
    },
    /// A job record violated the job-trace invariants (non-finite or
    /// negative arrival, non-positive duration).
    InvalidJob {
        /// Index of the bad record.
        index: usize,
        /// Which field was bad.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::EmptyTrace => write!(f, "trace has no samples"),
            WorkloadError::InvalidSample { index, value } => {
                write!(f, "sample {index} = {value} outside [0, 1]")
            }
            WorkloadError::NonPositiveInterval { seconds } => {
                write!(f, "interval {seconds} s is not positive")
            }
            WorkloadError::NonFiniteInterval { seconds } => {
                write!(f, "interval {seconds} s is not finite")
            }
            WorkloadError::InconsistentCluster { index } => {
                write!(f, "cluster member {index} disagrees in length or interval")
            }
            WorkloadError::InvalidJob {
                index,
                field,
                value,
            } => {
                write!(f, "job record {index}: {field} = {value} is invalid")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}
