//! Closed-loop thermal-aware job placement.
//!
//! Every earlier layer treats utilization as *exogenous*: a trace is
//! generated (or loaded) and the engine merely reacts. This crate
//! closes the loop. A [`PlacementEngine`] walks the control intervals
//! of a run, admits arriving [`Job`]s, asks a [`PlacementPolicy`] to
//! map each one onto a server — seeing the cluster's *previous-step*
//! thermal state — and synthesizes the per-server utilization column
//! the simulation engine consumes. Placement can therefore trade TEG
//! harvest, cooling energy, and throttle risk against each other,
//! which no load-oblivious trace ever could.
//!
//! # Determinism contract
//!
//! The placement engine is strictly sequential and its decisions
//! derive only from **prior-step** state (thermals, settings, safety
//! caps) plus the demand already committed *this* step, applied in a
//! deterministic admission order (queued jobs first, then arrivals by
//! `(arrival step, job id)`). The synthesized trace is therefore a
//! pure function of the job set, the policies, and the simulator
//! configuration — and because the engine *materializes* the trace
//! before the simulation engine consumes it, bit-identity across
//! worker counts and chunk plans follows from the existing engine
//! contracts
//! (`crates/jobs/tests/jobs_transparency.rs` pins this down).
//!
//! # Examples
//!
//! ```
//! use h2p_core::simulation::Simulator;
//! use h2p_jobs::{synthetic_jobs, PlacementEngine, RoundRobin};
//! use h2p_sched::Original;
//! use h2p_workload::TraceKind;
//!
//! let sim = Simulator::paper_default()?;
//! let engine = PlacementEngine::new(&sim, &Original, 8, 12)?;
//! let jobs = synthetic_jobs(TraceKind::Common, 7, 8, 12, engine.interval());
//! let run = engine.place(&jobs, &mut RoundRobin::new())?;
//! let result = sim.run(&run.trace, &Original)?;
//! assert_eq!(result.steps().len(), 12);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)` is used as a deliberate NaN-rejecting validation idiom
// throughout (NaN fails the guard, unlike `x <= 0.0`).
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// Lock-order manifest (h2p-lint L10): this crate takes no locks. The
// placement engine is single-threaded by contract — determinism comes
// from sequential admission order, so there is nothing to lock.
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

mod engine;
mod job;
mod policy;
mod synth;

pub use engine::{
    ClusterView, JobsTelemetry, PlacementEngine, PlacementOutcome, PlacementRun, ServerState,
};
pub use job::{jobs_from_trace, Job};
pub use policy::{CoolestFirst, HarvestAware, PlacementPolicy, PlacementPolicyKind, RoundRobin};
pub use synth::synthetic_jobs;

use core::fmt;

/// Errors from job construction and placement.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JobsError {
    /// A job field violated its invariant (non-finite or negative
    /// arrival, non-positive duration).
    InvalidJob {
        /// The offending job's id.
        id: u64,
        /// Which field was bad.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The placement engine needs at least one server and one step.
    EmptyCluster,
    /// The control interval must be finite and positive.
    InvalidInterval {
        /// The offending interval, seconds.
        seconds: f64,
    },
    /// The cooling optimizer could not serve a control utilization
    /// (cannot happen on the paper grid).
    NoFeasibleSetting {
        /// The control utilization that could not be served.
        control_utilization: f64,
    },
    /// A lookup-space evaluation failed while mirroring the engine's
    /// thermal step.
    Thermal(h2p_server::ServerError),
    /// The cooling optimizer could not be constructed for a cold-side
    /// temperature.
    Cooling(h2p_cooling::CoolingError),
    /// Trace assembly from the synthesized columns failed.
    Trace(h2p_workload::WorkloadError),
}

impl fmt::Display for JobsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobsError::InvalidJob { id, field, value } => {
                write!(f, "job {id}: {field} = {value} is invalid")
            }
            JobsError::EmptyCluster => {
                write!(f, "placement needs at least one server and one step")
            }
            JobsError::InvalidInterval { seconds } => {
                write!(f, "control interval {seconds} s is not finite and positive")
            }
            JobsError::NoFeasibleSetting {
                control_utilization,
            } => write!(
                f,
                "no feasible cooling setting at control utilization {control_utilization}"
            ),
            JobsError::Thermal(e) => write!(f, "thermal evaluation failed: {e}"),
            JobsError::Cooling(e) => write!(f, "cooling optimizer construction failed: {e}"),
            JobsError::Trace(e) => write!(f, "synthesized trace invalid: {e}"),
        }
    }
}

impl std::error::Error for JobsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobsError::Thermal(e) => Some(e),
            JobsError::Cooling(e) => Some(e),
            JobsError::Trace(e) => Some(e),
            _ => None,
        }
    }
}

impl From<h2p_server::ServerError> for JobsError {
    fn from(e: h2p_server::ServerError) -> Self {
        JobsError::Thermal(e)
    }
}

impl From<h2p_cooling::CoolingError> for JobsError {
    fn from(e: h2p_cooling::CoolingError) -> Self {
        JobsError::Cooling(e)
    }
}

impl From<h2p_workload::WorkloadError> for JobsError {
    fn from(e: h2p_workload::WorkloadError) -> Self {
        JobsError::Trace(e)
    }
}
