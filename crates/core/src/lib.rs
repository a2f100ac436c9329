//! Heat to Power (H2P): thermal energy harvesting and recycling for warm
//! water-cooled datacenters.
//!
//! This crate assembles the substrates (`h2p-thermal`, `h2p-teg`,
//! `h2p-server`, `h2p-workload`, `h2p-cooling`, `h2p-sched`, …) into the
//! paper's system:
//!
//! * [`prototype`] — the *virtual prototype*: reproductions of every
//!   measurement campaign of Sec. IV (Figs. 3, 7, 8, 9, 10, 11) run
//!   against the simulated hardware;
//! * [`simulation`] — the trace-driven evaluation engine of Sec. V-C
//!   (Figs. 14, 15): circulations of servers, per-interval cooling
//!   optimization solved fresh for every circulation-step, scheduling
//!   policies, TEG generation accounting;
//! * [`circulation`] — the analytical water-circulation design study of
//!   Sec. V-A (order statistics → chiller energy → cost versus servers
//!   per circulation);
//! * [`fleet`] — the chunk plans of the streaming fleet-scale runner
//!   (`Simulator::run_fleet`);
//! * [`kernel`] — a tolerance type that selects nothing, kept only for
//!   `h2pbench` (ROADMAP item 1 deletes it);
//! * [`faulted`] — fault injection as a per-circulation evaluation
//!   decorator (`Simulator::run_with_faults`);
//! * [`metrics`] — PRE (Eq. 19), ERE and series summaries;
//! * [`datacenter`] — the one-stop facade: simulator + TCO + hydraulic
//!   feasibility, consolidated into an annual report;
//! * [`facility`] — the FWS/CDU coupling of Fig. 1: which TCS
//!   set-points the exchanger can hold chiller-free.
//!
//! # Quickstart
//!
//! ```
//! use h2p_core::simulation::Simulator;
//! use h2p_sched::LoadBalance;
//! use h2p_workload::{TraceGenerator, TraceKind};
//!
//! let cluster = TraceGenerator::paper(TraceKind::Common, 1)
//!     .with_servers(40)
//!     .with_steps(24)
//!     .generate();
//! let sim = Simulator::paper_default()?;
//! let result = sim.run(&cluster, &LoadBalance)?;
//! assert!(result.average_teg_power()?.value() > 2.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
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

pub mod circulation;
pub mod datacenter;
pub mod facility;
pub mod faulted;
pub mod fleet;
pub mod kernel;
pub mod metrics;
pub mod prototype;
pub mod simulation;

use core::fmt;

/// Errors from the H2P system layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum H2pError {
    /// A parameter that must be strictly positive was not.
    NonPositiveParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// Building or querying the lookup space failed.
    Server(h2p_server::ServerError),
    /// A TEG device or module was misconfigured.
    Teg(h2p_teg::TegError),
    /// A hydraulic component (pump, circulation) was misconfigured.
    Hydraulics(h2p_hydraulics::HydraulicsError),
    /// A cooling component was misconfigured.
    Cooling(h2p_cooling::CoolingError),
    /// A utilization outside `[0, 1]` was supplied.
    Utilization(h2p_units::UtilizationRangeError),
    /// A statistical fit over campaign data failed.
    Stats(h2p_stats::StatsError),
    /// The cooling optimizer found no feasible setting.
    NoFeasibleSetting {
        /// The control utilization that could not be served.
        control_utilization: f64,
    },
    /// An aggregate (partial PUE/ERE) was requested over a simulation
    /// run that recorded no IT power.
    EmptyRun,
    /// A [`kernel::KernelTolerance`] was negative or non-finite.
    InvalidTolerance {
        /// Name of the offending parameter.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A fleet run's chunk plan disagreed with the trace generator or
    /// the simulator configuration (server count or circulation size).
    FleetPlanMismatch {
        /// Which quantity disagreed.
        what: &'static str,
        /// The value the run requires.
        expected: usize,
        /// The value the plan carries.
        got: usize,
    },
}

impl fmt::Display for H2pError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            H2pError::NonPositiveParameter { name, value } => {
                write!(f, "parameter {name} must be positive, got {value}")
            }
            H2pError::Server(e) => write!(f, "server model error: {e}"),
            H2pError::Teg(e) => write!(f, "TEG model error: {e}"),
            H2pError::Hydraulics(e) => write!(f, "hydraulics model error: {e}"),
            H2pError::Cooling(e) => write!(f, "cooling model error: {e}"),
            H2pError::Utilization(e) => write!(f, "utilization error: {e}"),
            H2pError::Stats(e) => write!(f, "statistics error: {e}"),
            H2pError::NoFeasibleSetting {
                control_utilization,
            } => write!(
                f,
                "no feasible cooling setting at control utilization {control_utilization}"
            ),
            H2pError::EmptyRun => write!(
                f,
                "simulation run recorded no IT power; partial PUE/ERE are undefined"
            ),
            H2pError::InvalidTolerance { name, value } => {
                write!(
                    f,
                    "kernel tolerance {name} must be finite and non-negative, got {value}"
                )
            }
            H2pError::FleetPlanMismatch {
                what,
                expected,
                got,
            } => {
                write!(
                    f,
                    "fleet chunk plan disagrees on {what}: run requires {expected}, plan has {got}"
                )
            }
        }
    }
}

impl std::error::Error for H2pError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            H2pError::Server(e) => Some(e),
            H2pError::Teg(e) => Some(e),
            H2pError::Hydraulics(e) => Some(e),
            H2pError::Cooling(e) => Some(e),
            H2pError::Utilization(e) => Some(e),
            H2pError::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<h2p_server::ServerError> for H2pError {
    fn from(e: h2p_server::ServerError) -> Self {
        H2pError::Server(e)
    }
}

impl From<h2p_teg::TegError> for H2pError {
    fn from(e: h2p_teg::TegError) -> Self {
        H2pError::Teg(e)
    }
}

impl From<h2p_hydraulics::HydraulicsError> for H2pError {
    fn from(e: h2p_hydraulics::HydraulicsError) -> Self {
        H2pError::Hydraulics(e)
    }
}

impl From<h2p_cooling::CoolingError> for H2pError {
    fn from(e: h2p_cooling::CoolingError) -> Self {
        H2pError::Cooling(e)
    }
}

impl From<h2p_units::UtilizationRangeError> for H2pError {
    fn from(e: h2p_units::UtilizationRangeError) -> Self {
        H2pError::Utilization(e)
    }
}

impl From<h2p_stats::StatsError> for H2pError {
    fn from(e: h2p_stats::StatsError) -> Self {
        H2pError::Stats(e)
    }
}
