//! Cooling plant models and the H2P cooling-setting optimizer.
//!
//! * [`Chiller`] — vapor-compression chiller with a coefficient of
//!   performance, implementing the paper's Eq. 10 energy model;
//! * [`CoolingTower`] — evaporative tower (approach-temperature model),
//!   the component that lets warm-water datacenters avoid the chiller;
//! * [`hybrid`] — the TEC hot-spot controller of the hybrid architecture
//!   H2P builds on (reference \[24\]);
//! * [`plant`] — whole-plant energy accounting (tower + chiller + FWS
//!   pumping) behind the PUE/ERE reporting;
//! * [`CoolingOptimizer`] — the paper's Sec. V-B procedure: every
//!   interval, slice the measurement lookup space at the control
//!   utilization, keep the settings whose die temperature sits within
//!   the safety band, and pick the one that maximizes TEG output net of
//!   pump power.
//!
//! # Examples
//!
//! ```
//! use h2p_cooling::CoolingOptimizer;
//! use h2p_server::{LookupSpace, ServerModel};
//! use h2p_units::{Celsius, Utilization};
//!
//! let space = LookupSpace::paper_grid(&ServerModel::paper_default())?;
//! let optimizer = CoolingOptimizer::paper_default(&space);
//! let choice = optimizer.optimize(Utilization::new(0.2)?).expect("feasible");
//! assert!(choice.teg_power.value() > 3.0);
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

mod chiller;
pub mod hybrid;
mod optimizer;
pub mod plant;
mod tower;

pub use chiller::Chiller;
pub use optimizer::{
    CoolingOptimizer, OptimizedSetting, OptimizerTables, OptimizerTelemetry, DECISIONS_COUNTER,
    FALLBACK_SCANS_COUNTER, SCORE_EVALS_COUNTER,
};
pub use plant::{CoolingPlant, PlantLoad, PlantPower};
pub use tower::CoolingTower;

use core::fmt;

/// Errors from the cooling models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoolingError {
    /// A parameter that must be strictly positive was not.
    NonPositiveParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A parameter that must be finite was not.
    NonFiniteParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
}

impl fmt::Display for CoolingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoolingError::NonPositiveParameter { name, value } => {
                write!(f, "parameter {name} must be positive, got {value}")
            }
            CoolingError::NonFiniteParameter { name, value } => {
                write!(f, "parameter {name} must be finite, got {value}")
            }
        }
    }
}

impl std::error::Error for CoolingError {}
