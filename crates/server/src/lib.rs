//! CPU power/thermal models and the measurement lookup space.
//!
//! This crate is the "virtual Xeon E5-2650 V3": it reproduces the
//! behaviours the paper measured on its prototype —
//!
//! * [`CpuPowerModel`] — package power versus utilization (Eq. 20),
//!   with the temperature-dependent leakage term that explains why
//!   CPU temperature rises *faster* than coolant temperature at low flow
//!   (the k ∈ [1, 1.3] slopes of Fig. 11);
//! * [`PowersaveGovernor`] — the clock behaviour of Fig. 10 (frequency
//!   settles at ≈ 2.5 GHz beyond 50 % load under the powersave
//!   governor);
//! * [`ServerModel`] — the coupled steady state of die temperature,
//!   package power and coolant outlet temperature for a cooling setting
//!   `(u, f, T_in)` (Figs. 9-11);
//! * [`LookupSpace`] — the 3-D discrete measurement space of Fig. 12
//!   with trilinear interpolation, exact two-plane reads at `(f, T_in)`
//!   lattice vertices, and the iso-temperature slicing that the
//!   cooling-setting optimizer (Sec. V-B) searches;
//! * [`throttle`] — the emergency software backstop: the largest load a
//!   cooling setting can safely admit (CoolProvision-style).
//!
//! # Examples
//!
//! ```
//! use h2p_server::ServerModel;
//! use h2p_units::{Celsius, LitersPerHour, Utilization};
//!
//! let server = ServerModel::paper_default();
//! let op = server.operating_point(
//!     Utilization::new(0.3)?,
//!     LitersPerHour::new(20.0),
//!     Celsius::new(45.0),
//! )?;
//! assert!(op.cpu_temperature > Celsius::new(45.0));
//! assert!(op.outlet > Celsius::new(45.0));
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

mod governor;
pub mod lookup;
mod model;
mod power;
pub mod throttle;

pub use governor::PowersaveGovernor;
pub use lookup::{BandIndex, CoolingSetting, LatticePoint, LookupSpace, SpacePoint, UPlane};
pub use model::{CpuSpec, OperatingPoint, ServerModel};
pub use power::CpuPowerModel;
pub use throttle::{ThrottleController, ThrottleDecision};

use core::fmt;

/// Errors from the server models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServerError {
    /// A parameter that must be strictly positive was not.
    NonPositiveParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// The leakage feedback loop is unstable for this cooling setting
    /// (γ·R ≥ 1): the model rejects it instead of predicting thermal
    /// runaway temperatures.
    ThermalRunaway {
        /// The loop gain γ·(R + m/2) that reached or exceeded one.
        loop_gain: f64,
    },
    /// A lookup-grid axis had fewer than two samples, was unsorted, or
    /// held a non-finite sample or span.
    BadGridAxis {
        /// Which axis was malformed.
        axis: &'static str,
    },
    /// A measured die temperature along a `(u, f)` row of the lookup
    /// grid was non-finite or fell as the inlet rose; the safety-band
    /// search needs every row to be finite and never fall.
    NonMonotoneInlet {
        /// The row's utilization sample.
        u: f64,
        /// The row's flow sample (L/H).
        flow: f64,
    },
    /// A query fell outside the lookup grid.
    OutOfGrid {
        /// Which axis was out of range.
        axis: &'static str,
        /// The query value.
        value: f64,
    },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::NonPositiveParameter { name, value } => {
                write!(f, "parameter {name} must be positive, got {value}")
            }
            ServerError::ThermalRunaway { loop_gain } => {
                write!(f, "leakage loop gain {loop_gain} >= 1: thermal runaway")
            }
            ServerError::BadGridAxis { axis } => {
                write!(f, "grid axis {axis} needs >= 2 finite, sorted samples")
            }
            ServerError::NonMonotoneInlet { u, flow } => write!(
                f,
                "die temperature at u = {u}, f = {flow} L/H is non-finite or falls as inlet rises"
            ),
            ServerError::OutOfGrid { axis, value } => {
                write!(f, "query {value} outside grid axis {axis}")
            }
        }
    }
}

impl std::error::Error for ServerError {}
