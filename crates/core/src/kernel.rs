//! A tolerance type that selects nothing (DESIGN.md §13).
//!
//! The engine evaluates every circulation-step: the change-detection
//! kernel that could hold a circulation's last decision is gone, and
//! [`Simulator::with_kernel_tolerance`] returns the simulator
//! unchanged. [`KernelTolerance`] stays only because `h2pbench`, its
//! one caller, still names it; ROADMAP item 1 deletes both.

use crate::H2pError;

#[cfg(doc)]
use crate::simulation::Simulator;

/// Selects nothing: a validated tolerance that
/// [`Simulator::with_kernel_tolerance`] accepts and ignores. Its only
/// caller is `h2pbench`; ROADMAP item 1 deletes it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTolerance(f64);

impl KernelTolerance {
    /// The zero tolerance.
    #[must_use]
    pub fn exact() -> Self {
        KernelTolerance(0.0)
    }

    /// A tolerance of `value`.
    ///
    /// # Errors
    ///
    /// Returns [`H2pError::InvalidTolerance`] when `value` is negative
    /// or non-finite.
    pub fn uniform(value: f64) -> Result<Self, H2pError> {
        if !(value >= 0.0) || !value.is_finite() {
            return Err(H2pError::InvalidTolerance {
                name: "value",
                value,
            });
        }
        Ok(KernelTolerance(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_validation() {
        assert_eq!(
            KernelTolerance::exact(),
            KernelTolerance::uniform(0.0).unwrap()
        );
        for bad in [-0.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                KernelTolerance::uniform(bad),
                Err(H2pError::InvalidTolerance { name: "value", .. })
            ));
        }
    }
}
