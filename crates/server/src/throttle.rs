//! Emergency workload throttling (the software backstop).
//!
//! The paper's related work (CoolProvision \[34\]) handles cooling
//! under-provisioning by *throttling* — trading performance for
//! safety. In the H2P stack the escalation ladder on a hot spot is:
//! cooling setting → TEC boost → throttle. This module implements the
//! last rung: the largest utilization a server may run at a given
//! cooling setting without exceeding a temperature limit.

use crate::lookup::LookupSpace;
use crate::model::ServerModel;
use crate::ServerError;
use h2p_units::{Celsius, LitersPerHour, Utilization};

/// Outcome of a throttling decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThrottleDecision {
    /// The admitted utilization (≤ requested).
    pub admitted: Utilization,
    /// Whether the request was actually cut.
    pub throttled: bool,
    /// Work cut, as a fraction of the request (0 when not throttled).
    pub performance_loss: f64,
}

/// Emergency throttle keeping the die at or below a temperature limit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThrottleController {
    limit: Celsius,
}

impl ThrottleController {
    /// Creates a controller with the given die-temperature limit.
    #[must_use]
    pub fn new(limit: Celsius) -> Self {
        ThrottleController { limit }
    }

    /// A controller pinned at the E5-2650 V3 maximum operating
    /// temperature — the hard envelope, beyond even `T_safe`.
    #[must_use]
    pub fn at_max_operating() -> Self {
        ThrottleController {
            limit: Celsius::new(78.9),
        }
    }

    /// The temperature limit.
    #[must_use]
    pub fn limit(&self) -> Celsius {
        self.limit
    }

    /// The largest utilization the server can run under `(flow, inlet)`
    /// without exceeding the limit (bisection on the monotone
    /// temperature-vs-utilization curve). Returns `Utilization::FULL`
    /// when even full load is safe, `Utilization::IDLE` when nothing is.
    ///
    /// # Errors
    ///
    /// Propagates [`ServerModel::operating_point`] failures.
    pub fn max_safe_utilization(
        &self,
        model: &ServerModel,
        flow: LitersPerHour,
        inlet: Celsius,
    ) -> Result<Utilization, ServerError> {
        self.max_safe(|u| Ok(model.operating_point(u, flow, inlet)?.cpu_temperature))
    }

    /// [`max_safe_utilization`](Self::max_safe_utilization) evaluated
    /// against an interpolated [`LookupSpace`] instead of the raw
    /// server model — the variant the fault-injected simulation engine
    /// uses, so that its throttle decisions agree *exactly* with the
    /// die temperatures the engine itself predicts (the engine reads
    /// the space, not the model; mixing the two would let a
    /// model-admitted load register as an interpolation-space thermal
    /// violation).
    ///
    /// # Errors
    ///
    /// Propagates [`LookupSpace::cpu_temperature`] failures (the
    /// `(flow, inlet)` operating point must lie on the sampled grid).
    pub fn max_safe_utilization_in_space(
        &self,
        space: &LookupSpace,
        flow: LitersPerHour,
        inlet: Celsius,
    ) -> Result<Utilization, ServerError> {
        self.max_safe(|u| space.cpu_temperature(u, flow, inlet))
    }

    /// The largest utilization whose die temperature, by `die_at`, stays
    /// within the limit: `FULL` when full load is safe, `IDLE` when
    /// idle is not, otherwise 60 bisection steps on `die_at`, which
    /// must rise with utilization.
    fn max_safe(
        &self,
        die_at: impl Fn(Utilization) -> Result<Celsius, ServerError>,
    ) -> Result<Utilization, ServerError> {
        if die_at(Utilization::FULL)? <= self.limit {
            return Ok(Utilization::FULL);
        }
        if die_at(Utilization::IDLE)? > self.limit {
            return Ok(Utilization::IDLE);
        }
        let mut lo = 0.0_f64;
        let mut hi = 1.0_f64;
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if die_at(Utilization::saturating(mid))? <= self.limit {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(Utilization::saturating(lo))
    }

    /// Decides how much of a requested load to admit.
    ///
    /// # Errors
    ///
    /// Propagates [`ServerModel::operating_point`] failures.
    pub fn throttle(
        &self,
        model: &ServerModel,
        requested: Utilization,
        flow: LitersPerHour,
        inlet: Celsius,
    ) -> Result<ThrottleDecision, ServerError> {
        let cap = self.max_safe_utilization(model, flow, inlet)?;
        if requested <= cap {
            Ok(ThrottleDecision {
                admitted: requested,
                throttled: false,
                performance_loss: 0.0,
            })
        } else {
            let loss = if requested.value() > 0.0 {
                1.0 - cap.value() / requested.value()
            } else {
                0.0
            };
            Ok(ThrottleDecision {
                admitted: cap,
                throttled: true,
                performance_loss: loss,
            })
        }
    }
}

impl Default for ThrottleController {
    fn default() -> Self {
        ThrottleController::at_max_operating()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ServerModel;

    fn model() -> ServerModel {
        ServerModel::paper_default()
    }

    fn u(x: f64) -> Utilization {
        Utilization::new(x).unwrap()
    }

    #[test]
    fn warm_but_safe_water_never_throttles() {
        // 45 °C water: full load stays under 78.9 °C (Sec. II-B).
        let c = ThrottleController::at_max_operating();
        let d = c
            .throttle(
                &model(),
                Utilization::FULL,
                LitersPerHour::new(20.0),
                Celsius::new(45.0),
            )
            .unwrap();
        assert!(!d.throttled);
        assert_eq!(d.admitted, Utilization::FULL);
        assert_eq!(d.performance_loss, 0.0);
    }

    #[test]
    fn hot_water_at_high_load_throttles() {
        // 55 °C water at full load exceeds the limit; the throttle cuts
        // to the binding utilization.
        let c = ThrottleController::at_max_operating();
        let m = model();
        let flow = LitersPerHour::new(20.0);
        let inlet = Celsius::new(55.0);
        let d = c.throttle(&m, Utilization::FULL, flow, inlet).unwrap();
        assert!(d.throttled);
        assert!(d.admitted < Utilization::FULL);
        assert!(d.performance_loss > 0.0 && d.performance_loss < 1.0);
        // The admitted load really is safe, and nearly tight.
        let op = m.operating_point(d.admitted, flow, inlet).unwrap();
        assert!(op.cpu_temperature <= c.limit());
        let op_more = m
            .operating_point(u((d.admitted.value() + 0.02).min(1.0)), flow, inlet)
            .unwrap();
        assert!(op_more.cpu_temperature > c.limit());
    }

    #[test]
    fn cap_monotone_in_inlet_temperature() {
        let c = ThrottleController::at_max_operating();
        let m = model();
        let flow = LitersPerHour::new(20.0);
        let cool = c
            .max_safe_utilization(&m, flow, Celsius::new(45.0))
            .unwrap();
        let warm = c
            .max_safe_utilization(&m, flow, Celsius::new(58.0))
            .unwrap();
        assert!(cool >= warm);
    }

    #[test]
    fn higher_flow_raises_the_cap() {
        let c = ThrottleController::new(Celsius::new(70.0));
        let m = model();
        let inlet = Celsius::new(52.0);
        let slow = c
            .max_safe_utilization(&m, LitersPerHour::new(20.0), inlet)
            .unwrap();
        let fast = c
            .max_safe_utilization(&m, LitersPerHour::new(200.0), inlet)
            .unwrap();
        assert!(fast >= slow);
    }

    #[test]
    fn space_throttle_agrees_with_interpolated_die() {
        // The space-backed cap must be tight against the *space's* die
        // prediction: at the cap the interpolated die is at or below the
        // limit, a nudge above it is not.
        let m = model();
        let space = crate::lookup::LookupSpace::paper_grid(&m).unwrap();
        let c = ThrottleController::new(Celsius::new(70.0));
        let flow = LitersPerHour::new(20.0);
        let inlet = Celsius::new(54.0);
        let cap = c
            .max_safe_utilization_in_space(&space, flow, inlet)
            .unwrap();
        assert!(cap > Utilization::IDLE && cap < Utilization::FULL);
        let at_cap = space.cpu_temperature(cap, flow, inlet).unwrap();
        assert!(at_cap <= c.limit());
        let above = space
            .cpu_temperature(u((cap.value() + 0.01).min(1.0)), flow, inlet)
            .unwrap();
        assert!(above > c.limit());
    }

    #[test]
    fn space_throttle_extremes() {
        let m = model();
        let space = crate::lookup::LookupSpace::paper_grid(&m).unwrap();
        // Cool water: full load safe.
        let c = ThrottleController::at_max_operating();
        let cap = c
            .max_safe_utilization_in_space(&space, LitersPerHour::new(250.0), Celsius::new(25.0))
            .unwrap();
        assert_eq!(cap, Utilization::FULL);
        // Impossible limit: idle.
        let strict = ThrottleController::new(Celsius::new(20.0));
        let cap = strict
            .max_safe_utilization_in_space(&space, LitersPerHour::new(20.0), Celsius::new(45.0))
            .unwrap();
        assert_eq!(cap, Utilization::IDLE);
        // Off-grid operating point propagates the typed error.
        assert!(c
            .max_safe_utilization_in_space(&space, LitersPerHour::new(5.0), Celsius::new(45.0))
            .is_err());
    }

    #[test]
    fn impossible_limit_throttles_to_idle() {
        // A limit below what even an idle die reaches.
        let c = ThrottleController::new(Celsius::new(30.0));
        let d = c
            .throttle(
                &model(),
                u(0.5),
                LitersPerHour::new(20.0),
                Celsius::new(45.0),
            )
            .unwrap();
        assert_eq!(d.admitted, Utilization::IDLE);
        assert!(d.throttled);
        assert_eq!(d.performance_loss, 1.0);
    }
}
