//! The cooling-setting optimizer (paper Sec. V-B1, Steps 1-3).
//!
//! Every control interval the paper's procedure:
//!
//! 1. takes the control utilization — `U_max` of the circulation under
//!    the baseline policy, `U_avg` under load balancing — and slices the
//!    lookup space at that plane;
//! 2. keeps the settings whose die temperature lies within
//!    `[T_safe − 1, T_safe + 1] °C` (the region `X`);
//! 3. evaluates the TEG output of every setting in the intersection and
//!    picks the maximum.
//!
//! Step 1 is one u-bracket per decision: [`LookupSpace::plane`] slices
//! the space at the control utilization once, and every candidate — the
//! banded ones and, when the band is empty, the fallback's whole
//! lattice — is read at that plane with the exact two-plane blend of
//! [`LookupSpace::temperatures_at`], never a trilinear search. The
//! choice is the one the trilinear queries would make, to the bit.
//!
//! Two reproduction-specific refinements, both documented in DESIGN.md:
//! the objective is TEG power *net of pump power* (the paper notes the
//! pump cost of high flow in Sec. IV-B1 and its chosen settings reflect
//! it), and when no setting reaches the safety band (very high load) the
//! optimizer falls back to the safest feasible setting rather than
//! failing.

use crate::CoolingError;
use h2p_hydraulics::Pump;
use h2p_server::{CoolingSetting, LatticePoint, LookupSpace, UPlane};
use h2p_teg::TegModule;
use h2p_telemetry::{Counter, Registry};
use h2p_units::{Celsius, DegC, Utilization, Watts};

/// Counter name: decisions taken (one per [`CoolingOptimizer::optimize`] call).
pub const DECISIONS_COUNTER: &str = "optimizer.decisions";

/// Counter name: candidate settings scored across all decisions — the
/// search-iteration count of the Sec. V-B procedure.
pub const SCORE_EVALS_COUNTER: &str = "optimizer.score_evals";

/// Counter name: decisions that missed the safety band entirely and
/// fell back to a full-grid scan.
pub const FALLBACK_SCANS_COUNTER: &str = "optimizer.fallback_scans";

/// The optimizer's observation bundle: counters resolved once at
/// attach time so the per-decision hot path touches no name tables.
///
/// Defaults to disabled — a single `None` behind one check, so an
/// unattached optimizer pays one branch per observation and allocates
/// nothing. Attach with [`CoolingOptimizer::with_telemetry`].
#[derive(Debug, Clone, Default)]
pub struct OptimizerTelemetry {
    inner: Option<TelemetryInner>,
}

#[derive(Debug, Clone)]
struct TelemetryInner {
    decisions: Counter,
    score_evals: Counter,
    fallback_scans: Counter,
}

impl OptimizerTelemetry {
    /// Resolves the optimizer counters in `registry`. A disabled
    /// registry yields a disabled (observation-free) bundle.
    #[must_use]
    pub fn from_registry(registry: &Registry) -> Self {
        if !registry.is_enabled() {
            return Self::disabled();
        }
        OptimizerTelemetry {
            inner: Some(TelemetryInner {
                decisions: registry.counter(DECISIONS_COUNTER),
                score_evals: registry.counter(SCORE_EVALS_COUNTER),
                fallback_scans: registry.counter(FALLBACK_SCANS_COUNTER),
            }),
        }
    }

    /// The observation-free bundle.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether observations go anywhere.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn note_decision(&self) {
        if let Some(inner) = &self.inner {
            inner.decisions.incr();
        }
    }

    fn note_score_evals(&self, n: usize) {
        if let Some(inner) = &self.inner {
            inner.score_evals.add(u64::try_from(n).unwrap_or(u64::MAX));
        }
    }

    fn note_fallback_scan(&self) {
        if let Some(inner) = &self.inner {
            inner.fallback_scans.incr();
        }
    }
}

/// The setting chosen by the optimizer, with its predicted budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizedSetting {
    /// The chosen `{f, T_warm_in}`.
    pub setting: CoolingSetting,
    /// Predicted per-server TEG output at the control utilization.
    pub teg_power: Watts,
    /// Per-server pump power at the chosen flow.
    pub pump_power: Watts,
    /// `teg_power − pump_power` (the optimizer's objective).
    pub net_power: Watts,
    /// Predicted coolant outlet temperature at the control utilization.
    pub outlet: Celsius,
    /// Predicted die temperature at the control utilization.
    pub cpu_temperature: Celsius,
    /// True when the setting lies inside the safety band; false when the
    /// optimizer had to fall back below it (very high load).
    pub in_band: bool,
}

/// The Sec. V-B cooling-setting optimizer.
///
/// The optimizer is a *pure function* of its construction parameters:
/// [`optimize`](CoolingOptimizer::optimize) reads the lookup space and
/// never mutates anything, so one optimizer can be built per distinct
/// cold-source temperature and reused across every control interval and
/// every worker thread of a simulation run (it is `Sync`; the
/// compile-time assertion below keeps that guarantee from regressing).
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct CoolingOptimizer<'a> {
    space: &'a LookupSpace,
    teg: TegModule,
    pump: Pump,
    t_safe: Celsius,
    tolerance: DegC,
    cold_water: Celsius,
    telemetry: OptimizerTelemetry,
}

impl<'a> CoolingOptimizer<'a> {
    /// Creates an optimizer over a lookup space.
    ///
    /// # Errors
    ///
    /// Returns [`CoolingError::NonPositiveParameter`] if the tolerance
    /// is not strictly positive.
    pub fn new(
        space: &'a LookupSpace,
        teg: TegModule,
        pump: Pump,
        t_safe: Celsius,
        tolerance: DegC,
        cold_water: Celsius,
    ) -> Result<Self, CoolingError> {
        if !(tolerance.value() > 0.0) {
            return Err(CoolingError::NonPositiveParameter {
                name: "tolerance",
                value: tolerance.value(),
            });
        }
        Ok(CoolingOptimizer {
            space,
            teg,
            pump,
            t_safe,
            tolerance,
            cold_water,
            telemetry: OptimizerTelemetry::disabled(),
        })
    }

    /// The paper's configuration: 12-TEG module, prototype pump,
    /// `T_safe = 62 °C` (≈ 80 % of the E5-2650 V3's 78.9 °C limit,
    /// the value used in Fig. 13), ±1 °C band, 20 °C cold water.
    #[must_use]
    pub fn paper_default(space: &'a LookupSpace) -> Self {
        CoolingOptimizer {
            space,
            teg: TegModule::paper_module(),
            pump: Pump::paper_tcs_pump(),
            t_safe: Celsius::new(62.0),
            tolerance: DegC::new(1.0),
            cold_water: Celsius::new(20.0),
            telemetry: OptimizerTelemetry::disabled(),
        }
    }

    /// Attaches the optimizer's decision/search counters to `registry`
    /// (see [`OptimizerTelemetry`]). A disabled registry leaves the
    /// optimizer observation-free. Purely additive: the chosen
    /// settings are bit-identical with or without telemetry.
    #[must_use]
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.telemetry = OptimizerTelemetry::from_registry(registry);
        self
    }

    /// Overrides the cold-water temperature (the cold-source ablation).
    #[must_use]
    pub fn with_cold_water(mut self, cold: Celsius) -> Self {
        self.cold_water = cold;
        self
    }

    /// Overrides the TEG module (the TEG-count ablation).
    #[must_use]
    pub fn with_module(mut self, teg: TegModule) -> Self {
        self.teg = teg;
        self
    }

    /// Overrides the safety target.
    #[must_use]
    pub fn with_t_safe(mut self, t_safe: Celsius) -> Self {
        self.t_safe = t_safe;
        self
    }

    /// The safety target.
    #[must_use]
    pub fn t_safe(&self) -> Celsius {
        self.t_safe
    }

    /// The cold-water temperature assumed for the TEG cold side.
    #[must_use]
    pub fn cold_water(&self) -> Celsius {
        self.cold_water
    }

    /// The TEG module used for power prediction.
    #[must_use]
    pub fn module(&self) -> &TegModule {
        &self.teg
    }

    /// Scores one candidate lattice setting at the control plane.
    fn score(
        &self,
        plane: UPlane,
        point: LatticePoint,
        setting: CoolingSetting,
        in_band: bool,
    ) -> Option<OptimizedSetting> {
        let (outlet, die) = self.space.temperatures_at(plane, point);
        let dt = outlet - self.cold_water;
        let teg_power = self.teg.max_power(dt);
        let pump_power = self.pump.power(setting.flow).ok()?;
        Some(OptimizedSetting {
            setting,
            teg_power,
            pump_power,
            net_power: teg_power - pump_power,
            outlet,
            cpu_temperature: die,
            in_band,
        })
    }

    /// Runs Steps 1-3 for a control utilization and returns the best
    /// setting, or `None` if the lookup space has no feasible setting at
    /// all (cannot happen on the paper grid; happens when `u_control`
    /// lies outside the grid's utilization range).
    #[must_use]
    pub fn optimize(&self, u_control: Utilization) -> Option<OptimizedSetting> {
        self.telemetry.note_decision();
        // Step 1: slice the space at the control plane, once.
        let plane = self.space.plane(u_control).ok();
        // Steps 2+3: score the settings in the safety band.
        if let Some(plane) = plane {
            let mut banded = 0;
            let best_banded = self
                .space
                .banded(plane, self.t_safe, self.tolerance)
                .inspect(|_| banded += 1)
                .filter_map(|(point, setting)| self.score(plane, point, setting, true))
                .filter(|s| s.cpu_temperature <= self.t_safe + self.tolerance)
                .max_by(|a, b| a.net_power.cmp(&b.net_power));
            self.telemetry.note_score_evals(banded);
            if best_banded.is_some() {
                return best_banded;
            }
        }
        // Fallback: nothing lands in the band. Scan the whole grid for
        // safe settings (die <= t_safe) and take the best net power; if
        // even that fails, take the globally coolest setting.
        self.telemetry.note_fallback_scan();
        self.telemetry
            .note_score_evals(self.space.flow_axis().len() * self.space.inlet_axis().len());
        let plane = plane?;
        let mut best_safe: Option<OptimizedSetting> = None;
        let mut coolest: Option<OptimizedSetting> = None;
        for (point, setting) in self.space.lattice() {
            let Some(scored) = self.score(plane, point, setting, false) else {
                continue;
            };
            if scored.cpu_temperature <= self.t_safe
                && best_safe
                    .as_ref()
                    .is_none_or(|b| scored.net_power > b.net_power)
            {
                best_safe = Some(scored);
            }
            if coolest
                .as_ref()
                .is_none_or(|c| scored.cpu_temperature < c.cpu_temperature)
            {
                coolest = Some(scored);
            }
        }
        best_safe.or(coolest)
    }
}

// Shared-reuse guarantee: the parallel simulation engine hands one
// `&CoolingOptimizer` to every worker thread of a control interval.
#[allow(dead_code)]
fn _assert_optimizer_is_sync() {
    fn is_sync<T: Sync>() {}
    is_sync::<CoolingOptimizer<'static>>();
    is_sync::<OptimizedSetting>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2p_server::ServerModel;

    fn space() -> LookupSpace {
        LookupSpace::paper_grid(&ServerModel::paper_default()).unwrap()
    }

    #[test]
    fn telemetry_counts_the_search_without_changing_the_choice() {
        let space = space();
        let registry = h2p_telemetry::Registry::new();
        let plain = CoolingOptimizer::paper_default(&space);
        let observed = CoolingOptimizer::paper_default(&space).with_telemetry(&registry);
        assert!(observed.telemetry.is_enabled());

        for x in [0.1, 0.5, 0.9] {
            assert_eq!(plain.optimize(u(x)), observed.optimize(u(x)));
        }
        let counters: std::collections::BTreeMap<String, u64> =
            registry.counters().into_iter().collect();
        assert_eq!(counters[DECISIONS_COUNTER], 3);
        assert!(
            counters[SCORE_EVALS_COUNTER] >= counters[DECISIONS_COUNTER],
            "each decision scores at least one candidate"
        );

        // A disabled registry attaches a disabled bundle.
        let unattached =
            CoolingOptimizer::paper_default(&space).with_telemetry(&Registry::disabled());
        assert!(!unattached.telemetry.is_enabled());
        assert!(unattached.optimize(u(0.5)).is_some());
    }

    fn u(x: f64) -> Utilization {
        Utilization::new(x).unwrap()
    }

    #[test]
    fn low_load_reaches_h2p_operating_point() {
        // At ~15 % load the chosen setting should admit a warm inlet in
        // the low 50s and generate >= 4 W from 12 TEGs (the Fig. 14
        // regime).
        let space = space();
        let opt = CoolingOptimizer::paper_default(&space);
        let best = opt.optimize(u(0.15)).expect("feasible");
        assert!(best.in_band);
        assert!(
            best.setting.inlet.value() > 46.0 && best.setting.inlet.value() < 60.0,
            "inlet {}",
            best.setting.inlet
        );
        assert!(best.teg_power.value() > 4.0, "teg {}", best.teg_power);
        assert!(best.net_power.value() > 3.5);
    }

    #[test]
    fn safety_never_violated_in_band() {
        let space = space();
        let opt = CoolingOptimizer::paper_default(&space);
        for x in [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
            let best = opt.optimize(u(x)).expect("feasible");
            assert!(
                best.cpu_temperature <= opt.t_safe() + DegC::new(1.0 + 1e-9),
                "u = {x}: die {}",
                best.cpu_temperature
            );
        }
    }

    #[test]
    fn generation_decreases_with_load() {
        // Fig. 14's anti-correlation: higher control utilization forces
        // colder inlets and lower TEG output.
        let space = space();
        let opt = CoolingOptimizer::paper_default(&space);
        let lo = opt.optimize(u(0.1)).unwrap().teg_power;
        let mid = opt.optimize(u(0.5)).unwrap().teg_power;
        let hi = opt.optimize(u(0.9)).unwrap().teg_power;
        assert!(lo > mid && mid > hi, "lo {lo} mid {mid} hi {hi}");
    }

    #[test]
    fn colder_source_generates_more() {
        let space = space();
        let base = CoolingOptimizer::paper_default(&space)
            .optimize(u(0.2))
            .unwrap()
            .teg_power;
        let colder = CoolingOptimizer::paper_default(&space)
            .with_cold_water(Celsius::new(15.0))
            .optimize(u(0.2))
            .unwrap()
            .teg_power;
        assert!(colder > base);
    }

    #[test]
    fn more_tegs_generate_more() {
        let space = space();
        let base = CoolingOptimizer::paper_default(&space)
            .optimize(u(0.2))
            .unwrap()
            .teg_power;
        let doubled = CoolingOptimizer::paper_default(&space)
            .with_module(h2p_teg::TegModule::new(h2p_teg::TegDevice::sp1848_27145(), 24).unwrap())
            .optimize(u(0.2))
            .unwrap()
            .teg_power;
        assert!(doubled > base * 1.5);
    }

    #[test]
    fn lower_t_safe_is_more_conservative() {
        let space = space();
        let strict = CoolingOptimizer::paper_default(&space)
            .with_t_safe(Celsius::new(55.0))
            .optimize(u(0.2))
            .unwrap();
        let relaxed = CoolingOptimizer::paper_default(&space)
            .optimize(u(0.2))
            .unwrap();
        assert!(strict.setting.inlet < relaxed.setting.inlet);
        assert!(strict.teg_power < relaxed.teg_power);
    }

    #[test]
    fn full_load_falls_back_safely() {
        // At u = 1.0 with T_safe = 55 the band may be unreachable on the
        // grid; the fallback must still return a safe setting.
        let space = space();
        let opt = CoolingOptimizer::paper_default(&space).with_t_safe(Celsius::new(55.0));
        let best = opt.optimize(Utilization::FULL).expect("feasible");
        assert!(best.cpu_temperature <= Celsius::new(55.0) + DegC::new(1.0 + 1e-9));
    }

    #[test]
    fn validation() {
        let space = space();
        assert!(CoolingOptimizer::new(
            &space,
            TegModule::paper_module(),
            Pump::paper_tcs_pump(),
            Celsius::new(62.0),
            DegC::new(0.0),
            Celsius::new(20.0),
        )
        .is_err());
    }
}
