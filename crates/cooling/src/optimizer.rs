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
//! [`LookupSpace::outlet_at`] and [`LookupSpace::die_at`], never a
//! trilinear search. The choice is the one the trilinear queries would
//! make, to the bit.
//!
//! What does not change between decisions is built once, in
//! [`OptimizerTables`]: the [`BandIndex`] of `T_safe ± tolerance`, so
//! [`LookupSpace::banded`] reads only the inlets where the band can
//! fall in the plane's u-cell (about 28 vertices per decision on the
//! paper's evaluation, to find about 21 in the band), and the pump's
//! price at every sampled flow, so no candidate evaluates the affinity
//! law. A candidate's die comes from `banded`, which had to read it for
//! the band test; only its outlet is blended for the score.
//! [`CoolingOptimizer::new`] builds its own tables;
//! [`CoolingOptimizer::lent`] reads tables and counters its caller
//! built once (the simulation engine lends one set to every decision).
//!
//! Two reproduction-specific refinements, both documented in DESIGN.md:
//! the objective is TEG power *net of pump power* (the paper notes the
//! pump cost of high flow in Sec. IV-B1 and its chosen settings reflect
//! it), and when no setting reaches the safety band (very high load) the
//! optimizer falls back to the safest feasible setting rather than
//! failing.

use crate::CoolingError;
use h2p_hydraulics::Pump;
use h2p_server::{BandIndex, CoolingSetting, LatticePoint, LookupSpace, UPlane};
use h2p_teg::TegModule;
use h2p_telemetry::{Counter, Registry};
use h2p_units::{Celsius, DegC, LitersPerHour, Utilization, Watts};
use std::borrow::Cow;

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

/// What a decision reads besides the lookup space and the TEG module,
/// fixed once the space, the pump, `T_safe` and the tolerance are: the
/// safety band's [`BandIndex`] and the pump's price at every sampled
/// flow. Built by [`new`](Self::new) and meaningful only for the space
/// it was built on. [`CoolingOptimizer::new`] builds and owns a set;
/// a caller that builds many optimizers over one space, as the
/// simulation engine does for every cold reading, builds one set and
/// lends it through [`CoolingOptimizer::lent`].
#[derive(Debug, Clone)]
pub struct OptimizerTables {
    band: BandIndex,
    pump: Pump,
    /// `pump.power(flow)` per flow row; `None` where the pump refuses
    /// the flow.
    pump_prices: Vec<Option<Watts>>,
}

impl OptimizerTables {
    /// Indexes the band `t_safe ± tolerance` on `space` and prices
    /// `pump` at every sampled flow.
    ///
    /// # Errors
    ///
    /// * [`CoolingError::NonFiniteParameter`] for a non-finite `t_safe`
    ///   or tolerance.
    /// * [`CoolingError::NonPositiveParameter`] for a tolerance that is
    ///   not strictly positive.
    pub fn new(
        space: &LookupSpace,
        pump: Pump,
        t_safe: Celsius,
        tolerance: DegC,
    ) -> Result<Self, CoolingError> {
        for (name, value) in [("t_safe", t_safe.value()), ("tolerance", tolerance.value())] {
            if !value.is_finite() {
                return Err(CoolingError::NonFiniteParameter { name, value });
            }
        }
        if !(tolerance.value() > 0.0) {
            return Err(CoolingError::NonPositiveParameter {
                name: "tolerance",
                value: tolerance.value(),
            });
        }
        Ok(OptimizerTables {
            band: space.band_index(t_safe, tolerance),
            pump,
            pump_prices: space
                .flow_axis()
                .iter()
                .map(|&flow| pump.power(LitersPerHour::new(flow)).ok())
                .collect(),
        })
    }
}

/// The Sec. V-B cooling-setting optimizer.
///
/// The optimizer is a *pure function* of its construction parameters:
/// [`optimize`](CoolingOptimizer::optimize) reads the lookup space and
/// its [`OptimizerTables`] and never mutates anything, so one optimizer
/// can be built per distinct cold-source temperature and reused across
/// every control interval and every worker thread of a simulation run
/// (it is `Sync`; the compile-time assertion below keeps that guarantee
/// from regressing).
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct CoolingOptimizer<'a> {
    space: &'a LookupSpace,
    tables: Cow<'a, OptimizerTables>,
    telemetry: Cow<'a, OptimizerTelemetry>,
    teg: TegModule,
    cold_water: Celsius,
}

impl<'a> CoolingOptimizer<'a> {
    /// Creates an optimizer over a lookup space, with tables of its own.
    ///
    /// # Errors
    ///
    /// As [`OptimizerTables::new`]: a non-finite `t_safe` or tolerance,
    /// or a tolerance that is not strictly positive.
    pub fn new(
        space: &'a LookupSpace,
        teg: TegModule,
        pump: Pump,
        t_safe: Celsius,
        tolerance: DegC,
        cold_water: Celsius,
    ) -> Result<Self, CoolingError> {
        let tables = OptimizerTables::new(space, pump, t_safe, tolerance)?;
        Ok(CoolingOptimizer {
            space,
            tables: Cow::Owned(tables),
            telemetry: Cow::Owned(OptimizerTelemetry::disabled()),
            teg,
            cold_water,
        })
    }

    /// An optimizer that reads `tables` and counts into `telemetry`
    /// instead of building and resolving its own: nothing is built or
    /// looked up, so a caller can make one per decision. `tables` must
    /// have been built on `space`.
    #[must_use]
    pub fn lent(
        space: &'a LookupSpace,
        tables: &'a OptimizerTables,
        telemetry: &'a OptimizerTelemetry,
        teg: TegModule,
        cold_water: Celsius,
    ) -> Self {
        CoolingOptimizer {
            space,
            tables: Cow::Borrowed(tables),
            telemetry: Cow::Borrowed(telemetry),
            teg,
            cold_water,
        }
    }

    /// The paper's configuration: 12-TEG module, prototype pump,
    /// `T_safe = 62 °C` (≈ 80 % of the E5-2650 V3's 78.9 °C limit,
    /// the value used in Fig. 13), ±1 °C band, 20 °C cold water.
    #[must_use]
    pub fn paper_default(space: &'a LookupSpace) -> Self {
        Self::new(
            space,
            TegModule::paper_module(),
            Pump::paper_tcs_pump(),
            Celsius::new(62.0),
            DegC::new(1.0),
            Celsius::new(20.0),
        )
        // h2p-lint: allow(L2): constant, finite, positive parameters
        .expect("the paper's T_safe and tolerance are finite and positive")
    }

    /// Attaches the optimizer's decision/search counters to `registry`
    /// (see [`OptimizerTelemetry`]). A disabled registry leaves the
    /// optimizer observation-free. Purely additive: the chosen
    /// settings are bit-identical with or without telemetry.
    #[must_use]
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.telemetry = Cow::Owned(OptimizerTelemetry::from_registry(registry));
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

    /// Overrides the safety target, rebuilding the tables.
    ///
    /// # Errors
    ///
    /// [`CoolingError::NonFiniteParameter`] for a non-finite `t_safe`.
    pub fn with_t_safe(mut self, t_safe: Celsius) -> Result<Self, CoolingError> {
        let (pump, tolerance) = (self.tables.pump, self.tables.band.tolerance());
        self.tables = Cow::Owned(OptimizerTables::new(self.space, pump, t_safe, tolerance)?);
        Ok(self)
    }

    /// The safety target.
    #[must_use]
    pub fn t_safe(&self) -> Celsius {
        self.tables.band.t_safe()
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

    /// Scores one candidate lattice setting at the control plane, with
    /// its die temperature already read.
    fn score(
        &self,
        plane: UPlane,
        point: LatticePoint,
        setting: CoolingSetting,
        die: Celsius,
        in_band: bool,
    ) -> Option<OptimizedSetting> {
        let outlet = self.space.outlet_at(plane, point);
        let dt = outlet - self.cold_water;
        let teg_power = self.teg.max_power(dt);
        let pump_power = self.tables.pump_prices[point.flow_index()]?;
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
        let telemetry = &*self.telemetry;
        let band = &self.tables.band;
        telemetry.note_decision();
        // Step 1: slice the space at the control plane, once.
        let plane = self.space.plane(u_control).ok();
        // Steps 2+3: score the settings in the safety band.
        if let Some(plane) = plane {
            let ceiling = band.t_safe() + band.tolerance();
            let mut banded = 0;
            let mut best_banded: Option<OptimizedSetting> = None;
            for (point, setting, die) in self.space.banded(plane, band) {
                banded += 1;
                let Some(scored) = self.score(plane, point, setting, die, true) else {
                    continue;
                };
                // `max_by`'s rule: a later candidate wins a tie.
                if scored.cpu_temperature <= ceiling
                    && best_banded
                        .as_ref()
                        .is_none_or(|b| b.net_power <= scored.net_power)
                {
                    best_banded = Some(scored);
                }
            }
            telemetry.note_score_evals(banded);
            if best_banded.is_some() {
                return best_banded;
            }
        }
        // Fallback: nothing lands in the band. Scan the whole grid for
        // safe settings (die <= t_safe) and take the best net power; if
        // even that fails, take the globally coolest setting.
        telemetry.note_fallback_scan();
        telemetry.note_score_evals(self.space.flow_axis().len() * self.space.inlet_axis().len());
        let plane = plane?;
        let t_safe = band.t_safe();
        let mut best_safe: Option<OptimizedSetting> = None;
        let mut coolest: Option<OptimizedSetting> = None;
        for (point, setting) in self.space.lattice() {
            let die = self.space.die_at(plane, point);
            let Some(scored) = self.score(plane, point, setting, die, false) else {
                continue;
            };
            if scored.cpu_temperature <= t_safe
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
            .unwrap()
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
        let opt = CoolingOptimizer::paper_default(&space)
            .with_t_safe(Celsius::new(55.0))
            .unwrap();
        let best = opt.optimize(Utilization::FULL).expect("feasible");
        assert!(best.cpu_temperature <= Celsius::new(55.0) + DegC::new(1.0 + 1e-9));
    }

    /// `Celsius::new` and `DegC::new` debug-assert against NaN, but
    /// arithmetic still makes one, as a computed configuration can.
    fn celsius(x: f64) -> Celsius {
        Celsius::new(0.0) + degc(x)
    }

    fn degc(x: f64) -> DegC {
        if x.is_nan() {
            DegC::new(f64::INFINITY) * 0.0
        } else {
            DegC::new(x)
        }
    }

    fn build(space: &LookupSpace, t_safe: f64, tolerance: f64) -> Result<(), CoolingError> {
        CoolingOptimizer::new(
            space,
            TegModule::paper_module(),
            Pump::paper_tcs_pump(),
            celsius(t_safe),
            degc(tolerance),
            Celsius::new(20.0),
        )
        .map(drop)
    }

    #[test]
    fn validation() {
        let space = space();
        assert!(build(&space, 62.0, 0.0).is_err());
    }

    #[test]
    fn new_refuses_a_non_finite_t_safe() {
        let space = space();
        for t_safe in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = build(&space, t_safe, 1.0).unwrap_err();
            assert!(
                matches!(err, CoolingError::NonFiniteParameter { name: "t_safe", value }
                    if value.is_nan() == t_safe.is_nan() && (value.is_nan() || value == t_safe)),
                "{err}"
            );
        }
    }

    #[test]
    fn new_refuses_a_non_finite_tolerance() {
        let space = space();
        for tolerance in [f64::NAN, f64::INFINITY] {
            let err = build(&space, 62.0, tolerance).unwrap_err();
            assert!(
                matches!(err, CoolingError::NonFiniteParameter { name: "tolerance", value }
                    if value.is_nan() == tolerance.is_nan() && (value.is_nan() || value == tolerance)),
                "{err}"
            );
            assert!(err.to_string().contains("must be finite"));
        }
    }

    #[test]
    fn with_t_safe_refuses_a_non_finite_t_safe_and_rebuilds_the_band() {
        let space = space();
        for t_safe in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = CoolingOptimizer::paper_default(&space)
                .with_t_safe(celsius(t_safe))
                .unwrap_err();
            assert!(matches!(
                err,
                CoolingError::NonFiniteParameter { name: "t_safe", .. }
            ));
        }
        // A moved target is the optimizer built at that target.
        let moved = CoolingOptimizer::paper_default(&space)
            .with_t_safe(Celsius::new(55.0))
            .unwrap();
        let built = CoolingOptimizer::new(
            &space,
            TegModule::paper_module(),
            Pump::paper_tcs_pump(),
            Celsius::new(55.0),
            DegC::new(1.0),
            Celsius::new(20.0),
        )
        .unwrap();
        assert_eq!(moved.t_safe(), Celsius::new(55.0));
        for x in [0.0, 0.15, 0.4, 0.75, 1.0] {
            assert_eq!(moved.optimize(u(x)), built.optimize(u(x)), "u = {x}");
        }
    }
}
