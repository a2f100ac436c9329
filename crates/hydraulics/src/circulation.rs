//! Flow-network solver for a water circulation: parallel server
//! branches with trim valves, driven by one centralized variable-speed
//! pump (paper Sec. II-A: "CDUs regulate the coolant temperature and
//! the flow rate by using valves and centralized pumps").
//!
//! Each branch has a quadratic (turbulent) hydraulic characteristic
//! `Δp = k·Q²`; its trim valve scales `k` by `1/position²`. Parallel
//! branches all see the pump's head, so the network operating point is
//! the intersection of the pump curve `Δp = h₀·(1 − (Q/Q_max)²)` with
//! the aggregate demand curve, found by bisection on Δp.

use crate::HydraulicsError;
use h2p_units::{LitersPerHour, Pascals, Watts};

/// One parallel branch: fixed pipe/cold-plate hydraulics plus a trim
/// valve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchCircuit {
    /// Hydraulic coefficient of the fully-open branch, Pa/(L/H)².
    k_open: f64,
    /// Valve position in `(0, 1]` (1 = fully open).
    valve: f64,
}

impl BranchCircuit {
    /// Creates a branch from its fully-open coefficient.
    ///
    /// # Errors
    ///
    /// Returns [`HydraulicsError::NonPositiveParameter`] if `k_open`
    /// is not strictly positive.
    pub fn new(k_open: f64) -> Result<Self, HydraulicsError> {
        if !(k_open > 0.0) {
            return Err(HydraulicsError::NonPositiveParameter {
                name: "k_open",
                value: k_open,
            });
        }
        Ok(BranchCircuit { k_open, valve: 1.0 })
    }

    /// A typical server branch: 4 mm microchannel cold plate plus hose,
    /// dropping ~20 kPa at 250 L/H fully open.
    #[must_use]
    pub fn typical_server() -> Self {
        BranchCircuit {
            k_open: 20_000.0 / (250.0_f64 * 250.0),
            valve: 1.0,
        }
    }

    /// Sets the trim-valve position.
    ///
    /// # Errors
    ///
    /// Returns [`HydraulicsError::NonPositiveParameter`] if `position`
    /// is outside `(0, 1]`.
    pub fn set_valve(&mut self, position: f64) -> Result<(), HydraulicsError> {
        if !(position > 0.0 && position <= 1.0) {
            return Err(HydraulicsError::NonPositiveParameter {
                name: "valve position",
                value: position,
            });
        }
        self.valve = position;
        Ok(())
    }

    /// The trim-valve position.
    #[must_use]
    pub fn valve(&self) -> f64 {
        self.valve
    }

    /// Effective hydraulic coefficient with the valve applied.
    #[must_use]
    pub fn k_effective(&self) -> f64 {
        self.k_open / (self.valve * self.valve)
    }

    /// Flow through this branch at a given head.
    #[must_use]
    pub fn flow_at(&self, head: Pascals) -> LitersPerHour {
        LitersPerHour::new((head.value().max(0.0) / self.k_effective()).sqrt())
    }
}

/// The centralized pump's head curve: `Δp = h₀·(1 − (Q/Q_max)²)`,
/// scaled by the square of the speed fraction (affinity laws).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PumpCurve {
    /// Shut-off head at full speed.
    shutoff_head: Pascals,
    /// Free-delivery flow at full speed.
    max_flow: LitersPerHour,
    /// Speed fraction in `(0, 1]`.
    speed: f64,
    /// Wire-to-water efficiency in `(0, 1]`.
    efficiency: f64,
}

impl PumpCurve {
    /// Creates a pump curve.
    ///
    /// # Errors
    ///
    /// Returns [`HydraulicsError::NonPositiveParameter`] for a
    /// non-positive head or flow, or an efficiency outside `(0, 1]`.
    pub fn new(
        shutoff_head: Pascals,
        max_flow: LitersPerHour,
        efficiency: f64,
    ) -> Result<Self, HydraulicsError> {
        for (name, value) in [
            ("shutoff_head", shutoff_head.value()),
            ("max_flow", max_flow.value()),
        ] {
            if !(value > 0.0) {
                return Err(HydraulicsError::NonPositiveParameter { name, value });
            }
        }
        if !(efficiency > 0.0 && efficiency <= 1.0) {
            return Err(HydraulicsError::NonPositiveParameter {
                name: "efficiency",
                value: efficiency,
            });
        }
        Ok(PumpCurve {
            shutoff_head,
            max_flow,
            speed: 1.0,
            efficiency,
        })
    }

    /// A CDU-scale circulator: 60 kPa shut-off, 15,000 L/H free
    /// delivery, 45 % wire-to-water efficiency.
    #[must_use]
    pub fn cdu_circulator() -> Self {
        PumpCurve::new(
            Pascals::from_kilopascals(60.0),
            LitersPerHour::new(15_000.0),
            0.45,
        )
        // h2p-lint: allow(L2): hard-coded positive constants
        .expect("constants are valid")
    }

    /// Sets the speed fraction (variable-speed drive).
    ///
    /// # Errors
    ///
    /// Returns [`HydraulicsError::NonPositiveParameter`] if `speed` is
    /// outside `(0, 1]`.
    pub fn set_speed(&mut self, speed: f64) -> Result<(), HydraulicsError> {
        if !(speed > 0.0 && speed <= 1.0) {
            return Err(HydraulicsError::NonPositiveParameter {
                name: "speed",
                value: speed,
            });
        }
        self.speed = speed;
        Ok(())
    }

    /// The speed fraction.
    #[must_use]
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Head delivered at a flow (affinity-scaled), clamped at zero past
    /// free delivery.
    #[must_use]
    pub fn head_at(&self, flow: LitersPerHour) -> Pascals {
        let s2 = self.speed * self.speed;
        let q_ratio = flow.value() / (self.max_flow.value() * self.speed);
        Pascals::new((self.shutoff_head.value() * s2 * (1.0 - q_ratio * q_ratio)).max(0.0))
    }
}

/// The solved operating point of a circulation.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingFlow {
    /// Pump head at the operating point.
    pub head: Pascals,
    /// Total loop flow.
    pub total_flow: LitersPerHour,
    /// Per-branch flows, in branch order.
    pub branch_flows: Vec<LitersPerHour>,
    /// Electrical power drawn by the pump.
    pub pump_power: Watts,
}

impl OperatingFlow {
    /// Physics sanitizer (armed in debug builds): a solved operating
    /// point must be physical — finite, non-negative head, flows and
    /// pump power. A violation means the bisection diverged or the
    /// network was built from corrupted inputs, and panics in debug
    /// builds rather than feeding garbage into the thermal layer.
    fn sanitize(&self) {
        let head = self.head.value();
        debug_assert!(
            head.is_finite() && head >= 0.0,
            "sanitize: solve produced head {head} Pa (finite, >= 0 expected)"
        );
        let total = self.total_flow.value();
        debug_assert!(
            total.is_finite() && total >= 0.0,
            "sanitize: solve produced total flow {total} L/h (finite, >= 0 expected)"
        );
        for (i, f) in self.branch_flows.iter().enumerate() {
            let f = f.value();
            debug_assert!(
                f.is_finite() && f >= 0.0,
                "sanitize: solve produced branch {i} flow {f} L/h (finite, >= 0 expected)"
            );
        }
        let pump = self.pump_power.value();
        debug_assert!(
            pump.is_finite() && pump >= 0.0,
            "sanitize: solve produced pump power {pump} W (finite, >= 0 expected)"
        );
    }
}

/// A water circulation: parallel branches fed by one pump.
#[derive(Debug, Clone, PartialEq)]
pub struct Circulation {
    branches: Vec<BranchCircuit>,
    pump: PumpCurve,
}

impl Circulation {
    /// Creates a circulation.
    ///
    /// # Errors
    ///
    /// Returns [`HydraulicsError::NoStreams`] if `branches` is empty.
    pub fn new(branches: Vec<BranchCircuit>, pump: PumpCurve) -> Result<Self, HydraulicsError> {
        if branches.is_empty() {
            return Err(HydraulicsError::NoStreams);
        }
        Ok(Circulation { branches, pump })
    }

    /// A paper-scale circulation: `n` identical server branches on a
    /// CDU circulator.
    ///
    /// # Errors
    ///
    /// Returns [`HydraulicsError::NoStreams`] if `n == 0`.
    pub fn uniform(n: usize) -> Result<Self, HydraulicsError> {
        Circulation::new(
            vec![BranchCircuit::typical_server(); n],
            PumpCurve::cdu_circulator(),
        )
    }

    /// Number of branches.
    #[must_use]
    pub fn len(&self) -> usize {
        self.branches.len()
    }

    /// Whether the circulation has no branches (never true once built).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.branches.is_empty()
    }

    /// Mutable access to a branch (to trim its valve).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn branch_mut(&mut self, i: usize) -> &mut BranchCircuit {
        &mut self.branches[i]
    }

    /// Mutable access to the pump (to change its speed).
    pub fn pump_mut(&mut self) -> &mut PumpCurve {
        &mut self.pump
    }

    /// Total demand flow at a given head.
    fn demand_at(&self, head: Pascals) -> f64 {
        self.branches.iter().map(|b| b.flow_at(head).value()).sum()
    }

    /// Solves the operating point: the head where pump supply equals
    /// branch demand, by bisection (supply − demand is decreasing in
    /// head).
    #[must_use]
    pub fn solve(&self) -> OperatingFlow {
        let s2 = self.pump.speed * self.pump.speed;
        let mut lo = 0.0_f64;
        let mut hi = self.pump.shutoff_head.value() * s2;
        // supply(head): invert the pump curve for Q at this head.
        let supply = |head: f64| {
            let ratio = 1.0 - head / (self.pump.shutoff_head.value() * s2);
            self.pump.max_flow.value() * self.pump.speed * ratio.max(0.0).sqrt()
        };
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if supply(mid) >= self.demand_at(Pascals::new(mid)) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let head = Pascals::new(0.5 * (lo + hi));
        let branch_flows: Vec<LitersPerHour> =
            self.branches.iter().map(|b| b.flow_at(head)).collect();
        let total = LitersPerHour::new(branch_flows.iter().map(|f| f.value()).sum());
        let hydraulic = head.hydraulic_power(total);
        let op = OperatingFlow {
            head,
            total_flow: total,
            branch_flows,
            pump_power: hydraulic / self.pump.efficiency,
        };
        op.sanitize();
        op
    }

    /// Sets the pump speed so the *mean* branch flow hits `target`,
    /// by bisection on speed. Returns the achieved operating point.
    ///
    /// # Errors
    ///
    /// Returns [`HydraulicsError::NonPositiveParameter`] if the target
    /// is not strictly positive or unreachable at full speed.
    pub fn regulate_to(&mut self, target: LitersPerHour) -> Result<OperatingFlow, HydraulicsError> {
        if !(target.value() > 0.0) {
            return Err(HydraulicsError::NonPositiveParameter {
                name: "target flow",
                value: target.value(),
            });
        }
        self.pump.set_speed(1.0)?;
        let full = self.solve();
        // h2p-lint: allow(L3): branch count -> f64, exact below 2^53
        if full.total_flow.value() / self.len() as f64 + 1e-9 < target.value() {
            return Err(HydraulicsError::NonPositiveParameter {
                name: "target flow beyond pump capability",
                value: target.value(),
            });
        }
        let mut lo = 1e-3;
        let mut hi = 1.0;
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            self.pump.set_speed(mid)?;
            // h2p-lint: allow(L3): branch count -> f64, exact below 2^53
            let mean = self.solve().total_flow.value() / self.len() as f64;
            if mean >= target.value() {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        self.pump.set_speed(hi)?;
        Ok(self.solve())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_branches_share_flow_equally() {
        let circ = Circulation::uniform(40).unwrap();
        let op = circ.solve();
        let first = op.branch_flows[0];
        for f in &op.branch_flows {
            assert!((f.value() - first.value()).abs() < 1e-6);
        }
        assert!(
            (op.total_flow.value() - 40.0 * first.value()).abs() < 1e-3,
            "flows must sum"
        );
    }

    #[test]
    fn operating_point_on_both_curves() {
        let circ = Circulation::uniform(10).unwrap();
        let op = circ.solve();
        // On the pump curve...
        let pump_head = PumpCurve::cdu_circulator().head_at(op.total_flow);
        assert!((pump_head.value() - op.head.value()).abs() < 50.0);
        // ...and on each branch curve.
        let k = BranchCircuit::typical_server().k_effective();
        for f in &op.branch_flows {
            let dp = k * f.value() * f.value();
            assert!((dp - op.head.value()).abs() < 50.0);
        }
    }

    #[test]
    fn closing_a_valve_starves_that_branch_and_feeds_the_rest() {
        let mut circ = Circulation::uniform(4).unwrap();
        let before = circ.solve();
        circ.branch_mut(0).set_valve(0.3).unwrap();
        let after = circ.solve();
        assert!(after.branch_flows[0] < before.branch_flows[0]);
        // Head rises, so the untouched branches gain flow.
        assert!(after.head > before.head);
        assert!(after.branch_flows[1] > before.branch_flows[1]);
    }

    #[test]
    fn slower_pump_moves_less_water_for_less_power() {
        let mut circ = Circulation::uniform(10).unwrap();
        let fast = circ.solve();
        circ.pump_mut().set_speed(0.5).unwrap();
        let slow = circ.solve();
        assert!(slow.total_flow < fast.total_flow);
        assert!(slow.pump_power < fast.pump_power);
        // Affinity shape: half speed ≈ half flow, ~1/8 power.
        let flow_ratio = slow.total_flow / fast.total_flow;
        let power_ratio = slow.pump_power / fast.pump_power;
        assert!((flow_ratio - 0.5).abs() < 0.05, "flow ratio {flow_ratio}");
        assert!(power_ratio < 0.2, "power ratio {power_ratio}");
    }

    #[test]
    fn regulate_hits_target_mean_flow() {
        let mut circ = Circulation::uniform(40).unwrap();
        let op = circ.regulate_to(LitersPerHour::new(60.0)).unwrap();
        let mean = op.total_flow.value() / 40.0;
        assert!((mean - 60.0).abs() < 0.5, "mean = {mean}");
    }

    #[test]
    fn unreachable_target_rejected() {
        let mut circ = Circulation::uniform(40).unwrap();
        assert!(circ.regulate_to(LitersPerHour::new(10_000.0)).is_err());
        assert!(circ.regulate_to(LitersPerHour::new(0.0)).is_err());
    }

    #[test]
    fn more_branches_more_total_flow_lower_head() {
        let small = Circulation::uniform(5).unwrap().solve();
        let large = Circulation::uniform(50).unwrap().solve();
        assert!(large.total_flow > small.total_flow);
        assert!(large.head < small.head);
    }

    #[test]
    fn validation() {
        assert!(Circulation::new(vec![], PumpCurve::cdu_circulator()).is_err());
        assert!(BranchCircuit::new(0.0).is_err());
        let mut b = BranchCircuit::typical_server();
        assert!(b.set_valve(0.0).is_err());
        assert!(b.set_valve(1.1).is_err());
        assert!(PumpCurve::new(Pascals::new(0.0), LitersPerHour::new(1.0), 0.5).is_err());
        assert!(PumpCurve::new(Pascals::new(1.0), LitersPerHour::new(1.0), 1.5).is_err());
        let mut p = PumpCurve::cdu_circulator();
        assert!(p.set_speed(0.0).is_err());
    }

    #[test]
    fn typical_branch_matches_spec_point() {
        // 20 kPa at 250 L/H by construction.
        let b = BranchCircuit::typical_server();
        let f = b.flow_at(Pascals::from_kilopascals(20.0));
        assert!((f.value() - 250.0).abs() < 1e-6);
    }
}
