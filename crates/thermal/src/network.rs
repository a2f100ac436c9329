//! RC thermal networks with transient and steady-state solvers.
//!
//! A network is a graph of *capacitive* nodes (finite heat capacity,
//! evolving temperature), *boundary* nodes (fixed temperature — a coolant
//! stream or an ambient), conductive edges (W/K) and per-node heat
//! sources (W). This is the textbook lumped-parameter abstraction of the
//! paper's prototype: CPU die, thermal paste, cold plate, TEG ceramic
//! plates and coolant are each one node.

use crate::ThermalError;
use h2p_units::{Celsius, Joules, Seconds, Watts};

/// Handle to a node inside a [`ThermalNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// The raw index (stable for the lifetime of the network).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone, PartialEq)]
enum NodeKind {
    /// Finite heat capacity in J/K.
    Capacitive { capacity: f64 },
    /// Fixed-temperature boundary.
    Boundary,
}

#[derive(Debug, Clone)]
struct Node {
    label: String,
    kind: NodeKind,
    temperature: Celsius,
    heat_input: Watts,
    /// Adjacency: (other node, conductance W/K).
    edges: Vec<(usize, f64)>,
}

/// Energy bookkeeping for one [`ThermalNetwork::step`] call.
///
/// Forward Euler conserves energy exactly per substep, so
/// `source_input - boundary_outflow == stored_delta` up to rounding;
/// the property tests assert this.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepReport {
    /// Heat injected by sources over the step.
    pub source_input: Joules,
    /// Net heat pushed into boundary nodes over the step.
    pub boundary_outflow: Joules,
    /// Change in energy stored in capacitive nodes over the step.
    pub stored_delta: Joules,
    /// Number of internal substeps taken.
    pub substeps: usize,
}

/// A steady-state solution of a network (temperatures only).
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyState {
    temperatures: Vec<Celsius>,
}

impl SteadyState {
    /// Temperature of a node in the solution.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the solved network.
    #[must_use]
    pub fn temperature(&self, id: NodeId) -> Celsius {
        self.temperatures[id.0]
    }
}

/// A lumped-parameter thermal network.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone, Default)]
pub struct ThermalNetwork {
    nodes: Vec<Node>,
}

impl ThermalNetwork {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a capacitive node with heat capacity `capacity_j_per_k` (J/K)
    /// at an initial temperature.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_j_per_k` is not strictly positive.
    pub fn add_capacitive(
        &mut self,
        label: impl Into<String>,
        capacity_j_per_k: f64,
        initial: Celsius,
    ) -> NodeId {
        assert!(
            capacity_j_per_k > 0.0,
            "heat capacity must be positive, got {capacity_j_per_k}"
        );
        self.push(Node {
            label: label.into(),
            kind: NodeKind::Capacitive {
                capacity: capacity_j_per_k,
            },
            temperature: initial,
            heat_input: Watts::zero(),
            edges: Vec::new(),
        })
    }

    /// Adds a fixed-temperature boundary node.
    pub fn add_boundary(&mut self, label: impl Into<String>, temperature: Celsius) -> NodeId {
        self.push(Node {
            label: label.into(),
            kind: NodeKind::Boundary,
            temperature,
            heat_input: Watts::zero(),
            edges: Vec::new(),
        })
    }

    fn push(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        NodeId(self.nodes.len() - 1)
    }

    /// Connects two nodes with a conductance in W/K (the reciprocal of a
    /// thermal resistance in K/W). Parallel edges add.
    ///
    /// # Panics
    ///
    /// Panics if the conductance is not strictly positive, a node id is
    /// foreign, or `a == b`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, conductance_w_per_k: f64) {
        assert!(
            conductance_w_per_k > 0.0,
            "conductance must be positive, got {conductance_w_per_k}"
        );
        assert!(
            a.0 < self.nodes.len() && b.0 < self.nodes.len(),
            "unknown node"
        );
        assert_ne!(a, b, "self loops are not allowed");
        self.nodes[a.0].edges.push((b.0, conductance_w_per_k));
        self.nodes[b.0].edges.push((a.0, conductance_w_per_k));
    }

    /// Connects two nodes by a thermal *resistance* in K/W.
    ///
    /// # Panics
    ///
    /// As for [`connect`](Self::connect); additionally if
    /// `resistance_k_per_w` is not strictly positive.
    pub fn connect_resistance(&mut self, a: NodeId, b: NodeId, resistance_k_per_w: f64) {
        assert!(
            resistance_k_per_w > 0.0,
            "resistance must be positive, got {resistance_k_per_w}"
        );
        self.connect(a, b, 1.0 / resistance_k_per_w);
    }

    /// Sets the heat injected into a node (W). Replaces any previous value.
    ///
    /// # Panics
    ///
    /// Panics on a foreign node id.
    pub fn set_heat_input(&mut self, id: NodeId, power: Watts) {
        self.nodes[id.0].heat_input = power;
    }

    /// Re-pins a boundary node's temperature (e.g. the coolant warmed up).
    ///
    /// # Panics
    ///
    /// Panics if `id` is foreign or does not refer to a boundary node.
    pub fn set_boundary_temperature(&mut self, id: NodeId, temperature: Celsius) {
        let node = &mut self.nodes[id.0];
        assert!(
            matches!(node.kind, NodeKind::Boundary),
            "node {} is not a boundary",
            node.label
        );
        node.temperature = temperature;
    }

    /// Current temperature of a node.
    ///
    /// # Panics
    ///
    /// Panics on a foreign node id.
    #[must_use]
    pub fn temperature(&self, id: NodeId) -> Celsius {
        self.nodes[id.0].temperature
    }

    /// Label of a node.
    ///
    /// # Panics
    ///
    /// Panics on a foreign node id.
    #[must_use]
    pub fn label(&self, id: NodeId) -> &str {
        &self.nodes[id.0].label
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Largest stable explicit substep: `min_i C_i / ΣG_i`, halved for
    /// margin. Returns `None` when there are no capacitive nodes.
    fn stable_substep(&self) -> Option<f64> {
        self.nodes
            .iter()
            .filter_map(|n| match n.kind {
                NodeKind::Capacitive { capacity } => {
                    let g: f64 = n.edges.iter().map(|&(_, g)| g).sum();
                    if g > 0.0 {
                        Some(capacity / g)
                    } else {
                        None
                    }
                }
                NodeKind::Boundary => None,
            })
            .min_by(f64::total_cmp)
            .map(|tau| 0.5 * tau)
    }

    /// Advances the transient simulation by `dt` using forward Euler with
    /// automatic stability substepping, and returns the energy ledger.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is negative.
    pub fn step(&mut self, dt: Seconds) -> StepReport {
        assert!(dt.value() >= 0.0, "dt must be non-negative");
        // NaN-safe zero/invalid rejection: NaN fails the `>` guard.
        if !(dt.value() > 0.0) || self.nodes.is_empty() {
            return StepReport::default();
        }
        let max_h = self.stable_substep().unwrap_or(dt.value());
        // h2p-lint: allow(L3): ceil().max(1.0) of a finite positive ratio
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let substeps = (dt.value() / max_h).ceil().max(1.0) as usize;
        let h = dt.value() / substeps as f64; // h2p-lint: allow(L3): substep count -> f64, exact

        let mut report = StepReport {
            substeps,
            ..StepReport::default()
        };
        let n = self.nodes.len();
        let mut flux = vec![0.0_f64; n]; // net W into each node
        for _ in 0..substeps {
            flux.fill(0.0);
            for (i, node) in self.nodes.iter().enumerate() {
                flux[i] += node.heat_input.value();
                for &(j, g) in &node.edges {
                    // Each undirected edge is stored twice; accumulate
                    // inflow from the neighbour only, so both directions
                    // are covered exactly once per node.
                    flux[i] += g * (self.nodes[j].temperature.value() - node.temperature.value());
                }
            }
            for (i, node) in self.nodes.iter_mut().enumerate() {
                match node.kind {
                    NodeKind::Capacitive { capacity } => {
                        let dtemp = flux[i] * h / capacity;
                        node.temperature += h2p_units::DegC::new(dtemp);
                        report.stored_delta += Joules::new(flux[i] * h);
                    }
                    NodeKind::Boundary => {
                        // Positive flux into a boundary is heat leaving
                        // the capacitive part of the system.
                        report.boundary_outflow += Joules::new(flux[i] * h);
                        // Sources attached directly to a boundary pass
                        // straight through; exclude them from outflow so
                        // the ledger reflects the capacitive system only.
                        report.boundary_outflow -= Joules::new(node.heat_input.value() * h);
                    }
                }
                if !matches!(node.kind, NodeKind::Boundary) {
                    report.source_input += Joules::new(node.heat_input.value() * h);
                }
            }
        }
        self.sanitize_temperatures("step", self.nodes.iter().map(|n| n.temperature));
        report
    }

    /// Physics sanitizer (armed in debug builds): every temperature a
    /// solver produces must be finite and inside the plausible coolant
    /// envelope of a warm water-cooled datacenter, [-50, 150] °C. A
    /// violation means a diverged integration or corrupted input, and
    /// panics in debug builds rather than letting NaN propagate into
    /// the TEG and TCO layers.
    fn sanitize_temperatures(&self, solver: &str, temperatures: impl Iterator<Item = Celsius>) {
        for (node, t) in self.nodes.iter().zip(temperatures) {
            let t = t.value();
            debug_assert!(
                t.is_finite() && (-50.0..=150.0).contains(&t),
                "sanitize: {solver} left node `{}` at {t} degC (finite, \
                 [-50, 150] expected)",
                node.label
            );
        }
    }

    /// Solves for the steady-state temperatures (all `dT/dt = 0`) without
    /// modifying the network.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::Floating`] if some capacitive node has no
    /// conductive path to any boundary (the system is singular).
    pub fn steady_state(&self) -> Result<SteadyState, ThermalError> {
        // Unknowns: temperatures of capacitive nodes.
        let unknowns: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Capacitive { .. }))
            .map(|(i, _)| i)
            .collect();
        let index_of: std::collections::HashMap<usize, usize> = unknowns
            .iter()
            .enumerate()
            .map(|(row, &node)| (node, row))
            .collect();
        let m = unknowns.len();
        if m == 0 {
            return Ok(SteadyState {
                temperatures: self.nodes.iter().map(|n| n.temperature).collect(),
            });
        }
        let mut a = vec![vec![0.0_f64; m]; m];
        let mut b = vec![0.0_f64; m];
        for (row, &i) in unknowns.iter().enumerate() {
            let node = &self.nodes[i];
            b[row] = node.heat_input.value();
            for &(j, g) in &node.edges {
                a[row][row] += g;
                match self.nodes[j].kind {
                    NodeKind::Capacitive { .. } => {
                        let col = index_of[&j];
                        a[row][col] -= g;
                    }
                    NodeKind::Boundary => {
                        b[row] += g * self.nodes[j].temperature.value();
                    }
                }
            }
        }
        let solution = gauss_solve(a, b).map_err(|row| ThermalError::Floating {
            label: self.nodes[unknowns[row]].label.clone(),
        })?;
        let mut temperatures: Vec<Celsius> = self.nodes.iter().map(|n| n.temperature).collect();
        for (row, &i) in unknowns.iter().enumerate() {
            temperatures[i] = Celsius::new(solution[row]);
        }
        self.sanitize_temperatures("steady_state", temperatures.iter().copied());
        Ok(SteadyState { temperatures })
    }

    /// Solves the steady state and writes the temperatures back into the
    /// network (a cheap way to start a transient from equilibrium).
    ///
    /// # Errors
    ///
    /// As for [`steady_state`](Self::steady_state).
    pub fn settle(&mut self) -> Result<(), ThermalError> {
        let ss = self.steady_state()?;
        for (i, node) in self.nodes.iter_mut().enumerate() {
            node.temperature = ss.temperatures[i];
        }
        Ok(())
    }
}

/// Gaussian elimination with partial pivoting; `Err(row)` reports the
/// pivot row that vanished (mapped to a floating-node diagnostic).
fn gauss_solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Result<Vec<f64>, usize> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            // h2p-lint: allow(L2): col..n is non-empty for col < n
            .expect("non-empty range");
        if a[pivot][col].abs() < 1e-12 {
            return Err(col);
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let pivot_row = a[col][col..].to_vec();
        for row in col + 1..n {
            let factor = a[row][col] / a[col][col];
            if !(factor.abs() > 0.0) {
                // Exact zero: nothing to eliminate. (A NaN factor also
                // lands here; the row is already poisoned either way.)
                continue;
            }
            for (ark, &pk) in a[row][col..].iter_mut().zip(&pivot_row) {
                *ark -= factor * pk;
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for (xk, ark) in x.iter().zip(&a[row]).skip(row + 1) {
            acc -= ark * xk;
        }
        x[row] = acc / a[row][row];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2p_units::DegC;

    fn simple_die() -> (ThermalNetwork, NodeId, NodeId) {
        let mut net = ThermalNetwork::new();
        let die = net.add_capacitive("die", 100.0, Celsius::new(40.0));
        let coolant = net.add_boundary("coolant", Celsius::new(40.0));
        net.connect_resistance(die, coolant, 0.25);
        (net, die, coolant)
    }

    #[test]
    fn steady_state_single_resistance() {
        let (mut net, die, coolant) = simple_die();
        net.set_heat_input(die, Watts::new(80.0));
        let ss = net.steady_state().unwrap();
        // T = T_coolant + P*R = 40 + 20.
        assert!((ss.temperature(die).value() - 60.0).abs() < 1e-9);
        assert_eq!(ss.temperature(coolant), Celsius::new(40.0));
    }

    #[test]
    fn transient_converges_to_steady_state() {
        let (mut net, die, _) = simple_die();
        net.set_heat_input(die, Watts::new(80.0));
        // tau = C*R = 25 s; run 24 tau so even the discrete fixed-point
        // iteration has fully converged.
        for _ in 0..600 {
            net.step(Seconds::new(1.0));
        }
        assert!((net.temperature(die).value() - 60.0).abs() < 1e-6);
    }

    #[test]
    fn transient_exponential_shape() {
        let (mut net, die, _) = simple_die();
        net.set_heat_input(die, Watts::new(80.0));
        // One time constant in fine steps; first-order Euler tracks the
        // analytic exponential to well under a degree at h = tau/250.
        for _ in 0..250 {
            net.step(Seconds::new(0.1));
        }
        let expected = 40.0 + 20.0 * (1.0 - (-1.0_f64).exp());
        assert!(
            (net.temperature(die).value() - expected).abs() < 0.1,
            "got {}",
            net.temperature(die)
        );
    }

    #[test]
    fn energy_ledger_balances() {
        let (mut net, die, _) = simple_die();
        net.set_heat_input(die, Watts::new(80.0));
        let report = net.step(Seconds::new(10.0));
        let residual = report.source_input - report.boundary_outflow - report.stored_delta;
        assert!(
            residual.value().abs() < 1e-9 * report.source_input.value().max(1.0),
            "ledger residual {residual:?}"
        );
        assert!(report.substeps >= 1);
    }

    #[test]
    fn two_stage_chain_superposition() {
        // die -R1- plate -R2- coolant: T_die = T_c + P*(R1+R2).
        let mut net = ThermalNetwork::new();
        let die = net.add_capacitive("die", 50.0, Celsius::new(30.0));
        let plate = net.add_capacitive("plate", 200.0, Celsius::new(30.0));
        let coolant = net.add_boundary("coolant", Celsius::new(30.0));
        net.connect_resistance(die, plate, 0.1);
        net.connect_resistance(plate, coolant, 0.15);
        net.set_heat_input(die, Watts::new(60.0));
        let ss = net.steady_state().unwrap();
        assert!((ss.temperature(die).value() - (30.0 + 60.0 * 0.25)).abs() < 1e-9);
        assert!((ss.temperature(plate).value() - (30.0 + 60.0 * 0.15)).abs() < 1e-9);
    }

    #[test]
    fn floating_node_detected() {
        let mut net = ThermalNetwork::new();
        let lonely = net.add_capacitive("lonely", 10.0, Celsius::new(20.0));
        net.set_heat_input(lonely, Watts::new(1.0));
        match net.steady_state() {
            Err(ThermalError::Floating { label }) => assert_eq!(label, "lonely"),
            other => panic!("expected Floating, got {other:?}"),
        }
    }

    #[test]
    fn settle_writes_back() {
        let (mut net, die, _) = simple_die();
        net.set_heat_input(die, Watts::new(80.0));
        net.settle().unwrap();
        assert!((net.temperature(die).value() - 60.0).abs() < 1e-9);
        // After settling, a step changes nothing.
        net.step(Seconds::new(5.0));
        assert!((net.temperature(die).value() - 60.0).abs() < 1e-6);
    }

    #[test]
    fn boundary_update_shifts_equilibrium() {
        let (mut net, die, coolant) = simple_die();
        net.set_heat_input(die, Watts::new(80.0));
        net.set_boundary_temperature(coolant, Celsius::new(50.0));
        let ss = net.steady_state().unwrap();
        assert!((ss.temperature(die).value() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_edges_add_conductance() {
        let mut net = ThermalNetwork::new();
        let die = net.add_capacitive("die", 10.0, Celsius::new(0.0));
        let sink = net.add_boundary("sink", Celsius::new(0.0));
        net.connect(die, sink, 2.0);
        net.connect(die, sink, 2.0);
        net.set_heat_input(die, Watts::new(8.0));
        let ss = net.steady_state().unwrap();
        assert!((ss.temperature(die).value() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn step_with_zero_dt_is_noop() {
        let (mut net, die, _) = simple_die();
        let before = net.temperature(die);
        let report = net.step(Seconds::new(0.0));
        assert_eq!(net.temperature(die), before);
        assert_eq!(report.substeps, 0);
    }

    #[test]
    fn cooling_transient_decays() {
        let (mut net, die, _) = simple_die();
        // Start hot with no input; must decay toward coolant temperature.
        net.set_heat_input(die, Watts::zero());
        net.set_boundary_temperature(NodeId(1), Celsius::new(20.0));
        // Die starts at 40.
        let mut prev = net.temperature(die).value();
        for _ in 0..100 {
            net.step(Seconds::new(1.0));
            let now = net.temperature(die).value();
            assert!(now <= prev + 1e-12);
            prev = now;
        }
        assert!((prev - 20.0).abs() < 0.5);
    }

    #[test]
    fn labels_and_sizes() {
        let (net, die, coolant) = simple_die();
        assert_eq!(net.label(die), "die");
        assert_eq!(net.label(coolant), "coolant");
        assert_eq!(net.len(), 2);
        assert!(!net.is_empty());
        assert_eq!(die.index(), 0);
    }

    #[test]
    fn delta_type_roundtrip() {
        // DegC used internally for increments behaves linearly.
        let t = Celsius::new(10.0) + DegC::new(5.0) - DegC::new(3.0);
        assert_eq!(t, Celsius::new(12.0));
    }
}
