//! Typed scenario requests and their canonical content-addressed keys.
//!
//! A [`ScenarioRequest`] names everything that determines a simulation
//! result — trace slice, policy, fault seed, placement, circulation
//! size — plus the engine worker budget, which changes no bit
//! (DESIGN.md §8) but is kept in the key. Its
//! [`canonical key`](ScenarioKey) is a pure function of those inputs,
//! so two requests with equal keys are guaranteed (by the engine's
//! determinism contract, DESIGN.md §8/§11) to produce bit-identical
//! [`SimulationResult`]s — which is what lets the scheduler coalesce
//! duplicates and the result cache replay responses without ever
//! changing observable bits. The submitting tenant is admission
//! metadata and stays out of the key.
//!
//! [`SimulationResult`]: h2p_core::simulation::SimulationResult

use h2p_core::simulation::Simulator;
use h2p_faults::{FaultError, FaultPlan, HazardRates};
use h2p_jobs::{synthetic_jobs, JobsError, PlacementEngine, PlacementPolicyKind};
use h2p_sched::{BoundedMigration, Consolidate, LoadBalance, Original, SchedulingPolicy};
use h2p_units::Seconds;
use h2p_workload::{ClusterTrace, TraceGenerator, TraceKind};
use std::fmt;
use std::num::NonZeroUsize;

/// The scheduling policy a scenario runs under, in data form (so it can
/// be keyed, compared, and parsed off the wire).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// `TEG_Original`: no scheduling.
    Original,
    /// `TEG_LoadBalance`: perfect balancing.
    LoadBalance,
    /// `TEG_Consolidate`: energy-proportionality packing.
    Consolidate,
    /// `TEG_BoundedMigration`: balancing under a migration budget.
    BoundedMigration {
        /// Per-server per-interval load budget (fraction of capacity).
        max_step: f64,
    },
}

/// A [`PolicyKind`] materialized into a concrete policy value. Holding
/// the concrete variants (rather than a `Box<dyn ...>`) keeps request
/// handling allocation-free and `Copy`.
#[derive(Debug, Clone, Copy)]
pub enum BuiltPolicy {
    /// See [`Original`].
    Original(Original),
    /// See [`LoadBalance`].
    LoadBalance(LoadBalance),
    /// See [`Consolidate`].
    Consolidate(Consolidate),
    /// See [`BoundedMigration`].
    BoundedMigration(BoundedMigration),
}

impl BuiltPolicy {
    /// The policy as the trait object the engine consumes.
    #[must_use]
    pub fn as_dyn(&self) -> &dyn SchedulingPolicy {
        match self {
            BuiltPolicy::Original(p) => p,
            BuiltPolicy::LoadBalance(p) => p,
            BuiltPolicy::Consolidate(p) => p,
            BuiltPolicy::BoundedMigration(p) => p,
        }
    }
}

impl PolicyKind {
    /// Builds the concrete policy. The caller must have validated the
    /// kind first (see [`PolicyKind::validate`]): `BoundedMigration`
    /// with a negative or NaN budget has no meaning.
    ///
    /// # Panics
    ///
    /// Panics if an invalid `BoundedMigration` budget slipped past
    /// validation ([`BoundedMigration::new`]'s contract).
    #[must_use]
    pub fn build(&self) -> BuiltPolicy {
        match *self {
            PolicyKind::Original => BuiltPolicy::Original(Original),
            PolicyKind::LoadBalance => BuiltPolicy::LoadBalance(LoadBalance),
            PolicyKind::Consolidate => BuiltPolicy::Consolidate(Consolidate),
            PolicyKind::BoundedMigration { max_step } => {
                BuiltPolicy::BoundedMigration(BoundedMigration::new(max_step))
            }
        }
    }

    /// Checks the kind is meaningful; returns the offending detail
    /// otherwise.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the policy parameters are out of
    /// domain.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            PolicyKind::BoundedMigration { max_step } => {
                if max_step.is_finite() && max_step >= 0.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "bounded_migration max_step must be finite and >= 0, got {max_step}"
                    ))
                }
            }
            _ => Ok(()),
        }
    }

    /// The wire/key spelling. `BoundedMigration` embeds the exact bit
    /// pattern of its budget so that two budgets that print alike but
    /// differ in the last ulp never share a key.
    #[must_use]
    pub fn canonical(&self) -> String {
        match *self {
            PolicyKind::Original => "original".to_owned(),
            PolicyKind::LoadBalance => "load_balance".to_owned(),
            PolicyKind::Consolidate => "consolidate".to_owned(),
            PolicyKind::BoundedMigration { max_step } => {
                format!("bounded_migration[{:016x}]", max_step.to_bits())
            }
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

/// The trace slice a scenario simulates: a deterministic synthetic
/// trace, fully named by generator inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpec {
    /// Which paper workload shape to generate.
    pub kind: TraceKind,
    /// Generator seed.
    pub seed: u64,
    /// Cluster size in servers.
    pub servers: usize,
    /// Number of control intervals.
    pub steps: usize,
}

impl TraceSpec {
    /// The generator the spec names. A served plain run streams from
    /// it ([`Simulator::run_fleet_with_faults`]) and never holds the
    /// trace.
    ///
    /// # Panics
    ///
    /// Panics if `servers` or `steps` is zero ([`TraceGenerator`]'s
    /// contract; admission refuses both).
    #[must_use]
    pub(crate) fn generator(&self) -> TraceGenerator {
        TraceGenerator::paper(self.kind, self.seed)
            .with_servers(self.servers)
            .with_steps(self.steps)
    }

    /// Materializes the trace (deterministic in the spec).
    #[must_use]
    pub fn generate(&self) -> ClusterTrace {
        self.generator().generate()
    }
}

/// The geometry a served fault plan is compiled for: a run's server
/// count, control intervals and interval length. A materialized trace
/// and a generator both have one, so a plain request's plan needs no
/// trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunGeometry {
    /// Servers in the run.
    pub servers: usize,
    /// Control intervals in the run.
    pub steps: usize,
    /// The control interval.
    pub interval: Seconds,
}

impl From<&ClusterTrace> for RunGeometry {
    fn from(trace: &ClusterTrace) -> Self {
        RunGeometry {
            servers: trace.servers(),
            steps: trace.steps(),
            interval: trace.interval(),
        }
    }
}

impl From<&TraceGenerator> for RunGeometry {
    fn from(generator: &TraceGenerator) -> Self {
        RunGeometry {
            servers: generator.servers(),
            steps: generator.steps(),
            interval: generator.interval(),
        }
    }
}

/// One scenario query: everything the engine needs, nothing more.
///
/// Fault semantics: `fault_seed = None` runs the plan-free engine
/// (`Simulator::run`); `Some(seed)` runs `Simulator::run_with_faults`
/// under a hazard-sampled plan
/// ([`HazardRates::accelerated_demo`](h2p_faults::HazardRates::accelerated_demo)
/// compiled for the request's exact geometry), so a fault scenario is
/// as reproducible as a healthy one.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRequest {
    /// The trace slice to simulate.
    pub trace: TraceSpec,
    /// The scheduling policy.
    pub policy: PolicyKind,
    /// Fault-plan seed (`None` = healthy run).
    pub fault_seed: Option<u64>,
    /// Placement scenario: `None` simulates the generated trace
    /// directly; `Some(kind)` synthesizes shaped jobs from the trace
    /// spec (same kind/seed/geometry) and simulates the trace the
    /// placement engine materializes under that placement policy (see
    /// [`ScenarioRequest::materialize`]). Part of the scenario key —
    /// placement changes the simulated bits.
    pub placement: Option<PlacementPolicyKind>,
    /// Servers per water circulation (the CDU granularity).
    pub servers_per_circulation: usize,
    /// Engine worker budget for this scenario.
    pub workers: NonZeroUsize,
    /// Submitting tenant, for per-tenant admission quotas (`None` =
    /// unattributed, never quota-limited). The tenant is deliberately
    /// *not* part of the scenario key: the same scenario submitted by
    /// two tenants still coalesces onto one engine run.
    pub tenant: Option<String>,
}

impl ScenarioRequest {
    /// A paper-default request shape: 40-server circulations, one
    /// worker, healthy.
    #[must_use]
    pub fn new(trace: TraceSpec, policy: PolicyKind) -> Self {
        ScenarioRequest {
            trace,
            policy,
            fault_seed: None,
            placement: None,
            servers_per_circulation: 40,
            workers: NonZeroUsize::MIN,
            tenant: None,
        }
    }

    /// Attributes the request to a tenant (builder style; see
    /// [`ScenarioRequest::tenant`]).
    #[must_use]
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Turns the request into a placement scenario (builder style; see
    /// [`ScenarioRequest::placement`]).
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementPolicyKind) -> Self {
        self.placement = Some(placement);
        self
    }

    /// Materializes the cluster trace this request simulates: the
    /// named generator trace, or — for placement requests — the trace
    /// the placement engine synthesizes from shaped synthetic jobs on
    /// the given engine. This is the *single* construction point for
    /// served placement traces (the service and the transparency tests
    /// both call it), so a served placement scenario is
    /// bit-reproducible from the request plus the engine shape alone.
    /// The service streams a plain request from its trace generator
    /// instead, bit-identical to running this trace.
    ///
    /// # Errors
    ///
    /// Propagates [`JobsError`] from the placement engine (cannot
    /// happen for a validated request on the paper grid).
    pub fn materialize(&self, engine: &Simulator) -> Result<ClusterTrace, JobsError> {
        match self.placement {
            None => Ok(self.trace.generate()),
            Some(kind) => {
                let policy = self.policy.build();
                let placer = PlacementEngine::new(
                    engine,
                    policy.as_dyn(),
                    self.trace.servers,
                    self.trace.steps,
                )?;
                let jobs = synthetic_jobs(
                    self.trace.kind,
                    self.trace.seed,
                    self.trace.servers,
                    self.trace.steps,
                    placer.interval(),
                );
                Ok(placer.place(&jobs, &mut *kind.build())?.trace)
            }
        }
    }

    /// The deterministic fault plan this request names, compiled for
    /// the run's exact geometry (a trace's or a generator's, see
    /// [`RunGeometry`]) — `None` for a healthy request. This is the
    /// *single* construction point for served fault plans: the service
    /// and the transparency tests both call it, so a served fault
    /// scenario is bit-reproducible from the request alone.
    ///
    /// # Errors
    ///
    /// The inner result propagates [`FaultError`] from hazard
    /// validation.
    #[must_use]
    pub fn fault_plan(&self, run: impl Into<RunGeometry>) -> Option<Result<FaultPlan, FaultError>> {
        let seed = self.fault_seed?;
        let run = run.into();
        Some(FaultPlan::from_hazards(
            &HazardRates::accelerated_demo(),
            seed,
            run.servers,
            self.circulation(run.servers),
            run.steps,
            run.interval,
        ))
    }

    /// Servers per circulation in a run over `servers` servers, as the
    /// engine sizes it: the request's circulation, capped at the run.
    pub(crate) fn circulation(&self, servers: usize) -> usize {
        self.servers_per_circulation.min(servers).max(1)
    }

    /// The canonical content-addressed key (see [`ScenarioKey`]).
    #[must_use]
    pub fn key(&self) -> ScenarioKey {
        let faults = match self.fault_seed {
            None => "none".to_owned(),
            Some(seed) => format!("hazard[{seed}]"),
        };
        let placement = match self.placement {
            None => "none",
            Some(kind) => kind.name(),
        };
        ScenarioKey::from_canonical(format!(
            "trace={kind}:seed={seed}:srv={srv}:steps={steps};policy={policy};placement={placement};faults={faults};circ={circ};workers={workers}",
            kind = self.trace.kind.name(),
            seed = self.trace.seed,
            srv = self.trace.servers,
            steps = self.trace.steps,
            policy = self.policy.canonical(),
            circ = self.servers_per_circulation,
            workers = self.workers.get(),
        ))
    }
}

/// The canonical content address of a scenario: a stable string naming
/// every result-determining input, plus an FNV-1a fingerprint for
/// compact display and shard routing. Equality, ordering, and hashing
/// use the *full* canonical string — the fingerprint is never trusted
/// for identity, so hash collisions cannot alias two scenarios. The
/// `Ord` instance (byte order of the canonical string) is what makes
/// keyed containers like the result cache iterate deterministically.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ScenarioKey {
    canonical: String,
}

impl ScenarioKey {
    fn from_canonical(canonical: String) -> Self {
        ScenarioKey { canonical }
    }

    /// The canonical string form.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.canonical
    }

    /// 64-bit FNV-1a fingerprint of the canonical form, for display and
    /// shard routing; never for identity.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for byte in self.canonical.as_bytes() {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }
}

impl fmt::Display for ScenarioKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.fingerprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_request() -> ScenarioRequest {
        ScenarioRequest::new(
            TraceSpec {
                kind: TraceKind::Common,
                seed: 7,
                servers: 80,
                steps: 12,
            },
            PolicyKind::LoadBalance,
        )
    }

    #[test]
    fn equal_requests_share_a_key() {
        assert_eq!(base_request().key(), base_request().key());
        assert_eq!(
            base_request().key().fingerprint(),
            base_request().key().fingerprint()
        );
    }

    #[test]
    fn every_result_determining_field_splits_the_key() {
        let base = base_request();
        let mut variants = Vec::new();
        let mut v = base.clone();
        v.trace.kind = TraceKind::Drastic;
        variants.push(v);
        let mut v = base.clone();
        v.trace.seed = 8;
        variants.push(v);
        let mut v = base.clone();
        v.trace.servers = 81;
        variants.push(v);
        let mut v = base.clone();
        v.trace.steps = 13;
        variants.push(v);
        let mut v = base.clone();
        v.policy = PolicyKind::Original;
        variants.push(v);
        let mut v = base.clone();
        v.fault_seed = Some(1);
        variants.push(v);
        let mut v = base.clone();
        v.placement = Some(h2p_jobs::PlacementPolicyKind::HarvestAware);
        variants.push(v);
        let mut v = base.clone();
        v.servers_per_circulation = 20;
        variants.push(v);
        let mut v = base.clone();
        v.workers = NonZeroUsize::new(2).unwrap();
        variants.push(v);
        for variant in variants {
            assert_ne!(variant.key(), base.key(), "{:?}", variant);
        }
    }

    #[test]
    fn tenant_does_not_split_the_key() {
        // Two tenants asking the same question share one engine run;
        // quotas act at admission, not on result identity.
        let attributed = base_request().with_tenant("acme");
        assert_eq!(attributed.key(), base_request().key());
        assert_eq!(attributed.tenant.as_deref(), Some("acme"));
    }

    #[test]
    fn bounded_migration_key_is_bit_exact() {
        let a = PolicyKind::BoundedMigration { max_step: 0.2 };
        let b = PolicyKind::BoundedMigration {
            max_step: 0.2 + f64::EPSILON,
        };
        assert_ne!(a.canonical(), b.canonical());
    }

    #[test]
    fn policy_validation_rejects_nonsense_budgets() {
        assert!(PolicyKind::BoundedMigration { max_step: -0.1 }
            .validate()
            .is_err());
        assert!(PolicyKind::BoundedMigration { max_step: f64::NAN }
            .validate()
            .is_err());
        assert!(PolicyKind::BoundedMigration { max_step: 0.3 }
            .validate()
            .is_ok());
        assert!(PolicyKind::Original.validate().is_ok());
    }

    #[test]
    fn built_policies_match_their_kinds() {
        assert_eq!(PolicyKind::Original.build().as_dyn().name(), "TEG_Original");
        assert_eq!(
            PolicyKind::BoundedMigration { max_step: 0.25 }
                .build()
                .as_dyn()
                .name(),
            "TEG_BoundedMigration"
        );
    }
}
