//! Trace-driven datacenter simulation (paper Sec. V-C, Figs. 14-15).
//!
//! The engine divides the cluster into water circulations of
//! `servers_per_circulation` servers (the paper's CDU granularity —
//! "servers in one or several racks are controlled by one CDU and share
//! the same water circulation"). Every control interval, for every
//! circulation:
//!
//! 1. the scheduling policy rearranges the interval's loads and names
//!    the control utilization (`U_max` or `U_avg`, Step 1);
//! 2. the cooling optimizer picks `{f, T_warm_in}` from the lookup
//!    space (Steps 2-3);
//! 3. every server's coolant outlet and TEG output follow from its own
//!    (post-scheduling) load under the shared setting.
//!
//! # One driver, parallel lanes, an ordered fold
//!
//! Circulations are independent of each other, so every run — a
//! materialized [`run`](Simulator::run), a streamed
//! [`run_fleet`](Simulator::run_fleet), with or without a fault plan —
//! goes through one driver that hands each chunk's circulations to
//! the ordered fold of a scoped worker pool
//! ([`h2p_exec::try_par_fold`]) as *lanes*. A lane walks its
//! circulation through every control interval and evaluates every
//! step. A finished lane's partial aggregates are absorbed into every
//! step's running fold once every lower lane has been, **in
//! circulation-index order**, and no lane starts more than a window of
//! four lanes per worker ahead of that prefix, so a run holds the
//! partials of a bounded number of lanes whatever its size.
//! Sequential (`workers = 1`) and parallel runs produce bit-identical
//! [`SimulationResult`]s: every partial is a pure function of its
//! circulation's loads, and the absorb order never depends on thread
//! scheduling or on how the fleet was chunked.
//!
//! # One per-server evaluator
//!
//! Step 3 is one loop, `Simulator::evaluate`, and every server the
//! engine evaluates goes through it: the healthy world, each fault
//! layer (with a throttle cap and a TEG derate, see
//! [`crate::faulted`]) and the placement engine's thermal pass
//! ([`Simulator::evaluate_servers`]). Every accumulator adds in server
//! order, so all of them share one addition sequence. A run of servers
//! with bit-equal loads is looked up and priced once: under
//! `TEG_LoadBalance` every server of a circulation carries the same
//! load, so a circulation-step evaluates once instead of 40 times.
//!
//! # Every decision is solved fresh
//!
//! Step 2 is [`Simulator::optimized_setting`]: an optimizer built on
//! the spot from what the simulator built once
//! ([`Simulator::optimizer`] lends the band index, the pump prices and
//! the optimizer counters) solves `{f, T_warm_in}` for the exact
//! `(u_control, cold)` bits. Nothing memoizes the answer. Runs seldom
//! repeat a key (the six paper runs make 38,304 decisions on 38,304
//! distinct keys), and a solve costs about as much as the lookup and
//! insert an exact-key memo spent on a miss (see DESIGN.md §8.2).

use crate::faulted::{FaultSide, FaultedRun};
use crate::fleet::EngineLayout;
use crate::kernel::KernelTolerance;
use crate::H2pError;
use h2p_cooling::{
    CoolingOptimizer, CoolingPlant, OptimizedSetting, OptimizerTables, OptimizerTelemetry,
    PlantLoad,
};
use h2p_exec::{ChunkPlan, PoolTelemetry};
use h2p_faults::{CompiledFaults, FaultLedger, FaultPlan, StepAttribution, StepPowers};
use h2p_hydraulics::{ColdSource, Pump};
use h2p_sched::SchedulingPolicy;
use h2p_server::{CoolingSetting, CpuPowerModel, LookupSpace, ServerModel};
use h2p_teg::TegModule;
use h2p_telemetry::{BucketSpec, Counter, Histogram, Registry};
use h2p_units::{Celsius, DegC, Joules, LitersPerHour, Seconds, Utilization, Watts};
use h2p_workload::{ClusterTrace, ServerStart, TraceBasis, TraceGenerator};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Lanes a run lets finish ahead of the absorbed prefix, per worker:
/// the driver's ordered fold runs with a window of this many lanes per
/// worker. A finished lane waiting for a lower one holds its per-step
/// partials (80 B per step), so the window, not the run's size, bounds
/// what waits: at 4 × workers a slow lane may fall a few lanes behind
/// before any worker stalls.
const LANES_AHEAD_PER_WORKER: usize = 4;

/// Configuration of the simulated H2P datacenter.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Servers sharing one CDU/water circulation.
    pub servers_per_circulation: usize,
    /// CPU safety target (the controller's `T_safe`).
    pub t_safe: Celsius,
    /// Half-width of the safety band used in Step 2.
    pub tolerance: DegC,
    /// Cold-water source for the TEG cold loop.
    pub cold_source: ColdSource,
    /// TEGs per CPU.
    pub module: TegModule,
    /// Per-branch pump model.
    pub pump: Pump,
    /// The cooling plant (tower + chiller + FWS pumping) used for the
    /// PUE/ERE accounting.
    pub plant: CoolingPlant,
}

impl SimulationConfig {
    /// The paper's evaluation configuration: 40-server circulations
    /// (a rack pair per CDU), `T_safe = 62 °C ± 1 °C`, constant 20 °C
    /// cold water, 12 TEGs per CPU, prototype pump.
    #[must_use]
    pub fn paper_default() -> Self {
        SimulationConfig {
            servers_per_circulation: 40,
            t_safe: Celsius::new(62.0),
            tolerance: DegC::new(1.0),
            cold_source: ColdSource::paper_default(),
            module: TegModule::paper_module(),
            pump: Pump::paper_tcs_pump(),
            plant: CoolingPlant::paper_default(),
        }
    }
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig::paper_default()
    }
}

/// Aggregates for one control interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// Simulated time at the start of the interval.
    pub time: Seconds,
    /// Mean per-server TEG output over the interval.
    pub teg_power_per_server: Watts,
    /// Mean per-server CPU power (Eq. 20) over the interval.
    pub cpu_power_per_server: Watts,
    /// Mean per-server pump power.
    pub pump_power_per_server: Watts,
    /// Mean per-server cooling-plant power (tower + chiller + FWS
    /// pumps).
    pub cooling_power_per_server: Watts,
    /// Server-weighted mean of the chosen inlet temperatures over the
    /// *online* servers: each circulation's inlet counts once per
    /// server it cools, so a ragged final circulation (cluster size not
    /// divisible by the circulation size) contributes proportionally to
    /// its size, and circulations isolated offline by faults don't
    /// count at all (they cool nothing). With every server offline this
    /// falls back to the configured `t_safe` (the plant sees zero heat
    /// and zero flow then, so the value is inert).
    pub mean_inlet: Celsius,
    /// Mean coolant outlet temperature across servers.
    pub mean_outlet: Celsius,
    /// Cluster-mean utilization after scheduling.
    pub mean_utilization: Utilization,
    /// Cluster-peak utilization after scheduling.
    pub peak_utilization: Utilization,
    /// Servers whose predicted die exceeded the CPU maximum operating
    /// temperature this interval (should stay zero).
    pub thermal_violations: usize,
}

/// Result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    policy: &'static str,
    interval: Seconds,
    servers: usize,
    steps: Vec<StepRecord>,
}

impl SimulationResult {
    /// The policy that produced this run.
    #[must_use]
    pub fn policy(&self) -> &'static str {
        self.policy
    }

    /// The control interval.
    #[must_use]
    pub fn interval(&self) -> Seconds {
        self.interval
    }

    /// Number of simulated servers.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Per-interval records (the Fig. 14 series).
    #[must_use]
    pub fn steps(&self) -> &[StepRecord] {
        &self.steps
    }

    /// Mean of `field` over the recorded steps, or
    /// [`H2pError::EmptyRun`] when no step was recorded. An earlier
    /// revision divided by `len().max(1)`, silently laundering an
    /// empty run into a plausible 0 W that downstream TCO math would
    /// happily consume; the typed error matches
    /// [`partial_pue`](Self::partial_pue)/[`partial_ere`](Self::partial_ere).
    fn average_over_steps(&self, field: impl Fn(&StepRecord) -> f64) -> Result<Watts, H2pError> {
        if self.steps.is_empty() {
            return Err(H2pError::EmptyRun);
        }
        let total: f64 = self.steps.iter().map(field).sum();
        Ok(Watts::new(total / self.steps.len() as f64))
    }

    /// Time-average per-server TEG output (the headline Fig. 14 number).
    ///
    /// # Errors
    ///
    /// Returns [`H2pError::EmptyRun`] on a run with no recorded steps,
    /// where the average is undefined.
    pub fn average_teg_power(&self) -> Result<Watts, H2pError> {
        self.average_over_steps(|s| s.teg_power_per_server.value())
    }

    /// Peak per-server TEG output over the run (zero on an empty run —
    /// a maximum over nothing, not an average, so no value is being
    /// fabricated).
    #[must_use]
    pub fn peak_teg_power(&self) -> Watts {
        self.steps
            .iter()
            .map(|s| s.teg_power_per_server)
            .fold(Watts::zero(), Watts::max)
    }

    /// Time-average per-server CPU power.
    ///
    /// # Errors
    ///
    /// Returns [`H2pError::EmptyRun`] on a run with no recorded steps,
    /// where the average is undefined.
    pub fn average_cpu_power(&self) -> Result<Watts, H2pError> {
        self.average_over_steps(|s| s.cpu_power_per_server.value())
    }

    /// Time-average per-server cooling-plant power.
    ///
    /// # Errors
    ///
    /// Returns [`H2pError::EmptyRun`] on a run with no recorded steps,
    /// where the average is undefined.
    pub fn average_cooling_power(&self) -> Result<Watts, H2pError> {
        self.average_over_steps(|s| s.cooling_power_per_server.value())
    }

    /// Partial PUE over CPU + cooling + TCS pumps (lighting and power
    /// delivery excluded): `(IT + cooling + pumps) / IT`. Warm-water
    /// operation keeps this close to 1.
    ///
    /// # Errors
    ///
    /// Returns [`H2pError::EmptyRun`] on a run that recorded no IT
    /// power (an empty step list), where the ratio is undefined.
    pub fn partial_pue(&self) -> Result<f64, H2pError> {
        let it = self.average_cpu_power()?.value();
        if !(it > 0.0) {
            return Err(H2pError::EmptyRun);
        }
        let pumps = self
            .average_over_steps(|s| s.pump_power_per_server.value())?
            .value();
        Ok((it + self.average_cooling_power()?.value() + pumps) / it)
    }

    /// Partial ERE (Sec. II-C): the partial PUE numerator minus the TEG
    /// harvest, over IT power. H2P pushes this below the partial PUE.
    ///
    /// # Errors
    ///
    /// Returns [`H2pError::EmptyRun`] on a run that recorded no IT
    /// power, where the ratio is undefined.
    pub fn partial_ere(&self) -> Result<f64, H2pError> {
        Ok(self.partial_pue()? - self.pre())
    }

    /// Power reusing efficiency over the run (paper Eq. 19, Fig. 15).
    /// An empty run reuses nothing: this stays infallible through
    /// [`crate::metrics::pre`]'s documented zero-CPU contract (0 when
    /// no CPU power was recorded).
    #[must_use]
    pub fn pre(&self) -> f64 {
        let n = self.steps.len().max(1) as f64;
        let teg: f64 = self
            .steps
            .iter()
            .map(|s| s.teg_power_per_server.value())
            .sum();
        let cpu: f64 = self
            .steps
            .iter()
            .map(|s| s.cpu_power_per_server.value())
            .sum();
        crate::metrics::pre(Watts::new(teg / n), Watts::new(cpu / n))
    }

    /// Total electrical energy harvested by all TEGs over the run.
    #[must_use]
    pub fn total_harvested(&self) -> Joules {
        self.steps
            .iter()
            .map(|s| (s.teg_power_per_server * self.servers as f64).energy_over(self.interval))
            .sum()
    }

    /// Total thermal violations over the run (must be zero for a sound
    /// controller).
    #[must_use]
    pub fn total_violations(&self) -> usize {
        self.steps.iter().map(|s| s.thermal_violations).sum()
    }

    /// FNV-1a over the server count, the step count and the raw bits of
    /// every [`StepRecord`] field, so two digests are equal only when
    /// the runs are bit-identical (`0.0` and `-0.0` differ). The
    /// gateway's response bodies carry it, and the benchmark's stored
    /// digests are its values.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |bits: u64| {
            for b in bits.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.servers as u64);
        eat(self.steps.len() as u64);
        for step in &self.steps {
            eat(step.time.value().to_bits());
            eat(step.teg_power_per_server.value().to_bits());
            eat(step.cpu_power_per_server.value().to_bits());
            eat(step.pump_power_per_server.value().to_bits());
            eat(step.cooling_power_per_server.value().to_bits());
            eat(step.mean_inlet.value().to_bits());
            eat(step.mean_outlet.value().to_bits());
            eat(step.mean_utilization.value().to_bits());
            eat(step.peak_utilization.value().to_bits());
            eat(step.thermal_violations as u64);
        }
        h
    }
}

/// Memoizes nothing: what [`Simulator::cache_stats`] reports, kept only
/// because `h2pbench`, its one caller, reads its decision count from
/// it; ROADMAP item 1 deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Always 0: the engine keeps no setting memo.
    pub hits: u64,
    /// Decisions since the simulator was built or cloned: its
    /// [`Simulator::optimized_setting`] calls and the solves of every
    /// lane its runs finished.
    pub misses: u64,
}

/// The decisions behind [`CacheStats::misses`]. A clone starts at
/// zero, so engines never share a count.
#[derive(Debug, Default)]
struct SettingCalls(AtomicU64);

impl Clone for SettingCalls {
    fn clone(&self) -> Self {
        SettingCalls::default()
    }
}

/// The engine's telemetry handles, resolved once per attachment (see
/// [`Simulator::with_telemetry`]). The disabled bundle makes every
/// observation a branch; the engine's numeric path is identical either
/// way (asserted by `tests/telemetry_transparency.rs`).
#[derive(Debug, Clone)]
struct EngineTelemetry {
    registry: Registry,
    pool: PoolTelemetry,
    /// The optimizer's counters, lent to every decision.
    optimizer: OptimizerTelemetry,
    /// Wall time of each lane: one circulation walked through every
    /// step.
    circ_wall: Histogram,
    runs: Counter,
    steps: Counter,
    /// Circulation-steps evaluated: every one of every run.
    circs_evaluated: Counter,
}

impl EngineTelemetry {
    fn disabled() -> Self {
        EngineTelemetry {
            registry: Registry::disabled(),
            pool: PoolTelemetry::disabled(),
            optimizer: OptimizerTelemetry::disabled(),
            circ_wall: Histogram::disabled(),
            runs: Counter::new(),
            steps: Counter::new(),
            circs_evaluated: Counter::new(),
        }
    }

    fn from_registry(registry: &Registry) -> Self {
        if !registry.is_enabled() {
            return EngineTelemetry::disabled();
        }
        EngineTelemetry {
            registry: registry.clone(),
            pool: PoolTelemetry::from_registry(registry),
            optimizer: OptimizerTelemetry::from_registry(registry),
            // A crate-internal name with one fixed spec never collides.
            circ_wall: registry
                .histogram(
                    "engine.circulation_wall_nanos",
                    &BucketSpec::duration_default(),
                )
                .unwrap_or_else(|_| Histogram::disabled()),
            runs: registry.counter("engine.runs"),
            steps: registry.counter("engine.steps"),
            circs_evaluated: registry.counter("engine.circulations_evaluated"),
        }
    }

    /// Records one finished control interval.
    fn note_step(&self) {
        if self.registry.is_enabled() {
            self.steps.incr();
        }
    }

    /// Records one finished run of `circ_steps` circulation-steps.
    fn note_run(&self, circ_steps: u64) {
        if self.registry.is_enabled() {
            self.runs.incr();
            self.circs_evaluated.add(circ_steps);
        }
    }
}

/// Partial aggregates of one circulation over one control interval —
/// what a lane produces per step — and, absorbed in circulation-index
/// order, the running fold of a whole interval. Summation happens
/// within the circulation (server order), and partials are absorbed in
/// circulation-index order, so the grand totals are independent of how
/// circulations were sharded across threads or chunked.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CircPartial {
    pub(crate) teg: f64,
    pub(crate) cpu: f64,
    pub(crate) pump: f64,
    pub(crate) flow: f64,
    /// Inlet temperature weighted by the circulation's server count
    /// (the per-server weighting behind `StepRecord::mean_inlet`).
    pub(crate) inlet_weighted: f64,
    pub(crate) outlet: f64,
    pub(crate) util: f64,
    pub(crate) peak: Utilization,
    pub(crate) violations: usize,
    /// Servers this circulation actually cooled this interval — the
    /// circulation size normally, `0` when isolated offline. The
    /// supply-setpoint mean divides by this, not the cluster size, so
    /// offline circulations (whose `inlet_weighted` is 0) cannot drag
    /// the setpoint toward 0 °C.
    pub(crate) online: usize,
}

impl CircPartial {
    /// The all-zero partial: what an *isolated* (offline) circulation
    /// contributes — no load, no harvest, no flow, no online servers —
    /// and the start of every interval's fold.
    pub(crate) const ZERO: CircPartial = CircPartial {
        teg: 0.0,
        cpu: 0.0,
        pump: 0.0,
        flow: 0.0,
        inlet_weighted: 0.0,
        outlet: 0.0,
        util: 0.0,
        peak: Utilization::IDLE,
        violations: 0,
        online: 0,
    };

    /// Absorbs one circulation's partial into a running fold. Callers
    /// must absorb partials in circulation-index order (f64 addition
    /// is not associative): every chunking then executes the exact
    /// same addition sequence, which is what makes `run` and
    /// `run_fleet` bit-identical.
    fn absorb(&mut self, p: CircPartial) {
        self.teg += p.teg;
        self.cpu += p.cpu;
        self.pump += p.pump;
        self.flow += p.flow;
        self.inlet_weighted += p.inlet_weighted;
        self.outlet += p.outlet;
        self.util += p.util;
        self.peak = self.peak.max(p.peak);
        self.violations += p.violations;
        self.online += p.online;
    }
}

/// The cooling setting a circulation's servers are evaluated under:
/// the optimizer's choice, the clamped fallback, or a pump fault's
/// derated flow.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Resolved {
    pub(crate) flow: LitersPerHour,
    pub(crate) inlet: Celsius,
    /// Per-server pump power share at this flow, watts.
    pub(crate) pump_per_server: f64,
}

impl From<&OptimizedSetting> for Resolved {
    fn from(chosen: &OptimizedSetting) -> Self {
        Resolved {
            flow: chosen.setting.flow,
            inlet: chosen.setting.inlet,
            pump_per_server: chosen.pump_power.value(),
        }
    }
}

/// The trace-driven H2P simulator.
///
/// Building a simulator runs the measurement campaign that fits the
/// lookup space and builds the optimizer's tables (once); individual
/// [`run`](Simulator::run)s then share them (see the
/// [module docs](self) for the determinism contract).
#[derive(Debug, Clone)]
pub struct Simulator {
    pub(crate) config: SimulationConfig,
    pub(crate) space: LookupSpace,
    /// The band index and pump prices every decision reads.
    tables: OptimizerTables,
    pub(crate) power_model: CpuPowerModel,
    pub(crate) max_operating: Celsius,
    workers: NonZeroUsize,
    setting_calls: SettingCalls,
    telemetry: EngineTelemetry,
}

impl Simulator {
    /// Creates a simulator for a server model and configuration.
    ///
    /// The worker count defaults to the machine's available parallelism
    /// (see [`with_workers`](Self::with_workers)).
    ///
    /// # Errors
    ///
    /// Propagates lookup-space construction failures, and
    /// [`H2pError::Cooling`] for a configured `t_safe` or tolerance the
    /// optimizer refuses (non-finite, or a tolerance that is not
    /// strictly positive).
    pub fn new(model: &ServerModel, config: SimulationConfig) -> Result<Self, H2pError> {
        let space = LookupSpace::paper_grid(model)?;
        let tables = OptimizerTables::new(&space, config.pump, config.t_safe, config.tolerance)?;
        Ok(Simulator {
            config,
            space,
            tables,
            power_model: *model.power_model(),
            max_operating: model.spec().max_operating,
            workers: h2p_exec::worker_count(),
            setting_calls: SettingCalls::default(),
            telemetry: EngineTelemetry::disabled(),
        })
    }

    /// The paper's simulator: calibrated server model and paper
    /// configuration.
    ///
    /// # Errors
    ///
    /// Propagates lookup-space construction failures.
    pub fn paper_default() -> Result<Self, H2pError> {
        Simulator::new(
            &ServerModel::paper_default(),
            SimulationConfig::paper_default(),
        )
    }

    /// Sets the number of worker threads that circulation lanes are
    /// sharded across (`1` forces the spawn-free sequential path).
    /// Results are bit-identical for every worker count.
    #[must_use]
    pub fn with_workers(mut self, workers: NonZeroUsize) -> Self {
        self.workers = workers;
        self
    }

    /// The worker-thread count runs shard their lanes across.
    #[must_use]
    pub fn workers(&self) -> NonZeroUsize {
        self.workers
    }

    /// Sets [`SimulationConfig::servers_per_circulation`]. The lookup
    /// space and the optimizer tables do not depend on it, so a clone
    /// serves another circulation size without a new measurement
    /// campaign, and its results are bit-identical to those of a
    /// simulator built with that configuration.
    #[must_use]
    pub fn with_servers_per_circulation(mut self, servers: usize) -> Self {
        self.config.servers_per_circulation = servers;
        self
    }

    /// Returns the simulator unchanged: every run evaluates every
    /// circulation-step, so a tolerance selects nothing (see
    /// [`KernelTolerance`]). Its only caller is `h2pbench`; ROADMAP
    /// item 1 deletes it.
    #[must_use]
    pub fn with_kernel_tolerance(self, _tolerance: KernelTolerance) -> Self {
        self
    }

    /// Returns the simulator unchanged: the engine has one per-server
    /// loop, so there is no layout to select (see [`EngineLayout`]).
    #[must_use]
    pub fn with_layout(self, _layout: EngineLayout) -> Self {
        self
    }

    /// Attaches a telemetry registry: the per-lane wall-time
    /// histogram, pool telemetry, the run, step and circulation-step
    /// counters and the optimizer's counters (resolved here, once, and
    /// lent to every decision) all become visible through `registry`
    /// (and in its [`RunReport`](h2p_telemetry::RunReport)). Attaching
    /// [`Registry::disabled`] detaches. Simulation *results* are
    /// bit-identical with telemetry attached or not — observation
    /// never feeds back into the physics.
    #[must_use]
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.telemetry = EngineTelemetry::from_registry(registry);
        self
    }

    /// The attached telemetry registry ([`Registry::disabled`] when
    /// none was attached).
    #[must_use]
    pub fn telemetry_registry(&self) -> &Registry {
        &self.telemetry.registry
    }

    /// Memoizes nothing: `hits` is always 0, and `misses` counts the
    /// decisions since the simulator was built or cloned — its
    /// [`optimized_setting`](Self::optimized_setting) calls and every
    /// finished lane's solves — with or without telemetry. Its only
    /// caller is `h2pbench`; ROADMAP item 1 deletes it.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: 0,
            misses: self.setting_calls.0.load(Ordering::Relaxed),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The fitted lookup space.
    #[must_use]
    pub fn lookup_space(&self) -> &LookupSpace {
        &self.space
    }

    /// Runs a policy over a cluster trace.
    ///
    /// # Errors
    ///
    /// Returns [`H2pError::NoFeasibleSetting`] if the optimizer cannot
    /// serve some interval (cannot happen on the paper grid) and
    /// propagates lookup errors.
    pub fn run(
        &self,
        cluster: &ClusterTrace,
        policy: &dyn SchedulingPolicy,
    ) -> Result<SimulationResult, H2pError> {
        Ok(self
            .run_with_faults(cluster, policy, &FaultPlan::none())?
            .result)
    }

    /// Streams a fleet-scale run without ever materializing the trace:
    /// chunk by chunk, following the [`ChunkPlan`]'s circulation →
    /// chunk → lane hierarchy, a sequential recording pass
    /// ([`TraceBasis::starts`]) notes where each of the chunk's servers
    /// begins in the trace's RNG stream (32 B per server), and every
    /// lane synthesizes its own circulation from those start states.
    /// The plan bounds only those start states: the driver absorbs each
    /// lane's per-step partials as soon as every lower lane has been,
    /// so what waits is bounded by the worker count, not by the fleet.
    /// The result is **bit-identical** to materializing the trace with
    /// [`TraceGenerator::generate`] and calling [`run`](Self::run) on
    /// the same simulator — worker count included, because both go
    /// through the same driver and every server runs the same synthesis
    /// code from the same RNG state (`tests/fleet_transparency.rs` is
    /// the oracle). It is
    /// [`run_fleet_with_faults`](Self::run_fleet_with_faults) under
    /// [`FaultPlan::none`].
    ///
    /// # Errors
    ///
    /// Returns [`H2pError::FleetPlanMismatch`] when the plan's server
    /// count or circulation size disagrees with the generator or the
    /// simulator configuration, and otherwise the same errors as
    /// [`run`](Self::run).
    pub fn run_fleet(
        &self,
        generator: &TraceGenerator,
        policy: &dyn SchedulingPolicy,
        plan: &ChunkPlan,
    ) -> Result<SimulationResult, H2pError> {
        Ok(self
            .run_fleet_with_faults(generator, policy, plan, &FaultPlan::none())?
            .result)
    }

    /// [`run_fleet`](Self::run_fleet) with a fault plan injected: the
    /// streamed twin of [`run_with_faults`](Self::run_with_faults),
    /// bit-identical to it on the materialized trace, ledger and fault
    /// journal included, since both absorb the same lanes in the same
    /// circulation order.
    ///
    /// # Errors
    ///
    /// The same as [`run_fleet`](Self::run_fleet).
    pub fn run_fleet_with_faults(
        &self,
        generator: &TraceGenerator,
        policy: &dyn SchedulingPolicy,
        plan: &ChunkPlan,
        faults: &FaultPlan,
    ) -> Result<FaultedRun, H2pError> {
        let servers = generator.servers();
        let circ_size = self.circulation_size(servers);
        if plan.servers() != servers {
            return Err(H2pError::FleetPlanMismatch {
                what: "server count",
                expected: servers,
                got: plan.servers(),
            });
        }
        if plan.circulation_size().get() != circ_size {
            return Err(H2pError::FleetPlanMismatch {
                what: "circulation size",
                expected: circ_size,
                got: plan.circulation_size().get(),
            });
        }
        let basis = generator.basis();
        // The plan's chunks partition the generator's servers, so each
        // takes exactly its own servers' starts.
        let mut starts = basis.starts();
        let chunks = plan.chunks().map(|chunk| {
            Chunk::Starts(&basis, starts.by_ref().take(chunk.servers.len()).collect())
        });
        let shape = (servers, generator.steps(), generator.interval());
        self.drive(shape, chunks, policy, faults)
    }

    /// Servers per circulation for a run over `servers` servers.
    fn circulation_size(&self, servers: usize) -> usize {
        self.config.servers_per_circulation.min(servers).max(1)
    }

    /// The engine's one step driver, behind every run. `shape` is the
    /// whole run's `(servers, steps, interval)`; `chunks` yields its
    /// servers in index order as [`Chunk`]s that never split a
    /// circulation (a materialized run is one chunk). Each chunk's
    /// circulations go to the worker pool's ordered fold as lanes, each
    /// lane walking its circulation through every step. A finished lane
    /// is absorbed into every step's folds and the [`FaultLedger`] once
    /// every lower lane has been, so at most
    /// `LANES_AHEAD_PER_WORKER` × workers lanes' partials ever wait;
    /// the folds then feed the plant and the fault journal step by
    /// step. The absorb order is circulation-index order, so results
    /// and journals are independent of worker count and chunk plan.
    pub(crate) fn drive<'a>(
        &self,
        (servers, n_steps, interval): (usize, usize, Seconds),
        chunks: impl Iterator<Item = Chunk<'a>>,
        policy: &dyn SchedulingPolicy,
        plan: &FaultPlan,
    ) -> Result<FaultedRun, H2pError> {
        let circ_size = self.circulation_size(servers);
        let time = |step: usize| Seconds::new(interval.value() * step as f64);
        let run = RunInputs {
            policy,
            colds: (0..n_steps)
                .map(|step| self.config.cold_source.temperature(time(step)))
                .collect(),
            compiled: plan.compile(servers, circ_size, n_steps),
        };

        // Per step: the faulted and healthy folds and the per-class
        // attribution sums (sensor, pump, TEG).
        let mut folds = vec![(CircPartial::ZERO, CircPartial::ZERO, [0.0; 3]); n_steps];
        let mut ledger = FaultLedger::new(interval);
        let window = NonZeroUsize::new(self.workers.get().saturating_mul(LANES_AHEAD_PER_WORKER))
            .unwrap_or(self.workers);
        let mut first_circ = 0;
        for chunk in chunks {
            let circs: Vec<usize> =
                (first_circ..first_circ + chunk.servers().div_ceil(circ_size)).collect();
            // Lanes are absorbed in circulation-index order: every
            // step's folds see their additions in global circulation
            // order, whatever the chunking, the worker count or the
            // order lanes finish in.
            h2p_exec::try_par_fold(
                &self.telemetry.pool,
                self.workers,
                window,
                &circs,
                |_, &circ| {
                    let start = (circ - first_circ) * circ_size;
                    let end = start.saturating_add(circ_size).min(chunk.servers());
                    self.run_lane(&run, &chunk, start..end, circ)
                },
                |_, lane| lane.fold_into(&mut folds, &mut ledger),
            )?;
            first_circ += circs.len();
        }

        let n = servers as f64;
        let totals = |r: &StepRecord| StepPowers {
            teg: Watts::new(r.teg_power_per_server.value() * n),
            it: Watts::new(r.cpu_power_per_server.value() * n),
            pump: Watts::new(r.pump_power_per_server.value() * n),
            plant: Watts::new(r.cooling_power_per_server.value() * n),
        };
        let mut steps = Vec::with_capacity(n_steps);
        for (step, (faulted, healthy, attr)) in folds.iter().enumerate() {
            let record = self.finish_step(time(step), servers, faulted);
            let healthy = self.finish_step(time(step), servers, healthy);
            ledger.record_step(totals(&healthy), totals(&record));
            let mut attribution = StepAttribution::zero();
            attribution.sensor = Watts::new(attr[0]);
            attribution.pump = Watts::new(attr[1]);
            attribution.teg = Watts::new(attr[2]);
            ledger.record_attribution(attribution);
            run.compiled
                .journal_transitions_at(&self.telemetry.registry, step);
            steps.push(record);
            self.telemetry.note_step();
        }
        self.telemetry
            .note_run(u64::try_from(first_circ * n_steps).unwrap_or(u64::MAX));
        Ok(FaultedRun {
            result: SimulationResult {
                policy: policy.name(),
                interval,
                servers,
                steps,
            },
            ledger,
        })
    }

    /// One lane: a circulation (the chunk-local `servers`) walked
    /// through every control interval. Per step it fills the
    /// circulation's loads, computes the control utilization and
    /// evaluates the step through the fault decorator. The lane's wall
    /// time, synthesis included, is one sample of
    /// `engine.circulation_wall_nanos`. The lane counts its own
    /// decisions and adds them to [`cache_stats`](Self::cache_stats)
    /// once, when it finishes, so lanes share no counter per decision.
    fn run_lane(
        &self,
        run: &RunInputs<'_>,
        chunk: &Chunk<'_>,
        servers: Range<usize>,
        circ: usize,
    ) -> Result<LaneRun, H2pError> {
        let t0 = self.telemetry.registry.now_nanos();
        let mut partials = Vec::with_capacity(run.colds.len());
        let mut faults = Vec::new();
        let mut decisions = 0;
        let mut loads: Vec<Utilization> = Vec::with_capacity(servers.len());
        let source = chunk.lane(servers);
        for (step, &cold) in run.colds.iter().enumerate() {
            source.fill(step, &mut loads);
            let u_ctrl = run.policy.control_utilization(&loads);
            let active = run.compiled.active_at(circ, step);
            let (partial, side) =
                self.simulate_circulation(run, &loads, u_ctrl, cold, active, &mut decisions)?;
            if let Some(side) = side {
                faults.push((step, side));
            }
            partials.push(partial);
        }
        self.setting_calls.0.fetch_add(decisions, Ordering::Relaxed);
        self.telemetry
            .circ_wall
            .record(self.telemetry.registry.now_nanos().saturating_sub(t0));
        Ok(LaneRun { partials, faults })
    }

    /// Turns an interval's completed fold into its [`StepRecord`],
    /// pricing the step's cooling plant.
    fn finish_step(&self, time: Seconds, servers: usize, fold: &CircPartial) -> StepRecord {
        let CircPartial {
            teg,
            cpu,
            pump,
            flow,
            inlet_weighted,
            outlet,
            util,
            peak,
            violations,
            online,
        } = *fold;
        let n = servers as f64;
        // The supply setpoint averages over *online* servers only:
        // offline circulations contribute `inlet_weighted = 0`, and
        // dividing by the cluster size would drag the setpoint toward
        // 0 °C and mis-price chiller energy under heavy faults. With
        // every server offline there is no supply water to set at all
        // (heat and flow are both zero, so the plant draws nothing);
        // `t_safe` stands in as an inert, physically sane placeholder.
        let setpoint = if online > 0 {
            Celsius::new(inlet_weighted / online as f64)
        } else {
            self.config.t_safe
        };
        let plant_power = self.config.plant.power(PlantLoad {
            heat: Watts::new(cpu),
            supply_setpoint: setpoint,
            total_flow: LitersPerHour::new(flow),
        });
        StepRecord {
            time,
            teg_power_per_server: Watts::new(teg / n),
            cpu_power_per_server: Watts::new(cpu / n),
            pump_power_per_server: Watts::new(pump / n),
            cooling_power_per_server: plant_power.total() / n,
            mean_inlet: setpoint,
            mean_outlet: Celsius::new(outlet / n),
            mean_utilization: Utilization::saturating(util / n),
            peak_utilization: peak,
            thermal_violations: violations,
        }
    }

    /// The engine's one per-server evaluator, behind the healthy world,
    /// a fault's degraded layers and the placement engine's thermal
    /// pass. Walks `scheduled` in server order under `at`: each load is
    /// capped at `cap` (counted when throttled), its outlet and die
    /// temperature are looked up, a die above the maximum operating
    /// temperature counts as a violation, and its Eq. 3/6 TEG output
    /// against `cold` joins the pre-derate harvest and, scaled by
    /// `derate(offset)`, the partial; `each` sees `(offset, u, outlet,
    /// teg)`. Returns the partial, the pre-derate harvest and the
    /// throttled count. Under `cap = FULL` and a derate of `1.0`
    /// nothing is throttled and `teg × 1.0` is `teg`, so every caller
    /// shares one addition sequence, in server order.
    ///
    /// `at` is mapped onto the lookup lattice once per call and each
    /// server's load bracketed once, for an exact two-plane read of
    /// outlet and die. A setting off the lattice (a pump derate's
    /// clamped flow) takes the trilinear queries; on the lattice both
    /// give the same bits.
    ///
    /// A server whose capped load is bit-equal to the previous
    /// server's reuses that server's outlet, violation, TEG output and
    /// CPU power: each is a pure function of the load's bits under
    /// `at` and `cold`, so the reuse is exact. Balanced circulations,
    /// where every server carries the same load, evaluate once.
    pub(crate) fn evaluate(
        &self,
        scheduled: &[Utilization],
        at: Resolved,
        cold: Celsius,
        cap: Utilization,
        derate: impl Fn(usize) -> f64,
        mut each: impl FnMut(usize, Utilization, Celsius, Watts),
    ) -> Result<(CircPartial, f64, u64), H2pError> {
        let n = scheduled.len() as f64;
        let mut partial = CircPartial {
            pump: at.pump_per_server * n,
            flow: at.flow.value() * n,
            inlet_weighted: at.inlet.value() * n,
            online: scheduled.len(),
            ..CircPartial::ZERO
        };
        let mut harvest = 0.0;
        let mut throttled = 0u64;
        let point = self.space.lattice_point(CoolingSetting {
            flow: at.flow,
            inlet: at.inlet,
        });
        // The last evaluated load's bits and `(outlet, violation, teg,
        // cpu)` at it.
        let mut last: Option<(u64, (Celsius, bool, Watts, f64))> = None;
        for (offset, &u) in scheduled.iter().enumerate() {
            let u = if u > cap {
                throttled += 1;
                cap
            } else {
                u
            };
            let bits = u.value().to_bits();
            let (outlet, hot, teg, cpu) = match last {
                Some((seen, at_u)) if seen == bits => at_u,
                _ => {
                    let (outlet, die) = match point {
                        Some(point) => self.space.temperatures_at(self.space.plane(u)?, point),
                        None => (
                            self.space.outlet_temperature(u, at.flow, at.inlet)?,
                            self.space.cpu_temperature(u, at.flow, at.inlet)?,
                        ),
                    };
                    let at_u = (
                        outlet,
                        die > self.max_operating,
                        self.config.module.max_power(outlet - cold),
                        self.power_model.base_power(u).value(),
                    );
                    last = Some((bits, at_u));
                    at_u
                }
            };
            if hot {
                partial.violations += 1;
            }
            harvest += teg.value();
            partial.teg += teg.value() * derate(offset);
            partial.cpu += cpu;
            partial.outlet += outlet.value();
            partial.util += u.value();
            partial.peak = partial.peak.max(u);
            each(offset, u, outlet, teg);
        }
        Ok((partial, harvest, throttled))
    }

    /// Evaluates one circulation's scheduled loads under an optimizer
    /// setting with the engine's own per-server model, handing each
    /// server's `(offset, utilization, outlet, TEG output against
    /// cold)` to `each` in server order.
    ///
    /// # Errors
    ///
    /// Propagates lookup failures (a setting off the sampled grid).
    pub fn evaluate_servers(
        &self,
        scheduled: &[Utilization],
        setting: &OptimizedSetting,
        cold: Celsius,
        each: impl FnMut(usize, Utilization, Celsius, Watts),
    ) -> Result<(), H2pError> {
        self.evaluate(
            scheduled,
            setting.into(),
            cold,
            Utilization::FULL,
            |_| 1.0,
            each,
        )
        .map(drop)
    }

    /// A cooling optimizer against the engine's lookup space for one
    /// cold-side temperature, lent the simulator's tables (band index
    /// and pump prices, built once in [`new`](Self::new)) and its
    /// optimizer counters (resolved once in
    /// [`with_telemetry`](Self::with_telemetry)). Building one builds
    /// and looks up nothing, so callers build one where they resolve
    /// settings instead of keeping maps of them.
    #[must_use]
    pub fn optimizer(&self, cold: Celsius) -> CoolingOptimizer<'_> {
        CoolingOptimizer::lent(
            &self.space,
            &self.tables,
            &self.telemetry.optimizer,
            self.config.module,
            cold,
        )
    }

    /// The cooling setting the engine runs a circulation under at
    /// control utilization `u_ctrl` and cold-side temperature `cold`:
    /// a fresh solve by [`optimizer`](Self::optimizer), with no memo in
    /// front of it.
    ///
    /// # Errors
    ///
    /// [`H2pError::NoFeasibleSetting`] if the optimizer cannot serve
    /// `u_ctrl` (cannot happen on the paper grid).
    pub fn optimized_setting(
        &self,
        u_ctrl: Utilization,
        cold: Celsius,
    ) -> Result<OptimizedSetting, H2pError> {
        self.setting_calls.0.fetch_add(1, Ordering::Relaxed);
        self.solve(u_ctrl, cold)
    }

    /// [`optimized_setting`](Self::optimized_setting) without its
    /// count: a lane counts its own decisions (see `run_lane`).
    pub(crate) fn solve(
        &self,
        u_ctrl: Utilization,
        cold: Celsius,
    ) -> Result<OptimizedSetting, H2pError> {
        self.optimizer(cold)
            .optimize(u_ctrl)
            .ok_or(H2pError::NoFeasibleSetting {
                control_utilization: u_ctrl.value(),
            })
    }
}

/// What every lane of one run shares: the policy, the cold-source
/// reading of every step, and the compiled fault plan.
pub(crate) struct RunInputs<'a> {
    pub(crate) policy: &'a dyn SchedulingPolicy,
    colds: Vec<Celsius>,
    pub(crate) compiled: CompiledFaults,
}

/// What a lane hands back to the fold: the faulted-world partial of
/// every step and the fault side of only the steps a fault touched.
struct LaneRun {
    partials: Vec<CircPartial>,
    faults: Vec<(usize, FaultSide)>,
}

impl LaneRun {
    /// Absorbs the lane into each step's faulted and healthy folds and
    /// attribution sums, and its fault sides into the ledger. The
    /// driver calls this in circulation-index order.
    fn fold_into(
        self,
        folds: &mut [(CircPartial, CircPartial, [f64; 3])],
        ledger: &mut FaultLedger,
    ) {
        let mut faults = self.faults.into_iter().peekable();
        for (step, (partial, (faulted, healthy, attr))) in
            self.partials.into_iter().zip(folds).enumerate()
        {
            faulted.absorb(partial);
            let Some((_, side)) = faults.next_if(|(s, _)| *s == step) else {
                healthy.absorb(partial);
                continue;
            };
            healthy.absorb(side.healthy);
            for (sum, delta) in attr.iter_mut().zip(side.attr) {
                *sum += delta;
            }
            ledger.note_faulted_circulation();
            ledger.note_throttled(side.throttled);
            if side.fallback {
                ledger.note_fallback();
            }
            if side.offline {
                ledger.note_offline();
            }
        }
    }
}

/// One resident chunk of a run: whole circulations, in index order,
/// whose lanes either read a materialized trace or synthesize their
/// own loads.
pub(crate) enum Chunk<'a> {
    /// A materialized trace of the chunk's servers.
    Trace(&'a ClusterTrace),
    /// The recorded start states of the chunk's servers in a
    /// synthesized trace.
    Starts(&'a TraceBasis, Vec<ServerStart>),
}

impl Chunk<'_> {
    fn servers(&self) -> usize {
        match self {
            Chunk::Trace(trace) => trace.servers(),
            Chunk::Starts(_, starts) => starts.len(),
        }
    }

    /// The load source of one circulation, the chunk-local `servers`:
    /// a view of the trace, or the circulation's own synthesized
    /// samples.
    fn lane(&self, servers: Range<usize>) -> LaneLoads<'_> {
        match self {
            Chunk::Trace(trace) => LaneLoads::Trace(trace, servers),
            Chunk::Starts(basis, starts) => {
                let mut samples = Vec::with_capacity(servers.len() * basis.steps());
                for start in &starts[servers] {
                    basis.synthesize(start, &mut samples);
                }
                LaneLoads::Synth {
                    samples,
                    steps: basis.steps(),
                }
            }
        }
    }
}

/// Where a lane's loads come from, step by step.
enum LaneLoads<'a> {
    /// The circulation's servers in a materialized trace.
    Trace(&'a ClusterTrace, Range<usize>),
    /// The circulation's samples, synthesized by the lane: server `i`'s
    /// series fills `samples[i * steps..(i + 1) * steps]`.
    Synth { samples: Vec<f64>, steps: usize },
}

impl LaneLoads<'_> {
    /// Refills `loads` with the circulation's loads at `step`. Both
    /// sources hold the same samples and wrap them as
    /// [`Trace::get`](h2p_workload::Trace::get) does, so both give the
    /// same loads.
    fn fill(&self, step: usize, loads: &mut Vec<Utilization>) {
        loads.clear();
        match self {
            LaneLoads::Trace(trace, servers) => {
                loads.extend(servers.clone().map(|s| trace.trace(s).get(step)));
            }
            LaneLoads::Synth { samples, steps } => loads.extend(
                samples[step..]
                    .iter()
                    .step_by(*steps)
                    .map(|&sample| Utilization::saturating(sample)),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2p_sched::{LoadBalance, Original};
    use h2p_workload::{TraceGenerator, TraceKind};

    fn small_cluster(kind: TraceKind) -> ClusterTrace {
        TraceGenerator::paper(kind, 7)
            .with_servers(80)
            .with_steps(36)
            .generate()
    }

    #[test]
    fn load_balance_beats_original() {
        let sim = Simulator::paper_default().unwrap();
        let cluster = small_cluster(TraceKind::Drastic);
        let orig = sim.run(&cluster, &Original).unwrap();
        let lb = sim.run(&cluster, &LoadBalance).unwrap();
        assert!(
            lb.average_teg_power().unwrap() > orig.average_teg_power().unwrap(),
            "lb {} vs orig {}",
            lb.average_teg_power().unwrap(),
            orig.average_teg_power().unwrap()
        );
    }

    #[test]
    fn generation_in_paper_band() {
        // Per-CPU averages must land in the paper's 3-5 W decade.
        let sim = Simulator::paper_default().unwrap();
        let cluster = small_cluster(TraceKind::Common);
        let lb = sim.run(&cluster, &LoadBalance).unwrap();
        let avg = lb.average_teg_power().unwrap().value();
        assert!((3.0..=5.5).contains(&avg), "avg = {avg}");
    }

    #[test]
    fn pre_in_paper_band() {
        let sim = Simulator::paper_default().unwrap();
        let cluster = small_cluster(TraceKind::Common);
        let lb = sim.run(&cluster, &LoadBalance).unwrap();
        let pre = lb.pre();
        assert!((0.08..=0.22).contains(&pre), "pre = {pre}");
    }

    #[test]
    fn no_thermal_violations() {
        let sim = Simulator::paper_default().unwrap();
        for kind in TraceKind::all() {
            let cluster = small_cluster(kind);
            for policy in [&Original as &dyn h2p_sched::SchedulingPolicy, &LoadBalance] {
                let r = sim.run(&cluster, policy).unwrap();
                assert_eq!(r.total_violations(), 0, "{kind}/{}", r.policy());
            }
        }
    }

    #[test]
    fn result_accounting_consistent() {
        let sim = Simulator::paper_default().unwrap();
        let cluster = small_cluster(TraceKind::Irregular);
        let r = sim.run(&cluster, &LoadBalance).unwrap();
        assert_eq!(r.steps().len(), 36);
        assert_eq!(r.servers(), 80);
        assert_eq!(r.policy(), "TEG_LoadBalance");
        assert!(r.peak_teg_power() >= r.average_teg_power().unwrap());
        // total harvested == avg power × servers × duration.
        let expect = r.average_teg_power().unwrap().value() * 80.0 * r.interval().value() * 36.0;
        assert!((r.total_harvested().value() - expect).abs() < expect * 1e-9);
    }

    #[test]
    fn generation_anticorrelates_with_utilization() {
        // Fig. 14a's visual: high-utilization intervals generate less.
        let sim = Simulator::paper_default().unwrap();
        let cluster = small_cluster(TraceKind::Drastic);
        let r = sim.run(&cluster, &Original).unwrap();
        let util: Vec<f64> = r
            .steps()
            .iter()
            .map(|s| s.peak_utilization.value())
            .collect();
        let teg: Vec<f64> = r
            .steps()
            .iter()
            .map(|s| s.teg_power_per_server.value())
            .collect();
        let corr = h2p_stats::descriptive::correlation(&util, &teg).unwrap();
        assert!(corr < -0.3, "correlation = {corr}");
    }

    #[test]
    fn warm_water_pue_near_one_and_ere_below_it() {
        let sim = Simulator::paper_default().unwrap();
        let cluster = small_cluster(TraceKind::Common);
        let r = sim.run(&cluster, &LoadBalance).unwrap();
        let pue = r.partial_pue().unwrap();
        // Chiller-free warm-water operation: cooling + pumps stay a few
        // percent of IT.
        assert!((1.0..=1.15).contains(&pue), "partial PUE = {pue}");
        let ere = r.partial_ere().unwrap();
        assert!(ere < pue, "reuse must push ERE below PUE");
        assert!(ere > 0.5, "sanity: ere = {ere}");
        assert!(r.average_cooling_power().unwrap().value() > 0.0);
    }

    #[test]
    fn smaller_circulations_help_original() {
        // With fewer servers per circulation the hottest-server cap is
        // less binding for the unbalanced policy.
        let cluster = small_cluster(TraceKind::Drastic);
        let model = ServerModel::paper_default();
        let mut cfg_small = SimulationConfig::paper_default();
        cfg_small.servers_per_circulation = 10;
        let mut cfg_large = SimulationConfig::paper_default();
        cfg_large.servers_per_circulation = 80;
        let small = Simulator::new(&model, cfg_small).unwrap();
        let large = Simulator::new(&model, cfg_large).unwrap();
        let p_small = small
            .run(&cluster, &Original)
            .unwrap()
            .average_teg_power()
            .unwrap();
        let p_large = large
            .run(&cluster, &Original)
            .unwrap()
            .average_teg_power()
            .unwrap();
        assert!(p_small > p_large, "small {p_small} vs large {p_large}");
    }

    /// The raw bits of every field of a setting.
    fn setting_bits(s: &OptimizedSetting) -> ([u64; 7], bool) {
        let fields = [
            s.setting.flow.value(),
            s.setting.inlet.value(),
            s.teg_power.value(),
            s.pump_power.value(),
            s.net_power.value(),
            s.outlet.value(),
            s.cpu_temperature.value(),
        ];
        (fields.map(f64::to_bits), s.in_band)
    }

    #[test]
    fn setting_cache_is_transparent_under_a_drifting_cold_source() {
        // Regression test for a stale-memo bug: a run-wide key once
        // quantized the cold temperature to 1/16 °C, so as the source
        // drifted, settings optimized at one cold temperature were
        // silently replayed at another. The setting the engine resolves
        // for every (step, circulation) of a seasonal run must be the
        // one a fresh optimizer search returns, bit for bit.
        let mut cfg = SimulationConfig::paper_default();
        cfg.cold_source = ColdSource::Seasonal {
            mean: Celsius::new(17.5),
            amplitude: DegC::new(2.5),
            period: Seconds::hours(6.0),
        };
        let sim = Simulator::new(&ServerModel::paper_default(), cfg).unwrap();
        let cluster = small_cluster(TraceKind::Irregular);
        let seasonal = sim.run(&cluster, &LoadBalance).unwrap();
        for step in 0..cluster.steps() {
            let time = Seconds::new(cluster.interval().value() * step as f64);
            let cold = sim.config().cold_source.temperature(time);
            let loads = cluster.utilizations_at(step);
            for chunk in loads.chunks(sim.config().servers_per_circulation) {
                let u = LoadBalance.control_utilization(chunk);
                let resolved = sim.optimized_setting(u, cold).unwrap();
                let fresh = sim.optimizer(cold).optimize(u).unwrap();
                assert_eq!(setting_bits(&resolved), setting_bits(&fresh), "step {step}");
            }
        }
        // Sanity: the drifting source genuinely changes the physics
        // relative to the constant-source run.
        let constant = Simulator::paper_default()
            .unwrap()
            .run(&cluster, &LoadBalance)
            .unwrap();
        assert_ne!(
            seasonal.average_teg_power().unwrap(),
            constant.average_teg_power().unwrap()
        );
    }

    #[test]
    fn cache_survives_across_runs_without_leaking_state() {
        // Runs on one simulator share nothing that changes a result: a
        // second run returns exactly what a fresh simulator computes.
        let sim = Simulator::paper_default().unwrap();
        let cluster = small_cluster(TraceKind::Common);
        let first = sim.run(&cluster, &LoadBalance).unwrap();
        let second = sim.run(&cluster, &LoadBalance).unwrap();
        let fresh = Simulator::paper_default()
            .unwrap()
            .run(&cluster, &LoadBalance)
            .unwrap();
        for ((a, b), c) in first.steps().iter().zip(second.steps()).zip(fresh.steps()) {
            assert_eq!(a, b);
            assert_eq!(a, c);
        }
    }

    #[test]
    fn mean_inlet_is_server_weighted_on_ragged_clusters() {
        // 90 servers ÷ 40 per circulation → chunks of 40, 40 and 10
        // servers. The mean inlet must weight the 10-server tail by
        // 10/90, not by a full 1/3 as the per-circulation mean did.
        let sim = Simulator::paper_default().unwrap();
        let cluster = TraceGenerator::paper(TraceKind::Drastic, 13)
            .with_servers(90)
            .with_steps(6)
            .generate();
        let r = sim.run(&cluster, &Original).unwrap();
        let optimizer = CoolingOptimizer::new(
            sim.lookup_space(),
            sim.config().module,
            sim.config().pump,
            sim.config().t_safe,
            sim.config().tolerance,
            Celsius::new(20.0),
        )
        .unwrap();
        let mut some_step_distinguishes = false;
        for (step, rec) in r.steps().iter().enumerate() {
            let loads = cluster.utilizations_at(step);
            let mut weighted = 0.0;
            let mut unweighted = 0.0;
            let mut circulations = 0.0;
            for chunk in loads.chunks(40) {
                let u = Original.control_utilization(chunk);
                let inlet = optimizer.optimize(u).unwrap().setting.inlet.value();
                weighted += inlet * chunk.len() as f64;
                unweighted += inlet;
                circulations += 1.0;
            }
            let expect = weighted / 90.0;
            assert!(
                (rec.mean_inlet.value() - expect).abs() < 1e-12,
                "step {step}: {} vs {expect}",
                rec.mean_inlet
            );
            if (expect - unweighted / circulations).abs() > 1e-9 {
                some_step_distinguishes = true;
            }
        }
        assert!(
            some_step_distinguishes,
            "trace must exercise the ragged-weighting difference"
        );
    }

    #[test]
    fn partial_metrics_report_empty_runs_as_typed_errors() {
        let empty = SimulationResult {
            policy: "TEG_Original",
            interval: Seconds::minutes(5.0),
            servers: 0,
            steps: Vec::new(),
        };
        assert!(matches!(empty.partial_pue(), Err(H2pError::EmptyRun)));
        assert!(matches!(empty.partial_ere(), Err(H2pError::EmptyRun)));
        // ISSUE 7 regression: the averages used to return a plausible
        // 0 W on an empty run (`len().max(1)`), which TCO math happily
        // consumed. They now fail typed like the ratios.
        assert!(matches!(empty.average_teg_power(), Err(H2pError::EmptyRun)));
        assert!(matches!(empty.average_cpu_power(), Err(H2pError::EmptyRun)));
        assert!(matches!(
            empty.average_cooling_power(),
            Err(H2pError::EmptyRun)
        ));
        // `pre` and `peak_teg_power` keep their documented infallible
        // contracts: zero CPU power → PRE 0, max over nothing → 0 W.
        assert_eq!(empty.pre(), 0.0);
        assert_eq!(empty.peak_teg_power().value(), 0.0);
    }

    #[test]
    fn digest_sees_every_field_bit_signed_zeros_and_the_run_shape() {
        // Setters for the nine `f64` fields, in declaration order, and
        // an in-range value for each.
        let set: [fn(&mut StepRecord, f64); 9] = [
            |s, v| s.time = Seconds::new(v),
            |s, v| s.teg_power_per_server = Watts::new(v),
            |s, v| s.cpu_power_per_server = Watts::new(v),
            |s, v| s.pump_power_per_server = Watts::new(v),
            |s, v| s.cooling_power_per_server = Watts::new(v),
            |s, v| s.mean_inlet = Celsius::new(v),
            |s, v| s.mean_outlet = Celsius::new(v),
            |s, v| s.mean_utilization = Utilization::saturating(v),
            |s, v| s.peak_utilization = Utilization::saturating(v),
        ];
        let values = [300.0, 3.7, 61.0, 0.6, 4.2, 40.0, 47.5, 0.3, 0.9];
        let mut step = StepRecord {
            time: Seconds::new(0.0),
            teg_power_per_server: Watts::zero(),
            cpu_power_per_server: Watts::zero(),
            pump_power_per_server: Watts::zero(),
            cooling_power_per_server: Watts::zero(),
            mean_inlet: Celsius::new(0.0),
            mean_outlet: Celsius::new(0.0),
            mean_utilization: Utilization::saturating(0.0),
            peak_utilization: Utilization::saturating(0.0),
            thermal_violations: 2,
        };
        for (setter, &v) in set.iter().zip(&values) {
            setter(&mut step, v);
        }
        let run = |servers: usize, steps: Vec<StepRecord>| SimulationResult {
            policy: "TEG_Original",
            interval: Seconds::minutes(5.0),
            servers,
            steps,
        };
        let base = run(80, vec![step; 3]);
        let digest = base.digest();
        // The middle step with one field changed.
        let changed = |edit: &dyn Fn(&mut StepRecord)| {
            let mut steps = base.steps().to_vec();
            edit(&mut steps[1]);
            run(80, steps).digest()
        };

        for (field, (setter, &v)) in set.iter().zip(&values).enumerate() {
            let flipped = f64::from_bits(v.to_bits() ^ 1);
            assert_ne!(changed(&|s| setter(s, flipped)), digest, "field {field}");
            assert_ne!(
                changed(&|s| setter(s, 0.0)),
                changed(&|s| setter(s, -0.0)),
                "field {field}: 0.0 and -0.0"
            );
        }
        assert_ne!(changed(&|s| s.thermal_violations ^= 1), digest);

        assert_ne!(run(81, base.steps().to_vec()).digest(), digest);
        assert_ne!(run(80, base.steps()[..2].to_vec()).digest(), digest);
    }

    #[test]
    fn worker_count_is_configurable_and_visible() {
        let sim = Simulator::paper_default().unwrap();
        assert!(sim.workers().get() >= 1);
        let forced = sim.with_workers(NonZeroUsize::new(3).unwrap());
        assert_eq!(forced.workers().get(), 3);
    }

    #[test]
    fn cache_stats_and_kernel_tolerance_select_nothing() {
        // Both stay only for h2pbench. No run ever hits, every
        // `optimized_setting` call counts as one miss (one optimizer
        // decision, so a repeated run misses again), a clone starts its
        // own count, and a tolerance changes no bit.
        let registry = Registry::new();
        let sim = Simulator::paper_default()
            .unwrap()
            .with_telemetry(&registry);
        assert_eq!(sim.cache_stats(), CacheStats { hits: 0, misses: 0 });
        let cluster = small_cluster(TraceKind::Irregular);
        let plain = sim.run(&cluster, &LoadBalance).unwrap();
        let again = sim.run(&cluster, &LoadBalance).unwrap();
        assert_eq!(plain.steps(), again.steps());
        let decisions = registry
            .counters()
            .into_iter()
            .find(|(name, _)| name == "optimizer.decisions")
            .map(|(_, n)| n)
            .unwrap();
        assert_eq!(
            decisions,
            2 * 2 * 36,
            "two runs of 2 circulations × 36 steps"
        );
        assert_eq!(
            sim.cache_stats(),
            CacheStats {
                hits: 0,
                misses: decisions
            }
        );
        assert_eq!(sim.clone().cache_stats().misses, 0);

        let tolerant = sim
            .clone()
            .with_kernel_tolerance(KernelTolerance::uniform(0.01).unwrap())
            .run(&cluster, &LoadBalance)
            .unwrap();
        assert_eq!(plain.steps(), tolerant.steps());
    }

    #[test]
    fn lanes_count_every_decision_at_every_worker_count() {
        // 80 servers are 2 circulations × 36 steps; the fleet's 90
        // servers are 3 (40 + 40 + 10) × 12 steps in 2 chunks.
        let cluster = small_cluster(TraceKind::Common);
        let generator = TraceGenerator::paper(TraceKind::Drastic, 7)
            .with_servers(90)
            .with_steps(12);
        let plan = ChunkPlan::new(
            90,
            NonZeroUsize::new(40).unwrap(),
            NonZeroUsize::new(2).unwrap(),
        )
        .unwrap();
        let built = Simulator::paper_default().unwrap();
        for workers in [1, 2, 7] {
            let sim = built
                .clone()
                .with_workers(NonZeroUsize::new(workers).unwrap());
            sim.run(&cluster, &LoadBalance).unwrap();
            assert_eq!(sim.cache_stats().misses, 2 * 36, "run, {workers} workers");
            sim.run_fleet(&generator, &LoadBalance, &plan).unwrap();
            assert_eq!(
                sim.cache_stats().misses,
                2 * 36 + 3 * 12,
                "run_fleet, {workers} workers"
            );
        }
    }

    /// `Celsius::new` and `DegC::new` debug-assert against NaN, but
    /// arithmetic still makes one, as a computed configuration can.
    fn nan_degc() -> DegC {
        DegC::new(f64::INFINITY) * 0.0
    }

    /// `Simulator::new` under `config` with `edit` applied must fail
    /// with the optimizer's non-finite-parameter error naming `name`.
    fn assert_refused(edit: impl FnOnce(&mut SimulationConfig), name: &str) {
        let mut config = SimulationConfig::paper_default();
        edit(&mut config);
        let err = Simulator::new(&ServerModel::paper_default(), config).unwrap_err();
        assert!(
            matches!(
                &err,
                H2pError::Cooling(h2p_cooling::CoolingError::NonFiniteParameter { name: n, .. })
                    if *n == name
            ),
            "{err}"
        );
    }

    #[test]
    fn new_refuses_a_nan_t_safe() {
        // A NaN target admits no die, so every decision falls back and
        // a run goes on regardless: 440 violations in 480 server-steps
        // on Common × LoadBalance, 80 servers × 6 steps.
        assert_refused(|c| c.t_safe = Celsius::new(62.0) + nan_degc(), "t_safe");
    }

    #[test]
    fn new_refuses_an_infinite_t_safe() {
        assert_refused(|c| c.t_safe = Celsius::new(f64::INFINITY), "t_safe");
        assert_refused(|c| c.t_safe = Celsius::new(f64::NEG_INFINITY), "t_safe");
    }

    #[test]
    fn new_refuses_an_infinite_tolerance() {
        assert_refused(|c| c.tolerance = DegC::new(f64::INFINITY), "tolerance");
    }

    #[test]
    fn new_refuses_a_nan_tolerance() {
        // Refused with the target, not at the run's first decision.
        assert_refused(|c| c.tolerance = nan_degc(), "tolerance");
    }

    /// What one evaluation produced, as bits: the partial's fields, the
    /// pre-derate harvest, the throttled count and every callback.
    type EvalBits = ([u64; 8], [usize; 2], u64, u64, Vec<[u64; 4]>);

    fn eval_bits(
        (partial, harvest, throttled): (CircPartial, f64, u64),
        seen: Vec<[u64; 4]>,
    ) -> EvalBits {
        let p = partial;
        (
            [
                p.teg,
                p.cpu,
                p.pump,
                p.flow,
                p.inlet_weighted,
                p.outlet,
                p.util,
                p.peak.value(),
            ]
            .map(f64::to_bits),
            [p.violations, p.online],
            harvest.to_bits(),
            throttled,
            seen,
        )
    }

    /// The evaluator without load reuse: every server capped, looked
    /// up and priced on its own, through the trilinear queries.
    fn per_server_reference(
        sim: &Simulator,
        scheduled: &[Utilization],
        at: Resolved,
        cold: Celsius,
        cap: Utilization,
        derate: impl Fn(usize) -> f64,
    ) -> EvalBits {
        let n = scheduled.len() as f64;
        let mut partial = CircPartial {
            pump: at.pump_per_server * n,
            flow: at.flow.value() * n,
            inlet_weighted: at.inlet.value() * n,
            online: scheduled.len(),
            ..CircPartial::ZERO
        };
        let (mut harvest, mut throttled, mut seen) = (0.0, 0u64, Vec::new());
        for (offset, &u) in scheduled.iter().enumerate() {
            let u = if u > cap {
                throttled += 1;
                cap
            } else {
                u
            };
            let outlet = sim.space.outlet_temperature(u, at.flow, at.inlet).unwrap();
            let die = sim.space.cpu_temperature(u, at.flow, at.inlet).unwrap();
            if die > sim.max_operating {
                partial.violations += 1;
            }
            let teg = sim.config.module.max_power(outlet - cold);
            harvest += teg.value();
            partial.teg += teg.value() * derate(offset);
            partial.cpu += sim.power_model.base_power(u).value();
            partial.outlet += outlet.value();
            partial.util += u.value();
            partial.peak = partial.peak.max(u);
            seen.push([
                offset as u64,
                u.value().to_bits(),
                outlet.value().to_bits(),
                teg.value().to_bits(),
            ]);
        }
        eval_bits((partial, harvest, throttled), seen)
    }

    #[test]
    fn evaluate_reuses_equal_loads_transparently() {
        // Runs of equal loads, a signed zero next to an unsigned one, a
        // random column with repeats, and loads that a cap folds onto
        // one value; under an optimizer setting, a setting off the
        // lattice (a derated flow), and a hot setting that violates.
        let sim = Simulator::paper_default().unwrap();
        let u = |x: f64| Utilization::new(x).unwrap();
        let mut columns: Vec<Vec<Utilization>> = vec![
            [0.3, 0.3, 0.3, 0.5, 0.5, 0.3].map(u).to_vec(),
            [0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.25].map(u).to_vec(),
            [0.7, 0.8, 0.9, 1.0, 0.95, 0.65, 0.65, 0.2].map(u).to_vec(),
            vec![u(0.42); 40],
            Vec::new(),
        ];
        let mut rng = 0x2545_f491_u64;
        columns.push(
            (0..64)
                .map(|_| {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    u(f64::from(u32::try_from(rng % 6).unwrap()) / 5.0)
                })
                .collect(),
        );
        let cold = Celsius::new(20.0);
        let chosen = Resolved::from(&sim.optimized_setting(u(0.5), cold).unwrap());
        let derated = Resolved {
            flow: LitersPerHour::new(chosen.flow.value() * 0.73),
            ..chosen
        };
        let hot = Resolved {
            flow: LitersPerHour::new(20.0),
            inlet: Celsius::new(60.0),
            pump_per_server: 0.1,
        };
        assert!(sim
            .space
            .lattice_point(CoolingSetting {
                flow: derated.flow,
                inlet: derated.inlet
            })
            .is_none());
        let (mut reused, mut violations, mut throttled) = (0, 0, 0);
        for column in &columns {
            for at in [chosen, derated, hot] {
                for cap in [Utilization::FULL, u(0.6)] {
                    let derate = |offset: usize| 1.0 - 0.125 * (offset % 4) as f64;
                    let mut seen = Vec::new();
                    let got = sim
                        .evaluate(column, at, cold, cap, derate, |offset, u, outlet, teg| {
                            seen.push([
                                offset as u64,
                                u.value().to_bits(),
                                outlet.value().to_bits(),
                                teg.value().to_bits(),
                            ]);
                        })
                        .unwrap();
                    let got = eval_bits(got, seen);
                    let want = per_server_reference(&sim, column, at, cold, cap, derate);
                    assert_eq!(got, want, "{column:?} under {at:?}, cap {cap:?}");
                    violations += got.1[0];
                    throttled += got.3;
                    reused += column
                        .windows(2)
                        .filter(|w| {
                            w[0].min(cap).value().to_bits() == w[1].min(cap).value().to_bits()
                        })
                        .count();
                }
            }
        }
        assert!(reused > 0 && violations > 0 && throttled > 0);
    }

    #[test]
    fn attached_telemetry_observes_the_run_without_changing_it() {
        let registry = h2p_telemetry::Registry::new();
        let bare = Simulator::paper_default().unwrap();
        let observed = Simulator::paper_default()
            .unwrap()
            .with_telemetry(&registry);
        assert!(observed.telemetry_registry().is_enabled());
        let cluster = small_cluster(TraceKind::Drastic);
        let a = bare.run(&cluster, &LoadBalance).unwrap();
        let b = observed.run(&cluster, &LoadBalance).unwrap();
        for (x, y) in a.steps().iter().zip(b.steps()) {
            assert_eq!(x, y, "telemetry must not perturb results");
        }

        let counters: std::collections::BTreeMap<String, u64> =
            registry.counters().into_iter().collect();
        assert_eq!(counters["engine.runs"], 1);
        assert_eq!(counters["engine.steps"], 36);
        assert!(counters["pool.tasks"] > 0);

        let hists: std::collections::BTreeMap<String, h2p_telemetry::Histogram> =
            registry.histograms().into_iter().collect();
        // 80 servers ÷ 40 per circulation = 2 circulations × 36 steps:
        // one wall-time sample per lane, every circulation-step
        // evaluated.
        assert_eq!(hists["engine.circulation_wall_nanos"].count(), 2);
        assert_eq!(counters["engine.circulations_evaluated"], 72);

        let report = h2p_telemetry::RunReport::from_registry(&registry);
        assert!(!report.is_empty());
        assert!(report.render().contains("engine.circulation_wall_nanos"));
    }
}
