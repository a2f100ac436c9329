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
//! # One driver, parallel lanes, deterministic merge
//!
//! Circulations are independent of each other, so every run — a
//! materialized [`run`](Simulator::run), a streamed
//! [`run_fleet`](Simulator::run_fleet), with or without the change
//! kernel or a fault plan — goes through one driver that hands each
//! resident chunk's circulations to a scoped worker pool (`h2p-exec`)
//! as *lanes*. A lane walks its circulation through every control
//! interval; a sequential merge then folds the lanes' partial
//! aggregates step by step **in circulation-index order**. Sequential
//! (`workers = 1`) and parallel runs therefore produce bit-identical
//! [`SimulationResult`]s: every partial is a pure function of its
//! circulation's loads, and the merge order never depends on thread
//! scheduling or on how the fleet was chunked.
//!
//! # One per-server evaluator
//!
//! Step 3 is one loop, `Simulator::evaluate`, and every server the
//! engine evaluates goes through it: the healthy world, each fault
//! layer (with a throttle cap and a TEG derate, see
//! [`crate::faulted`]) and the placement engine's thermal pass
//! ([`Simulator::evaluate_servers`]). Every accumulator adds in server
//! order, so all of them share one addition sequence.
//!
//! Optimizer choices are memoized in one **exact-key setting cache**
//! under the exact `(u_control, cold)` bit pattern, shared across
//! circulations, steps, threads and runs (see DESIGN.md §8 for the
//! invariants). Because [`CoolingOptimizer::optimize`] is deterministic
//! in those exact inputs, a cache hit returns the same bits a fresh
//! search would — the cache is observationally transparent. A miss
//! builds its optimizer on the spot: construction is a tolerance check
//! and a struct init, so no per-run optimizer map is kept. (An earlier
//! revision quantized the cold temperature to 1/16 °C in a run-wide
//! key, which silently replayed settings optimized for one cold
//! temperature at another as the source drifted.)

use crate::faulted::{FaultSide, FaultedRun};
use crate::fleet::EngineLayout;
use crate::kernel::{ChangeKernel, KernelStats, KernelTolerance};
use crate::H2pError;
use h2p_cooling::{CoolingError, CoolingOptimizer, CoolingPlant, OptimizedSetting, PlantLoad};
use h2p_exec::{ChunkPlan, PoolTelemetry};
use h2p_faults::{CompiledFaults, FaultLedger, FaultPlan, StepAttribution, StepPowers};
use h2p_hydraulics::{ColdSource, Pump};
use h2p_sched::SchedulingPolicy;
use h2p_server::{CoolingSetting, CpuPowerModel, LookupSpace, ServerModel};
use h2p_teg::TegModule;
use h2p_telemetry::{BucketSpec, Counter, Histogram, Registry};
use h2p_units::{Celsius, DegC, Joules, LitersPerHour, Seconds, Utilization, Watts};
use h2p_workload::{ClusterTrace, TraceGenerator};
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::{PoisonError, RwLock};

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
}

/// Exact cache key for one optimizer decision: the raw bit patterns of
/// the control utilization and the cold-source temperature. Two keys
/// are equal only when both inputs are *bit-identical*, so a hit can
/// never replay a setting optimized under different physics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SettingKey {
    u_control: u64,
    cold: u64,
}

impl SettingKey {
    fn new(u_control: Utilization, cold: Celsius) -> Self {
        SettingKey {
            u_control: u_control.value().to_bits(),
            cold: cold.value().to_bits(),
        }
    }
}

/// Bound on the optimizer-setting memo, in entries (see
/// [`SettingCache`]). Keys are `(u_control, cold)` bit patterns, and
/// runs seldom repeat one: the six paper runs (Drastic, Irregular and
/// Common under `TEG_Original` and `TEG_LoadBalance`, one simulator)
/// miss 38,304 times with no hit, and a 20,000-server × 288-step
/// Common fleet under `TEG_LoadBalance` misses all 144,000 of its
/// lookups, flushing the memo twice (131,072 evictions). The bound
/// caps the memo at 65 536 entries (a few MiB) on any trace.
pub const SETTING_CACHE_CAPACITY: usize = 1 << 16;

/// Always-on statistics of the optimizer-setting cache (see
/// [`Simulator::cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that fell through to a fresh optimizer search.
    pub misses: u64,
    /// Settings written into the memo.
    pub insertions: u64,
    /// Entries dropped by capacity flushes.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// Shared memo of optimizer decisions, readable from every worker
/// thread. Values are pure functions of their exact key, so concurrent
/// insertion races are benign: whichever thread wins writes the same
/// bits the loser would have.
///
/// # Capacity bound & eviction
///
/// The map is bounded at `capacity` entries
/// ([`SETTING_CACHE_CAPACITY`] by default): an insert that would
/// exceed the bound first flushes the whole epoch (clears the map).
/// Epoch flushing is the simplest policy that is *provably* harmless
/// here — every value is a pure function of its exact-bit key, so
/// evicting any entry can only cost a recomputation, never change a
/// result — and it needs no per-entry bookkeeping on the hit path.
/// Hit/miss/insert/evict counters are always live (they are plain
/// atomics), so [`Simulator::cache_stats`] works with or without a
/// telemetry registry attached.
#[derive(Debug)]
struct SettingCache {
    map: RwLock<HashMap<SettingKey, OptimizedSetting>>,
    capacity: usize,
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
}

impl Default for SettingCache {
    fn default() -> Self {
        SettingCache::with_capacity(SETTING_CACHE_CAPACITY)
    }
}

impl SettingCache {
    fn with_capacity(capacity: usize) -> Self {
        SettingCache {
            map: RwLock::new(HashMap::new()),
            capacity: capacity.max(1),
            hits: Counter::new(),
            misses: Counter::new(),
            insertions: Counter::new(),
            evictions: Counter::new(),
        }
    }

    fn get(&self, key: &SettingKey) -> Option<OptimizedSetting> {
        let found = self
            .map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .copied();
        match found {
            Some(_) => self.hits.incr(),
            None => self.misses.incr(),
        }
        found
    }

    fn insert(&self, key: SettingKey, setting: OptimizedSetting) {
        let mut map = self.map.write().unwrap_or_else(PoisonError::into_inner);
        if map.len() >= self.capacity && !map.contains_key(&key) {
            // Epoch flush: drop everything rather than track recency.
            // Transparent by construction (values are pure functions of
            // keys), and the counters make it visible.
            self.evictions
                .add(u64::try_from(map.len()).unwrap_or(u64::MAX));
            map.clear();
        }
        map.insert(key, setting);
        self.insertions.incr();
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
            entries: self
                .map
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
        }
    }

    /// Exposes the counter handles for registration with a telemetry
    /// registry (shared, not copied).
    fn counters(&self) -> [(&'static str, &Counter); 4] {
        [
            ("cache.hits", &self.hits),
            ("cache.misses", &self.misses),
            ("cache.insertions", &self.insertions),
            ("cache.evictions", &self.evictions),
        ]
    }
}

impl Clone for SettingCache {
    /// A clone keeps the warm memo but starts its own statistics:
    /// per-[`Simulator`] counters would be misleading if two engines
    /// shared them.
    fn clone(&self) -> Self {
        SettingCache {
            map: RwLock::new(
                self.map
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone(),
            ),
            capacity: self.capacity,
            hits: Counter::new(),
            misses: Counter::new(),
            insertions: Counter::new(),
            evictions: Counter::new(),
        }
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
    /// Wall time of each evaluated circulation-step.
    circ_wall: Histogram,
    runs: Counter,
    steps: Counter,
    /// Kernel accounting: circulation-steps re-simulated vs. answered
    /// from held decisions, and the forced (fault-demanded) subset.
    circs_evaluated: Counter,
    circs_held: Counter,
    kernel_forced: Counter,
}

impl EngineTelemetry {
    fn disabled() -> Self {
        EngineTelemetry {
            registry: Registry::disabled(),
            pool: PoolTelemetry::disabled(),
            circ_wall: Histogram::disabled(),
            runs: Counter::new(),
            steps: Counter::new(),
            circs_evaluated: Counter::new(),
            circs_held: Counter::new(),
            kernel_forced: Counter::new(),
        }
    }

    fn from_registry(registry: &Registry) -> Self {
        if !registry.is_enabled() {
            return EngineTelemetry::disabled();
        }
        EngineTelemetry {
            registry: registry.clone(),
            pool: PoolTelemetry::from_registry(registry),
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
            circs_held: registry.counter("engine.circulations_held"),
            kernel_forced: registry.counter("engine.kernel_forced"),
        }
    }

    /// Records one finished control interval.
    fn note_step(&self) {
        if self.registry.is_enabled() {
            self.steps.incr();
        }
    }

    /// Records one finished run.
    fn note_run(&self) {
        if self.registry.is_enabled() {
            self.runs.incr();
        }
    }

    /// Records one run's evaluated/held/forced split.
    fn note_kernel(&self, stats: KernelStats) {
        if self.registry.is_enabled() {
            self.circs_evaluated.add(stats.evaluated);
            self.circs_held.add(stats.held);
            self.kernel_forced.add(stats.forced);
        }
    }
}

/// Partial aggregates of one circulation over one control interval —
/// what a lane produces per step — and, absorbed in circulation-index
/// order, the running fold of a whole interval. Summation happens
/// within the circulation (server order), and partials merge in
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
/// lookup space (once); individual [`run`](Simulator::run)s then share
/// it, along with the optimizer-setting cache (see the
/// [module docs](self) for the determinism contract).
#[derive(Debug, Clone)]
pub struct Simulator {
    pub(crate) config: SimulationConfig,
    pub(crate) space: LookupSpace,
    pub(crate) power_model: CpuPowerModel,
    pub(crate) max_operating: Celsius,
    workers: NonZeroUsize,
    cache: SettingCache,
    telemetry: EngineTelemetry,
    /// `None` evaluates every circulation-step (dense); `Some` lets
    /// lanes hold unchanged circulations (the change-detection kernel).
    kernel: Option<KernelTolerance>,
}

impl Simulator {
    /// Creates a simulator for a server model and configuration.
    ///
    /// The worker count defaults to the machine's available parallelism
    /// (see [`with_workers`](Self::with_workers)).
    ///
    /// # Errors
    ///
    /// Propagates lookup-space construction failures.
    pub fn new(model: &ServerModel, config: SimulationConfig) -> Result<Self, H2pError> {
        let space = LookupSpace::paper_grid(model)?;
        Ok(Simulator {
            config,
            space,
            power_model: *model.power_model(),
            max_operating: model.spec().max_operating,
            workers: h2p_exec::worker_count(),
            cache: SettingCache::default(),
            telemetry: EngineTelemetry::disabled(),
            kernel: None,
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

    /// Turns on the change-detection event kernel (see
    /// [`crate::kernel`]) for every run mode, `run_fleet` included: a
    /// circulation is re-simulated only when its control utilization or
    /// the cold-source temperature moved beyond `tolerance` since its
    /// last evaluation, when a fault event touches it, or when it has
    /// no held decision yet.
    ///
    /// [`KernelTolerance::exact`] degenerates to the exact stepper —
    /// bit-identical to a dense run for every trace, policy, worker
    /// count, chunk plan and fault plan (the transparency contract);
    /// non-zero tolerances trade a bounded accuracy delta for skipping
    /// unchanged circulations.
    #[must_use]
    pub fn with_kernel_tolerance(mut self, tolerance: KernelTolerance) -> Self {
        self.kernel = Some(tolerance);
        self
    }

    /// Reverts [`with_kernel_tolerance`](Self::with_kernel_tolerance):
    /// runs evaluate every circulation-step again.
    #[must_use]
    pub fn without_kernel(mut self) -> Self {
        self.kernel = None;
        self
    }

    /// The configured kernel tolerance (`None` = dense).
    #[must_use]
    pub fn kernel_tolerance(&self) -> Option<KernelTolerance> {
        self.kernel
    }

    /// Returns the simulator unchanged: the engine has one per-server
    /// loop, so there is no layout to select (see [`EngineLayout`]).
    #[must_use]
    pub fn with_layout(self, _layout: EngineLayout) -> Self {
        self
    }

    /// Attaches a telemetry registry: the circulation wall-time
    /// histogram, pool telemetry, run/step/kernel counters, and the
    /// cache counters all become visible through `registry` (and in its
    /// [`RunReport`](h2p_telemetry::RunReport)). Attaching
    /// [`Registry::disabled`] detaches. Simulation *results* are
    /// bit-identical with telemetry attached or not — observation
    /// never feeds back into the physics.
    #[must_use]
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.telemetry = EngineTelemetry::from_registry(registry);
        for (name, counter) in self.cache.counters() {
            registry.register_counter(name, counter);
        }
        self
    }

    /// The attached telemetry registry ([`Registry::disabled`] when
    /// none was attached).
    #[must_use]
    pub fn telemetry_registry(&self) -> &Registry {
        &self.telemetry.registry
    }

    /// Always-on statistics of the optimizer-setting cache. Works
    /// without [`with_telemetry`](Self::with_telemetry): the counters
    /// behind it are plain atomics that count regardless of
    /// observation.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
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

    /// Streams a fleet-scale run without ever materializing the full
    /// trace: shards are generated on demand, one resident chunk at a
    /// time, following the [`ChunkPlan`]'s circulation → chunk → lane
    /// hierarchy. The result is **bit-identical** to materializing the
    /// trace with [`TraceGenerator::generate`] and calling
    /// [`run`](Self::run) on the same simulator — kernel tolerance and
    /// worker count included, because both go through the same driver
    /// (`tests/fleet_transparency.rs` is the oracle).
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
        let mut shards = generator.shards(plan.max_chunk_servers());
        let chunks = plan.chunks().map(|chunk| {
            let shard = shards.next().ok_or(H2pError::FleetPlanMismatch {
                what: "shard count",
                expected: chunk.index + 1,
                got: chunk.index,
            })?;
            debug_assert_eq!(shard.start_server(), chunk.servers.start);
            Ok(shard.into_cluster())
        });
        let shape = (servers, generator.steps(), generator.interval());
        Ok(self
            .drive(shape, chunks, policy, &FaultPlan::none())?
            .result)
    }

    /// Servers per circulation for a run over `servers` servers.
    fn circulation_size(&self, servers: usize) -> usize {
        self.config.servers_per_circulation.min(servers).max(1)
    }

    /// The engine's one step driver, behind every run. `shape` is the
    /// whole run's `(servers, steps, interval)`; `chunks` yields its
    /// servers in index order as traces that never split a
    /// circulation (a materialized run is one chunk). Each chunk's
    /// circulations go to the worker pool as lanes, each lane walking
    /// its circulation through every step; a sequential merge then
    /// folds the lanes step by step in circulation-index order and
    /// feeds the plant, the [`FaultLedger`] and the fault journal — so
    /// results and journals are independent of worker count and chunk
    /// plan.
    pub(crate) fn drive<C: Borrow<ClusterTrace>>(
        &self,
        (servers, n_steps, interval): (usize, usize, Seconds),
        chunks: impl Iterator<Item = Result<C, H2pError>>,
        policy: &dyn SchedulingPolicy,
        plan: &FaultPlan,
    ) -> Result<FaultedRun, H2pError> {
        let circ_size = self.circulation_size(servers);
        let time = |step: usize| Seconds::new(interval.value() * step as f64);
        let compiled = plan.compile(servers, circ_size, n_steps);
        let run = RunInputs {
            policy,
            colds: (0..n_steps)
                .map(|step| self.config.cold_source.temperature(time(step)))
                .collect(),
            events: compiled.evaluation_events(),
            compiled,
        };

        // Per step: the faulted and healthy folds and the per-class
        // attribution sums (sensor, pump, TEG).
        let mut folds = vec![(CircPartial::ZERO, CircPartial::ZERO, [0.0; 3]); n_steps];
        let mut ledger = FaultLedger::new(interval);
        let mut stats = KernelStats::default();
        let mut first_circ = 0;
        for chunk in chunks {
            let chunk = chunk?;
            let trace = chunk.borrow();
            let circs: Vec<usize> =
                (first_circ..first_circ + trace.servers().div_ceil(circ_size)).collect();
            let lanes = h2p_exec::try_par_map_observed(
                &self.telemetry.pool,
                self.workers,
                &circs,
                |_, &circ| {
                    let start = (circ - first_circ) * circ_size;
                    let end = start.saturating_add(circ_size).min(trace.servers());
                    self.run_lane(&run, trace, start..end, circ)
                },
            )?;
            first_circ += circs.len();

            // Merge in circulation-index order: every step's folds see
            // their additions in global circulation order, whatever
            // the chunking.
            for lane in lanes {
                stats.absorb(lane.stats);
                let mut faults = lane.faults.iter().peekable();
                for (step, (partial, (faulted, healthy, attr))) in
                    lane.partials.iter().zip(&mut folds).enumerate()
                {
                    faulted.absorb(*partial);
                    let Some((_, side)) = faults.next_if(|(s, _)| *s == step) else {
                        healthy.absorb(*partial);
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
        self.telemetry.note_kernel(stats);
        self.telemetry.note_run();
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

    /// One lane: a circulation walked through every control interval.
    /// Per step it gathers the circulation's loads, computes the
    /// control utilization once, and then holds (see
    /// [`crate::kernel`]) or evaluates through the fault decorator.
    /// A fault event or a live fault forces an evaluation, and only
    /// fault-free evaluations are committed as holds.
    fn run_lane(
        &self,
        run: &RunInputs<'_>,
        trace: &ClusterTrace,
        servers: Range<usize>,
        circ: usize,
    ) -> Result<LaneRun, H2pError> {
        let mut kernel = ChangeKernel::new(self.kernel);
        let mut partials = Vec::with_capacity(run.colds.len());
        let mut faults = Vec::new();
        let mut loads: Vec<Utilization> = Vec::with_capacity(servers.len());
        for (step, &cold) in run.colds.iter().enumerate() {
            loads.clear();
            loads.extend(servers.clone().map(|s| trace.trace(s).get(step)));
            let u_ctrl = run.policy.control_utilization(&loads);
            let active = run.compiled.active_at(circ, step);
            let forced = active.is_some()
                || run
                    .events
                    .get(&step)
                    .is_some_and(|circs| circs.binary_search(&circ).is_ok());
            if let Some(held) = kernel.classify(&loads, u_ctrl.value(), cold.value(), forced) {
                partials.push(held);
                continue;
            }
            let t0 = self.telemetry.registry.now_nanos();
            let (partial, side) = self.simulate_circulation(run, &loads, u_ctrl, cold, active)?;
            self.telemetry
                .circ_wall
                .record(self.telemetry.registry.now_nanos().saturating_sub(t0));
            match side {
                None => kernel.commit(&loads, u_ctrl.value(), cold.value(), partial),
                Some(side) => faults.push((step, side)),
            }
            partials.push(partial);
        }
        Ok(LaneRun {
            partials,
            faults,
            stats: kernel.stats(),
        })
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
        for (offset, &u) in scheduled.iter().enumerate() {
            let u = if u > cap {
                throttled += 1;
                cap
            } else {
                u
            };
            let (outlet, die) = match point {
                Some(point) => self.space.temperatures_at(self.space.plane(u)?, point),
                None => (
                    self.space.outlet_temperature(u, at.flow, at.inlet)?,
                    self.space.cpu_temperature(u, at.flow, at.inlet)?,
                ),
            };
            if die > self.max_operating {
                partial.violations += 1;
            }
            let teg = self.config.module.max_power(outlet - cold);
            harvest += teg.value();
            partial.teg += teg.value() * derate(offset);
            partial.cpu += self.power_model.base_power(u).value();
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
    /// cold-side temperature, wired into the engine's telemetry. Cheap
    /// to build (a tolerance check and a struct init), so callers build
    /// one where they resolve settings instead of keeping maps of them.
    ///
    /// # Errors
    ///
    /// Returns the optimizer's construction error (a non-positive
    /// tolerance in the configuration).
    pub fn optimizer(&self, cold: Celsius) -> Result<CoolingOptimizer<'_>, CoolingError> {
        Ok(CoolingOptimizer::new(
            &self.space,
            self.config.module,
            self.config.pump,
            self.config.t_safe,
            self.config.tolerance,
            cold,
        )?
        .with_telemetry(&self.telemetry.registry))
    }

    /// The cooling setting the engine runs a circulation under at
    /// control utilization `u_ctrl` and cold-side temperature `cold`,
    /// resolved through the simulator's exact-key setting cache — the
    /// engine's only cooling-setting memo.
    ///
    /// # Errors
    ///
    /// [`H2pError::Cooling`] if the optimizer cannot be built and
    /// [`H2pError::NoFeasibleSetting`] if it cannot serve `u_ctrl`
    /// (cannot happen on the paper grid).
    pub fn optimized_setting(
        &self,
        u_ctrl: Utilization,
        cold: Celsius,
    ) -> Result<OptimizedSetting, H2pError> {
        let key = SettingKey::new(u_ctrl, cold);
        if let Some(hit) = self.cache.get(&key) {
            return Ok(hit);
        }
        let chosen = self
            .optimizer(cold)?
            .optimize(u_ctrl)
            .ok_or(H2pError::NoFeasibleSetting {
                control_utilization: u_ctrl.value(),
            })?;
        self.cache.insert(key, chosen);
        Ok(chosen)
    }
}

/// What every lane of one run shares: the policy, the cold-source
/// reading of every step, and the compiled fault plan and its forced
/// re-evaluation events (step → circulations).
pub(crate) struct RunInputs<'a> {
    pub(crate) policy: &'a dyn SchedulingPolicy,
    colds: Vec<Celsius>,
    pub(crate) compiled: CompiledFaults,
    events: BTreeMap<usize, Vec<usize>>,
}

/// What a lane hands back to the merge: the faulted-world partial of
/// every step, the fault side of only the steps a fault touched, and
/// the lane's kernel accounting.
struct LaneRun {
    partials: Vec<CircPartial>,
    faults: Vec<(usize, FaultSide)>,
    stats: KernelStats,
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
        // Regression test for the stale-cache bug: the old run-wide key
        // quantized the cold temperature to 1/16 °C, so as the source
        // drifted, settings optimized at one cold temperature were
        // silently replayed at another. With exact keys, the setting the
        // cache serves for every (step, circulation) of a seasonal run
        // must be the one a fresh optimizer search returns, bit for bit.
        let mut cfg = SimulationConfig::paper_default();
        cfg.cold_source = ColdSource::Seasonal {
            mean: Celsius::new(17.5),
            amplitude: DegC::new(2.5),
            period: Seconds::hours(6.0),
        };
        let sim = Simulator::new(&ServerModel::paper_default(), cfg).unwrap();
        let cluster = small_cluster(TraceKind::Irregular);
        let seasonal = sim.run(&cluster, &LoadBalance).unwrap();
        let after_run = sim.cache_stats();
        let mut lookups = 0;
        for step in 0..cluster.steps() {
            let time = Seconds::new(cluster.interval().value() * step as f64);
            let cold = sim.config().cold_source.temperature(time);
            let loads = cluster.utilizations_at(step);
            for chunk in loads.chunks(sim.config().servers_per_circulation) {
                let u = LoadBalance.control_utilization(chunk);
                let cached = sim.optimized_setting(u, cold).unwrap();
                let fresh = sim.optimizer(cold).unwrap().optimize(u).unwrap();
                assert_eq!(setting_bits(&cached), setting_bits(&fresh), "step {step}");
                lookups += 1;
            }
        }
        // The run resolved every one of those keys, so the cache served
        // them all.
        let stats = sim.cache_stats();
        assert_eq!(stats.misses, after_run.misses);
        assert_eq!(stats.hits - after_run.hits, lookups);
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
        // The cache is shared across runs on one simulator; hits must
        // return exactly what a cold-cache simulator computes.
        let sim = Simulator::paper_default().unwrap();
        let cluster = small_cluster(TraceKind::Common);
        let first = sim.run(&cluster, &LoadBalance).unwrap();
        let warm = sim.run(&cluster, &LoadBalance).unwrap();
        let cold_cache = Simulator::paper_default()
            .unwrap()
            .run(&cluster, &LoadBalance)
            .unwrap();
        for ((a, b), c) in first
            .steps()
            .iter()
            .zip(warm.steps())
            .zip(cold_cache.steps())
        {
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
    fn worker_count_is_configurable_and_visible() {
        let sim = Simulator::paper_default().unwrap();
        assert!(sim.workers().get() >= 1);
        let forced = sim.with_workers(NonZeroUsize::new(3).unwrap());
        assert_eq!(forced.workers().get(), 3);
    }

    fn dummy_setting(flow: f64) -> OptimizedSetting {
        OptimizedSetting {
            setting: h2p_server::CoolingSetting {
                flow: h2p_units::LitersPerHour::new(flow),
                inlet: Celsius::new(45.0),
            },
            teg_power: Watts::new(4.0),
            pump_power: Watts::new(0.5),
            net_power: Watts::new(3.5),
            outlet: Celsius::new(55.0),
            cpu_temperature: Celsius::new(61.5),
            in_band: true,
        }
    }

    #[test]
    fn setting_cache_bound_is_enforced_by_epoch_flush() {
        // Regression test for the unbounded-memo hazard: a long run
        // with ever-fresh (u, cold) bit patterns must not grow the map
        // past its capacity.
        let cache = SettingCache::with_capacity(4);
        for i in 0..23u32 {
            let key = SettingKey::new(
                Utilization::saturating(f64::from(i) / 23.0),
                Celsius::new(20.0),
            );
            cache.insert(key, dummy_setting(f64::from(i)));
            assert!(
                cache.stats().entries <= 4,
                "entries {} exceeded capacity after insert {i}",
                cache.stats().entries
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.insertions, 23);
        // 23 inserts into 4 slots: flush at every 4th fresh key.
        assert!(stats.evictions >= 16, "evictions = {}", stats.evictions);
        // Re-inserting a resident key must not flush.
        let resident_before = cache.stats().entries;
        let key = SettingKey::new(Utilization::saturating(22.0 / 23.0), Celsius::new(20.0));
        cache.insert(key, dummy_setting(22.0));
        assert_eq!(cache.stats().entries, resident_before);
    }

    #[test]
    fn cache_stats_work_without_telemetry() {
        let sim = Simulator::paper_default().unwrap();
        let zero = sim.cache_stats();
        assert_eq!((zero.hits, zero.misses, zero.entries), (0, 0, 0));
        let cluster = small_cluster(TraceKind::Common);
        let first = sim.run(&cluster, &LoadBalance).unwrap();
        let cold_stats = sim.cache_stats();
        assert!(cold_stats.misses > 0, "first run must miss");
        assert_eq!(cold_stats.insertions, cold_stats.misses);
        assert_eq!(cold_stats.entries as u64, cold_stats.insertions);
        assert_eq!(cold_stats.evictions, 0, "paper-scale keys fit the bound");
        let warm = sim.run(&cluster, &LoadBalance).unwrap();
        let warm_stats = sim.cache_stats();
        assert_eq!(
            warm_stats.misses, cold_stats.misses,
            "second identical run must be all hits"
        );
        assert!(warm_stats.hits > cold_stats.hits);
        for (a, b) in first.steps().iter().zip(warm.steps()) {
            assert_eq!(a, b);
        }
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
        assert_eq!(
            counters["cache.hits"] + counters["cache.misses"],
            {
                let s = observed.cache_stats();
                s.hits + s.misses
            },
            "registered cache counters share the simulator's"
        );

        let hists: std::collections::BTreeMap<String, h2p_telemetry::Histogram> =
            registry.histograms().into_iter().collect();
        // 80 servers ÷ 40 per circulation = 2 circulations × 36 steps,
        // every one evaluated in a dense run.
        assert_eq!(hists["engine.circulation_wall_nanos"].count(), 72);
        assert_eq!(counters["engine.circulations_evaluated"], 72);
        assert_eq!(counters["engine.circulations_held"], 0);

        let report = h2p_telemetry::RunReport::from_registry(&registry);
        assert!(!report.is_empty());
        assert!(report.render().contains("engine.circulation_wall_nanos"));
    }
}
