//! The deterministic placement engine.
//!
//! [`PlacementEngine::place`] walks the control intervals of a run:
//! each step it recomputes committed demand from the jobs still
//! running, admits queued jobs first (FIFO) and then this step's
//! arrivals in `(arrival step, job id)` order, asks the
//! [`PlacementPolicy`](crate::PlacementPolicy) for a server per job,
//! snapshots the committed column into the synthesized trace, and
//! finally runs a per-server thermal pass (the engine's Sec. V-B
//! setting resolution and its own per-server evaluator) to refresh the
//! [`ServerState`]s the *next* step's decisions will see.
//! Policies therefore act on prior-step thermals plus current-step
//! committed demand — never on anything downstream of their own
//! decision — which is what makes the loop a pure sequential function
//! of its inputs.

use crate::{Job, JobsError};
use h2p_cooling::CoolingOptimizer;
use h2p_core::simulation::Simulator;
use h2p_core::H2pError;
use h2p_sched::SchedulingPolicy;
use h2p_server::ThrottleController;
use h2p_telemetry::{BucketSpec, Counter, Histogram, Registry};
use h2p_units::{Celsius, Seconds, Utilization, Watts};
use h2p_workload::{ClusterTrace, Trace};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Slack applied to the per-server capacity check so that demands
/// which sum to exactly 1.0 in real numbers are not bounced by float
/// resummation (the committed column is clamped to `[0, 1]` before it
/// enters the trace, so the slack never leaks into the physics).
const CAPACITY_SLACK: f64 = 1e-9;

/// What a placement policy may observe about one server: the
/// *previous* step's thermal outcome under the engine's scheduling
/// policy, plus the safety headroom implied by that step's cooling
/// setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerState {
    /// Coolant inlet temperature chosen for the server's circulation.
    pub inlet: Celsius,
    /// The server's coolant outlet temperature.
    pub outlet: Celsius,
    /// The load the scheduling policy assigned the server.
    pub utilization: Utilization,
    /// Highest utilization whose predicted die temperature stays under
    /// the hard envelope at the circulation's cooling setting.
    pub safe_cap: Utilization,
    /// Per-server TEG output at the circulation's setting (Eq. 3).
    pub teg_power: Watts,
}

impl ServerState {
    /// A cold-start placeholder used before the first thermal pass.
    fn initial(t_safe: Celsius) -> Self {
        ServerState {
            inlet: t_safe,
            outlet: t_safe,
            utilization: Utilization::IDLE,
            safe_cap: Utilization::FULL,
            teg_power: Watts::new(0.0),
        }
    }
}

/// Scores the marginal TEG-harvest effect of adding demand to a
/// server. Implemented by the engine's scorer (with the step's
/// optimizer and cold temperature); test doubles stub it out.
pub(crate) trait HarvestScorer {
    /// Predicted change in the server's circulation TEG output
    /// (watts per server) if `demand` were committed to `server`,
    /// holding everything else at the committed column.
    fn harvest_delta(&self, committed: &[f64], server: usize, demand: Utilization) -> f64;
}

/// The read-only snapshot a [`PlacementPolicy`](crate::PlacementPolicy)
/// sees while placing one job: previous-step thermal state per server,
/// the demand already committed *this* step, and a scorer for marginal
/// harvest. Everything is deterministic given the admission order.
pub struct ClusterView<'a> {
    states: &'a [ServerState],
    committed: &'a [f64],
    circ_size: usize,
    scorer: &'a dyn HarvestScorer,
}

impl ClusterView<'_> {
    /// Number of servers.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.states.len()
    }

    /// Servers per water circulation (CDU granularity).
    #[must_use]
    pub fn circulation_size(&self) -> usize {
        self.circ_size
    }

    /// Previous-step state of one server.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range (indexing).
    #[must_use]
    pub fn state(&self, server: usize) -> ServerState {
        self.states[server]
    }

    /// Demand already committed to a server this step.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range (indexing).
    #[must_use]
    pub fn committed(&self, server: usize) -> f64 {
        self.committed[server]
    }

    /// Whether `demand` still fits on `server` this step.
    #[must_use]
    pub fn fits(&self, server: usize, demand: Utilization) -> bool {
        server < self.committed.len()
            && self.committed[server] + demand.value() <= 1.0 + CAPACITY_SLACK
    }

    /// Predicted change in the server's circulation TEG output (watts
    /// per server) if `demand` were committed to `server`. Returns
    /// `f64::NEG_INFINITY` when the optimizer cannot serve the
    /// resulting control utilization (cannot happen on the paper grid).
    #[must_use]
    pub fn harvest_delta(&self, server: usize, demand: Utilization) -> f64 {
        self.scorer.harvest_delta(self.committed, server, demand)
    }
}

/// Builds a view; kept crate-private so callers cannot forge state.
pub(crate) fn view<'a>(
    states: &'a [ServerState],
    committed: &'a [f64],
    circ_size: usize,
    scorer: &'a dyn HarvestScorer,
) -> ClusterView<'a> {
    ClusterView {
        states,
        committed,
        circ_size,
        scorer,
    }
}

/// The engine's scorer: marginal Eq. 3 TEG output through the step's
/// cooling optimizer. It lives for one [`PlacementEngine::place`] and
/// prices each candidate in O(1) plus at most one memo probe.
///
/// Per circulation it keeps the saturated committed chunk, its control
/// utilization `u_now` and the TEG output there (`now`). They are built
/// on the circulation's first score of a step; a step's start reuses
/// `now` when the cold-source and `u_now` bits match the ones it was
/// solved at. A candidate's control utilization comes from the
/// scheduling policy's
/// [`control_utilization_with`](SchedulingPolicy::control_utilization_with),
/// which sees the loads a freshly built chunk would hold, in the same
/// order; a candidate that leaves the bits of `u_now` unchanged scores
/// `now − now` with no probe.
///
/// The memo holds one job's solves, keyed by control-utilization bits
/// (the cold source is fixed within a step), and is cleared when the
/// engine asks the policy about the next job: a job's candidates share
/// most keys, and what a later job needed of an earlier one's solves
/// was a circulation's own `u_now`, which the circulation keeps. After
/// a commit ([`note_commit`](Self::note_commit)) a circulation
/// already scored this step takes its new `u_now` and `now` from the
/// memo; one not yet scored stays lazy, so policies that never score
/// make no solves here.
struct StepScorer<'a> {
    optimizer: CoolingOptimizer<'a>,
    sched: &'a dyn SchedulingPolicy,
    cold_bits: u64,
    circ_size: usize,
    state: RefCell<ScoreState>,
}

/// The scorer's mutable half.
struct ScoreState {
    /// The saturated committed column, current for every circulation
    /// marked [`current`](Circulation::current).
    chunks: Vec<Utilization>,
    circulations: Vec<Circulation>,
    memo: Memo,
}

/// One job's TEG outputs by control-utilization bits.
type Memo = HashMap<u64, Option<f64>, BuildHasherDefault<BitsHasher>>;

/// One circulation's scoring state.
#[derive(Clone, Copy)]
struct Circulation {
    /// Whether the kept chunk holds this step's committed loads and
    /// `u_now` is their control utilization.
    current: bool,
    u_now: Utilization,
    /// The cold-source bits `now` was solved under; `None` before the
    /// first solve.
    cold_bits: Option<u64>,
    /// The TEG output at `u_now` under `cold_bits`.
    now: Option<f64>,
}

/// Hashes the memo's keys, which are `f64` bits, with one multiply
/// instead of SipHash, which would cost most of a probe. Keys derive
/// from job demands, which may come from an ingested job file, but the
/// memo holds at most one job's keys (one per server and circulation),
/// so even keys that all collide cost a scan of that many entries.
#[derive(Default)]
struct BitsHasher(u64);

impl Hasher for BitsHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(byte));
        }
    }

    fn write_u64(&mut self, bits: u64) {
        // Fibonacci hashing; the product's high half, which every key
        // bit reaches, is folded into the low bits that pick a bucket.
        let h = bits.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

impl<'a> StepScorer<'a> {
    fn new(
        optimizer: CoolingOptimizer<'a>,
        sched: &'a dyn SchedulingPolicy,
        servers: usize,
        circ_size: usize,
    ) -> Self {
        let idle = Circulation {
            current: false,
            u_now: Utilization::IDLE,
            cold_bits: None,
            now: None,
        };
        StepScorer {
            cold_bits: optimizer.cold_water().value().to_bits(),
            optimizer,
            sched,
            circ_size,
            state: RefCell::new(ScoreState {
                chunks: vec![Utilization::IDLE; servers],
                circulations: vec![idle; servers.div_ceil(circ_size)],
                memo: HashMap::default(),
            }),
        }
    }

    /// Starts a step under its optimizer: every circulation is rebuilt
    /// on its next score.
    fn begin_step(&mut self, optimizer: CoolingOptimizer<'a>) {
        self.cold_bits = optimizer.cold_water().value().to_bits();
        self.optimizer = optimizer;
        let state = self.state.get_mut();
        state
            .circulations
            .iter_mut()
            .for_each(|c| c.current = false);
        state.memo.clear();
    }

    /// Starts the next job's scoring with an empty memo.
    fn begin_job(&mut self) {
        self.state.get_mut().memo.clear();
    }

    /// Carries `server`'s circulation past a job the engine committed
    /// there, `committed` being the column with the job in it.
    fn note_commit(&mut self, committed: &[f64], server: usize) {
        let circ = server / self.circ_size;
        let ScoreState {
            chunks,
            circulations,
            memo,
        } = self.state.get_mut();
        let Some(c) = circulations.get_mut(circ).filter(|c| c.current) else {
            return;
        };
        let start = circ * self.circ_size;
        let end = (start + self.circ_size).min(committed.len());
        let chunk = &mut chunks[start..end];
        let slot = server - start;
        let load = Utilization::saturating(committed[server]);
        let u = self
            .sched
            .control_utilization_with(chunk, c.u_now, slot, load);
        chunk[slot] = load;
        if u.value().to_bits() != c.u_now.value().to_bits() {
            match memo.get(&u.value().to_bits()) {
                Some(&now) => {
                    c.u_now = u;
                    c.now = now;
                }
                None => c.current = false,
            }
        }
    }

    /// Rebuilds a circulation's chunk from the committed column and
    /// its `now`, unless `now` was solved at the same bits.
    fn refresh(
        &self,
        c: &mut Circulation,
        chunk: &mut [Utilization],
        committed: &[f64],
        memo: &mut Memo,
    ) {
        for (kept, &d) in chunk.iter_mut().zip(committed) {
            *kept = Utilization::saturating(d);
        }
        let u = self.sched.control_utilization(chunk);
        if c.cold_bits != Some(self.cold_bits) || c.u_now.value().to_bits() != u.value().to_bits() {
            c.now = self.teg_at(memo, u);
            c.u_now = u;
            c.cold_bits = Some(self.cold_bits);
        }
        c.current = true;
    }

    fn teg_at(&self, memo: &mut Memo, u_ctrl: Utilization) -> Option<f64> {
        *memo.entry(u_ctrl.value().to_bits()).or_insert_with(|| {
            self.optimizer
                .optimize(u_ctrl)
                .map(|setting| setting.teg_power.value())
        })
    }
}

impl HarvestScorer for StepScorer<'_> {
    fn harvest_delta(&self, committed: &[f64], server: usize, demand: Utilization) -> f64 {
        if server >= committed.len() {
            return f64::NEG_INFINITY;
        }
        let circ = server / self.circ_size;
        let start = circ * self.circ_size;
        let end = (start + self.circ_size).min(committed.len());
        let mut state = self.state.borrow_mut();
        let ScoreState {
            chunks,
            circulations,
            memo,
        } = &mut *state;
        let chunk = &mut chunks[start..end];
        let c = &mut circulations[circ];
        if !c.current {
            self.refresh(c, chunk, &committed[start..end], memo);
        }
        let load = Utilization::saturating(committed[server] + demand.value());
        let u_after = self
            .sched
            .control_utilization_with(chunk, c.u_now, server - start, load);
        let after = if u_after.value().to_bits() == c.u_now.value().to_bits() {
            c.now
        } else {
            self.teg_at(memo, u_after)
        };
        match (c.now, after) {
            (Some(now), Some(after)) => after - now,
            _ => f64::NEG_INFINITY,
        }
    }
}

/// Placement counters and the queue-latency histogram, published into
/// a shared [`Registry`] when enabled.
#[derive(Debug, Clone)]
pub struct JobsTelemetry {
    placed: Counter,
    rejected: Counter,
    migrated: Counter,
    queue_wait: Histogram,
}

impl JobsTelemetry {
    /// A no-op sink (the default).
    #[must_use]
    pub fn disabled() -> Self {
        JobsTelemetry {
            placed: Counter::new(),
            rejected: Counter::new(),
            migrated: Counter::new(),
            queue_wait: Histogram::disabled(),
        }
    }

    /// Wires the placement counters (`jobs.placed`, `jobs.rejected`,
    /// `jobs.migrated`) and the `jobs.queue_wait_steps` histogram into
    /// a registry. A disabled registry yields a no-op sink.
    #[must_use]
    pub fn from_registry(registry: &Registry) -> Self {
        if !registry.is_enabled() {
            return JobsTelemetry::disabled();
        }
        let wait_spec = BucketSpec::exponential(1, 12);
        let queue_wait = match wait_spec {
            Ok(spec) => registry
                .histogram("jobs.queue_wait_steps", &spec)
                .unwrap_or_else(|_| Histogram::disabled()),
            Err(_) => Histogram::disabled(),
        };
        JobsTelemetry {
            placed: registry.counter("jobs.placed"),
            rejected: registry.counter("jobs.rejected"),
            migrated: registry.counter("jobs.migrated"),
            queue_wait,
        }
    }
}

/// Aggregate outcome of one placement run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacementOutcome {
    /// Jobs committed to a server.
    pub placed: usize,
    /// Jobs dropped: queue overflow, arrival past the horizon, or
    /// still queued when the horizon ended.
    pub rejected: usize,
    /// Queued jobs that eventually landed on a different server than
    /// the policy's recorded first choice.
    pub migrated: usize,
    /// Server-steps whose scheduled load exceeded the safety cap of
    /// the circulation's cooling setting (hard envelope, 78.9 °C die).
    pub throttle_violations: usize,
    /// Total committed demand summed over servers and steps — the
    /// served work, comparable across policies when nothing queues.
    pub served_demand_steps: f64,
    /// Longest time any placed job spent queued, in control intervals.
    pub max_queue_wait_steps: usize,
}

/// A synthesized trace plus the bookkeeping of how it came to be.
#[derive(Debug, Clone)]
pub struct PlacementRun {
    /// The materialized per-server utilization trace. Running it at
    /// any worker count yields bit-identical results — see the
    /// crate-level determinism contract.
    pub trace: ClusterTrace,
    /// Placement statistics for the run.
    pub outcome: PlacementOutcome,
}

/// One job waiting for capacity, with its admission bookkeeping.
struct Queued {
    job: usize,
    arrival_step: usize,
    first_choice: Option<usize>,
}

/// The closed-loop placement engine. See the [module docs](self) for
/// the step anatomy and the crate docs for the determinism contract.
pub struct PlacementEngine<'a> {
    sim: &'a Simulator,
    sched: &'a dyn SchedulingPolicy,
    servers: usize,
    steps: usize,
    interval: Seconds,
    queue_capacity: usize,
    telemetry: JobsTelemetry,
}

impl<'a> PlacementEngine<'a> {
    /// Creates an engine over `servers × steps` control intervals,
    /// predicting thermals with the simulator's lookup space and the
    /// given scheduling policy (pass the same policy to the simulation
    /// run for a consistent closed loop).
    ///
    /// The control interval defaults to the paper's five minutes and
    /// the admission queue to 1024 jobs.
    ///
    /// # Errors
    ///
    /// [`JobsError::EmptyCluster`] when `servers` or `steps` is zero.
    pub fn new(
        sim: &'a Simulator,
        sched: &'a dyn SchedulingPolicy,
        servers: usize,
        steps: usize,
    ) -> Result<Self, JobsError> {
        if servers == 0 || steps == 0 {
            return Err(JobsError::EmptyCluster);
        }
        Ok(PlacementEngine {
            sim,
            sched,
            servers,
            steps,
            interval: Seconds::minutes(5.0),
            queue_capacity: 1024,
            telemetry: JobsTelemetry::disabled(),
        })
    }

    /// Sets the control interval.
    ///
    /// # Errors
    ///
    /// [`JobsError::InvalidInterval`] unless `interval` is finite and
    /// positive: every job's arrival and duration step divides by it.
    pub fn with_interval(mut self, interval: Seconds) -> Result<Self, JobsError> {
        if !(interval.value() > 0.0) || !interval.value().is_finite() {
            return Err(JobsError::InvalidInterval {
                seconds: interval.value(),
            });
        }
        self.interval = interval;
        Ok(self)
    }

    /// Sets the admission-queue capacity (jobs beyond it are rejected).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Publishes placement telemetry into a registry.
    #[must_use]
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.telemetry = JobsTelemetry::from_registry(registry);
        self
    }

    /// The control interval.
    #[must_use]
    pub fn interval(&self) -> Seconds {
        self.interval
    }

    /// Number of servers.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Number of control intervals.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Runs the placement loop over a job set and materializes the
    /// per-server utilization trace. Jobs may arrive in any order; the
    /// engine admits them by `(arrival step, id)`.
    ///
    /// # Errors
    ///
    /// [`JobsError::NoFeasibleSetting`] if the cooling optimizer
    /// cannot serve some control utilization (cannot happen on the
    /// paper grid), [`JobsError::Thermal`] on lookup failures, and
    /// [`JobsError::Trace`] if trace assembly rejects the synthesized
    /// columns.
    pub fn place(
        &self,
        jobs: &[Job],
        policy: &mut dyn crate::PlacementPolicy,
    ) -> Result<PlacementRun, JobsError> {
        let circ_size = self
            .sim
            .config()
            .servers_per_circulation
            .min(self.servers)
            .max(1);
        let throttle = ThrottleController::at_max_operating();

        // Admission order: (arrival step, id), ids breaking ties within
        // a step. Jobs arriving at or after the horizon are rejected.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&i| (jobs[i].arrival_step(self.interval), jobs[i].id()));
        let horizon_rejects = order
            .iter()
            .filter(|&&i| jobs[i].arrival_step(self.interval) >= self.steps)
            .count();
        order.retain(|&i| jobs[i].arrival_step(self.interval) < self.steps);

        let mut outcome = PlacementOutcome {
            placed: 0,
            rejected: horizon_rejects,
            migrated: 0,
            throttle_violations: 0,
            served_demand_steps: 0.0,
            max_queue_wait_steps: 0,
        };
        self.telemetry.rejected.add(horizon_rejects as u64);

        // (job index, last step occupied + 1, server).
        let mut active: Vec<(usize, usize, usize)> = Vec::new();
        let mut queue: Vec<Queued> = Vec::new();
        let mut demand = vec![0.0_f64; self.servers];
        let mut states = vec![ServerState::initial(self.sim.config().t_safe); self.servers];
        let mut series: Vec<Vec<f64>> = vec![Vec::with_capacity(self.steps); self.servers];

        // Cooling settings are solved fresh by the simulator; the
        // scorer keeps its own memo of marginal harvests.
        let mut safe_caps: HashMap<(u64, u64), Utilization> = HashMap::new();
        let cold_at = |step: usize| {
            let time = Seconds::new(self.interval.value() * step as f64);
            self.sim.config().cold_source.temperature(time)
        };
        let mut scorer = StepScorer::new(
            self.sim.optimizer(cold_at(0)),
            self.sched,
            self.servers,
            circ_size,
        );

        // Policies observing "previous-step" state at step 0 see the
        // cluster idling at the cold-source temperature of time zero.
        {
            let cold = cold_at(0);
            let idle = vec![Utilization::IDLE; self.servers];
            self.thermal_pass(
                &idle,
                circ_size,
                cold,
                &throttle,
                &mut safe_caps,
                &mut states,
            )?;
        }

        let mut next_arrival = 0usize;
        for step in 0..self.steps {
            let cold = cold_at(step);

            // Release finished jobs and rebuild the committed column
            // from scratch in stable admission order, so the committed
            // sums never depend on release history.
            active.retain(|&(_, end, _)| end > step);
            demand.iter_mut().for_each(|d| *d = 0.0);
            for &(job, _, server) in &active {
                demand[server] += jobs[job].demand().value();
            }

            scorer.begin_step(self.sim.optimizer(cold));

            // Queued jobs first (FIFO), then this step's arrivals.
            let waiting = std::mem::take(&mut queue);
            for q in waiting {
                match self.admit(
                    jobs,
                    q.job,
                    step,
                    policy,
                    &states,
                    circ_size,
                    &mut scorer,
                    &mut demand,
                    &mut active,
                    &mut outcome,
                ) {
                    Ok(s) => {
                        let wait = step - q.arrival_step;
                        outcome.max_queue_wait_steps = outcome.max_queue_wait_steps.max(wait);
                        self.telemetry.queue_wait.record(wait as u64);
                        if q.first_choice.is_some_and(|first| first != s) {
                            outcome.migrated += 1;
                            self.telemetry.migrated.add(1);
                        }
                    }
                    Err(_) => queue.push(q),
                }
            }
            while next_arrival < order.len()
                && jobs[order[next_arrival]].arrival_step(self.interval) == step
            {
                let index = order[next_arrival];
                next_arrival += 1;
                match self.admit(
                    jobs,
                    index,
                    step,
                    policy,
                    &states,
                    circ_size,
                    &mut scorer,
                    &mut demand,
                    &mut active,
                    &mut outcome,
                ) {
                    Ok(_) => self.telemetry.queue_wait.record(0),
                    Err(choice) if queue.len() < self.queue_capacity => queue.push(Queued {
                        job: index,
                        arrival_step: step,
                        first_choice: choice,
                    }),
                    _ => {
                        outcome.rejected += 1;
                        self.telemetry.rejected.add(1);
                    }
                }
            }

            // Snapshot the committed column (clamped against float
            // resummation at the capacity boundary) and refresh the
            // thermal state the next step's decisions will see.
            let column: Vec<Utilization> =
                demand.iter().map(|&d| Utilization::saturating(d)).collect();
            for (s, u) in column.iter().enumerate() {
                outcome.served_demand_steps += u.value();
                series[s].push(u.value());
            }
            outcome.throttle_violations += self.thermal_pass(
                &column,
                circ_size,
                cold,
                &throttle,
                &mut safe_caps,
                &mut states,
            )?;
        }

        // Whatever is still queued when the horizon ends never ran.
        outcome.rejected += queue.len();
        self.telemetry.rejected.add(queue.len() as u64);

        let traces = series
            .into_iter()
            .map(|values| Trace::new(self.interval, values))
            .collect::<Result<Vec<_>, _>>()?;
        let trace = ClusterTrace::new(traces)?;
        Ok(PlacementRun { trace, outcome })
    }

    /// Asks the policy for a server for job `index` and, when the
    /// choice [`fits`](ClusterView::fits), commits the job there and
    /// carries the server's circulation in the scorer past it. Returns
    /// the server, or the policy's refused choice.
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &self,
        jobs: &[Job],
        index: usize,
        step: usize,
        policy: &mut dyn crate::PlacementPolicy,
        states: &[ServerState],
        circ_size: usize,
        scorer: &mut StepScorer<'_>,
        demand: &mut [f64],
        active: &mut Vec<(usize, usize, usize)>,
        outcome: &mut PlacementOutcome,
    ) -> Result<usize, Option<usize>> {
        let job = &jobs[index];
        scorer.begin_job();
        let (choice, fits) = {
            let view = view(states, demand, circ_size, &*scorer);
            let choice = policy.place(job, &view);
            (choice, choice.is_some_and(|s| view.fits(s, job.demand())))
        };
        let Some(server) = choice.filter(|_| fits) else {
            return Err(choice);
        };
        demand[server] += job.demand().value();
        // A finite but huge duration casts to `usize::MAX` steps: it
        // runs to the horizon rather than overflowing.
        active.push((
            index,
            step.saturating_add(job.duration_steps(self.interval)),
            server,
        ));
        outcome.placed += 1;
        self.telemetry.placed.add(1);
        scorer.note_commit(demand, server);
        Ok(server)
    }

    /// One per-server thermal step over the committed column: per
    /// circulation, schedule, resolve the cooling setting through the
    /// engine, and refresh every server's observable state from the
    /// engine's own per-server evaluation
    /// ([`Simulator::evaluate_servers`]). Returns the number of
    /// scheduled loads exceeding the safety cap.
    fn thermal_pass(
        &self,
        column: &[Utilization],
        circ_size: usize,
        cold: Celsius,
        throttle: &ThrottleController,
        safe_caps: &mut HashMap<(u64, u64), Utilization>,
        states: &mut [ServerState],
    ) -> Result<usize, JobsError> {
        let mut violations = 0usize;
        for (circ, chunk) in column.chunks(circ_size).enumerate() {
            let u_ctrl = self.sched.control_utilization(chunk);
            let engine_error = |e: H2pError| match e {
                H2pError::Cooling(e) => JobsError::Cooling(e),
                H2pError::Server(e) => JobsError::Thermal(e),
                _ => JobsError::NoFeasibleSetting {
                    control_utilization: u_ctrl.value(),
                },
            };
            let setting = self
                .sim
                .optimized_setting(u_ctrl, cold)
                .map_err(engine_error)?;
            let flow = setting.setting.flow;
            let inlet = setting.setting.inlet;
            let cap_key = (flow.value().to_bits(), inlet.value().to_bits());
            let safe_cap = match safe_caps.entry(cap_key) {
                Entry::Occupied(entry) => *entry.get(),
                Entry::Vacant(entry) => *entry.insert(throttle.max_safe_utilization_in_space(
                    self.sim.lookup_space(),
                    flow,
                    inlet,
                )?),
            };
            let scheduled = self.sched.schedule(chunk);
            let first = circ * circ_size;
            self.sim
                .evaluate_servers(
                    &scheduled,
                    &setting,
                    cold,
                    |offset, u, outlet, teg_power| {
                        if u.value() > safe_cap.value() {
                            violations += 1;
                        }
                        states[first + offset] = ServerState {
                            inlet,
                            outlet,
                            utilization: u,
                            safe_cap,
                            teg_power,
                        };
                    },
                )
                .map_err(engine_error)?;
        }
        Ok(violations)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use h2p_sched::{BoundedMigration, Consolidate, LoadBalance, Original};
    use h2p_server::{LookupSpace, ServerModel};

    pub(crate) struct FixedScorer(pub Vec<f64>);

    impl HarvestScorer for FixedScorer {
        fn harvest_delta(&self, _committed: &[f64], server: usize, _demand: Utilization) -> f64 {
            self.0.get(server).copied().unwrap_or(f64::NEG_INFINITY)
        }
    }

    pub(crate) fn states_with_outlets(outlets: &[f64]) -> Vec<ServerState> {
        outlets
            .iter()
            .map(|&o| ServerState {
                inlet: Celsius::new(40.0),
                outlet: Celsius::new(o),
                utilization: Utilization::IDLE,
                safe_cap: Utilization::FULL,
                teg_power: Watts::new(0.0),
            })
            .collect()
    }

    #[test]
    fn with_interval_refuses_non_finite_and_non_positive_intervals() {
        let sim = Simulator::paper_default().unwrap();
        let engine = || PlacementEngine::new(&sim, &LoadBalance, 8, 12).unwrap();
        // `Seconds::new` debug-asserts against NaN; `minutes` does not.
        for interval in [
            Seconds::new(0.0),
            Seconds::new(-300.0),
            Seconds::minutes(f64::NAN),
            Seconds::new(f64::INFINITY),
        ] {
            match engine().with_interval(interval) {
                Err(JobsError::InvalidInterval { seconds }) => {
                    assert_eq!(seconds.to_bits(), interval.value().to_bits());
                }
                Err(other) => panic!("interval {interval:?}: wrong error {other}"),
                Ok(_) => panic!("interval {interval:?} accepted"),
            }
        }
        let minute = engine().with_interval(Seconds::new(60.0)).unwrap();
        assert_eq!(minute.interval(), Seconds::new(60.0));
    }

    #[test]
    fn view_capacity_check_allows_exact_full_and_rejects_overflow() {
        let states = states_with_outlets(&[50.0, 50.0]);
        let committed = [0.4, 0.95];
        let scorer = FixedScorer(vec![0.0, 0.0]);
        let view = view(&states, &committed, 2, &scorer);
        assert!(view.fits(0, Utilization::saturating(0.6)));
        assert!(!view.fits(1, Utilization::saturating(0.1)));
        assert!(!view.fits(7, Utilization::IDLE));
    }

    #[test]
    fn view_exposes_state_and_scorer() {
        let states = states_with_outlets(&[41.0, 47.0]);
        let committed = [0.0, 0.25];
        let scorer = FixedScorer(vec![1.5, -2.0]);
        let view = view(&states, &committed, 2, &scorer);
        assert_eq!(view.servers(), 2);
        assert_eq!(view.circulation_size(), 2);
        assert_eq!(view.state(1).outlet, Celsius::new(47.0));
        assert_eq!(view.committed(1), 0.25);
        assert_eq!(view.harvest_delta(0, Utilization::saturating(0.3)), 1.5);
        assert_eq!(view.harvest_delta(1, Utilization::saturating(0.3)), -2.0);
    }

    /// The scorer as it was before it kept per-circulation state: a
    /// fresh chunk and two control utilizations per candidate, every
    /// harvest straight from the optimizer.
    fn rebuilt_delta(
        optimizer: &CoolingOptimizer<'_>,
        sched: &dyn SchedulingPolicy,
        committed: &[f64],
        circ_size: usize,
        server: usize,
        demand: Utilization,
    ) -> f64 {
        if server >= committed.len() {
            return f64::NEG_INFINITY;
        }
        let teg_at = |u| optimizer.optimize(u).map(|s| s.teg_power.value());
        let start = (server / circ_size) * circ_size;
        let end = (start + circ_size).min(committed.len());
        let mut chunk: Vec<Utilization> = committed[start..end]
            .iter()
            .map(|&d| Utilization::saturating(d))
            .collect();
        let now = teg_at(sched.control_utilization(&chunk));
        chunk[server - start] = Utilization::saturating(committed[server] + demand.value());
        let after = teg_at(sched.control_utilization(&chunk));
        match (now, after) {
            (Some(now), Some(after)) => after - now,
            _ => f64::NEG_INFINITY,
        }
    }

    /// splitmix64: a dependency-free stream for the oracle's cases.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(state: &mut u64) -> f64 {
        (next(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn step_scorer_prices_candidates_as_a_rebuilt_chunk_would() {
        // A 3 × 3 × 3 grid keeps the optimizer cheap under
        // interpretation; its band is empty at some loads, so the
        // fallback scan is scored too.
        let space = LookupSpace::build(
            &ServerModel::paper_default(),
            vec![0.0, 0.5, 1.0],
            vec![20.0, 135.0, 250.0],
            vec![20.0, 40.0, 60.0],
        )
        .unwrap();
        let paper = CoolingOptimizer::paper_default(&space);
        // Two cold-source readings, so a new step may keep or change it.
        let optimizers = [paper.clone(), paper.with_cold_water(Celsius::new(27.0))];
        let bounded = BoundedMigration::new(0.15);
        let policies: [&dyn SchedulingPolicy; 4] =
            [&Original, &LoadBalance, &bounded, &Consolidate];
        let mut rng = 0x5c0e_u64;
        let (mut scored, mut ragged, mut jobs) = (0, 0, 0);
        let (mut moved, mut unmoved, mut carried, mut recooled) = (0, 0, 0, 0);
        for sched in policies {
            for _ in 0..8 {
                let servers = 1 + (next(&mut rng) % 9) as usize;
                let circ_size = 1 + (next(&mut rng) % 4) as usize;
                ragged += usize::from(!servers.is_multiple_of(circ_size));
                let fresh_column = |rng: &mut u64| -> Vec<f64> {
                    (0..servers)
                        .map(|_| match next(rng) % 4 {
                            // Idle servers and tied loads, so zero and
                            // tied maxima are kept and raised.
                            0 => 0.0,
                            1 => 0.5,
                            _ => unit(rng).min(0.999) * 1.1,
                        })
                        .collect()
                };
                let u_ctrl = |committed: &[f64], server: usize| {
                    let start = (server / circ_size) * circ_size;
                    let end = (start + circ_size).min(servers);
                    let chunk: Vec<Utilization> = committed[start..end]
                        .iter()
                        .map(|&d| Utilization::saturating(d))
                        .collect();
                    sched.control_utilization(&chunk).value().to_bits()
                };
                let mut committed = fresh_column(&mut rng);
                let mut cold = 0;
                let mut scorer =
                    StepScorer::new(optimizers[cold].clone(), sched, servers, circ_size);
                for _ in 0..32 {
                    let server = (next(&mut rng) % servers as u64) as usize;
                    let demand = Utilization::saturating(match next(&mut rng) % 4 {
                        0 => 0.0,
                        _ => unit(&mut rng) * 0.6,
                    });
                    match next(&mut rng) % 10 {
                        // The engine commits a job.
                        0..=1 => {
                            let before = u_ctrl(&committed, server);
                            committed[server] += demand.value();
                            scorer.note_commit(&committed, server);
                            if u_ctrl(&committed, server) == before {
                                unmoved += 1;
                            } else {
                                moved += 1;
                            }
                        }
                        // The engine asks about the next job.
                        2 => {
                            scorer.begin_job();
                            jobs += 1;
                        }
                        // A new step: the column as jobs left it or a
                        // fresh one, under the same cold source or the
                        // other one.
                        3 => {
                            let keep = next(&mut rng).is_multiple_of(2);
                            let recool = next(&mut rng).is_multiple_of(2);
                            if !keep {
                                committed = fresh_column(&mut rng);
                            }
                            if recool {
                                cold = 1 - cold;
                            }
                            carried += usize::from(keep && !recool);
                            recooled += usize::from(keep && recool);
                            scorer.begin_step(optimizers[cold].clone());
                        }
                        _ => {
                            let got = scorer.harvest_delta(&committed, server, demand);
                            let want = rebuilt_delta(
                                &optimizers[cold],
                                sched,
                                &committed,
                                circ_size,
                                server,
                                demand,
                            );
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{}: server {server} of {servers} (circulations of \
                                 {circ_size}), demand {demand:?}, column {committed:?}: \
                                 {got} vs {want}",
                                sched.name()
                            );
                            scored += 1;
                        }
                    }
                }
                // Past the last server the scorer declines.
                assert_eq!(
                    scorer.harvest_delta(&committed, servers, Utilization::IDLE),
                    f64::NEG_INFINITY
                );
            }
        }
        assert!(
            scored > 500
                && ragged > 10
                && jobs > 80
                && moved > 60
                && unmoved > 60
                && carried > 12
                && recooled > 12,
            "{scored} {ragged} {jobs} {moved} {unmoved} {carried} {recooled}"
        );
    }

    #[test]
    fn disabled_telemetry_is_inert() {
        let telemetry = JobsTelemetry::disabled();
        telemetry.placed.add(3);
        telemetry.queue_wait.record(5);
        // No registry to observe through; this is a smoke test that the
        // no-op sink accepts traffic without panicking.
    }
}
