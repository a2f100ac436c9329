//! The engine layers' ladder, shared by every workload's traced run.
//!
//! The engine calls sched, the cooling optimizer, the lookup space,
//! CPU power, TEG harvest and the plant crate-privately, so the ladder
//! replays each of these rungs through its public function on inputs
//! sampled from the workload's own traces, times each rung in batches
//! (a timer per call would swamp an 85 ns lookup), and multiplies the
//! per-call cost by the run's counts. At one worker the sum of the
//! rungs should account for the measured run time; the remainder is
//! printed as `core.unexplained_s`.

use std::hint::black_box;
use std::num::NonZeroUsize;
use std::time::Instant;

use h2p_cooling::{CoolingOptimizer, OptimizedSetting, PlantLoad};
use h2p_core::kernel::KernelTolerance;
use h2p_core::simulation::Simulator;
use h2p_sched::{LoadBalance, Original, SchedulingPolicy};
use h2p_server::ServerModel;
use h2p_telemetry::Registry;
use h2p_units::{Celsius, LitersPerHour, Seconds, Utilization, Watts};
use h2p_workload::ClusterTrace;

use crate::report::{measured, timed, Ctx, Outcome, Rep};

/// The two paper scheduling policies the workloads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    Original,
    LoadBalance,
}

impl Policy {
    #[must_use]
    pub fn as_dyn(self) -> &'static dyn SchedulingPolicy {
        match self {
            Policy::Original => &Original,
            Policy::LoadBalance => &LoadBalance,
        }
    }

    #[must_use]
    pub fn name(self) -> &'static str {
        self.as_dyn().name()
    }
}

/// One materialized engine input: a trace under a policy.
#[derive(Debug, Clone, Copy)]
pub struct Case<'a> {
    pub trace: &'a ClusterTrace,
    pub policy: Policy,
}

/// Work counts of one engine pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassCounts {
    pub server_steps: u64,
    pub circ_steps: u64,
    pub steps: u64,
}

impl PassCounts {
    /// The counts of one run over `servers × steps` with circulations
    /// of `circ` servers.
    #[must_use]
    pub fn of_run(servers: usize, steps: usize, circ: usize) -> Self {
        let circ = circ.min(servers).max(1);
        PassCounts {
            server_steps: (servers * steps) as u64,
            circ_steps: (servers.div_ceil(circ) * steps) as u64,
            steps: steps as u64,
        }
    }

    pub fn add(&mut self, other: PassCounts) {
        self.server_steps += other.server_steps;
        self.circ_steps += other.circ_steps;
        self.steps += other.steps;
    }
}

/// A workload's engine part, run on a prepared simulator. It returns
/// the pass's work counts.
pub type EnginePass<'a> = &'a dyn Fn(&Simulator) -> Result<PassCounts, String>;

/// The engine pass of materialized cases: `Simulator::run` on each.
///
/// # Errors
///
/// The first engine error.
pub fn run_cases(sim: &Simulator, cases: &[Case<'_>]) -> Result<PassCounts, String> {
    let mut counts = PassCounts::default();
    for case in cases {
        sim.run(case.trace, case.policy.as_dyn())
            .map_err(|e| e.to_string())?;
        let circ = sim.config().servers_per_circulation;
        counts.add(PassCounts::of_run(
            case.trace.servers(),
            case.trace.steps(),
            circ,
        ));
    }
    Ok(counts)
}

/// Per-call costs of the replayed rungs, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rungs {
    /// `schedule` + `control_utilization`, per circulation-step.
    pub sched_ns: f64,
    /// Cold `CoolingOptimizer::optimize`, per decision.
    pub optimize_ns: f64,
    /// `outlet_temperature` + `cpu_temperature`, per server-step.
    pub lookup_ns: f64,
    /// `CpuPowerModel::base_power`, per server-step.
    pub cpu_power_ns: f64,
    /// `TegModule::max_power`, per server-step.
    pub teg_ns: f64,
    /// `CoolingPlant::power`, per step.
    pub plant_ns: f64,
}

impl Rungs {
    /// Seconds the rungs account for in a pass with these counts and
    /// `decisions` optimizer calls.
    #[must_use]
    pub fn explained_s(&self, counts: PassCounts, decisions: u64) -> f64 {
        let per_server = self.lookup_ns + self.cpu_power_ns + self.teg_ns;
        (self.sched_ns * counts.circ_steps as f64
            + self.optimize_ns * decisions as f64
            + per_server * counts.server_steps as f64
            + self.plant_ns * counts.steps as f64)
            * 1e-9
    }
}

/// The measured remainder of a reconciliation: `(unexplained seconds,
/// unexplained share of the measured time)`.
#[must_use]
pub fn remainder(measured_s: f64, explained_s: f64) -> (f64, f64) {
    let unexplained = measured_s - explained_s;
    let share = if measured_s > 0.0 {
        unexplained / measured_s
    } else {
        0.0
    };
    (unexplained, share)
}

/// How many sampled circulation-steps the rung replay aims for.
const REPLAY_TARGET: usize = 3000;

/// Batch repetitions per rung; the median batch is kept.
const REPLAY_REPS: usize = 3;

/// One sampled circulation-step with the inputs each rung needs.
struct Sample {
    loads: Vec<Utilization>,
    policy: Policy,
    optimizer: usize,
    u_ctrl: Utilization,
    scheduled: Vec<Utilization>,
    setting: OptimizedSetting,
    outlets: Vec<Celsius>,
    cold: Celsius,
}

/// Replays the engine's rungs on circulation-steps sampled from
/// `cases` (every k-th control interval, all of its circulations).
///
/// # Errors
///
/// Optimizer construction or lookup failures.
pub fn replay_rungs(sim: &Simulator, cases: &[Case<'_>]) -> Result<Rungs, String> {
    let config = sim.config();
    let space = sim.lookup_space();
    let power = *ServerModel::paper_default().power_model();
    let circ = config.servers_per_circulation.max(1);

    let total: usize = cases
        .iter()
        .map(|c| c.trace.servers().div_ceil(circ) * c.trace.steps())
        .sum();
    let stride = total.div_ceil(REPLAY_TARGET).max(1);

    let mut colds: Vec<Celsius> = Vec::new();
    let mut optimizers: Vec<CoolingOptimizer<'_>> = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let mut plant_loads: Vec<PlantLoad> = Vec::new();
    for case in cases {
        let policy = case.policy.as_dyn();
        let interval = case.trace.interval().value();
        for step in (0..case.trace.steps()).step_by(stride) {
            let cold = config
                .cold_source
                .temperature(Seconds::new(interval * step as f64));
            let optimizer = match colds
                .iter()
                .position(|c| c.value().to_bits() == cold.value().to_bits())
            {
                Some(i) => i,
                None => {
                    colds.push(cold);
                    optimizers.push(
                        CoolingOptimizer::new(
                            space,
                            config.module,
                            config.pump,
                            config.t_safe,
                            config.tolerance,
                            cold,
                        )
                        .map_err(|e| e.to_string())?,
                    );
                    optimizers.len() - 1
                }
            };
            let (mut heat, mut inlet_sum, mut flow_sum, mut online) = (0.0, 0.0, 0.0, 0usize);
            for loads in case.trace.utilizations_at(step).chunks(circ) {
                let u_ctrl = policy.control_utilization(loads);
                let scheduled = policy.schedule(loads);
                let setting = optimizers[optimizer]
                    .optimize(u_ctrl)
                    .ok_or("no feasible cooling setting")?;
                let mut outlets = Vec::with_capacity(scheduled.len());
                for &u in &scheduled {
                    outlets.push(
                        space
                            .outlet_temperature(u, setting.setting.flow, setting.setting.inlet)
                            .map_err(|e| e.to_string())?,
                    );
                    heat += power.base_power(u).value();
                }
                let n = scheduled.len() as f64;
                inlet_sum += setting.setting.inlet.value() * n;
                flow_sum += setting.setting.flow.value() * n;
                online += scheduled.len();
                samples.push(Sample {
                    loads: loads.to_vec(),
                    policy: case.policy,
                    optimizer,
                    u_ctrl,
                    scheduled,
                    setting,
                    outlets,
                    cold,
                });
            }
            plant_loads.push(PlantLoad {
                heat: Watts::new(heat),
                supply_setpoint: Celsius::new(inlet_sum / online.max(1) as f64),
                total_flow: LitersPerHour::new(flow_sum),
            });
        }
    }
    let servers: usize = samples.iter().map(|s| s.scheduled.len()).sum();

    let sched_ns = batch_ns(samples.len(), || {
        for s in &samples {
            let policy = s.policy.as_dyn();
            black_box(policy.schedule(black_box(&s.loads)));
            black_box(policy.control_utilization(black_box(&s.loads)));
        }
    });
    let optimize_ns = batch_ns(samples.len(), || {
        for s in &samples {
            black_box(optimizers[s.optimizer].optimize(black_box(s.u_ctrl)));
        }
    });
    let lookup_ns = batch_ns(servers, || {
        for s in &samples {
            let (flow, inlet) = (s.setting.setting.flow, s.setting.setting.inlet);
            for &u in &s.scheduled {
                let _ = black_box(space.outlet_temperature(black_box(u), flow, inlet));
                let _ = black_box(space.cpu_temperature(black_box(u), flow, inlet));
            }
        }
    });
    let cpu_power_ns = batch_ns(servers, || {
        for s in &samples {
            for &u in &s.scheduled {
                black_box(power.base_power(black_box(u)));
            }
        }
    });
    let teg_ns = batch_ns(servers, || {
        for s in &samples {
            for &outlet in &s.outlets {
                black_box(config.module.max_power(black_box(outlet) - s.cold));
            }
        }
    });
    let plant_ns = batch_ns(plant_loads.len(), || {
        for &load in &plant_loads {
            black_box(config.plant.power(black_box(load)));
        }
    });
    Ok(Rungs {
        sched_ns,
        optimize_ns,
        lookup_ns,
        cpu_power_ns,
        teg_ns,
        plant_ns,
    })
}

/// Median over [`REPLAY_REPS`] batches of `f` (each `ops`
/// operations), in ns per operation. The batches are timed on the
/// process CPU clock, like the one-worker pass they are reconciled
/// against; a short batch is repeated within one measurement so the
/// clock's own cost stays negligible.
fn batch_ns(ops: usize, mut f: impl FnMut()) -> f64 {
    let ((), once) = timed(&mut f);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let repeat = (MIN_BATCH_S / once.max(1e-9)).ceil().clamp(1.0, 1e6) as usize;
    let mut per_op = Vec::with_capacity(REPLAY_REPS);
    for _ in 0..REPLAY_REPS {
        let ((), rep) = measured(0.0, || (0..repeat).for_each(|_| f()));
        per_op.push(rep.cpu_s * 1e9 / (ops.max(1) * repeat) as f64);
    }
    crate::stats::median(&per_op).unwrap_or(0.0)
}

/// Shortest CPU time one replay measurement covers.
const MIN_BATCH_S: f64 = 0.002;

/// A counter's value in a registry (0 when absent).
#[must_use]
pub fn counter(registry: &Registry, name: &str) -> u64 {
    registry
        .counters()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

/// `(count, sum)` of a histogram in a registry (zeros when absent).
#[must_use]
pub fn histogram(registry: &Registry, name: &str) -> (u64, u64) {
    registry
        .histograms()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or((0, 0), |(_, h)| (h.count(), h.sum()))
}

/// `num / den`, or 0 when the base is empty.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs the engine ladder for a workload: a traced pass at the run's
/// worker count (registry counters), untraced passes at the same count
/// and, alternating with the rung replays, at a single worker
/// (speed-up and reconciliation), and the change-detection kernel's
/// side rungs on `cases`. `in_pass_generation_s` is the trace generation a pass does
/// itself (a streamed fleet generates its shards inside `run_fleet`),
/// counted as explained.
///
/// # Errors
///
/// Engine or replay failures.
pub fn engine_ladder(
    ctx: &Ctx,
    pristine: &Simulator,
    pass: EnginePass<'_>,
    cases: &[Case<'_>],
    in_pass_generation_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    println!("engine ladder ({} worker(s) and 1 worker):", ctx.workers);
    let registry = Registry::new();
    let traced = pristine.clone().with_telemetry(&registry);
    let (counts, run_s) = timed(|| ctx.spans.span("core.run", None, None, |_| pass(&traced)));
    let counts = counts?;
    let cache = traced.cache_stats();
    out.metric("core.run_s", run_s, "s");
    out.metric("core.server_steps", counts.server_steps as f64, "count");
    out.metric("core.circulation_steps", counts.circ_steps as f64, "count");
    out.metric("core.setting_cache_hits", cache.hits as f64, "count");
    out.metric("core.setting_cache_misses", cache.misses as f64, "count");
    out.metric(
        "core.setting_cache_hit_ratio",
        ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
        "ratio",
    );
    let decisions = counter(&registry, "optimizer.decisions");
    let score_evals = counter(&registry, "optimizer.score_evals");
    out.metric("cooling.decisions", decisions as f64, "count");
    out.metric("cooling.score_evals", score_evals as f64, "count");
    out.metric(
        "cooling.score_evals_per_decision",
        ratio(score_evals as f64, decisions as f64),
        "ratio",
    );
    let (spawns, spawn_wait) = histogram(&registry, "pool.spawn_wait_nanos");
    let (_, busy) = histogram(&registry, "pool.lane_busy_nanos");
    let (_, idle) = histogram(&registry, "pool.lane_idle_nanos");
    out.metric(
        "exec.lanes_spawned",
        counter(&registry, "pool.lanes_spawned") as f64,
        "count",
    );
    out.metric(
        "exec.spawn_wait_ns",
        ratio(spawn_wait as f64, spawns as f64),
        "ns",
    );
    out.metric("exec.lane_busy_s", busy as f64 * 1e-9, "s");
    out.metric("exec.lane_idle_s", idle as f64 * 1e-9, "s");
    out.metric(
        "exec.lane_idle_share",
        ratio(idle as f64, (busy + idle) as f64),
        "ratio",
    );

    let (nproc, _) = median_pass(pass, || pristine.clone())?;
    let (single, decisions_1w, rungs) = reconcile_rounds(pass, pristine, cases)?;
    out.metric("exec.workers", ctx.workers.get() as f64, "count");
    out.metric("exec.run_workers_s", nproc.wall_s, "s");
    out.metric("exec.speedup", ratio(single.wall_s, nproc.wall_s), "ratio");

    out.metric("sched.policy_ns", rungs.sched_ns, "ns");
    out.metric("cooling.optimize_ns", rungs.optimize_ns, "ns");
    out.metric("cooling.plant_ns", rungs.plant_ns, "ns");
    out.metric("server.lookup_ns", rungs.lookup_ns, "ns");
    out.metric("server.cpu_power_ns", rungs.cpu_power_ns, "ns");
    out.metric("teg.harvest_ns", rungs.teg_ns, "ns");
    // Reconciled in CPU time: the rungs are timed on the process CPU
    // clock too, so host CPU steal inflates neither side.
    let explained = rungs.explained_s(counts, decisions_1w) + in_pass_generation_s;
    let (unexplained, share) = remainder(single.cpu_s, explained);
    out.metric("core.run_1worker_s", single.cpu_s, "s");
    out.metric("core.explained_s", explained, "s");
    out.metric("core.unexplained_s", unexplained, "s");
    out.metric("core.unexplained_share", share, "ratio");

    kernel_rungs(ctx, pristine, cases, out)
}

/// Alternates one-worker passes with rung replays, so both sides of
/// the reconciliation see the same host conditions, for up to three
/// rounds or until six seconds have passed; returns the median pass,
/// its optimizer decisions and the median of each rung.
fn reconcile_rounds(
    pass: EnginePass<'_>,
    pristine: &Simulator,
    cases: &[Case<'_>],
) -> Result<(Rep, u64, Rungs), String> {
    let started = Instant::now();
    let mut singles = Vec::new();
    let mut replays = Vec::new();
    let mut decisions = 0;
    while singles.len() < 3 && (singles.is_empty() || started.elapsed().as_secs_f64() < 6.0) {
        let (single, d) = median_pass(pass, || pristine.clone().with_workers(NonZeroUsize::MIN))?;
        singles.push(single);
        decisions = d;
        replays.push(replay_rungs(pristine, cases)?);
    }
    let median_of = |values: Vec<f64>| crate::stats::median(&values).unwrap_or(0.0);
    let single = Rep {
        wall_s: median_of(singles.iter().map(|r| r.wall_s).collect()),
        cpu_s: median_of(singles.iter().map(|r| r.cpu_s).collect()),
        work: 0.0,
    };
    let rung = |f: fn(&Rungs) -> f64| median_of(replays.iter().map(f).collect());
    let rungs = Rungs {
        sched_ns: rung(|r| r.sched_ns),
        optimize_ns: rung(|r| r.optimize_ns),
        lookup_ns: rung(|r| r.lookup_ns),
        cpu_power_ns: rung(|r| r.cpu_power_ns),
        teg_ns: rung(|r| r.teg_ns),
        plant_ns: rung(|r| r.plant_ns),
    };
    Ok((single, decisions, rungs))
}

/// Median wall and CPU time of `pass` on fresh simulators from
/// `fresh`, repeated until a second has passed (at most nine times),
/// so a pass of a few milliseconds is not one noisy sample. Also
/// returns the optimizer decisions of one pass (its setting-cache
/// misses).
fn median_pass(pass: EnginePass<'_>, fresh: impl Fn() -> Simulator) -> Result<(Rep, u64), String> {
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut decisions = 0;
    while reps.len() < 9 && (reps.is_empty() || started.elapsed().as_secs_f64() < 1.0) {
        let sim = fresh();
        let (ran, rep) = measured(0.0, || pass(&sim));
        ran?;
        reps.push(rep);
        decisions = sim.cache_stats().misses;
    }
    let median_of = |f: fn(&Rep) -> f64| {
        crate::stats::median(&reps.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let rep = Rep {
        wall_s: median_of(|r| r.wall_s),
        cpu_s: median_of(|r| r.cpu_s),
        work: 0.0,
    };
    Ok((rep, decisions))
}

/// The change-detection kernel's side rungs: exact and tolerant (0.01)
/// runs over `cases` at the run's worker count, and the share of
/// circulation-steps the tolerant kernel re-evaluated.
fn kernel_rungs(
    ctx: &Ctx,
    pristine: &Simulator,
    cases: &[Case<'_>],
    out: &mut Outcome,
) -> Result<(), String> {
    let tolerant = KernelTolerance::uniform(0.01).map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    for tolerance in [KernelTolerance::exact(), tolerant] {
        let registry = Registry::new();
        let sim = pristine
            .clone()
            .with_kernel_tolerance(tolerance)
            .with_telemetry(&registry);
        let (ran, secs) = timed(|| {
            ctx.spans.span("core.kernel_run", None, None, |_| {
                cases
                    .iter()
                    .try_for_each(|c| sim.run(c.trace, c.policy.as_dyn()).map(drop))
            })
        });
        ran.map_err(|e| e.to_string())?;
        let evaluated = counter(&registry, "engine.circulations_evaluated");
        let held = counter(&registry, "engine.circulations_held");
        rows.push((secs, evaluated, held));
    }
    let (exact_s, _, _) = rows[0];
    let (tolerant_s, evaluated, held) = rows[1];
    out.metric("core.kernel_exact_run_s", exact_s, "s");
    out.metric("core.kernel_tolerant_run_s", tolerant_s, "s");
    out.metric("core.kernel_evaluated", evaluated as f64, "count");
    out.metric(
        "core.kernel_circulation_steps",
        (evaluated + held) as f64,
        "count",
    );
    out.metric(
        "core.kernel_eval_ratio",
        ratio(evaluated as f64, (evaluated + held) as f64),
        "ratio",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remainder_is_measured_minus_explained() {
        let rungs = Rungs {
            sched_ns: 100.0,
            optimize_ns: 50_000.0,
            lookup_ns: 150.0,
            cpu_power_ns: 10.0,
            teg_ns: 5.0,
            plant_ns: 200.0,
        };
        let counts = PassCounts::of_run(100, 10, 40);
        assert_eq!(
            counts,
            PassCounts {
                server_steps: 1000,
                circ_steps: 30,
                steps: 10
            }
        );
        // 100*30 + 50_000*25 + 165*1000 + 200*10 ns.
        let explained = rungs.explained_s(counts, 25);
        let want = (3_000.0 + 1_250_000.0 + 165_000.0 + 2_000.0) * 1e-9;
        assert!((explained - want).abs() < 1e-15, "{explained} vs {want}");
        let (unexplained, share) = remainder(0.002, explained);
        assert!((unexplained - (0.002 - want)).abs() < 1e-15);
        assert!((share - (0.002 - want) / 0.002).abs() < 1e-12);
        assert_eq!(remainder(0.0, 1.0), (-1.0, 0.0));
    }

    #[test]
    fn ragged_circulations_count_once_each() {
        let counts = PassCounts::of_run(1313, 144, 40);
        assert_eq!(counts.circ_steps, 33 * 144);
        let mut total = counts;
        total.add(PassCounts::of_run(10, 3, 40));
        assert_eq!(total.circ_steps, 33 * 144 + 3);
        assert_eq!(total.server_steps, 1313 * 144 + 30);
    }
}
