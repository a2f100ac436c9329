//! `placement_loop`: the closed-loop thermal-aware scheduling loop.
//!
//! `PlacementEngine::place` on `synthetic_jobs(Common, seed, 200, 96,
//! 5 min)` under `TEG_Original`, once per placement policy
//! (`round_robin`, `coolest_first`, `harvest_aware`), then
//! `Simulator::run` on each placed trace. One timed pass places and
//! simulates all three.

use std::time::Instant;

use h2p_core::simulation::{SimulationResult, Simulator};
use h2p_jobs::{synthetic_jobs, Job, PlacementEngine, PlacementOutcome, PlacementPolicyKind};
use h2p_telemetry::Registry;
use h2p_workload::{ClusterTrace, TraceGenerator, TraceKind};

use crate::engine::{engine_ladder, run_cases, Case, Policy};
use crate::report::{measured, repeated_setup, splitmix, Ctx, Outcome};
use crate::spans::SpanLog;
use crate::{checks, probes};

pub const SERVERS: usize = 200;
pub const STEPS: usize = 96;
const SCHED: Policy = Policy::Original;
const SETUP_REPS: usize = 31;

/// One policy's placement and the simulation of its placed trace.
pub struct PolicyRun {
    pub kind: PlacementPolicyKind,
    pub place_s: f64,
    pub outcome: PlacementOutcome,
    pub trace: ClusterTrace,
    pub result: Option<SimulationResult>,
}

/// The workload's `index`-th job set: index 0 is the seed's own job
/// set, later ones come from seeds derived from it. Timed passes walk
/// the sequence, so one run averages over several job sets instead of
/// resting on one set's cost (which differs by about 20% between
/// seeds).
#[must_use]
pub fn job_set(sim: &Simulator, seed: u64, index: u64) -> Vec<Job> {
    let mut state = seed ^ index.wrapping_mul(0x6a6f_6273);
    let set_seed = if index == 0 {
        seed
    } else {
        splitmix(&mut state)
    };
    jobs_for(sim, set_seed, SERVERS, STEPS)
}

/// The job set for a `servers × steps` placement horizon.
#[must_use]
pub fn jobs_for(sim: &Simulator, seed: u64, servers: usize, steps: usize) -> Vec<Job> {
    let interval = PlacementEngine::new(sim, SCHED.as_dyn(), servers, steps)
        .map(|e| e.interval())
        .unwrap_or(h2p_units::Seconds::minutes(5.0));
    synthetic_jobs(TraceKind::Common, seed, servers, steps, interval)
}

/// Places `jobs` under every policy and simulates each placed trace on
/// a fresh clone of `pristine`. `registry` (traced runs) is attached
/// to the placement engine and the simulators.
pub fn place_all(
    spans: &SpanLog,
    pristine: &Simulator,
    jobs: &[Job],
    geometry: (usize, usize),
    registry: Option<&Registry>,
    out: &mut Outcome,
) -> Result<Vec<PolicyRun>, String> {
    let mut engine = PlacementEngine::new(pristine, SCHED.as_dyn(), geometry.0, geometry.1)
        .map_err(|e| e.to_string())?;
    if let Some(registry) = registry {
        engine = engine.with_telemetry(registry);
    }
    let mut runs = Vec::with_capacity(PlacementPolicyKind::ALL.len());
    for kind in PlacementPolicyKind::ALL {
        let mut policy = kind.build();
        out.attempted += jobs.len() as u64;
        let t0 = Instant::now();
        let placed = spans.span("jobs.place", None, None, |_| {
            engine.place(jobs, &mut *policy)
        });
        let place_s = t0.elapsed().as_secs_f64();
        let placed = match placed {
            Ok(placed) => placed,
            Err(e) => {
                out.failed += jobs.len() as u64;
                out.check(false, || format!("{}: placement error {e}", kind.name()));
                continue;
            }
        };
        out.failed += placed.outcome.rejected as u64;
        let sim = match registry {
            Some(registry) => pristine.clone().with_telemetry(registry),
            None => pristine.clone(),
        };
        let result = spans.span("core.run", None, None, |_| {
            sim.run(&placed.trace, SCHED.as_dyn())
        });
        let result = match result {
            Ok(result) => Some(result),
            Err(e) => {
                out.check(false, || format!("{}: engine error {e}", kind.name()));
                None
            }
        };
        runs.push(PolicyRun {
            kind,
            place_s,
            outcome: placed.outcome,
            trace: placed.trace,
            result,
        });
    }
    Ok(runs)
}

/// `jobs.decision_ns.<policy>`: placement wall time per placed job.
pub fn decision_metrics(runs: &[PolicyRun], out: &mut Outcome) {
    let mut placed = 0;
    for run in runs {
        placed += run.outcome.placed;
        out.metric(
            format!("jobs.decision_ns.{}", run.kind.name()),
            run.place_s * 1e9 / run.outcome.placed.max(1) as f64,
            "ns",
        );
    }
    out.metric("jobs.placed", placed as f64, "count");
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let (built, setup) = repeated_setup(SETUP_REPS, || {
        Simulator::paper_default()
            .map(|sim| sim.with_workers(ctx.workers))
            .map(|sim| {
                let jobs = job_set(&sim, ctx.seed, 0);
                (sim, jobs)
            })
    });
    let (pristine, jobs) = built.map_err(|e| e.to_string())?;
    println!("  {} jobs on {SERVERS} servers x {STEPS} steps", jobs.len());
    if ctx.traced {
        return traced(ctx, &pristine, &jobs, out);
    }

    let deadline = ctx.deadline();
    let mut reps = Vec::new();
    let mut jobs = jobs;
    for index in 1.. {
        let (runs, mut rep) = measured(0.0, || {
            place_all(&ctx.spans, &pristine, &jobs, (SERVERS, STEPS), None, out)
        });
        let runs = runs?;
        rep.work = runs.iter().map(|r| r.outcome.placed as f64).sum();
        reps.push(rep);
        out.mark_peak_rss();
        placement_invariants(&runs, jobs.len(), out);
        let labelled = labelled(&runs);
        checks::engine_invariants(out, &labelled, true);
        if index == 1 {
            checks::digests(ctx, out, &labelled);
        }
        if Instant::now() >= deadline {
            break;
        }
        jobs = job_set(&pristine, ctx.seed, index);
    }

    out.setup(&setup);
    let latencies_ms: Vec<f64> = reps.iter().map(|r| r.wall_s * 1e3).collect();
    checks::report_throughput(out, "jobs_per_s", &reps, &latencies_ms);
    Ok(())
}

/// Each policy's simulation result, labelled for the checks.
fn labelled(runs: &[PolicyRun]) -> Vec<(String, &SimulationResult)> {
    runs.iter()
        .filter_map(|r| {
            r.result
                .as_ref()
                .map(|res| (format!("placement_loop/{}", r.kind.name()), res))
        })
        .collect()
}

/// Served work is the same job demand summed in an order that depends
/// on where jobs landed, so two policies agree to rounding, not to the
/// bit: a relative tolerance of 1e-9 (about 10^4 ulps of the sums).
fn same_served_work(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// Every policy places every job, serves the same work and never
/// throttles.
fn placement_invariants(runs: &[PolicyRun], jobs: usize, out: &mut Outcome) {
    out.check(runs.len() == PlacementPolicyKind::ALL.len(), || {
        format!("{} of 3 policies placed", runs.len())
    });
    let Some(first) = runs.first() else {
        return;
    };
    for run in runs {
        let o = run.outcome;
        let name = run.kind.name();
        out.check(o.rejected == 0 && o.placed == jobs, || {
            format!(
                "{name}: placed {} and rejected {} of {jobs} jobs",
                o.placed, o.rejected
            )
        });
        out.check(o.throttle_violations == 0, || {
            format!("{name}: {} throttle violations", o.throttle_violations)
        });
        let served = first.outcome.served_demand_steps;
        out.check(same_served_work(o.served_demand_steps, served), || {
            format!(
                "{name}: served {} demand-steps, {} served {served}",
                o.served_demand_steps,
                first.kind.name()
            )
        });
    }
}

fn traced(ctx: &Ctx, pristine: &Simulator, jobs: &[Job], out: &mut Outcome) -> Result<(), String> {
    let quiet = SpanLog::new(false);
    // A warm-up pass first: the first pass of a process runs slowest.
    place_all(&quiet, pristine, jobs, (SERVERS, STEPS), None, out)?;
    let (untraced, untraced_rep) = measured(0.0, || {
        place_all(&quiet, pristine, jobs, (SERVERS, STEPS), None, out)
    });
    untraced?;
    let registry = Registry::new();
    let (runs, traced_rep) = measured(0.0, || {
        place_all(
            &ctx.spans,
            pristine,
            jobs,
            (SERVERS, STEPS),
            Some(&registry),
            out,
        )
    });
    let runs = runs?;
    crate::layers::telemetry_overhead(&[untraced_rep.cpu_s], &[traced_rep.cpu_s], out);
    placement_invariants(&runs, jobs.len(), out);
    let labelled = labelled(&runs);
    checks::engine_invariants(out, &labelled, true);
    checks::digests(ctx, out, &labelled);
    decision_metrics(&runs, out);
    out.note(
        "jobs.placed (registry)",
        crate::engine::counter(&registry, "jobs.placed") as f64,
        "count",
    );

    let cases: Vec<Case<'_>> = runs
        .iter()
        .map(|r| Case {
            trace: &r.trace,
            policy: SCHED,
        })
        .collect();
    let engine_pass = |sim: &Simulator| run_cases(sim, &cases);
    engine_ladder(ctx, pristine, &engine_pass, &cases, 0.0, out)?;
    // Placement synthesizes its traces from jobs; the generator rung is
    // probed on the same geometry.
    let _ = crate::layers::workload_rungs(
        &[TraceGenerator::paper(TraceKind::Common, ctx.seed)
            .with_servers(SERVERS)
            .with_steps(STEPS)],
        std::num::NonZeroUsize::new(pristine.config().servers_per_circulation)
            .unwrap_or(std::num::NonZeroUsize::MIN),
        out,
    );
    probes::gateway(ctx, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_work_agrees_to_rounding_not_to_the_bit() {
        // Two policies' sums of the same 2,201 jobs (seed 402, job set 5).
        assert!(same_served_work(4550.116525296779, 4550.116525301365));
        assert!(!same_served_work(4550.0, 4550.1));
        assert!(same_served_work(0.0, 0.0));
    }

    #[test]
    fn job_sets_repeat_for_a_seed_and_differ_across_seeds() {
        let sim = Simulator::paper_default().expect("paper simulator");
        let a = jobs_for(&sim, 21, 40, 24);
        let b = jobs_for(&sim, 21, 40, 24);
        let c = jobs_for(&sim, 22, 40, 24);
        assert!(!a.is_empty());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(job_set(&sim, 21, 0), jobs_for(&sim, 21, SERVERS, STEPS));
        assert_eq!(job_set(&sim, 21, 3), job_set(&sim, 21, 3));
        assert_ne!(job_set(&sim, 21, 3), job_set(&sim, 21, 4));
        assert_ne!(job_set(&sim, 21, 3), job_set(&sim, 22, 3));
    }
}
