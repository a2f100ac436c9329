//! A job whose duration is finite but longer than the step counter can
//! hold runs to the horizon: the CSV job row `300,1e300,0.5,` passes
//! trace validation, and its `duration_steps` casts to `usize::MAX`,
//! so its end step must saturate instead of overflowing (a panic in a
//! debug build, a job released after one step in a release build).

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]

use h2p_core::simulation::Simulator;
use h2p_jobs::{jobs_from_trace, PlacementEngine, RoundRobin};
use h2p_sched::Original;
use h2p_workload::{JobRecord, JobTrace};

#[test]
fn a_job_longer_than_the_step_counter_runs_to_the_horizon() {
    let sim = Simulator::paper_default().unwrap();
    let engine = PlacementEngine::new(&sim, &Original, 4, 3).unwrap();
    let trace = JobTrace::new(vec![JobRecord {
        arrival_s: 300.0,
        duration_s: 1e300,
        utilization: 0.5,
        tenant: None,
    }])
    .unwrap();
    let jobs = jobs_from_trace(&trace).unwrap();
    assert_eq!(jobs[0].arrival_step(engine.interval()), 1);
    assert_eq!(jobs[0].duration_steps(engine.interval()), usize::MAX);

    let run = engine.place(&jobs, &mut RoundRobin::new()).unwrap();
    assert_eq!(run.outcome.placed, 1);
    assert_eq!(run.outcome.rejected, 0);
    // Placed at step 1, it still holds its server at step 2.
    assert_eq!(run.outcome.served_demand_steps, 1.0);
    assert_eq!(run.trace.trace(0).samples(), &[0.0, 0.5, 0.5]);
}
