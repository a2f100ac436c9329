//! The placement transparency contract (DESIGN.md §16): a
//! placement-synthesized trace is an ordinary materialized trace, so
//! the engine must produce **bit-identical** results over it at every
//! worker count — and the load-oblivious `RoundRobin` baseline over
//! jobs that reproduce a constant-demand trace must match running that
//! trace directly, to the bit.

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_precision_loss
)]

use h2p_core::simulation::{SimulationConfig, Simulator};
use h2p_jobs::{synthetic_jobs, PlacementEngine, PlacementPolicyKind, RoundRobin};
use h2p_sched::Original;
use h2p_server::ServerModel;
use h2p_units::{Seconds, Utilization};
use h2p_workload::{ClusterTrace, Trace, TraceKind};
use std::num::NonZeroUsize;
use std::sync::OnceLock;

const WORKERS: [usize; 3] = [1, 2, 5];
const SERVERS: usize = 20;
const STEPS: usize = 12;

/// Base simulator: 8-server circulations so 20 servers make two full
/// circulations plus a ragged 4-server tail (the shape most likely to
/// expose chunk misalignment), shared via `OnceLock` because fitting
/// the lookup space is the expensive part.
fn base_sim() -> &'static Simulator {
    static SIM: OnceLock<Simulator> = OnceLock::new();
    SIM.get_or_init(|| {
        let mut config = SimulationConfig::paper_default();
        config.servers_per_circulation = 8;
        Simulator::new(&ServerModel::paper_default(), config).unwrap()
    })
}

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

#[test]
fn placement_is_bit_identical_across_workers_drivers_and_layouts() {
    let sim = base_sim();
    let engine = PlacementEngine::new(sim, &Original, SERVERS, STEPS).unwrap();
    let jobs = synthetic_jobs(TraceKind::Common, 7, SERVERS, STEPS, engine.interval());

    for kind in PlacementPolicyKind::ALL {
        let run = engine.place(&jobs, &mut *kind.build()).unwrap();
        assert_eq!(run.outcome.rejected, 0, "{kind}: synthetic set must fit");
        let baseline = sim
            .clone()
            .with_workers(nz(1))
            .run(&run.trace, &Original)
            .unwrap();

        for workers in WORKERS {
            let result = sim
                .clone()
                .with_workers(nz(workers))
                .run(&run.trace, &Original)
                .unwrap();
            assert_eq!(
                baseline.digest(),
                result.digest(),
                "{kind}: workers={workers}"
            );
        }
    }
}

#[test]
fn placement_itself_is_reproducible() {
    let sim = base_sim();
    let engine = PlacementEngine::new(sim, &Original, SERVERS, STEPS).unwrap();
    let jobs = synthetic_jobs(TraceKind::Drastic, 11, SERVERS, STEPS, engine.interval());
    for kind in PlacementPolicyKind::ALL {
        let a = engine.place(&jobs, &mut *kind.build()).unwrap();
        let b = engine.place(&jobs, &mut *kind.build()).unwrap();
        assert_eq!(a.outcome, b.outcome, "{kind}: outcome must reproduce");
        for step in 0..STEPS {
            assert_eq!(
                a.trace.utilizations_at(step),
                b.trace.utilizations_at(step),
                "{kind}: column {step} must reproduce"
            );
        }
    }
}

#[test]
fn round_robin_reproduces_the_constant_trace_run_to_the_bit() {
    let sim = base_sim();
    let engine = PlacementEngine::new(sim, &Original, SERVERS, STEPS).unwrap();
    let interval = engine.interval();
    let demand = 0.35_f64;

    // One whole-horizon job per server, all arriving at time zero:
    // RoundRobin lays them out one per server, so the synthesized
    // trace is the constant-demand cluster.
    let jobs: Vec<_> = (0..SERVERS)
        .map(|i| {
            h2p_jobs::Job::new(
                i as u64,
                Seconds::new(0.0),
                Seconds::new(interval.value() * STEPS as f64),
                Utilization::saturating(demand),
            )
            .unwrap()
        })
        .collect();
    let run = engine.place(&jobs, &mut RoundRobin::new()).unwrap();
    assert_eq!(run.outcome.placed, SERVERS);
    assert_eq!(run.outcome.rejected, 0);

    let constant = ClusterTrace::new(
        (0..SERVERS)
            .map(|_| Trace::new(interval, vec![demand; STEPS]).unwrap())
            .collect(),
    )
    .unwrap();
    for step in 0..STEPS {
        assert_eq!(
            run.trace.utilizations_at(step),
            constant.utilizations_at(step),
            "column {step}"
        );
    }

    let placed = sim.run(&run.trace, &Original).unwrap();
    let direct = sim.run(&constant, &Original).unwrap();
    assert_eq!(
        placed.digest(),
        direct.digest(),
        "round robin vs generated constant"
    );
}

#[test]
fn queue_overflow_and_horizon_rejections_are_accounted() {
    let sim = base_sim();
    // Two servers, jobs of 0.9 demand: only two fit at once.
    let engine = PlacementEngine::new(sim, &Original, 2, 4)
        .unwrap()
        .with_queue_capacity(1);
    let interval = engine.interval();
    let whole_run = Seconds::new(interval.value() * 4.0);
    let jobs: Vec<_> = (0..4)
        .map(|i| {
            h2p_jobs::Job::new(
                i,
                Seconds::new(0.0),
                whole_run,
                Utilization::saturating(0.9),
            )
            .unwrap()
        })
        .collect();
    let run = engine.place(&jobs, &mut RoundRobin::new()).unwrap();
    // Jobs 0 and 1 run for the whole horizon; job 2 waits in the
    // queue until the horizon ends; job 3 overflows the queue.
    assert_eq!(run.outcome.placed, 2);
    assert_eq!(run.outcome.rejected, 2);

    // A job arriving past the horizon is rejected up front.
    let late = vec![h2p_jobs::Job::new(
        9,
        Seconds::new(interval.value() * 40.0),
        whole_run,
        Utilization::saturating(0.1),
    )
    .unwrap()];
    let run = engine.place(&late, &mut RoundRobin::new()).unwrap();
    assert_eq!(run.outcome.placed, 0);
    assert_eq!(run.outcome.rejected, 1);
}

#[test]
fn delayed_placement_records_queue_wait() {
    let sim = base_sim();
    let engine = PlacementEngine::new(sim, &Original, 1, 6).unwrap();
    let interval = engine.interval();
    // One server: the second job must wait until the first releases.
    let jobs = vec![
        h2p_jobs::Job::new(
            0,
            Seconds::new(0.0),
            Seconds::new(interval.value() * 2.0),
            Utilization::saturating(0.8),
        )
        .unwrap(),
        h2p_jobs::Job::new(
            1,
            Seconds::new(0.0),
            Seconds::new(interval.value()),
            Utilization::saturating(0.8),
        )
        .unwrap(),
    ];
    let run = engine.place(&jobs, &mut RoundRobin::new()).unwrap();
    assert_eq!(run.outcome.placed, 2);
    assert_eq!(run.outcome.rejected, 0);
    assert_eq!(run.outcome.max_queue_wait_steps, 2);
}
