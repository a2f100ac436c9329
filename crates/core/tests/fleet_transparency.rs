//! The fleet transparency contract (DESIGN.md §14): the streaming
//! fleet runner (`Simulator::run_fleet`) must reproduce the
//! materialized run **bit-for-bit** — for every trace class,
//! scheduling policy, worker count and chunk plan, kernel included.
//!
//! The materialized run (`Simulator::run`, one chunk) is the oracle.

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_lossless,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]

use h2p_core::fleet::{ChunkPlan, PlanError};
use h2p_core::kernel::KernelTolerance;
use h2p_core::simulation::{SimulationConfig, SimulationResult, Simulator};
use h2p_core::H2pError;
use h2p_faults::{FaultEvent, FaultKind, FaultPlan};
use h2p_hydraulics::ColdSource;
use h2p_sched::{LoadBalance, Original, SchedulingPolicy};
use h2p_server::ServerModel;
use h2p_telemetry::Registry;
use h2p_units::{Celsius, DegC, Seconds};
use h2p_workload::{ClusterTrace, TraceGenerator, TraceKind};
use proptest::prelude::*;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

const WORKERS: [usize; 3] = [1, 2, 5];

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

/// The shared-seed generator behind every differential pair: 90 servers
/// over 40-server circulations (two full circulations plus a ragged
/// 10-server tail — the shape most likely to expose chunk misalignment).
fn ragged_generator(kind: TraceKind) -> TraceGenerator {
    TraceGenerator::paper(kind, 31)
        .with_servers(90)
        .with_steps(12)
}

fn ragged_cluster(kind: TraceKind) -> ClusterTrace {
    ragged_generator(kind).generate()
}

fn assert_bit_identical(a: &SimulationResult, b: &SimulationResult, what: &str) {
    assert_eq!(a.steps().len(), b.steps().len(), "{what}: step count");
    for (i, (x, y)) in a.steps().iter().zip(b.steps()).enumerate() {
        assert_eq!(x, y, "{what}: step {i} diverged");
    }
}

fn counter(registry: &Registry, name: &str) -> u64 {
    registry
        .counters()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

/// The streaming fleet runner must reproduce the materialized run
/// bit-for-bit — for every trace class × both policies × {1, 2, 5}
/// workers × several chunk granularities (single-circulation chunks,
/// two-circulation chunks, one chunk swallowing the whole fleet) — and
/// agree on the telemetry-visible run/step counts.
#[test]
fn fleet_runner_is_bit_identical_to_materialized_run() {
    let sim = Simulator::paper_default().unwrap();
    for kind in TraceKind::all() {
        let generator = ragged_generator(kind);
        let cluster = generator.generate();
        for policy in [&Original as &dyn SchedulingPolicy, &LoadBalance] {
            let mat_registry = Registry::new();
            let materialized = sim
                .clone()
                .with_telemetry(&mat_registry)
                .run(&cluster, policy)
                .unwrap();
            for circs_per_chunk in [1, 2, 1000] {
                for workers in WORKERS {
                    let plan = ChunkPlan::new(90, nz(40), nz(circs_per_chunk)).unwrap();
                    let fleet_registry = Registry::new();
                    let fleet = sim
                        .clone()
                        .with_workers(nz(workers))
                        .with_telemetry(&fleet_registry)
                        .run_fleet(&generator, policy, &plan)
                        .unwrap();
                    let what = format!(
                        "fleet/{kind}/{}/cpc {circs_per_chunk}/{workers} workers",
                        materialized.policy()
                    );
                    assert_bit_identical(&materialized, &fleet, &what);
                    for name in ["engine.runs", "engine.steps"] {
                        assert_eq!(
                            counter(&mat_registry, name),
                            counter(&fleet_registry, name),
                            "{what}: {name}"
                        );
                    }
                }
            }
        }
    }
}

/// The kernel composes with the fleet runner: at tolerance 0.01,
/// `run_fleet` under every chunk granularity must reproduce the
/// materialized kernel run bit-for-bit and hold exactly the same
/// circulation-steps.
#[test]
fn tolerant_kernel_fleet_runner_is_bit_identical_to_materialized_run() {
    let sim = Simulator::paper_default()
        .unwrap()
        .with_kernel_tolerance(KernelTolerance::uniform(0.01).unwrap());
    let mut held = 0;
    for kind in TraceKind::all() {
        let generator = ragged_generator(kind);
        let mat_registry = Registry::new();
        let materialized = sim
            .clone()
            .with_telemetry(&mat_registry)
            .run(&generator.generate(), &LoadBalance)
            .unwrap();
        held += counter(&mat_registry, "engine.circulations_held");
        for circs_per_chunk in [1, 2, 1000] {
            let plan = ChunkPlan::new(90, nz(40), nz(circs_per_chunk)).unwrap();
            let fleet_registry = Registry::new();
            let fleet = sim
                .clone()
                .with_telemetry(&fleet_registry)
                .run_fleet(&generator, &LoadBalance, &plan)
                .unwrap();
            let what = format!("tolerant fleet/{kind}/cpc {circs_per_chunk}");
            assert_bit_identical(&materialized, &fleet, &what);
            for name in ["engine.circulations_evaluated", "engine.circulations_held"] {
                assert_eq!(
                    counter(&mat_registry, name),
                    counter(&fleet_registry, name),
                    "{what}: {name}"
                );
            }
        }
    }
    assert!(held > 0, "tolerance 0.01 must hold some circulation-steps");
}

/// A simulator with single-server circulations (the degenerate
/// circulation → chunk → lane corner).
fn single_server_circ_sim() -> Simulator {
    let mut cfg = SimulationConfig::paper_default();
    cfg.servers_per_circulation = 1;
    Simulator::new(&ServerModel::paper_default(), cfg).unwrap()
}

/// Single-server chunks (circulation size 1, one circulation per
/// chunk): the most fragmented plan possible still reproduces the
/// materialized run exactly.
#[test]
fn single_server_chunks_are_bit_identical() {
    let sim = single_server_circ_sim();
    let generator = TraceGenerator::paper(TraceKind::Drastic, 7)
        .with_servers(5)
        .with_steps(6);
    let cluster = generator.generate();
    let materialized = sim.run(&cluster, &LoadBalance).unwrap();
    let plan = ChunkPlan::new(5, nz(1), nz(1)).unwrap();
    assert_eq!(plan.n_chunks(), 5);
    let fleet = sim.run_fleet(&generator, &LoadBalance, &plan).unwrap();
    assert_bit_identical(&materialized, &fleet, "single-server chunks");
}

/// A chunk larger than the whole fleet degenerates to one resident
/// chunk and stays bit-identical.
#[test]
fn chunk_larger_than_fleet_is_bit_identical() {
    let sim = Simulator::paper_default().unwrap();
    let generator = ragged_generator(TraceKind::Irregular);
    let cluster = generator.generate();
    let materialized = sim.run(&cluster, &LoadBalance).unwrap();
    let plan = ChunkPlan::new(90, nz(40), nz(10_000)).unwrap();
    assert_eq!(plan.n_chunks(), 1);
    let fleet = sim.run_fleet(&generator, &LoadBalance, &plan).unwrap();
    assert_bit_identical(&materialized, &fleet, "one-chunk fleet");
}

/// Zero-server fleets are typed errors at plan construction — the same
/// family of typed errors (`H2pError::EmptyRun`) the scalar aggregates
/// return for empty runs, never a panic.
#[test]
fn zero_server_fleet_is_a_typed_error() {
    assert_eq!(ChunkPlan::new(0, nz(40), nz(1)), Err(PlanError::EmptyFleet));
    assert_eq!(
        ChunkPlan::sized_for(0, nz(40), 1024, 1 << 20),
        Err(PlanError::EmptyFleet)
    );
}

/// A plan that disagrees with the generator (server count) or the
/// simulator configuration (circulation size) is a typed
/// `FleetPlanMismatch`, not a silent misalignment.
#[test]
fn mismatched_plans_are_typed_errors() {
    let sim = Simulator::paper_default().unwrap();
    let generator = ragged_generator(TraceKind::Common);
    let wrong_servers = ChunkPlan::new(91, nz(40), nz(2)).unwrap();
    assert!(matches!(
        sim.run_fleet(&generator, &LoadBalance, &wrong_servers),
        Err(H2pError::FleetPlanMismatch {
            what: "server count",
            expected: 90,
            got: 91,
        })
    ));
    let wrong_circ = ChunkPlan::new(90, nz(41), nz(2)).unwrap();
    assert!(matches!(
        sim.run_fleet(&generator, &LoadBalance, &wrong_circ),
        Err(H2pError::FleetPlanMismatch {
            what: "circulation size",
            expected: 40,
            got: 41,
        })
    ));
}

/// An all-offline run (CDU outage over every circulation and every
/// step) must return the typed `H2pError::EmptyRun` from the
/// power-ratio aggregates, with bit-identical records and ledgers
/// across worker counts.
#[test]
fn all_offline_steps_return_empty_run() {
    let sim = Simulator::paper_default().unwrap();
    let cluster = ragged_cluster(TraceKind::Common);
    let outage = FaultPlan::from_events(
        (0..3)
            .map(|c| FaultEvent::windowed(FaultKind::CduOutage { circulation: c }, 0, 12))
            .collect(),
        9,
    )
    .unwrap();
    let mut runs = Vec::new();
    for workers in [1, 2] {
        let run = sim
            .clone()
            .with_workers(nz(workers))
            .run_with_faults(&cluster, &LoadBalance, &outage)
            .unwrap();
        assert_eq!(
            run.result.partial_pue(),
            Err(H2pError::EmptyRun),
            "{workers} workers: all-offline run must report EmptyRun"
        );
        runs.push(run);
    }
    assert_bit_identical(&runs[0].result, &runs[1].result, "all-offline");
    assert_eq!(runs[0].ledger, runs[1].ledger);
}

/// A simulator with 7-server circulations shared across proptest cases
/// (the lookup-space fit dominates construction cost).
fn small_sim() -> &'static Simulator {
    static SIM: OnceLock<Simulator> = OnceLock::new();
    SIM.get_or_init(|| {
        let mut cfg = SimulationConfig::paper_default();
        cfg.servers_per_circulation = 7;
        Simulator::new(&ServerModel::paper_default(), cfg).unwrap()
    })
}

/// [`small_sim`]'s shape under a drifting (seasonal) cold source, so
/// lanes build their optimizers while the cold reading moves.
fn seasonal_sim() -> &'static Simulator {
    static SIM: OnceLock<Simulator> = OnceLock::new();
    SIM.get_or_init(|| {
        let mut cfg = SimulationConfig::paper_default();
        cfg.servers_per_circulation = 7;
        cfg.cold_source = ColdSource::Seasonal {
            mean: Celsius::new(17.5),
            amplitude: DegC::new(2.5),
            period: Seconds::hours(1.0),
        };
        Simulator::new(&ServerModel::paper_default(), cfg).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Transparency as a property: random fleet shapes and seeds, both
    // policies, any worker count — the streamed fleet run, the exact
    // kernel and a zero-fault plan agree bit-for-bit with the plain
    // run; under a seasonal cold source the fleet runner still
    // reproduces the materialized run.
    #[test]
    fn layouts_and_fleet_runner_agree_for_random_fleets(
        servers in 1usize..=30,
        steps in 1usize..=6,
        seed in 0u64..=1000,
        circs_per_chunk in 1usize..=5,
        workers in 1usize..=5,
        balance in proptest::bool::ANY,
    ) {
        let sim = small_sim();
        let policy: &dyn SchedulingPolicy = if balance { &LoadBalance } else { &Original };
        let generator = TraceGenerator::paper(TraceKind::Drastic, seed)
            .with_servers(servers)
            .with_steps(steps);
        let cluster = generator.generate();
        let plain = sim.run(&cluster, policy).unwrap();
        let circ = sim.config().servers_per_circulation.min(servers).max(1);
        let plan = ChunkPlan::new(servers, nz(circ), nz(circs_per_chunk)).unwrap();
        let fleet = sim
            .clone()
            .with_workers(nz(workers))
            .run_fleet(&generator, policy, &plan)
            .unwrap();
        prop_assert_eq!(plain.steps().len(), fleet.steps().len());
        for (a, b) in plain.steps().iter().zip(fleet.steps()) {
            prop_assert_eq!(a, b);
        }
        let exact = sim
            .clone()
            .with_workers(nz(workers))
            .with_kernel_tolerance(KernelTolerance::exact())
            .run(&cluster, policy)
            .unwrap();
        for (a, b) in plain.steps().iter().zip(exact.steps()) {
            prop_assert_eq!(a, b);
        }
        let faulted = sim
            .clone()
            .with_workers(nz(workers))
            .run_with_faults(&cluster, policy, &FaultPlan::none())
            .unwrap();
        for (a, b) in plain.steps().iter().zip(faulted.result.steps()) {
            prop_assert_eq!(a, b);
        }
        let seasonal = seasonal_sim();
        let drifting = seasonal.run(&cluster, policy).unwrap();
        let drifting_fleet = seasonal
            .clone()
            .with_workers(nz(workers))
            .run_fleet(&generator, policy, &plan)
            .unwrap();
        prop_assert_eq!(drifting.steps().len(), drifting_fleet.steps().len());
        for (a, b) in drifting.steps().iter().zip(drifting_fleet.steps()) {
            prop_assert_eq!(a, b);
        }
    }

    // A ChunkPlan never splits a circulation, covers the fleet exactly
    // once in index order, and its shard size always lands chunk
    // boundaries on circulation boundaries.
    #[test]
    fn chunk_plans_never_split_a_circulation(
        servers in 1usize..=5000,
        circ in 1usize..=64,
        circs_per_chunk in 1usize..=64,
    ) {
        let plan = ChunkPlan::new(servers, nz(circ), nz(circs_per_chunk)).unwrap();
        let mut cursor = 0usize;
        for chunk in plan.chunks() {
            prop_assert_eq!(chunk.servers.start, cursor);
            prop_assert_eq!(chunk.servers.start % circ, 0, "chunk start off-boundary");
            prop_assert_eq!(chunk.servers.start, chunk.circulations.start * circ);
            prop_assert!(
                chunk.servers.end % circ == 0 || chunk.servers.end == servers,
                "chunk end splits a circulation"
            );
            prop_assert!(chunk.servers.end - chunk.servers.start
                <= plan.max_chunk_servers().get());
            cursor = chunk.servers.end;
        }
        prop_assert_eq!(cursor, servers);
        prop_assert_eq!(plan.n_chunks(), plan.chunks().count());
    }
}
