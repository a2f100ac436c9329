//! Determinism and structural-consistency tests of the simulation
//! engine: identical inputs must give identical outputs, and results
//! must be invariant to how the work is presented.

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_lossless,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]

use h2p_core::simulation::{SimulationConfig, Simulator};
use h2p_faults::{FaultPlan, HazardRates};
use h2p_sched::{LoadBalance, Original, SchedulingPolicy};
use h2p_server::ServerModel;
use h2p_workload::{TraceGenerator, TraceKind};

fn cluster(seed: u64) -> h2p_workload::ClusterTrace {
    TraceGenerator::paper(TraceKind::Irregular, seed)
        .with_servers(80)
        .with_steps(24)
        .generate()
}

#[test]
fn identical_runs_are_bitwise_identical() {
    let c = cluster(404);
    let sim_a = Simulator::paper_default().unwrap();
    let sim_b = Simulator::paper_default().unwrap();
    let a = sim_a.run(&c, &LoadBalance).unwrap();
    let b = sim_b.run(&c, &LoadBalance).unwrap();
    assert_eq!(a.steps().len(), b.steps().len());
    for (x, y) in a.steps().iter().zip(b.steps()) {
        assert_eq!(x, y);
    }
}

#[test]
fn different_seeds_differ() {
    let sim = Simulator::paper_default().unwrap();
    let a = sim.run(&cluster(1), &Original).unwrap();
    let b = sim.run(&cluster(2), &Original).unwrap();
    assert_ne!(
        a.average_teg_power().unwrap(),
        b.average_teg_power().unwrap(),
        "distinct seeds should not collide exactly"
    );
}

#[test]
fn prefix_of_a_trace_gives_prefix_of_the_result() {
    // Simulating the first 12 steps directly equals the first 12 steps
    // of the 24-step run (the engine is memoryless across intervals).
    let full = cluster(7);
    let sim = Simulator::paper_default().unwrap();
    let long = sim.run(&full, &LoadBalance).unwrap();

    let short_cluster = TraceGenerator::paper(TraceKind::Irregular, 7)
        .with_servers(80)
        .with_steps(24)
        .generate();
    // Same generator → same samples; truncate by rebuilding traces.
    let trimmed: Vec<h2p_workload::Trace> = short_cluster
        .iter()
        .map(|t| {
            h2p_workload::Trace::new(t.interval(), t.samples()[..12].to_vec())
                .expect("prefix is valid")
        })
        .collect();
    let short = h2p_workload::ClusterTrace::new(trimmed).unwrap();
    let short_run = sim.run(&short, &LoadBalance).unwrap();
    for (a, b) in long.steps()[..12].iter().zip(short_run.steps()) {
        assert_eq!(a, b);
    }
}

#[test]
fn circulation_partition_is_deterministic_under_server_order() {
    // Reversing the *order of servers within each circulation* must not
    // change LoadBalance results (the policy is symmetric).
    let c = cluster(99);
    let sim = Simulator::paper_default().unwrap();
    let base = sim.run(&c, &LoadBalance).unwrap();

    let chunk = SimulationConfig::paper_default().servers_per_circulation;
    let mut reordered = Vec::new();
    let all: Vec<h2p_workload::Trace> = c.iter().cloned().collect();
    for group in all.chunks(chunk) {
        let mut g = group.to_vec();
        g.reverse();
        reordered.extend(g);
    }
    let permuted = h2p_workload::ClusterTrace::new(reordered).unwrap();
    let run = sim.run(&permuted, &LoadBalance).unwrap();
    for (a, b) in base.steps().iter().zip(run.steps()) {
        assert!(
            (a.teg_power_per_server - b.teg_power_per_server)
                .value()
                .abs()
                < 1e-9
        );
        assert!(
            (a.cpu_power_per_server - b.cpu_power_per_server)
                .value()
                .abs()
                < 1e-9
        );
    }
}

#[test]
fn simulator_reuse_does_not_leak_state() {
    // Running A then B gives the same B as running B alone.
    let a = cluster(11);
    let b = cluster(22);
    let sim = Simulator::paper_default().unwrap();
    let _ = sim.run(&a, &Original).unwrap();
    let after = sim.run(&b, &Original).unwrap();
    let fresh = Simulator::new(
        &ServerModel::paper_default(),
        SimulationConfig::paper_default(),
    )
    .unwrap()
    .run(&b, &Original)
    .unwrap();
    for (x, y) in after.steps().iter().zip(fresh.steps()) {
        assert_eq!(x, y);
    }
}

#[test]
fn circulation_size_builder_matches_a_configured_simulator() {
    // `with_servers_per_circulation` sets the same config value a
    // `SimulationConfig` does, so one measurement campaign can serve
    // every circulation size, healthy and under a hazard plan.
    let base = Simulator::paper_default().unwrap();
    let policies: [&dyn SchedulingPolicy; 2] = [&Original, &LoadBalance];
    let mut faulted_steps = 0;
    for n in [1usize, 7, 40] {
        let mut config = SimulationConfig::paper_default();
        config.servers_per_circulation = n;
        let configured = Simulator::new(&ServerModel::paper_default(), config).unwrap();
        let built = base.clone().with_servers_per_circulation(n);
        assert_eq!(built.config().servers_per_circulation, n);
        for kind in TraceKind::all() {
            let c = TraceGenerator::paper(kind, 31)
                .with_servers(45)
                .with_steps(8)
                .generate();
            let plan = FaultPlan::from_hazards(
                &HazardRates::accelerated_demo(),
                5,
                c.servers(),
                n,
                c.steps(),
                c.interval(),
            )
            .unwrap();
            for policy in policies {
                let label = format!("{kind}/{}/circ {n}", policy.name());
                let (a, b) = (
                    built.run(&c, policy).unwrap(),
                    configured.run(&c, policy).unwrap(),
                );
                assert_eq!(a.steps(), b.steps(), "{label}: healthy");
                let (a, b) = (
                    built.run_with_faults(&c, policy, &plan).unwrap(),
                    configured.run_with_faults(&c, policy, &plan).unwrap(),
                );
                assert_eq!(a.result.steps(), b.result.steps(), "{label}: faulted");
                assert_eq!(a.ledger, b.ledger, "{label}: ledger");
                faulted_steps += a.ledger.faulted_circulation_steps();
            }
        }
    }
    assert!(faulted_steps > 0, "the hazard plans must inject faults");
}
