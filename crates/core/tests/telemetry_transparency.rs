//! The telemetry transparency contract (ISSUE 4 / DESIGN.md §10):
//! attaching a registry — enabled or disabled — to the engine must
//! never change a single output bit. Observation is read-only.
//!
//! Checked across every trace class, both engine entry points
//! (`run` and `run_with_faults`), and sequential vs parallel worker
//! configurations, against an engine that was never instrumented.

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_lossless,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]

use std::num::NonZeroUsize;

use h2p_core::simulation::Simulator;
use h2p_faults::{FaultEvent, FaultKind, FaultPlan};
use h2p_sched::LoadBalance;
use h2p_telemetry::Registry;
use h2p_workload::{ClusterTrace, TraceGenerator, TraceKind};

const KINDS: [TraceKind; 3] = [TraceKind::Drastic, TraceKind::Irregular, TraceKind::Common];
const WORKERS: [usize; 3] = [1, 2, 5];

fn cluster(kind: TraceKind) -> ClusterTrace {
    TraceGenerator::paper(kind, 23)
        .with_servers(60)
        .with_steps(12)
        .generate()
}

fn plan() -> FaultPlan {
    FaultPlan::from_events(
        vec![
            FaultEvent::windowed(FaultKind::PumpOutage { circulation: 0 }, 3, 8),
            FaultEvent::permanent(
                FaultKind::TegOpenCircuit {
                    server: 5,
                    failed_devices: 4,
                },
                2,
            ),
        ],
        9,
    )
    .unwrap()
}

fn sim(workers: usize) -> Simulator {
    Simulator::paper_default()
        .unwrap()
        .with_workers(NonZeroUsize::new(workers).unwrap())
}

#[test]
fn disabled_registry_is_bit_identical_to_no_registry() {
    for kind in KINDS {
        let c = cluster(kind);
        for workers in WORKERS {
            let baseline = sim(workers).run(&c, &LoadBalance).unwrap();
            let observed = sim(workers)
                .with_telemetry(&Registry::disabled())
                .run(&c, &LoadBalance)
                .unwrap();
            assert_eq!(
                baseline.digest(),
                observed.digest(),
                "{kind:?}/{workers} workers/disabled"
            );
        }
    }
}

#[test]
fn enabled_registry_is_bit_identical_to_no_registry() {
    for kind in KINDS {
        let c = cluster(kind);
        for workers in WORKERS {
            let baseline = sim(workers).run(&c, &LoadBalance).unwrap();
            let registry = Registry::new();
            let observed = sim(workers)
                .with_telemetry(&registry)
                .run(&c, &LoadBalance)
                .unwrap();
            assert_eq!(
                baseline.digest(),
                observed.digest(),
                "{kind:?}/{workers} workers/enabled"
            );
            // The observation itself must have happened.
            let counters: std::collections::BTreeMap<String, u64> =
                registry.counters().into_iter().collect();
            assert_eq!(counters["engine.runs"], 1);
            assert_eq!(counters["engine.steps"], 12);
        }
    }
}

#[test]
fn faulted_runs_are_bit_identical_under_telemetry() {
    let plan = plan();
    for kind in KINDS {
        let c = cluster(kind);
        for workers in WORKERS {
            let baseline = sim(workers)
                .run_with_faults(&c, &LoadBalance, &plan)
                .unwrap();
            for registry in [Registry::disabled(), Registry::new()] {
                let observed = sim(workers)
                    .with_telemetry(&registry)
                    .run_with_faults(&c, &LoadBalance, &plan)
                    .unwrap();
                assert_eq!(
                    baseline.result.digest(),
                    observed.result.digest(),
                    "faulted {kind:?}/{workers} workers/enabled={}",
                    registry.is_enabled()
                );
                // Ledger accounting is part of the output contract too.
                assert_eq!(
                    baseline.ledger.harvest_delta().value(),
                    observed.ledger.harvest_delta().value()
                );
            }
        }
    }
}

#[test]
fn worker_count_does_not_change_observed_totals() {
    // Telemetry *content* that is deterministic (counters tied to
    // semantic events, journal transitions) must agree across worker
    // counts; only timing histograms may differ.
    let c = cluster(TraceKind::Common);
    let plan = plan();
    let mut journals = Vec::new();
    let mut step_counts = Vec::new();
    for workers in WORKERS {
        // A scripted clock pins `t_nanos`, so whole serialized journals
        // are comparable across runs.
        let registry = Registry::with_clock(std::sync::Arc::new(h2p_telemetry::ManualClock::new()));
        sim(workers)
            .with_telemetry(&registry)
            .run_with_faults(&c, &LoadBalance, &plan)
            .unwrap();
        let counters: std::collections::BTreeMap<String, u64> =
            registry.counters().into_iter().collect();
        step_counts.push(counters["engine.steps"]);
        journals.push(registry.journal_jsonl().unwrap());
    }
    assert!(step_counts.windows(2).all(|w| w[0] == w[1]));
    assert!(journals.windows(2).all(|w| w[0] == w[1]));
}
