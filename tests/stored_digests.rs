//! The benchmark's stored result digests, recomputed by `cargo test`.
//!
//! Every input is rebuilt exactly as `h2pbench` builds it at the
//! experiment seed, and every run's `SimulationResult::digest` must
//! equal its value in `h2pbench/src/digests.rs`. So a change that
//! moves one result bit of the paper evaluation (Fig. 14/15), the
//! streamed fleet or the placement loop fails here, not only in the
//! benchmark.

#![allow(clippy::unwrap_used, clippy::expect_used)]

#[path = "../h2pbench/src/digests.rs"]
mod digests;

use std::num::NonZeroUsize;

use h2p::core::fleet::ChunkPlan;
use h2p::core::simulation::Simulator;
use h2p::jobs::{synthetic_jobs, PlacementEngine, PlacementPolicyKind};
use h2p::sched::{LoadBalance, Original, SchedulingPolicy};
use h2p::workload::{TraceGenerator, TraceKind};
use h2p_bench::EXPERIMENT_SEED;

/// `paper_eval`: the three paper traces at their paper sizes, each
/// under `TEG_Original` and `TEG_LoadBalance`.
fn paper_eval(sim: &Simulator) -> Vec<(String, u64)> {
    let mut runs = Vec::new();
    for kind in TraceKind::all() {
        let trace = TraceGenerator::paper(kind, EXPERIMENT_SEED).generate();
        for policy in [&Original as &dyn SchedulingPolicy, &LoadBalance] {
            let label = format!("paper_eval/{}/{}", kind.name(), policy.name());
            runs.push((label, sim.run(&trace, policy).unwrap().digest()));
        }
    }
    runs
}

/// `fleet_stream`: `run_fleet` on a 20,000-server × 288-step Common
/// fleet under `TEG_LoadBalance`, chunked for a 16 MiB trace budget.
fn fleet_stream(sim: &Simulator) -> Vec<(String, u64)> {
    const SERVERS: usize = 20_000;
    const STEPS: usize = 288;
    let circ = sim.config().servers_per_circulation;
    let generator = TraceGenerator::paper(TraceKind::Common, EXPERIMENT_SEED)
        .with_servers(SERVERS)
        .with_steps(STEPS);
    let plan = ChunkPlan::sized_for(
        SERVERS,
        NonZeroUsize::new(circ).unwrap(),
        circ * (STEPS * 8 + 96),
        16 << 20,
    )
    .unwrap();
    let result = sim.run_fleet(&generator, &LoadBalance, &plan).unwrap();
    let label = "fleet_stream/common/TEG_LoadBalance".to_owned();
    vec![(label, result.digest())]
}

/// `placement_loop`: one Common job set placed on 200 servers × 96
/// steps by every placement policy, each placed trace then run under
/// `TEG_Original`.
fn placement_loop(sim: &Simulator) -> Vec<(String, u64)> {
    const SERVERS: usize = 200;
    const STEPS: usize = 96;
    let engine = PlacementEngine::new(sim, &Original, SERVERS, STEPS).unwrap();
    let interval = engine.interval();
    let jobs = synthetic_jobs(TraceKind::Common, EXPERIMENT_SEED, SERVERS, STEPS, interval);
    PlacementPolicyKind::ALL
        .into_iter()
        .map(|kind| {
            let placed = engine.place(&jobs, &mut *kind.build()).unwrap();
            let result = sim.run(&placed.trace, &Original).unwrap();
            (format!("placement_loop/{}", kind.name()), result.digest())
        })
        .collect()
}

#[test]
fn every_stored_digest_is_recomputed_bit_for_bit() {
    let sim = Simulator::paper_default().unwrap();
    let mut computed = paper_eval(&sim);
    computed.extend(fleet_stream(&sim));
    computed.extend(placement_loop(&sim));

    let mut faults = Vec::new();
    for (label, digest) in &computed {
        match digests::STORED.iter().find(|(name, _)| name == label) {
            Some((_, want)) if want == digest => {}
            Some((_, want)) => {
                faults.push(format!("{label}: digest {digest:016x}, stored {want:016x}"));
            }
            None => faults.push(format!("{label}: digest {digest:016x}, none stored")),
        }
    }
    for (name, want) in digests::STORED {
        if !computed.iter().any(|(label, _)| label == name) {
            faults.push(format!("{name}: stored {want:016x}, never computed"));
        }
    }
    assert!(faults.is_empty(), "{}", faults.join("\n"));
}
