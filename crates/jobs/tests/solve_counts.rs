//! How many cooling solves a placement makes (DESIGN.md §16.2), read
//! from `optimizer.decisions` with a registry on the simulator, on the
//! default Common 200 × 96 job set under `TEG_Original`.
//!
//! * The thermal pass solves each circulation once per pass: 97 passes
//!   (the idle start and 96 steps) × 5 circulations = 485. Policies
//!   that never score candidates make no other solve, so the scorer's
//!   state must stay lazy for them.
//! * `harvest_aware` adds the scorer's solves. Its memo holds one
//!   job's solves only, which may re-solve a control utilization an
//!   earlier job saw; the count stays within 0.1% of the 75,836 a
//!   memo spanning the whole placement made.

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(clippy::unwrap_used)]

use h2p_core::simulation::Simulator;
use h2p_jobs::{synthetic_jobs, PlacementEngine, PlacementPolicyKind};
use h2p_sched::Original;
use h2p_telemetry::Registry;
use h2p_workload::TraceKind;

const SEED: u64 = 20200530;
const SERVERS: usize = 200;
const STEPS: usize = 96;
/// 97 thermal passes × 5 circulations of 40 servers.
const THERMAL_PASS_SOLVES: u64 = 485;
/// 75,836 solves plus 0.1%.
const HARVEST_AWARE_SOLVES_MAX: u64 = 75_912;

/// `optimizer.decisions` after placing the job set under `kind`.
fn solves(kind: PlacementPolicyKind) -> u64 {
    let registry = Registry::new();
    let sim = Simulator::paper_default()
        .unwrap()
        .with_telemetry(&registry);
    let engine = PlacementEngine::new(&sim, &Original, SERVERS, STEPS).unwrap();
    let jobs = synthetic_jobs(TraceKind::Common, SEED, SERVERS, STEPS, engine.interval());
    let run = engine.place(&jobs, &mut *kind.build()).unwrap();
    assert_eq!(run.outcome.rejected, 0, "{kind}: every job is placed");
    registry
        .counters()
        .into_iter()
        .find(|(name, _)| name == "optimizer.decisions")
        .map_or(0, |(_, n)| n)
}

#[test]
fn policies_that_never_score_make_only_the_thermal_pass_solves() {
    for kind in [
        PlacementPolicyKind::RoundRobin,
        PlacementPolicyKind::CoolestFirst,
    ] {
        assert_eq!(solves(kind), THERMAL_PASS_SOLVES, "{kind}");
    }
}

#[test]
fn harvest_aware_solves_within_a_tenth_of_a_percent_of_a_run_wide_memo() {
    let n = solves(PlacementPolicyKind::HarvestAware);
    assert!(
        (THERMAL_PASS_SOLVES..=HARVEST_AWARE_SOLVES_MAX).contains(&n),
        "harvest_aware made {n} solves, over {HARVEST_AWARE_SOLVES_MAX}"
    );
}
