//! Ablation — closed-loop job placement: does thermal-aware placement
//! out-harvest a load-oblivious baseline, as Van Damme et al.'s
//! thermal-aware scheduling premise expects (PAPERS.md)?
//!
//! Each `PlacementPolicy` places the same slot-structured synthetic job
//! set (200 servers, 96 five-minute steps; concurrency never exceeds
//! the server count, so every policy places the same work) on every
//! trace class under both scheduling policies, and the placed trace
//! runs through the engine. Net harvest is average TEG minus average
//! pump power per server; violations count placement-time throttle
//! excursions plus the engine's thermal violations. The gates on these
//! cells live in `crates/jobs/tests/placement_gates.rs`.

// Experiment harness: small-int casts are intentional.
#![allow(clippy::unwrap_used, clippy::cast_precision_loss)]

use h2p_bench::{emit_json, print_table};
use h2p_core::simulation::Simulator;
use h2p_jobs::{synthetic_jobs, PlacementEngine, PlacementPolicyKind};
use h2p_sched::{LoadBalance, Original, SchedulingPolicy};
use h2p_workload::TraceKind;

fn main() {
    let (servers, steps) = (200, 96);
    let sim = Simulator::paper_default().unwrap();
    let scheds: [&dyn SchedulingPolicy; 2] = [&Original, &LoadBalance];

    println!(
        "Ablation — job placement policies ({servers} servers, {steps} steps, seed {})\n",
        h2p_bench::EXPERIMENT_SEED
    );
    let mut rows = Vec::new();
    for kind in TraceKind::all() {
        for sched in scheds {
            let engine = PlacementEngine::new(&sim, sched, servers, steps).unwrap();
            let jobs = synthetic_jobs(
                kind,
                h2p_bench::EXPERIMENT_SEED,
                servers,
                steps,
                engine.interval(),
            );
            for placement in PlacementPolicyKind::ALL {
                let run = engine.place(&jobs, &mut *placement.build()).unwrap();
                let result = sim.run(&run.trace, sched).unwrap();
                let teg = result.average_teg_power().unwrap().value();
                let pump = result
                    .steps()
                    .iter()
                    .map(|s| s.pump_power_per_server.value())
                    .sum::<f64>()
                    / result.steps().len() as f64;
                let violations = run.outcome.throttle_violations + result.total_violations();
                rows.push(vec![
                    kind.name().to_string(),
                    sched.name().to_string(),
                    placement.name().to_string(),
                    format!("{teg:.3}"),
                    format!("{pump:.3}"),
                    format!("{:.3}", teg - pump),
                    format!("{violations}"),
                ]);
                emit_json(&serde_json::json!({
                    "experiment": "abl_placement",
                    "trace": kind.name(),
                    "sched": sched.name(),
                    "placement": placement.name(),
                    "placed": run.outcome.placed,
                    "rejected": run.outcome.rejected,
                    "served_demand_steps": run.outcome.served_demand_steps,
                    "avg_teg_w_per_server": teg,
                    "avg_pump_w_per_server": pump,
                    "net_harvest_w_per_server": teg - pump,
                    "violations": violations,
                }));
            }
        }
    }
    print_table(
        &[
            "trace",
            "sched policy",
            "placement",
            "TEG W",
            "pump W",
            "net W",
            "violations",
        ],
        &rows,
    );
}
