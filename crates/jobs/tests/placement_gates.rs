//! The placement dividend's gates (DESIGN.md §16.5): the three
//! placement policies place identical slot-structured job sets on every
//! trace class under both scheduling policies, and
//!
//! * every cell serves the same work with no rejections, so the cells
//!   compare placement quality, never admission luck;
//! * no cell leaves the throttle's safe envelope, neither at placement
//!   time nor in the engine run of the placed trace;
//! * on the Common class the better thermal-aware policy strictly beats
//!   `RoundRobin` on net harvest (TEG − pump), the premise of
//!   thermal-aware scheduling.
//!
//! `abl_placement` in `h2p-bench` prints the full table these gates
//! guard (EXPERIMENTS.md §"Job placement").

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::cast_precision_loss)]

use h2p_core::simulation::Simulator;
use h2p_jobs::{synthetic_jobs, PlacementEngine, PlacementPolicyKind};
use h2p_sched::{LoadBalance, Original, SchedulingPolicy};
use h2p_workload::TraceKind;

const SEED: u64 = 20200530;

/// One placement policy's showing on one trace class under one
/// scheduling policy.
struct Cell {
    kind: TraceKind,
    sched: &'static str,
    placement: PlacementPolicyKind,
    rejected: usize,
    served_demand_steps: f64,
    violations: usize,
    net_harvest_w: f64,
}

/// Places and simulates every `(kind, scheduling policy, placement)`
/// cell, grouped by `(kind, scheduling policy)` in
/// [`PlacementPolicyKind::ALL`] order.
fn cells(kinds: &[TraceKind], servers: usize, steps: usize) -> Vec<Cell> {
    let sim = Simulator::paper_default().unwrap();
    let scheds: [&dyn SchedulingPolicy; 2] = [&Original, &LoadBalance];
    let mut cells = Vec::new();
    for &kind in kinds {
        for sched in scheds {
            let engine = PlacementEngine::new(&sim, sched, servers, steps).unwrap();
            let jobs = synthetic_jobs(kind, SEED, servers, steps, engine.interval());
            for placement in PlacementPolicyKind::ALL {
                let run = engine.place(&jobs, &mut *placement.build()).unwrap();
                let result = sim.run(&run.trace, sched).unwrap();
                let avg_pump = result
                    .steps()
                    .iter()
                    .map(|s| s.pump_power_per_server.value())
                    .sum::<f64>()
                    / result.steps().len() as f64;
                cells.push(Cell {
                    kind,
                    sched: sched.name(),
                    placement,
                    rejected: run.outcome.rejected,
                    served_demand_steps: run.outcome.served_demand_steps,
                    violations: run.outcome.throttle_violations + result.total_violations(),
                    net_harvest_w: result.average_teg_power().unwrap().value() - avg_pump,
                });
            }
        }
    }
    cells
}

fn assert_gates(cells: &[Cell]) {
    for group in cells.chunks(PlacementPolicyKind::ALL.len()) {
        let served = group[0].served_demand_steps;
        for c in group {
            let what = format!("{}/{}/{}", c.kind, c.sched, c.placement);
            assert_eq!(c.rejected, 0, "{what} rejected jobs");
            assert!(
                (c.served_demand_steps - served).abs() < 1e-9,
                "{what} served {} against {served}",
                c.served_demand_steps
            );
            assert_eq!(c.violations, 0, "{what} left the throttle envelope");
        }
        if group[0].kind != TraceKind::Common {
            continue;
        }
        let net = |p: PlacementPolicyKind| {
            group
                .iter()
                .find(|c| c.placement == p)
                .unwrap()
                .net_harvest_w
        };
        let round_robin = net(PlacementPolicyKind::RoundRobin);
        let best =
            net(PlacementPolicyKind::CoolestFirst).max(net(PlacementPolicyKind::HarvestAware));
        assert!(
            best > round_robin,
            "common/{}: best thermal-aware net {best} W does not beat round_robin's {round_robin} W",
            group[0].sched
        );
    }
}

#[test]
fn every_cell_serves_equal_work_safely_and_common_pays_a_dividend() {
    assert_gates(&cells(&TraceKind::all(), 80, 24));
}

#[test]
fn common_dividend_holds_at_200_servers_over_96_steps() {
    assert_gates(&cells(&[TraceKind::Common], 200, 96));
}
