//! A materialized run's memory promise (DESIGN.md §14.5): `Simulator::run`
//! absorbs each lane's per-step partials into the run's folds as soon as
//! every lower lane has been, so however many circulations a trace
//! splits into, the run holds the partials of a few lanes per worker,
//! not of every lane.
//!
//! The trace is materialized before the measurement starts, so what the
//! run itself grows is the folds, the result and the lanes in flight. A
//! run that kept every lane until one merge at the end would hold
//! 4,096 lanes × 128 steps × 80 B = 40 MiB of partials here.
//!
//! This file holds one test on purpose: `VmHWM` is the whole process's
//! high-water mark, so a second test running beside it would blur the
//! measurement.

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::cast_precision_loss)]

use h2p_core::simulation::Simulator;
use h2p_sched::LoadBalance;
use h2p_workload::{TraceGenerator, TraceKind};
use std::num::NonZeroUsize;

/// One circulation per server: 4,096 lanes.
const SERVERS: usize = 4096;
const STEPS: usize = 128;
/// What the run may grow the process peak by.
const GROWTH_BOUND_BYTES: u64 = 8 << 20;

/// Process peak resident set (`VmHWM`) in bytes, where the platform
/// exposes it.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / f64::from(1 << 20)
}

#[test]
fn a_run_of_many_circulations_holds_a_few_lanes_per_worker() {
    let sim = Simulator::paper_default()
        .unwrap()
        .with_servers_per_circulation(1)
        .with_workers(NonZeroUsize::new(2).unwrap());
    let cluster = TraceGenerator::paper(TraceKind::Common, 7)
        .with_servers(SERVERS)
        .with_steps(STEPS)
        .generate();

    let before = peak_rss_bytes();
    let result = sim.run(&cluster, &LoadBalance).unwrap();
    let after = peak_rss_bytes();

    assert_eq!(result.steps().len(), STEPS);
    assert_eq!(result.total_violations(), 0);
    let (Some(before), Some(after)) = (before, after) else {
        eprintln!("note: /proc/self/status reports no VmHWM here; RSS checks skipped");
        return;
    };
    assert!(
        after - before < GROWTH_BOUND_BYTES,
        "peak RSS grew {:.2} MiB across the run, {:.0} MiB or more",
        mib(after - before),
        mib(GROWTH_BOUND_BYTES)
    );
}
