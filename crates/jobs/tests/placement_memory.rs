//! What one `harvest_aware` placement holds (DESIGN.md §16.2): the
//! scorer's memo keeps one job's solves, so placing the default Common
//! 200 × 96 job set under `TEG_Original` grows the process's peak
//! resident set by less than 1 MiB. A memo spanning the whole placement
//! grew to about 75k entries and raised the peak by 6.2 MiB.
//!
//! This file holds one test on purpose: `VmHWM` is the whole process's
//! high-water mark, so a second test running beside it would blur the
//! measurement.

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::cast_precision_loss)]

use h2p_core::simulation::Simulator;
use h2p_jobs::{synthetic_jobs, HarvestAware, PlacementEngine};
use h2p_sched::Original;
use h2p_workload::TraceKind;

const SEED: u64 = 20200530;
const SERVERS: usize = 200;
const STEPS: usize = 96;
/// What the placement may grow the process peak by.
const GROWTH_BOUND_BYTES: u64 = 1 << 20;

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
fn a_harvest_aware_placement_grows_the_peak_by_under_one_mib() {
    let sim = Simulator::paper_default().unwrap();
    let engine = PlacementEngine::new(&sim, &Original, SERVERS, STEPS).unwrap();
    let jobs = synthetic_jobs(TraceKind::Common, SEED, SERVERS, STEPS, engine.interval());

    let Some(before) = peak_rss_bytes() else {
        eprintln!("placement_memory: /proc/self/status is unreadable here; skipped");
        return;
    };
    let run = engine.place(&jobs, &mut HarvestAware::new()).unwrap();
    let after = peak_rss_bytes().unwrap();
    assert_eq!(run.outcome.rejected, 0, "every job is placed");

    let growth = after.saturating_sub(before);
    eprintln!(
        "placement_memory: {} jobs, VmHWM {:.2} -> {:.2} MiB (+{:.2} MiB)",
        jobs.len(),
        mib(before),
        mib(after),
        mib(growth)
    );
    assert!(
        growth < GROWTH_BOUND_BYTES,
        "a harvest_aware placement grew the peak by {:.2} MiB, over {:.0} MiB",
        mib(growth),
        mib(GROWTH_BOUND_BYTES)
    );
}
