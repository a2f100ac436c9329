//! The streamed fleet runner's memory promise (DESIGN.md §14.5): a
//! 100,000-server, 24-hour `Simulator::run_fleet` synthesizes each
//! circulation inside its lane and absorbs each lane's per-step
//! partials as soon as every lower lane has been, so what waits is a
//! few lanes per worker and one chunk's start states. The process peak
//! stays under a declared 256 MiB ceiling, grows by less than the
//! fleet's full trace would take, by no more than the budget the chunk
//! plan was sized for, and by no more than 8 MiB — less than one
//! chunk's partials (699 circulations × 288 steps × 80 B ≈ 15.4 MiB)
//! alone would take.
//!
//! This file holds one test on purpose: `VmHWM` is the whole process's
//! high-water mark, so a second test running beside it would blur the
//! measurement. Bit-identity of the streamed and materialized runs is
//! `fleet_transparency.rs`'s contract, not this file's.

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(clippy::unwrap_used, clippy::cast_precision_loss)]

use h2p_core::fleet::ChunkPlan;
use h2p_core::simulation::Simulator;
use h2p_sched::LoadBalance;
use h2p_workload::{TraceGenerator, TraceKind};
use std::num::NonZeroUsize;

const SERVERS: usize = 100_000;
const STEPS: usize = 288;
/// Resident budget handed to `ChunkPlan::sized_for`; the run's peak
/// may grow by no more than this.
const TRACE_BUDGET_BYTES: usize = 64 << 20;
/// Declared process peak-RSS ceiling.
const RSS_CEILING_BYTES: u64 = 256 << 20;
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

/// Conservative resident estimate of the trace of `servers` servers:
/// `steps × 8 B` of samples plus per-trace vector and bookkeeping
/// overhead.
fn trace_bytes(servers: usize, steps: usize) -> usize {
    servers * (steps * 8 + 96)
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / f64::from(1 << 20)
}

#[test]
fn paper_day_fleet_streams_under_its_memory_ceiling() {
    let sim = Simulator::paper_default().unwrap();
    let circ = sim.config().servers_per_circulation;
    let generator = TraceGenerator::paper(TraceKind::Common, 20200530)
        .with_servers(SERVERS)
        .with_steps(STEPS);
    let per_circ = trace_bytes(circ, STEPS);
    let plan = ChunkPlan::sized_for(
        SERVERS,
        NonZeroUsize::new(circ).unwrap(),
        per_circ,
        TRACE_BUDGET_BYTES,
    )
    .unwrap();
    assert!(
        plan.planned_chunk_bytes(per_circ) <= TRACE_BUDGET_BYTES,
        "plan exceeds its own trace budget"
    );
    assert!(
        plan.n_chunks() > 1,
        "the fleet must stream in several chunks"
    );

    let before = peak_rss_bytes();
    let result = sim.run_fleet(&generator, &LoadBalance, &plan).unwrap();
    let after = peak_rss_bytes();

    // The paper band every engine mode keeps: per-CPU average TEG
    // power in the 3-5 W decade on the Common class.
    let avg_teg = result.average_teg_power().unwrap().value();
    assert!(
        (3.0..=5.5).contains(&avg_teg),
        "avg TEG power {avg_teg} W left the paper band"
    );

    let (Some(before), Some(after)) = (before, after) else {
        eprintln!("note: /proc/self/status reports no VmHWM here; RSS checks skipped");
        return;
    };
    assert!(
        after <= RSS_CEILING_BYTES,
        "peak RSS {:.1} MiB exceeded the declared {:.0} MiB ceiling",
        mib(after),
        mib(RSS_CEILING_BYTES)
    );
    // Holding the whole trace at once (what a materializing run does)
    // would grow the peak by at least this much.
    let full_trace = trace_bytes(SERVERS, STEPS) as u64;
    assert!(
        after - before < full_trace,
        "peak RSS grew {:.1} MiB across the run, the full trace's {:.1} MiB or more",
        mib(after - before),
        mib(full_trace)
    );
    assert!(
        after - before <= TRACE_BUDGET_BYTES as u64,
        "peak RSS grew {:.1} MiB across the run, past the {:.0} MiB budget the plan was sized for",
        mib(after - before),
        mib(TRACE_BUDGET_BYTES as u64)
    );
    assert!(
        after - before <= GROWTH_BOUND_BYTES,
        "peak RSS grew {:.1} MiB across the run, past {:.0} MiB",
        mib(after - before),
        mib(GROWTH_BOUND_BYTES)
    );
}
