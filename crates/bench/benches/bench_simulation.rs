//! Wall-clock benchmark of the trace simulation engine (the
//! measurement behind `BENCH_simulation.json`): the dense stepper run
//! sequentially and across the worker pool.
//!
//! Full mode simulates the paper-scale evaluation — 1,000 servers over
//! a 24-hour trace at 5-minute control intervals (288 steps) — twice:
//!
//! 1. dense stepper, 1 worker (the spawn-free sequential baseline);
//! 2. dense stepper, worker pool.
//!
//! Bit-identity of (2) against (1) is asserted — it must hold
//! everywhere. The speedup is recorded, not asserted, because it
//! depends on the host's cores and scheduling noise.
//!
//! `--smoke` shrinks the workload to 200 servers × 24 steps for CI;
//! `--out <path>` overrides the report location (default: the
//! workspace root, where CI collects `BENCH_*.json` artifacts).

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

use h2p_core::simulation::{SimulationResult, Simulator};
use h2p_sched::LoadBalance;
use h2p_workload::{TraceGenerator, TraceKind};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::time::Instant;

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

fn bit_identical(a: &SimulationResult, b: &SimulationResult) -> bool {
    a.steps().len() == b.steps().len() && a.steps().iter().zip(b.steps()).all(|(x, y)| x == y)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| h2p_bench::bench_output_path("BENCH_simulation.json"));

    let (servers, steps) = if smoke { (200, 24) } else { (1000, 288) };
    let cluster = TraceGenerator::paper(TraceKind::Common, h2p_bench::EXPERIMENT_SEED)
        .with_servers(servers)
        .with_steps(steps)
        .generate();

    // One pristine simulator; each timed run clones it.
    let sim = Simulator::paper_default().unwrap();
    let available = h2p_exec::worker_count().get();
    let workers = available.max(4);

    // 1. Dense stepper, sequential.
    let t_seq = Instant::now();
    let seq = sim
        .clone()
        .with_workers(nz(1))
        .run(&cluster, &LoadBalance)
        .unwrap();
    let sequential_seconds = t_seq.elapsed().as_secs_f64();

    // 2. Dense stepper, worker pool.
    let t_par = Instant::now();
    let par = sim
        .clone()
        .with_workers(nz(workers))
        .run(&cluster, &LoadBalance)
        .unwrap();
    let parallel_seconds = t_par.elapsed().as_secs_f64();

    let dense_identical = bit_identical(&seq, &par);
    // A parallel-vs-sequential "speedup" measured on a single-core host
    // is pure scheduling overhead, not a property of the engine — on
    // such hosts the ratio is recorded as null with an explicit skip
    // marker instead of a misleading sub-1.0 figure.
    let single_core = available == 1;
    let speedup = (!single_core).then(|| sequential_seconds / parallel_seconds);
    let avg_teg = seq.average_teg_power().unwrap().value();

    let report = serde_json::json!({
        "bench": "simulation",
        "smoke": smoke,
        "servers": servers,
        "steps": steps,
        "trace": "Common",
        "policy": seq.policy(),
        "sequential_seconds": sequential_seconds,
        "parallel_seconds": parallel_seconds,
        "workers": workers,
        "available_parallelism": available,
        "speedup": speedup,
        "speedup_skipped_single_core": single_core,
        "bit_identical": dense_identical,
        "average_teg_power_w": avg_teg,
    });
    std::fs::write(&out, format!("{report}\n")).unwrap();
    let shown = out.canonicalize().unwrap_or(out);

    println!(
        "simulation bench ({servers} servers x {steps} steps, {}):",
        seq.policy()
    );
    println!("  dense sequential (1 worker):   {sequential_seconds:.3} s");
    match speedup {
        Some(s) => println!(
            "  dense parallel   ({workers} workers): {parallel_seconds:.3} s  ({s:.2}x, {available} cores available)"
        ),
        None => println!(
            "  dense parallel   ({workers} workers): {parallel_seconds:.3} s  (speedup skipped: single-core host)"
        ),
    }
    println!("  wrote {}", shown.display());

    assert!(
        dense_identical,
        "parallel run diverged from the sequential run"
    );
}
