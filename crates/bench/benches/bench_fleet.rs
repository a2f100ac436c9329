//! Fleet-scale benchmark of the streamed fleet runner (the gate behind
//! `BENCH_fleet.json`): 100,000 servers over a 24-hour Common trace at
//! 5-minute control intervals, driven through `Simulator::run_fleet`
//! under a declared memory ceiling.
//!
//! Full mode runs the 100k-server fleet; `--smoke` shrinks it to
//! 10,000 servers × 48 steps for CI. Both modes:
//!
//! * size the [`ChunkPlan`] with `ChunkPlan::sized_for` against a
//!   64 MiB resident-trace budget, so the streamed run never holds more
//!   than one chunk of trace in memory;
//! * assert a **process peak-RSS ceiling** (256 MiB full, read from
//!   `/proc/self/status` `VmHWM`; skipped with a note where that file
//!   is unavailable) — the whole point of streaming shards is that the
//!   footprint stays flat while the fleet scales;
//! * assert bit-identity of the streamed run against a materialized
//!   `Simulator::run` at a small reference scale (the full differential
//!   matrix lives in `crates/core/tests/fleet_transparency.rs`);
//! * report wall-clock and the throughput figure `servers × steps / s`.
//!
//! `--out <path>` overrides the report location (default: the workspace
//! root, where CI collects `BENCH_*.json` artifacts).

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

use h2p_core::fleet::ChunkPlan;
use h2p_core::simulation::{SimulationResult, Simulator};
use h2p_sched::LoadBalance;
use h2p_workload::{TraceGenerator, TraceKind};
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::time::Instant;

/// Resident-trace budget handed to `ChunkPlan::sized_for`.
const TRACE_BUDGET_BYTES: usize = 64 << 20;
/// Declared process peak-RSS ceiling asserted in full mode.
const RSS_CEILING_BYTES: u64 = 256 << 20;

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

/// Process peak resident set (`VmHWM`) in bytes, where the platform
/// exposes it.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Conservative per-circulation resident estimate for the plan: the
/// shard's trace samples (`circ × steps × 8 B`) plus per-trace vector
/// and bookkeeping overhead.
fn per_circulation_bytes(circ: usize, steps: usize) -> usize {
    circ * (steps * 8 + 96)
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
        .unwrap_or_else(|| h2p_bench::bench_output_path("BENCH_fleet.json"));

    let (servers, steps) = if smoke { (10_000, 48) } else { (100_000, 288) };
    let sim = Simulator::paper_default().unwrap();
    let circ = sim.config().servers_per_circulation;
    let generator = TraceGenerator::paper(TraceKind::Common, h2p_bench::EXPERIMENT_SEED)
        .with_servers(servers)
        .with_steps(steps);

    let per_circ = per_circulation_bytes(circ, steps);
    let plan = ChunkPlan::sized_for(servers, nz(circ), per_circ, TRACE_BUDGET_BYTES).unwrap();
    let planned_bytes = plan.planned_chunk_bytes(per_circ);
    assert!(
        planned_bytes <= TRACE_BUDGET_BYTES,
        "plan exceeds its own trace budget"
    );

    // Differential guard at a small reference scale: the streamed run
    // must equal the materialized run bit-for-bit before the headline
    // timing means anything.
    let ref_generator = TraceGenerator::paper(TraceKind::Common, h2p_bench::EXPERIMENT_SEED)
        .with_servers(2 * circ + circ / 2)
        .with_steps(12);
    let ref_plan = ChunkPlan::new(ref_generator.servers(), nz(circ), nz(1)).unwrap();
    let materialized = sim.run(&ref_generator.generate(), &LoadBalance).unwrap();
    let streamed = sim
        .run_fleet(&ref_generator, &LoadBalance, &ref_plan)
        .unwrap();
    let reference_identical = bit_identical(&materialized, &streamed);

    // The headline run: streamed, chunk-resident.
    let t0 = Instant::now();
    let result = sim.run_fleet(&generator, &LoadBalance, &plan).unwrap();
    let seconds = t0.elapsed().as_secs_f64();
    let server_steps = (servers * steps) as f64;
    let server_steps_per_sec = server_steps / seconds.max(f64::MIN_POSITIVE);

    let peak_rss = peak_rss_bytes();
    let rss_ok = peak_rss.map(|rss| rss <= RSS_CEILING_BYTES);
    let avg_teg = result.average_teg_power().unwrap().value();

    let report = serde_json::json!({
        "bench": "fleet",
        "smoke": smoke,
        "servers": servers,
        "steps": steps,
        "trace": "Common",
        "policy": result.policy(),
        "circulation_size": circ,
        "circs_per_chunk": plan.circs_per_chunk().get(),
        "n_chunks": plan.n_chunks(),
        "per_circulation_bytes": per_circ,
        "planned_chunk_bytes": planned_bytes,
        "trace_budget_bytes": TRACE_BUDGET_BYTES,
        "rss_ceiling_bytes": RSS_CEILING_BYTES,
        "peak_rss_bytes": peak_rss,
        "rss_under_ceiling": rss_ok,
        "seconds": seconds,
        "server_steps_per_sec": server_steps_per_sec,
        "reference_bit_identical": reference_identical,
        "average_teg_power_w": avg_teg,
    });
    std::fs::write(&out, format!("{report}\n")).unwrap();
    let shown = out.canonicalize().unwrap_or(out);

    println!(
        "fleet bench ({servers} servers x {steps} steps, {}):",
        result.policy()
    );
    println!(
        "  plan: {} chunks of <= {} circulations ({:.1} MiB resident trace, budget {} MiB)",
        plan.n_chunks(),
        plan.circs_per_chunk(),
        planned_bytes as f64 / (1 << 20) as f64,
        TRACE_BUDGET_BYTES >> 20
    );
    println!("  streamed run:  {seconds:.3} s  ({server_steps_per_sec:.0} server-steps/s)");
    match peak_rss {
        Some(rss) => println!(
            "  peak RSS: {:.1} MiB (ceiling {} MiB, under: {})",
            rss as f64 / (1 << 20) as f64,
            RSS_CEILING_BYTES >> 20,
            rss_ok == Some(true)
        ),
        None => println!("  peak RSS: unavailable on this platform (ceiling assert skipped)"),
    }
    println!("  avg TEG power: {avg_teg:.3} W/server");
    println!("  wrote {}", shown.display());

    assert!(
        reference_identical,
        "streamed fleet run diverged from the materialized oracle"
    );
    if let Some(rss) = peak_rss {
        assert!(
            rss <= RSS_CEILING_BYTES,
            "peak RSS {} B exceeded the declared {} B ceiling",
            rss,
            RSS_CEILING_BYTES
        );
    }
    // The paper-band sanity that every engine mode must keep: per-CPU
    // average TEG power in the 3-5 W decade on the Common class.
    assert!(
        (3.0..=5.5).contains(&avg_teg),
        "avg TEG power {avg_teg} W left the paper band"
    );
}
