//! Per-layer rungs that sit outside the engine: trace generation
//! (`workload`) and the tracing overhead (`telemetry`).

use std::hint::black_box;
use std::num::NonZeroUsize;

use h2p_workload::TraceGenerator;

use crate::report::{timed, Outcome};

/// Times `TraceGenerator::generate` and iterating
/// `TraceGenerator::shards` (in shards of `shard_servers`) over
/// `generators`, in ns per generated server-step, and returns the
/// shard rung.
pub fn workload_rungs(
    generators: &[TraceGenerator],
    shard_servers: NonZeroUsize,
    out: &mut Outcome,
) -> f64 {
    let server_steps: usize = generators.iter().map(|g| g.servers() * g.steps()).sum();
    let per_server_step = |secs: f64| secs * 1e9 / server_steps.max(1) as f64;
    let ((), generate_s) = timed(|| {
        for g in generators {
            black_box(g.generate());
        }
    });
    let ((), shard_s) = timed(|| {
        for g in generators {
            for shard in g.shards(shard_servers) {
                black_box(shard);
            }
        }
    });
    out.metric("workload.server_steps", server_steps as f64, "count");
    out.metric(
        "workload.generate_ns_per_server_step",
        per_server_step(generate_s),
        "ns",
    );
    out.metric(
        "workload.shard_ns_per_server_step",
        per_server_step(shard_s),
        "ns",
    );
    per_server_step(shard_s)
}

/// Reports the tracing overhead from interleaved untraced and traced
/// repetitions of the same operation, in CPU seconds (medians of each
/// side; CPU time keeps host steal out of the comparison).
pub fn telemetry_overhead(untraced_s: &[f64], traced_s: &[f64], out: &mut Outcome) {
    let untraced = crate::stats::median(untraced_s).unwrap_or(0.0);
    let traced = crate::stats::median(traced_s).unwrap_or(0.0);
    out.metric("telemetry.untraced_s", untraced, "s");
    out.metric("telemetry.traced_s", traced, "s");
    out.metric(
        "telemetry.overhead",
        crate::engine::ratio(traced, untraced) - 1.0,
        "ratio",
    );
}
