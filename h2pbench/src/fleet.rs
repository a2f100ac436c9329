//! `fleet_stream`: `Simulator::run_fleet` on a 20,000-server × 288-step
//! Common fleet under `TEG_LoadBalance`, streamed in chunks under a
//! 16 MiB trace budget (3 chunks). Shard generation runs inside the
//! timed run; work is split per circulation across all steps.

use std::num::NonZeroUsize;
use std::time::Instant;

use h2p_core::fleet::ChunkPlan;
use h2p_core::simulation::{SimulationResult, Simulator};
use h2p_telemetry::Registry;
use h2p_workload::{TraceGenerator, TraceKind};

use crate::engine::{engine_ladder, Case, PassCounts, Policy};
use crate::report::{measured, repeated_setup, Ctx, Outcome};
use crate::{checks, probes};

pub const SERVERS: usize = 20_000;
pub const STEPS: usize = 288;
/// Resident trace budget the chunk plan must fit.
pub const TRACE_BUDGET_BYTES: usize = 16 << 20;
const POLICY: Policy = Policy::LoadBalance;
const SETUP_REPS: usize = 31;
/// Servers of the reference fleet that `run_fleet` must match `run` on
/// bit for bit.
const REFERENCE_SERVERS: usize = 100;
const REFERENCE_STEPS: usize = 24;

/// The plan's per-circulation resident estimate: the shard's samples
/// plus per-trace bookkeeping.
fn per_circulation_bytes(circ: usize, steps: usize) -> usize {
    circ * (steps * 8 + 96)
}

struct Fleet {
    pristine: Simulator,
    generator: TraceGenerator,
    plan: ChunkPlan,
}

fn build(ctx: &Ctx) -> Result<Fleet, String> {
    let pristine = Simulator::paper_default()
        .map_err(|e| e.to_string())?
        .with_workers(ctx.workers);
    let circ = pristine.config().servers_per_circulation;
    let generator = TraceGenerator::paper(TraceKind::Common, ctx.seed)
        .with_servers(SERVERS)
        .with_steps(STEPS);
    let plan = ChunkPlan::sized_for(
        SERVERS,
        NonZeroUsize::new(circ).unwrap_or(NonZeroUsize::MIN),
        per_circulation_bytes(circ, STEPS),
        TRACE_BUDGET_BYTES,
    )
    .map_err(|e| e.to_string())?;
    Ok(Fleet {
        pristine,
        generator,
        plan,
    })
}

fn run_once(fleet: &Fleet, sim: &Simulator) -> Result<SimulationResult, String> {
    sim.run_fleet(&fleet.generator, POLICY.as_dyn(), &fleet.plan)
        .map_err(|e| e.to_string())
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let (fleet, setup) = repeated_setup(SETUP_REPS, || build(ctx));
    let fleet = fleet?;
    println!(
        "  plan: {} servers, {} chunks of <= {} servers",
        SERVERS,
        fleet.plan.n_chunks(),
        fleet.plan.max_chunk_servers()
    );
    if ctx.traced {
        return traced(ctx, &fleet, out);
    }

    let deadline = ctx.deadline();
    let mut reps = Vec::new();
    let mut reference: Option<SimulationResult> = None;
    loop {
        let sim = fleet.pristine.clone();
        out.attempted += 1;
        let (run, rep) = measured((SERVERS * STEPS) as f64, || {
            ctx.spans
                .span("core.run_fleet", None, None, |_| run_once(&fleet, &sim))
        });
        reps.push(rep);
        out.mark_peak_rss();
        match run {
            Ok(result) => match &reference {
                None => reference = Some(result),
                Some(first) => out.check(checks::same_bits(Some(first), Some(&result)), || {
                    "a later run_fleet differs from the first".to_owned()
                }),
            },
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("run_fleet: engine error {e}"));
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    out.setup(&setup);
    let latencies_ms: Vec<f64> = reps.iter().map(|r| r.wall_s * 1e3).collect();
    checks::report_throughput(out, "server_steps_per_s", &reps, &latencies_ms);
    let labelled: Vec<(String, &SimulationResult)> = reference
        .iter()
        .map(|r| ("fleet_stream/common/TEG_LoadBalance".to_owned(), r))
        .collect();
    checks::engine_invariants(out, &labelled, true);
    checks::digests(ctx, out, &labelled);
    reference_check(ctx, &fleet.pristine, out)
}

/// `run_fleet` must equal `run` on the materialized trace, bit for
/// bit, at a small reference scale (two circulations per chunk, the
/// last one ragged).
fn reference_check(ctx: &Ctx, pristine: &Simulator, out: &mut Outcome) -> Result<(), String> {
    let circ = pristine.config().servers_per_circulation;
    let generator = TraceGenerator::paper(TraceKind::Common, ctx.seed)
        .with_servers(REFERENCE_SERVERS)
        .with_steps(REFERENCE_STEPS);
    let plan = ChunkPlan::new(
        REFERENCE_SERVERS,
        NonZeroUsize::new(circ).unwrap_or(NonZeroUsize::MIN),
        NonZeroUsize::new(2).unwrap_or(NonZeroUsize::MIN),
    )
    .map_err(|e| e.to_string())?;
    let streamed = pristine
        .clone()
        .run_fleet(&generator, POLICY.as_dyn(), &plan)
        .map_err(|e| e.to_string())?;
    let materialized = pristine
        .clone()
        .run(&generator.generate(), POLICY.as_dyn())
        .map_err(|e| e.to_string())?;
    out.check(
        checks::same_bits(Some(&streamed), Some(&materialized)),
        || "run_fleet differs from run at the reference scale".to_owned(),
    );
    Ok(())
}

fn traced(ctx: &Ctx, fleet: &Fleet, out: &mut Outcome) -> Result<(), String> {
    // A warm-up run first: the first run of a process runs slowest.
    run_once(fleet, &fleet.pristine.clone())?;
    let (untraced, untraced_rep) = measured(0.0, || run_once(fleet, &fleet.pristine.clone()));
    untraced?;
    let registry = Registry::new();
    let sim = fleet.pristine.clone().with_telemetry(&registry);
    let (run, traced_rep) = measured(0.0, || {
        ctx.spans
            .span("core.run_fleet", None, None, |_| run_once(fleet, &sim))
    });
    out.attempted += 3;
    let result = run?;
    crate::layers::telemetry_overhead(&[untraced_rep.cpu_s], &[traced_rep.cpu_s], out);
    let labelled = [("fleet_stream/common/TEG_LoadBalance".to_owned(), &result)];
    checks::engine_invariants(out, &labelled, true);
    checks::digests(ctx, out, &labelled);

    // The replay and the kernel's side rungs use the first chunk's
    // shard, materialized.
    let first_chunk = fleet
        .generator
        .shards(fleet.plan.max_chunk_servers())
        .next()
        .ok_or("the fleet has no shard")?
        .into_cluster();
    let cases = [Case {
        trace: &first_chunk,
        policy: POLICY,
    }];
    let engine_pass = |sim: &Simulator| -> Result<PassCounts, String> {
        run_once(fleet, sim)?;
        Ok(PassCounts::of_run(
            SERVERS,
            STEPS,
            sim.config().servers_per_circulation,
        ))
    };
    let shard_ns = crate::layers::workload_rungs(
        std::slice::from_ref(&fleet.generator),
        fleet.plan.max_chunk_servers(),
        out,
    );
    let in_pass_generation_s = shard_ns * (SERVERS * STEPS) as f64 * 1e-9;
    engine_ladder(
        ctx,
        &fleet.pristine,
        &engine_pass,
        &cases,
        in_pass_generation_s,
        out,
    )?;
    probes::jobs(ctx, &fleet.pristine, out)?;
    probes::gateway(ctx, out)
}
