//! `paper_eval`: the paper's Fig. 14/15 trace-driven evaluation.
//!
//! Drastic (1,313 servers × 144 steps), Irregular and Common (1,000 ×
//! 288) under `TEG_Original` and `TEG_LoadBalance`, through
//! `Simulator::run` on `Simulator::paper_default()` with the dense
//! stepper (no change kernel), the Columns layout and one worker per
//! core. Generating the
//! traces is set-up. One timed pass runs all six on a fresh clone of
//! the built simulator, as a user evaluating the paper once would (a
//! reused simulator would answer later passes from its warm setting
//! cache).

use std::num::NonZeroUsize;
use std::time::Instant;

use h2p_core::fleet::EngineLayout;
use h2p_core::simulation::{SimulationResult, Simulator};
use h2p_telemetry::Registry;
use h2p_workload::{ClusterTrace, TraceGenerator, TraceKind};

use crate::engine::{engine_ladder, run_cases, Case, Policy};
use crate::report::{measured, repeated_setup, timed, Ctx, Outcome};
use crate::spans::SpanLog;
use crate::{checks, probes};

const SETUP_REPS: usize = 5;

fn generators(seed: u64) -> Vec<TraceGenerator> {
    TraceKind::all()
        .into_iter()
        .map(|kind| TraceGenerator::paper(kind, seed))
        .collect()
}

fn cases(traces: &[(TraceKind, ClusterTrace)]) -> Vec<(String, Case<'_>)> {
    let mut cases = Vec::new();
    for (kind, trace) in traces {
        for policy in [Policy::Original, Policy::LoadBalance] {
            let label = format!("paper_eval/{}/{}", kind.name(), policy.name());
            cases.push((label, Case { trace, policy }));
        }
    }
    cases
}

/// Runs every case on `sim`, returning the results in case order and
/// pushing each run's wall latency.
fn pass(
    spans: &SpanLog,
    sim: &Simulator,
    cases: &[(String, Case<'_>)],
    latencies_ms: &mut Vec<f64>,
    out: &mut Outcome,
) -> Vec<Option<SimulationResult>> {
    let mut results = Vec::with_capacity(cases.len());
    for (label, case) in cases {
        out.attempted += 1;
        let (run, secs) = timed(|| {
            spans.span("core.run", None, None, |_| {
                sim.run(case.trace, case.policy.as_dyn())
            })
        });
        latencies_ms.push(secs * 1e3);
        match run {
            Ok(result) => results.push(Some(result)),
            Err(e) => {
                out.failed += 1;
                out.check(false, || format!("{label}: engine error {e}"));
                results.push(None);
            }
        }
    }
    results
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let (built, setup) = repeated_setup(SETUP_REPS, || {
        let sim = Simulator::paper_default().map(|s| {
            s.with_workers(ctx.workers)
                .with_layout(EngineLayout::Columns)
        });
        let traces: Vec<(TraceKind, ClusterTrace)> = generators(ctx.seed)
            .into_iter()
            .map(|g| (g.kind(), g.generate()))
            .collect();
        (sim, traces)
    });
    let (sim, traces) = built;
    let pristine = sim.map_err(|e| e.to_string())?;
    let cases = cases(&traces);
    if ctx.traced {
        return traced(ctx, &pristine, &cases, out);
    }

    let work_per_pass: f64 = cases
        .iter()
        .map(|(_, c)| (c.trace.servers() * c.trace.steps()) as f64)
        .sum();
    let deadline = ctx.deadline();
    let mut reps = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut reference: Option<Vec<Option<SimulationResult>>> = None;
    loop {
        let sim = pristine.clone();
        let (results, rep) = measured(work_per_pass, || {
            pass(&ctx.spans, &sim, &cases, &mut latencies_ms, out)
        });
        reps.push(rep);
        out.mark_peak_rss();
        match &reference {
            None => reference = Some(results),
            Some(first) => {
                let same = first
                    .iter()
                    .zip(&results)
                    .all(|(a, b)| checks::same_bits(a.as_ref(), b.as_ref()));
                out.check(same, || "a later pass differs from the first".to_owned());
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    out.setup(&setup);
    checks::report_throughput(out, "server_steps_per_s", &reps, &latencies_ms);
    let results = reference.unwrap_or_default();
    let labelled = checks::labelled(&cases, &results);
    checks::engine_invariants(out, &labelled, true);
    checks::digests(ctx, out, &labelled);
    Ok(())
}

fn traced(
    ctx: &Ctx,
    pristine: &Simulator,
    cases: &[(String, Case<'_>)],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut latencies = Vec::new();
    let quiet = SpanLog::new(false);
    // A warm-up pass first: the first pass of a process runs slowest.
    pass(&quiet, &pristine.clone(), cases, &mut latencies, out);
    let mut results = Vec::new();
    for _ in 0..3 {
        let sim = pristine.clone();
        untraced_s.push(
            measured(0.0, || pass(&quiet, &sim, cases, &mut latencies, out))
                .1
                .cpu_s,
        );
        let registry = Registry::new();
        let sim = pristine.clone().with_telemetry(&registry);
        let (traced, rep) = measured(0.0, || pass(&ctx.spans, &sim, cases, &mut latencies, out));
        traced_s.push(rep.cpu_s);
        results = traced;
    }
    crate::layers::telemetry_overhead(&untraced_s, &traced_s, out);
    let labelled = checks::labelled(cases, &results);
    checks::engine_invariants(out, &labelled, true);
    checks::digests(ctx, out, &labelled);

    let engine_cases: Vec<Case<'_>> = cases.iter().map(|(_, c)| *c).collect();
    let engine_pass = |sim: &Simulator| run_cases(sim, &engine_cases);
    engine_ladder(ctx, pristine, &engine_pass, &engine_cases, 0.0, out)?;
    let share = out.value("core.unexplained_share").unwrap_or(1.0);
    println!(
        "  reconciliation at 1 worker: rungs explain {:.1}% of Simulator::run ({})",
        (1.0 - share) * 100.0,
        if share.abs() <= 0.10 {
            "within ±10%"
        } else {
            "OUTSIDE ±10%"
        }
    );
    let _ = crate::layers::workload_rungs(
        &generators(ctx.seed),
        NonZeroUsize::new(pristine.config().servers_per_circulation).unwrap_or(NonZeroUsize::MIN),
        out,
    );
    probes::jobs(ctx, pristine, out)?;
    probes::gateway(ctx, out)
}
