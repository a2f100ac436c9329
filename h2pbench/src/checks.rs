//! Output checks shared by the engine workloads, run outside the
//! timed window.

use h2p_core::simulation::SimulationResult;

use crate::digest::result_digest;
use crate::engine::Case;
use crate::report::{Ctx, Outcome, Rep};
use crate::stats::{median, percentile};

/// The band a run's average TEG power per server must fall in. The
/// paper's Fig. 14 averages span 3.59-4.35 W; the band leaves room for
/// the reproduction's model deviation (it measures 3.72-4.67 W) and
/// for other seeds, while still catching a broken harvest path.
pub const TEG_BAND_W: (f64, f64) = (2.5, 6.0);

/// True when both runs are present and bit-identical, or both failed.
#[must_use]
pub fn same_bits(a: Option<&SimulationResult>, b: Option<&SimulationResult>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a.servers() == b.servers() && a.steps() == b.steps(),
        (None, None) => true,
        _ => false,
    }
}

/// Pairs each successful result with its case label.
#[must_use]
pub fn labelled<'r>(
    cases: &[(String, Case<'_>)],
    results: &'r [Option<SimulationResult>],
) -> Vec<(String, &'r SimulationResult)> {
    cases
        .iter()
        .zip(results)
        .filter_map(|((label, _), r)| r.as_ref().map(|r| (label.clone(), r)))
        .collect()
}

/// Zero thermal violations and, with `band`, an average TEG power per
/// server inside [`TEG_BAND_W`].
pub fn engine_invariants(out: &mut Outcome, results: &[(String, &SimulationResult)], band: bool) {
    for (label, result) in results {
        let violations = result.total_violations();
        out.check(violations == 0, || {
            format!("{label}: {violations} thermal violations")
        });
        if band {
            let teg = result
                .average_teg_power()
                .map(|w| w.value())
                .unwrap_or(f64::NAN);
            out.check(teg >= TEG_BAND_W.0 && teg <= TEG_BAND_W.1, || {
                format!("{label}: average TEG power {teg} W outside {TEG_BAND_W:?}")
            });
        }
    }
}

/// Digests of every labelled result, compared with the stored table at
/// the default seed.
pub fn digests(ctx: &Ctx, out: &mut Outcome, results: &[(String, &SimulationResult)]) {
    let got: Vec<(String, u64)> = results
        .iter()
        .map(|(label, r)| (label.clone(), result_digest(r)))
        .collect();
    for (label, digest) in &got {
        println!("  digest {label} {digest:016x}");
    }
    out.check_digests(ctx, &got);
}

/// The end-to-end figures of a batch workload's timed repetitions.
/// The result line carries the rate per CPU-second over every
/// repetition but the first (a warm-up: it fills caches and the
/// allocator, and ran slowest in every placement run inspected); the
/// median wall-clock rate (`unit_name` names it) and the median wall
/// latency of one operation are printed beside it.
pub fn report_throughput(out: &mut Outcome, unit_name: &str, reps: &[Rep], latencies_ms: &[f64]) {
    let wall: Vec<f64> = reps.iter().map(|r| r.work / r.wall_s).collect();
    let cpu: Vec<f64> = reps
        .iter()
        .filter(|r| r.cpu_s > 0.0)
        .map(|r| r.work / r.cpu_s)
        .collect();
    let listed = |rates: &[f64]| {
        rates
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("  wall-clock rates per repetition: {}", listed(&wall));
    println!("  rates per CPU-second:            {}", listed(&cpu));
    out.note("repetitions", reps.len() as f64, "count");
    out.note(unit_name, median(&wall).unwrap_or(0.0), "1/s");
    out.note("operations", latencies_ms.len() as f64, "count");
    out.note("p50_ms", percentile(latencies_ms, 0.5).unwrap_or(0.0), "ms");
    let warm = if reps.len() > 1 { &reps[1..] } else { reps };
    let work: f64 = warm.iter().map(|r| r.work).sum();
    let cpu_s: f64 = warm.iter().map(|r| r.cpu_s).sum();
    out.metric("work_per_cpu_s", work / cpu_s.max(f64::MIN_POSITIVE), "1/s");
}
