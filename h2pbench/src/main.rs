//! The h2p workspace's benchmark: four workloads through public APIs
//! only, end-to-end metrics in the untraced run and the per-layer
//! ladder in the traced run. See `README.md` in this directory.
//!
//! ```text
//! h2pbench --workload <paper_eval|fleet_stream|placement_loop|gateway_mix|all>
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits
//! non-zero when any output check fails.

mod checks;
mod digest;
mod digests;
mod engine;
mod fleet;
mod gateway;
mod host;
mod layers;
mod paper;
mod placement;
mod probes;
mod report;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use serde_json::Value;

use report::{Ctx, Metric, Outcome};
use spans::SpanLog;

/// The repository's experiment seed, the default `--seed`.
pub const EXPERIMENT_SEED: u64 = h2p_bench::EXPERIMENT_SEED;

pub const WORKLOADS: [&str; 4] = [
    "paper_eval",
    "fleet_stream",
    "placement_loop",
    "gateway_mix",
];

/// The benchmark's definition: its workloads and, per mode, the
/// metrics every run prints with their units. The binary checks its
/// own output against it, so the file and the program cannot drift.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// The `(name, unit)` pairs of one metric list of [`SPEC`]
/// (`end_to_end` or `per_layer`).
fn spec_metrics(list: &str) -> Vec<(String, String)> {
    let spec: Value = serde_json::from_str(SPEC).unwrap_or(Value::Null);
    spec.get(list)
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_owned();
            let unit = m.get("unit")?.as_str()?.to_owned();
            Some((name, unit))
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> &'static str {
    "usage: h2pbench --workload <paper_eval|fleet_stream|placement_loop|gateway_mix|all> \
     [--seed N] [--seconds S] [--trace 0|1]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: EXPERIMENT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        workers: host::cores(),
        spans: SpanLog::new(args.trace),
    };
    println!(
        "h2pbench workload={} seed={} seconds={} trace={} cores={} profile={} rustc=\"{}\" engine_workers={}",
        args.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced),
        host::cores(),
        host::profile(),
        host::rustc_version(),
        ctx.workers,
    );
    let steal_before = host::steal_ticks();
    let started = Instant::now();
    let mut out = Outcome::default();
    let ran = ctx
        .spans
        .root("bench.run", || match args.workload.as_str() {
            "paper_eval" => paper::run(&ctx, &mut out),
            "fleet_stream" => fleet::run(&ctx, &mut out),
            "placement_loop" => placement::run(&ctx, &mut out),
            _ => gateway::run(&ctx, &mut out),
        });
    if let Err(e) = ran {
        out.check(false, || format!("workload error: {e}"));
    }
    let steal = host::steal_ticks().saturating_sub(steal_before);
    let wall = started.elapsed().as_secs_f64();
    let rss = out.peak_rss_mib.or_else(host::peak_rss_mib).unwrap_or(0.0);
    println!("host: steal ticks during run {steal}, wall {wall:.3} s");
    if ctx.traced {
        host_metrics(&mut out, steal, wall, rss);
        write_spans(&ctx, &args.workload);
    } else {
        out.metric("peak_rss_mib", rss, "MiB");
    }
    let expected = spec_metrics(if ctx.traced {
        "per_layer"
    } else {
        "end_to_end"
    });
    let metrics = select(&mut out, &expected);
    let correct = out.failures.is_empty();
    println!(
        "attempted {} failed {} checks_failed {}",
        out.attempted,
        out.failed,
        out.failures.len()
    );
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The traced run's host rows: CPU steal accrued during the run, its
/// wall time and peak memory.
fn host_metrics(out: &mut Outcome, steal: u64, wall: f64, rss: f64) {
    out.metric("host.steal_ticks", steal as f64, "count");
    out.metric("host.wall_s", wall, "s");
    out.metric("host.peak_rss_mib", rss, "MiB");
}

/// The recorded metrics in `expected` order. A missing, duplicated or
/// unlisted metric, or one in another unit than listed, is a benchmark
/// bug and fails the run.
fn select(out: &mut Outcome, expected: &[(String, String)]) -> Vec<Metric> {
    if expected.is_empty() {
        out.failures
            .push("BENCHMARK.json lists no metrics".to_owned());
    }
    let mut picked = Vec::with_capacity(expected.len());
    for (name, unit) in expected {
        let found: Vec<&Metric> = out.metrics.iter().filter(|m| &m.name == name).collect();
        match found.as_slice() {
            [one] if one.unit == unit => picked.push((*one).clone()),
            [one] => out.failures.push(format!(
                "metric {name} is in {}, listed in {unit}",
                one.unit
            )),
            [] => out.failures.push(format!("metric {name} missing")),
            _ => out.failures.push(format!("metric {name} recorded twice")),
        }
    }
    for m in &out.metrics {
        if !expected.iter().any(|(name, _)| name == &m.name) {
            out.failures
                .push(format!("metric {} is not listed", m.name));
        }
    }
    picked
}

/// The final result line.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics: Vec<(String, Value)> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            (
                m.name.clone(),
                serde_json::json!({"value": value, "unit": m.unit}),
            )
        })
        .collect();
    let line = serde_json::json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": Value::Object(metrics),
    });
    serde_json::to_string(&line).unwrap_or_default()
}

/// Writes the traced run's spans and prints self time per span name.
fn write_spans(ctx: &Ctx, workload: &str) {
    let spans = ctx.spans.spans();
    println!("spans: {} recorded; self time by name:", spans.len());
    for (name, t) in spans::self_times(&spans) {
        println!(
            "  {name:<24} count {:>8} total {:>12.3} ms self {:>12.3} ms",
            t.count,
            t.total_ns as f64 * 1e-6,
            t.self_ns as f64 * 1e-6
        );
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-{}.jsonl", ctx.seed));
    match ctx.spans.write_jsonl(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written: {e}"),
    }
}

/// `--workload all`: each workload in its own process (so peak memory
/// is per workload), then one combined result line with metrics named
/// `<workload>.<metric>`.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate the benchmark executable");
        return ExitCode::FAILURE;
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let child = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let Ok(child) = child else {
            correct = false;
            continue;
        };
        let text = String::from_utf8_lossy(&child.stdout);
        print!("{text}");
        correct &= child.status.success();
        let parsed = text
            .lines()
            .last()
            .and_then(|line| serde_json::from_str::<Value>(line).ok());
        let Some(result) = parsed else {
            correct = false;
            continue;
        };
        correct &= result.get("correct") == Some(&Value::Bool(true));
        let count = |key: &str| result.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        attempted += count("attempted");
        failed += count("failed");
        for (name, m) in result
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap_or(&[])
        {
            metrics.push(Metric {
                name: format!("{workload}.{name}"),
                value: m.get("value").and_then(Value::as_f64).unwrap_or(0.0),
                unit: unit_of(m.get("unit").and_then(Value::as_str).unwrap_or("")),
            });
        }
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Interns a unit name read back from a child's result line.
fn unit_of(unit: &str) -> &'static str {
    ["s", "ms", "us", "ns", "1/s", "MiB", "count", "ratio"]
        .into_iter()
        .find(|u| *u == unit)
        .unwrap_or("?")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_definition_names_these_workloads_and_both_metric_lists() {
        let spec: Value = serde_json::from_str(SPEC).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .expect("a workload list")
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let end_to_end = spec_metrics("end_to_end");
        assert!(end_to_end.contains(&("setup_s".to_owned(), "s".to_owned())));
        assert!(!spec_metrics("per_layer").is_empty());
    }
}
