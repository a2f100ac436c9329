//! Gateway scale-out benchmark: the `h2p-gateway` HTTP front door
//! under load-generator traffic (ISSUE 9 / DESIGN.md §15).
//!
//! Two measurements, both over real TCP:
//!
//! * **Replica scaling curve** — a closed-loop (saturation) uniform
//!   scenario mix against {1, 2, 4} shard-local replicas, with each
//!   replica's dispatch pinned to one lane so the curve isolates
//!   *horizontal* scale-out from the engine's internal parallelism.
//!   Each replica count runs three times, the counts alternating, and
//!   the curve keeps each count's best run. Every run must serve every
//!   request (no 503s), and the body served for a reference scenario
//!   must be byte-identical across all runs *and* to a direct
//!   in-process engine run — scaling out must not change a single bit.
//! * **Latency SLO** — an open-loop (coordinated-omission-free)
//!   heavy-tailed Zipf mix at a fixed arrival rate, self-calibrated
//!   to half the measured 2-replica saturation throughput, reporting
//!   p50/p99/p999 from the `h2p-telemetry` latency histogram.
//!
//! Results merge into `BENCH_serve.json` (the serving layer's report
//! gains `replica_scaling` and `latency_slo` sections; override the
//! path with `--out <path>`). `--smoke` shrinks the load for CI. The
//! ≥linear-scaling assertion only arms in full mode on a machine with
//! at least 4 cores — on fewer cores the replicas time-share and the
//! curve degenerates by construction (it is still reported).

// Test/bench code opts back into panicking unwraps (see [workspace.lints]).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_precision_loss
)]

use h2p_gateway::loadgen::{fetch_once, run, LoadPlan};
use h2p_gateway::{direct_canonical_body, Gateway, GatewayConfig};
use h2p_serve::protocol::Command;
use h2p_serve::ServiceConfig;
use serde_json::{json, Value};
use std::net::TcpListener;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

/// The scaling curve's replica counts (the ISSUE 9 acceptance axis).
const REPLICA_COUNTS: [usize; 3] = [1, 2, 4];

/// Full-mode scaling bar: with ≥4 cores, 4 replicas must deliver at
/// least this multiple of single-replica saturation throughput.
const SCALING_BAR_4X: f64 = 1.5;

/// Saturation runs per replica count; the curve keeps each count's
/// best. One wall-clock run on a small shared host can be several
/// times slower than the next (the 1-replica smoke figure spanned
/// 1,674–11,431 req/s across ten runs), enough to trip the collapse
/// floor on noise alone.
const SATURATION_RUNS: usize = 3;

/// One saturation run's figures.
#[derive(Clone, Copy)]
struct Saturation {
    throughput: f64,
    busy_shards: usize,
    /// The run's (p50, p99, p999) latency, ns.
    latency: (u64, u64, u64),
}

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("nonzero")
}

/// Serves `gateway` on an ephemeral port for the duration of `f`.
fn with_served<T>(gateway: &Gateway, f: impl FnOnce(&str) -> T) -> T {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| gateway.serve(&listener, &shutdown));
        let out = f(&addr);
        shutdown.store(true, Ordering::Relaxed);
        server.join().expect("server thread").expect("serve exits");
        out
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| h2p_bench::bench_output_path("BENCH_serve.json"));

    let (scenarios, requests, connections, servers, steps) = if smoke {
        (8, 48, 4, 40, 4)
    } else {
        (24, 240, 8, 200, 24)
    };
    let config_for = |replicas: usize| GatewayConfig {
        replicas: nz(replicas),
        request_workers: nz(8),
        service: ServiceConfig {
            // One dispatch lane per replica: the curve measures
            // shard-count scaling, not the engine's internal pool.
            dispatch_workers: nz(1),
            ..ServiceConfig::default()
        },
        ..GatewayConfig::default()
    };
    let plan_for = |addr: &str| LoadPlan {
        addr: addr.to_owned(),
        requests,
        rate: f64::INFINITY, // closed-loop saturation
        connections: nz(connections),
        scenarios: nz(scenarios),
        zipf_s: 0.0, // uniform: every shard earns real work
        seed: h2p_bench::EXPERIMENT_SEED,
        servers,
        steps,
        tenant: None,
    };

    // --- Replica scaling curve -----------------------------------
    // Each replica count's best run.
    let mut best: [Option<Saturation>; REPLICA_COUNTS.len()] = [None; REPLICA_COUNTS.len()];
    let mut reference_bodies: Vec<(usize, Vec<u8>)> = Vec::new();
    // The counts alternate run by run, so host noise lands on all of
    // them alike; every run gets a fresh gateway and cold caches.
    for _ in 0..SATURATION_RUNS {
        for (slot, replicas) in REPLICA_COUNTS.into_iter().enumerate() {
            let gateway = Gateway::new(config_for(replicas));
            let (report, served) = with_served(&gateway, |addr| {
                let plan = plan_for(addr);
                let report = run(&plan);
                let (status, served) = fetch_once(addr, &plan.body_for(0)).expect("verify fetch");
                assert_eq!(status, 200, "verify fetch must serve");
                (report, served)
            });
            assert_eq!(
                report.ok,
                report.sent,
                "{replicas} replicas: every request must be served: {}",
                report.to_json()
            );
            assert_eq!(report.transport_errors, 0, "{replicas} replicas");
            let stats = gateway.stats();
            let busy_shards = stats
                .get("shards")
                .and_then(Value::as_array)
                .map(|shards| {
                    shards
                        .iter()
                        .filter(|s| s.get("submitted").and_then(Value::as_f64) != Some(0.0))
                        .count()
                })
                .unwrap_or(0);
            let latency = report.latency_slo_nanos();
            let throughput = report.throughput_rps();
            if best[slot].is_none_or(|seen| throughput > seen.throughput) {
                best[slot] = Some(Saturation {
                    throughput,
                    busy_shards,
                    latency,
                });
            }
            reference_bodies.push((replicas, served));
            println!(
                "  {replicas} replica(s): {throughput:.1} req/s at saturation \
                 ({busy_shards} busy shard(s), p99 <= {:.2} ms)",
                latency.1 as f64 / 1e6
            );
        }
    }
    let best = best.map(|run| run.expect("every replica count ran"));
    let throughputs = best.map(|run| run.throughput);
    let curve: Vec<Value> = REPLICA_COUNTS
        .iter()
        .zip(best)
        .map(|(replicas, run)| {
            let (p50, p99, p999) = run.latency;
            json!({
                "replicas": replicas,
                "throughput_rps": run.throughput,
                "speedup_vs_one": run.throughput / throughputs[0].max(f64::MIN_POSITIVE),
                "busy_shards": run.busy_shards,
                "p50_nanos": p50,
                "p99_nanos": p99,
                "p999_nanos": p999,
            })
        })
        .collect();

    // Bit-identity across the whole curve: scaling out never changes
    // a byte of any response.
    let probe_body = LoadPlan {
        servers,
        steps,
        ..LoadPlan::default()
    }
    .body_for(0);
    let request = match h2p_serve::protocol::parse_line(&probe_body) {
        Ok(Command::Run(request)) => *request,
        other => panic!("probe body must parse as a run request, got {other:?}"),
    };
    let direct = direct_canonical_body(&request).expect("direct engine run");
    for (replicas, served) in &reference_bodies {
        assert_eq!(
            std::str::from_utf8(served).expect("utf-8 body"),
            direct,
            "{replicas}-replica served body diverged from the direct run"
        );
    }

    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let scaling_asserted = !smoke && cores >= 4;
    let speedup_4x = throughputs[2] / throughputs[0].max(f64::MIN_POSITIVE);
    if scaling_asserted {
        assert!(
            speedup_4x >= SCALING_BAR_4X,
            "4 replicas reached only {speedup_4x:.2}x of single-replica throughput \
             (bar: {SCALING_BAR_4X}x on {cores} cores)"
        );
    }
    // On any machine, sharding must never collapse throughput.
    assert!(
        speedup_4x >= 0.5,
        "4-replica throughput collapsed to {speedup_4x:.2}x of single-replica"
    );

    // --- Latency SLO at a fixed arrival rate ---------------------
    // Half the measured 2-replica saturation: enough pressure to keep
    // queues warm, low enough that the open-loop schedule is feasible.
    let rate = (throughputs[1] / 2.0).max(1.0);
    let gateway = Gateway::new(config_for(2));
    let slo_report = with_served(&gateway, |addr| {
        let plan = LoadPlan {
            rate,
            zipf_s: 1.0, // the heavy-tailed web-like mix
            ..plan_for(addr)
        };
        run(&plan)
    });
    assert_eq!(
        slo_report.ok,
        slo_report.sent,
        "SLO run must serve everything: {}",
        slo_report.to_json()
    );
    let (p50, p99, p999) = slo_report.latency_slo_nanos();
    assert!(p50 > 0 && p50 <= p99 && p99 <= p999);
    println!(
        "  SLO at {rate:.1} req/s (zipf 1.0): p50 <= {:.2} ms, p99 <= {:.2} ms, p999 <= {:.2} ms",
        p50 as f64 / 1e6,
        p99 as f64 / 1e6,
        p999 as f64 / 1e6
    );

    // --- Merge into BENCH_serve.json -----------------------------
    let replica_scaling = json!({
        "replica_counts": REPLICA_COUNTS.to_vec(),
        "curve": Value::Array(curve),
        "speedup_4x": speedup_4x,
        "scaling_bar_4x": SCALING_BAR_4X,
        "scaling_asserted": scaling_asserted,
        "cores": cores,
        "bit_identical_across_replicas": true,
        "saturation_runs": SATURATION_RUNS,
        "requests": requests,
        "distinct_scenarios": scenarios,
        "connections": connections,
    });
    let latency_slo = json!({
        "rate_rps": rate,
        "zipf_s": 1.0,
        "sent": slo_report.sent,
        "ok": slo_report.ok,
        "p50_nanos": p50,
        "p99_nanos": p99,
        "p999_nanos": p999,
        "throughput_rps": slo_report.throughput_rps(),
    });
    let mut entries = std::fs::read_to_string(&out)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok())
        .and_then(|v| match v {
            Value::Object(entries) => Some(entries),
            _ => None,
        })
        .unwrap_or_else(|| vec![("bench".to_owned(), Value::String("serve".to_owned()))]);
    entries.retain(|(k, _)| k != "replica_scaling" && k != "latency_slo" && k != "gateway_smoke");
    entries.push(("gateway_smoke".to_owned(), Value::Bool(smoke)));
    entries.push(("replica_scaling".to_owned(), replica_scaling));
    entries.push(("latency_slo".to_owned(), latency_slo));
    std::fs::write(&out, format!("{}\n", Value::Object(entries))).unwrap();
    let shown = out.canonicalize().unwrap_or(out);
    println!("  merged gateway sections into {}", shown.display());
}
