//! A served plain run's memory promise (DESIGN.md §11.1): the service
//! streams a plain request from its generator's start states (32 B a
//! server) through the engine's ordered fold, so a run admitted under
//! the default configuration holds neither its trace nor a per-step
//! partial of every circulation. Holding both, this 4,096 × 256 run at
//! circulation 1 would take 8 MiB of trace and 80 MiB of partials.
//!
//! This file holds one test on purpose: `VmHWM` is the whole process's
//! high-water mark, so a second test running beside it would blur the
//! measurement.

#![allow(clippy::unwrap_used, clippy::cast_precision_loss)]

use h2p_serve::{Admission, PolicyKind, ScenarioRequest, ScenarioService, TraceSpec};
use h2p_workload::TraceKind;

/// What the run may grow the process peak by.
const GROWTH_BOUND_BYTES: u64 = 16 << 20;

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

/// A plain Common request at circulation 1, the protocol's other
/// defaults.
fn request(servers: usize, steps: usize) -> ScenarioRequest {
    let mut req = ScenarioRequest::new(
        TraceSpec {
            kind: TraceKind::Common,
            seed: 7,
            servers,
            steps,
        },
        PolicyKind::LoadBalance,
    );
    req.servers_per_circulation = 1;
    req
}

/// Submits `req` and serves it, returning the result's step count.
fn serve(service: &ScenarioService, req: ScenarioRequest) -> usize {
    assert!(matches!(service.submit(req), Admission::Enqueued { .. }));
    let responses = service.drain();
    assert_eq!(responses.len(), 1);
    let served = responses[0].served.as_ref().unwrap();
    served.output.result.steps().len()
}

#[test]
fn a_default_admitted_plain_run_holds_no_trace_and_no_partials() {
    let service = ScenarioService::with_defaults();
    // Build the service's engine before measuring.
    assert_eq!(serve(&service, request(1, 1)), 1);

    let before = peak_rss_bytes();
    assert_eq!(serve(&service, request(4096, 256)), 256);
    let after = peak_rss_bytes();

    let (Some(before), Some(after)) = (before, after) else {
        eprintln!("note: /proc/self/status reports no VmHWM here; RSS checks skipped");
        return;
    };
    assert!(
        after - before < GROWTH_BOUND_BYTES,
        "peak RSS grew {:.2} MiB across the run, {:.0} MiB or more",
        mib(after - before),
        mib(GROWTH_BOUND_BYTES)
    );
}
