//! The serving invariant, pinned: a scenario served through
//! `h2p-serve` returns **bit-identical** results to a direct engine
//! call with the same inputs — across every trace kind, worker count,
//! and cache temperature — duplicate in-flight requests coalesce onto
//! one engine run, and backpressure is typed, counted, and journaled.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]

use h2p_core::simulation::{SimulationConfig, SimulationResult, Simulator};
use h2p_sched::LoadBalance;
use h2p_serve::{
    Admission, PolicyKind, Provenance, RejectReason, ScenarioRequest, ScenarioService,
    ServiceConfig, TraceSpec, SERVE_REJECTED_EVENT,
};
use h2p_server::ServerModel;
use h2p_telemetry::Registry;
use h2p_workload::TraceKind;
use std::num::NonZeroUsize;

const CIRC: usize = 40;

fn request(kind: TraceKind, workers: usize) -> ScenarioRequest {
    let mut req = ScenarioRequest::new(
        TraceSpec {
            kind,
            seed: 7,
            servers: 80,
            steps: 12,
        },
        PolicyKind::LoadBalance,
    );
    req.workers = NonZeroUsize::new(workers).unwrap();
    req.servers_per_circulation = CIRC;
    req
}

/// The serving contract's reference implementation: the paper
/// simulator with the request's circulation size and worker budget,
/// run directly.
fn direct_engine(workers: usize) -> Simulator {
    let mut config = SimulationConfig::paper_default();
    config.servers_per_circulation = CIRC;
    Simulator::new(&ServerModel::paper_default(), config)
        .unwrap()
        .with_workers(NonZeroUsize::new(workers).unwrap())
}

fn assert_bit_identical(served: &SimulationResult, direct: &SimulationResult, label: &str) {
    assert_eq!(served.policy(), direct.policy(), "{label}: policy");
    assert_eq!(served.digest(), direct.digest(), "{label}");
}

#[test]
fn served_results_are_bit_identical_to_direct_runs() {
    // All trace kinds × {1, 2, 5} workers × {cold cache, warm cache}.
    let service = ScenarioService::with_defaults();
    for kind in TraceKind::all() {
        for workers in [1usize, 2, 5] {
            let req = request(kind, workers);
            let direct = direct_engine(workers)
                .run(&req.trace.generate(), &LoadBalance)
                .unwrap();

            // Cold: first sight of this scenario computes it.
            assert!(matches!(
                service.submit(req.clone()),
                Admission::Enqueued { .. }
            ));
            let cold = service.drain();
            assert_eq!(cold.len(), 1);
            let served = cold[0].served.as_ref().unwrap();
            assert_eq!(served.provenance, Provenance::Computed);
            assert_bit_identical(
                &served.output.result,
                &direct,
                &format!("{kind}/{workers}w/cold"),
            );

            // Warm: the second sight replays from the result cache.
            assert!(matches!(
                service.submit(req.clone()),
                Admission::Enqueued { .. }
            ));
            let warm = service.drain();
            assert_eq!(warm.len(), 1);
            let cached = warm[0].served.as_ref().unwrap();
            assert_eq!(cached.provenance, Provenance::Cached);
            assert_bit_identical(
                &cached.output.result,
                &direct,
                &format!("{kind}/{workers}w/warm"),
            );
        }
    }
    let stats = service.stats();
    // 9 distinct scenarios: each computed once, replayed once.
    assert_eq!(stats.runs_executed, 9);
    assert_eq!(stats.cache.hits, 9);
}

#[test]
fn faulted_scenarios_are_bit_identical_and_carry_the_ledger() {
    let mut req = request(TraceKind::Irregular, 2);
    req.fault_seed = Some(11);

    let cluster = req.trace.generate();
    let plan = req.fault_plan(&cluster).unwrap().unwrap();
    let direct = direct_engine(2)
        .run_with_faults(&cluster, &LoadBalance, &plan)
        .unwrap();

    let service = ScenarioService::with_defaults();
    assert!(matches!(service.submit(req), Admission::Enqueued { .. }));
    let responses = service.drain();
    assert_eq!(responses.len(), 1);
    let served = responses[0].served.as_ref().unwrap();
    assert_bit_identical(&served.output.result, &direct.result, "faulted");
    let ledger = served.output.ledger.as_ref().expect("fault ledger");
    assert_eq!(
        ledger.faulted_circulation_steps(),
        direct.ledger.faulted_circulation_steps(),
        "ledger must ride along unchanged"
    );
    assert_eq!(
        ledger.faulted_harvest().value(),
        direct.ledger.faulted_harvest().value(),
        "harvest accounting must ride along unchanged"
    );
}

#[test]
fn duplicate_in_flight_requests_coalesce_onto_one_engine_run() {
    let registry = Registry::new();
    let service = ScenarioService::with_defaults().with_telemetry(&registry);
    let req = request(TraceKind::Common, 2);

    // Four concurrent submitters, same scenario.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let dup = req.clone();
            let service = &service;
            scope.spawn(move || {
                assert!(matches!(service.submit(dup), Admission::Enqueued { .. }));
            });
        }
    });

    let responses = service.drain();
    assert_eq!(responses.len(), 4);
    let engine_runs = registry
        .counters()
        .into_iter()
        .find(|(name, _)| name == "engine.runs")
        .map(|(_, v)| v)
        .unwrap_or(0);
    assert_eq!(engine_runs, 1, "four duplicates must cost one engine run");

    let stats = service.stats();
    assert_eq!(stats.runs_executed, 1);
    assert_eq!(stats.coalesced, 3);
    let computed = responses
        .iter()
        .filter(|r| r.served.as_ref().unwrap().provenance == Provenance::Computed)
        .count();
    assert_eq!(computed, 1, "exactly one ticket carries the run");
    // All four see the same bits (the same shared outcome).
    let reference = &responses[0].served.as_ref().unwrap().output.result;
    for r in &responses[1..] {
        assert_bit_identical(
            &r.served.as_ref().unwrap().output.result,
            reference,
            "coalesced",
        );
    }
}

#[test]
fn full_queue_rejects_with_typed_reason_counter_and_journal_event() {
    let registry = Registry::new();
    let config = ServiceConfig {
        queue_capacity: 2,
        ..ServiceConfig::default()
    };
    let service = ScenarioService::new(config).with_telemetry(&registry);

    let mut admitted = 0;
    let mut rejected = 0;
    for seed in 0..5u64 {
        let mut req = request(TraceKind::Common, 1);
        req.trace.seed = seed;
        req.trace.steps = 2;
        match service.submit(req) {
            Admission::Enqueued { .. } => admitted += 1,
            Admission::Rejected {
                reason: RejectReason::QueueFull { capacity },
            } => {
                assert_eq!(capacity, 2);
                rejected += 1;
            }
            Admission::Rejected { reason } => panic!("unexpected reason: {reason}"),
        }
    }
    assert_eq!((admitted, rejected), (2, 3), "bounded means bounded");
    assert_eq!(service.stats().queue_depth, 2, "queue never grew past cap");
    assert_eq!(service.stats().rejected_full, 3);

    // Rejections are visible in the named counters and the journal.
    let counters: std::collections::BTreeMap<String, u64> =
        registry.counters().into_iter().collect();
    assert_eq!(counters["serve.rejected_full"], 3);
    let events = registry.journal_events();
    let rejections: Vec<_> = events
        .iter()
        .filter(|e| e.name == SERVE_REJECTED_EVENT)
        .collect();
    assert_eq!(rejections.len(), 3);
    assert_eq!(
        rejections[0].field("reason").and_then(|v| v.as_str()),
        Some("queue_full")
    );

    // Draining frees capacity; service recovers.
    let responses = service.drain();
    assert_eq!(responses.len(), 2);
    assert!(matches!(
        service.submit(request(TraceKind::Common, 1)),
        Admission::Enqueued { .. }
    ));
}

#[test]
fn invalid_requests_reject_with_detail_instead_of_panicking() {
    let service = ScenarioService::with_defaults();
    let mut zero_servers = request(TraceKind::Common, 1);
    zero_servers.trace.servers = 0;
    let mut nan_budget = request(TraceKind::Common, 1);
    nan_budget.policy = PolicyKind::BoundedMigration { max_step: f64::NAN };
    let mut over_budget = request(TraceKind::Common, 1);
    over_budget.workers = NonZeroUsize::new(10_000).unwrap();
    for (req, needle) in [
        (zero_servers, "trace.servers"),
        (nan_budget, "max_step"),
        (over_budget, "workers"),
    ] {
        match service.submit(req) {
            Admission::Rejected {
                reason: RejectReason::InvalidRequest { reason },
            } => assert!(reason.contains(needle), "{reason}"),
            other => panic!("expected invalid-request rejection, got {other:?}"),
        }
    }
    assert_eq!(service.stats().rejected_invalid, 3);
    assert_eq!(service.stats().queue_depth, 0);
}

#[test]
fn mixed_batches_share_engines_by_shape_without_cross_talk() {
    // Two scenarios per engine shape, two shapes — plus a duplicate.
    // Everything lands in one drain; every response must match its own
    // direct run.
    let registry = Registry::new();
    let service = ScenarioService::with_defaults().with_telemetry(&registry);
    let a1 = request(TraceKind::Common, 1);
    let mut a2 = request(TraceKind::Drastic, 1);
    a2.trace.seed = 9;
    let b1 = request(TraceKind::Irregular, 2);
    for req in [a1.clone(), a2.clone(), b1.clone(), a1.clone()] {
        assert!(matches!(service.submit(req), Admission::Enqueued { .. }));
    }
    let responses = service.drain();
    assert_eq!(responses.len(), 4);
    for (req, workers) in [(&a1, 1), (&a2, 1), (&b1, 2)] {
        let direct = direct_engine(workers)
            .run(&req.trace.generate(), &LoadBalance)
            .unwrap();
        let served = responses
            .iter()
            .find(|r| {
                r.key == req.key() && {
                    r.served.as_ref().unwrap().provenance != Provenance::Coalesced
                }
            })
            .unwrap();
        assert_bit_identical(
            &served.served.as_ref().unwrap().output.result,
            &direct,
            req.key().as_str(),
        );
    }
    let stats = service.stats();
    assert_eq!(stats.runs_executed, 3, "three distinct scenarios");
    assert_eq!(stats.coalesced, 1);
    assert_eq!(stats.engine_builds, 1, "one engine for every shape");
}

#[test]
fn responses_come_back_in_ticket_order_with_priority_execution() {
    let service = ScenarioService::with_defaults();
    let mut low = request(TraceKind::Common, 1);
    low.trace.steps = 2;
    let mut high = request(TraceKind::Drastic, 1);
    high.trace.steps = 2;
    let Admission::Enqueued { ticket: t0, .. } = service.submit(low) else {
        panic!("admit low");
    };
    let Admission::Enqueued { ticket: t1, .. } = service.submit(high) else {
        panic!("admit high");
    };
    let responses = service.drain();
    assert_eq!(responses.len(), 2);
    // Responses are ticket-sorted regardless of execution order.
    assert_eq!(responses[0].ticket, t0);
    assert_eq!(responses[1].ticket, t1);
}

#[test]
fn tenant_quota_rejections_are_distinct_from_queue_full() {
    let registry = Registry::new();
    let config = ServiceConfig {
        queue_capacity: 8,
        tenant_quota: Some(2),
        ..ServiceConfig::default()
    };
    let service = ScenarioService::new(config).with_telemetry(&registry);
    let cheap = |seed: u64, tenant: Option<&str>| {
        let mut req = request(TraceKind::Common, 1);
        req.trace.seed = seed;
        req.trace.steps = 2;
        req.tenant = tenant.map(str::to_owned);
        req
    };

    // One tenant's quota bounds only that tenant.
    for seed in 0..2 {
        assert!(matches!(
            service.submit(cheap(seed, Some("acme"))),
            Admission::Enqueued { .. }
        ));
    }
    for seed in 2..4 {
        match service.submit(cheap(seed, Some("acme"))) {
            Admission::Rejected {
                reason: RejectReason::QuotaExceeded { tenant, limit },
            } => {
                assert_eq!(tenant, "acme");
                assert_eq!(limit, 2);
            }
            other => panic!("expected quota rejection, got {other:?}"),
        }
    }
    // A different tenant and unattributed requests are unaffected.
    for seed in 4..6 {
        assert!(matches!(
            service.submit(cheap(seed, Some("zen"))),
            Admission::Enqueued { .. }
        ));
    }
    for seed in 6..10 {
        assert!(matches!(
            service.submit(cheap(seed, None)),
            Admission::Enqueued { .. }
        ));
    }
    // The queue is now at capacity (2 + 2 + 4 = 8): an attributed
    // request over quota still reports the quota, while an
    // unattributed one reports the full queue — two typed paths.
    assert!(matches!(
        service.submit(cheap(10, Some("acme"))),
        Admission::Rejected {
            reason: RejectReason::QuotaExceeded { .. }
        }
    ));
    assert!(matches!(
        service.submit(cheap(11, None)),
        Admission::Rejected {
            reason: RejectReason::QueueFull { capacity: 8 }
        }
    ));

    let stats = service.stats();
    assert_eq!(stats.quota_rejected, 3);
    assert_eq!(stats.rejected_full, 1);
    let counters: std::collections::BTreeMap<String, u64> =
        registry.counters().into_iter().collect();
    assert_eq!(counters["serve.quota_rejected"], 3);
    assert_eq!(counters["serve.rejected_full"], 1);
    let events = registry.journal_events();
    let quota_events: Vec<_> = events
        .iter()
        .filter(|e| e.name == SERVE_REJECTED_EVENT)
        .filter(|e| e.field("reason").and_then(|v| v.as_str()) == Some("quota_exceeded"))
        .collect();
    assert_eq!(quota_events.len(), 3);
    assert_eq!(
        quota_events[0].field("tenant").and_then(|v| v.as_str()),
        Some("acme")
    );
    assert_eq!(
        quota_events[0].field("limit").and_then(|v| v.as_f64()),
        Some(2.0)
    );

    // Draining releases quota slots; the tenant can submit again.
    let responses = service.drain();
    assert_eq!(responses.len(), 8);
    assert!(matches!(
        service.submit(cheap(12, Some("acme"))),
        Admission::Enqueued { .. }
    ));
}

#[test]
fn zero_quota_rejects_every_attributed_request_but_not_unattributed() {
    let service = ScenarioService::new(ServiceConfig {
        tenant_quota: Some(0),
        ..ServiceConfig::default()
    });
    let mut attributed = request(TraceKind::Common, 1);
    attributed.trace.steps = 2;
    attributed.tenant = Some("acme".to_owned());
    assert!(matches!(
        service.submit(attributed),
        Admission::Rejected {
            reason: RejectReason::QuotaExceeded { limit: 0, .. }
        }
    ));
    let mut unattributed = request(TraceKind::Common, 1);
    unattributed.trace.steps = 2;
    assert!(matches!(
        service.submit(unattributed),
        Admission::Enqueued { .. }
    ));
}

#[test]
fn served_placement_scenarios_are_bit_identical_to_direct_materialization() {
    // A placement request is served exactly like any other scenario:
    // the service materializes the placement-synthesized trace through
    // `ScenarioRequest::materialize` and runs it on the shared engine,
    // so a direct call through the same seam must match to the bit.
    let service = ScenarioService::with_defaults();
    for placement in h2p_jobs::PlacementPolicyKind::ALL {
        let mut req = request(TraceKind::Common, 1);
        req.trace.servers = 20;
        req.placement = Some(placement);

        let engine = direct_engine(1);
        let cluster = req.materialize(&engine).unwrap();
        let direct = engine.run(&cluster, &LoadBalance).unwrap();

        assert!(matches!(
            service.submit(req.clone()),
            Admission::Enqueued { .. }
        ));
        let responses = service.drain();
        assert_eq!(responses.len(), 1);
        let served = responses[0].served.as_ref().unwrap();
        assert_bit_identical(
            &served.output.result,
            &direct,
            &format!("placement/{placement}"),
        );

        // Placement is result-determining: the same request without it
        // must not share a key (and so must not coalesce).
        let mut plain = req.clone();
        plain.placement = None;
        assert_ne!(req.key(), plain.key());
    }
}

#[test]
fn one_engine_serves_every_shape_bit_identically() {
    // Six (circulation, workers) shapes over two drains, the first with
    // a duplicate: the service builds one engine and runs every other
    // shape on a clone of it, and each response still matches a fresh
    // simulator built for its shape.
    let shaped = |kind: TraceKind, circulation: usize, workers: usize| {
        let mut req = request(kind, workers);
        req.trace.servers = 20;
        req.trace.steps = 4;
        req.servers_per_circulation = circulation;
        req
    };
    let duplicate = shaped(TraceKind::Drastic, 7, 2);
    let drains = [
        vec![
            shaped(TraceKind::Common, 1, 1),
            duplicate.clone(),
            shaped(TraceKind::Irregular, 40, 1),
            duplicate,
        ],
        vec![
            shaped(TraceKind::Common, 40, 2),
            shaped(TraceKind::Drastic, 1, 2),
            shaped(TraceKind::Irregular, 7, 1),
        ],
    ];
    let service = ScenarioService::with_defaults();
    for requests in drains {
        for req in &requests {
            assert!(matches!(
                service.submit(req.clone()),
                Admission::Enqueued { .. }
            ));
        }
        // Responses come back in ticket order, here submission order.
        let responses = service.drain();
        assert_eq!(responses.len(), requests.len());
        for (i, (req, response)) in requests.iter().zip(&responses).enumerate() {
            let mut config = SimulationConfig::paper_default();
            config.servers_per_circulation = req.servers_per_circulation;
            let direct = Simulator::new(&ServerModel::paper_default(), config)
                .unwrap()
                .with_workers(req.workers)
                .run(&req.trace.generate(), &LoadBalance)
                .unwrap();
            let served = response.served.as_ref().unwrap();
            assert_bit_identical(&served.output.result, &direct, req.key().as_str());
            // The lower ticket of the duplicate pair carries the run.
            let first_sight = requests[..i]
                .iter()
                .all(|earlier| earlier.key() != req.key());
            let expected = if first_sight {
                Provenance::Computed
            } else {
                Provenance::Coalesced
            };
            assert_eq!(served.provenance, expected, "{}", req.key().as_str());
        }
    }
    let stats = service.stats();
    assert_eq!((stats.runs_executed, stats.coalesced), (6, 1));
    assert_eq!(stats.engine_builds, 1, "one engine for six shapes");
}
