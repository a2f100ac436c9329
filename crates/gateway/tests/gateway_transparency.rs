//! The gateway's end-to-end contract: a scenario served over HTTP —
//! at any replica count, any cache temperature, any connection —
//! returns a body byte-identical to a direct engine run, and error
//! paths map onto their HTTP statuses (400/404/405/413/429/431/503).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use h2p_gateway::loadgen::{fetch_once, run, LoadPlan};
use h2p_gateway::{direct_canonical_body, Gateway, GatewayConfig, HttpLimits, Request, Response};
use h2p_serve::protocol::Command;
use h2p_serve::{ScenarioRequest, ServiceConfig};
use std::net::TcpListener;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("nonzero")
}

/// Sets `shutdown` when dropped, so a failed assertion inside a
/// `thread::scope` stops `Gateway::serve` and the test fails instead
/// of hanging on the scope's join.
struct ShutdownOnDrop<'a>(&'a AtomicBool);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn post_run(body: &str) -> Request {
    Request {
        method: "POST".to_owned(),
        target: "/run".to_owned(),
        http11: true,
        headers: vec![("content-type".to_owned(), "application/json".to_owned())],
        body: body.as_bytes().to_vec(),
    }
}

fn get(target: &str) -> Request {
    Request {
        method: "GET".to_owned(),
        target: target.to_owned(),
        http11: true,
        headers: Vec::new(),
        body: Vec::new(),
    }
}

fn run_body(seed: u64) -> String {
    format!(
        r#"{{"cmd":"run","trace":"common","seed":{seed},"servers":20,"steps":2,"circulation":20,"workers":1}}"#
    )
}

fn parsed(body: &str) -> ScenarioRequest {
    match h2p_serve::protocol::parse_line(body).expect("valid body") {
        Command::Run(request) => *request,
        other => panic!("expected run, got {other:?}"),
    }
}

fn header<'r>(response: &'r Response, name: &str) -> Option<&'r str> {
    response
        .headers
        .iter()
        .find_map(|(k, v)| (k == name).then_some(v.as_str()))
}

fn gateway(replicas: usize) -> Gateway {
    Gateway::new(GatewayConfig {
        replicas: nz(replicas),
        ..GatewayConfig::default()
    })
}

#[test]
fn served_bodies_are_byte_identical_to_direct_runs_across_replica_counts() {
    // {1, 2, 4} replicas × 6 scenarios × {cold, warm}: every body
    // equals the direct run's canonical rendering, byte for byte.
    let directs: Vec<(String, String)> = (0..6u64)
        .map(|seed| {
            let body = run_body(seed);
            let direct = direct_canonical_body(&parsed(&body)).expect("direct run");
            (body, direct)
        })
        .collect();
    for replicas in [1usize, 2, 4] {
        let gw = gateway(replicas);
        for (body, direct) in &directs {
            // Cold: first sight computes.
            let cold = gw.handle(&post_run(body));
            assert_eq!(cold.status, 200, "replicas={replicas}");
            assert_eq!(
                std::str::from_utf8(&cold.body).unwrap(),
                direct,
                "replicas={replicas} cold body diverged"
            );
            assert_eq!(header(&cold, "x-h2p-provenance"), Some("computed"));

            // Warm: replay from the shard-local cache, same bytes.
            let warm = gw.handle(&post_run(body));
            assert_eq!(warm.status, 200);
            assert_eq!(
                warm.body, cold.body,
                "replicas={replicas} warm body diverged from cold"
            );
            assert_eq!(header(&warm, "x-h2p-provenance"), Some("cached"));
        }
        // Sharding actually spread the keys at higher replica counts.
        if replicas > 1 {
            let stats = gw.stats();
            let shards = stats.get("shards").and_then(|v| v.as_array()).unwrap();
            assert_eq!(shards.len(), replicas);
        }
    }
}

#[test]
fn faulted_scenarios_round_trip_byte_identically_too() {
    let body = r#"{"cmd":"run","trace":"drastic","seed":9,"servers":20,"steps":3,"circulation":10,"faults":11}"#;
    let direct = direct_canonical_body(&parsed(body)).expect("direct faulted run");
    assert!(direct.contains("\"faulted\":true"));
    let gw = gateway(2);
    let served = gw.handle(&post_run(body));
    assert_eq!(served.status, 200);
    assert_eq!(std::str::from_utf8(&served.body).unwrap(), direct);
}

#[test]
fn placement_scenarios_round_trip_byte_identically_too() {
    // A placement request flows through the same parse → serve →
    // render pipeline; the body must equal the direct materialization.
    let body = r#"{"cmd":"run","trace":"common","seed":5,"servers":20,"steps":3,"circulation":10,"placement":"harvest_aware"}"#;
    let direct = direct_canonical_body(&parsed(body)).expect("direct placement run");
    let gw = gateway(2);
    let served = gw.handle(&post_run(body));
    assert_eq!(served.status, 200);
    assert_eq!(std::str::from_utf8(&served.body).unwrap(), direct);
}

#[test]
fn same_scenario_routes_to_the_same_replica_and_stays_shard_local() {
    let gw = gateway(4);
    let key = parsed(&run_body(7)).key();
    let shard = gw.route(&key);
    for _ in 0..3 {
        assert_eq!(gw.route(&key), shard, "routing must be stable");
    }
    // Serve it twice; exactly one replica should have any traffic.
    let body = run_body(7);
    assert_eq!(gw.handle(&post_run(&body)).status, 200);
    assert_eq!(gw.handle(&post_run(&body)).status, 200);
    let stats = gw.stats();
    let shards = stats.get("shards").and_then(|v| v.as_array()).unwrap();
    let busy: Vec<usize> = shards
        .iter()
        .enumerate()
        .filter(|(_, s)| s.get("submitted").and_then(|v| v.as_f64()) != Some(0.0))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(busy, vec![shard], "traffic must stay on the routed shard");
}

#[test]
fn error_paths_map_to_http_statuses() {
    let gw = Gateway::new(GatewayConfig {
        replicas: nz(2),
        service: ServiceConfig {
            tenant_quota: Some(0),
            ..ServiceConfig::default()
        },
        ..GatewayConfig::default()
    });
    // 404 / 405.
    assert_eq!(gw.handle(&get("/nope")).status, 404);
    assert_eq!(gw.handle(&get("/run")).status, 405);
    assert_eq!(gw.handle(&post_run("{}")).status, 400, "missing trace");
    assert_eq!(
        gw.handle(&post_run("not json at all")).status,
        400,
        "garbage body"
    );
    assert_eq!(
        gw.handle(&post_run(r#"{"cmd":"drain"}"#)).status,
        400,
        "non-run command"
    );
    // Invalid request fields reject with 400 through admission.
    assert_eq!(
        gw.handle(&post_run(r#"{"cmd":"run","trace":"common","servers":0}"#))
            .status,
        400
    );
    // Per-tenant quota of zero → 429 for attributed requests.
    let quota = gw.handle(&post_run(
        r#"{"cmd":"run","trace":"common","seed":1,"servers":20,"steps":2,"tenant":"acme"}"#,
    ));
    assert_eq!(quota.status, 429);
    // Health and stats are live throughout.
    assert_eq!(gw.handle(&get("/healthz")).status, 200);
    assert_eq!(gw.handle(&get("/stats")).status, 200);
}

#[test]
fn tiny_queues_still_serve_because_handlers_drain_synchronously() {
    // The HTTP handler submits then immediately drains, so even a
    // clamped-to-one queue serves sequential load without 503s; the
    // QueueFull→503+retry-after mapping itself is pinned by a unit
    // test next to `rejection_response` (it needs a queue observed
    // full mid-admission, which the synchronous path can't produce
    // deterministically).
    let gw = Gateway::new(GatewayConfig {
        replicas: nz(1),
        service: ServiceConfig {
            queue_capacity: 0,
            ..ServiceConfig::default()
        },
        ..GatewayConfig::default()
    });
    for seed in 0..3 {
        assert_eq!(gw.handle(&post_run(&run_body(seed))).status, 200);
    }
}

#[test]
fn concurrent_connections_coalesce_onto_one_engine_run() {
    // Many threads, one hot scenario: the drain rendezvous must hand
    // every waiter its own 200 with identical bytes, while the
    // engines execute the scenario exactly once (coalescing and the
    // result cache make re-execution impossible).
    let gw = gateway(2);
    let body = run_body(3);
    let bodies: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let gw = &gw;
                let body = body.clone();
                scope.spawn(move || {
                    let response = gw.handle(&post_run(&body));
                    assert_eq!(response.status, 200);
                    response.body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for window in bodies.windows(2) {
        assert_eq!(window[0], window[1], "all responses must agree");
    }
    let stats = gw.stats();
    let shards = stats.get("shards").and_then(|v| v.as_array()).unwrap();
    let runs: f64 = shards
        .iter()
        .filter_map(|s| s.get("runs_executed").and_then(|v| v.as_f64()))
        .sum();
    #[allow(clippy::float_cmp)]
    {
        assert_eq!(runs, 1.0, "one hot scenario = one engine run");
    }
}

#[test]
fn tcp_end_to_end_serves_load_and_matches_direct_bytes() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let gw = Gateway::new(GatewayConfig {
        replicas: nz(2),
        request_workers: nz(4),
        limits: HttpLimits::default(),
        ..GatewayConfig::default()
    });
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| gw.serve(&listener, &shutdown));
        let stop = ShutdownOnDrop(&shutdown);

        // Closed-loop load across several keep-alive connections.
        let plan = LoadPlan {
            addr: addr.clone(),
            requests: 40,
            connections: nz(4),
            scenarios: nz(6),
            zipf_s: 1.0,
            seed: 11,
            servers: 20,
            steps: 2,
            ..LoadPlan::default()
        };
        let report = run(&plan);
        assert_eq!(
            report.ok,
            40,
            "all load must be served: {:?}",
            report.to_json()
        );
        assert_eq!(report.transport_errors, 0);
        let (p50, p99, p999) = report.latency_slo_nanos();
        assert!(p50 > 0 && p50 <= p99 && p99 <= p999);

        // Bit-identity over real TCP: served bytes == direct bytes.
        let body = plan.body_for(0);
        let (status, served) = fetch_once(&addr, &body).expect("fetch");
        assert_eq!(status, 200);
        let direct = direct_canonical_body(&parsed(&body)).expect("direct");
        assert_eq!(
            std::str::from_utf8(&served).unwrap(),
            direct,
            "TCP-served body diverged from direct run"
        );

        drop(stop);
        server.join().unwrap().expect("serve exits cleanly");
    });
}

#[test]
fn oversized_and_malformed_wire_requests_get_mapped_statuses() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let gw = Gateway::new(GatewayConfig {
        replicas: nz(1),
        limits: HttpLimits {
            max_head_bytes: 512,
            max_body_bytes: 4096,
        },
        ..GatewayConfig::default()
    });
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| gw.serve(&listener, &shutdown));
        let stop = ShutdownOnDrop(&shutdown);

        use std::io::{Read, Write};
        let expect_status = |raw: &str| -> u16 {
            let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
            stream.write_all(raw.as_bytes()).expect("write");
            let mut response = String::new();
            let _ = stream.read_to_string(&mut response);
            response
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .expect("status line")
        };
        assert_eq!(
            expect_status("POST /run HTTP/1.1\r\nContent-Length: 999999\r\n\r\n"),
            413
        );
        assert_eq!(
            expect_status(&format!(
                "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
                "a".repeat(1024)
            )),
            431
        );
        assert_eq!(expect_status("TOTAL GARBAGE\r\n\r\n"), 400);

        drop(stop);
        server.join().unwrap().expect("serve exits cleanly");
    });
}
