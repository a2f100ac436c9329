//! The gateway proper: N shard-local [`ScenarioService`] replicas
//! behind one HTTP front door (DESIGN.md §15).
//!
//! # Sharding
//!
//! Every run request is routed by its canonical [`ScenarioKey`]: the
//! key's fingerprint, mixed, modulo the replica count
//! ([`Gateway::route`]). The route depends on nothing but the key and
//! that count, so a given scenario always lands on the same replica.
//! That keeps the two serving accelerators — the LRU result cache and
//! in-flight coalescing — **shard-local**: duplicates of a hot
//! scenario meet in one replica's queue instead of spraying across all
//! of them, and no cross-replica cache coherence exists to get wrong.
//! The replica set is fixed for the gateway's life and every cache
//! lives in memory, so nothing is gained by keeping keys in place
//! when the count changes: a gateway with another count starts cold.
//!
//! # Rendezvous drains
//!
//! [`ScenarioService::drain`] answers *everything* queued, so one
//! drain typically completes many connections' tickets. Each replica
//! keeps one lock over its unclaimed answers and holds it across the
//! drain: a waiter takes its answer if an earlier drain filed it, and
//! otherwise drains itself and files every other ticket's answer for
//! its waiter, which is blocked on the same lock meanwhile.
//! Concurrent requests for the same scenario thus coalesce onto one
//! engine run even when they arrive on different connections (pinned
//! by `tests/gateway_transparency.rs`).
//!
//! A drain that panics only poisons the lock: the next waiter
//! recovers it and drains afresh, and a ticket the failed drain had
//! popped is answered 500. The request worker catches the panic, so
//! that request is answered 500 too and the worker keeps serving.
//!
//! # Transparency
//!
//! The canonical response body ([`canonical_body`]) depends only on
//! the scenario outcome — never on cache temperature, coalescing,
//! replica count, or ticket numbers — and embeds a digest over every
//! step's raw f64 bits. Byte-equal bodies therefore mean bit-identical
//! simulations; how the bits were obtained travels in the
//! `x-h2p-provenance` response *header*, keeping the body stable.

use crate::http::{HttpError, HttpLimits, Request, RequestParser, Response};
use h2p_core::simulation::{SimulationConfig, Simulator};
use h2p_serve::protocol::{parse_line, stats_json, Command};
use h2p_serve::{
    Admission, RejectReason, RunOutput, ScenarioKey, ScenarioRequest, ScenarioService, ServeError,
    ServiceConfig, TicketId, TicketResponse,
};
use h2p_server::ServerModel;
use h2p_telemetry::Registry;
use serde_json::{json, Value};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Gateway tuning knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Number of shard-local service replicas.
    pub replicas: NonZeroUsize,
    /// Per-replica service tuning (each replica gets its own queue,
    /// cache and engine, sized by this).
    pub service: ServiceConfig,
    /// HTTP parser limits.
    pub limits: HttpLimits,
    /// Worker threads answering requests in [`Gateway::serve`].
    pub request_workers: NonZeroUsize,
    /// Bound on accepted-but-unserviced connections; beyond it new
    /// connections are answered 503 and closed immediately.
    pub conn_backlog: usize,
    /// Idle keep-alive connections are closed after this long.
    pub idle_timeout_millis: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            replicas: NonZeroUsize::MIN,
            service: ServiceConfig::default(),
            limits: HttpLimits::default(),
            request_workers: NonZeroUsize::new(8).unwrap_or(NonZeroUsize::MIN),
            conn_backlog: 256,
            idle_timeout_millis: 10_000,
        }
    }
}

/// One shard: a service plus its unclaimed answers and telemetry.
#[derive(Debug)]
struct Replica {
    service: ScenarioService,
    registry: Registry,
    /// Answers filed by past drains for tickets whose waiters have not
    /// claimed them yet; held across every drain (see module docs).
    answers: Mutex<BTreeMap<u64, TicketResponse>>,
}

impl Replica {
    fn new(config: &ServiceConfig) -> Self {
        let registry = Registry::new();
        Replica {
            service: ScenarioService::new(config.clone()).with_telemetry(&registry),
            registry,
            answers: Mutex::new(BTreeMap::new()),
        }
    }

    /// Blocks until `ticket` is answered, draining the service if no
    /// earlier drain answered it.
    fn await_ticket(&self, ticket: TicketId) -> Option<TicketResponse> {
        self.answer(ticket, || self.service.drain())
    }

    /// Claims `ticket`'s answer, running `drain` under the answers lock
    /// when no earlier drain filed it. The ticket was submitted before
    /// this call and drains run one at a time, so one drain answers it
    /// unless a failed drain popped it: that ticket comes back `None`.
    fn answer(
        &self,
        ticket: TicketId,
        drain: impl FnOnce() -> Vec<TicketResponse>,
    ) -> Option<TicketResponse> {
        // A panicking drain poisons the lock before it files anything,
        // and every update is one whole insert or remove, so the map
        // is valid whenever the lock is poisoned.
        let mut filed = self.answers.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(response) = filed.remove(&ticket.0) {
            return Some(response);
        }
        for response in drain() {
            filed.insert(response.ticket.0, response);
        }
        filed.remove(&ticket.0)
    }
}

/// The sharded HTTP gateway (see module docs).
#[derive(Debug)]
pub struct Gateway {
    config: GatewayConfig,
    replicas: Vec<Replica>,
}

impl Gateway {
    /// A gateway with `config.replicas` fresh shard-local replicas.
    #[must_use]
    pub fn new(config: GatewayConfig) -> Self {
        let replicas = (0..config.replicas.get())
            .map(|_| Replica::new(&config.service))
            .collect();
        Gateway { config, replicas }
    }

    /// The gateway configuration.
    #[must_use]
    pub fn config(&self) -> &GatewayConfig {
        &self.config
    }

    /// The replica a key routes to: its mixed fingerprint modulo the
    /// replica count. Deterministic in the key and the count; exposed
    /// so tests and operators can predict shard placement.
    #[must_use]
    #[allow(clippy::cast_possible_truncation)] // below the replica count
    pub fn route(&self, key: &ScenarioKey) -> usize {
        (mix64(key.fingerprint()) % self.replicas.len().max(1) as u64) as usize
    }

    /// Serves one parsed HTTP request. Pure request→response; the TCP
    /// loop in [`serve`](Gateway::serve) and in-process tests share
    /// this exact path.
    #[must_use]
    pub fn handle(&self, request: &Request) -> Response {
        match (request.method.as_str(), request.target.as_str()) {
            ("POST", "/run") => self.handle_run(&request.body),
            ("GET", "/stats") => Response::json(200, self.stats().to_string()),
            ("GET", "/healthz") => Response::json(
                200,
                json!({"status": "ok", "replicas": self.replicas.len()}).to_string(),
            ),
            (_, "/run" | "/stats" | "/healthz") => error_response(
                405,
                "method not allowed (POST /run, GET /stats, GET /healthz)",
            ),
            _ => error_response(404, "unknown path (POST /run, GET /stats, GET /healthz)"),
        }
    }

    fn handle_run(&self, body: &[u8]) -> Response {
        let text = match std::str::from_utf8(body) {
            Ok(text) => text,
            Err(_) => return error_response(400, "body must be UTF-8 JSON"),
        };
        let request = match parse_line(text) {
            Ok(Command::Run(request)) => *request,
            Ok(_) => return error_response(400, "only run requests are served over POST /run"),
            Err(reason) => return error_response(400, &reason),
        };
        let key = request.key();
        let shard = self.route(&key);
        let Some(replica) = self.replicas.get(shard) else {
            return error_response(503, "no replicas configured");
        };
        match replica.service.submit(request) {
            Admission::Enqueued { ticket, .. } => {
                let Some(response) = replica.await_ticket(ticket) else {
                    return error_response(500, "ticket lost by drain rendezvous");
                };
                ticket_response(&response, shard, ticket)
            }
            Admission::Rejected { reason } => rejection_response(&reason),
        }
    }

    /// Aggregated + per-replica statistics as one JSON object.
    #[must_use]
    pub fn stats(&self) -> Value {
        let mut shards = Vec::with_capacity(self.replicas.len());
        let mut submitted = 0u64;
        let mut completed = 0u64;
        let mut quota_rejected = 0u64;
        let mut rejected_full = 0u64;
        let mut cache_hits = 0u64;
        for replica in &self.replicas {
            let stats = replica.service.stats();
            submitted += stats.submitted;
            completed += stats.completed;
            quota_rejected += stats.quota_rejected;
            rejected_full += stats.rejected_full;
            cache_hits += stats.cache.hits;
            shards.push(stats_json(&stats));
        }
        json!({
            "event": "gateway_stats",
            "replicas": self.replicas.len(),
            "submitted": submitted,
            "completed": completed,
            "rejected_full": rejected_full,
            "quota_rejected": quota_rejected,
            "cache_hits": cache_hits,
            "shards": Value::Array(shards),
        })
    }

    /// Per-replica telemetry registries (index = shard id), for
    /// latency/served introspection in benches and tests.
    #[must_use]
    pub fn registries(&self) -> Vec<&Registry> {
        self.replicas.iter().map(|r| &r.registry).collect()
    }

    /// Runs the blocking accept loop on `listener` with a bounded
    /// connection queue and `request_workers` handler threads, until
    /// `shutdown` turns true. Over-backlog connections get an
    /// immediate 503. Returns when the loop exits.
    ///
    /// # Errors
    ///
    /// Setup-time listener failures ([`TcpListener::set_nonblocking`]).
    pub fn serve(&self, listener: &TcpListener, shutdown: &AtomicBool) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let queue = ConnQueue::new(self.config.conn_backlog);
        std::thread::scope(|scope| {
            for _ in 0..self.config.request_workers.get() {
                scope.spawn(|| {
                    while let Some(stream) = queue.pop() {
                        self.handle_connection(stream);
                    }
                });
            }
            while !shutdown.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        if let Err(stream) = queue.push(stream) {
                            // Backlog full: shed load at the door.
                            let _ = stream.set_nonblocking(false);
                            write_and_flush(
                                &stream,
                                &error_response(503, "connection backlog full").to_bytes(false),
                            );
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
            queue.close();
        });
        Ok(())
    }

    /// The per-connection loop: incremental parse, handle, respond,
    /// honoring keep-alive; parse errors answer once and close.
    fn handle_connection(&self, stream: TcpStream) {
        let _ = stream.set_nonblocking(false);
        let _ =
            stream.set_read_timeout(Some(Duration::from_millis(self.config.idle_timeout_millis)));
        let _ = stream.set_nodelay(true);
        let mut parser = RequestParser::new(self.config.limits);
        let mut buf = [0u8; 8192];
        let mut stream = stream;
        loop {
            loop {
                match parser.next_request() {
                    Ok(Some(request)) => {
                        let keep = request.keep_alive();
                        let response = catch_unwind(AssertUnwindSafe(|| self.handle(&request)))
                            .unwrap_or_else(|_| error_response(500, "request handler panicked"));
                        if !write_and_flush(&stream, &response.to_bytes(keep)) || !keep {
                            return;
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        write_and_flush(&stream, &http_error_response(&e).to_bytes(false));
                        return;
                    }
                }
            }
            match stream.read(&mut buf) {
                Ok(0) => return,
                Ok(n) => parser.push(buf.get(..n).unwrap_or_default()),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    // Idle keep-alive expiry; close quietly.
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }
}

/// Bounded handoff between the accept loop and request workers.
#[derive(Debug)]
struct ConnQueue {
    capacity: usize,
    inner: Mutex<ConnQueueState>,
    wake: Condvar,
}

#[derive(Debug, Default)]
struct ConnQueueState {
    // h2p-lint: allow(L7): bounded by ConnQueue::push's capacity check
    conns: VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    fn new(capacity: usize) -> Self {
        ConnQueue {
            capacity: capacity.max(1),
            inner: Mutex::new(ConnQueueState::default()),
            wake: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ConnQueueState> {
        // h2p-lint: allow(L10): leaf lock; never held while acquiring another
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues, or hands the stream back when the backlog is full.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut state = self.lock();
        if state.closed || state.conns.len() >= self.capacity {
            return Err(stream);
        }
        state.conns.push_back(stream);
        drop(state);
        self.wake.notify_one();
        Ok(())
    }

    /// Blocks for the next connection; `None` once closed and empty.
    fn pop(&self) -> Option<TcpStream> {
        let mut state = self.lock();
        loop {
            if let Some(stream) = state.conns.pop_front() {
                return Some(stream);
            }
            if state.closed {
                return None;
            }
            let (parked, _) = self
                .wake
                .wait_timeout(state, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            state = parked;
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.wake.notify_all();
    }
}

/// Best-effort full write; false when the peer is gone.
fn write_and_flush(mut stream: &TcpStream, bytes: &[u8]) -> bool {
    stream
        .write_all(bytes)
        .and_then(|()| stream.flush())
        .is_ok()
}

/// `{"status":"error",...}` with the given code.
fn error_response(status: u16, detail: &str) -> Response {
    Response::json(
        status,
        json!({"status": "error", "code": status, "error": detail}).to_string(),
    )
}

/// A parse failure as its mapped response.
fn http_error_response(e: &HttpError) -> Response {
    error_response(e.status(), &e.to_string())
}

/// An admission rejection as its mapped response: 400 invalid,
/// 429 quota, 503 backpressure.
fn rejection_response(reason: &RejectReason) -> Response {
    match reason {
        RejectReason::InvalidRequest { .. } => error_response(400, &reason.to_string()),
        RejectReason::QuotaExceeded { .. } => error_response(429, &reason.to_string()),
        RejectReason::QueueFull { .. } => {
            error_response(503, &reason.to_string()).with_header("retry-after", "1")
        }
        _ => error_response(503, &reason.to_string()),
    }
}

/// One answered ticket as its HTTP response: canonical body, variance
/// (provenance, shard, ticket) in headers only.
fn ticket_response(response: &TicketResponse, shard: usize, ticket: TicketId) -> Response {
    match &response.served {
        Ok(served) => Response::json(200, canonical_body(&response.key, &served.output))
            .with_header("x-h2p-provenance", served.provenance.name())
            .with_header("x-h2p-shard", shard.to_string())
            .with_header("x-h2p-ticket", ticket.to_string()),
        Err(e) => error_response(500, &e.to_string())
            .with_header("x-h2p-shard", shard.to_string())
            .with_header("x-h2p-ticket", ticket.to_string()),
    }
}

/// SplitMix64 finalizer: a fast, well-mixed 64-bit permutation. FNV-1a
/// fingerprints have weak low bits (the lowest is the parity of the
/// bytes' lowest bits), so a fingerprint is mixed before it is reduced
/// modulo the replica count.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The canonical 200 body for a served scenario. Depends only on the
/// scenario outcome — never cache temperature, coalescing, replica
/// count, or tickets — so any replica serving any cache state renders
/// the same bytes (the end-to-end transparency contract).
#[must_use]
pub fn canonical_body(key: &ScenarioKey, output: &RunOutput) -> String {
    let result = &output.result;
    json!({
        "status": "ok",
        "key": key.to_string(),
        "policy": result.policy(),
        "servers": result.servers(),
        "steps": result.steps().len(),
        "avg_teg_w_per_server": result.average_teg_power().ok().map(|w| w.value()),
        "pre": result.pre(),
        "partial_pue": result.partial_pue().ok(),
        "partial_ere": result.partial_ere().ok(),
        "violations": result.total_violations(),
        "faulted": output.ledger.is_some(),
        "digest": format!("{:016x}", result.digest()),
    })
    .to_string()
}

/// The reference a gateway response must match byte-for-byte: the
/// same scenario run *directly* on a fresh engine (the serving
/// contract from `crates/serve`), rendered through [`canonical_body`].
///
/// # Errors
///
/// Engine-construction or run failures, as the serving layer would
/// report them.
pub fn direct_canonical_body(request: &ScenarioRequest) -> Result<String, ServeError> {
    let mut config = SimulationConfig::paper_default();
    config.servers_per_circulation = request.servers_per_circulation;
    let engine =
        Simulator::new(&ServerModel::paper_default(), config)?.with_workers(request.workers);
    let cluster = request.materialize(&engine)?;
    let policy = request.policy.build();
    let output = match request.fault_plan(&cluster) {
        None => RunOutput {
            result: engine.run(&cluster, policy.as_dyn())?,
            ledger: None,
        },
        Some(plan) => {
            let faulted = engine.run_with_faults(&cluster, policy.as_dyn(), &plan?)?;
            RunOutput {
                result: faulted.result,
                ledger: Some(faulted.ledger),
            }
        }
    };
    Ok(canonical_body(&request.key(), &output))
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2p_serve::{PolicyKind, TraceSpec};
    use h2p_workload::TraceKind;
    use std::sync::{mpsc, Arc};

    fn gateway(replicas: usize) -> Gateway {
        Gateway::new(GatewayConfig {
            replicas: NonZeroUsize::new(replicas).unwrap(),
            ..GatewayConfig::default()
        })
    }

    /// `count` distinct scenario keys, cycling through the trace kinds
    /// and both paper policies.
    fn keys(count: u64) -> impl Iterator<Item = ScenarioKey> {
        let kinds = TraceKind::all();
        (0..count).map(move |seed| {
            let trace = TraceSpec {
                kind: kinds[(seed % kinds.len() as u64) as usize],
                seed,
                servers: 8,
                steps: 2,
            };
            let policy = if seed % 2 == 0 {
                PolicyKind::LoadBalance
            } else {
                PolicyKind::Original
            };
            ScenarioRequest::new(trace, policy).key()
        })
    }

    #[test]
    fn gateways_built_alike_route_every_key_alike() {
        for replicas in [1usize, 3, 5] {
            let (a, b) = (gateway(replicas), gateway(replicas));
            for key in keys(500) {
                let shard = a.route(&key);
                assert!(shard < replicas, "{key:?} routed to {shard} of {replicas}");
                assert_eq!(b.route(&key), shard, "{key:?}");
            }
        }
    }

    #[test]
    fn every_replica_gets_its_share_of_keys() {
        const KEYS: u64 = 10_000;
        for replicas in [2usize, 3, 4, 7] {
            let gw = gateway(replicas);
            let mut counts = vec![0u64; replicas];
            for key in keys(KEYS) {
                counts[gw.route(&key)] += 1;
            }
            let share = KEYS as f64 / replicas as f64;
            assert!(
                counts
                    .iter()
                    .all(|&count| (0.9..=1.1).contains(&(count as f64 / share))),
                "{replicas} replicas split {KEYS} keys {counts:?}"
            );
        }
    }

    fn submit(replica: &Replica, seed: u64) -> TicketId {
        let trace = TraceSpec {
            kind: TraceKind::Common,
            seed,
            servers: 8,
            steps: 2,
        };
        match replica
            .service
            .submit(ScenarioRequest::new(trace, PolicyKind::LoadBalance))
        {
            Admission::Enqueued { ticket, .. } => ticket,
            Admission::Rejected { reason } => panic!("rejected: {reason}"),
        }
    }

    /// A drain that panics after popping its tickets must not strand
    /// the shard: the next waiter gets its answer (within a deadline,
    /// so a stranded shard fails the test instead of hanging it), and
    /// the ticket the failed drain popped comes back `None`.
    #[test]
    fn a_panicking_drain_leaves_the_shard_answering() {
        let replica = Arc::new(Replica::new(&ServiceConfig::default()));
        let lost = submit(&replica, 1);
        let failed = catch_unwind(AssertUnwindSafe(|| {
            replica.answer(lost, || {
                assert_eq!(replica.service.drain().len(), 1);
                panic!("drain failed after popping its tickets");
            })
        }));
        assert!(failed.is_err());

        let next = submit(&replica, 2);
        let waiter = Arc::clone(&replica);
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let _ = tx.send(waiter.await_ticket(next));
        });
        let answered = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a shard whose drain panicked must answer its next request");
        handle.join().unwrap();
        let answered = answered.expect("the next ticket is answered");
        assert_eq!(answered.ticket, next);
        assert!(answered.served.is_ok());
        assert!(replica.await_ticket(lost).is_none());
    }

    #[test]
    fn rejections_map_to_their_statuses() {
        let full = rejection_response(&RejectReason::QueueFull { capacity: 8 });
        assert_eq!(full.status, 503);
        assert!(
            full.headers
                .iter()
                .any(|(k, v)| k == "retry-after" && v == "1"),
            "QueueFull must invite a retry: {:?}",
            full.headers
        );
        let quota = rejection_response(&RejectReason::QuotaExceeded {
            tenant: "acme".to_owned(),
            limit: 2,
        });
        assert_eq!(quota.status, 429);
        let invalid = rejection_response(&RejectReason::InvalidRequest {
            reason: "servers must be positive".to_owned(),
        });
        assert_eq!(invalid.status, 400);
    }

    #[test]
    fn parse_failures_map_to_their_statuses() {
        assert_eq!(
            http_error_response(&HttpError::HeadTooLarge { limit: 16 }).status,
            431
        );
        assert_eq!(
            http_error_response(&HttpError::BodyTooLarge {
                declared: 2,
                limit: 1
            })
            .status,
            413
        );
    }
}
