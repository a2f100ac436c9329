//! `gateway_mix`: `POST /run` over loopback TCP to an in-process
//! `Gateway::serve`.
//!
//! Gateway shape: 2 replicas, 2 request workers, 1 dispatch lane per
//! replica, engine `workers` 1. Load: a closed loop from 2 keep-alive
//! connections; each sends its next request only after the previous
//! reply. Mix: in every block of 10 requests, 8 repeat a hot set of 8
//! scenarios (warmed during set-up, so result-cache reads) and 2 name
//! never-seen 200-server × 24-step scenarios with 40-server
//! circulations (engine runs plus cache writes). Positions within a
//! block and the hot picks come from the seed, so the mix is exact at
//! any run length.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use h2p_core::simulation::{SimulationConfig, Simulator};
use h2p_gateway::{
    direct_canonical_body, Gateway, GatewayConfig, HttpLimits, Request, RequestParser,
};
use h2p_serve::protocol::{parse_line, Command};
use h2p_serve::{ScenarioRequest, ServiceConfig};
use h2p_server::ServerModel;
use h2p_workload::{ClusterTrace, TraceKind};

use crate::engine::{counter, engine_ladder, histogram, ratio, run_cases, Case, Policy};
use crate::report::{measured, splitmix, timed, Ctx, Outcome, Rep};
use crate::stats::{percentile, supported_percentile};

pub const SERVERS: usize = 200;
pub const STEPS: usize = 24;
pub const CIRCULATION: usize = 40;
pub const HOT: usize = 8;
pub const BLOCK: usize = 10;
pub const COMPUTES_PER_BLOCK: usize = 2;
pub const CONNECTIONS: usize = 2;
const SETUP_REPS: usize = 3;
/// Compute responses per connection whose bodies are checked against
/// a direct engine run.
const CHECKED_COMPUTES: usize = 4;
/// Seconds a client waits for a reply before counting a transport
/// error.
const REPLY_TIMEOUT_S: u64 = 30;

/// One scenario a request names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    pub kind: TraceKind,
    pub seed: u64,
    pub policy: Policy,
}

impl Scenario {
    /// The `POST /run` body.
    #[must_use]
    pub fn body(&self) -> String {
        let policy = match self.policy {
            Policy::Original => "original",
            Policy::LoadBalance => "load_balance",
        };
        format!(
            "{{\"cmd\":\"run\",\"trace\":\"{}\",\"seed\":{},\"servers\":{SERVERS},\"steps\":{STEPS},\"circulation\":{CIRCULATION},\"workers\":1,\"policy\":\"{policy}\"}}",
            self.kind.name(),
            self.seed
        )
    }

    /// The request the gateway parses from [`body`](Self::body).
    ///
    /// # Errors
    ///
    /// The serving protocol's parse error.
    pub fn request(&self) -> Result<ScenarioRequest, String> {
        match parse_line(&self.body())? {
            Command::Run(request) => Ok(*request),
            _ => Err("not a run request".to_owned()),
        }
    }

    /// The full HTTP request bytes.
    #[must_use]
    pub fn http(&self) -> Vec<u8> {
        let body = self.body();
        format!(
            "POST /run HTTP/1.1\r\nhost: h2pbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }
}

/// A scenario from two stream draws. The trace seed keeps 53 bits:
/// the serving protocol reads JSON numbers as `f64`, which holds
/// integers exactly only up to 2^53.
fn scenario_from(bits: u64, seed_bits: u64) -> Scenario {
    let kinds = TraceKind::all();
    Scenario {
        kind: kinds[(bits % kinds.len() as u64) as usize],
        seed: seed_bits >> 11,
        policy: if bits & 8 == 0 {
            Policy::LoadBalance
        } else {
            Policy::Original
        },
    }
}

/// The hot set for a workload seed.
#[must_use]
pub fn hot_set(seed: u64) -> Vec<Scenario> {
    let mut state = seed ^ 0x686f_7473_6574;
    (0..HOT)
        .map(|_| {
            let bits = splitmix(&mut state);
            scenario_from(bits, splitmix(&mut state))
        })
        .collect()
}

/// One request of a connection's sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Item {
    pub scenario: Scenario,
    pub hot: bool,
}

/// A connection's endless seeded request sequence.
#[derive(Debug, Clone)]
pub struct Sequence {
    hot: Vec<Scenario>,
    state: u64,
    block: Vec<Item>,
}

impl Sequence {
    #[must_use]
    pub fn new(seed: u64, connection: usize) -> Self {
        Sequence {
            hot: hot_set(seed),
            state: seed ^ (0x636f_6e6e_0000 + connection as u64),
            block: Vec::new(),
        }
    }

    /// The next request (the sequence never ends).
    pub fn next_item(&mut self) -> Item {
        if self.block.is_empty() {
            self.refill();
        }
        self.block
            .pop()
            .expect("a refilled block holds BLOCK items")
    }

    fn refill(&mut self) {
        let mut block: Vec<Item> = (0..BLOCK)
            .map(|i| {
                if i < COMPUTES_PER_BLOCK {
                    let bits = splitmix(&mut self.state);
                    Item {
                        scenario: scenario_from(bits, splitmix(&mut self.state)),
                        hot: false,
                    }
                } else {
                    let pick = splitmix(&mut self.state) % HOT as u64;
                    Item {
                        scenario: self.hot[pick as usize],
                        hot: true,
                    }
                }
            })
            .collect();
        // Fisher-Yates: seeded positions within the block.
        for i in (1..block.len()).rev() {
            let j = (splitmix(&mut self.state) % (i as u64 + 1)) as usize;
            block.swap(i, j);
        }
        block.reverse();
        self.block = block;
    }
}

impl Iterator for Sequence {
    type Item = Item;

    fn next(&mut self) -> Option<Item> {
        Some(self.next_item())
    }
}

/// The benchmark's gateway shape.
#[must_use]
pub fn config() -> GatewayConfig {
    let two = NonZeroUsize::new(2).unwrap_or(NonZeroUsize::MIN);
    GatewayConfig {
        replicas: two,
        request_workers: two,
        service: ServiceConfig {
            dispatch_workers: NonZeroUsize::MIN,
            ..ServiceConfig::default()
        },
        ..GatewayConfig::default()
    }
}

/// One reply as the client read it.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub provenance: String,
    pub body: Vec<u8>,
}

/// A keep-alive HTTP/1.1 client connection.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A reply that never comes fails the request instead of
        // hanging the run.
        stream.set_read_timeout(Some(Duration::from_secs(REPLY_TIMEOUT_S)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Writes one request and reads its whole reply.
    ///
    /// # Errors
    ///
    /// Transport failures and malformed replies.
    pub fn round_trip(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        self.stream.write_all(request)?;
        let head_end = loop {
            if let Some(pos) = find(&self.buf, b"\r\n\r\n") {
                break pos + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("no status code"))?;
        let header = |name: &str| {
            head.lines().find_map(|line| {
                let (k, v) = line.split_once(':')?;
                k.eq_ignore_ascii_case(name).then(|| v.trim().to_owned())
            })
        };
        let length: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| invalid("no content-length"))?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        self.buf.drain(..head_end + length);
        Ok(Reply {
            status,
            provenance: header("x-h2p-provenance").unwrap_or_default(),
            body,
        })
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 8192];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-reply",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn invalid(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned())
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub latency_ns: u64,
    /// `x-h2p-provenance` was `cached`.
    pub cached: bool,
    /// `x-h2p-provenance` was `computed`.
    pub computed: bool,
}

/// What a closed-loop session measured and kept for checking.
#[derive(Debug, Default)]
pub struct Session {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Per connection: requests completed, in sequence order.
    pub completed: Vec<usize>,
    /// Replies kept for the body check.
    pub kept: Vec<(Scenario, Vec<u8>)>,
    pub errors: Vec<String>,
}

/// How long a session runs.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    Requests(usize),
}

/// Runs the closed loop: one thread per connection, each walking its
/// own seeded sequence until `until`.
fn session(ctx: &Ctx, clients: Vec<Client>, until: Until) -> Session {
    let start = Instant::now();
    let per_conn: Vec<Session> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, mut client)| {
                scope.spawn(move || {
                    let mut s = Session::default();
                    let mut sequence = Sequence::new(ctx.seed, conn);
                    let mut computes_kept = 0;
                    let mut hot_kept: Vec<Scenario> = Vec::new();
                    let mut done = 0usize;
                    loop {
                        let stop = match until {
                            Until::Deadline(t) => Instant::now() >= t,
                            Until::Requests(n) => done >= n.div_ceil(CONNECTIONS),
                        };
                        if stop {
                            break;
                        }
                        let item = sequence.next_item();
                        let bytes = item.scenario.http();
                        s.attempted += 1;
                        let t0 = Instant::now();
                        let reply = client.round_trip(&bytes);
                        let t1 = Instant::now();
                        let index = (conn as u64) << 32 | done as u64;
                        ctx.spans
                            .record_between("gateway.request", None, Some(index), t0, t1);
                        done += 1;
                        let reply = match reply {
                            Ok(reply) => reply,
                            Err(e) => {
                                s.failed += 1;
                                s.errors.push(format!("connection {conn}: {e}"));
                                break;
                            }
                        };
                        if reply.status != 200 {
                            s.failed += 1;
                            s.errors
                                .push(format!("connection {conn}: status {}", reply.status));
                            continue;
                        }
                        s.samples.push(Sample {
                            latency_ns: u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX),
                            cached: reply.provenance == "cached",
                            computed: reply.provenance == "computed",
                        });
                        let keep = if item.hot {
                            !hot_kept.contains(&item.scenario)
                        } else {
                            computes_kept < CHECKED_COMPUTES
                        };
                        if keep {
                            if item.hot {
                                hot_kept.push(item.scenario);
                            } else {
                                computes_kept += 1;
                            }
                            s.kept.push((item.scenario, reply.body));
                        }
                    }
                    s.completed = vec![done];
                    s
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut all = Session {
        wall_s: start.elapsed().as_secs_f64(),
        ..Session::default()
    };
    for s in per_conn {
        all.samples.extend(s.samples);
        all.attempted += s.attempted;
        all.failed += s.failed;
        all.completed.extend(s.completed);
        all.kept.extend(s.kept);
        all.errors.extend(s.errors);
    }
    all
}

/// Starts a gateway on an ephemeral loopback port, runs `f` against
/// it, then shuts it down and joins its threads.
fn with_gateway<R>(f: impl FnOnce(&Gateway, SocketAddr) -> R) -> Result<R, String> {
    let gateway = Gateway::new(config());
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| gateway.serve(&listener, &shutdown));
        let out = f(&gateway, addr);
        shutdown.store(true, Ordering::SeqCst);
        match server.join() {
            Ok(Ok(())) => Ok(out),
            Ok(Err(e)) => Err(format!("gateway serve failed: {e}")),
            Err(_) => Err("gateway serve panicked".to_owned()),
        }
    })
}

/// Set-up: warms the hot set (and, where the hot set left a replica
/// without one, an extra scenario so every replica has built its
/// engine), then opens the timed connections.
fn warm(ctx: &Ctx, gateway: &Gateway, addr: SocketAddr) -> Result<Vec<Client>, String> {
    let mut warmer = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut post = |scenario: &Scenario| -> Result<usize, String> {
        let reply = warmer
            .round_trip(&scenario.http())
            .map_err(|e| e.to_string())?;
        if reply.status != 200 {
            return Err(format!("warm-up status {}", reply.status));
        }
        Ok(gateway.route(&scenario.request()?.key()))
    };
    let mut built = vec![false; gateway.config().replicas.get()];
    for scenario in &hot_set(ctx.seed) {
        built[post(scenario)?] = true;
    }
    let mut state = ctx.seed ^ 0x7761_726d;
    while built.iter().any(|b| !b) {
        let bits = splitmix(&mut state);
        let extra = scenario_from(bits, splitmix(&mut state));
        if !built[gateway.route(&extra.request()?.key())] {
            built[post(&extra)?] = true;
        }
    }
    drop(warmer);
    (0..CONNECTIONS)
        .map(|_| Client::connect(addr).map_err(|e| e.to_string()))
        .collect()
}

fn latencies_ms(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.latency_ns as f64 * 1e-6)
        .collect()
}

/// Checks a session: every response was 200 and every kept body is
/// byte-equal to a direct engine run's canonical body.
fn check_session(session: &Session, out: &mut Outcome) {
    for e in session.errors.iter().take(5) {
        out.check(false, || e.clone());
    }
    for (scenario, body) in &session.kept {
        let direct = scenario
            .request()
            .and_then(|r| direct_canonical_body(&r).map_err(|e| e.to_string()));
        out.check(
            direct.as_deref().map(str::as_bytes) == Ok(body.as_slice()),
            || format!("{}: served body differs from a direct run", scenario.body()),
        );
    }
    println!(
        "  bodies checked against direct runs: {}",
        session.kept.len()
    );
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    if ctx.traced {
        return traced(ctx, out);
    }
    let mut setups: Vec<Rep> = Vec::with_capacity(SETUP_REPS);
    let mut timed_session = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let cpu0 = crate::host::process_cpu_s().unwrap_or(0.0);
        let ran = with_gateway(|gateway, addr| -> Result<Option<(Session, Rep)>, String> {
            let clients = warm(ctx, gateway, addr)?;
            setups.push(Rep {
                wall_s: t0.elapsed().as_secs_f64(),
                cpu_s: crate::host::process_cpu_s().unwrap_or(0.0) - cpu0,
                work: 0.0,
            });
            if rep + 1 < SETUP_REPS {
                return Ok(None);
            }
            let (session, mut cpu) = measured(0.0, || {
                session(ctx, clients, Until::Deadline(ctx.deadline()))
            });
            cpu.work = session.samples.len() as f64;
            Ok(Some((session, cpu)))
        })??;
        timed_session = ran.or(timed_session);
    }
    let (session, cpu) = timed_session.ok_or("no session ran")?;
    out.mark_peak_rss();
    out.attempted += session.attempted;
    out.failed += session.failed;

    out.setup(&setups);
    let all = latencies_ms(&session.samples, |_| true);
    out.note("requests_per_s", all.len() as f64 / session.wall_s, "1/s");
    out.metric(
        "work_per_cpu_s",
        cpu.work / cpu.cpu_s.max(f64::MIN_POSITIVE),
        "1/s",
    );
    out.note("requests", all.len() as f64, "count");
    out.note("p50_ms", percentile(&all, 0.5).unwrap_or(0.0), "ms");
    match supported_percentile(&all, 0.99) {
        Some(p99) => out.note("p99_ms", p99, "ms"),
        None => println!("  p99_ms: fewer than 10 samples beyond it, not reported"),
    }
    let hits = session.samples.iter().filter(|s| s.cached).count();
    out.note("cached replies", hits as f64, "count");
    out.note(
        "computed replies",
        session.samples.iter().filter(|s| s.computed).count() as f64,
        "count",
    );
    check_session(&session, out);
    Ok(())
}

/// The serve and gateway layer metrics of one closed-loop session of
/// `until`, plus an in-process replay of the same sequence through
/// `Gateway::handle` and a parser rung. Returns the compute scenarios
/// the session answered and the CPU time the process used during the
/// session.
pub fn layer_metrics(
    ctx: &Ctx,
    until: Until,
    out: &mut Outcome,
) -> Result<(Vec<Scenario>, f64), String> {
    let (session, serve) = with_gateway(
        |gateway, addr| -> Result<((Session, f64), ServeDelta), String> {
            let clients = warm(ctx, gateway, addr)?;
            let before = ServeDelta::snapshot(gateway);
            let (session, cpu) = measured(0.0, || session(ctx, clients, until));
            Ok((
                (session, cpu.cpu_s),
                ServeDelta::snapshot(gateway).minus(&before),
            ))
        },
    )??;
    let (session, session_cpu_s) = session;
    check_session(&session, out);
    out.attempted += session.attempted;
    out.failed += session.failed;

    let all = latencies_ms(&session.samples, |_| true);
    let hits = latencies_ms(&session.samples, |s| s.cached);
    let computes = latencies_ms(&session.samples, |s| s.computed);
    out.metric("gateway.samples", all.len() as f64, "count");
    out.metric(
        "gateway.p99_ms",
        supported_percentile(&all, 0.99).unwrap_or(0.0),
        "ms",
    );
    out.metric("gateway.hit_samples", hits.len() as f64, "count");
    out.metric(
        "gateway.hit_p50_ms",
        percentile(&hits, 0.5).unwrap_or(0.0),
        "ms",
    );
    out.metric(
        "gateway.hit_p99_ms",
        supported_percentile(&hits, 0.99).unwrap_or(0.0),
        "ms",
    );
    out.metric("gateway.compute_samples", computes.len() as f64, "count");
    out.metric(
        "gateway.compute_p50_ms",
        percentile(&computes, 0.5).unwrap_or(0.0),
        "ms",
    );
    serve.report(out);

    // The same sequences, in process: handle() without TCP.
    let items: Vec<Item> = session
        .completed
        .iter()
        .enumerate()
        .flat_map(|(conn, &n)| Sequence::new(ctx.seed, conn).take(n))
        .collect();
    let (handle_hit, handle_compute) = in_process(ctx, &items)?;
    out.metric("gateway.handle_hit_us", handle_hit * 1e3, "us");
    out.metric("gateway.handle_compute_ms", handle_compute, "ms");
    out.metric(
        "gateway.transport_us",
        (percentile(&hits, 0.5).unwrap_or(0.0) - handle_hit) * 1e3,
        "us",
    );
    out.metric("gateway.parse_ns", parse_ns(&items), "ns");
    let computes = items
        .iter()
        .filter(|i| !i.hot)
        .map(|i| i.scenario)
        .collect();
    Ok((computes, session_cpu_s))
}

/// Median in-process `Gateway::handle` latency of cached and of
/// computed replies over `items`, in ms, on a fresh gateway whose hot
/// set was warmed the same way.
fn in_process(ctx: &Ctx, items: &[Item]) -> Result<(f64, f64), String> {
    let gateway = Gateway::new(config());
    let parse = |scenario: &Scenario| -> Result<Request, String> {
        let mut parser = RequestParser::new(HttpLimits::default());
        parser.push(&scenario.http());
        parser
            .next_request()
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "incomplete request".to_owned())
    };
    for scenario in hot_set(ctx.seed) {
        let reply = gateway.handle(&parse(&scenario)?);
        if reply.status != 200 {
            return Err(format!("in-process warm-up status {}", reply.status));
        }
    }
    let mut hits = Vec::new();
    let mut computes = Vec::new();
    for item in items {
        let request = parse(&item.scenario)?;
        let (reply, secs) = timed(|| {
            ctx.spans
                .span("gateway.handle", None, None, |_| gateway.handle(&request))
        });
        let provenance = reply
            .headers
            .iter()
            .find(|(k, _)| k == "x-h2p-provenance")
            .map(|(_, v)| v.as_str());
        match provenance {
            Some("cached") => hits.push(secs * 1e3),
            Some("computed") => computes.push(secs * 1e3),
            _ => {}
        }
    }
    Ok((
        percentile(&hits, 0.5).unwrap_or(0.0),
        percentile(&computes, 0.5).unwrap_or(0.0),
    ))
}

/// `RequestParser` cost per request over the sequence's bytes, pushed
/// and parsed as one pipelined stream (median of three batches).
fn parse_ns(items: &[Item]) -> f64 {
    let bytes: Vec<Vec<u8>> = items.iter().map(|i| i.scenario.http()).collect();
    let mut per_request = Vec::new();
    for _ in 0..3 {
        let mut parser = RequestParser::new(HttpLimits::default());
        let t0 = Instant::now();
        let mut parsed = 0usize;
        for b in &bytes {
            parser.push(b);
            while let Ok(Some(request)) = parser.next_request() {
                std::hint::black_box(request);
                parsed += 1;
            }
        }
        per_request.push(t0.elapsed().as_nanos() as f64 / parsed.max(1) as f64);
    }
    crate::stats::median(&per_request).unwrap_or(0.0)
}

/// Serve-layer counters summed over the replicas' registries.
#[derive(Debug, Clone, Copy, Default)]
struct ServeDelta {
    cache_hits: u64,
    cache_misses: u64,
    runs_executed: u64,
    coalesced: u64,
    engine_builds: u64,
    wait: (u64, u64),
    service: (u64, u64),
}

impl ServeDelta {
    fn snapshot(gateway: &Gateway) -> Self {
        let mut d = ServeDelta::default();
        for registry in gateway.registries() {
            d.cache_hits += counter(registry, "serve.result_cache.hits");
            d.cache_misses += counter(registry, "serve.result_cache.misses");
            d.runs_executed += counter(registry, "serve.runs_executed");
            d.coalesced += counter(registry, "serve.coalesced");
            d.engine_builds += counter(registry, "serve.engine_builds");
            let wait = histogram(registry, "serve.wait_nanos");
            let service = histogram(registry, "serve.service_nanos");
            d.wait = (d.wait.0 + wait.0, d.wait.1 + wait.1);
            d.service = (d.service.0 + service.0, d.service.1 + service.1);
        }
        d
    }

    fn minus(self, before: &ServeDelta) -> Self {
        ServeDelta {
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            runs_executed: self.runs_executed - before.runs_executed,
            coalesced: self.coalesced - before.coalesced,
            engine_builds: self.engine_builds - before.engine_builds,
            wait: (self.wait.0 - before.wait.0, self.wait.1 - before.wait.1),
            service: (
                self.service.0 - before.service.0,
                self.service.1 - before.service.1,
            ),
        }
    }

    fn report(&self, out: &mut Outcome) {
        out.metric("serve.result_cache_hits", self.cache_hits as f64, "count");
        out.metric(
            "serve.result_cache_misses",
            self.cache_misses as f64,
            "count",
        );
        out.metric(
            "serve.result_hit_ratio",
            ratio(
                self.cache_hits as f64,
                (self.cache_hits + self.cache_misses) as f64,
            ),
            "ratio",
        );
        out.metric("serve.runs_executed", self.runs_executed as f64, "count");
        out.metric("serve.coalesced", self.coalesced as f64, "count");
        out.metric("serve.engine_builds", self.engine_builds as f64, "count");
        out.metric(
            "serve.wait_ns",
            ratio(self.wait.1 as f64, self.wait.0 as f64),
            "ns",
        );
        out.metric(
            "serve.service_ns",
            ratio(self.service.1 as f64, self.service.0 as f64),
            "ns",
        );
    }
}

/// The traced run: an untraced and a traced session of equal length
/// for the overhead, the serve/gateway layer metrics, the engine
/// ladder on the compute scenarios, and the other layers' probes.
fn traced(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let quiet = ctx.quiet();
    let length = Until::Requests(TRACED_REQUESTS);
    let untraced = with_gateway(|gateway, addr| -> Result<f64, String> {
        let clients = warm(&quiet, gateway, addr)?;
        Ok(measured(0.0, || session(&quiet, clients, length)).1.cpu_s)
    })??;
    println!("gateway layers (closed loop of {TRACED_REQUESTS} requests):");
    let (computes, traced_cpu_s) = layer_metrics(ctx, length, out)?;
    crate::layers::telemetry_overhead(&[untraced], &[traced_cpu_s], out);

    let pristine = Simulator::new(&ServerModel::paper_default(), engine_config())
        .map_err(|e| e.to_string())?
        .with_workers(ctx.workers);
    let traces: Vec<(ClusterTrace, Policy)> = computes
        .iter()
        .take(LADDER_COMPUTES)
        .map(|s| s.request().map(|r| (r.trace.generate(), s.policy)))
        .collect::<Result<_, _>>()?;
    let cases: Vec<Case<'_>> = traces
        .iter()
        .map(|(trace, policy)| Case {
            trace,
            policy: *policy,
        })
        .collect();
    let engine_pass = |sim: &Simulator| run_cases(sim, &cases);
    engine_ladder(ctx, &pristine, &engine_pass, &cases, 0.0, out)?;
    let generators: Vec<_> = computes
        .iter()
        .take(LADDER_COMPUTES)
        .map(|s| {
            h2p_workload::TraceGenerator::paper(s.kind, s.seed)
                .with_servers(SERVERS)
                .with_steps(STEPS)
        })
        .collect();
    let _ = crate::layers::workload_rungs(
        &generators,
        NonZeroUsize::new(CIRCULATION).unwrap_or(NonZeroUsize::MIN),
        out,
    );
    crate::probes::jobs(ctx, &pristine, out)
}

/// Requests in each traced session.
pub const TRACED_REQUESTS: usize = 1300;
/// Compute scenarios the traced engine ladder replays.
const LADDER_COMPUTES: usize = 64;

/// The engine configuration the gateway's requests run under.
fn engine_config() -> SimulationConfig {
    SimulationConfig {
        servers_per_circulation: CIRCULATION,
        ..SimulationConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_repeat_for_a_seed_and_differ_across_seeds() {
        let a: Vec<Item> = Sequence::new(11, 0).take(200).collect();
        let b: Vec<Item> = Sequence::new(11, 0).take(200).collect();
        let c: Vec<Item> = Sequence::new(12, 0).take(200).collect();
        let other_conn: Vec<Item> = Sequence::new(11, 1).take(200).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, other_conn);
        assert_eq!(hot_set(11), hot_set(11));
        assert_ne!(hot_set(11), hot_set(12));
    }

    #[test]
    fn every_block_holds_the_exact_mix() {
        let hot = hot_set(5);
        let items: Vec<Item> = Sequence::new(5, 0).take(BLOCK * 50).collect();
        for block in items.chunks(BLOCK) {
            let computes = block.iter().filter(|i| !i.hot).count();
            assert_eq!(computes, COMPUTES_PER_BLOCK);
            assert!(block
                .iter()
                .filter(|i| i.hot)
                .all(|i| hot.contains(&i.scenario)));
        }
        // Compute scenarios are never repeated and never hot.
        let computes: Vec<Scenario> = items
            .iter()
            .filter(|i| !i.hot)
            .map(|i| i.scenario)
            .collect();
        for (i, s) in computes.iter().enumerate() {
            assert!(!hot.contains(s));
            assert!(!computes[..i].contains(s));
        }
    }

    #[test]
    fn bodies_parse_as_the_intended_request() {
        let scenario = hot_set(3)[0];
        let request = scenario.request().unwrap();
        assert_eq!(request.trace.kind, scenario.kind);
        assert_eq!(request.trace.seed, scenario.seed);
        assert_eq!(
            (request.trace.servers, request.trace.steps),
            (SERVERS, STEPS)
        );
        assert_eq!(request.servers_per_circulation, CIRCULATION);
        assert_eq!(request.workers.get(), 1);
        let mut parser = RequestParser::new(HttpLimits::default());
        parser.push(&scenario.http());
        let parsed = parser.next_request().unwrap().unwrap();
        assert_eq!(parsed.body, scenario.body().into_bytes());
        assert!(parsed.keep_alive());
    }
}
