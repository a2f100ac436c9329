//! The scenario scheduler: queue → coalesce → pool → cache.
//!
//! [`ScenarioService`] is the serving brain. Producers [`submit`] into
//! the bounded admission queue (getting an explicit
//! [`Admission::Enqueued`] or [`Admission::Rejected`] — never a block,
//! never unbounded growth); a [`drain`] then serves everything queued,
//! in admission order:
//!
//! 1. **resolve** — requests whose canonical key is resident in the
//!    LRU result cache are answered immediately;
//! 2. **coalesce** — remaining requests are deduplicated by key, so N
//!    identical in-flight requests cost exactly one engine run, carried
//!    by the first of them;
//! 3. **dispatch** — distinct scenarios execute on the `h2p-exec`
//!    scoped pool (`dispatch_workers` lanes across scenarios). The
//!    service holds one [`Simulator`], built by the first scenario it
//!    runs: the paper configuration with one worker. A scenario of
//!    that shape runs on it in place; any other circulation size or
//!    worker budget runs on a clone carrying the request's values,
//!    dropped when its run ends. A plain request streams from its
//!    generator's start states and never holds its trace; only a
//!    placement request materializes one;
//! 4. **cache** — fresh outcomes are inserted into the result cache
//!    for future drains.
//!
//! # Answering tickets
//!
//! A drain answers every ticket it pops. A caller waiting for one
//! ticket calls [`await_ticket`]: under the lock that serializes
//! drains, it takes the answer an earlier drain filed, or drains and
//! files every other ticket's answer, so concurrent callers share
//! drains and duplicates among them one engine run. [`drain`] also
//! returns the answers nobody has claimed, so mixing the two calls
//! strands none.
//!
//! # Determinism & transparency
//!
//! Every response is bit-identical to what a direct
//! [`Simulator::run`] / [`run_with_faults`] call with the same inputs
//! would return, cached or uncached, at any worker count: the engine
//! itself is deterministic across worker counts (DESIGN.md §8), a
//! streamed run is bit-identical to the materialized one (§14.3), a
//! clone's circulation size is the same configuration value a direct
//! caller sets, the canonical key names every result-determining
//! input, and the cache only ever replays values computed by that same
//! engine (`tests/serve_transparency.rs` pins all of it).
//!
//! [`submit`]: ScenarioService::submit
//! [`drain`]: ScenarioService::drain
//! [`await_ticket`]: ScenarioService::await_ticket
//! [`run_with_faults`]: Simulator::run_with_faults

use crate::cache::{ResultCache, ResultCacheStats};
use crate::queue::{BoundedQueue, QueueFull};
use crate::request::{ScenarioKey, ScenarioRequest};
use h2p_core::fleet::ChunkPlan;
use h2p_core::simulation::{SimulationResult, Simulator};
use h2p_core::H2pError;
use h2p_faults::{FaultError, FaultLedger, FaultPlan};
use h2p_telemetry::{BucketSpec, Counter, Event, Histogram, Registry};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Journal event name for refused admissions.
pub const SERVE_REJECTED_EVENT: &str = "serve_rejected";

/// A serving-layer failure attributed to one scenario.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The engine (or its construction) failed.
    Engine(H2pError),
    /// The request's fault plan failed hazard validation.
    Faults(FaultError),
    /// The request's placement run failed (see
    /// [`ScenarioRequest::materialize`]).
    Placement(h2p_jobs::JobsError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::Faults(e) => write!(f, "fault plan error: {e}"),
            ServeError::Placement(e) => write!(f, "placement error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<H2pError> for ServeError {
    fn from(e: H2pError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<FaultError> for ServeError {
    fn from(e: FaultError) -> Self {
        ServeError::Faults(e)
    }
}

impl From<h2p_jobs::JobsError> for ServeError {
    fn from(e: h2p_jobs::JobsError) -> Self {
        ServeError::Placement(e)
    }
}

/// Admission ticket: the identity of one accepted request. Tickets are
/// unique per service and strictly increasing in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TicketId(pub u64);

impl fmt::Display for TicketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Why a request was refused at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejectReason {
    /// The bounded queue is at capacity; retry after a drain.
    QueueFull {
        /// The configured queue capacity that was reached.
        capacity: usize,
    },
    /// The request failed validation (out-of-domain or over the
    /// service's admission limits).
    InvalidRequest {
        /// Human-readable detail.
        reason: String,
    },
    /// The submitting tenant already has its full quota of requests
    /// queued; retry after a drain. Distinct from [`QueueFull`]: the
    /// shared queue may have room, but this tenant's share of it is
    /// spent.
    ///
    /// [`QueueFull`]: RejectReason::QueueFull
    QuotaExceeded {
        /// The tenant that hit its quota.
        tenant: String,
        /// The configured per-tenant limit on queued requests.
        limit: usize,
    },
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            RejectReason::InvalidRequest { reason } => {
                write!(f, "invalid request: {reason}")
            }
            RejectReason::QuotaExceeded { tenant, limit } => {
                write!(f, "tenant {tenant:?} quota exceeded (limit {limit} queued)")
            }
        }
    }
}

/// The outcome of a [`submit`](ScenarioService::submit): explicit
/// backpressure, never a block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Admission {
    /// Accepted; the ticket will be answered by a future
    /// [`drain`](ScenarioService::drain) or
    /// [`await_ticket`](ScenarioService::await_ticket).
    Enqueued {
        /// The accepted request's ticket.
        ticket: TicketId,
        /// Its canonical scenario key.
        key: ScenarioKey,
        /// Queue depth right after this enqueue.
        depth: usize,
    },
    /// Refused, with a typed reason. Nothing was queued.
    Rejected {
        /// Why admission was refused.
        reason: RejectReason,
    },
}

/// A complete engine outcome: the simulated series, plus the fault
/// ledger when the scenario was fault-injected.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The simulation result (bit-identical to a direct engine call).
    pub result: SimulationResult,
    /// Degradation accounting (`Some` iff the request named a fault
    /// seed).
    pub ledger: Option<FaultLedger>,
}

/// How one ticket's bits were obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// This ticket triggered the engine run.
    Computed,
    /// Deduplicated onto another in-flight ticket's run this drain.
    Coalesced,
    /// Replayed from the LRU result cache.
    Cached,
}

impl Provenance {
    /// The wire spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Provenance::Computed => "computed",
            Provenance::Coalesced => "coalesced",
            Provenance::Cached => "cached",
        }
    }
}

/// A successfully served scenario.
#[derive(Debug, Clone)]
pub struct ServedScenario {
    /// The outcome (shared — coalesced tickets alias one output).
    pub output: Arc<RunOutput>,
    /// How this ticket's bits were obtained.
    pub provenance: Provenance,
}

/// One drained ticket's response.
#[derive(Debug, Clone)]
pub struct TicketResponse {
    /// The ticket being answered.
    pub ticket: TicketId,
    /// Its canonical scenario key.
    pub key: ScenarioKey,
    /// The outcome, or the failure attributed to this scenario.
    pub served: Result<ServedScenario, ServeError>,
}

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// LRU result-cache capacity, in outcomes.
    pub cache_capacity: usize,
    /// Pool lanes used to dispatch *distinct scenarios* of one drain
    /// in parallel (each scenario still uses its own requested engine
    /// worker budget internally).
    pub dispatch_workers: NonZeroUsize,
    /// Admission limit on `trace.servers`.
    pub max_servers: usize,
    /// Admission limit on `trace.steps`.
    pub max_steps: usize,
    /// Admission limit on a request's engine worker budget.
    pub max_workers: usize,
    /// Per-tenant admission quota: the most requests one tenant may
    /// have queued at once (`None` = unlimited). The quota bounds each
    /// tenant's *share of the admission queue*, so one chatty tenant
    /// cannot starve the others out of the shared capacity; it frees
    /// up as drains answer the tenant's tickets. Unattributed requests
    /// (`tenant: None`) are never quota-limited. A limit of zero
    /// rejects every attributed request.
    pub tenant_quota: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 256,
            cache_capacity: 128,
            dispatch_workers: h2p_exec::worker_count(),
            max_servers: 4096,
            max_steps: 8192,
            max_workers: 64,
            tenant_quota: None,
        }
    }
}

impl ServiceConfig {
    /// Applies one of the tuning flags both daemons take: `--queue N`,
    /// `--cache N`, `--dispatch N` (N >= 1) or `--tenant-quota N`,
    /// where `value` is the argument after `flag`. Returns `false`,
    /// changing nothing, when `flag` is none of them or `value` is
    /// missing or not a valid count.
    #[must_use]
    pub fn apply_flag(&mut self, flag: &str, value: Option<&str>) -> bool {
        let Some(n) = value.and_then(|v| v.parse::<usize>().ok()) else {
            return false;
        };
        match flag {
            "--queue" => self.queue_capacity = n,
            "--cache" => self.cache_capacity = n,
            "--dispatch" => match NonZeroUsize::new(n) {
                Some(n) => self.dispatch_workers = n,
                None => return false,
            },
            "--tenant-quota" => self.tenant_quota = Some(n),
            _ => return false,
        }
        true
    }
}

/// Always-on service statistics (see [`ScenarioService::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServeStats {
    /// Requests presented to [`submit`](ScenarioService::submit).
    pub submitted: u64,
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests refused because the queue was full.
    pub rejected_full: u64,
    /// Requests refused by validation.
    pub rejected_invalid: u64,
    /// Requests refused because their tenant hit its admission quota.
    pub quota_rejected: u64,
    /// Tickets answered by another in-flight ticket's run.
    pub coalesced: u64,
    /// Engine runs actually executed by the service.
    pub runs_executed: u64,
    /// Engines (lookup-space fits) constructed: 1 once the service has
    /// run a scenario, since every other shape runs on a clone.
    pub engine_builds: u64,
    /// Drains performed.
    pub drains: u64,
    /// Tickets answered.
    pub completed: u64,
    /// Current queue depth.
    pub queue_depth: usize,
    /// Configured queue capacity.
    pub queue_capacity: usize,
    /// Result-cache statistics.
    pub cache: ResultCacheStats,
}

/// Always-live counters (plain atomics, counting whether or not a
/// telemetry registry is attached; registered with it on attach).
#[derive(Debug)]
struct ServeCounters {
    submitted: Counter,
    admitted: Counter,
    rejected_full: Counter,
    rejected_invalid: Counter,
    quota_rejected: Counter,
    coalesced: Counter,
    runs_executed: Counter,
    engine_builds: Counter,
    drains: Counter,
    completed: Counter,
}

impl ServeCounters {
    fn new() -> Self {
        ServeCounters {
            submitted: Counter::new(),
            admitted: Counter::new(),
            rejected_full: Counter::new(),
            rejected_invalid: Counter::new(),
            quota_rejected: Counter::new(),
            coalesced: Counter::new(),
            runs_executed: Counter::new(),
            engine_builds: Counter::new(),
            drains: Counter::new(),
            completed: Counter::new(),
        }
    }

    fn handles(&self) -> [(&'static str, &Counter); 10] {
        [
            ("serve.submitted", &self.submitted),
            ("serve.admitted", &self.admitted),
            ("serve.rejected_full", &self.rejected_full),
            ("serve.rejected_invalid", &self.rejected_invalid),
            ("serve.quota_rejected", &self.quota_rejected),
            ("serve.coalesced", &self.coalesced),
            ("serve.runs_executed", &self.runs_executed),
            ("serve.engine_builds", &self.engine_builds),
            ("serve.drains", &self.drains),
            ("serve.completed", &self.completed),
        ]
    }
}

/// Telemetry handles resolved once per attachment.
#[derive(Debug)]
struct ServeTelemetry {
    registry: Registry,
    wait: Histogram,
    service: Histogram,
    depth: Histogram,
}

impl ServeTelemetry {
    fn disabled() -> Self {
        ServeTelemetry {
            registry: Registry::disabled(),
            wait: Histogram::disabled(),
            service: Histogram::disabled(),
            depth: Histogram::disabled(),
        }
    }

    fn from_registry(registry: &Registry) -> Self {
        if !registry.is_enabled() {
            return ServeTelemetry::disabled();
        }
        let durations = BucketSpec::duration_default();
        let depth_spec = BucketSpec::exponential(1, 12).unwrap_or_else(|_| durations.clone());
        let hist = |name: &str, spec: &BucketSpec| {
            registry
                .histogram(name, spec)
                .unwrap_or_else(|_| Histogram::disabled())
        };
        ServeTelemetry {
            registry: registry.clone(),
            wait: hist("serve.wait_nanos", &durations),
            service: hist("serve.service_nanos", &durations),
            depth: hist("serve.queue_depth", &depth_spec),
        }
    }
}

/// One queued request with its admission bookkeeping.
#[derive(Debug)]
struct Job {
    ticket: TicketId,
    request: ScenarioRequest,
    key: ScenarioKey,
    tenant: Option<String>,
    enqueued_nanos: u64,
}

/// A deduplicated unit of work: one distinct scenario and every ticket
/// riding on it this drain.
struct PendingGroup {
    key: ScenarioKey,
    request: ScenarioRequest,
    tickets: Vec<TicketId>,
}

/// The batching, backpressured scenario service (see module docs).
#[derive(Debug)]
pub struct ScenarioService {
    config: ServiceConfig,
    queue: BoundedQueue<Job>,
    cache: Mutex<ResultCache<Arc<RunOutput>>>,
    /// The one engine, built by the first scenario run (see
    /// `ScenarioService::engine`).
    engine: OnceLock<Result<Simulator, H2pError>>,
    next_ticket: AtomicU64,
    /// Answers a drain filed for tickets whose callers have not claimed
    /// them yet, keyed by ticket. Held across every drain, so drains
    /// run one at a time; submits stay concurrent with a running drain
    /// (they land in the next one).
    answers: Mutex<BTreeMap<TicketId, TicketResponse>>,
    /// Queued-request count per attributed tenant, for admission
    /// quotas. Held across the queue push in `submit` so a quota check
    /// and the admission it authorizes cannot interleave with another
    /// submitter's (no over-admission race).
    tenants: Mutex<BTreeMap<String, usize>>,
    counters: ServeCounters,
    telemetry: ServeTelemetry,
}

impl ScenarioService {
    /// A service with the given tuning, telemetry detached.
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        ScenarioService {
            queue: BoundedQueue::new(config.queue_capacity),
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            engine: OnceLock::new(),
            next_ticket: AtomicU64::new(0),
            answers: Mutex::new(BTreeMap::new()),
            tenants: Mutex::new(BTreeMap::new()),
            counters: ServeCounters::new(),
            telemetry: ServeTelemetry::disabled(),
            config,
        }
    }

    /// A service with default tuning.
    #[must_use]
    pub fn with_defaults() -> Self {
        ScenarioService::new(ServiceConfig::default())
    }

    /// Attaches a telemetry registry (builder style; attach before
    /// first use). Queue-depth, wait and service-time histograms, all
    /// serve counters, result-cache counters, admission-rejection
    /// journal events, and the engine's own telemetry (`engine.runs`,
    /// pool and optimizer counters, clones included) all become
    /// visible through `registry`. Responses are bit-identical with or
    /// without telemetry attached.
    #[must_use]
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.telemetry = ServeTelemetry::from_registry(registry);
        for (name, counter) in self.counters.handles() {
            registry.register_counter(name, counter);
        }
        for (name, counter) in lock(&self.cache).counters() {
            registry.register_counter(name, counter);
        }
        self
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The attached registry ([`Registry::disabled`] when detached).
    #[must_use]
    pub fn telemetry_registry(&self) -> &Registry {
        &self.telemetry.registry
    }

    /// Always-on statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            submitted: self.counters.submitted.get(),
            admitted: self.counters.admitted.get(),
            rejected_full: self.counters.rejected_full.get(),
            rejected_invalid: self.counters.rejected_invalid.get(),
            quota_rejected: self.counters.quota_rejected.get(),
            coalesced: self.counters.coalesced.get(),
            runs_executed: self.counters.runs_executed.get(),
            engine_builds: self.counters.engine_builds.get(),
            drains: self.counters.drains.get(),
            completed: self.counters.completed.get(),
            queue_depth: self.queue.depth(),
            queue_capacity: self.queue.capacity(),
            cache: lock(&self.cache).stats(),
        }
    }

    /// Submits one request: validation, then bounded admission.
    /// Never blocks and never grows memory past the queue bound —
    /// pressure surfaces as [`Admission::Rejected`], which is also
    /// counted (`serve.rejected_*`) and journaled
    /// ([`SERVE_REJECTED_EVENT`]).
    pub fn submit(&self, request: ScenarioRequest) -> Admission {
        self.counters.submitted.incr();
        if let Err(reason) = self.validate(&request) {
            self.counters.rejected_invalid.incr();
            self.telemetry.registry.record_event(
                Event::new(SERVE_REJECTED_EVENT)
                    .with("reason", "invalid_request")
                    .with("detail", reason.as_str()),
            );
            return Admission::Rejected {
                reason: RejectReason::InvalidRequest { reason },
            };
        }
        let key = request.key();
        let ticket = TicketId(self.next_ticket.fetch_add(1, Ordering::Relaxed));
        let tenant = request.tenant.clone();
        let job = Job {
            ticket,
            request,
            key: key.clone(),
            tenant: tenant.clone(),
            enqueued_nanos: self.telemetry.registry.now_nanos(),
        };
        // The tenants lock is held across the queue push so the quota
        // check and the admission it authorizes are one atomic step —
        // two racing submitters cannot both pass a last-slot check.
        let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        if let (Some(limit), Some(name)) = (self.config.tenant_quota, tenant.as_deref()) {
            let queued = tenants.get(name).copied().unwrap_or(0);
            if queued >= limit {
                drop(tenants);
                self.counters.quota_rejected.incr();
                self.telemetry.registry.record_event(
                    Event::new(SERVE_REJECTED_EVENT)
                        .with("reason", "quota_exceeded")
                        .with("tenant", name)
                        .with("limit", limit as u64),
                );
                return Admission::Rejected {
                    reason: RejectReason::QuotaExceeded {
                        tenant: name.to_owned(),
                        limit,
                    },
                };
            }
        }
        match self.queue.push(job) {
            Ok(depth) => {
                if let Some(name) = tenant {
                    *tenants.entry(name).or_insert(0) += 1;
                }
                drop(tenants);
                self.counters.admitted.incr();
                self.telemetry.depth.record(depth as u64);
                Admission::Enqueued { ticket, key, depth }
            }
            Err(QueueFull { capacity }) => {
                drop(tenants);
                self.counters.rejected_full.incr();
                self.telemetry.registry.record_event(
                    Event::new(SERVE_REJECTED_EVENT)
                        .with("reason", "queue_full")
                        .with("capacity", capacity as u64)
                        .with("key", key.to_string()),
                );
                Admission::Rejected {
                    reason: RejectReason::QueueFull { capacity },
                }
            }
        }
    }

    /// Serves everything queued (see the module docs for the
    /// pipeline), and returns those answers with every answer an
    /// [`await_ticket`](Self::await_ticket) drain filed and nobody has
    /// claimed yet, sorted by ticket. Drains are serialized with each
    /// other; concurrent submits land in the next drain.
    #[must_use]
    pub fn drain(&self) -> Vec<TicketResponse> {
        let mut filed = self.answers.lock().unwrap_or_else(PoisonError::into_inner);
        filed.extend(self.drain_queue().into_iter().map(|r| (r.ticket, r)));
        std::mem::take(&mut *filed).into_values().collect()
    }

    /// Blocks until `ticket` is answered and returns its answer: one an
    /// earlier drain filed, or else one from a drain this call runs,
    /// which files every other ticket's answer (see the module docs).
    ///
    /// `None` when no drain will answer `ticket`: it was never
    /// admitted, was already claimed, or was popped by a drain that
    /// panicked.
    #[must_use]
    pub fn await_ticket(&self, ticket: TicketId) -> Option<TicketResponse> {
        self.answer(ticket, || self.drain_queue())
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
        if let Some(response) = filed.remove(&ticket) {
            return Some(response);
        }
        filed.extend(drain().into_iter().map(|r| (r.ticket, r)));
        filed.remove(&ticket)
    }

    /// Pops and serves everything queued. Callers hold the answers
    /// lock, which serializes drains, and file what this returns.
    fn drain_queue(&self) -> Vec<TicketResponse> {
        let jobs = self.queue.pop_all();
        if jobs.is_empty() {
            return Vec::new();
        }
        // Popped jobs no longer occupy their tenant's quota slots.
        {
            let mut tenants = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
            for job in &jobs {
                if let Some(name) = &job.tenant {
                    if let Some(count) = tenants.get_mut(name) {
                        *count = count.saturating_sub(1);
                        if *count == 0 {
                            tenants.remove(name);
                        }
                    }
                }
            }
        }
        self.counters.drains.incr();
        let drain_start = self.telemetry.registry.now_nanos();
        for job in &jobs {
            self.telemetry
                .wait
                .record(drain_start.saturating_sub(job.enqueued_nanos));
        }

        // 1+2. Resolve against the result cache and coalesce
        // duplicates, in pop order.
        let mut responses = Vec::with_capacity(jobs.len());
        let mut groups: Vec<PendingGroup> = Vec::new();
        let mut group_of: HashMap<ScenarioKey, usize> = HashMap::new();
        {
            let mut cache = lock(&self.cache);
            for job in jobs {
                if let Some(index) = group_of.get(&job.key) {
                    self.counters.coalesced.incr();
                    groups[*index].tickets.push(job.ticket);
                    continue;
                }
                if let Some(hit) = cache.get(&job.key) {
                    responses.push(TicketResponse {
                        ticket: job.ticket,
                        key: job.key,
                        served: Ok(ServedScenario {
                            output: hit,
                            provenance: Provenance::Cached,
                        }),
                    });
                    continue;
                }
                group_of.insert(job.key.clone(), groups.len());
                groups.push(PendingGroup {
                    key: job.key,
                    request: job.request,
                    tickets: vec![job.ticket],
                });
            }
        }

        // 3. Dispatch distinct scenarios across the h2p-exec pool.
        let outcomes = h2p_exec::par_map(self.config.dispatch_workers, &groups, |_, group| {
            let t0 = self.telemetry.registry.now_nanos();
            let outcome = self.execute(&group.request).map(Arc::new);
            self.telemetry
                .service
                .record(self.telemetry.registry.now_nanos().saturating_sub(t0));
            outcome
        });

        // 4. Fill the cache and answer every ticket of every group.
        let mut cache = lock(&self.cache);
        for (group, outcome) in groups.into_iter().zip(outcomes) {
            if let Ok(output) = &outcome {
                cache.insert(group.key.clone(), output.clone());
                self.counters.runs_executed.incr();
            }
            for (i, ticket) in group.tickets.into_iter().enumerate() {
                responses.push(TicketResponse {
                    ticket,
                    key: group.key.clone(),
                    served: outcome.clone().map(|output| ServedScenario {
                        output,
                        provenance: if i == 0 {
                            Provenance::Computed
                        } else {
                            Provenance::Coalesced
                        },
                    }),
                });
            }
        }
        drop(cache);

        self.counters.completed.add(responses.len() as u64);
        responses
    }

    /// Validation behind [`Admission::Rejected`] /
    /// [`RejectReason::InvalidRequest`].
    fn validate(&self, request: &ScenarioRequest) -> Result<(), String> {
        if request.trace.servers == 0 {
            return Err("trace.servers must be >= 1".to_owned());
        }
        if request.trace.servers > self.config.max_servers {
            return Err(format!(
                "trace.servers {} exceeds admission limit {}",
                request.trace.servers, self.config.max_servers
            ));
        }
        if request.trace.steps == 0 {
            return Err("trace.steps must be >= 1".to_owned());
        }
        if request.trace.steps > self.config.max_steps {
            return Err(format!(
                "trace.steps {} exceeds admission limit {}",
                request.trace.steps, self.config.max_steps
            ));
        }
        if request.servers_per_circulation == 0 {
            return Err("servers_per_circulation must be >= 1".to_owned());
        }
        if request.workers.get() > self.config.max_workers {
            return Err(format!(
                "workers {} exceeds admission limit {}",
                request.workers, self.config.max_workers
            ));
        }
        request.policy.validate()
    }

    /// The service's one engine: the paper simulator with one worker,
    /// attached to the service's registry, built by the first call and
    /// counted in `serve.engine_builds`. A failed build is kept and
    /// answers every later call: its inputs are fixed, so a retry
    /// would fail alike.
    fn engine(&self) -> Result<&Simulator, H2pError> {
        self.engine
            .get_or_init(|| {
                let engine = Simulator::paper_default()?
                    .with_workers(NonZeroUsize::MIN)
                    .with_telemetry(&self.telemetry.registry);
                self.counters.engine_builds.incr();
                Ok(engine)
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Runs one distinct scenario: on the service's engine when the
    /// request has its shape, otherwise on a clone carrying the
    /// request's circulation size and worker budget. A plain request
    /// streams from its generator's start states as one chunk of all
    /// its servers, so no trace is held; only a placement request
    /// materializes one, because the placement engine writes it. This
    /// is the serving contract the transparency tests compare against.
    fn execute(&self, request: &ScenarioRequest) -> Result<RunOutput, ServeError> {
        let shared = self.engine()?;
        let engine = if request.servers_per_circulation == shared.config().servers_per_circulation
            && request.workers == shared.workers()
        {
            Cow::Borrowed(shared)
        } else {
            Cow::Owned(
                shared
                    .clone()
                    .with_servers_per_circulation(request.servers_per_circulation)
                    .with_workers(request.workers),
            )
        };
        let policy = request.policy.build();
        let faults = |plan: Option<Result<FaultPlan, FaultError>>| {
            plan.transpose()
                .map(|plan| plan.unwrap_or_else(FaultPlan::none))
        };
        let run = if request.placement.is_some() {
            let cluster = request.materialize(&engine)?;
            let plan = faults(request.fault_plan(&cluster))?;
            engine.run_with_faults(&cluster, policy.as_dyn(), &plan)?
        } else {
            let generator = request.trace.generator();
            let plan = faults(request.fault_plan(&generator))?;
            let circulation = NonZeroUsize::new(request.circulation(generator.servers()))
                .unwrap_or(NonZeroUsize::MIN);
            // One chunk: the start states (32 B a server) are all the
            // plan holds, and the engine's fold bounds the rest.
            // `EmptyFleet` cannot occur, since a generator has servers.
            let whole = ChunkPlan::new(generator.servers(), circulation, NonZeroUsize::MAX)
                .map_err(|_| H2pError::EmptyRun)?;
            engine.run_fleet_with_faults(&generator, policy.as_dyn(), &whole, &plan)?
        };
        Ok(RunOutput {
            result: run.result,
            ledger: request.fault_seed.map(|_| run.ledger),
        })
    }
}

/// Cache locks never carry cross-call invariants worth dying for.
fn lock<V>(mutex: &Mutex<ResultCache<V>>) -> MutexGuard<'_, ResultCache<V>> {
    // h2p-lint: allow(L10): generic poison-tolerant helper; every call site carries the manifest order
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{PolicyKind, TraceSpec};
    use h2p_workload::TraceKind;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Duration;

    fn submit(service: &ScenarioService, seed: u64) -> TicketId {
        let trace = TraceSpec {
            kind: TraceKind::Common,
            seed,
            servers: 8,
            steps: 2,
        };
        match service.submit(ScenarioRequest::new(trace, PolicyKind::LoadBalance)) {
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
        let service = Arc::new(ScenarioService::with_defaults());
        let lost = submit(&service, 1);
        let failed = catch_unwind(AssertUnwindSafe(|| {
            service.answer(lost, || {
                assert_eq!(service.drain_queue().len(), 1);
                panic!("drain failed after popping its tickets");
            })
        }));
        assert!(failed.is_err());

        let next = submit(&service, 2);
        let waiter = Arc::clone(&service);
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
        assert!(service.await_ticket(lost).is_none());
    }

    /// An answer filed by one caller's `await_ticket` drain is returned
    /// by the next `drain`, even one that finds the queue empty, and
    /// is then claimed: it is returned once.
    #[test]
    fn drain_returns_answers_an_await_ticket_drain_filed() {
        let service = ScenarioService::with_defaults();
        let (first, second) = (submit(&service, 1), submit(&service, 2));
        let answered = service.await_ticket(first).expect("first is answered");
        assert_eq!(answered.ticket, first);
        assert_eq!(service.stats().queue_depth, 0, "one drain popped both");

        let drained = service.drain();
        assert_eq!(drained.len(), 1, "the filed answer comes back");
        assert_eq!(drained[0].ticket, second);
        assert!(drained[0].served.is_ok());
        assert!(service.drain().is_empty(), "and only once");
        assert!(service.await_ticket(second).is_none());
        assert_eq!(service.stats().drains, 1);
        assert_eq!(service.stats().completed, 2);
    }
}
