//! # h2p-serve — the simulation-serving layer
//!
//! Turns the one-shot [`Simulator`](h2p_core::simulation::Simulator)
//! into a concurrent scenario service (DESIGN.md §11): typed
//! [`ScenarioRequest`]s with canonical content-addressed keys, a
//! [`BoundedQueue`] with explicit backpressure, an LRU [`ResultCache`]
//! over whole outcomes, and a [`ScenarioService`] scheduler that
//! coalesces duplicate in-flight requests, dispatches distinct
//! scenarios across the `h2p-exec` worker pool, all on one engine
//! (cloned for scenarios of another shape), and answers each waiting
//! caller its own ticket. The `h2p-served` binary wraps the service in
//! a JSONL stdin/stdout daemon; [`protocol`] renders a served outcome
//! the one way both it and the HTTP gateway print it.
//!
//! **Serving invariant**: a scenario served through this layer returns
//! bit-identical results to a direct engine call with the same inputs
//! — cached or uncached, coalesced or not, at any worker count
//! (pinned by `tests/serve_transparency.rs`).
//!
//! ```
//! use h2p_serve::{
//!     Admission, PolicyKind, ScenarioRequest, ScenarioService, TraceSpec,
//! };
//! use h2p_workload::TraceKind;
//!
//! let service = ScenarioService::with_defaults();
//! let request = ScenarioRequest::new(
//!     TraceSpec { kind: TraceKind::Common, seed: 42, servers: 40, steps: 6 },
//!     PolicyKind::LoadBalance,
//! );
//! // Duplicates coalesce onto one engine run.
//! let first = service.submit(request.clone());
//! let second = service.submit(request);
//! assert!(matches!(first, Admission::Enqueued { .. }));
//! assert!(matches!(second, Admission::Enqueued { .. }));
//! let responses = service.drain();
//! assert_eq!(responses.len(), 2);
//! assert_eq!(service.stats().runs_executed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `!(x > 0.0)`-style NaN-rejecting guards are idiomatic here.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// Lock-order manifest (h2p-lint L10). `answers`, the map of unclaimed
// ticket answers, serializes drains and is held across the tenant and
// cache critical sections; `tenants` is held across the queue push in
// `submit`; the queue (`inner`) and the result cache are leaf locks,
// never held while acquiring another.
// h2p-lint: lock-order: answers, tenants, inner, cache
// Test code opts back into panicking asserts/unwraps (see [workspace.lints]).
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::float_cmp,
        clippy::cast_lossless,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )
)]

pub mod cache;
pub mod protocol;
pub mod queue;
pub mod request;
pub mod service;

pub use cache::{ResultCache, ResultCacheStats};
pub use queue::{BoundedQueue, QueueFull};
pub use request::{BuiltPolicy, PolicyKind, RunGeometry, ScenarioKey, ScenarioRequest, TraceSpec};
pub use service::{
    Admission, Provenance, RejectReason, RunOutput, ScenarioService, ServeError, ServeStats,
    ServedScenario, ServiceConfig, TicketId, TicketResponse, SERVE_REJECTED_EVENT,
};
