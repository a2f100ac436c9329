//! # h2p-gateway — the HTTP front door and scale-out layer
//!
//! Grows the single-process [`h2p_serve`] layer into a horizontally
//! sharded service (DESIGN.md §15, ROADMAP item 3):
//!
//! * [`http`] — a hand-rolled, zero-dependency, incremental HTTP/1.1
//!   parser and response writer (split-read safe, keep-alive aware,
//!   with hard head/body limits mapped to 400/413/431);
//! * [`gateway`] — N shard-local [`ScenarioService`] replicas behind
//!   one [`Gateway`]: each scenario key routes by its hash modulo the
//!   replica count, so LRU caching and in-flight coalescing stay
//!   shard-local, each request waits on its replica for its own
//!   ticket, rejections map to 429/503, a panicking request answers
//!   500, and a bounded `std::sync::mpsc::sync_channel` hands accepted
//!   connections to a fixed worker pool;
//! * [`loadgen`] — an open-loop (coordinated-omission-free),
//!   Zipf-over-scenarios load generator reporting p50/p99/p999 from
//!   `h2p-telemetry` histograms.
//!
//! **Transparency invariant**: the body served for a scenario over
//! HTTP is byte-identical to [`direct_canonical_body`] for the same
//! request — any replica count, any cache state, any connection
//! (pinned by `tests/gateway_transparency.rs`).
//!
//! The `h2p-gatewayd` binary serves the gateway on a TCP address;
//! `h2p-loadgen` replays load against one and reports tail latency.
//!
//! [`ScenarioService`]: h2p_serve::ScenarioService

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Lock-order manifest (h2p-lint L10): `conns`, the request workers'
// shared end of the connection channel, is a leaf lock, released
// before a worker serves the connection it received.
// h2p-lint: lock-order: conns
// Test code opts back into panicking asserts/unwraps.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::float_cmp,
        clippy::cast_possible_truncation
    )
)]

pub mod gateway;
pub mod http;
pub mod loadgen;

pub use gateway::{canonical_body, direct_canonical_body, Gateway, GatewayConfig};
pub use http::{HttpError, HttpLimits, Request, RequestParser, Response};
pub use loadgen::{LoadPlan, LoadReport, ZipfSampler};
