//! Pool observability: a [`PoolTelemetry`] bundle resolved once from a
//! [`Registry`](h2p_telemetry::Registry) and threaded through the
//! `*_observed` entry points.
//!
//! Instrumentation is per *lane* (the items one scoped thread claimed
//! and ran), never per item, so the enabled path costs a handful
//! of clock reads and atomic adds per lane — and the disabled path is
//! a `None` check. What is recorded:
//!
//! * `pool.tasks` / `pool.lanes_spawned` / `pool.inline_runs` —
//!   counters of items executed, lanes spawned, and spawn-free
//!   sequential runs;
//! * `pool.task_errors` / `pool.worker_panics` — counters of `Err`
//!   results observed and worker panics re-raised;
//! * `pool.tasks_per_lane` — histogram of lane sizes (items);
//! * `pool.spawn_wait_nanos` — histogram of dispatch-to-start latency
//!   per lane (the pool's "queue wait");
//! * `pool.lane_busy_nanos` / `pool.lane_idle_nanos` — histograms of
//!   per-lane working time and finish-to-join idle time.

use h2p_telemetry::{BucketSpec, Counter, Histogram, Registry};

/// Interior of an enabled [`PoolTelemetry`].
#[derive(Debug, Clone)]
struct PoolInner {
    registry: Registry,
    tasks: Counter,
    lanes_spawned: Counter,
    inline_runs: Counter,
    task_errors: Counter,
    worker_panics: Counter,
    tasks_per_lane: Histogram,
    spawn_wait: Histogram,
    lane_busy: Histogram,
    lane_idle: Histogram,
}

/// Observability handles for the worker pool (see the module docs).
/// Resolve once with [`PoolTelemetry::from_registry`] and reuse across
/// calls; [`PoolTelemetry::disabled`] is free and records nothing.
#[derive(Debug, Clone, Default)]
pub struct PoolTelemetry {
    inner: Option<PoolInner>,
}

impl PoolTelemetry {
    /// Resolves the pool's counters and histograms in `registry`.
    /// Returns the disabled bundle when the registry is disabled.
    #[must_use]
    pub fn from_registry(registry: &Registry) -> Self {
        if !registry.is_enabled() {
            return PoolTelemetry::disabled();
        }
        let durations = BucketSpec::duration_default();
        // 1..=32768 items in doubling buckets covers every realistic
        // lane size; `exponential` cannot fail on these arguments, and
        // the names are crate-internal so the specs can never collide.
        let lane_sizes =
            BucketSpec::exponential(1, 16).unwrap_or_else(|_| BucketSpec::duration_default());
        let hist = |name: &str, spec: &BucketSpec| {
            registry
                .histogram(name, spec)
                .unwrap_or_else(|_| Histogram::disabled())
        };
        PoolTelemetry {
            inner: Some(PoolInner {
                tasks: registry.counter("pool.tasks"),
                lanes_spawned: registry.counter("pool.lanes_spawned"),
                inline_runs: registry.counter("pool.inline_runs"),
                task_errors: registry.counter("pool.task_errors"),
                worker_panics: registry.counter("pool.worker_panics"),
                tasks_per_lane: hist("pool.tasks_per_lane", &lane_sizes),
                spawn_wait: hist("pool.spawn_wait_nanos", &durations),
                lane_busy: hist("pool.lane_busy_nanos", &durations),
                lane_idle: hist("pool.lane_idle_nanos", &durations),
                registry: registry.clone(),
            }),
        }
    }

    /// The no-op bundle: no allocation, no clock reads, no records.
    #[must_use]
    pub fn disabled() -> Self {
        PoolTelemetry { inner: None }
    }

    /// Whether observations are being kept.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Clock reading via the registry (0 when disabled — no syscall).
    #[must_use]
    pub(crate) fn now_nanos(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.registry.now_nanos())
    }

    /// Records a spawn-free sequential run of `items` tasks, with its
    /// working time going to the busy histogram (an inline run has no
    /// spawn wait and no idle tail).
    pub(crate) fn record_inline(&self, items: usize, started: u64, finished: u64) {
        if let Some(inner) = &self.inner {
            inner.inline_runs.incr();
            inner.tasks.add(as_u64(items));
            inner.tasks_per_lane.record(as_u64(items));
            inner.lane_busy.record(finished.saturating_sub(started));
        }
    }

    /// Records one completed lane: its size and its dispatch/start/
    /// finish timeline.
    pub(crate) fn record_lane(&self, items: usize, spawned: u64, started: u64, finished: u64) {
        if let Some(inner) = &self.inner {
            inner.lanes_spawned.incr();
            inner.tasks.add(as_u64(items));
            inner.tasks_per_lane.record(as_u64(items));
            inner.spawn_wait.record(started.saturating_sub(spawned));
            inner.lane_busy.record(finished.saturating_sub(started));
        }
    }

    /// Records a lane's finish-to-join idle gap.
    pub(crate) fn record_lane_idle(&self, finished: u64, all_joined: u64) {
        if let Some(inner) = &self.inner {
            inner.lane_idle.record(all_joined.saturating_sub(finished));
        }
    }

    /// Records `n` task-level `Err` results.
    pub(crate) fn record_errors(&self, n: usize) {
        if let Some(inner) = &self.inner {
            if n > 0 {
                inner.task_errors.add(as_u64(n));
            }
        }
    }

    /// Records one worker panic (observed at join, before re-raising).
    pub(crate) fn record_panic(&self) {
        if let Some(inner) = &self.inner {
            inner.worker_panics.incr();
        }
    }
}

/// Counts as u64 without `as` (usize always fits on supported targets;
/// saturate rather than wrap if it ever does not).
fn as_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}
