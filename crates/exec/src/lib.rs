//! Scoped worker-pool execution primitives.
//!
//! The simulation engine's unit of parallelism is the *water
//! circulation*: circulations are independent (servers interact only
//! through their own CDU), so the engine hands each circulation to a
//! pool of scoped threads as a lane that walks it through every control
//! interval, then merges the per-circulation partial aggregates in
//! circulation-index order. This crate provides that pool as a small
//! reusable primitive built on [`std::thread::scope`] — the workspace
//! builds fully offline, so no rayon.
//!
//! For fleet-scale runs the pool composes with a [`ChunkPlan`]
//! (circulation → chunk → lane): the plan groups whole circulations
//! into memory-bounded chunks, and the pool shards each chunk's
//! circulations across lanes.
//!
//! # Determinism contract
//!
//! [`par_map`] and [`try_par_map`] return results in **input order**,
//! and every element is produced by one call of the supplied function
//! on that element alone. For a deterministic function the output is
//! therefore bit-identical for every worker count, including the
//! spawn-free sequential path taken when one worker (or one item) is
//! requested. [`try_par_map`] reports the error of the
//! **lowest-indexed** failing element, again independent of thread
//! scheduling.
//!
//! # Observability
//!
//! [`try_par_map_observed`] additionally records pool telemetry —
//! tasks per lane, queue wait, busy/idle time, error and panic counts
//! — through a [`PoolTelemetry`] bundle resolved from an
//! `h2p_telemetry::Registry`. Instrumentation is per lane, never per
//! item, and a disabled bundle reduces every observation to a `None`
//! check, so results (and panics, and error selection) are identical
//! with telemetry enabled, disabled, or absent.
//!
//! # Examples
//!
//! ```
//! let workers = h2p_exec::worker_count();
//! let squares = h2p_exec::par_map(workers, &[1, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! let halves: Result<Vec<i64>, i64> = h2p_exec::try_par_map(workers, &[2i64, 4, 6], |_, &x| {
//!     if x % 2 == 0 { Ok(x / 2) } else { Err(x) }
//! });
//! assert_eq!(halves, Ok(vec![1, 2, 3]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
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

mod plan;
mod telemetry;

pub use plan::{ChunkPlan, ChunkSpec, PlanError};
pub use telemetry::PoolTelemetry;

use std::num::NonZeroUsize;

/// An uninhabited error type (stable stand-in for `!`), used to run the
/// fallible machinery infallibly in [`par_map`].
enum Never {}

/// Worker count for CPU-bound sharding: the machine's available
/// parallelism, or 1 if it cannot be queried.
#[must_use]
pub fn worker_count() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// Maps `f` over `items` on up to `workers` scoped threads and returns
/// the results in input order.
///
/// `f` receives each item's index alongside the item. Work is split
/// into contiguous runs, one per worker; when a single worker (or at
/// most one item) is requested the call runs inline without spawning.
pub fn par_map<T, R, F>(workers: NonZeroUsize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    match try_par_map(workers, items, |i, t| Ok::<R, Never>(f(i, t))) {
        Ok(out) => out,
        Err(never) => match never {},
    }
}

/// Fallible [`par_map`]: maps `f` over `items` in parallel, returning
/// the in-order results, or the error of the lowest-indexed failing
/// element.
///
/// All items are evaluated (workers do not observe each other's
/// failures); only the error selection is short-circuited, which keeps
/// the result independent of thread scheduling.
///
/// # Errors
///
/// Returns the first error by item index, if any call of `f` fails.
pub fn try_par_map<T, R, E, F>(workers: NonZeroUsize, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    try_par_map_observed(&PoolTelemetry::disabled(), workers, items, f)
}

/// [`try_par_map`] with pool telemetry: lane sizes, queue wait,
/// busy/idle time, and error/panic counts are recorded through `pool`
/// (see [`PoolTelemetry`]). With a disabled bundle this **is**
/// [`try_par_map`] — same results, same error selection, same panic
/// propagation.
///
/// # Errors
///
/// Returns the first error by item index, if any call of `f` fails.
pub fn try_par_map_observed<T, R, E, F>(
    pool: &PoolTelemetry,
    workers: NonZeroUsize,
    items: &[T],
    f: F,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let n = items.len();
    let lanes = workers.get().min(n);
    if lanes <= 1 {
        let started = pool.now_nanos();
        let out: Result<Vec<R>, E> = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        pool.record_inline(n, started, pool.now_nanos());
        pool.record_errors(usize::from(out.is_err()));
        return out;
    }
    let run = n.div_ceil(lanes);
    let dispatched = pool.now_nanos();
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(run)
            .enumerate()
            .map(|(lane, part)| {
                scope.spawn(move || {
                    let started = pool.now_nanos();
                    let results = part
                        .iter()
                        .enumerate()
                        .map(|(j, t)| f(lane * run + j, t))
                        .collect::<Vec<Result<R, E>>>();
                    let finished = pool.now_nanos();
                    if pool.is_enabled() {
                        pool.record_lane(part.len(), dispatched, started, finished);
                        pool.record_errors(results.iter().filter(|r| r.is_err()).count());
                    }
                    (results, finished)
                })
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        let mut first_err: Option<E> = None;
        let mut finish_times = Vec::with_capacity(if pool.is_enabled() { lanes } else { 0 });
        for handle in handles {
            match handle.join() {
                Ok((results, finished)) => {
                    if pool.is_enabled() {
                        finish_times.push(finished);
                    }
                    if first_err.is_none() {
                        for r in results {
                            match r {
                                Ok(value) => out.push(value),
                                Err(e) => {
                                    // Lowest-indexed error: lanes join in
                                    // order and each lane's results are in
                                    // item order.
                                    first_err = Some(e);
                                    break;
                                }
                            }
                        }
                    }
                }
                // A worker panicking means `f` panicked; re-raise on the
                // caller's thread rather than inventing an error value.
                Err(payload) => {
                    pool.record_panic();
                    std::panic::resume_unwind(payload);
                }
            }
        }
        if pool.is_enabled() {
            let all_joined = pool.now_nanos();
            for finished in finish_times {
                pool.record_lane_idle(finished, all_joined);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count().get() >= 1);
    }

    #[test]
    fn par_map_preserves_order_for_every_worker_count() {
        let items: Vec<usize> = (0..103).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for workers in [1, 2, 3, 4, 7, 16, 200] {
            let got = par_map(nz(workers), &items, |i, &x| {
                assert_eq!(i, x, "index must match item position");
                x * 3 + 1
            });
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<i32> = Vec::new();
        assert!(par_map(nz(4), &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(nz(4), &[9], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn try_par_map_reports_lowest_indexed_error() {
        let items: Vec<usize> = (0..50).collect();
        for workers in [1, 2, 5, 8] {
            let r: Result<Vec<usize>, usize> =
                try_par_map(
                    nz(workers),
                    &items,
                    |i, &x| {
                        if x % 7 == 3 {
                            Err(i)
                        } else {
                            Ok(x)
                        }
                    },
                );
            assert_eq!(r, Err(3), "workers = {workers}");
        }
    }

    #[test]
    fn try_par_map_ok_matches_sequential() {
        let items: Vec<f64> = (0..37).map(|i| f64::from(i) * 0.1).collect();
        let seq: Result<Vec<f64>, ()> = try_par_map(nz(1), &items, |_, &x| Ok(x.sin()));
        let par: Result<Vec<f64>, ()> = try_par_map(nz(6), &items, |_, &x| Ok(x.sin()));
        // Bit-identical: same pure function per element, order-preserving
        // merge.
        assert_eq!(seq, par);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..8).collect();
        let _ = par_map(nz(4), &items, |_, &x| {
            assert!(x < 6, "boom");
            x
        });
    }

    #[test]
    fn observed_map_records_lanes_and_matches_unobserved() {
        let registry = h2p_telemetry::Registry::new();
        let pool = PoolTelemetry::from_registry(&registry);
        assert!(pool.is_enabled());
        let items: Vec<usize> = (0..103).collect();
        let plain: Result<Vec<usize>, ()> = try_par_map(nz(4), &items, |_, &x| Ok(x * 2));
        let observed: Result<Vec<usize>, ()> =
            try_par_map_observed(&pool, nz(4), &items, |_, &x| Ok(x * 2));
        assert_eq!(plain, observed, "observation must not change results");

        let counters: std::collections::BTreeMap<String, u64> =
            registry.counters().into_iter().collect();
        assert_eq!(counters["pool.tasks"], 103);
        assert_eq!(counters["pool.lanes_spawned"], 4);
        assert_eq!(counters["pool.inline_runs"], 0);
        assert_eq!(counters["pool.task_errors"], 0);
        assert_eq!(counters["pool.worker_panics"], 0);

        // Inline path: one item runs without spawning.
        let one: Result<Vec<usize>, ()> = try_par_map_observed(&pool, nz(4), &[7], |_, &x| Ok(x));
        assert_eq!(one, Ok(vec![7]));
        let counters: std::collections::BTreeMap<String, u64> =
            registry.counters().into_iter().collect();
        assert_eq!(counters["pool.inline_runs"], 1);
        assert_eq!(counters["pool.tasks"], 104);
    }

    #[test]
    fn observed_map_counts_errors_without_changing_selection() {
        let registry = h2p_telemetry::Registry::new();
        let pool = PoolTelemetry::from_registry(&registry);
        let items: Vec<usize> = (0..50).collect();
        for workers in [1, 2, 5, 8] {
            let r: Result<Vec<usize>, usize> =
                try_par_map_observed(&pool, nz(workers), &items, |i, &x| {
                    if x % 7 == 3 {
                        Err(i)
                    } else {
                        Ok(x)
                    }
                });
            assert_eq!(r, Err(3), "workers = {workers}");
        }
        let errors = registry
            .counters()
            .into_iter()
            .find(|(n, _)| n == "pool.task_errors")
            .map(|(_, v)| v)
            .unwrap();
        // Parallel lanes evaluate everything (7 failing items per run ×
        // 3 parallel runs); the inline run short-circuits at its first
        // failure, observed as one error.
        assert_eq!(errors, 7 * 3 + 1);
    }

    #[test]
    fn disabled_pool_telemetry_observes_nothing() {
        let pool = PoolTelemetry::from_registry(&h2p_telemetry::Registry::disabled());
        assert!(!pool.is_enabled());
        let items: Vec<usize> = (0..20).collect();
        let r: Result<Vec<usize>, ()> = try_par_map_observed(&pool, nz(3), &items, |_, &x| Ok(x));
        assert_eq!(r, Ok(items.clone()));
        assert_eq!(pool.now_nanos(), 0, "no clock behind a disabled bundle");
    }
}
