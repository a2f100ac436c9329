//! Scoped worker-pool execution primitives.
//!
//! The simulation engine's unit of parallelism is the *water
//! circulation*: circulations are independent (servers interact only
//! through their own CDU), so the engine hands each circulation to a
//! pool of scoped threads as a lane that walks it through every control
//! interval, and folds the per-circulation partial aggregates in
//! circulation-index order as the lanes finish. This crate provides
//! that pool as a small reusable primitive built on
//! [`std::thread::scope`] — the workspace builds fully offline, so no
//! rayon.
//!
//! # The ordered fold
//!
//! [`try_par_fold`] is the one body behind every entry point. Workers
//! claim items in index order; a finished result is absorbed once every
//! lower-indexed result has been; and no worker starts item `i` until
//! `i < absorbed + window`. At most `window` results therefore wait
//! finished but unabsorbed, however many items there are, so a caller
//! whose absorb step folds each result away holds memory bounded by
//! its window, not by its input. [`par_map`] is the fold collecting
//! into a `Vec`, with a window as large as the input: a `Vec` of every
//! result bounds nothing, and a smaller window would only stall
//! workers.
//!
//! For fleet-scale runs the pool composes with a [`ChunkPlan`]
//! (circulation → chunk → lane): the plan groups whole circulations
//! into chunks whose start states are recorded one chunk at a time,
//! and the fold runs each chunk's circulations as lanes.
//!
//! # Determinism contract
//!
//! [`try_par_fold`] absorbs results in **input order**, and
//! [`par_map`] returns them in input order; every result is produced
//! by one call of the supplied function on that element alone. For a
//! deterministic function the output is therefore bit-identical for
//! every worker count and window, including the spawn-free sequential
//! path taken when one worker (or one item) is requested. A failing
//! fold reports the error of the **lowest-indexed** failing element,
//! again independent of thread scheduling.
//!
//! # Observability
//!
//! [`try_par_fold`] records pool telemetry — tasks per lane, queue
//! wait, busy/idle time, error and panic counts — through a
//! [`PoolTelemetry`] bundle resolved from an `h2p_telemetry::Registry`.
//! Instrumentation is per lane, never per item, and a disabled bundle
//! reduces every observation to a `None` check, so results (and
//! panics, and error selection) are identical with telemetry enabled,
//! disabled, or absent.
//!
//! # Examples
//!
//! ```
//! use std::num::NonZeroUsize;
//!
//! let workers = h2p_exec::worker_count();
//! let squares = h2p_exec::par_map(workers, &[1, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // A running sum folds each result away: at most two results wait.
//! let mut sum = 0;
//! let pool = h2p_exec::PoolTelemetry::disabled();
//! let window = NonZeroUsize::new(2).unwrap();
//! let done: Result<(), ()> =
//!     h2p_exec::try_par_fold(&pool, workers, window, &[1, 2, 3], |_, &x| Ok(x), |_, x| sum += x);
//! assert_eq!((done, sum), (Ok(()), 6));
//!
//! // The lowest-indexed error wins, whichever worker met it first.
//! let halves: Result<(), i64> = h2p_exec::try_par_fold(
//!     &pool,
//!     workers,
//!     window,
//!     &[2i64, 3, 5],
//!     |_, &x| if x % 2 == 0 { Ok(x / 2) } else { Err(x) },
//!     |_, _| {},
//! );
//! assert_eq!(halves, Err(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Lock-order manifest (h2p-lint L10). `fold` is a parallel fold's one
// lock, a leaf: nothing else is acquired while it is held.
// h2p-lint: lock-order: fold
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

use std::any::Any;
use std::collections::VecDeque;
use std::convert::Infallible;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Worker count for CPU-bound sharding: the machine's available
/// parallelism, or 1 if it cannot be queried.
#[must_use]
pub fn worker_count() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// Maps `f` over `items` on up to `workers` scoped threads and returns
/// the results in input order.
///
/// `f` receives each item's index alongside the item. This is
/// [`try_par_fold`] collecting into a `Vec`, with a window as large as
/// the input and no telemetry: workers claim items in index order, a
/// panic in `f` is re-raised on the caller, and when a single worker
/// (or at most one item) is requested the call runs inline without
/// spawning.
pub fn par_map<T, R, F>(workers: NonZeroUsize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    let window = NonZeroUsize::new(items.len()).unwrap_or(NonZeroUsize::MIN);
    let Ok(()) = try_par_fold(
        &PoolTelemetry::disabled(),
        workers,
        window,
        items,
        |i, t| Ok::<R, Infallible>(f(i, t)),
        |_, r| out.push(r),
    );
    out
}

/// Folds `f` over `items` on up to `workers` scoped threads, handing
/// each result and its index to `absorb` in input order.
///
/// Workers claim items in index order. A finished result is absorbed
/// once every lower-indexed result has been, by whichever worker
/// completes that prefix, and no worker starts item `i` until
/// `i < absorbed + window`: at most `window` results are ever finished
/// but unabsorbed. When a single worker (or at most one item) is
/// requested the fold runs inline without spawning, absorbing each
/// result as soon as it is made and stopping at the first error.
///
/// In parallel every item is evaluated (workers do not observe each
/// other's failures), and results after the lowest-indexed error are
/// dropped without being absorbed. A panic in `f` or `absorb` stops
/// further claims, wakes every worker waiting on the window, and is
/// re-raised on the caller once every worker has returned.
///
/// Pool telemetry — items per lane, spawn wait, busy and idle time,
/// errors and panics — is recorded through `pool` (see
/// [`PoolTelemetry`]); a disabled bundle records nothing and changes
/// no result, error or panic.
///
/// # Errors
///
/// Returns the first error by item index, if any call of `f` fails.
pub fn try_par_fold<T, R, E, F, A>(
    pool: &PoolTelemetry,
    workers: NonZeroUsize,
    window: NonZeroUsize,
    items: &[T],
    f: F,
    mut absorb: A,
) -> Result<(), E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
    A: FnMut(usize, R) + Send,
{
    let n = items.len();
    let lanes = workers.get().min(n);
    if lanes <= 1 {
        let started = pool.now_nanos();
        let out = items
            .iter()
            .enumerate()
            .try_for_each(|(i, t)| f(i, t).map(|r| absorb(i, r)));
        pool.record_inline(n, started, pool.now_nanos());
        pool.record_errors(usize::from(out.is_err()));
        return out;
    }
    let fold = Fold::new(window.get().min(n), absorb);
    let dispatched = pool.now_nanos();
    let finish_times: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|_| {
                scope.spawn(|| {
                    let started = pool.now_nanos();
                    let (ran, errors) = fold.work(items, &f);
                    let finished = pool.now_nanos();
                    if pool.is_enabled() {
                        pool.record_lane(ran, dispatched, started, finished);
                        pool.record_errors(errors);
                    }
                    finished
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload))
            })
            .collect()
    });
    let state = fold
        .fold
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    // A panicking `f` or `absorb` re-raises on the caller's thread
    // rather than inventing an error value.
    if let Some((_, payload)) = state.panic {
        pool.record_panic();
        resume_unwind(payload);
    }
    if pool.is_enabled() {
        let all_joined = pool.now_nanos();
        for finished in finish_times {
            pool.record_lane_idle(finished, all_joined);
        }
    }
    state.error.map_or(Ok(()), Err)
}

/// A parallel [`try_par_fold`]'s shared state and its wake-up signal.
struct Fold<R, E, A> {
    window: usize,
    fold: Mutex<FoldState<R, E, A>>,
    /// Notified when the absorbed prefix grows and when a panic
    /// abandons the fold.
    advanced: Condvar,
}

/// What the workers of one fold share, under its lock.
struct FoldState<R, E, A> {
    /// The next item to claim.
    next: usize,
    /// Items `0..absorbed` are done: absorbed, or dropped after the
    /// lowest-indexed error.
    absorbed: usize,
    /// The results of items `absorbed..next`, `None` while an item
    /// runs. Claims stop at `absorbed + window`, so this reorder
    /// buffer never holds more than `window` entries.
    pending: VecDeque<Option<Result<R, E>>>,
    absorb: A,
    /// The lowest-indexed error.
    error: Option<E>,
    /// The lowest-indexed panic of `f` or `absorb`, with its item.
    panic: Option<(usize, Box<dyn Any + Send>)>,
}

impl<R, E, A: FnMut(usize, R)> Fold<R, E, A> {
    fn new(window: usize, absorb: A) -> Self {
        Fold {
            window,
            fold: Mutex::new(FoldState {
                next: 0,
                absorbed: 0,
                // h2p-lint: allow(L7): claims stop at `absorbed + window`, so it never outgrows the window
                pending: VecDeque::with_capacity(window),
                absorb,
                error: None,
                panic: None,
            }),
            advanced: Condvar::new(),
        }
    }

    /// Every panic of `f` and `absorb` is caught before it can unwind
    /// through a guard, so the lock is never poisoned by the fold's
    /// callers, and recovering the state is sound.
    fn lock(&self) -> MutexGuard<'_, FoldState<R, E, A>> {
        self.fold.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One worker: claims, runs and deposits items until none is left
    /// or a panic abandons the fold. Returns the items it ran and the
    /// errors among them.
    fn work<T, F>(&self, items: &[T], f: &F) -> (usize, usize)
    where
        F: Fn(usize, &T) -> Result<R, E>,
    {
        let (mut ran, mut errors) = (0, 0);
        let mut state = self.lock();
        loop {
            while state.panic.is_none()
                && state.next < items.len()
                && state.next >= state.absorbed + self.window
            {
                state = self
                    .advanced
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if state.panic.is_some() || state.next >= items.len() {
                return (ran, errors);
            }
            let i = state.next;
            state.next += 1;
            state.pending.push_back(None);
            drop(state);
            let result = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])));
            ran += 1;
            state = self.lock();
            match result {
                Ok(result) => {
                    errors += usize::from(result.is_err());
                    if state.deposit(i, result) {
                        self.advanced.notify_all();
                    }
                }
                Err(payload) => {
                    state.note_panic(i, payload);
                    self.advanced.notify_all();
                }
            }
        }
    }
}

impl<R, E, A: FnMut(usize, R)> FoldState<R, E, A> {
    /// Stores item `i`'s result, then absorbs the longest finished
    /// prefix in index order. Returns whether the prefix grew.
    fn deposit(&mut self, i: usize, result: Result<R, E>) -> bool {
        if let Some(slot) = self.pending.get_mut(i - self.absorbed) {
            *slot = Some(result);
        }
        let before = self.absorbed;
        while let Some(slot) = self.pending.front_mut() {
            let Some(result) = slot.take() else {
                break;
            };
            self.pending.pop_front();
            let index = self.absorbed;
            self.absorbed += 1;
            match result {
                Ok(value) if self.error.is_none() && self.panic.is_none() => {
                    let absorb = &mut self.absorb;
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| absorb(index, value))) {
                        self.note_panic(index, payload);
                    }
                }
                Ok(_) => {}
                Err(e) => {
                    self.error.get_or_insert(e);
                }
            }
        }
        self.absorbed > before
    }

    /// Keeps the lowest-indexed panic; the fold stops claiming.
    fn note_panic(&mut self, i: usize, payload: Box<dyn Any + Send>) {
        if self.panic.as_ref().is_none_or(|(seen, _)| i < *seen) {
            self.panic = Some((i, payload));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

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
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..8).collect();
        let _ = par_map(nz(4), &items, |_, &x| {
            assert!(x < 6, "boom");
            x
        });
    }

    /// A fold through `pool` collecting every result in input order, or
    /// the fold's error: a map over `items`, observed by `pool`.
    fn observed_map<E: Send>(
        pool: &PoolTelemetry,
        workers: usize,
        items: &[usize],
        f: impl Fn(usize, &usize) -> Result<usize, E> + Sync,
    ) -> Result<Vec<usize>, E> {
        let mut out = Vec::new();
        let window = nz(items.len().max(1));
        try_par_fold(pool, nz(workers), window, items, f, |_, r| out.push(r))?;
        Ok(out)
    }

    #[test]
    fn observed_map_records_lanes_and_matches_unobserved() {
        let registry = h2p_telemetry::Registry::new();
        let pool = PoolTelemetry::from_registry(&registry);
        assert!(pool.is_enabled());
        let items: Vec<usize> = (0..103).collect();
        let plain: Result<Vec<usize>, ()> =
            observed_map(&PoolTelemetry::disabled(), 4, &items, |_, &x| Ok(x * 2));
        let observed: Result<Vec<usize>, ()> = observed_map(&pool, 4, &items, |_, &x| Ok(x * 2));
        assert_eq!(plain, observed, "observation must not change results");

        let counters: std::collections::BTreeMap<String, u64> =
            registry.counters().into_iter().collect();
        assert_eq!(counters["pool.tasks"], 103);
        assert_eq!(counters["pool.lanes_spawned"], 4);
        assert_eq!(counters["pool.inline_runs"], 0);
        assert_eq!(counters["pool.task_errors"], 0);
        assert_eq!(counters["pool.worker_panics"], 0);

        // Inline path: one item runs without spawning.
        let one: Result<Vec<usize>, ()> = observed_map(&pool, 4, &[7], |_, &x| Ok(x));
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
            let r = observed_map(&pool, workers, &items, |i, &x| {
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
        let r: Result<Vec<usize>, ()> = observed_map(&pool, 3, &items, |_, &x| Ok(x));
        assert_eq!(r, Ok(items.clone()));
        assert_eq!(pool.now_nanos(), 0, "no clock behind a disabled bundle");
    }

    /// Item counts for the fold tests: the largest shrinks under Miri,
    /// which interprets every spawned worker.
    const FOLD_ITEMS: [usize; 4] = [0, 1, 2, if cfg!(miri) { 13 } else { 103 }];

    /// Runs an infallible fold that records what it absorbed, and the
    /// most results ever finished but not yet absorbed, counted when
    /// `f` finishes an item and when `absorb` takes one.
    fn recorded_fold(
        workers: usize,
        window: usize,
        items: &[usize],
    ) -> (Vec<(usize, usize)>, usize) {
        let waiting = AtomicUsize::new(0);
        let most = AtomicUsize::new(0);
        let mut absorbed = Vec::new();
        let done: Result<(), ()> = try_par_fold(
            &PoolTelemetry::disabled(),
            nz(workers),
            nz(window),
            items,
            |i, &x| {
                assert_eq!(i, x, "index must match item position");
                let now = waiting.fetch_add(1, Ordering::SeqCst) + 1;
                most.fetch_max(now, Ordering::SeqCst);
                Ok(x * 3 + 1)
            },
            |i, r| {
                waiting.fetch_sub(1, Ordering::SeqCst);
                absorbed.push((i, r));
            },
        );
        assert_eq!(done, Ok(()));
        (absorbed, most.load(Ordering::SeqCst))
    }

    #[test]
    fn fold_absorbs_every_result_in_input_order() {
        for workers in [1, 2, 3, 7] {
            for n in FOLD_ITEMS {
                let items: Vec<usize> = (0..n).collect();
                let expect: Vec<(usize, usize)> = items.iter().map(|&x| (x, x * 3 + 1)).collect();
                for window in [1, 2, 8] {
                    let (absorbed, _) = recorded_fold(workers, window, &items);
                    assert_eq!(
                        absorbed, expect,
                        "workers {workers}, items {n}, window {window}"
                    );
                }
            }
        }
    }

    #[test]
    fn fold_never_holds_more_than_its_window() {
        for workers in [1, 2, 3, 7] {
            for n in FOLD_ITEMS {
                let items: Vec<usize> = (0..n).collect();
                for window in [1, 2, 8] {
                    let (_, most) = recorded_fold(workers, window, &items);
                    assert!(
                        most <= window,
                        "{most} results waited at workers {workers}, items {n}, window {window}"
                    );
                }
            }
        }
    }

    #[test]
    fn fold_returns_the_lowest_error_and_absorbs_nothing_from_it_on() {
        let n = FOLD_ITEMS[3];
        let items: Vec<usize> = (0..n).collect();
        for workers in [1, 2, 3, 7] {
            for window in [1, 2, 8] {
                let ran = AtomicUsize::new(0);
                let mut absorbed = Vec::new();
                let done = try_par_fold(
                    &PoolTelemetry::disabled(),
                    nz(workers),
                    nz(window),
                    &items,
                    |i, &x| {
                        ran.fetch_add(1, Ordering::SeqCst);
                        if x % 7 == 3 {
                            Err(i)
                        } else {
                            Ok(x)
                        }
                    },
                    |i, _| absorbed.push(i),
                );
                let at = format!("workers {workers}, window {window}");
                assert_eq!(done, Err(3), "{at}");
                assert_eq!(absorbed, vec![0, 1, 2], "{at}");
                // In parallel every item still runs; inline, the first
                // error ends the fold.
                let expect_ran = if workers == 1 { 4 } else { n };
                assert_eq!(ran.load(Ordering::SeqCst), expect_ran, "{at}");
            }
        }
    }

    /// Runs `fold` on its own thread and waits at most a minute for it:
    /// a worker left blocked on the window would hang the fold, not
    /// fail it. Returns the panic message the fold re-raised.
    fn panic_message_within_a_minute(fold: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let raised = catch_unwind(AssertUnwindSafe(fold)).err().map(|payload| {
                payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default()
            });
            let _ = tx.send(raised);
        });
        let raised = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a fold whose item panicked must return to its caller");
        handle.join().unwrap();
        raised.expect("the panic must re-raise on the caller")
    }

    #[test]
    fn a_panicking_item_re_raises_and_blocks_no_worker() {
        for workers in [2, 3, 7] {
            for window in [1, 2] {
                // Item 1 panics while later claims wait on the window
                // for it to be absorbed.
                let message = panic_message_within_a_minute(move || {
                    let items: Vec<usize> = (0..20).collect();
                    let _ = try_par_fold(
                        &PoolTelemetry::disabled(),
                        nz(workers),
                        nz(window),
                        &items,
                        |_, &x| {
                            assert!(x != 1, "boom at item {x}");
                            Ok::<usize, ()>(x)
                        },
                        |_, _| {},
                    );
                });
                assert_eq!(
                    message, "boom at item 1",
                    "workers {workers}, window {window}"
                );
            }
        }
    }

    #[test]
    fn a_panicking_absorb_re_raises_and_blocks_no_worker() {
        for workers in [2, 3, 7] {
            let message = panic_message_within_a_minute(move || {
                let items: Vec<usize> = (0..20).collect();
                let _ = try_par_fold(
                    &PoolTelemetry::disabled(),
                    nz(workers),
                    nz(1),
                    &items,
                    |_, &x| Ok::<usize, ()>(x),
                    |i, _| assert!(i != 2, "absorb failed at item {i}"),
                );
            });
            assert_eq!(message, "absorb failed at item 2", "workers {workers}");
        }
    }
}
