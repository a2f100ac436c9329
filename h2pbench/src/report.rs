//! What a workload run hands back: operation counts, metrics, checks,
//! and the human-readable lines printed above the result line.

use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

use crate::spans::SpanLog;

/// Run-wide settings shared by every workload.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Engine worker count for the workloads that use every core.
    pub workers: NonZeroUsize,
    pub spans: SpanLog,
}

impl Ctx {
    /// A deadline `seconds` from now.
    #[must_use]
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }

    /// The same settings with span recording off.
    #[must_use]
    pub fn quiet(&self) -> Ctx {
        Ctx {
            seed: self.seed,
            seconds: self.seconds,
            traced: self.traced,
            workers: self.workers,
            spans: SpanLog::new(false),
        }
    }

    /// True at the default seed, where stored digests apply.
    #[must_use]
    pub fn default_seed(&self) -> bool {
        self.seed == crate::EXPERIMENT_SEED
    }
}

/// `splitmix64` step: the benchmark's own seeded stream, from which
/// every workload derives its inputs.
#[must_use]
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A workload's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: runs, placements, requests.
    pub attempted: u64,
    /// Operations that failed: engine errors, rejected jobs, non-200
    /// responses, transport errors.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failed output checks, one message each.
    pub failures: Vec<String>,
    /// `VmHWM` once set-up and the first timed repetition are done
    /// (see [`Outcome::mark_peak_rss`]).
    pub peak_rss_mib: Option<f64>,
}

impl Outcome {
    /// Records a metric and prints it as a human-readable line.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        println!("  {name:<44} {value:>16.6} {unit}");
        self.metrics.push(Metric { name, value, unit });
    }

    /// Prints a value that is not part of the result line.
    pub fn note(&self, name: &str, value: f64, unit: &str) {
        println!("  {name:<44} {value:>16.6} {unit}");
    }

    /// Takes the process's peak resident memory the first time it is
    /// called. Workloads call it once set-up and the first timed
    /// repetition are done: later repetitions repeat the same work, and
    /// what they add to the high-water mark is allocator fragmentation
    /// across repetitions (it varied 46-56 MiB between identical
    /// fleet runs), not the workload's footprint.
    pub fn mark_peak_rss(&mut self) {
        if self.peak_rss_mib.is_none() {
            self.peak_rss_mib = crate::host::peak_rss_mib();
        }
    }

    /// Records an output check; a failing check makes the run
    /// incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let message = what();
            println!("  CHECK FAILED: {message}");
            self.failures.push(message);
        }
    }

    /// Records the digest comparison (default seed only).
    pub fn check_digests(&mut self, ctx: &Ctx, got: &[(String, u64)]) {
        if !ctx.default_seed() {
            return;
        }
        for message in crate::digest::mismatches(got, crate::digests::STORED) {
            self.check(false, || message);
        }
        println!("  digests checked: {}", got.len());
    }

    /// The value of a recorded metric.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// One timed repetition: its wall time, the CPU time the process used
/// meanwhile, and the work it did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub work: f64,
}

/// Runs `f`, a repetition doing `work` units, and measures it.
pub fn measured<R>(work: f64, f: impl FnOnce() -> R) -> (R, Rep) {
    let cpu0 = crate::host::process_cpu_s().unwrap_or(0.0);
    let (out, wall_s) = timed(f);
    let cpu_s = crate::host::process_cpu_s().unwrap_or(0.0) - cpu0;
    (
        out,
        Rep {
            wall_s,
            cpu_s,
            work,
        },
    )
}

/// Runs `f` and returns its result with the elapsed wall seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Runs a set-up `reps` times and returns the last repetition's
/// product (the one the timed run uses) with the set-up's measurements.
pub fn repeated_setup<R>(reps: usize, mut setup: impl FnMut() -> R) -> (R, Vec<Rep>) {
    let mut measurements = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (product, rep) = measured(0.0, &mut setup);
        measurements.push(rep);
        last = Some(product);
    }
    let product = last.expect("at least one set-up repetition ran");
    (product, measurements)
}

impl Outcome {
    /// `setup_s`: the median CPU time of the set-up repetitions (all
    /// threads), for the reason `work_per_cpu_s` is per CPU-second. The
    /// median wall time is printed beside it.
    pub fn setup(&mut self, reps: &[Rep]) {
        let wall: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
        let cpu: Vec<f64> = reps.iter().map(|r| r.cpu_s).collect();
        self.note("set-up repetitions", reps.len() as f64, "count");
        self.note(
            "setup wall",
            crate::stats::median(&wall).unwrap_or(0.0),
            "s",
        );
        self.metric("setup_s", crate::stats::median(&cpu).unwrap_or(0.0), "s");
    }
}
