//! Seeded synthetic trace generators for the three paper workloads.
//!
//! Each per-server series is the sum of three components, clamped into
//! `\[0, 1\]`:
//!
//! 1. a **diurnal baseline** — a sinusoid with per-server mean, amplitude
//!    and phase (user-facing load peaks once a day);
//! 2. **mean-reverting noise** — a discrete Ornstein-Uhlenbeck process
//!    whose volatility distinguishes the classes;
//! 3. **bursts** — Bernoulli-arriving load spikes with geometric
//!    duration (the "occasional high peaks" of Irregular, frequent in
//!    Drastic, absent in Common).

use crate::trace::{ClusterTrace, Trace};
use h2p_units::Seconds;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::num::NonZeroUsize;

/// Which paper workload class to synthesize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Alibaba-like: drastic, frequent fluctuations (12 h, 1,313
    /// servers).
    Drastic,
    /// Google-like with occasional high peaks (24 h, 1,000 servers).
    Irregular,
    /// Google-like with very little fluctuation (24 h, 1,000 servers).
    Common,
}

impl TraceKind {
    /// The paper's server count for this class.
    #[must_use]
    pub fn paper_servers(self) -> usize {
        match self {
            TraceKind::Drastic => 1313,
            TraceKind::Irregular | TraceKind::Common => 1000,
        }
    }

    /// The paper's covered duration for this class.
    #[must_use]
    pub fn paper_duration(self) -> Seconds {
        match self {
            TraceKind::Drastic => Seconds::hours(12.0),
            TraceKind::Irregular | TraceKind::Common => Seconds::hours(24.0),
        }
    }

    /// Short lowercase name (`drastic`, `irregular`, `common`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Drastic => "drastic",
            TraceKind::Irregular => "irregular",
            TraceKind::Common => "common",
        }
    }

    /// All three classes, in the paper's presentation order.
    #[must_use]
    pub fn all() -> [TraceKind; 3] {
        [TraceKind::Drastic, TraceKind::Irregular, TraceKind::Common]
    }
}

impl core::fmt::Display for TraceKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Burst (load-spike) statistics of a generator profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstProfile {
    /// Per-step probability that a burst starts.
    pub start_probability: f64,
    /// Per-step probability that an active burst ends (geometric
    /// duration with mean `1/end_probability` steps).
    pub end_probability: f64,
    /// Additive burst height range (uniform).
    pub height: (f64, f64),
}

/// Full statistical profile of a workload class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorProfile {
    /// Range of per-server baseline means (uniform).
    pub mean: (f64, f64),
    /// Diurnal amplitude range (uniform).
    pub diurnal_amplitude: (f64, f64),
    /// OU mean-reversion rate per step.
    pub reversion: f64,
    /// OU per-step innovation standard deviation.
    pub sigma: f64,
    /// Innovation standard deviation of the *shared* cluster-wide OU
    /// component (real clusters co-fluctuate: user demand hits every
    /// server at once — this is what makes the cluster-level series of
    /// Fig. 14a swing rather than averaging flat).
    pub shared_sigma: f64,
    /// Amplitude of the shared diurnal component (common phase).
    pub shared_diurnal_amplitude: f64,
    /// Burst behaviour; `None` for burst-free classes.
    pub bursts: Option<BurstProfile>,
}

impl GeneratorProfile {
    /// The calibrated profile for a paper workload class.
    #[must_use]
    pub fn for_kind(kind: TraceKind) -> Self {
        // Calibration note: the mean bands place each class's U_avg and
        // (for 40-server circulations) U_max at the control utilizations
        // that reproduce the paper's Fig. 14 per-policy averages — see
        // EXPERIMENTS.md. The volatility/burst structure carries each
        // class's qualitative shape.
        match kind {
            // High-volatility, frequently bursting, lowest baseline —
            // Alibaba's shape.
            TraceKind::Drastic => GeneratorProfile {
                mean: (0.16, 0.36),
                diurnal_amplitude: (0.04, 0.08),
                reversion: 0.50,
                sigma: 0.060,
                shared_sigma: 0.045,
                shared_diurnal_amplitude: 0.02,
                bursts: Some(BurstProfile {
                    start_probability: 0.010,
                    end_probability: 0.40,
                    height: (0.10, 0.22),
                }),
            },
            // Calm baseline with rare tall peaks.
            TraceKind::Irregular => GeneratorProfile {
                mean: (0.22, 0.42),
                diurnal_amplitude: (0.04, 0.08),
                reversion: 0.30,
                sigma: 0.012,
                shared_sigma: 0.008,
                shared_diurnal_amplitude: 0.03,
                bursts: Some(BurstProfile {
                    start_probability: 0.0006,
                    end_probability: 0.125,
                    height: (0.30, 0.50),
                }),
            },
            // Calm, burst-free, highest baseline.
            TraceKind::Common => GeneratorProfile {
                mean: (0.33, 0.53),
                diurnal_amplitude: (0.03, 0.06),
                reversion: 0.30,
                sigma: 0.010,
                shared_sigma: 0.006,
                shared_diurnal_amplitude: 0.03,
                bursts: None,
            },
        }
    }
}

/// Deterministic synthetic-trace generator.
///
/// ```
/// use h2p_workload::{TraceGenerator, TraceKind};
///
/// let a = TraceGenerator::paper(TraceKind::Drastic, 7).generate();
/// let b = TraceGenerator::paper(TraceKind::Drastic, 7).generate();
/// assert_eq!(a, b); // bit-for-bit reproducible
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceGenerator {
    kind: TraceKind,
    servers: usize,
    steps: usize,
    interval: Seconds,
    seed: u64,
}

/// The paper's control interval (Sec. V-B1: "each time interval t
/// (e.g., 5 minutes)").
pub(crate) const PAPER_INTERVAL_MINUTES: f64 = 5.0;

impl TraceGenerator {
    /// A generator matching the paper's setup for the given class:
    /// paper server count, paper duration, 5-minute sampling.
    #[must_use]
    pub fn paper(kind: TraceKind, seed: u64) -> Self {
        let interval = Seconds::minutes(PAPER_INTERVAL_MINUTES);
        // Paper durations are hours at 5-minute sampling: a small,
        // positive, finite step count.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let steps = (kind.paper_duration().value() / interval.value()).round() as usize;
        TraceGenerator {
            kind,
            servers: kind.paper_servers(),
            steps,
            interval,
            seed,
        }
    }

    /// Overrides the number of servers (e.g. scaled-down experiments).
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    #[must_use]
    pub fn with_servers(mut self, servers: usize) -> Self {
        assert!(servers > 0, "need at least one server");
        self.servers = servers;
        self
    }

    /// Overrides the number of time steps.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    #[must_use]
    pub fn with_steps(mut self, steps: usize) -> Self {
        assert!(steps > 0, "need at least one step");
        self.steps = steps;
        self
    }

    /// The workload class.
    #[must_use]
    pub fn kind(&self) -> TraceKind {
        self.kind
    }

    /// Number of servers the generator will synthesize.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Number of time steps per server series.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The sampling interval.
    #[must_use]
    pub fn interval(&self) -> Seconds {
        self.interval
    }

    /// Generates the cluster trace (one shard covering every server).
    #[must_use]
    pub fn generate(&self) -> ClusterTrace {
        let per_shard = NonZeroUsize::new(self.servers).unwrap_or(NonZeroUsize::MIN);
        let mut stream = self.shards(per_shard);
        // h2p-lint: allow(L2): servers > 0 is a construction invariant
        let shard = stream.next().expect("a generator always has servers");
        debug_assert!(stream.next().is_none(), "one shard covers the fleet");
        shard.into_cluster()
    }

    /// Streams the trace in per-server shards of at most
    /// `servers_per_shard` servers each, **bit-identical** to
    /// [`generate`](Self::generate): the shared cluster-wide component
    /// is drawn once at stream construction and every per-server series
    /// continues the same RNG sequentially, so concatenating the shards
    /// in index order reproduces the materialized trace exactly
    /// (`tests/shard_stream.rs` asserts this byte-for-byte for every
    /// class).
    #[must_use]
    pub fn shards(&self, servers_per_shard: NonZeroUsize) -> ShardStream {
        let basis = self.basis();
        ShardStream {
            next: basis.first.clone(),
            basis,
            per_shard: servers_per_shard.get(),
            next_server: 0,
            next_index: 0,
        }
    }

    /// Draws what every server of the trace shares (see
    /// [`TraceBasis`]): the seeded stream's first draws build the
    /// shared cluster-wide component, and the state after them is the
    /// first server's start.
    #[must_use]
    pub fn basis(&self) -> TraceBasis {
        let mut rng = StdRng::seed_from_u64(self.seed ^ hash_kind(self.kind));
        let steps_per_day = Seconds::days(1.0).value() / self.interval.value();
        let p = GeneratorProfile::for_kind(self.kind);
        // The shared cluster-wide component, drawn once and before any
        // per-server series: an OU series plus a common-phase diurnal.
        let phase = rng.gen_range(0.0..core::f64::consts::TAU);
        let mut level = 0.0_f64;
        let shared = (0..self.steps)
            .map(|step| {
                level += -p.reversion * level + p.shared_sigma * box_muller(uniform_pair(&mut rng));
                let day_angle = core::f64::consts::TAU * step as f64 / steps_per_day + phase;
                level + p.shared_diurnal_amplitude * day_angle.sin()
            })
            .collect();
        TraceBasis {
            profile: p,
            shared,
            steps_per_day,
            interval: self.interval,
            servers: self.servers,
            first: ServerStart(rng),
        }
    }
}

/// What every server of one synthesized trace shares: the class
/// profile, the shared cluster-wide component, the sampling interval,
/// and the RNG state where the first server's draws begin.
///
/// One xoshiro stream runs through every server in index order, but
/// how many draws a server makes never depends on the `ln`, `sqrt`,
/// `cos` and `sin` of its samples. So [`starts`](Self::starts) walks
/// the stream cheaply and records where each server begins, and
/// [`synthesize`](Self::synthesize) then synthesizes any server from
/// its start alone, bit-identical to the same server of
/// [`TraceGenerator::generate`] (`tests/shard_stream.rs` is the
/// oracle). This is how a fleet run's lanes synthesize their own
/// circulations in parallel.
#[derive(Debug, Clone)]
pub struct TraceBasis {
    profile: GeneratorProfile,
    shared: Vec<f64>,
    steps_per_day: f64,
    interval: Seconds,
    servers: usize,
    first: ServerStart,
}

impl TraceBasis {
    /// Samples per server series.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.shared.len()
    }

    /// The recording pass: every server's start state, in index order.
    /// Each step makes the same draws as synthesis and skips the sample
    /// math, so the pass costs a few ns per server-step.
    #[must_use]
    pub fn starts(&self) -> ServerStarts<'_> {
        ServerStarts {
            basis: self,
            next: self.first.clone(),
            remaining: self.servers,
        }
    }

    /// Appends the [`steps`](Self::steps) samples of the server whose
    /// draws begin at `start` to `out`: that server's series in
    /// [`TraceGenerator::generate`], bit for bit.
    pub fn synthesize(&self, start: &ServerStart, out: &mut Vec<f64>) {
        self.series(start).append_to(out);
    }

    /// The generator of the server whose draws begin at `start`.
    fn series(&self, start: &ServerStart) -> ServerSeries<'_> {
        let p = &self.profile;
        let mut rng = start.0.clone();
        let mean = rng.gen_range(p.mean.0..=p.mean.1);
        let amplitude = rng.gen_range(p.diurnal_amplitude.0..=p.diurnal_amplitude.1);
        let phase = rng.gen_range(0.0..core::f64::consts::TAU);
        ServerSeries {
            basis: self,
            rng,
            mean,
            amplitude,
            phase,
            noise: 0.0,
            burst_level: 0.0,
            step: 0,
        }
    }
}

/// Where one server's draws begin in its trace's RNG stream: a 32-byte
/// xoshiro256++ state, recorded by [`TraceBasis::starts`].
#[derive(Debug, Clone)]
pub struct ServerStart(StdRng);

/// The recording pass behind [`TraceBasis::starts`]: yields each
/// server's start state, then walks the stream past that server's
/// draws without computing its samples.
#[derive(Debug, Clone)]
pub struct ServerStarts<'a> {
    basis: &'a TraceBasis,
    next: ServerStart,
    remaining: usize,
}

impl Iterator for ServerStarts<'_> {
    type Item = ServerStart;

    fn next(&mut self) -> Option<ServerStart> {
        self.remaining = self.remaining.checked_sub(1)?;
        let mut walk = self.basis.series(&self.next);
        for _ in 0..self.basis.steps() {
            walk.advance::<false>();
        }
        Some(core::mem::replace(&mut self.next, walk.end()))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for ServerStarts<'_> {}

/// One server's generator: its RNG, its diurnal mean, amplitude and
/// phase, and its noise and burst levels. Each step yields one sample,
/// clamped into `[0, 1]`.
struct ServerSeries<'a> {
    basis: &'a TraceBasis,
    rng: StdRng,
    mean: f64,
    amplitude: f64,
    phase: f64,
    noise: f64,
    burst_level: f64,
    step: usize,
}

impl ServerSeries<'_> {
    /// Makes one step's draws (a Box-Muller pair, then the burst state
    /// machine's) and, when `SAMPLE`, returns the step's sample;
    /// otherwise `0.0`. Synthesis and the recording pass both run this
    /// one body, so they make the same draws: the burst state machine
    /// reads only uniform draws, and `SAMPLE = false` skips only the
    /// math no draw depends on.
    fn advance<const SAMPLE: bool>(&mut self) -> f64 {
        let p = &self.basis.profile;
        let step = self.step;
        self.step += 1;
        let normal = uniform_pair(&mut self.rng);
        if SAMPLE {
            // OU update.
            self.noise += -p.reversion * self.noise + p.sigma * box_muller(normal);
        }
        // Burst state machine.
        if let Some(b) = &p.bursts {
            if self.burst_level > 0.0 {
                if self.rng.gen_bool(b.end_probability) {
                    self.burst_level = 0.0;
                }
            } else if self.rng.gen_bool(b.start_probability) {
                self.burst_level = self.rng.gen_range(b.height.0..=b.height.1);
            }
        }
        if !SAMPLE {
            return 0.0;
        }
        let day_angle =
            core::f64::consts::TAU * step as f64 / self.basis.steps_per_day + self.phase;
        let baseline = self.mean + self.amplitude * day_angle.sin();
        (baseline + self.basis.shared[step] + self.noise + self.burst_level).clamp(0.0, 1.0)
    }

    /// Appends the series' remaining samples to `out`, in step order.
    /// The generator steps in one loop of its own, which keeps its
    /// state in registers: stepping 40 generators in lockstep, one
    /// sample each, measured about 40% slower per sample.
    fn append_to(&mut self, out: &mut Vec<f64>) {
        let steps = self.basis.steps();
        out.reserve(steps - self.step);
        while self.step < steps {
            out.push(self.advance::<true>());
        }
    }

    /// The stream's state past this server's draws so far; after the
    /// last step, the next server's start.
    fn end(self) -> ServerStart {
        ServerStart(self.rng)
    }
}

/// One piece of a streamed cluster trace: a contiguous run of servers
/// starting at [`start_server`](Self::start_server), in generation
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceShard {
    index: usize,
    start_server: usize,
    cluster: ClusterTrace,
}

impl TraceShard {
    /// Shard index, `0..`, in stream order.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Global index of the shard's first server.
    #[must_use]
    pub fn start_server(&self) -> usize {
        self.start_server
    }

    /// The shard's servers as a (smaller) cluster trace.
    #[must_use]
    pub fn cluster(&self) -> &ClusterTrace {
        &self.cluster
    }

    /// Consumes the shard, returning its cluster trace.
    #[must_use]
    pub fn into_cluster(self) -> ClusterTrace {
        self.cluster
    }
}

/// Streaming shard generator behind [`TraceGenerator::shards`]. Holds
/// the trace's [`TraceBasis`] and the next server's start; each
/// [`next`](Iterator::next) synthesizes the following run of servers on
/// demand.
#[derive(Debug, Clone)]
pub struct ShardStream {
    basis: TraceBasis,
    next: ServerStart,
    per_shard: usize,
    next_server: usize,
    next_index: usize,
}

impl ShardStream {
    /// Servers not yet yielded.
    #[must_use]
    pub fn remaining_servers(&self) -> usize {
        self.basis.servers - self.next_server
    }

    /// Synthesizes the next server's series; the stream then stands at
    /// the following server's start.
    fn next_trace(&mut self) -> Trace {
        let mut series = self.basis.series(&self.next);
        let mut samples = Vec::new();
        series.append_to(&mut samples);
        self.next = series.end();
        // h2p-lint: allow(L2): samples clamped to [0, 1], interval validated
        Trace::new(self.basis.interval, samples).expect("generator output is valid")
    }
}

impl Iterator for ShardStream {
    type Item = TraceShard;

    fn next(&mut self) -> Option<TraceShard> {
        if self.next_server >= self.basis.servers {
            return None;
        }
        let start_server = self.next_server;
        let count = self.per_shard.min(self.basis.servers - start_server);
        let traces: Vec<Trace> = (0..count).map(|_| self.next_trace()).collect();
        self.next_server += count;
        let index = self.next_index;
        self.next_index += 1;
        Some(TraceShard {
            index,
            start_server,
            // h2p-lint: allow(L2): all traces share interval and length
            cluster: ClusterTrace::new(traces).expect("generator output is consistent"),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let shards = self.remaining_servers().div_ceil(self.per_shard);
        (shards, Some(shards))
    }
}

impl ExactSizeIterator for ShardStream {}

/// Stable per-kind salt so the same seed gives distinct classes.
fn hash_kind(kind: TraceKind) -> u64 {
    match kind {
        TraceKind::Drastic => 0x9e37_79b9_7f4a_7c15,
        TraceKind::Irregular => 0x2545_f491_4f6c_dd1d,
        TraceKind::Common => 0xda94_2042_e4dd_58b5,
    }
}

/// The two uniform draws behind one standard normal sample, in draw
/// order.
fn uniform_pair<R: Rng>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (u1, u2)
}

/// Standard normal sample via Box-Muller (avoids needing rand_distr).
fn box_muller((u1, u2): (f64, f64)) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dimensions() {
        let d = TraceGenerator::paper(TraceKind::Drastic, 1).generate();
        assert_eq!(d.servers(), 1313);
        assert_eq!(d.steps(), 144); // 12 h at 5 min
        let c = TraceGenerator::paper(TraceKind::Common, 1).generate();
        assert_eq!(c.servers(), 1000);
        assert_eq!(c.steps(), 288);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = TraceGenerator::paper(TraceKind::Irregular, 99)
            .with_servers(10)
            .generate();
        let b = TraceGenerator::paper(TraceKind::Irregular, 99)
            .with_servers(10)
            .generate();
        assert_eq!(a, b);
        let c = TraceGenerator::paper(TraceKind::Irregular, 100)
            .with_servers(10)
            .generate();
        assert_ne!(a, c);
    }

    #[test]
    fn kinds_differ_for_same_seed() {
        let a = TraceGenerator::paper(TraceKind::Common, 5)
            .with_servers(5)
            .generate();
        let mut gen = TraceGenerator::paper(TraceKind::Drastic, 5).with_servers(5);
        gen = gen.with_steps(288);
        let b = gen.generate();
        assert_ne!(a, b);
    }

    #[test]
    fn volatility_ordering_matches_paper_narrative() {
        // Drastic >> Irregular >= Common in step-to-step volatility.
        let seed = 2026;
        let servers = 100;
        let vol = |kind| {
            TraceGenerator::paper(kind, seed)
                .with_servers(servers)
                .generate()
                .mean_volatility()
        };
        let d = vol(TraceKind::Drastic);
        let i = vol(TraceKind::Irregular);
        let c = vol(TraceKind::Common);
        assert!(d > 3.0 * i, "drastic {d} vs irregular {i}");
        assert!(i >= c, "irregular {i} vs common {c}");
    }

    #[test]
    fn irregular_has_occasional_high_peaks() {
        let cluster = TraceGenerator::paper(TraceKind::Irregular, 7)
            .with_servers(200)
            .generate();
        // Some servers spike high...
        let spiking = cluster.iter().filter(|t| t.peak().value() > 0.6).count();
        assert!(spiking > 10, "only {spiking} servers spiked");
        // ...but the cluster mean stays calm.
        assert!(cluster.overall_mean().value() < 0.40);
    }

    #[test]
    fn common_is_calm() {
        let cluster = TraceGenerator::paper(TraceKind::Common, 7)
            .with_servers(200)
            .generate();
        for t in cluster.iter() {
            assert!(t.volatility() < 0.06, "volatility {}", t.volatility());
        }
    }

    #[test]
    fn means_in_low_utilization_band() {
        // Paper Sec. I: "servers in datacenters are in low utilization
        // most of the time" — all classes average well under 50 %.
        for kind in TraceKind::all() {
            let cluster = TraceGenerator::paper(kind, 11).with_servers(100).generate();
            let m = cluster.overall_mean().value();
            assert!((0.10..=0.50).contains(&m), "{kind}: mean {m}");
        }
    }

    #[test]
    fn samples_always_in_range() {
        for kind in TraceKind::all() {
            let cluster = TraceGenerator::paper(kind, 3).with_servers(20).generate();
            for t in cluster.iter() {
                for &s in t.samples() {
                    assert!((0.0..=1.0).contains(&s));
                }
            }
        }
    }

    /// `tests/shard_stream.rs`'s start-state oracle reaches 200 servers
    /// × 288 steps at seed 31. Over that horizon both bursting classes
    /// must start and end bursts, or the oracle would not cover the
    /// recording pass's burst draws.
    #[test]
    fn oracle_horizon_crosses_burst_starts_and_ends() {
        for kind in [TraceKind::Drastic, TraceKind::Irregular] {
            let basis = TraceGenerator::paper(kind, 31)
                .with_servers(200)
                .with_steps(288)
                .basis();
            let (mut started, mut ended) = (0, 0);
            for start in basis.starts() {
                let mut series = basis.series(&start);
                for _ in 0..basis.steps() {
                    let was_bursting = series.burst_level > 0.0;
                    series.advance::<true>();
                    match (was_bursting, series.burst_level > 0.0) {
                        (false, true) => started += 1,
                        (true, false) => ended += 1,
                        _ => {}
                    }
                }
            }
            assert!(
                started > 0 && ended > 0,
                "{kind}: {started} starts, {ended} ends"
            );
        }
    }

    #[test]
    fn kind_metadata() {
        assert_eq!(TraceKind::Drastic.name(), "drastic");
        assert_eq!(TraceKind::Drastic.to_string(), "drastic");
        assert_eq!(TraceKind::all().len(), 3);
        assert_eq!(TraceKind::Irregular.paper_duration(), Seconds::hours(24.0));
    }
}
