//! Deterministic synthetic job sets shaped like the paper's trace
//! classes.
//!
//! Generation is slot-structured: each of the cluster's `servers`
//! virtual slots carries at most one job at a time, arrivals are
//! aligned to control-interval boundaries (plus sub-interval jitter
//! that never moves the arrival step), and durations are whole
//! intervals. At most `servers` jobs are therefore ever concurrent —
//! so *every* capacity-respecting policy can place the whole set with
//! an empty queue, which is what makes cross-policy "equal served
//! work" comparisons meaningful (`tests/placement_gates.rs` asserts
//! them, and `h2p-bench`'s `abl_placement` relies on them).
//!
//! Randomness is a hand-rolled splitmix64 stream seeded from the
//! caller's seed: same inputs, same jobs, on every platform.

use crate::Job;
use h2p_units::{Seconds, Utilization};
use h2p_workload::TraceKind;

/// splitmix64: tiny, high-quality, and dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the top 53 bits.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A uniform integer draw in `[lo, hi]` (inclusive).
fn range(state: &mut u64, lo: usize, hi: usize) -> usize {
    // `unit` is in [0, 1), so the product is a non-negative finite
    // value below `hi - lo + 1`: the truncating cast is the draw.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let offset = (unit(state) * (hi - lo + 1) as f64) as usize;
    lo + offset
}

/// Per-class shape parameters: demand band, duration band (steps),
/// idle-gap band (steps), and the odds of an Irregular-style peak.
struct Shape {
    demand_lo: f64,
    demand_hi: f64,
    steps_lo: usize,
    steps_hi: usize,
    gap_lo: usize,
    gap_hi: usize,
    peak_odds: f64,
}

fn shape(kind: TraceKind) -> Shape {
    match kind {
        // Alibaba-like: short bursts, wildly heterogeneous demand.
        TraceKind::Drastic => Shape {
            demand_lo: 0.05,
            demand_hi: 0.85,
            steps_lo: 1,
            steps_hi: 4,
            gap_lo: 0,
            gap_hi: 2,
            peak_odds: 0.0,
        },
        // Google-like with occasional high peaks.
        TraceKind::Irregular => Shape {
            demand_lo: 0.15,
            demand_hi: 0.45,
            steps_lo: 2,
            steps_hi: 8,
            gap_lo: 0,
            gap_hi: 2,
            peak_odds: 0.1,
        },
        // Google-like, very little fluctuation: long, steady jobs.
        TraceKind::Common => Shape {
            demand_lo: 0.2,
            demand_hi: 0.4,
            steps_lo: 4,
            steps_hi: 10,
            gap_lo: 1,
            gap_hi: 2,
            peak_odds: 0.0,
        },
    }
}

const TENANTS: [&str; 3] = ["acme", "globex", "initech"];

/// Generates a deterministic job set shaped like `kind` over a
/// `servers × steps` horizon at the given control interval. At most
/// `servers` jobs are ever concurrent (see the [module docs](self)),
/// jobs are returned sorted by `(arrival, id)` with ids `0..n`, and
/// roughly a quarter of the jobs are untagged (no tenant).
#[must_use]
pub fn synthetic_jobs(
    kind: TraceKind,
    seed: u64,
    servers: usize,
    steps: usize,
    interval: Seconds,
) -> Vec<Job> {
    let shape = shape(kind);
    // Decorrelate the stream from both the seed and the class.
    let mut state = seed ^ (0x5851_f42d_4c95_7f2d ^ kind.paper_servers() as u64);
    let mut drafts: Vec<(f64, Seconds, f64, usize)> = Vec::new();

    for _slot in 0..servers {
        // Stagger slot start-ups over the first few intervals.
        let mut cursor = range(&mut state, 0, 3.min(steps.saturating_sub(1)));
        loop {
            let duration_steps = range(&mut state, shape.steps_lo, shape.steps_hi);
            if cursor + duration_steps > steps {
                break;
            }
            let demand = if unit(&mut state) < shape.peak_odds {
                0.8 + 0.15 * unit(&mut state)
            } else {
                shape.demand_lo + (shape.demand_hi - shape.demand_lo) * unit(&mut state)
            };
            // Sub-interval jitter keeps the arrival step at `cursor`.
            let jitter = 0.5 * interval.value() * unit(&mut state);
            let arrival = interval.value() * cursor as f64 + jitter;
            let duration = Seconds::new(interval.value() * duration_steps as f64);
            let tenant = range(&mut state, 0, TENANTS.len());
            drafts.push((arrival, duration, demand, tenant));
            cursor += duration_steps + range(&mut state, shape.gap_lo, shape.gap_hi);
            if cursor >= steps {
                break;
            }
        }
    }

    // Stable arrival order; ids are assigned in that order so the
    // engine's (arrival step, id) admission matches file order.
    drafts.sort_by(|a, b| a.0.total_cmp(&b.0));
    drafts
        .into_iter()
        .enumerate()
        .filter_map(|(id, (arrival, duration, demand, tenant))| {
            let job = Job::new(
                id as u64,
                Seconds::new(arrival),
                duration,
                Utilization::saturating(demand),
            )
            .ok()?;
            Some(match TENANTS.get(tenant) {
                Some(name) => job.with_tenant(*name),
                None => job,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_sorted() {
        let interval = Seconds::minutes(5.0);
        let a = synthetic_jobs(TraceKind::Common, 7, 8, 24, interval);
        let b = synthetic_jobs(TraceKind::Common, 7, 8, 24, interval);
        assert!(!a.is_empty());
        assert_eq!(a, b);
        for pair in a.windows(2) {
            assert!(pair[0].arrival() <= pair[1].arrival());
        }
        let c = synthetic_jobs(TraceKind::Common, 8, 8, 24, interval);
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn concurrency_never_exceeds_the_server_count() {
        let interval = Seconds::minutes(5.0);
        for kind in [TraceKind::Drastic, TraceKind::Irregular, TraceKind::Common] {
            let servers = 10;
            let steps = 36;
            let jobs = synthetic_jobs(kind, 42, servers, steps, interval);
            let mut occupancy = vec![0usize; steps];
            for job in &jobs {
                let start = job.arrival_step(interval);
                let end = (start + job.duration_steps(interval)).min(steps);
                for slot in &mut occupancy[start..end] {
                    *slot += 1;
                }
            }
            assert!(
                occupancy.iter().all(|&n| n <= servers),
                "{kind:?}: {occupancy:?}"
            );
        }
    }

    #[test]
    fn jobs_fit_the_horizon_and_carry_valid_demands() {
        let interval = Seconds::minutes(5.0);
        let steps = 24;
        let jobs = synthetic_jobs(TraceKind::Irregular, 3, 6, steps, interval);
        for job in &jobs {
            assert!(job.arrival_step(interval) < steps);
            assert!(job.arrival_step(interval) + job.duration_steps(interval) <= steps);
            assert!(job.demand().value() > 0.0 && job.demand().value() <= 1.0);
        }
        // All three tenants plus untagged jobs appear over a big set.
        let big = synthetic_jobs(TraceKind::Drastic, 11, 40, 48, interval);
        let tagged: std::collections::BTreeSet<_> = big.iter().filter_map(|j| j.tenant()).collect();
        assert_eq!(tagged.len(), 3);
        assert!(big.iter().any(|j| j.tenant().is_none()));
    }
}
