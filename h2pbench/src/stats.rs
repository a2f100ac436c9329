//! Exact order statistics over raw samples.
//!
//! End-to-end latencies are reported from the raw per-request samples,
//! never from the program's bucketed telemetry histograms (whose
//! bounds double, so a small shift can read as a 2x change).

/// Nearest-rank percentile: the smallest sample with at least `p` of
/// the samples at or below it. `p` is a fraction in `(0, 1]`.
/// Returns `None` for an empty sample.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = nearest_rank(sorted.len(), p);
    Some(sorted[rank - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = (p * n as f64).ceil() as usize;
    rank.clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p`.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Percentile `p`, or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it.
#[must_use]
pub fn supported_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    percentile(samples, p)
}

/// The conventional median (mean of the two middle values for an even
/// count). Returns `None` for an empty sample.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute force: the smallest sample `x` such that at least
    /// `p * n` samples are `<= x`.
    fn brute(samples: &[f64], p: f64) -> f64 {
        let n = samples.len() as f64;
        let mut candidates = samples.to_vec();
        candidates.sort_by(f64::total_cmp);
        for &x in &candidates {
            let at_or_below = samples.iter().filter(|&&s| s <= x).count() as f64;
            if at_or_below >= p * n - 1e-9 {
                return x;
            }
        }
        candidates[candidates.len() - 1]
    }

    #[test]
    fn percentile_matches_brute_force_order_statistic() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 1234] {
            let samples: Vec<f64> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    (state >> 11) as f64 / (1u64 << 53) as f64
                })
                .collect();
            for p in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(
                    percentile(&samples, p),
                    Some(brute(&samples, p)),
                    "n = {n}, p = {p}"
                );
            }
        }
    }

    #[test]
    fn percentile_handles_ties_and_empty() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[2.0, 2.0, 2.0, 5.0], 0.5), Some(2.0));
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 1.0), Some(5.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(supported_percentile(&samples, 0.99), None);
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(supported_percentile(&samples, 0.99), Some(989.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }
}
