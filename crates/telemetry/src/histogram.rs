//! Fixed-bucket histograms with order-independent merge.
//!
//! All recorded values are integers (the workspace records nanosecond
//! durations and event sizes), so every aggregate — bucket counts,
//! total, sum, min, max — combines with integer addition or min/max.
//! Those operations are associative and commutative, which gives the
//! merge its contract: folding any partition of a recording stream, in
//! any order, reproduces the single-threaded aggregate *exactly*, bit
//! for bit. The property tests in `tests/properties.rs` pin this.

use crate::TelemetryError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The bucket layout of a histogram: strictly ascending upper bounds
/// (inclusive), plus an implicit overflow bucket above the last bound.
///
/// Two histograms merge only if their specs are identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BucketSpec {
    bounds: Arc<Vec<u64>>,
}

impl BucketSpec {
    /// A spec from explicit inclusive upper bounds.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::InvalidBuckets`] if `bounds` is empty or not
    /// strictly ascending.
    pub fn new(bounds: Vec<u64>) -> Result<Self, TelemetryError> {
        if bounds.is_empty() {
            return Err(TelemetryError::InvalidBuckets {
                reason: "bucket bounds must be non-empty",
            });
        }
        if bounds.windows(2).any(|w| w[1] <= w[0]) {
            return Err(TelemetryError::InvalidBuckets {
                reason: "bucket bounds must be strictly ascending",
            });
        }
        Ok(BucketSpec {
            bounds: Arc::new(bounds),
        })
    }

    /// Geometric bounds `first, first*2, first*4, …` (`count` of them,
    /// saturating at `u64::MAX`).
    ///
    /// # Errors
    ///
    /// [`TelemetryError::InvalidBuckets`] if `first` is zero or
    /// `count` is zero (saturation can also collapse neighbours, which
    /// is rejected the same way).
    pub fn exponential(first: u64, count: usize) -> Result<Self, TelemetryError> {
        if first == 0 || count == 0 {
            return Err(TelemetryError::InvalidBuckets {
                reason: "exponential spec needs a positive first bound and count",
            });
        }
        let mut bounds = Vec::with_capacity(count);
        let mut bound = first;
        for _ in 0..count {
            bounds.push(bound);
            bound = bound.saturating_mul(2);
        }
        bounds.dedup();
        BucketSpec::new(bounds)
    }

    /// The workspace default for span durations: 1 µs to ~1.1 s in
    /// doubling buckets (21 bounds), overflow above.
    #[must_use]
    pub fn duration_default() -> Self {
        // 1_000 ns × 2^k is strictly ascending and never saturates for
        // k < 44, so the constructor cannot fail here.
        BucketSpec::exponential(1_000, 21).unwrap_or_else(|_| BucketSpec {
            bounds: Arc::new(vec![1_000]),
        })
    }

    /// The workspace default for event *rates* (events per second):
    /// 1 /s to ~67 M/s in doubling buckets (27 bounds), overflow
    /// above.
    #[must_use]
    pub fn rate_default() -> Self {
        // 1 × 2^k is strictly ascending and never saturates for
        // k < 64, so the constructor cannot fail here.
        BucketSpec::exponential(1, 27).unwrap_or_else(|_| BucketSpec {
            bounds: Arc::new(vec![1]),
        })
    }

    /// The inclusive upper bounds (without the overflow bucket).
    #[must_use]
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Index of the bucket `value` lands in (`bounds.len()` = overflow).
    fn bucket_of(&self, value: u64) -> usize {
        self.bounds.partition_point(|&b| b < value)
    }
}

/// Interior of an enabled histogram (shared across clones).
#[derive(Debug)]
struct HistogramCore {
    spec: BucketSpec,
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A thread-safe fixed-bucket histogram handle.
///
/// Clones share the same storage. A *disabled* histogram (from
/// [`Histogram::disabled`] or a disabled
/// [`Registry`](crate::Registry)) drops every record on the floor at
/// the cost of one branch — the hot-path contract the engine's
/// "telemetry off is free" guarantee rests on.
#[derive(Clone, Debug)]
pub struct Histogram {
    core: Option<Arc<HistogramCore>>,
}

impl Histogram {
    /// An enabled histogram with the given bucket layout.
    #[must_use]
    pub fn with_spec(spec: &BucketSpec) -> Self {
        let counts = (0..=spec.bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            core: Some(Arc::new(HistogramCore {
                spec: spec.clone(),
                counts,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            })),
        }
    }

    /// A no-op histogram: records are dropped, snapshots are empty.
    #[must_use]
    pub fn disabled() -> Self {
        Histogram { core: None }
    }

    /// Whether records are being kept.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Records one value.
    pub fn record(&self, value: u64) {
        let Some(core) = &self.core else {
            return;
        };
        let bucket = core.spec.bucket_of(value);
        #[cfg(feature = "sanitize")]
        debug_assert!(
            bucket < core.counts.len(),
            "bucket index out of range: {bucket} >= {}",
            core.counts.len()
        );
        if let Some(slot) = core.counts.get(bucket) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.min.fetch_min(value, Ordering::Relaxed);
        core.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.count.load(Ordering::Relaxed))
    }

    /// Sum of recorded values (wrapping above `u64::MAX`; ~584 years
    /// of nanoseconds, unreachable for span data).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.sum.load(Ordering::Relaxed))
    }

    /// Smallest recorded value, `None` before any record.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        let core = self.core.as_ref()?;
        if core.count.load(Ordering::Relaxed) == 0 {
            None
        } else {
            Some(core.min.load(Ordering::Relaxed))
        }
    }

    /// Largest recorded value, `None` before any record.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        let core = self.core.as_ref()?;
        if core.count.load(Ordering::Relaxed) == 0 {
            None
        } else {
            Some(core.max.load(Ordering::Relaxed))
        }
    }

    /// Mean of recorded values, `None` before any record.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        let count = self.count();
        if count == 0 {
            None
        } else {
            Some(self.sum() as f64 / count as f64)
        }
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`) from
    /// the bucket layout: the inclusive bound of the bucket holding the
    /// rank, or the recorded maximum for the overflow bucket. `None`
    /// before any record.
    #[must_use]
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        let core = self.core.as_ref()?;
        let count = core.count.load(Ordering::Relaxed);
        if count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank in 1..=count; exact for q*count < 2^53 (always, for
        // span counts), so the truncating cast cannot misplace a rank.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, slot) in core.counts.iter().enumerate() {
            seen += slot.load(Ordering::Relaxed);
            if seen >= rank {
                return match core.spec.bounds.get(i) {
                    Some(&bound) => Some(bound),
                    None => self.max(), // overflow bucket
                };
            }
        }
        self.max()
    }

    /// The bucket layout, `None` for a disabled histogram.
    #[must_use]
    pub fn spec(&self) -> Option<&BucketSpec> {
        self.core.as_ref().map(|c| &c.spec)
    }

    /// Per-bucket counts (including the trailing overflow bucket),
    /// empty for a disabled histogram.
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.core.as_ref().map_or_else(Vec::new, |c| {
            c.counts.iter().map(|s| s.load(Ordering::Relaxed)).collect()
        })
    }

    /// Whether two handles share the same underlying storage.
    #[must_use]
    pub fn same_as(&self, other: &Histogram) -> bool {
        match (&self.core, &other.core) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Folds another histogram's records into this one (the source is
    /// left untouched). Disabled histograms merge as empty on either
    /// side. Associative and order-independent — see the module docs.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::MergeShapeMismatch`] if both sides are
    /// enabled with different bucket layouts.
    pub fn merge_from(&self, other: &Histogram) -> Result<(), TelemetryError> {
        let (Some(dst), Some(src)) = (&self.core, &other.core) else {
            return Ok(()); // nothing to add, or nowhere to put it
        };
        if dst.spec != src.spec {
            return Err(TelemetryError::MergeShapeMismatch);
        }
        if src.count.load(Ordering::Relaxed) == 0 {
            return Ok(());
        }
        for (d, s) in dst.counts.iter().zip(&src.counts) {
            d.fetch_add(s.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        dst.count
            .fetch_add(src.count.load(Ordering::Relaxed), Ordering::Relaxed);
        dst.sum
            .fetch_add(src.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        dst.min
            .fetch_min(src.min.load(Ordering::Relaxed), Ordering::Relaxed);
        dst.max
            .fetch_max(src.max.load(Ordering::Relaxed), Ordering::Relaxed);
        #[cfg(feature = "sanitize")]
        debug_assert_eq!(
            dst.counts
                .iter()
                .map(|s| s.load(Ordering::Relaxed))
                .sum::<u64>(),
            dst.count.load(Ordering::Relaxed),
            "bucket-count conservation violated by merge"
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_validation() {
        assert!(BucketSpec::new(vec![]).is_err());
        assert!(BucketSpec::new(vec![5, 5]).is_err());
        assert!(BucketSpec::new(vec![5, 4]).is_err());
        assert!(BucketSpec::new(vec![1, 2, 3]).is_ok());
        assert!(BucketSpec::exponential(0, 4).is_err());
        assert!(BucketSpec::exponential(1, 0).is_err());
        let spec = BucketSpec::exponential(10, 4).unwrap();
        assert_eq!(spec.bounds(), &[10, 20, 40, 80]);
        assert!(!BucketSpec::duration_default().bounds().is_empty());
    }

    #[test]
    fn records_land_in_the_right_buckets() {
        let spec = BucketSpec::new(vec![10, 100]).unwrap();
        let h = Histogram::with_spec(&spec);
        for v in [0, 10, 11, 100, 101, 5_000] {
            h.record(v);
        }
        // Buckets: <=10, <=100, overflow.
        assert_eq!(h.bucket_counts(), vec![2, 2, 2]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 5_222);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(5_000));
        let mean = h.mean().unwrap();
        assert!((mean - 5_222.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_walk_buckets() {
        let spec = BucketSpec::new(vec![10, 100, 1_000]).unwrap();
        let h = Histogram::with_spec(&spec);
        assert_eq!(h.quantile_upper_bound(0.5), None);
        for _ in 0..90 {
            h.record(7);
        }
        for _ in 0..9 {
            h.record(70);
        }
        h.record(9_999);
        assert_eq!(h.quantile_upper_bound(0.5), Some(10));
        assert_eq!(h.quantile_upper_bound(0.95), Some(100));
        assert_eq!(h.quantile_upper_bound(1.0), Some(9_999), "overflow -> max");
        assert_eq!(h.quantile_upper_bound(0.0), Some(10), "rank clamps to 1");
    }

    #[test]
    fn disabled_histogram_is_inert() {
        let h = Histogram::disabled();
        assert!(!h.is_enabled());
        h.record(5);
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), None);
        assert!(h.bucket_counts().is_empty());
        assert!(h.spec().is_none());
        // Merging with disabled sides is a no-op, not an error.
        let enabled = Histogram::with_spec(&BucketSpec::new(vec![1]).unwrap());
        enabled.record(3);
        assert!(h.merge_from(&enabled).is_ok());
        assert!(enabled.merge_from(&h).is_ok());
        assert_eq!(enabled.count(), 1);
    }

    #[test]
    fn merge_requires_matching_spec() {
        let a = Histogram::with_spec(&BucketSpec::new(vec![1, 2]).unwrap());
        let b = Histogram::with_spec(&BucketSpec::new(vec![1, 3]).unwrap());
        assert!(matches!(
            a.merge_from(&b),
            Err(TelemetryError::MergeShapeMismatch)
        ));
    }

    #[test]
    fn merge_matches_single_stream() {
        let spec = BucketSpec::exponential(1, 8).unwrap();
        let reference = Histogram::with_spec(&spec);
        let a = Histogram::with_spec(&spec);
        let b = Histogram::with_spec(&spec);
        for v in 0..200u64 {
            reference.record(v * 3);
            if v % 2 == 0 {
                a.record(v * 3);
            } else {
                b.record(v * 3);
            }
        }
        a.merge_from(&b).unwrap();
        assert_eq!(a.bucket_counts(), reference.bucket_counts());
        assert_eq!(a.count(), reference.count());
        assert_eq!(a.sum(), reference.sum());
        assert_eq!(a.min(), reference.min());
        assert_eq!(a.max(), reference.max());
    }

    #[test]
    fn clones_share_storage() {
        let h = Histogram::with_spec(&BucketSpec::new(vec![10]).unwrap());
        let alias = h.clone();
        alias.record(1);
        assert_eq!(h.count(), 1);
        assert!(h.same_as(&alias));
        assert!(!h.same_as(&Histogram::disabled()));
    }
}
