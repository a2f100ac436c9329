//! Trace data structures.

use crate::WorkloadError;
use h2p_units::{Seconds, Utilization};
use serde::{Deserialize, Serialize};

/// How a downsampling window is aggregated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregate {
    /// Mean of the window (energy-faithful).
    Mean,
    /// Maximum of the window (thermally conservative).
    Max,
}

/// One server's CPU-utilization time series at a fixed sampling
/// interval.
///
/// Samples are stored as raw fractions (validated into `\[0, 1\]` at
/// construction) so traces serialize to plain JSON arrays.
/// Deserialization funnels through [`Trace::new`], so documents read
/// from disk satisfy the same invariants as constructed traces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "TraceDocument")]
pub struct Trace {
    interval_seconds: f64,
    samples: Vec<f64>,
}

/// Raw serialized shape of a [`Trace`], validated on entry.
#[derive(Deserialize)]
struct TraceDocument {
    interval_seconds: f64,
    samples: Vec<f64>,
}

impl TryFrom<TraceDocument> for Trace {
    type Error = WorkloadError;
    fn try_from(doc: TraceDocument) -> Result<Self, Self::Error> {
        Trace::new(Seconds::new(doc.interval_seconds), doc.samples)
    }
}

impl Trace {
    /// Creates a trace from raw utilization fractions.
    ///
    /// # Errors
    ///
    /// * [`WorkloadError::EmptyTrace`] for no samples.
    /// * [`WorkloadError::NonPositiveInterval`] for an interval that is
    ///   not strictly positive (NaN included).
    /// * [`WorkloadError::NonFiniteInterval`] for an infinite interval,
    ///   whose step times would be `∞ × 0 = NaN` and `∞`.
    /// * [`WorkloadError::InvalidSample`] for a sample outside `\[0, 1\]`.
    pub fn new(interval: Seconds, samples: Vec<f64>) -> Result<Self, WorkloadError> {
        if samples.is_empty() {
            return Err(WorkloadError::EmptyTrace);
        }
        if !(interval.value() > 0.0) {
            return Err(WorkloadError::NonPositiveInterval {
                seconds: interval.value(),
            });
        }
        if !interval.value().is_finite() {
            return Err(WorkloadError::NonFiniteInterval {
                seconds: interval.value(),
            });
        }
        for (index, &value) in samples.iter().enumerate() {
            if value.is_nan() || !(0.0..=1.0).contains(&value) {
                return Err(WorkloadError::InvalidSample { index, value });
            }
        }
        Ok(Trace {
            interval_seconds: interval.value(),
            samples,
        })
    }

    /// The sampling interval.
    #[must_use]
    pub fn interval(&self) -> Seconds {
        Seconds::new(self.interval_seconds)
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty (never true for a constructed trace).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total covered duration.
    #[must_use]
    pub fn duration(&self) -> Seconds {
        Seconds::new(self.interval_seconds * self.samples.len() as f64)
    }

    /// Utilization at step `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn get(&self, i: usize) -> Utilization {
        Utilization::saturating(self.samples[i])
    }

    /// Raw samples as fractions.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Mean utilization over the trace.
    #[must_use]
    pub fn mean(&self) -> Utilization {
        Utilization::saturating(
            // h2p-lint: allow(L2): constructor rejects empty traces
            h2p_stats::descriptive::mean(&self.samples).expect("non-empty by invariant"),
        )
    }

    /// Peak utilization over the trace.
    #[must_use]
    pub fn peak(&self) -> Utilization {
        Utilization::saturating(
            // h2p-lint: allow(L2): constructor rejects empty traces
            h2p_stats::descriptive::max(&self.samples).expect("non-empty by invariant"),
        )
    }

    /// Mean absolute step-to-step change — the volatility measure that
    /// separates *Drastic* from *Common*.
    #[must_use]
    pub fn volatility(&self) -> f64 {
        h2p_stats::descriptive::mean_abs_diff(&self.samples).unwrap_or(0.0)
    }
}

/// A cluster of per-server traces with identical length and interval.
/// Deserialization funnels through [`ClusterTrace::new`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "ClusterDocument")]
pub struct ClusterTrace {
    traces: Vec<Trace>,
}

/// Raw serialized shape of a [`ClusterTrace`], validated on entry.
#[derive(Deserialize)]
struct ClusterDocument {
    traces: Vec<Trace>,
}

impl TryFrom<ClusterDocument> for ClusterTrace {
    type Error = WorkloadError;
    fn try_from(doc: ClusterDocument) -> Result<Self, Self::Error> {
        ClusterTrace::new(doc.traces)
    }
}

impl ClusterTrace {
    /// Bundles per-server traces into a cluster.
    ///
    /// # Errors
    ///
    /// * [`WorkloadError::EmptyTrace`] for an empty list.
    /// * [`WorkloadError::InconsistentCluster`] if members disagree in
    ///   length or interval.
    pub fn new(traces: Vec<Trace>) -> Result<Self, WorkloadError> {
        let first = traces.first().ok_or(WorkloadError::EmptyTrace)?;
        let (len, interval) = (first.len(), first.interval_seconds);
        for (index, t) in traces.iter().enumerate().skip(1) {
            // Exact-representation check: intervals are copied, not
            // recomputed, so bitwise equality is the right test.
            #[allow(clippy::float_cmp)]
            let mismatch = t.len() != len || t.interval_seconds != interval;
            if mismatch {
                return Err(WorkloadError::InconsistentCluster { index });
            }
        }
        Ok(ClusterTrace { traces })
    }

    /// Number of servers.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.traces.len()
    }

    /// Number of time steps.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.traces[0].len()
    }

    /// The common sampling interval.
    #[must_use]
    pub fn interval(&self) -> Seconds {
        self.traces[0].interval()
    }

    /// Total covered duration.
    #[must_use]
    pub fn duration(&self) -> Seconds {
        self.traces[0].duration()
    }

    /// The trace of server `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn trace(&self, i: usize) -> &Trace {
        &self.traces[i]
    }

    /// Iterates over the per-server traces.
    pub fn iter(&self) -> impl Iterator<Item = &Trace> {
        self.traces.iter()
    }

    /// Per-server utilizations at time step `step`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is out of range.
    #[must_use]
    pub fn utilizations_at(&self, step: usize) -> Vec<Utilization> {
        self.traces.iter().map(|t| t.get(step)).collect()
    }

    /// Cluster-mean utilization series (one value per step) — the
    /// `U_avg` input of the load-balancing policy.
    #[must_use]
    pub fn mean_series(&self) -> Vec<Utilization> {
        (0..self.steps())
            .map(|s| Utilization::mean_of(&self.utilizations_at(s)))
            .collect()
    }

    /// Cluster-max utilization series — the `U_max` input of the
    /// baseline policy.
    #[must_use]
    pub fn max_series(&self) -> Vec<Utilization> {
        (0..self.steps())
            .map(|s| Utilization::max_of(&self.utilizations_at(s)))
            .collect()
    }

    /// Mean utilization over every server and step.
    #[must_use]
    pub fn overall_mean(&self) -> Utilization {
        let total: f64 = self.traces.iter().map(|t| t.mean().value()).sum();
        Utilization::saturating(total / self.traces.len() as f64)
    }

    /// Mean per-server volatility.
    #[must_use]
    pub fn mean_volatility(&self) -> f64 {
        self.traces.iter().map(Trace::volatility).sum::<f64>() / self.traces.len() as f64
    }

    /// Downsamples every trace by `factor`, aggregating each window
    /// with `how`. Converting a 1-minute trace to the paper's 5-minute
    /// control interval uses `Aggregate::Mean`; conservative thermal
    /// sizing uses `Aggregate::Max` (the controller must survive the
    /// worst minute of each window).
    ///
    /// Trailing samples that do not fill a window are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero or not smaller than the trace length.
    #[must_use]
    pub fn downsample(&self, factor: usize, how: Aggregate) -> ClusterTrace {
        assert!(factor > 0, "factor must be positive");
        assert!(factor <= self.steps(), "factor exceeds trace length");
        let traces: Vec<Trace> = self
            .traces
            .iter()
            .map(|t| {
                let samples: Vec<f64> = t
                    .samples()
                    .chunks_exact(factor)
                    .map(|w| match how {
                        Aggregate::Mean => w.iter().sum::<f64>() / w.len() as f64,
                        Aggregate::Max => w.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    })
                    .collect();
                Trace::new(t.interval() * factor as f64, samples)
                    // h2p-lint: allow(L2): aggregates of [0, 1] samples stay in range
                    .expect("windows of valid samples are valid")
            })
            .collect();
        // h2p-lint: allow(L2): uniform downsampling keeps traces consistent
        ClusterTrace::new(traces).expect("downsampling preserves consistency")
    }

    /// Restricts the cluster to its first `n` servers (cheap way to
    /// build smaller experiments from a paper-sized cluster).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds the cluster size.
    #[must_use]
    pub fn take_servers(&self, n: usize) -> ClusterTrace {
        assert!(n > 0 && n <= self.servers(), "bad server count {n}");
        ClusterTrace {
            traces: self.traces[..n].to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(samples: Vec<f64>) -> Trace {
        Trace::new(Seconds::minutes(5.0), samples).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(
            Trace::new(Seconds::minutes(5.0), vec![]),
            Err(WorkloadError::EmptyTrace)
        );
        assert!(matches!(
            Trace::new(Seconds::new(0.0), vec![0.5]),
            Err(WorkloadError::NonPositiveInterval { .. })
        ));
        assert!(matches!(
            Trace::new(Seconds::new(f64::INFINITY), vec![0.5]),
            Err(WorkloadError::NonFiniteInterval { seconds }) if seconds == f64::INFINITY
        ));
        assert!(matches!(
            Trace::new(Seconds::minutes(5.0), vec![0.5, 1.2]),
            Err(WorkloadError::InvalidSample { index: 1, .. })
        ));
        assert!(matches!(
            Trace::new(Seconds::minutes(5.0), vec![f64::NAN]),
            Err(WorkloadError::InvalidSample { index: 0, .. })
        ));
    }

    #[test]
    fn trace_statistics() {
        let t = trace(vec![0.2, 0.4, 0.6, 0.4]);
        assert!((t.mean().value() - 0.4).abs() < 1e-12);
        assert_eq!(t.peak().value(), 0.6);
        assert!((t.volatility() - 0.2).abs() < 1e-12);
        assert_eq!(t.len(), 4);
        assert_eq!(t.duration(), Seconds::minutes(20.0));
    }

    #[test]
    fn cluster_consistency_enforced() {
        let a = trace(vec![0.1, 0.2]);
        let b = trace(vec![0.3, 0.4, 0.5]);
        assert!(matches!(
            ClusterTrace::new(vec![a.clone(), b]),
            Err(WorkloadError::InconsistentCluster { index: 1 })
        ));
        let c = Trace::new(Seconds::minutes(1.0), vec![0.3, 0.4]).unwrap();
        assert!(matches!(
            ClusterTrace::new(vec![a, c]),
            Err(WorkloadError::InconsistentCluster { index: 1 })
        ));
        assert_eq!(ClusterTrace::new(vec![]), Err(WorkloadError::EmptyTrace));
    }

    #[test]
    fn series_extraction() {
        let cluster =
            ClusterTrace::new(vec![trace(vec![0.1, 0.8]), trace(vec![0.3, 0.2])]).unwrap();
        let us = cluster.utilizations_at(0);
        assert_eq!(us.len(), 2);
        let means = cluster.mean_series();
        assert!((means[0].value() - 0.2).abs() < 1e-12);
        assert!((means[1].value() - 0.5).abs() < 1e-12);
        let maxes = cluster.max_series();
        assert_eq!(maxes[0].value(), 0.3);
        assert_eq!(maxes[1].value(), 0.8);
        assert!((cluster.overall_mean().value() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn take_servers_narrows() {
        let cluster = ClusterTrace::new(vec![
            trace(vec![0.1, 0.2]),
            trace(vec![0.3, 0.4]),
            trace(vec![0.5, 0.6]),
        ])
        .unwrap();
        let small = cluster.take_servers(2);
        assert_eq!(small.servers(), 2);
        assert_eq!(small.trace(1).get(1).value(), 0.4);
    }

    #[test]
    fn downsample_mean_and_max() {
        let cluster = ClusterTrace::new(vec![trace(vec![0.2, 0.4, 0.6, 0.8, 0.5, 0.1])]).unwrap();
        let mean = cluster.downsample(2, Aggregate::Mean);
        assert_eq!(mean.steps(), 3);
        assert!((mean.trace(0).samples()[0] - 0.3).abs() < 1e-12);
        assert!((mean.trace(0).samples()[2] - 0.3).abs() < 1e-12);
        assert_eq!(mean.interval(), Seconds::minutes(10.0));
        let max = cluster.downsample(3, Aggregate::Max);
        assert_eq!(max.steps(), 2);
        assert_eq!(max.trace(0).samples(), &[0.6, 0.8]);
        // Max-aggregated never below mean-aggregated.
        let mean3 = cluster.downsample(3, Aggregate::Mean);
        for (a, b) in max.trace(0).samples().iter().zip(mean3.trace(0).samples()) {
            assert!(a >= b);
        }
    }

    #[test]
    fn downsample_drops_ragged_tail() {
        let cluster = ClusterTrace::new(vec![trace(vec![0.1, 0.2, 0.3, 0.4, 0.5])]).unwrap();
        let d = cluster.downsample(2, Aggregate::Mean);
        assert_eq!(d.steps(), 2); // fifth sample dropped
    }

    #[test]
    fn serde_roundtrip() {
        let cluster =
            ClusterTrace::new(vec![trace(vec![0.1, 0.2]), trace(vec![0.3, 0.4])]).unwrap();
        let json = serde_json::to_string(&cluster).unwrap();
        let back: ClusterTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cluster);
    }
}
