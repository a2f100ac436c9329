//! Trace persistence.
//!
//! Clusters serialize to a compact JSON document (interval + per-server
//! sample arrays), so generated workloads can be archived and replayed
//! across experiment runs, or real traces (converted offline from the
//! Google/Alibaba archives) can be loaded in place of the synthetic
//! generators.

use crate::repair::{self, RepairPolicy, RepairReport};
use crate::trace::ClusterTrace;
use crate::WorkloadError;
use h2p_units::Seconds;
use serde::Deserialize;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;

/// Where in a source document an invalid record came from.
///
/// Multi-shard loads (many servers per document, many jobs per trace)
/// used to surface bare [`WorkloadError`]s whose `index` fields count
/// *within one record series*, losing which series — and which source
/// line — was damaged. Loaders attach this context so a repair refusal
/// points back at the offending input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordContext {
    /// The path handed to the loader, as given by the caller.
    pub file: String,
    /// 0-based index of the offending record series within the
    /// document: the server trace for cluster documents, the job
    /// record for job traces.
    pub record: usize,
    /// 1-based source line, when the format is line-oriented
    /// (CSV/JSONL). `None` for single-document JSON.
    pub line: Option<usize>,
}

impl core::fmt::Display for RecordContext {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.line {
            Some(line) => write!(f, "{}:{} (record {})", self.file, line, self.record),
            None => write!(f, "{} (record {})", self.file, self.record),
        }
    }
}

/// Errors from trace I/O.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceIoError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed trace document.
    Format(serde_json::Error),
    /// A line-oriented job-trace document failed to parse.
    Parse {
        /// Source file path.
        file: String,
        /// 1-based line number of the unparseable line.
        line: usize,
        /// What was wrong with the line.
        message: String,
    },
    /// The document parsed but its contents violate trace invariants
    /// (or a repair policy refused to fix them).
    Invalid {
        /// The violated invariant.
        error: WorkloadError,
        /// Where the offending record came from, when the loader can
        /// attribute it. `None` only for errors that concern the
        /// document as a whole.
        context: Option<RecordContext>,
    },
}

impl TraceIoError {
    /// An [`Invalid`](Self::Invalid) error attributed to a source
    /// location.
    #[must_use]
    pub fn invalid_at(
        error: WorkloadError,
        file: impl Into<String>,
        record: usize,
        line: Option<usize>,
    ) -> Self {
        TraceIoError::Invalid {
            error,
            context: Some(RecordContext {
                file: file.into(),
                record,
                line,
            }),
        }
    }
}

impl core::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceIoError::Format(e) => write!(f, "trace document malformed: {e}"),
            TraceIoError::Parse {
                file,
                line,
                message,
            } => write!(f, "trace record malformed at {file}:{line}: {message}"),
            TraceIoError::Invalid {
                error,
                context: Some(ctx),
            } => write!(f, "trace contents invalid at {ctx}: {error}"),
            TraceIoError::Invalid {
                error,
                context: None,
            } => write!(f, "trace contents invalid: {error}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Format(e) => Some(e),
            TraceIoError::Parse { .. } => None,
            TraceIoError::Invalid { error, .. } => Some(error),
        }
    }
}

impl From<WorkloadError> for TraceIoError {
    fn from(e: WorkloadError) -> Self {
        TraceIoError::Invalid {
            error: e,
            context: None,
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<serde_json::Error> for TraceIoError {
    fn from(e: serde_json::Error) -> Self {
        TraceIoError::Format(e)
    }
}

/// Writes a cluster trace to a JSON file.
///
/// # Errors
///
/// Returns [`TraceIoError`] on filesystem or serialization failure,
/// including failures surfaced when the buffered writer is flushed
/// (dropping a `BufWriter` swallows write errors, so the flush is
/// explicit).
pub fn save_cluster(cluster: &ClusterTrace, path: impl AsRef<Path>) -> Result<(), TraceIoError> {
    let mut writer = BufWriter::new(File::create(path)?);
    serde_json::to_writer(&mut writer, cluster)?;
    writer.flush()?;
    Ok(())
}

/// Reads a cluster trace from a JSON file.
///
/// # Errors
///
/// Returns [`TraceIoError`] on filesystem failure or a malformed
/// document (including documents violating the trace invariants —
/// lengths, intervals and sample ranges are re-validated on entry).
pub fn load_cluster(path: impl AsRef<Path>) -> Result<ClusterTrace, TraceIoError> {
    let file = File::open(path)?;
    let cluster: ClusterTrace = serde_json::from_reader(BufReader::new(file))?;
    Ok(cluster)
}

/// Lenient on-disk shape: per-trace records may be `null` (a dropped
/// record / gap) or out-of-range (a malformed record), both of which
/// the strict [`load_cluster`] path rejects.
#[derive(Deserialize)]
struct RaggedDocument {
    traces: Vec<RaggedTrace>,
}

/// One server's raw record series in a [`RaggedDocument`].
#[derive(Deserialize)]
struct RaggedTrace {
    interval_seconds: f64,
    samples: Vec<Option<f64>>,
}

/// Reads a possibly-damaged cluster trace, repairing gaps (`null`
/// records) and malformed samples under `policy`.
///
/// The document layout matches [`save_cluster`]'s output, except that
/// samples may be `null`. Returns the validated cluster together with
/// a [`RepairReport`] stating how many records were synthesized, so
/// experiments can bound how much of their input is real.
///
/// # Errors
///
/// * [`TraceIoError::Io`] / [`TraceIoError::Format`] as for
///   [`load_cluster`].
/// * [`TraceIoError::Invalid`] when the repaired contents still violate
///   trace invariants — including [`RepairPolicy::Error`] refusing
///   damage, a whole server with no valid record, or servers that
///   disagree in interval or length. The error's [`RecordContext`]
///   names the file and the offending server-trace index, so multi-
///   shard loads no longer lose which series was damaged.
pub fn load_cluster_repaired(
    path: impl AsRef<Path>,
    policy: RepairPolicy,
) -> Result<(ClusterTrace, RepairReport), TraceIoError> {
    let path = path.as_ref();
    let file = File::open(path)?;
    let doc: RaggedDocument = serde_json::from_reader(BufReader::new(file))?;
    let mut report = RepairReport::default();
    let mut traces = Vec::with_capacity(doc.traces.len());
    for (index, raw) in doc.traces.iter().enumerate() {
        let (trace, r) =
            repair::repair_trace(Seconds::new(raw.interval_seconds), &raw.samples, policy)
                .map_err(|e| {
                    TraceIoError::invalid_at(e, path.display().to_string(), index, None)
                })?;
        report.absorb(r);
        traces.push(trace);
    }
    let cluster = ClusterTrace::new(traces).map_err(|e| {
        let record = match &e {
            WorkloadError::InconsistentCluster { index } => Some(*index),
            _ => None,
        };
        match record {
            Some(index) => TraceIoError::invalid_at(e, path.display().to_string(), index, None),
            None => TraceIoError::from(e),
        }
    })?;
    Ok((cluster, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceGenerator, TraceKind};

    #[test]
    fn save_load_roundtrip() {
        let cluster = TraceGenerator::paper(TraceKind::Common, 5)
            .with_servers(10)
            .with_steps(12)
            .generate();
        let dir = std::env::temp_dir().join("h2p_trace_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.json");
        save_cluster(&cluster, &path).unwrap();
        let back = load_cluster(&path).unwrap();
        assert_eq!(back, cluster);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_reports_io_error() {
        let err = load_cluster("/nonexistent/h2p/trace.json").unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)));
        assert!(err.to_string().contains("i/o"));
    }

    #[test]
    fn malformed_document_reports_format_error() {
        let dir = std::env::temp_dir().join("h2p_trace_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, b"{not json").unwrap();
        let err = load_cluster(&path).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)));
        std::fs::remove_file(&path).ok();
    }

    fn write_doc(name: &str, body: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("h2p_trace_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, body.as_bytes()).unwrap();
        path
    }

    #[test]
    fn loader_refuses_a_non_finite_interval() {
        // `1e999` parses to +∞; a run over it had step times NaN and ∞.
        let path = write_doc(
            "infinite_interval.json",
            r#"{"traces":[{"interval_seconds":1e999,"samples":[0.2,0.3]},
                          {"interval_seconds":1e999,"samples":[0.4,0.5]}]}"#,
        );
        let err = load_cluster(&path).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "{err}");
        assert!(err.to_string().contains("is not finite"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn repaired_loader_fills_null_records() {
        let path = write_doc(
            "gappy.json",
            r#"{"traces":[{"interval_seconds":300.0,"samples":[0.2,null,0.6]},
                          {"interval_seconds":300.0,"samples":[null,0.5,9.9]}]}"#,
        );
        let (cluster, report) = load_cluster_repaired(&path, RepairPolicy::Interpolate).unwrap();
        assert_eq!(cluster.servers(), 2);
        assert!((cluster.trace(0).samples()[1] - 0.4).abs() < 1e-12);
        assert_eq!(cluster.trace(1).samples(), &[0.5, 0.5, 0.5]);
        assert_eq!(report.gaps, 2);
        assert_eq!(report.malformed, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn repaired_loader_error_policy_reports_invalid() {
        let path = write_doc(
            "gappy_strict.json",
            r#"{"traces":[{"interval_seconds":300.0,"samples":[0.2,null,0.6]}]}"#,
        );
        let err = load_cluster_repaired(&path, RepairPolicy::Error).unwrap_err();
        assert!(matches!(
            err,
            TraceIoError::Invalid {
                error: WorkloadError::InvalidSample { index: 1, .. },
                ..
            }
        ));
        assert!(err.to_string().contains("invalid"));
        assert!(std::error::Error::source(&err).is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn repaired_loader_reports_which_shard_was_damaged() {
        // Regression: with several server shards in one document, a
        // repair refusal must name the originating trace index and
        // file, not just the within-series sample index.
        let path = write_doc(
            "multi_shard_strict.json",
            r#"{"traces":[{"interval_seconds":300.0,"samples":[0.2,0.3]},
                          {"interval_seconds":300.0,"samples":[0.4,0.5]},
                          {"interval_seconds":300.0,"samples":[0.6,null]}]}"#,
        );
        let err = load_cluster_repaired(&path, RepairPolicy::Error).unwrap_err();
        match &err {
            TraceIoError::Invalid {
                error: WorkloadError::InvalidSample { index: 1, .. },
                context: Some(ctx),
            } => {
                assert_eq!(ctx.record, 2, "{ctx:?}");
                assert!(ctx.file.contains("multi_shard_strict.json"), "{ctx:?}");
                assert_eq!(ctx.line, None, "{ctx:?}");
            }
            other => panic!("unexpected error shape: {other:?}"),
        }
        let text = err.to_string();
        assert!(text.contains("multi_shard_strict.json"), "{text}");
        assert!(text.contains("record 2"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn repaired_loader_rejects_inconsistent_servers() {
        let path = write_doc(
            "ragged.json",
            r#"{"traces":[{"interval_seconds":300.0,"samples":[0.2,0.3]},
                          {"interval_seconds":300.0,"samples":[0.4]}]}"#,
        );
        let err = load_cluster_repaired(&path, RepairPolicy::HoldLast).unwrap_err();
        match &err {
            TraceIoError::Invalid {
                error: WorkloadError::InconsistentCluster { index: 1 },
                context: Some(ctx),
            } => assert_eq!(ctx.record, 1, "{ctx:?}"),
            other => panic!("unexpected error shape: {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn repaired_loader_matches_strict_loader_on_clean_documents() {
        let cluster = TraceGenerator::paper(TraceKind::Irregular, 7)
            .with_servers(6)
            .with_steps(10)
            .generate();
        let dir = std::env::temp_dir().join("h2p_trace_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("clean_repair.json");
        save_cluster(&cluster, &path).unwrap();
        let strict = load_cluster(&path).unwrap();
        let (lenient, report) = load_cluster_repaired(&path, RepairPolicy::Error).unwrap();
        assert_eq!(strict, lenient);
        assert_eq!(report.repaired(), 0);
        std::fs::remove_file(&path).ok();
    }
}
