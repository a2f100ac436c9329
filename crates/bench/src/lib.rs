//! Shared helpers for the H2P experiment harness.
//!
//! Every figure and table of the paper has a binary in `src/bin/` that
//! regenerates it (see DESIGN.md §4 for the index). The helpers here
//! keep their output uniform: an aligned human-readable table on stdout
//! plus (behind `--json`) machine-readable rows for EXPERIMENTS.md
//! bookkeeping.

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

use h2p_core::simulation::{SimulationResult, Simulator};
use h2p_sched::{LoadBalance, Original, SchedulingPolicy};
use h2p_workload::{TraceGenerator, TraceKind};

/// Fixed seed for every experiment binary: results quoted in
/// EXPERIMENTS.md are reproducible bit-for-bit.
pub const EXPERIMENT_SEED: u64 = 20200530; // ISCA 2020 conference date

/// Prints an aligned table: a header row then data rows.
///
/// # Panics
///
/// Panics if a row's width differs from the header's.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), header.len(), "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", padded.join("  "));
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// The canonical location of a `BENCH_*.json` report: the workspace
/// root, regardless of the invoking directory.
///
/// The path is resolved from this crate's manifest directory, so the
/// reports land in one deterministic place (where the CI artifact step
/// collects them) even when a bench is invoked from somewhere else.
/// The directory is read at run time where cargo sets it for the
/// process it runs (`cargo bench`, `cargo run`), so a copy of the
/// repository built on another checkout's `target/` writes into its
/// own tree; otherwise the directory this crate was compiled from is
/// used.
#[must_use]
pub fn bench_output_path(file_name: &str) -> std::path::PathBuf {
    // h2p-lint: allow(L9): cargo's own variable; it places a report file, never a result
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(
            || std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")),
            std::path::PathBuf::from,
        )
        .join("..")
        .join("..")
        .join(file_name)
}

/// Whether the process was invoked with `--json`.
#[must_use]
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Emits one machine-readable result row (only in `--json` mode).
pub fn emit_json(value: &serde_json::Value) {
    if json_mode() {
        println!("{value}");
    }
}

/// Summary of one trace × policy simulation run.
#[derive(Debug, Clone)]
pub struct TraceRunSummary {
    /// Which workload class.
    pub kind: TraceKind,
    /// Which policy.
    pub policy: &'static str,
    /// The full result (series included).
    pub result: SimulationResult,
}

/// Runs the paper's six Fig. 14/15 combinations (3 traces × 2 policies)
/// at a fraction of the paper's cluster size (1.0 = full scale).
///
/// # Panics
///
/// Panics if `scale` is not in `(0, 1]` or the simulator cannot be
/// built (impossible for paper constants).
#[must_use]
pub fn run_paper_traces(scale: f64) -> Vec<TraceRunSummary> {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    // h2p-lint: allow(L2): paper constants build a valid simulator
    let sim = Simulator::paper_default().expect("paper simulator builds");
    let mut out = Vec::new();
    for kind in TraceKind::all() {
        // scale is in (0, 1], so the scaled server count stays a
        // small non-negative integer.
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            clippy::cast_precision_loss
        )]
        let servers = ((kind.paper_servers() as f64 * scale).round() as usize).max(1);
        let cluster = TraceGenerator::paper(kind, EXPERIMENT_SEED)
            .with_servers(servers)
            .generate();
        for policy in [&Original as &dyn SchedulingPolicy, &LoadBalance] {
            // h2p-lint: allow(L2): paper cluster stays on the feasible grid
            let result = sim.run(&cluster, policy).expect("paper grid is feasible");
            out.push(TraceRunSummary {
                kind,
                policy: policy.name(),
                result,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_traces_scaled_run() {
        let runs = run_paper_traces(0.02);
        assert_eq!(runs.len(), 6);
        for r in &runs {
            assert!(r.result.average_teg_power().unwrap().value() > 1.0);
            assert_eq!(r.result.total_violations(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn scale_validated() {
        let _ = run_paper_traces(0.0);
    }
}
