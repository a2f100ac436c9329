//! Chunk plans for the streaming fleet-scale runner
//! ([`Simulator::run_fleet`](crate::simulation::Simulator::run_fleet)):
//! a fleet is sliced into chunks of whole circulations, and the engine
//! keeps one chunk's start states and per-step partials resident at a
//! time (DESIGN.md §14).

pub use h2p_exec::{ChunkPlan, ChunkSpec, PlanError};

/// Selects nothing. The engine evaluates every circulation-step in one
/// per-server loop; this single-variant type only keeps callers of
/// [`Simulator::with_layout`](crate::simulation::Simulator::with_layout)
/// compiling, and that method returns the simulator unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineLayout {
    /// The only variant.
    Columns,
}
