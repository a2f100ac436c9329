//! Hierarchical fleet sharding: circulation → chunk → lane.
//!
//! A [`ChunkPlan`] slices a fleet of `servers` servers — grouped into
//! water circulations of a fixed size — into *chunks* of whole
//! circulations. Chunks are the unit of residency (the streaming fleet
//! engine records and holds one chunk's server start states, 32 B per
//! server, at a time; the lanes' per-step partial aggregates are
//! absorbed through [`try_par_fold`](crate::try_par_fold), whose window
//! bounds them); within a chunk, circulations are the unit of
//! parallelism (run as worker lanes by the pool primitives in this
//! crate). The plan guarantees:
//!
//! * **no circulation is ever split** across chunks — chunk boundaries
//!   fall on multiples of the circulation size, so per-circulation
//!   physics (scheduling, cooling optimization, aggregation) never sees
//!   a truncated member set;
//! * **chunks cover the fleet exactly once, in index order** — the
//!   concatenation of all chunk server ranges is `0..servers`;
//! * **memory stays under a declared ceiling** when the plan is built
//!   with [`ChunkPlan::sized_for`]: the resident-chunk footprint
//!   (`circulations_per_chunk × per_circulation_bytes`) never exceeds
//!   the ceiling, or plan construction fails with a typed error rather
//!   than silently over-allocating at 100k-server scale.

use core::fmt;
use std::num::NonZeroUsize;
use std::ops::Range;

/// Errors from fleet chunk planning.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanError {
    /// A plan over zero servers was requested (a zero-server
    /// circulation cannot exist; the simulation layer reports such
    /// fleets as empty runs).
    EmptyFleet,
    /// The declared memory ceiling cannot hold even one circulation's
    /// resident footprint.
    CeilingTooSmall {
        /// Bytes one resident circulation needs.
        per_circulation_bytes: usize,
        /// The declared ceiling, in bytes.
        ceiling_bytes: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::EmptyFleet => write!(f, "chunk plan needs at least one server"),
            PlanError::CeilingTooSmall {
                per_circulation_bytes,
                ceiling_bytes,
            } => write!(
                f,
                "memory ceiling {ceiling_bytes} B cannot hold one circulation \
                 ({per_circulation_bytes} B)"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// One chunk of a [`ChunkPlan`]: a contiguous run of whole
/// circulations and the server range they cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkSpec {
    /// Chunk index, `0..n_chunks`.
    pub index: usize,
    /// Circulation indices in this chunk (global, half-open).
    pub circulations: Range<usize>,
    /// Server indices in this chunk (global, half-open).
    pub servers: Range<usize>,
}

/// A hierarchical sharding plan over a fleet (see the [module
/// docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPlan {
    servers: usize,
    circulation: NonZeroUsize,
    circs_per_chunk: NonZeroUsize,
}

impl ChunkPlan {
    /// Creates a plan over `servers` servers in circulations of
    /// `circulation` servers, grouping `circs_per_chunk` circulations
    /// per resident chunk.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::EmptyFleet`] when `servers == 0`.
    pub fn new(
        servers: usize,
        circulation: NonZeroUsize,
        circs_per_chunk: NonZeroUsize,
    ) -> Result<Self, PlanError> {
        if servers == 0 {
            return Err(PlanError::EmptyFleet);
        }
        Ok(ChunkPlan {
            servers,
            circulation,
            circs_per_chunk,
        })
    }

    /// Creates a plan whose resident chunk stays within
    /// `ceiling_bytes`, given a caller-estimated per-circulation
    /// footprint. The chunk size is the largest whole-circulation count
    /// that fits.
    ///
    /// A streamed fleet run holds no trace: each lane synthesizes its
    /// circulation from recorded start states and frees the samples
    /// when it ends, and the engine's ordered fold absorbs each lane's
    /// per-step partials once every lower lane has been, so the worker
    /// count, not the chunk, bounds them. What a chunk keeps, and what
    /// the estimate must count, is one start state per server (32 B
    /// per server, `circulation × 32` B per circulation).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::EmptyFleet`] when `servers == 0`, and
    /// [`PlanError::CeilingTooSmall`] when even a single circulation
    /// exceeds the ceiling (`per_circulation_bytes` of 0 is treated as
    /// 1 so the division is defined).
    pub fn sized_for(
        servers: usize,
        circulation: NonZeroUsize,
        per_circulation_bytes: usize,
        ceiling_bytes: usize,
    ) -> Result<Self, PlanError> {
        if servers == 0 {
            return Err(PlanError::EmptyFleet);
        }
        let per_circ = per_circulation_bytes.max(1);
        if per_circ > ceiling_bytes {
            return Err(PlanError::CeilingTooSmall {
                per_circulation_bytes: per_circ,
                ceiling_bytes,
            });
        }
        let fit = ceiling_bytes / per_circ;
        let n_circs = servers.div_ceil(circulation.get());
        let circs_per_chunk =
            NonZeroUsize::new(fit.min(n_circs).max(1)).unwrap_or(NonZeroUsize::MIN);
        Ok(ChunkPlan {
            servers,
            circulation,
            circs_per_chunk,
        })
    }

    /// Total servers in the fleet.
    #[must_use]
    pub fn servers(&self) -> usize {
        self.servers
    }

    /// Servers per circulation.
    #[must_use]
    pub fn circulation_size(&self) -> NonZeroUsize {
        self.circulation
    }

    /// Circulations per resident chunk.
    #[must_use]
    pub fn circs_per_chunk(&self) -> NonZeroUsize {
        self.circs_per_chunk
    }

    /// Number of circulations in the fleet (the final one may be
    /// ragged — fewer servers than `circulation_size`).
    #[must_use]
    pub fn n_circulations(&self) -> usize {
        self.servers.div_ceil(self.circulation.get())
    }

    /// Number of chunks in the plan.
    #[must_use]
    pub fn n_chunks(&self) -> usize {
        self.n_circulations().div_ceil(self.circs_per_chunk.get())
    }

    /// Servers per full chunk (`circs_per_chunk × circulation_size`,
    /// saturating) — the shard size a streaming generator should use so
    /// shard boundaries coincide with chunk boundaries.
    #[must_use]
    pub fn max_chunk_servers(&self) -> NonZeroUsize {
        NonZeroUsize::new(
            self.circs_per_chunk
                .get()
                .saturating_mul(self.circulation.get()),
        )
        .unwrap_or(NonZeroUsize::MIN)
    }

    /// The resident footprint of one full chunk under a caller-supplied
    /// per-circulation estimate (the quantity [`ChunkPlan::sized_for`]
    /// bounds).
    #[must_use]
    pub fn planned_chunk_bytes(&self, per_circulation_bytes: usize) -> usize {
        self.circs_per_chunk
            .get()
            .saturating_mul(per_circulation_bytes)
    }

    /// Iterates the chunks in index order. Chunk server ranges
    /// partition `0..servers` and always begin on a circulation
    /// boundary; the final chunk (and its final circulation) may be
    /// ragged.
    pub fn chunks(&self) -> impl Iterator<Item = ChunkSpec> + '_ {
        let circ = self.circulation.get();
        let cpc = self.circs_per_chunk.get();
        let n_circs = self.n_circulations();
        let servers = self.servers;
        (0..self.n_chunks()).map(move |index| {
            let circ_start = index * cpc;
            let circ_end = circ_start.saturating_add(cpc).min(n_circs);
            let server_start = circ_start.saturating_mul(circ).min(servers);
            let server_end = circ_end.saturating_mul(circ).min(servers);
            ChunkSpec {
                index,
                circulations: circ_start..circ_end,
                servers: server_start..server_end,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nz(n: usize) -> NonZeroUsize {
        NonZeroUsize::new(n).unwrap()
    }

    #[test]
    fn zero_server_plan_is_a_typed_error() {
        assert_eq!(ChunkPlan::new(0, nz(40), nz(4)), Err(PlanError::EmptyFleet));
        assert_eq!(
            ChunkPlan::sized_for(0, nz(40), 1024, 1 << 20),
            Err(PlanError::EmptyFleet)
        );
    }

    #[test]
    fn chunks_partition_the_fleet_in_order() {
        // 90 servers ÷ 40 per circulation = circulations of 40/40/10;
        // 2 circulations per chunk → chunks of 80 and 10 servers.
        let plan = ChunkPlan::new(90, nz(40), nz(2)).unwrap();
        assert_eq!(plan.n_circulations(), 3);
        assert_eq!(plan.n_chunks(), 2);
        let chunks: Vec<ChunkSpec> = plan.chunks().collect();
        assert_eq!(chunks[0].circulations, 0..2);
        assert_eq!(chunks[0].servers, 0..80);
        assert_eq!(chunks[1].circulations, 2..3);
        assert_eq!(chunks[1].servers, 80..90);
        // Cover exactly once, in order.
        let mut cursor = 0;
        for c in &chunks {
            assert_eq!(c.servers.start, cursor);
            cursor = c.servers.end;
        }
        assert_eq!(cursor, 90);
    }

    #[test]
    fn chunk_boundaries_never_split_a_circulation() {
        for servers in [1, 7, 40, 41, 90, 1000, 1001] {
            for circ in [1, 7, 40] {
                for cpc in [1, 3, 1000] {
                    let plan = ChunkPlan::new(servers, nz(circ), nz(cpc)).unwrap();
                    for chunk in plan.chunks() {
                        assert_eq!(
                            chunk.servers.start % circ,
                            0,
                            "servers={servers} circ={circ} cpc={cpc}"
                        );
                        assert_eq!(chunk.servers.start, chunk.circulations.start * circ);
                        // A chunk ends either on a boundary or at the
                        // fleet's ragged end.
                        assert!(chunk.servers.end % circ == 0 || chunk.servers.end == servers);
                    }
                }
            }
        }
    }

    #[test]
    fn chunk_larger_than_fleet_degenerates_to_one_chunk() {
        let plan = ChunkPlan::new(90, nz(40), nz(1000)).unwrap();
        assert_eq!(plan.n_chunks(), 1);
        let only: Vec<ChunkSpec> = plan.chunks().collect();
        assert_eq!(only[0].servers, 0..90);
        assert_eq!(only[0].circulations, 0..3);
    }

    #[test]
    fn sized_for_respects_the_ceiling() {
        // 100 circulations at 1 KiB each under a 10 KiB ceiling → 10
        // circulations per chunk.
        let plan = ChunkPlan::sized_for(4000, nz(40), 1024, 10 * 1024).unwrap();
        assert_eq!(plan.circs_per_chunk().get(), 10);
        assert!(plan.planned_chunk_bytes(1024) <= 10 * 1024);
        // A roomy ceiling caps at the fleet itself.
        let roomy = ChunkPlan::sized_for(4000, nz(40), 1024, usize::MAX).unwrap();
        assert_eq!(roomy.circs_per_chunk().get(), 100);
        // Too tight for one circulation: typed error.
        assert_eq!(
            ChunkPlan::sized_for(4000, nz(40), 1024, 100),
            Err(PlanError::CeilingTooSmall {
                per_circulation_bytes: 1024,
                ceiling_bytes: 100,
            })
        );
    }

    #[test]
    fn max_chunk_servers_matches_uniform_sharding() {
        let plan = ChunkPlan::new(90, nz(40), nz(2)).unwrap();
        assert_eq!(plan.max_chunk_servers().get(), 80);
        // Single-server chunks are representable.
        let single = ChunkPlan::new(5, nz(1), nz(1)).unwrap();
        assert_eq!(single.max_chunk_servers().get(), 1);
        assert_eq!(single.n_chunks(), 5);
    }

    #[test]
    fn plan_error_messages_render() {
        assert!(PlanError::EmptyFleet.to_string().contains("at least one"));
        let e = PlanError::CeilingTooSmall {
            per_circulation_bytes: 2048,
            ceiling_bytes: 100,
        };
        assert!(e.to_string().contains("2048"));
        assert!(e.to_string().contains("100"));
    }
}
