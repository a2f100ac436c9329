//! Streaming-shard transparency: for every workload class and any
//! shard size, the shards of [`TraceGenerator::shards`] concatenated in
//! index order must be **byte-identical** to the trace
//! [`TraceGenerator::generate`] materializes in one shot — including
//! when each shard is routed through the damage-repair pipeline
//! ([`h2p_workload::repair`]) instead of the whole trace at once. The
//! same holds for any server synthesized alone from the start state
//! the recording pass ([`h2p_workload::TraceBasis::starts`]) gives it.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_precision_loss
)]

use h2p_workload::repair::{repair_records, RepairPolicy};
use h2p_workload::{ClusterTrace, ServerStart, Trace, TraceGenerator, TraceKind, TraceShard};
use std::num::NonZeroUsize;

fn nz(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).unwrap()
}

fn test_generator(kind: TraceKind) -> TraceGenerator {
    TraceGenerator::paper(kind, 31)
        .with_servers(90)
        .with_steps(24)
}

/// Asserts two traces carry bit-identical samples (f64 bit patterns,
/// which is byte-identity for the serialized sample payload).
fn assert_trace_bits(a: &Trace, b: &Trace, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    assert_eq!(
        a.interval().value().to_bits(),
        b.interval().value().to_bits(),
        "{what}: interval"
    );
    for (i, (x, y)) in a.samples().iter().zip(b.samples()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: sample {i}");
    }
}

/// Asserts two sample series are bit-identical.
fn assert_sample_bits(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: sample {i}");
    }
}

fn concat_shards(shards: Vec<TraceShard>) -> ClusterTrace {
    let traces: Vec<Trace> = shards
        .into_iter()
        .flat_map(|s| {
            let cluster = s.into_cluster();
            cluster.iter().cloned().collect::<Vec<Trace>>()
        })
        .collect();
    ClusterTrace::new(traces).unwrap()
}

/// All three generators × shard sizes from single-server to
/// fleet-swallowing: index-order concatenation reproduces the
/// materialized trace exactly.
#[test]
fn shards_concatenate_to_the_materialized_trace() {
    for kind in TraceKind::all() {
        let generator = test_generator(kind);
        let whole = generator.generate();
        for per_shard in [1, 7, 40, 90, 1000] {
            let shards: Vec<TraceShard> = generator.shards(nz(per_shard)).collect();
            let expected_shards = 90usize.div_ceil(per_shard);
            assert_eq!(shards.len(), expected_shards, "{kind}/{per_shard}");
            // Shards arrive indexed, contiguous, and in order.
            let mut cursor = 0usize;
            for (i, shard) in shards.iter().enumerate() {
                assert_eq!(shard.index(), i, "{kind}/{per_shard}");
                assert_eq!(shard.start_server(), cursor, "{kind}/{per_shard}");
                cursor += shard.cluster().servers();
            }
            assert_eq!(cursor, 90, "{kind}/{per_shard}: coverage");
            let glued = concat_shards(shards);
            assert_eq!(glued.servers(), whole.servers());
            for s in 0..whole.servers() {
                assert_trace_bits(
                    whole.trace(s),
                    glued.trace(s),
                    &format!("{kind}/shard size {per_shard}/server {s}"),
                );
            }
        }
    }
}

/// The single-shot generator *is* the one-shard stream (`generate`
/// delegates), and an exhausted stream stays exhausted.
#[test]
fn stream_exhaustion_and_sizing_are_exact() {
    let generator = test_generator(TraceKind::Drastic);
    let mut stream = generator.shards(nz(40));
    assert_eq!(stream.len(), 3); // 40 + 40 + 10
    assert_eq!(stream.remaining_servers(), 90);
    let first = stream.next().unwrap();
    assert_eq!(first.cluster().servers(), 40);
    assert_eq!(stream.remaining_servers(), 50);
    assert_eq!(stream.len(), 2);
    let second = stream.next().unwrap();
    assert_eq!(second.start_server(), 40);
    let tail = stream.next().unwrap();
    assert_eq!(tail.start_server(), 80);
    assert_eq!(tail.cluster().servers(), 10);
    assert!(stream.next().is_none());
    assert!(stream.next().is_none());
    assert_eq!(stream.len(), 0);
}

/// Deterministically damages a sample series: every 9th record becomes
/// a gap, every 13th a malformed out-of-range reading.
fn damage(samples: &[f64]) -> Vec<Option<f64>> {
    samples
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            if i % 9 == 3 {
                None
            } else if i % 13 == 5 {
                Some(7.7)
            } else {
                Some(v)
            }
        })
        .collect()
}

/// Repaired traces compose with sharding: damaging and repairing each
/// shard's series independently yields byte-identical samples to
/// damaging and repairing the whole materialized trace — for both
/// repairing policies, on every generator class.
#[test]
fn shard_wise_repair_matches_whole_trace_repair() {
    for kind in TraceKind::all() {
        let generator = test_generator(kind);
        let whole = generator.generate();
        for policy in [RepairPolicy::HoldLast, RepairPolicy::Interpolate] {
            // Whole-trace pipeline.
            let repaired_whole: Vec<Vec<f64>> = whole
                .iter()
                .map(|t| repair_records(&damage(t.samples()), policy).unwrap().0)
                .collect();
            // Shard-wise pipeline: same damage, same policy, applied
            // shard by shard as a streaming consumer would.
            let mut repaired_sharded: Vec<Vec<f64>> = Vec::new();
            for shard in generator.shards(nz(7)) {
                for t in shard.cluster().iter() {
                    repaired_sharded.push(repair_records(&damage(t.samples()), policy).unwrap().0);
                }
            }
            assert_eq!(repaired_whole.len(), repaired_sharded.len());
            for (s, (a, b)) in repaired_whole.iter().zip(&repaired_sharded).enumerate() {
                assert_eq!(a.len(), b.len());
                for (i, (x, y)) in a.iter().zip(b).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{kind}/{policy:?}/server {s}/sample {i}"
                    );
                }
            }
        }
        // The refusing policy surfaces the same typed error either way
        // (the first damaged record is the index-3 gap, reported with a
        // NaN value — compare structurally, NaN never compares equal).
        let first_damaged = damage(whole.trace(0).samples());
        let whole_err = repair_records(&first_damaged, RepairPolicy::Error).unwrap_err();
        let shard = generator.shards(nz(1)).next().unwrap();
        let shard_err = repair_records(
            &damage(shard.cluster().trace(0).samples()),
            RepairPolicy::Error,
        )
        .unwrap_err();
        for err in [&whole_err, &shard_err] {
            assert!(
                matches!(
                    err,
                    h2p_workload::WorkloadError::InvalidSample { index: 3, value } if value.is_nan()
                ),
                "{kind}: Error policy gave {err:?}"
            );
        }
    }
}

/// Paper-dimension smoke: the Drastic class streams its full 1,313
/// servers in uneven shards without drift at the tail.
#[test]
fn paper_scale_stream_covers_every_server() {
    let generator = TraceGenerator::paper(TraceKind::Drastic, 3);
    let whole = generator.generate();
    let shards: Vec<TraceShard> = generator.shards(nz(500)).collect();
    assert_eq!(shards.len(), 3); // 500 + 500 + 313
    assert_eq!(shards[2].cluster().servers(), 313);
    // Spot-check the last server of the last shard against the
    // materialized trace (the furthest point the RNG sequence reaches).
    let last_local = shards[2].cluster().trace(312);
    assert_trace_bits(whole.trace(1312), last_local, "drastic tail server");
}

/// The start-state oracle: the recording pass's start states plus
/// per-server synthesis reproduce the materialized trace bit for bit,
/// for every class, server count and horizon. At 288 steps both
/// bursting classes start and end bursts (the generator's unit test
/// `oracle_horizon_crosses_burst_starts_and_ends` asserts it), so the
/// pass's burst draws are covered.
#[test]
fn recorded_starts_reproduce_the_materialized_trace() {
    for kind in TraceKind::all() {
        for servers in [1, 7, 90, 200] {
            for steps in [1, 24, 288] {
                let generator = TraceGenerator::paper(kind, 31)
                    .with_servers(servers)
                    .with_steps(steps);
                let whole = generator.generate();
                let basis = generator.basis();
                assert_eq!(basis.steps(), steps);
                let starts = basis.starts();
                assert_eq!(starts.len(), servers);
                let mut count = 0;
                for (s, start) in starts.enumerate() {
                    let mut samples = Vec::new();
                    basis.synthesize(&start, &mut samples);
                    assert_sample_bits(
                        whole.trace(s).samples(),
                        &samples,
                        &format!("{kind}/{servers} x {steps}/server {s}"),
                    );
                    count += 1;
                }
                assert_eq!(count, servers, "{kind}/{servers} x {steps}: starts");
            }
        }
    }
}

/// Server *n* synthesized alone from its recorded start is the shard
/// stream's *n*-th server, in whatever order the servers are
/// synthesized.
#[test]
fn a_recorded_start_synthesizes_the_shard_streams_server() {
    for kind in TraceKind::all() {
        let generator = test_generator(kind);
        let basis = generator.basis();
        let starts: Vec<ServerStart> = basis.starts().collect();
        let streamed: Vec<TraceShard> = generator.shards(nz(1)).collect();
        assert_eq!(starts.len(), streamed.len());
        for n in (0..starts.len()).rev() {
            let mut samples = Vec::new();
            basis.synthesize(&starts[n], &mut samples);
            assert_sample_bits(
                streamed[n].cluster().trace(0).samples(),
                &samples,
                &format!("{kind}/server {n}"),
            );
        }
    }
}
