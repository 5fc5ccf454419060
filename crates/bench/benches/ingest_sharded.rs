//! Ingest throughput vs shard count, measured under the paper's actual
//! workload: sensors write continuously while dashboards query (§2.4). A
//! writer thread drives pre-built batches through `put_batch` while reader
//! threads loop group-by range queries over the loaded store.
//!
//! With one shard, every dashboard query holds THE read lock for its whole
//! collection pass and each write must wait it out; with four, a query
//! only blocks the writer while it collects from the one shard the writer
//! is currently targeting. That isolation is what sharding buys, and it
//! shows up even on a single-core host (the CI gate compares the
//! noise-robust `peak_elems_per_sec` minimum statistic).
//!
//! The `ingest_runtime*` groups measure the ingest runtime three ways:
//! `ingest_runtime` feeds it run-shaped string-keyed batches (one device's
//! history is contiguous), `ingest_runtime_strings` feeds it the traffic
//! the pipeline's storage consumer actually produces — nine different
//! series per uplink, interleaved, one uplink per submit — still keyed by
//! strings, and `ingest_runtime_handles` feeds it the same traffic by
//! pre-registered `SeriesRef`, the way the pipeline does.
//!
//! CI exports the results as `BENCH_ingest.json` (via `CRITERION_JSON`)
//! and the `bench_check` validator asserts 4-shard throughput beats
//! 1-shard.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ctt_core::time::{Span, Timestamp};
use ctt_ingest::{IngestConfig, IngestRuntime, SeriesRef};
use ctt_obs::Registry;
use ctt_tsdb::{DataPoint, Query, ShardedTsdb, DEFAULT_SHARDS};
use std::sync::atomic::{AtomicBool, Ordering};

const DEVICES: u32 = 8;
const POINTS_PER_DEVICE: usize = 1_600;
/// put_batch granularity: small enough that queries can slip between
/// batches, large enough to amortize the per-batch lock acquisition.
const BATCH: usize = 200;
/// Dashboard threads querying while the writer ingests.
const READERS: usize = 2;
/// Pipeline-shaped input: Trondheim's twelve nodes, 300 reporting rounds
/// (≈ one simulated day), nine points per uplink.
const UPLINK_DEVICES: u32 = 12;
const UPLINK_ROUNDS: usize = 300;

fn preloaded(shards: usize, batch: &[DataPoint]) -> ShardedTsdb {
    let db = ShardedTsdb::new(shards);
    db.put_batch(batch);
    db.seal_all();
    db
}

fn ingest_throughput(c: &mut Criterion) {
    let batches = ctt_bench::writer_batches(1, DEVICES, POINTS_PER_DEVICE);
    let batch = &batches[0];
    let start = Timestamp::from_civil(2017, 1, 1, 0, 0, 0);
    let query = Query::range("ctt.air.co2", start, start + Span::days(30)).group_by("device");
    let mut g = c.benchmark_group("ingest");
    g.sample_size(10);
    g.throughput(Throughput::Elements(batch.len() as u64));
    for shards in [1usize, 2, 4, 8] {
        g.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            // Readers live across all samples; only the write loop is
            // timed. Re-writing the same points each sample keeps the
            // store stationary (duplicates collapse last-write-wins on
            // seal), so every sample sees the same query working set.
            let db = preloaded(shards, batch);
            let done = AtomicBool::new(false);
            let (db_ref, done_ref, query_ref) = (&db, &done, &query);
            std::thread::scope(|s| {
                for _ in 0..READERS {
                    s.spawn(move || {
                        while !done_ref.load(Ordering::Relaxed) {
                            black_box(db_ref.execute(query_ref).expect("query ok"));
                        }
                    });
                }
                b.iter(|| {
                    for chunk in batch.chunks(BATCH) {
                        db_ref.put_batch(chunk);
                    }
                    black_box(())
                });
                done.store(true, Ordering::Relaxed);
            });
        });
    }
    g.finish();
}

fn ingest_single_writer(c: &mut Criterion) {
    // Single-threaded batched ingest with no read load: the per-point cost
    // floor (hash + route + intern + append) at 1 vs 4 shards. Store
    // construction is untimed setup, as in `ingest_runtime`: the timed
    // region is ingest work only. This and `ingest_runtime` use a doubled
    // workload so each timed region spans several scheduler timeslices —
    // the two means are gate-compared, and short iterations flap on
    // single-core hosts.
    let batches = ctt_bench::writer_batches(1, DEVICES, 2 * POINTS_PER_DEVICE);
    let batch = &batches[0];
    let mut g = c.benchmark_group("ingest_serial");
    g.sample_size(10);
    g.throughput(Throughput::Elements(batch.len() as u64));
    for shards in [1usize, 4] {
        g.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            b.iter_with_setup(
                || ShardedTsdb::new(shards),
                |db| {
                    for chunk in batch.chunks(BATCH) {
                        db.put_batch(chunk);
                    }
                    black_box(db.stats().points)
                },
            );
        });
    }
    g.finish();
}

/// A fresh store with an ingest runtime in front of it.
fn fresh_runtime(shards: usize) -> (ShardedTsdb, IngestRuntime) {
    let registry = Registry::new();
    let mut db = ShardedTsdb::new(shards);
    db.attach_registry(&registry);
    let rt = IngestRuntime::new(&db, &registry, IngestConfig::default());
    (db, rt)
}

fn ingest_runtime(c: &mut Criterion) {
    // The handle-resolving, run-framing runtime against `ingest_serial`'s
    // string-keyed `put_batch`, head to head: a fresh store per iteration
    // (built in untimed setup), the same borrowed chunks, and a flush
    // closing every timed region so it covers every point applied. The
    // loaded store drops in the timed region on both arms.
    let batches = ctt_bench::writer_batches(1, DEVICES, 2 * POINTS_PER_DEVICE);
    let batch = &batches[0];
    let mut g = c.benchmark_group("ingest_runtime");
    g.sample_size(10);
    g.throughput(Throughput::Elements(batch.len() as u64));
    for shards in [1usize, DEFAULT_SHARDS] {
        g.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
            b.iter_with_setup(
                || fresh_runtime(shards),
                |(db, mut rt)| {
                    for chunk in batch.chunks(BATCH) {
                        rt.submit(chunk);
                    }
                    rt.flush();
                    black_box(db.stats().points)
                },
            );
        });
    }
    g.finish();
}

fn ingest_runtime_uplinks(c: &mut Criterion) {
    // The traffic the pipeline's storage consumer produces: every submit is
    // one uplink's nine points, each for a different series, so consecutive
    // points never share a series. Same shape as `ingest_runtime`
    // otherwise (fresh store per iteration, flush closes the timed
    // region). By handle, the series are registered in untimed setup — the
    // pipeline pays that once per device lifetime — so the two groups
    // differ by exactly the per-point cost of resolving strings.
    let points = ctt_bench::uplink_points(UPLINK_DEVICES, UPLINK_ROUNDS);
    let per_submit = ctt_bench::POINTS_PER_UPLINK;
    for (group, by_handle) in [
        ("ingest_runtime_strings", false),
        ("ingest_runtime_handles", true),
    ] {
        let mut g = c.benchmark_group(group);
        g.sample_size(10);
        g.throughput(Throughput::Elements(points.len() as u64));
        for shards in [1usize, DEFAULT_SHARDS] {
            g.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, &shards| {
                b.iter_with_setup(
                    || {
                        let (db, mut rt) = fresh_runtime(shards);
                        let resolved: Vec<(SeriesRef, Timestamp, f64)> = if by_handle {
                            points
                                .iter()
                                .filter_map(|p| {
                                    let h = rt.register(&p.metric, &p.tags)?;
                                    Some((h, p.time, p.value))
                                })
                                .collect()
                        } else {
                            Vec::new()
                        };
                        (db, rt, resolved)
                    },
                    |(db, mut rt, resolved)| {
                        if by_handle {
                            for uplink in resolved.chunks(per_submit) {
                                rt.submit_resolved(uplink);
                            }
                        } else {
                            for uplink in points.chunks(per_submit) {
                                rt.submit(uplink);
                            }
                        }
                        rt.flush();
                        let stored = db.stats().points;
                        assert_eq!(stored, points.len() as u64, "{group}: points lost");
                        black_box(stored)
                    },
                );
            });
        }
        g.finish();
    }
}

criterion_group!(
    benches,
    ingest_throughput,
    ingest_single_writer,
    ingest_runtime,
    ingest_runtime_uplinks
);
criterion_main!(benches);
