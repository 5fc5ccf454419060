//! Ingest throughput, one row per write path into a city's store, over the
//! traffic the pipeline's storage consumer produces: nine different series
//! per uplink, interleaved, one uplink per call. `ingest_uplinks/put_batch`
//! is string-keyed `ShardedTsdb::put_batch` (a key string built and an
//! intern map probed per point), and `ingest_uplinks/handles` is
//! `ShardedTsdb::append` fed the store's own `SeriesId`s, registered in
//! untimed setup, the way the pipeline feeds it.
//!
//! Both rows build a fresh store per iteration in untimed setup; the
//! loaded store drops in the timed region. They run as one interleaved
//! pair. CI exports the results as
//! `BENCH_ingest.json` (via `CRITERION_JSON`); `bench_check`'s gate table
//! holds the pair's bound.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ctt_core::time::Timestamp;
use ctt_tsdb::{SeriesId, ShardedTsdb};

/// Pipeline-shaped input: Trondheim's twelve nodes, 300 reporting rounds
/// (≈ one simulated day), nine points per uplink.
const UPLINK_DEVICES: u32 = 12;
const UPLINK_ROUNDS: usize = 300;

fn uplink_shaped(c: &mut Criterion) {
    // Consecutive points never share a series. By id, the series are
    // registered in untimed setup — the pipeline pays that once per device
    // lifetime — so the pair differs by exactly the per-point cost of
    // resolving strings.
    let points = ctt_bench::uplink_points(UPLINK_DEVICES, UPLINK_ROUNDS);
    let per_call = ctt_bench::POINTS_PER_UPLINK;
    let check = |row: &str, db: &ShardedTsdb| {
        let stored = db.stats().points;
        assert_eq!(stored, points.len() as u64, "{row}: points lost");
        black_box(stored)
    };
    let mut g = c.benchmark_group("ingest_uplinks");
    g.sample_size(10);
    g.throughput(Throughput::Elements(points.len() as u64));
    g.bench_pair(
        "put_batch",
        |b| {
            b.iter_with_setup(ShardedTsdb::default, |db| {
                for uplink in points.chunks(per_call) {
                    db.put_batch(uplink);
                }
                check("put_batch", &db)
            });
        },
        "handles",
        |b| {
            b.iter_with_setup(
                || {
                    let db = ShardedTsdb::default();
                    let by_id: Vec<(SeriesId, Timestamp, f64)> = points
                        .iter()
                        .filter_map(|p| Some((db.register(&p.metric, &p.tags)?, p.time, p.value)))
                        .collect();
                    (db, by_id)
                },
                |(db, by_id)| {
                    for uplink in by_id.chunks(per_call) {
                        db.append(uplink);
                    }
                    check("handles", &db)
                },
            );
        },
    );
    g.finish();
}

criterion_group!(benches, uplink_shaped);
criterion_main!(benches);
