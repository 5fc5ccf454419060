//! Ingest throughput, one row per write path into a city's store, over two
//! input shapes:
//!
//! * `ingest_uplinks/*` — the traffic the pipeline's storage consumer
//!   produces: nine different series per uplink, interleaved, one uplink
//!   per call. `put_batch` is string-keyed `ShardedTsdb::put_batch` (a key
//!   string built and an intern map probed per point), and `handles` is
//!   `ShardedTsdb::append` fed the store's own `SeriesId`s, registered in
//!   untimed setup, the way the pipeline feeds it.
//! * `ingest_runs/put_batch` — a bulk import: one device's history after
//!   another, 200 points per call.
//!
//! Every row builds a fresh store per iteration in untimed setup; the
//! loaded store drops in the timed region on every row. `put_batch` and
//! `handles` run as one interleaved pair. CI exports the results as
//! `BENCH_ingest.json` (via `CRITERION_JSON`); `bench_check`'s gate table
//! holds the pair's bound.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use ctt_core::time::Timestamp;
use ctt_tsdb::{SeriesId, ShardedTsdb};

/// Pipeline-shaped input: Trondheim's twelve nodes, 300 reporting rounds
/// (≈ one simulated day), nine points per uplink.
const UPLINK_DEVICES: u32 = 12;
const UPLINK_ROUNDS: usize = 300;
/// Run-shaped input: enough points that each timed region spans several
/// scheduler timeslices, which keeps the means from flapping.
const DEVICES: u32 = 8;
const POINTS_PER_DEVICE: usize = 3_200;
/// Points per call on the run-shaped rows.
const BATCH: usize = 200;

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

fn run_shaped(c: &mut Criterion) {
    let points = ctt_bench::device_points(DEVICES, POINTS_PER_DEVICE);
    let mut g = c.benchmark_group("ingest_runs");
    g.sample_size(10);
    g.throughput(Throughput::Elements(points.len() as u64));
    g.bench_function("put_batch", |b| {
        b.iter_with_setup(ShardedTsdb::default, |db| {
            for chunk in points.chunks(BATCH) {
                db.put_batch(chunk);
            }
            black_box(db.stats().points)
        });
    });
    g.finish();
}

criterion_group!(benches, uplink_shaped, run_shaped);
criterion_main!(benches);
