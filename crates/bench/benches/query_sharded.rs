//! Query latency against a loaded, sealed [`ShardedTsdb`], exported as
//! `BENCH_query.json` in CI (via `CRITERION_JSON`).
//!
//! The headline groups run **under sustained ingest**: every iteration
//! writes a small batch (to a side metric, so the benched query's answer
//! stays fixed) and then executes the dashboard query. A write bumps the
//! owning shard's epoch, so the 1-shard store re-collects everything on
//! every query while the 4-shard store re-collects only the written shard
//! and serves the rest from the seal-aware collection cache — the scaling
//! gate (`bench_check`) measures invalidation *granularity*, which holds
//! on any core count: collection runs on the calling thread.
//!
//! `query_downsample_aggregate` compares the raw decode path against
//! seal-time rollup serving on identical data (cache disabled for both),
//! gated at ≥2.5× in `bench_check`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ctt_core::time::{Span, Timestamp};
use ctt_tsdb::{Aggregator, Downsample, FillPolicy, Query, ServePolicy, ShardedTsdb};

const DEVICES: u32 = 32;
const POINTS: usize = 2_000;

fn window() -> (Timestamp, Timestamp) {
    let start = Timestamp::from_civil(2017, 1, 1, 0, 0, 0);
    (start, start + Span::minutes(5 * POINTS as i64))
}

/// One small batch of side-metric points ("sustained ingest"): bumps one
/// shard's epoch without changing what the benched query returns.
fn ingest_tick(db: &ShardedTsdb, tick: &mut i64) {
    let t = Timestamp::from_civil(2017, 6, 1, 0, 0, 0) + Span::seconds(*tick);
    *tick += 1;
    let p = ctt_tsdb::DataPoint::new(
        "ctt.air.noise",
        vec![("device".to_string(), "side0".to_string())],
        t,
        42.0,
    )
    .expect("valid point");
    db.put(&p);
}

fn range_query(c: &mut Criterion) {
    let (start, end) = window();
    let mut g = c.benchmark_group("query_range");
    g.sample_size(20);
    g.throughput(Throughput::Elements(u64::from(DEVICES) * POINTS as u64));
    for shards in [1usize, 4] {
        let db = ctt_bench::loaded_sharded_tsdb(shards, DEVICES, POINTS);
        let q = Query::range("ctt.air.co2", start, end).group_by("device");
        let mut tick = 0i64;
        g.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, _| {
            b.iter(|| {
                ingest_tick(&db, &mut tick);
                black_box(db.execute(&q).expect("query ok"))
            });
        });
    }
    g.finish();
}

fn downsample_aggregate(c: &mut Criterion) {
    let (start, end) = window();
    let mut g = c.benchmark_group("query_downsample_aggregate");
    g.sample_size(20);
    g.throughput(Throughput::Elements(u64::from(DEVICES) * POINTS as u64));
    let db = ctt_bench::loaded_sharded_tsdb(4, DEVICES, POINTS);
    let q = Query::range("ctt.air.co2", start, end)
        .aggregate(Aggregator::Avg)
        .downsample(Downsample {
            interval: Span::hours(1),
            aggregator: Aggregator::Avg,
            fill: FillPolicy::None,
        });
    // Cache disabled on both sides: this isolates rollup serving against
    // Gorilla re-decode on identical sealed data.
    let rollup = ServePolicy {
        rollups: true,
        ..ServePolicy::raw()
    };
    for (label, policy) in [("raw", ServePolicy::raw()), ("rollup", rollup)] {
        g.bench_with_input(BenchmarkId::new(label, 4), &policy, |b, policy| {
            b.iter(|| black_box(db.execute_with(&q, *policy).expect("query ok")));
        });
    }
    g.finish();
}

fn p95_aggregate(c: &mut Criterion) {
    let (start, end) = window();
    let mut g = c.benchmark_group("query_p95");
    g.sample_size(20);
    g.throughput(Throughput::Elements(u64::from(DEVICES) * POINTS as u64));
    for shards in [1usize, 4] {
        let db = ctt_bench::loaded_sharded_tsdb(shards, DEVICES, POINTS);
        let q = Query::range("ctt.air.co2", start, end).aggregate(Aggregator::P95);
        let mut tick = 0i64;
        g.bench_with_input(BenchmarkId::new("shards", shards), &shards, |b, _| {
            b.iter(|| {
                ingest_tick(&db, &mut tick);
                black_box(db.execute(&q).expect("query ok"))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, range_query, downsample_aggregate, p95_aggregate);
criterion_main!(benches);
