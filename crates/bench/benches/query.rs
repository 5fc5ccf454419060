//! Rollup serving against raw decode on a loaded, sealed store, exported
//! as `BENCH_query.json` in CI (via `CRITERION_JSON`).
//!
//! `query_downsample_aggregate` runs one matching-interval downsample over
//! identical data with the cache disabled on both sides of one interleaved
//! `raw`/`rollup` pair, so it compares seal-time rollup serving with
//! Gorilla re-decode alone; `bench_check`'s gate table holds its bound.

use criterion::{black_box, criterion_group, criterion_main, Bencher, Criterion};
use ctt_core::time::{Span, Timestamp};
use ctt_tsdb::{Aggregator, Downsample, FillPolicy, Query, ServePolicy};

const DEVICES: u32 = 32;
const POINTS: usize = 2_000;

fn downsample_aggregate(c: &mut Criterion) {
    let start = Timestamp::from_civil(2017, 1, 1, 0, 0, 0);
    let end = start + Span::minutes(5 * POINTS as i64);
    let mut g = c.benchmark_group("query_downsample_aggregate");
    g.sample_size(20);
    let db = ctt_bench::loaded_store(DEVICES, POINTS);
    let q = Query::range("ctt.air.co2", start, end)
        .aggregate(Aggregator::Avg)
        .downsample(Downsample {
            interval: Span::hours(1),
            aggregator: Aggregator::Avg,
            fill: FillPolicy::None,
        });
    let rollup = ServePolicy {
        rollups: true,
        ..ServePolicy::raw()
    };
    let (db, q) = (&db, &q);
    let serve = |policy: ServePolicy| {
        move |b: &mut Bencher| b.iter(|| black_box(db.execute_with(q, policy).expect("query ok")))
    };
    g.bench_pair("raw", serve(ServePolicy::raw()), "rollup", serve(rollup));
    g.finish();
}

criterion_group!(benches, downsample_aggregate);
criterion_main!(benches);
