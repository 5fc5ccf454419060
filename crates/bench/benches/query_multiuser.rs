//! Multi-user dashboard serving: a zipfian mix of ~16 query shapes (a few
//! hot panels, a long tail of ad-hoc queries) issued against one store
//! **under sustained ingest**, measuring per-query latency
//! percentiles rather than means — the paper's dashboards are interactive,
//! so tail latency is the gate.
//!
//! The same deterministic query/ingest sequence replays twice: once with
//! the full serving stack (rollups + seal-aware cache) and once with the
//! raw reference path. `bench_check` gates the served p99 both absolutely
//! and against the raw p99: caching must pay for itself at the tail, not
//! just at the median, even though every ingest tick invalidates every
//! cached answer.
//!
//! Results are exported as `BENCH_query_multiuser.json` via
//! `CRITERION_JSON`; `CRITERION_SAMPLES` scales the number of queries.

use criterion::{black_box, criterion_group, criterion_main, report_metric, Criterion};
use ctt_core::rng::SplitMix64;
use ctt_core::time::{Span, Timestamp};
use ctt_tsdb::{Aggregator, DataPoint, Downsample, FillPolicy, Query, ServePolicy, ShardedTsdb};
use std::time::Instant;

const DEVICES: u32 = 32;
const POINTS: usize = 2_000;
/// Queries per `CRITERION_SAMPLES` unit.
const QUERIES_PER_SAMPLE: usize = 8;
/// One ingest batch lands every this many queries.
const INGEST_EVERY: usize = 4;

fn window() -> (Timestamp, Timestamp) {
    let start = Timestamp::from_civil(2017, 1, 1, 0, 0, 0);
    (start, start + Span::minutes(5 * POINTS as i64))
}

/// The dashboard query mix: hot overview panels first (zipf rank 1..),
/// narrower drill-downs and ad-hoc shapes in the tail.
fn query_shapes() -> Vec<Query> {
    let (start, end) = window();
    let ds = |interval: Span, aggregator: Aggregator, fill: FillPolicy| Downsample {
        interval,
        aggregator,
        fill,
    };
    let hour = |h: i64| start + Span::hours(h);
    vec![
        // Rank 1-4: the always-open city overview panels.
        Query::range("ctt.air.co2", start, end)
            .aggregate(Aggregator::Avg)
            .downsample(ds(Span::hours(1), Aggregator::Avg, FillPolicy::None)),
        Query::range("ctt.air.co2", start, end)
            .group_by("device")
            .downsample(ds(Span::hours(1), Aggregator::Avg, FillPolicy::None)),
        Query::range("ctt.air.co2", start, end)
            .aggregate(Aggregator::Max)
            .downsample(ds(Span::hours(1), Aggregator::Max, FillPolicy::None)),
        Query::range("ctt.air.co2", hour(24), hour(48)).group_by("device"),
        // Rank 5-10: drill-downs on sub-windows.
        Query::range("ctt.air.co2", hour(0), hour(24)).downsample(ds(
            Span::hours(1),
            Aggregator::Min,
            FillPolicy::Previous,
        )),
        Query::range("ctt.air.co2", hour(48), hour(96))
            .aggregate(Aggregator::Sum)
            .downsample(ds(Span::hours(1), Aggregator::Sum, FillPolicy::Zero)),
        Query::range("ctt.air.co2", hour(96), hour(120)).aggregate(Aggregator::Avg),
        Query::range("ctt.air.co2", hour(12), hour(36))
            .group_by("device")
            .downsample(ds(Span::hours(1), Aggregator::Count, FillPolicy::Zero)),
        Query::range("ctt.air.co2", hour(100), hour(166)).downsample(ds(
            Span::hours(1),
            Aggregator::Last,
            FillPolicy::None,
        )),
        Query::range("ctt.air.co2", hour(6), hour(30)).aggregate(Aggregator::Min),
        // Rank 11-16: the ad-hoc tail — rate panels, odd intervals,
        // order-sensitive aggregators that must bypass rollups.
        Query::range("ctt.air.co2", start, end).aggregate(Aggregator::P95),
        Query::range("ctt.air.co2", hour(24), hour(72))
            .as_rate()
            .downsample(ds(Span::hours(1), Aggregator::Avg, FillPolicy::None)),
        Query::range("ctt.air.co2", hour(0), hour(48)).downsample(ds(
            Span::minutes(37),
            Aggregator::Avg,
            FillPolicy::None,
        )),
        Query::range("ctt.air.co2", hour(150), hour(166)).group_by("device"),
        Query::range("ctt.air.co2", start, end)
            .aggregate(Aggregator::Dev)
            .downsample(ds(Span::hours(1), Aggregator::Avg, FillPolicy::None)),
        Query::range("ctt.air.co2", hour(90), hour(91)),
    ]
}

/// Draw a shape index with zipfian weights 1/(rank+1).
fn zipf_pick(rng: &mut SplitMix64, n: usize) -> usize {
    let weights: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.0)).collect();
    let total: f64 = weights.iter().sum();
    let mut r = rng.unit() * total;
    for (i, w) in weights.iter().enumerate() {
        if r < *w {
            return i;
        }
        r -= w;
    }
    n - 1
}

fn ingest_batch(db: &ShardedTsdb, tick: &mut i64) {
    let base = Timestamp::from_civil(2017, 1, 8, 0, 0, 0) + Span::minutes(*tick);
    let device = (*tick % i64::from(DEVICES)) as u32;
    *tick += 1;
    let batch: Vec<DataPoint> = (0..8i64)
        .map(|i| {
            DataPoint::new(
                "ctt.air.co2",
                vec![
                    ("city".to_string(), "trondheim".to_string()),
                    ("device".to_string(), format!("n{device}")),
                ],
                base + Span::seconds(i),
                400.0 + i as f64,
            )
            .expect("valid point")
        })
        .collect();
    db.put_batch(&batch);
}

/// Replay the zipfian workload against a fresh store; return per-query
/// latencies in nanoseconds, in issue order.
fn run_workload(policy: ServePolicy, queries: usize) -> Vec<f64> {
    let db = ctt_bench::loaded_store(DEVICES, POINTS);
    let shapes = query_shapes();
    let mut rng = SplitMix64::seed_from_u64(0x5EED);
    let mut tick = 0i64;
    let mut latencies = Vec::with_capacity(queries);
    for i in 0..queries {
        if i % INGEST_EVERY == 0 {
            ingest_batch(&db, &mut tick);
        }
        let q = &shapes[zipf_pick(&mut rng, shapes.len())];
        let t0 = Instant::now();
        black_box(db.execute_with(q, policy).expect("query ok"));
        latencies.push(t0.elapsed().as_nanos() as f64);
    }
    latencies
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn multiuser(c: &mut Criterion) {
    let shapes = query_shapes();
    if c.is_test_mode() {
        // Smoke: one pass over every shape under both policies.
        let db = ctt_bench::loaded_store(4, 200);
        for q in &shapes {
            let full = db.execute_with(q, ServePolicy::full()).expect("query ok");
            let raw = db.execute_with(q, ServePolicy::raw()).expect("query ok");
            assert_eq!(full, raw, "serving diverged on {q:?}");
        }
        println!("bench multiuser: ok (smoke, {} shapes)", shapes.len());
        return;
    }
    let samples = std::env::var("CRITERION_SAMPLES")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(50)
        .max(1);
    let queries = (samples * QUERIES_PER_SAMPLE).max(shapes.len());
    for (label, policy) in [("served", ServePolicy::full()), ("raw", ServePolicy::raw())] {
        let mut lat = run_workload(policy, queries);
        lat.sort_by(f64::total_cmp);
        report_metric(&format!("multiuser/{label}_p50"), percentile(&lat, 0.50));
        report_metric(&format!("multiuser/{label}_p95"), percentile(&lat, 0.95));
        report_metric(&format!("multiuser/{label}_p99"), percentile(&lat, 0.99));
    }
}

criterion_group!(benches, multiuser);
criterion_main!(benches);
