//! TSDB benchmarks: ingest, query, downsample, the Gorilla-compression
//! ablation called out in DESIGN.md (space + scan speed vs a plain vector),
//! and the query miss path of a live dashboard refresh.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ctt::prelude::{Deployment, Pollutant, Quantity};
use ctt_bench::{loaded_tsdb, run_pipeline, synthetic_points};
use ctt_core::time::{Span, Timestamp};
use ctt_tsdb::cache::DEFAULT_CACHE_CAPACITY;
use ctt_tsdb::{
    execute, Aggregator, Downsample, FillPolicy, GorillaEncoder, Query, SeriesId, ShardedTsdb, Tsdb,
};

fn bench_ingest(c: &mut Criterion) {
    let mut g = c.benchmark_group("tsdb_ingest");
    for &n in &[1_000usize, 10_000] {
        let points = synthetic_points(1, 0, n);
        g.bench_with_input(BenchmarkId::new("put", n), &points, |b, pts| {
            b.iter(|| {
                let mut db = Tsdb::new();
                for p in pts {
                    db.put(black_box(p));
                }
                black_box(db.stats().points)
            })
        });
    }
    g.finish();
}

fn bench_query(c: &mut Criterion) {
    let db = loaded_tsdb(12, 2016); // 12 devices × one week at 5 min
    let start = Timestamp::from_civil(2017, 1, 1, 0, 0, 0);
    let end = start + Span::days(7);
    let mut g = c.benchmark_group("tsdb_query");
    g.bench_function("raw_range_single_device", |b| {
        let q = Query::range("ctt.air.co2", start, end).with_tag("device", "n3");
        b.iter(|| black_box(execute(&db, &q).map(|r| r.len())))
    });
    g.bench_function("downsample_1h_avg_all_devices", |b| {
        let q = Query::range("ctt.air.co2", start, end)
            .group_by("device")
            .downsample(Downsample {
                interval: Span::hours(1),
                aggregator: Aggregator::Avg,
                fill: FillPolicy::None,
            });
        b.iter(|| black_box(execute(&db, &q).map(|r| r.len())))
    });
    g.bench_function("cross_series_avg", |b| {
        let q = Query::range("ctt.air.co2", start, end).with_tag("city", "trondheim");
        b.iter(|| {
            black_box(
                execute(&db, &q)
                    .ok()
                    .and_then(|r| r.first().map(|s| s.series.len())),
            )
        })
    });
    g.finish();
}

/// Ablation: Gorilla chunks vs a plain `Vec<(Timestamp, f64)>` — encode
/// throughput, full-scan decode throughput, and (printed once) the space.
fn bench_compression_ablation(c: &mut Criterion) {
    let points: Vec<(Timestamp, f64)> = synthetic_points(1, 0, 4032)
        .into_iter()
        .map(|p| (p.time, p.value))
        .collect();
    // Report the space trade-off once.
    let mut enc = GorillaEncoder::new();
    for &(t, v) in &points {
        enc.append(t, v);
    }
    let chunk = enc.finish();
    let raw_bytes = points.len() * std::mem::size_of::<(Timestamp, f64)>();
    println!(
        "[ablation] gorilla {} B vs raw {} B → ratio {:.1}×",
        chunk.size_bytes(),
        raw_bytes,
        raw_bytes as f64 / chunk.size_bytes() as f64
    );
    let mut g = c.benchmark_group("tsdb_compression");
    g.bench_function("gorilla_encode_4032", |b| {
        b.iter(|| {
            let mut enc = GorillaEncoder::new();
            for &(t, v) in &points {
                enc.append(black_box(t), black_box(v));
            }
            black_box(enc.finish().size_bytes())
        })
    });
    g.bench_function("gorilla_decode_4032", |b| {
        b.iter(|| black_box(chunk.decode().map(|pts| pts.len())))
    });
    g.bench_function("raw_vec_scan_4032", |b| {
        b.iter(|| {
            let sum: f64 = points.iter().map(|&(_, v)| v).sum();
            black_box(sum)
        })
    });
    g.finish();
}

fn bench_retention(c: &mut Criterion) {
    c.bench_function("tsdb_evict_half", |b| {
        b.iter_with_setup(
            || loaded_tsdb(4, 2016),
            |mut db| {
                let cutoff = Timestamp::from_civil(2017, 1, 4, 0, 0, 0);
                black_box(db.evict_before(cutoff))
            },
        )
    });
    let _ = SeriesId(0);
}

/// The three query shapes of one citizen-dashboard refresh (the Fig. 6
/// shape the end-to-end benchmark times) at `now`: per-node last-hour NO2
/// and PM10, the city's CO2 over 24 h, and hourly CO2 by device over 7 d.
fn refresh_queries(d: &Deployment, now: Timestamp) -> [Vec<Query>; 3] {
    let metric = |p: Pollutant| Quantity::Pollutant(p).metric_name();
    let city = d.city.to_lowercase();
    let last_hour = d
        .nodes
        .iter()
        .flat_map(|n| {
            let device = format!("{:016x}", n.eui.0);
            [Pollutant::No2, Pollutant::Pm10].map(|p| {
                Query::range(metric(p), now - Span::hours(1), now)
                    .with_tag("device", device.clone())
            })
        })
        .collect();
    let city_24h = vec![
        Query::range(metric(Pollutant::Co2), now - Span::days(1), now)
            .with_tag("city", city.clone()),
    ];
    let week_by_device = vec![
        Query::range(metric(Pollutant::Co2), now - Span::days(7), now)
            .with_tag("city", city)
            .group_by("device")
            .downsample(Downsample {
                interval: Span::hours(1),
                aggregator: Aggregator::Avg,
                fill: FillPolicy::None,
            }),
    ];
    [last_hour, city_24h, week_by_device]
}

/// The query miss path of a live dashboard refresh, one row per shape:
/// a Trondheim pipeline run for 48 one-day segments and left unsealed, so
/// the newest hours sit in open buffers. Before every iteration the cache
/// is cleared and refilled past capacity with entries of an unrelated
/// metric, so every lookup misses and every insert meets a full level —
/// the state a live city's cache is in, where each segment's writes and
/// each refresh's new `now` leave only stale entries. Ungated: these rows
/// split `refresh_p50_ms` on `city_solo` into its query parts.
fn bench_refresh_miss(c: &mut Criterion) {
    let p = run_pipeline(Deployment::trondheim(), 48 * 24);
    let db: &ShardedTsdb = &p.tsdb;
    let now = p.deployment.started + Span::days(48);
    let parts = refresh_queries(&p.deployment, now);
    let fill_cache = || {
        db.clear_cache();
        for i in 0..=DEFAULT_CACHE_CAPACITY as i64 {
            let filler = Query::range("bench.filler", Timestamp(i), Timestamp(i + 1));
            black_box(db.execute(&filler).map(|r| r.len()).ok());
        }
    };
    let mut g = c.benchmark_group("refresh_miss");
    for (name, queries) in ["last_hour", "city_24h", "week_by_device"]
        .iter()
        .zip(&parts)
    {
        g.bench_function(*name, |b| {
            b.iter_with_setup(fill_cache, |()| {
                for q in queries {
                    black_box(db.execute(q).map(|r| r.len()).ok());
                }
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_ingest, bench_query, bench_compression_ablation, bench_retention,
        bench_refresh_miss
}
criterion_main!(benches);
