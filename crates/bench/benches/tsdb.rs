//! TSDB benchmarks: ingest, query, downsample, and the Gorilla-compression
//! ablation called out in DESIGN.md (space + scan speed vs a plain vector).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ctt_bench::{loaded_tsdb, synthetic_points};
use ctt_core::time::{Span, Timestamp};
use ctt_tsdb::{execute_raw, Aggregator, CompressedChunk, Downsample, FillPolicy, Query, Tsdb};

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
        b.iter(|| black_box(execute_raw(&db, &q).len()))
    });
    g.bench_function("downsample_1h_avg_all_devices", |b| {
        let q = Query::range("ctt.air.co2", start, end)
            .group_by("device")
            .downsample(Downsample {
                interval: Span::hours(1),
                aggregator: Aggregator::Avg,
                fill: FillPolicy::None,
            });
        b.iter(|| black_box(execute_raw(&db, &q).len()))
    });
    g.bench_function("cross_series_avg", |b| {
        let q = Query::range("ctt.air.co2", start, end).with_tag("city", "trondheim");
        b.iter(|| black_box(execute_raw(&db, &q).first().map(|s| s.series.len())))
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
    let chunk = CompressedChunk::encode(&points);
    let raw_bytes = points.len() * std::mem::size_of::<(Timestamp, f64)>();
    println!(
        "[ablation] gorilla {} B vs raw {} B → ratio {:.1}×",
        chunk.size_bytes(),
        raw_bytes,
        raw_bytes as f64 / chunk.size_bytes() as f64
    );
    let mut g = c.benchmark_group("tsdb_compression");
    g.bench_function("gorilla_encode_4032", |b| {
        b.iter(|| black_box(CompressedChunk::encode(black_box(&points)).size_bytes()))
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_ingest, bench_query, bench_compression_ablation
}
criterion_main!(benches);
