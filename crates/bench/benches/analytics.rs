//! Analytics benchmarks: correlation, calibration, outlier screening,
//! battery analysis, the Fig. 5 study end to end, and the Fig. 6 dashboard
//! render that turns analysed series into SVG.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ctt_analytics as analytics;
use ctt_bench::{series_from, Fig6Fixture};
use ctt_core::geo::LatLon;
use ctt_core::time::{Span, Timestamp};

fn start() -> Timestamp {
    Timestamp::from_civil(2017, 5, 1, 0, 0, 0)
}

fn bench_correlation(c: &mut Criterion) {
    let n = 2016; // a week at 5 minutes
    let a = series_from(start(), Span::minutes(5), n, |i| (i as f64 * 0.07).sin());
    let b = series_from(start(), Span::minutes(5), n, |i| {
        (i as f64 * 0.07 + 1.0).sin()
    });
    let xs: Vec<f64> = a.values().collect();
    let ys: Vec<f64> = b.values().collect();
    c.bench_function("analytics_pearson_2016", |bch| {
        bch.iter(|| black_box(analytics::pearson(&xs, &ys)))
    });
    c.bench_function("analytics_spearman_2016", |bch| {
        bch.iter(|| black_box(analytics::spearman(&xs, &ys)))
    });
    c.bench_function("analytics_ccf_lags72", |bch| {
        bch.iter(|| black_box(analytics::cross_correlation(&a, &b, Span::minutes(5), 72).len()))
    });
}

fn bench_fig5_study(c: &mut Criterion) {
    let n = 2016;
    let co2 = series_from(start(), Span::minutes(5), n, |i| {
        410.0 + 20.0 * (i as f64 * 0.021).sin() + (i % 17) as f64 * 0.3
    });
    let jam = series_from(start(), Span::minutes(5), n, |i| {
        (5.0 + 5.0 * (i as f64 * 0.044).sin()).clamp(0.0, 10.0)
    });
    c.bench_function("analytics_fig5_study_1w", |b| {
        b.iter(|| black_box(analytics::study(&co2, &jam, Span::minutes(5)).map(|s| s.pearson_r)))
    });
}

fn bench_calibration(c: &mut Criterion) {
    let n = 500;
    let reference = series_from(start(), Span::hours(1), n, |i| {
        400.0 + 30.0 * (i as f64 * 0.13).sin()
    });
    let sensor = series_from(start(), Span::hours(1), n, |i| {
        25.0 + 1.08 * (400.0 + 30.0 * (i as f64 * 0.13).sin()) + (i % 7) as f64 * 0.5
    });
    c.bench_function("analytics_calibrate_500", |b| {
        b.iter(|| {
            black_box(
                analytics::calibrate_and_evaluate(&sensor, &reference, 0.5).map(|r| r.after.rmse),
            )
        })
    });
}

fn bench_outliers(c: &mut Criterion) {
    let s = series_from(start(), Span::minutes(5), 2016, |i| {
        if i % 311 == 0 {
            500.0
        } else {
            10.0 + (i as f64 * 0.05).sin()
        }
    });
    c.bench_function("analytics_hampel_2016", |b| {
        b.iter(|| black_box(analytics::hampel_outliers(&s, 5, 3.5).len()))
    });
    let xs: Vec<f64> = s.values().collect();
    c.bench_function("analytics_mad_outliers_2016", |b| {
        b.iter(|| black_box(analytics::mad_outliers(&xs, 3.5).len()))
    });
}

fn bench_battery(c: &mut Criterion) {
    // Two weeks at 5-minute cadence with a plausible charge/discharge shape.
    let pos = LatLon::new(63.4305, 10.3951);
    let s = series_from(start(), Span::minutes(5), 4032, |i| {
        70.0 + 15.0 * ((i as f64) / 288.0 * std::f64::consts::TAU).sin()
    });
    c.bench_function("analytics_battery_fig4_2w", |b| {
        b.iter(|| black_box(analytics::analyze_battery(&s, pos).deltas.len()))
    });
}

fn bench_impute(c: &mut Criterion) {
    // A gappy series: every 7th point missing.
    let full = series_from(start(), Span::minutes(5), 2016, |i| i as f64);
    let gappy = ctt_core::measurement::Series {
        points: full
            .points
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 7 != 3)
            .map(|(_, &p)| p)
            .collect(),
    };
    c.bench_function("analytics_impute_linear_2016", |b| {
        b.iter(|| {
            black_box(
                analytics::impute(&gappy, Span::minutes(5), analytics::ImputeMethod::Linear).1,
            )
        })
    });
}

fn bench_dashboard_render(c: &mut Criterion) {
    let fixture = Fig6Fixture::fixed();
    c.bench_function("dashboard_render", |b| {
        b.iter(|| black_box(black_box(&fixture).render().len()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_correlation, bench_fig5_study, bench_calibration, bench_outliers, bench_battery, bench_impute, bench_dashboard_render
}
criterion_main!(benches);
