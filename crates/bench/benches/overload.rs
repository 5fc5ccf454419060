//! Overload benchmark: the ×100 traffic-spike survival cost.
//!
//! One interleaved pair over the same half-hour Vejle run:
//!
//! * `spike_bounded` — a 15-minute ×100 spike against the backpressure
//!   stack (admission control, in-flight caps, scheduled bounded drains);
//! * `healthy` — no chaos: the baseline cost of the simulated interval.
//!
//! With admission shedding most of the synthetic flood at the bridge and
//! drains bounded per dispatch, surviving ×100 traffic must cost a bounded
//! multiple of the healthy run; `bench_check`'s gate table holds the bound.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ctt_chaos::{AdmissionConfig, FaultKind, FaultPlan};
use ctt_core::deployment::Deployment;
use ctt_core::time::Span;

/// The spike plan the soak test also uses.
fn spike_plan(d: &Deployment) -> FaultPlan {
    let t0 = d.started;
    FaultPlan::new()
        .with(
            FaultKind::TrafficSpike { factor: 100 },
            t0 + Span::minutes(10),
            t0 + Span::minutes(25),
        )
        .with_storage_queue(32)
        .with_drain_batch(8)
        .with_storage_inflight_cap(64)
        .with_admission(AdmissionConfig {
            burst: 50,
            refill_per_hour: 120,
            defer_cap: 16,
        })
}

/// Run half an hour of Vejle, optionally under the spike plan.
fn run_half_hour(plan: Option<FaultPlan>) -> u64 {
    let d = Deployment::vejle();
    let mut p = match plan {
        Some(plan) => ctt::Pipeline::with_chaos(d, 42, plan),
        None => ctt::Pipeline::new(d, 42),
    };
    let start = p.deployment.started;
    p.run_until(start + Span::minutes(30));
    p.stats().points_stored
}

fn bench_overload(c: &mut Criterion) {
    let mut g = c.benchmark_group("overload");
    g.sample_size(10);
    g.bench_pair(
        "spike_bounded",
        |b| {
            b.iter(|| {
                let d = Deployment::vejle();
                black_box(run_half_hour(Some(spike_plan(&d))))
            })
        },
        "healthy",
        |b| b.iter(|| black_box(run_half_hour(None))),
    );
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_overload
}
criterion_main!(benches);
