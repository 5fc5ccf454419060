//! Dispatch-instrumentation overhead: the `ctt-sim` event-queue loop bare
//! vs. with a [`QueueObs`] attached (and with the bounded trace enabled).
//!
//! Recording a dispatch is a handful of plain-integer adds plus a short
//! histogram scan. `off` and `on` run as one interleaved pair per fleet
//! size; `on_traced` is a plain row. CI exports the results as
//! `BENCH_obs.json` (via `CRITERION_JSON`); `bench_check`'s gate table
//! holds the bound on the 2000-node pair.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ctt_core::time::{Span, Timestamp};
use ctt_sim::{EventQueue, QueueObs};

/// Events dispatched per iteration.
const EVENTS: u64 = 20_000;

/// Deterministic staggered cadence per node (300..900 s).
fn cadence(i: usize) -> i64 {
    300 + ((i as i64) * 137) % 600
}

fn initial_dues(n: usize) -> Vec<Timestamp> {
    (0..n).map(|i| Timestamp(((i as i64) * 61) % 300)).collect()
}

/// One dispatch loop: pop, reschedule, count. The `obs` flag is the only
/// difference between the compared variants.
fn dispatch(n: usize, obs: bool, trace: bool) -> u64 {
    let mut q: EventQueue<usize> = EventQueue::new();
    if obs {
        let mut o = QueueObs::new(|_| "node");
        if trace {
            o = o.with_trace(256);
        }
        q.attach_obs(o);
    }
    for (i, due) in initial_dues(n).into_iter().enumerate() {
        q.schedule(due, 3, i);
    }
    let mut fired = 0u64;
    while fired < EVENTS {
        let Some((key, idx)) = q.pop() else { break };
        q.schedule(key.time + Span::seconds(cadence(idx)), 3, idx);
        fired += 1;
    }
    fired
}

fn obs_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs");
    g.sample_size(10);
    g.throughput(Throughput::Elements(EVENTS));
    for n in [200usize, 2000] {
        g.bench_pair(
            BenchmarkId::new("off", n),
            |b| b.iter(|| black_box(dispatch(n, false, false))),
            BenchmarkId::new("on", n),
            |b| b.iter(|| black_box(dispatch(n, true, false))),
        );
        g.bench_with_input(BenchmarkId::new("on_traced", n), &n, |b, &n| {
            b.iter(|| black_box(dispatch(n, true, true)));
        });
    }
    g.finish();
}

criterion_group!(benches, obs_overhead);
criterion_main!(benches);
