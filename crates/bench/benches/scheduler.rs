//! Scheduling-substrate throughput: the `ctt-sim` event queue vs. the old
//! min-scan loop shape, isolated from pipeline work.
//!
//! The pre-refactor `Pipeline::run_until` paid O(N) per dispatched event:
//! a `min_by_key` scan over every node to find the next due transmission,
//! plus a second full scan to decide whether anything else fell inside the
//! 3-second collision horizon. The event-queue loop replaces both with
//! `O(log N)` pop/push. The workload here is the synthetic core of that
//! loop — N nodes with deterministic staggered cadences, dispatch K events,
//! reschedule each node after it fires — so the numbers compare the
//! substrates, not the payload work.
//!
//! CI exports the results as `BENCH_scheduler.json` (via `CRITERION_JSON`)
//! and `bench_check` asserts the event queue beats the min-scan baseline
//! at 2000 nodes and holds parity with it at 12.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ctt_core::time::Timestamp;
use ctt_lorawan::collision_horizon;
use ctt_sim::EventQueue;

/// Events dispatched per iteration, regardless of fleet size: throughput
/// is per event, so the two shapes are directly comparable.
const EVENTS: u64 = 20_000;

/// Deterministic staggered cadence per node (300..900 s), mimicking the
/// adaptive uplink intervals of a mixed-battery fleet.
fn cadence(i: usize) -> i64 {
    300 + ((i as i64) * 137) % 600
}

fn initial_dues(n: usize) -> Vec<Timestamp> {
    // Phase-jittered first dues inside one cadence, like spawn_nodes.
    (0..n).map(|i| Timestamp(((i as i64) * 61) % 300)).collect()
}

/// The old `run_until` shape: one full scan to find the minimum due node,
/// then a second full scan for the collision-horizon check.
fn min_scan_dispatch(n: usize) -> u64 {
    let mut dues = initial_dues(n);
    let horizon = collision_horizon();
    let mut fired = 0u64;
    let mut horizon_hits = 0u64;
    while fired < EVENTS {
        let Some((idx, due)) = dues.iter().copied().enumerate().min_by_key(|&(_, t)| t) else {
            break;
        };
        if let Some(d) = dues.get_mut(idx) {
            *d = due + ctt_core::time::Span::seconds(cadence(idx));
        }
        fired += 1;
        // The old loop's second O(N) pass: "does anything transmit within
        // the collision horizon?"
        let next = dues.iter().copied().min();
        if next.map(|t| t > due + horizon).unwrap_or(true) {
            horizon_hits += 1;
        }
    }
    // Fold the horizon count in so the second scan is observable work.
    fired.wrapping_add(horizon_hits)
}

/// The event-queue shape: pop the next event, reschedule the node.
fn event_queue_dispatch(n: usize) -> u64 {
    let mut q: EventQueue<usize> = EventQueue::new();
    for (i, due) in initial_dues(n).into_iter().enumerate() {
        q.schedule(due, 3, i);
    }
    let mut fired = 0u64;
    while fired < EVENTS {
        let Some((key, idx)) = q.pop() else { break };
        q.schedule(
            key.time + ctt_core::time::Span::seconds(cadence(idx)),
            3,
            idx,
        );
        fired += 1;
    }
    fired
}

fn scheduler_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler");
    g.sample_size(10);
    g.throughput(Throughput::Elements(EVENTS));
    for n in [12usize, 200, 2000] {
        g.bench_with_input(BenchmarkId::new("min_scan", n), &n, |b, &n| {
            b.iter(|| black_box(min_scan_dispatch(n)));
        });
        g.bench_with_input(BenchmarkId::new("event_queue", n), &n, |b, &n| {
            b.iter(|| black_box(event_queue_dispatch(n)));
        });
    }
    g.finish();
}

criterion_group!(benches, scheduler_throughput);
criterion_main!(benches);
