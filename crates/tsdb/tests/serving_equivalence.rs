//! Property: the full serving stack (seal-time rollups, the open buffer's
//! per-query fold, block index, seal-aware cache) is byte-identical to the
//! raw reference path (uncached, full Gorilla re-decode) for *any*
//! interleaving of batched writes, in-order appended runs, late
//! out-of-order points, seals, retention sweeps, and bit-flip corruption.
//! [`ServePolicy`] chooses how much work a query skips — never what it
//! answers.
//!
//! The store uses a small rollup interval (10 min) and chunk size so that
//! sealed chunks, rollup-served buckets, partially-covered edge buckets,
//! open-buffer overlaps, and index skips all occur within short workloads.

use ctt_core::time::{Span, Timestamp};
use ctt_tsdb::{
    series_key_hash, Aggregator, DataPoint, Downsample, FillPolicy, Query, ServePolicy, ShardedTsdb,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

const HORIZON: i64 = 36_000; // 10 hours of 10-minute rollup buckets
/// End of the full-range queries: appended runs continue past `HORIZON`.
const END: i64 = 4 * HORIZON;
const ROLLUP: Span = Span::minutes(10);

/// One step of an interleaved workload.
#[derive(Debug, Clone)]
enum Op {
    /// Write a batch of points (metric idx, device idx, time, value).
    PutBatch(Vec<(u8, u8, i64, f64)>),
    /// Force-seal open buffers (materializes rollups + block index).
    SealAll,
    /// Drop everything strictly before the cutoff.
    EvictBefore(i64),
    /// Corrupt one bit of one sealed chunk (drops its rollups).
    FlipBit(u64, u64),
    /// Append a strictly increasing run to one series through a write
    /// session, starting `gap` after the series' last point and `step`
    /// apart (metric idx, device idx, gap, step, values): the open buffer
    /// stays time-ordered, so its buckets are served from its fold.
    AppendRun(u8, u8, i64, i64, Vec<f64>),
    /// Write one point `back` seconds before the series' last point (0 =
    /// a duplicate timestamp): the open buffer is no longer strictly
    /// ordered, so its buckets fall back to raw decode.
    LatePoint(u8, u8, i64, f64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => proptest::collection::vec(
            (0u8..2, 0u8..4, 0i64..HORIZON, -1e6f64..1e6),
            1..48
        )
        .prop_map(Op::PutBatch),
        2 => Just(Op::SealAll),
        1 => (0i64..HORIZON).prop_map(Op::EvictBefore),
        2 => (0u64..64, 1u64..512).prop_map(|(n, b)| Op::FlipBit(n, b)),
        4 => (
            (0u8..2, 0u8..4),
            1i64..1_200,
            1i64..600,
            proptest::collection::vec(
                prop_oneof![1 => Just(-0.0), 1 => Just(0.0), 4 => -1e6f64..1e6],
                1..40
            ),
        )
            .prop_map(|((m, d), gap, step, vs)| Op::AppendRun(m, d, gap, step, vs)),
        1 => ((0u8..2, 0u8..4), 0i64..3_000, -1e6f64..1e6)
            .prop_map(|((m, d), back, v)| Op::LatePoint(m, d, back, v)),
    ]
}

fn build_point(m: u8, d: u8, t: i64, v: f64) -> DataPoint {
    DataPoint::new(
        format!("metric.{m}"),
        vec![("device".to_string(), format!("node{d}"))],
        Timestamp(t),
        v,
    )
    .expect("valid point")
}

/// Append `pts` to one series through its shard's write session — the
/// ingest runtime's write path.
fn append_run(db: &ShardedTsdb, m: u8, d: u8, pts: &[(Timestamp, f64)]) {
    let p = build_point(m, d, 0, 0.0);
    let shard = db.shard_of_hash(series_key_hash(&p.metric, &p.tags));
    let writer = db.writer(shard).expect("shard in range");
    let mut session = writer.session();
    let id = session.intern(&p.metric, &p.tags);
    session.append_run(id, pts);
}

/// Dashboard query shapes: rollup-servable downsamples (interval matches
/// the store's), non-matching intervals (raw only), leading-gap Previous
/// fill, rate, and order-sensitive aggregators that must bypass rollups.
fn queries() -> Vec<Query> {
    let ds = |interval: Span, aggregator: Aggregator, fill: FillPolicy| Downsample {
        interval,
        aggregator,
        fill,
    };
    let full = || Query::range("metric.0", Timestamp(0), Timestamp(END));
    vec![
        full(),
        full().downsample(ds(ROLLUP, Aggregator::Avg, FillPolicy::None)),
        full()
            .group_by("device")
            .downsample(ds(ROLLUP, Aggregator::Sum, FillPolicy::Zero)),
        // Sub-range start strictly inside the data so Previous fill must
        // seed from the last point before the range.
        Query::range("metric.0", Timestamp(7_200), Timestamp(HORIZON)).downsample(ds(
            ROLLUP,
            Aggregator::Max,
            FillPolicy::Previous,
        )),
        full()
            .aggregate(Aggregator::Min)
            .downsample(ds(ROLLUP, Aggregator::Min, FillPolicy::None)),
        full().downsample(ds(ROLLUP, Aggregator::Count, FillPolicy::Zero)),
        // Interval does not match the rollup layout: always raw-decoded.
        full().downsample(ds(Span::minutes(7), Aggregator::Avg, FillPolicy::Previous)),
        // Order-sensitive bucket aggregator: never rollup-servable.
        full().downsample(ds(ROLLUP, Aggregator::P95, FillPolicy::None)),
        Query::range("metric.1", Timestamp(0), Timestamp(END))
            .as_rate()
            .downsample(ds(ROLLUP, Aggregator::Avg, FillPolicy::None)),
        // Bounds off the bucket grid: partially covered edge buckets at
        // both ends, the newest one over the open buffer.
        Query::range("metric.0", Timestamp(1_000), Timestamp(END - 250)).downsample(ds(
            ROLLUP,
            Aggregator::First,
            FillPolicy::None,
        )),
        // Narrow window: exercises the block index skip path.
        Query::range("metric.1", Timestamp(600), Timestamp(1_800)).downsample(ds(
            ROLLUP,
            Aggregator::Last,
            FillPolicy::None,
        )),
    ]
}

proptest! {
    /// Replay an arbitrary op sequence; after every op, every query shape
    /// must answer byte-identically under the full and raw policies, and a
    /// cache-hot repeat must not change the answer.
    #[test]
    fn full_serving_stack_matches_raw_decode(
        ops in proptest::collection::vec(op_strategy(), 1..12),
        shards in 1usize..5,
    ) {
        let db = ShardedTsdb::with_layout(shards, 16, ROLLUP);
        // Each series' latest timestamp written so far.
        let mut last: BTreeMap<(u8, u8), i64> = BTreeMap::new();
        for op in &ops {
            match op {
                Op::PutBatch(specs) => {
                    let batch: Vec<DataPoint> = specs
                        .iter()
                        .map(|&(m, d, t, v)| build_point(m, d, t, v))
                        .collect();
                    db.put_batch(&batch);
                    for &(m, d, t, _) in specs {
                        let l = last.entry((m, d)).or_insert(t);
                        *l = (*l).max(t);
                    }
                }
                Op::AppendRun(m, d, gap, step, values) => {
                    let first = last.get(&(*m, *d)).map_or(0, |&l| l + gap);
                    let pts: Vec<(Timestamp, f64)> = values
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| (Timestamp(first + i as i64 * step), v))
                        .collect();
                    append_run(&db, *m, *d, &pts);
                    if let Some(&(t, _)) = pts.last() {
                        last.insert((*m, *d), t.0);
                    }
                }
                Op::LatePoint(m, d, back, v) => {
                    let t = last.get(&(*m, *d)).map_or(0, |&l| (l - back).max(0));
                    db.put_batch(&[build_point(*m, *d, t, *v)]);
                    last.entry((*m, *d)).or_insert(t);
                }
                Op::SealAll => db.seal_all(),
                // Retention may legitimately report a corrupt straddling
                // chunk after FlipBit; equivalence must hold either way.
                Op::EvictBefore(cutoff) => {
                    let _ = db.evict_before(Timestamp(*cutoff));
                }
                Op::FlipBit(nth, bit) => {
                    db.flip_chunk_bit(*nth, *bit);
                }
            }
            for q in queries() {
                let raw = db.execute_with(&q, ServePolicy::raw());
                let full = db.execute_with(&q, ServePolicy::full());
                prop_assert_eq!(&full, &raw, "policy diverged on {:?} after {:?}", q, op);
                let cached = db.execute_with(&q, ServePolicy::full());
                prop_assert_eq!(&cached, &raw, "cache-hot repeat diverged on {:?}", q);
            }
        }
        // The workload above must actually exercise the cache.
        prop_assert!(db.cache_stats().misses > 0);
    }
}
