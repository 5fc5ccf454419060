//! Property: the full serving stack (seal-time rollups + block index +
//! seal-aware cache) is byte-identical to the raw
//! reference path (uncached, full Gorilla re-decode) for *any*
//! interleaving of batched writes, seals, retention sweeps, and bit-flip
//! corruption. [`ServePolicy`] chooses how much work a query skips — never
//! what it answers.
//!
//! The store uses a small rollup interval (10 min) and chunk size so that
//! sealed chunks, rollup-served buckets, partially-covered edge buckets,
//! open-buffer overlaps, and index skips all occur within short workloads.

use ctt_core::time::{Span, Timestamp};
use ctt_tsdb::{Aggregator, DataPoint, Downsample, FillPolicy, Query, ServePolicy, ShardedTsdb};
use proptest::prelude::*;

const HORIZON: i64 = 36_000; // 10 hours of 10-minute rollup buckets
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

/// Dashboard query shapes: rollup-servable downsamples (interval matches
/// the store's), non-matching intervals (raw only), leading-gap Previous
/// fill, rate, and order-sensitive aggregators that must bypass rollups.
fn queries() -> Vec<Query> {
    let ds = |interval: Span, aggregator: Aggregator, fill: FillPolicy| Downsample {
        interval,
        aggregator,
        fill,
    };
    let full = || Query::range("metric.0", Timestamp(0), Timestamp(HORIZON));
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
        Query::range("metric.1", Timestamp(0), Timestamp(HORIZON))
            .as_rate()
            .downsample(ds(ROLLUP, Aggregator::Avg, FillPolicy::None)),
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
        for op in &ops {
            match op {
                Op::PutBatch(specs) => {
                    let batch: Vec<DataPoint> = specs
                        .iter()
                        .map(|&(m, d, t, v)| build_point(m, d, t, v))
                        .collect();
                    db.put_batch(&batch);
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
