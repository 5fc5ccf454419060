//! Property: the served store ([`ShardedTsdb`]: one lock, epoch, cache,
//! rollups) is observationally identical to a plain [`Tsdb`] read through
//! the raw reference path [`execute_raw`], for *any* interleaving of
//! batched writes, seals and bit flips. The serving stack around the
//! store must never leak into results.

use ctt_core::time::{Span, Timestamp};
use ctt_tsdb::{
    execute_raw, Aggregator, DataPoint, Downsample, FillPolicy, Query, ShardedTsdb, TagSet, Tsdb,
};
use proptest::prelude::*;

/// One step of an interleaved workload, applied to both stores.
#[derive(Debug, Clone)]
enum Op {
    /// Write a batch of points (metric idx, device idx, time, value).
    PutBatch(Vec<(u8, u8, i64, f64)>),
    /// Force-seal open buffers.
    SealAll,
    /// Flip one bit of the nth sealed chunk (corruption drill).
    FlipBit(u64, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => proptest::collection::vec(
            (0u8..3, 0u8..5, 0i64..50_000, -1e6f64..1e6),
            1..40
        )
        .prop_map(Op::PutBatch),
        1 => Just(Op::SealAll),
        1 => (0u64..64, 1u64..512).prop_map(|(n, b)| Op::FlipBit(n, b)),
    ]
}

fn metric_name(m: u8) -> String {
    format!("metric.{m}")
}

fn build_point(m: u8, d: u8, t: i64, v: f64) -> DataPoint {
    DataPoint::new(
        metric_name(m),
        vec![("device".to_string(), format!("node{d}"))],
        Timestamp(t),
        v,
    )
    .expect("valid point")
}

fn queries() -> Vec<Query> {
    let full = || Query::range("metric.0", Timestamp(0), Timestamp(50_000));
    vec![
        full(),
        full().group_by("device"),
        full().aggregate(Aggregator::Avg),
        full().aggregate(Aggregator::P95),
        full().aggregate(Aggregator::Sum).downsample(Downsample {
            interval: Span::minutes(10),
            aggregator: Aggregator::Avg,
            fill: FillPolicy::None,
        }),
        Query::range("metric.1", Timestamp(1_000), Timestamp(30_000)).aggregate(Aggregator::Max),
        Query::range("metric.2", Timestamp(0), Timestamp(50_000)).as_rate(),
    ]
}

proptest! {
    /// Replay an arbitrary op sequence against the served store and a plain
    /// `Tsdb`; every observable (stats, metric list, per-series reads,
    /// integrity scan, query results) must be byte-identical, and a
    /// cache-hot repeat must not change an answer.
    #[test]
    fn sharded_store_is_observationally_equal_to_flat(
        ops in proptest::collection::vec(op_strategy(), 1..25),
    ) {
        let mut flat = Tsdb::with_chunk_size(16);
        let served = ShardedTsdb::with_chunk_size(16);
        for op in &ops {
            match op {
                Op::PutBatch(specs) => {
                    let batch: Vec<DataPoint> = specs
                        .iter()
                        .map(|&(m, d, t, v)| build_point(m, d, t, v))
                        .collect();
                    let a = flat.put_batch(&batch);
                    let b = served.put_batch(&batch);
                    prop_assert_eq!(a, b, "write counts diverged");
                }
                Op::SealAll => {
                    flat.seal_all();
                    served.seal_all();
                }
                Op::FlipBit(nth, bit) => {
                    let a = flat.flip_chunk_bit(*nth, *bit);
                    let b = served.flip_chunk_bit(*nth, *bit);
                    prop_assert_eq!(a, b, "flip outcomes diverged");
                }
            }
            for q in queries() {
                let want = execute_raw(&flat, &q);
                prop_assert_eq!(&served.execute(&q), &want, "query diverged: {:?}", q);
                prop_assert_eq!(&served.execute(&q), &want, "cache-hot repeat diverged: {:?}", q);
            }
        }

        prop_assert_eq!(flat.stats(), served.stats());
        prop_assert_eq!(flat.integrity_scan(), served.integrity_scan());
        let metrics: Vec<String> = flat.metrics().into_iter().map(str::to_string).collect();
        prop_assert_eq!(metrics, served.metrics());

        // Every individual series reads back identically.
        for m in 0..3u8 {
            for d in 0..5u8 {
                let tags: TagSet =
                    [("device".to_string(), format!("node{d}"))].into();
                let a = flat.series_id(&metric_name(m), &tags).and_then(|id| {
                    flat.read_with_quarantine(id, Timestamp(0), Timestamp(i64::MAX)).ok()
                });
                let b = served.read_series(
                    &metric_name(m), &tags, Timestamp(0), Timestamp(i64::MAX));
                prop_assert_eq!(a, b, "series m={} d={} diverged", m, d);
            }
        }
    }
}
