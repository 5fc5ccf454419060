//! Property: at a flush, a [`ShardedTsdb`] fed through the staged
//! [`IngestRuntime`] is observationally identical to one fed by direct
//! `put_batch` calls — for *any* interleaving of batched writes (string-keyed
//! `submit` and handle-keyed `submit_resolved` alike), bare flushes, forced
//! seals, retention evictions and chunk-bit corruption. The runtime is a
//! performance structure; it must never leak into stats, queries, shard put
//! counters, or chaos-flip targeting.

use ctt_core::time::{Span, Timestamp};
use ctt_ingest::{IngestConfig, IngestRuntime, SeriesRef};
use ctt_obs::Registry;
use ctt_tsdb::{Aggregator, DataPoint, Downsample, FillPolicy, Query, ShardedTsdb, TagSet};
use proptest::prelude::*;
use std::collections::HashMap;

/// One step of an interleaved workload, applied to both stores.
#[derive(Debug, Clone)]
enum Op {
    /// Write a batch of points (metric idx, device idx, time, value).
    PutBatch(Vec<(u8, u8, i64, f64)>),
    /// Write the same kind of batch by handle: each series is registered
    /// once, at first use, and its points go through `submit_resolved`.
    SubmitResolved(Vec<(u8, u8, i64, f64)>),
    /// Force-seal open buffers.
    SealAll,
    /// Drop everything strictly before the cutoff.
    EvictBefore(i64),
    /// Flip one bit of the nth sealed chunk (corruption drill).
    FlipBit(u8, u8),
    /// Flush the runtime with no store mutation, so batch boundaries fall
    /// at arbitrary points between submits.
    Flush,
}

fn specs_strategy() -> impl Strategy<Value = Vec<(u8, u8, i64, f64)>> {
    proptest::collection::vec((0u8..3, 0u8..5, 0i64..50_000, -1e6f64..1e6), 1..40)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => specs_strategy().prop_map(Op::PutBatch),
        3 => specs_strategy().prop_map(Op::SubmitResolved),
        1 => Just(Op::SealAll),
        1 => (0i64..50_000).prop_map(Op::EvictBefore),
        1 => (0u8..20, 0u8..200).prop_map(|(c, b)| Op::FlipBit(c, b)),
        1 => Just(Op::Flush),
    ]
}

fn metric_name(m: u8) -> String {
    format!("metric.{m}")
}

fn device_tags(d: u8) -> TagSet {
    [("device".to_string(), format!("node{d}"))].into()
}

fn build_point(m: u8, d: u8, t: i64, v: f64) -> DataPoint {
    DataPoint::new(metric_name(m), device_tags(d), Timestamp(t), v).expect("valid point")
}

fn build_batch(specs: &[(u8, u8, i64, f64)]) -> Vec<DataPoint> {
    specs
        .iter()
        .map(|&(m, d, t, v)| build_point(m, d, t, v))
        .collect()
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

const SHARDS: usize = 4;

proptest! {
    /// Replay an arbitrary op sequence against a direct store and a
    /// runtime-fed store; every observable must be byte-identical at the
    /// final flush.
    #[test]
    fn runtime_fed_store_equals_direct_put_batch(
        ops in proptest::collection::vec(op_strategy(), 1..25),
        ship_points in 1usize..32,
    ) {
        let reg_direct = Registry::new();
        let mut direct = ShardedTsdb::with_chunk_size(SHARDS, 16);
        direct.attach_registry(&reg_direct);

        let reg_rt = Registry::new();
        let mut staged = ShardedTsdb::with_chunk_size(SHARDS, 16);
        staged.attach_registry(&reg_rt);
        let mut rt = IngestRuntime::new(&staged, &reg_rt, IngestConfig { ship_points });
        let mut handles: HashMap<(u8, u8), SeriesRef> = HashMap::new();

        for op in &ops {
            match op {
                Op::PutBatch(specs) => {
                    let batch = build_batch(specs);
                    let a = direct.put_batch(&batch);
                    let b = rt.submit(&batch);
                    prop_assert_eq!(a, b, "accepted counts diverged");
                }
                Op::SubmitResolved(specs) => {
                    let mut resolved = Vec::with_capacity(specs.len());
                    for &(m, d, t, v) in specs {
                        let h = *handles.entry((m, d)).or_insert_with(|| {
                            rt.register(&metric_name(m), &device_tags(d))
                                .expect("valid names")
                        });
                        resolved.push((h, Timestamp(t), v));
                    }
                    let a = direct.put_batch(&build_batch(specs));
                    let b = rt.submit_resolved(&resolved);
                    prop_assert_eq!(a, b, "accepted counts diverged");
                }
                Op::SealAll => {
                    rt.flush();
                    direct.seal_all();
                    staged.seal_all();
                }
                Op::EvictBefore(cutoff) => {
                    rt.flush();
                    let a = direct.evict_before(Timestamp(*cutoff));
                    let b = staged.evict_before(Timestamp(*cutoff));
                    prop_assert_eq!(a, b, "evicted counts diverged");
                }
                Op::FlipBit(nth, bit) => {
                    // Chaos targets "the nth sealed chunk": the flush
                    // makes the chunk population identical first.
                    rt.flush();
                    let a = direct.flip_chunk_bit(u64::from(*nth), u64::from(*bit));
                    let b = staged.flip_chunk_bit(u64::from(*nth), u64::from(*bit));
                    prop_assert_eq!(a, b, "flip outcomes diverged");
                }
                Op::Flush => rt.flush(),
            }
        }
        rt.flush();

        prop_assert_eq!(direct.stats(), staged.stats(), "stats diverged");
        prop_assert_eq!(direct.metrics(), staged.metrics());

        for m in 0..3u8 {
            for d in 0..5u8 {
                let tags = device_tags(d);
                let a = direct.read_series(
                    &metric_name(m), &tags, Timestamp(0), Timestamp(i64::MAX));
                let b = staged.read_series(
                    &metric_name(m), &tags, Timestamp(0), Timestamp(i64::MAX));
                prop_assert_eq!(a, b, "series m={} d={} diverged", m, d);
            }
        }

        for q in queries() {
            let a = direct.execute(&q);
            let b = staged.execute(&q);
            prop_assert_eq!(a, b, "query diverged: {:?}", q);
        }

        // Per-shard put counters agree exactly: the writer sessions bump
        // the same counters `put_batch` does, point for point.
        let at = Timestamp(0);
        let snap_a = reg_direct.snapshot(at);
        let snap_b = reg_rt.snapshot(at);
        for i in 0..SHARDS {
            let name = format!("tsdb.shard{i}.puts");
            prop_assert_eq!(
                snap_a.value(&name), snap_b.value(&name),
                "{} diverged", name
            );
        }
    }
}
