//! Property: the full serving stack (seal-time rollups, the open buffer's
//! per-query fold, block index, seal-aware cache) is byte-identical to the
//! raw reference path (uncached, full Gorilla re-decode) for *any*
//! interleaving of batched writes, writes by series id, in-order appended
//! runs, late out-of-order points, seals, retention sweeps, and bit-flip
//! corruption. [`ServePolicy`] chooses how much work a query skips — never
//! what it answers.
//!
//! A second store takes every write through `put_batch`. The two write
//! paths must agree: stats, flip and eviction outcomes, every series'
//! points, every query shape and the `tsdb.shard0.puts` counter.
//!
//! The store uses a small rollup interval (10 min) and chunk size so that
//! sealed chunks, rollup-served buckets, partially-covered edge buckets,
//! open-buffer overlaps, and index skips all occur within short workloads.

use ctt_core::time::{Span, Timestamp};
use ctt_obs::Registry;
use ctt_tsdb::{
    Aggregator, DataPoint, Downsample, FillPolicy, Query, SeriesId, ServePolicy, ShardedTsdb,
    TagSet,
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
    /// Write the same kind of batch by series id: each series is
    /// registered at first use, and the batch goes through one
    /// `ShardedTsdb::append`.
    Append(Vec<(u8, u8, i64, f64)>),
    /// Force-seal open buffers (materializes rollups + block index).
    SealAll,
    /// Drop everything strictly before the cutoff.
    EvictBefore(i64),
    /// Corrupt one bit of one sealed chunk (drops its rollups).
    FlipBit(u64, u64),
    /// Append a strictly increasing run to one series by its id, starting `gap` after the series' last point and `step`
    /// apart (metric idx, device idx, gap, step, values): the open buffer
    /// stays time-ordered, so its buckets are served from its fold.
    AppendRun(u8, u8, i64, i64, Vec<f64>),
    /// Write one point `back` seconds before the series' last point (0 =
    /// a duplicate timestamp): the open buffer is no longer strictly
    /// ordered, so its buckets fall back to raw decode.
    LatePoint(u8, u8, i64, f64),
}

fn specs_strategy() -> impl Strategy<Value = Vec<(u8, u8, i64, f64)>> {
    proptest::collection::vec((0u8..2, 0u8..4, 0i64..HORIZON, -1e6f64..1e6), 1..48)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => specs_strategy().prop_map(Op::PutBatch),
        3 => specs_strategy().prop_map(Op::Append),
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

/// A store with its own registry, so its `puts` counter can be read.
fn store() -> (ShardedTsdb, Registry) {
    let registry = Registry::new();
    let mut db = ShardedTsdb::with_layout(16, ROLLUP);
    db.attach_registry(&registry);
    (db, registry)
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

/// Apply points by series id to `db` — each series registered at first
/// use — and through `put_batch` to `mirror`; both must accept the same.
fn append_both(
    db: &ShardedTsdb,
    ids: &mut BTreeMap<(u8, u8), SeriesId>,
    mirror: &ShardedTsdb,
    specs: &[(u8, u8, i64, f64)],
) -> Result<(), TestCaseError> {
    let by_id: Vec<(SeriesId, Timestamp, f64)> = specs
        .iter()
        .map(|&(m, d, t, v)| {
            let id = *ids.entry((m, d)).or_insert_with(|| {
                db.register(&metric_name(m), &device_tags(d))
                    .expect("valid names")
            });
            (id, Timestamp(t), v)
        })
        .collect();
    let written = db.append(&by_id);
    prop_assert_eq!(written, mirror.put_batch(&build_batch(specs)));
    Ok(())
}

/// Advance each written series' latest timestamp.
fn note_latest(last: &mut BTreeMap<(u8, u8), i64>, specs: &[(u8, u8, i64, f64)]) {
    for &(m, d, t, _) in specs {
        let l = last.entry((m, d)).or_insert(t);
        *l = (*l).max(t);
    }
}

proptest! {
    /// Replay an arbitrary op sequence; after every op, every query shape
    /// must answer byte-identically under the full and raw policies, a
    /// cache-hot repeat must not change the answer, and the `put_batch`
    /// mirror must hold exactly the same data.
    #[test]
    fn full_serving_stack_matches_raw_decode(
        ops in proptest::collection::vec(op_strategy(), 1..12),
    ) {
        let (db, registry) = store();
        let (mirror, mirror_registry) = store();
        let mut ids: BTreeMap<(u8, u8), SeriesId> = BTreeMap::new();
        // Each series' latest timestamp written so far.
        let mut last: BTreeMap<(u8, u8), i64> = BTreeMap::new();
        for op in &ops {
            match op {
                Op::PutBatch(specs) => {
                    let batch = build_batch(specs);
                    prop_assert_eq!(db.put_batch(&batch), mirror.put_batch(&batch));
                    note_latest(&mut last, specs);
                }
                Op::Append(specs) => {
                    append_both(&db, &mut ids, &mirror, specs)?;
                    note_latest(&mut last, specs);
                }
                Op::AppendRun(m, d, gap, step, values) => {
                    let first = last.get(&(*m, *d)).map_or(0, |&l| l + gap);
                    let specs: Vec<(u8, u8, i64, f64)> = values
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| (*m, *d, first + i as i64 * step, v))
                        .collect();
                    append_both(&db, &mut ids, &mirror, &specs)?;
                    if let Some(&(_, _, t, _)) = specs.last() {
                        last.insert((*m, *d), t);
                    }
                }
                Op::LatePoint(m, d, back, v) => {
                    let t = last.get(&(*m, *d)).map_or(0, |&l| (l - back).max(0));
                    let batch = [build_point(*m, *d, t, *v)];
                    db.put_batch(&batch);
                    mirror.put_batch(&batch);
                    last.entry((*m, *d)).or_insert(t);
                }
                Op::SealAll => {
                    db.seal_all();
                    mirror.seal_all();
                }
                // Retention may legitimately report a corrupt straddling
                // chunk after FlipBit; equivalence must hold either way.
                Op::EvictBefore(cutoff) => {
                    let a = db.evict_before(Timestamp(*cutoff));
                    let b = mirror.evict_before(Timestamp(*cutoff));
                    prop_assert_eq!(a, b, "evictions diverged");
                }
                Op::FlipBit(nth, bit) => {
                    let a = db.flip_chunk_bit(*nth, *bit);
                    prop_assert_eq!(a, mirror.flip_chunk_bit(*nth, *bit), "flips diverged");
                }
            }
            prop_assert_eq!(db.stats(), mirror.stats(), "stats diverged after {:?}", op);
            for q in queries() {
                let raw = db.execute_with(&q, ServePolicy::raw());
                let full = db.execute_with(&q, ServePolicy::full());
                prop_assert_eq!(&full, &raw, "policy diverged on {:?} after {:?}", q, op);
                let cached = db.execute_with(&q, ServePolicy::full());
                prop_assert_eq!(&cached, &raw, "cache-hot repeat diverged on {:?}", q);
                let mirrored = mirror.execute_with(&q, ServePolicy::raw());
                prop_assert_eq!(&mirrored, &raw, "write paths diverged on {:?}", q);
            }
        }
        // The workload above must actually exercise the cache.
        prop_assert!(db.cache_stats().misses > 0);
        prop_assert_eq!(db.metrics(), mirror.metrics());
        for m in 0..2u8 {
            for d in 0..4u8 {
                let read = |s: &ShardedTsdb| {
                    s.read_series(&metric_name(m), &device_tags(d), Timestamp(0), Timestamp(i64::MAX))
                };
                prop_assert_eq!(read(&db), read(&mirror), "series m={} d={} diverged", m, d);
            }
        }
        let puts = |r: &Registry| r.snapshot(Timestamp(0)).value("tsdb.shard0.puts");
        prop_assert_eq!(puts(&registry), puts(&mirror_registry));
    }
}
