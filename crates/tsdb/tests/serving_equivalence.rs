//! Property: the full serving stack (seal-time rollups, the open buffer's
//! per-query fold, block index, seal-aware cache) is byte-identical to the
//! raw reference path (uncached, full Gorilla re-decode) for *any*
//! interleaving of batched writes, writes by series id, in-order appended
//! runs, late out-of-order points, seals, and bit-flip corruption.
//! [`ServePolicy`] chooses how much work a query skips — never what it
//! answers. The cache key does not hold the policy, so an answer cached
//! under one policy serves the others: every query runs under all four
//! `(cache, rollups)` combinations, in a seeded order.
//!
//! Three stores take the same workload:
//! * the served store, written by series id where the op says so;
//! * a served mirror that takes every write through `put_batch`. The two
//!   write paths must agree: stats, flip outcomes, every query shape and
//!   the `tsdb.shard0.puts` counter;
//! * a plain [`Tsdb`] fed by `put_batch` and read by [`execute_raw`], the
//!   reference every answer is checked against: the lock, epoch, cache
//!   and rollups around the served store must never leak into a result,
//!   its stats or its integrity scan.
//!
//! The store uses a small rollup interval (10 min) and chunk size so that
//! sealed chunks, rollup-served buckets, partially-covered edge buckets,
//! open-buffer overlaps, and index skips all occur within short workloads.
//! Most cases put every value on a decimal grid `n / 10^e`, as payload
//! readings are, so chunks and rollup sums take the grid coding; answers
//! are compared bit for bit, where an ulp off in a grid sum shows.

use ctt_core::rng::SplitMix64;
use ctt_core::time::{Span, Timestamp};
use ctt_obs::Snapshot;
use ctt_tsdb::{
    execute_raw, Aggregator, DataPoint, Downsample, FillPolicy, Query, QueryResult, SeriesId,
    ServePolicy, ShardedTsdb, TagSet, Tsdb,
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
        full().group_by("device"),
        full().aggregate(Aggregator::P95),
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

/// One exact `device=` query per series: its every point, as stored.
fn series_queries() -> impl Iterator<Item = Query> {
    (0..2u8).flat_map(|m| {
        (0..4u8).map(move |d| {
            Query::range(metric_name(m), Timestamp(0), Timestamp(i64::MAX))
                .with_tag("device", format!("node{d}"))
        })
    })
}

/// The four `(cache, rollups)` policies, in an order drawn from `rng`.
fn shuffled_policies(rng: &mut SplitMix64) -> [ServePolicy; 4] {
    let policy = |cache, rollups| ServePolicy {
        cache,
        rollups,
        parallel: false,
    };
    let mut all = [
        policy(false, false),
        policy(false, true),
        policy(true, false),
        policy(true, true),
    ];
    for i in (1..all.len()).rev() {
        all.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    all
}

/// The reference and written-by-`put_batch` sides of the workload.
struct Reference {
    mirror: ShardedTsdb,
    flat: Tsdb,
}

impl Reference {
    /// Write `batch` to both sides; they must accept the same points.
    fn put_batch(&mut self, batch: &[DataPoint]) -> Result<u64, TestCaseError> {
        let written = self.mirror.put_batch(batch);
        prop_assert_eq!(written, self.flat.put_batch(batch), "write counts diverged");
        Ok(written)
    }
}

/// Apply points by series id to `db` — each series registered at first
/// use — and through `put_batch` to the reference sides; all must accept
/// the same.
fn append_both(
    db: &ShardedTsdb,
    ids: &mut BTreeMap<(u8, u8), SeriesId>,
    reference: &mut Reference,
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
    prop_assert_eq!(written, reference.put_batch(&build_batch(specs))?);
    Ok(())
}

/// `v` moved onto the decimal grid `n / 10^e` (`e` < 4), with `n / 10^e`
/// the expression a grid-coded column decodes by; `v` itself for any
/// other `e`. `-0.0` stays, and keeps its chunk off the grid.
fn on_grid(v: f64, e: u8) -> f64 {
    if e >= 4 {
        return v;
    }
    let scale = 10f64.powi(i32::from(e));
    (v * scale).round() / scale
}

/// Every value of `op` moved onto the grid of exponent `e`.
fn gridded(op: &Op, e: u8) -> Op {
    let specs = |specs: &[(u8, u8, i64, f64)]| {
        specs
            .iter()
            .map(|&(m, d, t, v)| (m, d, t, on_grid(v, e)))
            .collect()
    };
    match op {
        Op::PutBatch(s) => Op::PutBatch(specs(s)),
        Op::Append(s) => Op::Append(specs(s)),
        Op::AppendRun(m, d, gap, step, vs) => Op::AppendRun(
            *m,
            *d,
            *gap,
            *step,
            vs.iter().map(|&v| on_grid(v, e)).collect(),
        ),
        Op::LatePoint(m, d, back, v) => Op::LatePoint(*m, *d, *back, on_grid(*v, e)),
        Op::SealAll | Op::FlipBit(..) => op.clone(),
    }
}

/// A result set with each value as its bits, NaNs made canonical: `-0.0`
/// and `0.0` differ, and so does a value one ulp off.
type Exact<'a> = Vec<(&'a TagSet, usize, usize, u64, Vec<(Timestamp, u64)>)>;

fn exact(results: &[QueryResult]) -> Exact<'_> {
    let bits = |v: f64| if v.is_nan() { f64::NAN } else { v }.to_bits();
    results
        .iter()
        .map(|r| {
            let points = r.series.points.iter().map(|&(t, v)| (t, bits(v)));
            (
                &r.group,
                r.source_series,
                r.quarantined_chunks,
                r.quarantined_points,
                points.collect(),
            )
        })
        .collect()
}

/// Advance each written series' latest timestamp.
fn note_latest(last: &mut BTreeMap<(u8, u8), i64>, specs: &[(u8, u8, i64, f64)]) {
    for &(m, d, t, _) in specs {
        let l = last.entry((m, d)).or_insert(t);
        *l = (*l).max(t);
    }
}

proptest! {
    /// Replay an arbitrary op sequence, its values on the grid of exponent
    /// `grid` (< 4) or as drawn; after every op, every query shape must
    /// answer under each of the four policies bit for bit as the plain
    /// `Tsdb` answers raw, the mirror must answer the same, and the three
    /// stores must agree on stats and on the integrity scan.
    #[test]
    fn full_serving_stack_matches_raw_decode(
        ops in proptest::collection::vec(op_strategy(), 1..12),
        order_seed in any::<u64>(),
        grid in 0u8..6,
    ) {
        let ops: Vec<Op> = ops.iter().map(|op| gridded(op, grid)).collect();
        let db = ShardedTsdb::with_layout(16, ROLLUP);
        let mirror = ShardedTsdb::with_layout(16, ROLLUP);
        let mut reference = Reference { mirror, flat: Tsdb::with_layout(16, ROLLUP) };
        let mut order = SplitMix64::seed_from_u64(order_seed);
        let mut ids: BTreeMap<(u8, u8), SeriesId> = BTreeMap::new();
        // Each series' latest timestamp written so far.
        let mut last: BTreeMap<(u8, u8), i64> = BTreeMap::new();
        for op in &ops {
            match op {
                Op::PutBatch(specs) => {
                    let batch = build_batch(specs);
                    prop_assert_eq!(db.put_batch(&batch), reference.put_batch(&batch)?);
                    note_latest(&mut last, specs);
                }
                Op::Append(specs) => {
                    append_both(&db, &mut ids, &mut reference, specs)?;
                    note_latest(&mut last, specs);
                }
                Op::AppendRun(m, d, gap, step, values) => {
                    let first = last.get(&(*m, *d)).map_or(0, |&l| l + gap);
                    let specs: Vec<(u8, u8, i64, f64)> = values
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| (*m, *d, first + i as i64 * step, v))
                        .collect();
                    append_both(&db, &mut ids, &mut reference, &specs)?;
                    if let Some(&(_, _, t, _)) = specs.last() {
                        last.insert((*m, *d), t);
                    }
                }
                Op::LatePoint(m, d, back, v) => {
                    let t = last.get(&(*m, *d)).map_or(0, |&l| (l - back).max(0));
                    let batch = [build_point(*m, *d, t, *v)];
                    prop_assert_eq!(db.put_batch(&batch), reference.put_batch(&batch)?);
                    last.entry((*m, *d)).or_insert(t);
                }
                Op::SealAll => {
                    db.seal_all();
                    reference.mirror.seal_all();
                    reference.flat.seal_all();
                }
                Op::FlipBit(nth, bit) => {
                    let a = db.flip_chunk_bit(*nth, *bit);
                    prop_assert_eq!(a, reference.mirror.flip_chunk_bit(*nth, *bit), "flips diverged");
                    prop_assert_eq!(a, reference.flat.flip_chunk_bit(*nth, *bit), "flips diverged");
                }
            }
            let flat = &reference.flat;
            prop_assert_eq!(db.stats(), flat.stats(), "stats diverged after {:?}", op);
            prop_assert_eq!(reference.mirror.stats(), flat.stats(), "stats diverged after {:?}", op);
            prop_assert_eq!(db.integrity_scan(), flat.integrity_scan(), "scan diverged after {:?}", op);
            for q in queries().into_iter().chain(series_queries()) {
                let raw = execute_raw(flat, &q);
                for policy in shuffled_policies(&mut order) {
                    let served = db.execute_with(&q, policy).unwrap();
                    prop_assert_eq!(exact(&served), exact(&raw), "{:?} diverged on {:?} after {:?}", policy, q, op);
                }
                let mirrored = reference.mirror.execute_with(&q, ServePolicy::raw()).unwrap();
                prop_assert_eq!(exact(&mirrored), exact(&raw), "write paths diverged on {:?}", q);
            }
        }
        // The workload above must actually exercise the cache.
        prop_assert!(db.cache_stats().hits > 0 && db.cache_stats().misses > 0);
        let puts = |db: &ShardedTsdb| {
            let mut snap = Snapshot::new(Timestamp(0));
            db.export(&mut snap);
            snap.value("tsdb.shard0.puts")
        };
        prop_assert_eq!(puts(&db), puts(&reference.mirror));
    }
}
