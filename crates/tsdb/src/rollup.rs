//! Seal-time materialized rollups: pre-downsampled per-bucket summaries
//! written alongside each sealed chunk (OpenTSDB-style), so dashboard
//! downsample queries over sealed data are served without re-decoding the
//! Gorilla bitstream.
//!
//! The non-negotiable property is **byte-identity with the raw path**: a
//! rollup-served value must be bit-for-bit the value `Aggregator::apply`
//! would produce over the bucket's decoded points. f64 addition is not
//! associative, so every accumulator here replays the *exact* fold the raw
//! aggregators use — `sum` starts at `-0.0` (std's `Sum<f64>` identity:
//! `-0.0 + x == x` for every `x`, including `-0.0`, where `0.0 + -0.0`
//! would flip the sign) and adds points in time order, `min`/`max` fold from
//! `±INFINITY` through the raw path's own `min_step`/`max_step` (a NaN
//! never wins; of equal zeros the first stays). Aggregators that need the full sample
//! (`Median`, `P95`, `Dev`) and `First`, which no dashboard asks for, are
//! never rollup-served.
//!
//! A bucket is 40 bytes: its start as a `u32` count of intervals from the
//! chunk's *base* (the first point's bucket start, `align_down(interval)`),
//! its point count, and the four folds. A chunk spans less than 2²⁶
//! seconds and the interval is at least one second, so the offset fits;
//! where it would not, [`build_rollups`] builds nothing and the chunk is
//! served raw.

use crate::query::{max_step, min_step, Aggregator};
use ctt_core::time::{Span, Timestamp};

/// Pre-aggregated summary of one rollup bucket within one sealed chunk.
///
/// Built from the chunk's sorted, deduplicated points at seal time;
/// immutable afterwards (corruption invalidates the whole rollup vector
/// rather than patching it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RollupBucket {
    /// Bucket start as a count of rollup intervals from the chunk's base.
    pub offset: u32,
    /// Points in the bucket.
    pub count: u32,
    /// Sum folded from `-0.0` in time order (bit-identical to `iter().sum()`).
    pub sum: f64,
    /// Minimum folded from `+∞` through `min_step`.
    pub min: f64,
    /// Maximum folded from `-∞` through `max_step`.
    pub max: f64,
    /// Last value in time order.
    pub last: f64,
}

impl RollupBucket {
    /// Fold one bucket's points (time order), replaying each aggregator's
    /// fold from its identity element (`-0.0 + v`, not `v` and not
    /// `0.0 + v`: std's `iter().sum()` folds from `-0.0`, so the raw sum
    /// of `[-0.0]` is `-0.0`, and Avg divides this sum, so the sign of
    /// zero is observable).
    fn fold(offset: u32, run: &[(Timestamp, f64)]) -> RollupBucket {
        let mut b = RollupBucket {
            offset,
            count: 0,
            sum: -0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: f64::NAN,
        };
        for &(_, v) in run {
            b.count = b.count.saturating_add(1);
            b.sum += v;
            b.min = min_step(b.min, v);
            b.max = max_step(b.max, v);
            b.last = v;
        }
        b
    }

    /// The value [`Aggregator::apply`] would produce over this bucket's
    /// points, or `None` for aggregators rollups do not serve.
    pub fn value_for(&self, agg: Aggregator) -> Option<f64> {
        Some(match agg {
            Aggregator::Avg => self.sum / f64::from(self.count),
            Aggregator::Sum => self.sum,
            Aggregator::Min => self.min,
            Aggregator::Max => self.max,
            Aggregator::Count => f64::from(self.count),
            Aggregator::Last => self.last,
            Aggregator::First | Aggregator::Median | Aggregator::P95 | Aggregator::Dev => {
                return None
            }
        })
    }

    /// Heap bytes one bucket takes in a rollup vector: rollup vectors are
    /// built at their exact length, so len × this is what they hold.
    pub const SIZE_BYTES: usize = std::mem::size_of::<RollupBucket>();
}

/// Whether an aggregator can ever be served from rollups.
pub fn rollup_servable(agg: Aggregator) -> bool {
    !matches!(
        agg,
        Aggregator::First | Aggregator::Median | Aggregator::P95 | Aggregator::Dev
    )
}

/// The time-sorted `points` split into runs that share a rollup bucket:
/// `(bucket start, run)`, in time order. One division per bucket and one
/// compare per point (a binary search per bucket cost more than it saved
/// on runs of ≤ 12 points).
fn bucket_runs(
    points: &[(Timestamp, f64)],
    interval: Span,
) -> impl Iterator<Item = (Timestamp, &[(Timestamp, f64)])> {
    let mut rest = points;
    std::iter::from_fn(move || {
        let &(t, _) = rest.first()?;
        let start = t.align_down(interval);
        let len = match start.0.checked_add(interval.as_seconds()) {
            Some(end) => rest
                .iter()
                .position(|&(t, _)| t.0 >= end)
                .unwrap_or(rest.len()),
            None => rest.len(),
        };
        let (run, tail) = rest.split_at_checked(len)?;
        rest = tail;
        Some((start, run))
    })
}

/// Build the rollup vector for a chunk's points (must be time-sorted and
/// deduplicated — exactly the state a chunk is sealed in), at its exact
/// length. One bucket per occupied interval, in time order, its offset
/// counted from the first point's `align_down(interval)`; empty buckets
/// are not materialized. `None` when an offset does not fit in `u32`:
/// such a chunk has no rollups and is served raw.
pub fn build_rollups(points: &[(Timestamp, f64)], interval: Span) -> Option<Vec<RollupBucket>> {
    let base = points
        .first()
        .map_or(Timestamp(0), |&(t, _)| t.align_down(interval));
    let mut out = Vec::with_capacity(bucket_runs(points, interval).count());
    for (start, run) in bucket_runs(points, interval) {
        let offset = u32::try_from(offset_of(base, interval, start)?).ok()?;
        out.push(RollupBucket::fold(offset, run));
    }
    Some(out)
}

/// How many `interval`s `start` lies after `base`: in a rollup vector
/// based at `base`, the offset of the bucket starting at `start`. `None`
/// when `start` is off the interval grid `base` sits on, or so far from it
/// that the difference overflows.
pub fn offset_of(base: Timestamp, interval: Span, start: Timestamp) -> Option<i64> {
    let width = interval.as_seconds();
    let diff = start.0.checked_sub(base.0)?;
    (width > 0 && diff % width == 0).then(|| diff / width)
}

/// The rollup bucket at `offset`, if materialized. The vector is sorted by
/// offset, so this is a binary search. A negative offset (a bucket before
/// the base) or one past `u32` finds nothing.
pub fn find_bucket(rollups: &[RollupBucket], offset: i64) -> Option<&RollupBucket> {
    let offset = u32::try_from(offset).ok()?;
    rollups
        .binary_search_by_key(&offset, |b| b.offset)
        .ok()
        .and_then(|i| rollups.get(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::tests::{bits, palette, ALL_AGGREGATORS};
    use crate::query::{execute_counted, Downsample, FillPolicy, Query};
    use crate::store::{Tsdb, MAX_OPEN_SPAN_SECS};
    use crate::TagSet;
    use proptest::prelude::*;

    const SERVABLE: [Aggregator; 6] = [
        Aggregator::Avg,
        Aggregator::Sum,
        Aggregator::Min,
        Aggregator::Max,
        Aggregator::Count,
        Aggregator::Last,
    ];

    fn pts(raw: &[(i64, f64)]) -> Vec<(Timestamp, f64)> {
        raw.iter().map(|&(t, v)| (Timestamp(t), v)).collect()
    }

    fn rollups(points: &[(Timestamp, f64)], interval: Span) -> Vec<RollupBucket> {
        build_rollups(points, interval).expect("offsets fit")
    }

    #[test]
    fn a_bucket_is_forty_bytes() {
        // Offset + count + sum/min/max/last. A new column shows up here.
        assert_eq!(std::mem::size_of::<RollupBucket>(), 40);
        assert_eq!(RollupBucket::SIZE_BYTES, 40);
    }

    #[test]
    fn buckets_match_raw_aggregator_folds() {
        let points = pts(&[
            (0, 3.0),
            (100, 1.0),
            (200, 2.0),
            (3600, 10.0),
            (3700, -4.0),
            (7300, 5.5),
        ]);
        let hour = Span::hours(1);
        let rollups = rollups(&points, hour);
        assert_eq!(rollups.len(), 3);
        assert_eq!(rollups.capacity(), rollups.len(), "built at exact length");
        for rb in &rollups {
            let start = Timestamp(i64::from(rb.offset) * 3600);
            let offset = offset_of(Timestamp(0), hour, start).expect("on the grid");
            assert_eq!(find_bucket(&rollups, offset), Some(rb));
            let vals: Vec<f64> = points
                .iter()
                .filter(|&&(t, _)| t.align_down(hour) == start)
                .map(|&(_, v)| v)
                .collect();
            for agg in SERVABLE {
                let served = rb.value_for(agg).expect("servable");
                let raw = agg.apply(&vals);
                assert_eq!(
                    served.to_bits(),
                    raw.to_bits(),
                    "{agg} bucket {start:?}: served {served} vs raw {raw}"
                );
            }
        }
    }

    #[test]
    fn negative_zero_sum_matches_raw_fold() {
        let points = pts(&[(0, -0.0)]);
        let rollups = rollups(&points, Span::hours(1));
        let served = rollups[0].value_for(Aggregator::Sum).unwrap();
        let raw = Aggregator::Sum.apply(&[-0.0]);
        assert_eq!(
            served.to_bits(),
            raw.to_bits(),
            "sum must replay std's -0.0 fold identity bit-for-bit"
        );
        assert_eq!(
            rollups[0].value_for(Aggregator::Avg).unwrap().to_bits(),
            Aggregator::Avg.apply(&[-0.0]).to_bits()
        );
    }

    #[test]
    fn negative_timestamps_align_into_pre_epoch_buckets() {
        // The base is the first point's bucket, -7200; offsets count from it.
        let points = pts(&[(-7199, 1.0), (-3599, 2.0), (-1, 3.0), (0, 4.0)]);
        let rollups = rollups(&points, Span::hours(1));
        let offsets: Vec<u32> = rollups.iter().map(|b| b.offset).collect();
        assert_eq!(offsets, vec![0, 1, 2]);
        assert_eq!(
            rollups[1].count, 2,
            "-3599 and -1 share the [-3600,0) bucket"
        );
    }

    #[test]
    fn first_and_order_sensitive_aggregators_not_servable() {
        for agg in [
            Aggregator::First,
            Aggregator::Median,
            Aggregator::P95,
            Aggregator::Dev,
        ] {
            assert!(!rollup_servable(agg));
            assert_eq!(
                rollups(&pts(&[(0, 1.0)]), Span::hours(1))[0].value_for(agg),
                None
            );
        }
        assert!(SERVABLE.into_iter().all(rollup_servable));
    }

    #[test]
    fn lookups_are_total() {
        let hour = Span::hours(1);
        let base = Timestamp(3600);
        let rollups = rollups(&pts(&[(3601, 1.0), (7200, 2.0), (14400, 3.0)]), hour);
        let find = |start: i64| {
            offset_of(base, hour, Timestamp(start)).and_then(|o| find_bucket(&rollups, o))
        };
        assert_eq!(find(7200).map(|b| b.last), Some(2.0));
        // An empty bucket, a start before the base, one off the interval
        // grid, one past `u32` offsets and the extremes all find nothing.
        for start in [10_800, 0, -3600, 7201, 3600 * (1 << 33), i64::MIN, i64::MAX] {
            assert!(find(start).is_none(), "{start}");
        }
        assert_eq!(offset_of(base, hour, Timestamp(-3600)), Some(-2));
        assert_eq!(
            offset_of(Timestamp(i64::MAX), hour, Timestamp(i64::MIN)),
            None
        );
        assert_eq!(offset_of(base, Span::seconds(0), base), None);
        assert_eq!(offset_of(base, Span::seconds(-60), base), None);
        for offset in [-1, i64::from(u32::MAX) + 1, i64::MIN, i64::MAX] {
            assert!(find_bucket(&rollups, offset).is_none());
        }
    }

    #[test]
    fn offsets_past_u32_build_no_rollups() {
        let points = pts(&[(0, 1.0), (1 << 33, 2.0)]);
        assert_eq!(build_rollups(&points, Span::seconds(1)), None);
        assert_eq!(
            build_rollups(&[], Span::seconds(1)).map(|r| r.len()),
            Some(0)
        );
    }

    #[test]
    fn sealed_rollups_hold_exactly_their_length() {
        let mut db = Tsdb::with_layout(64, Span::minutes(10));
        let id = db.intern("m", &TagSet::new());
        let run: Vec<(Timestamp, f64)> =
            (0..1_000).map(|i| (Timestamp(i * 97), i as f64)).collect();
        for &(t, v) in &run {
            db.append(id, t, v);
        }
        db.seal_all();
        let sealed = &db.series[0].sealed;
        assert!(sealed.len() > 1);
        for c in sealed {
            let r = c.rollups.as_ref().expect("rollups");
            assert_eq!(r.capacity(), r.len());
        }
    }

    /// One series written through `append` (which takes NaNs), every
    /// aggregator asked over `[lo, hi)` served and raw.
    fn assert_served_matches_raw(
        db: &Tsdb,
        width: i64,
        lo: i64,
        hi: i64,
    ) -> Result<(), TestCaseError> {
        for agg in ALL_AGGREGATORS {
            let q = Query::range("m", Timestamp(lo), Timestamp(hi)).downsample(Downsample {
                interval: Span::seconds(width),
                aggregator: agg,
                fill: FillPolicy::None,
            });
            let (served, counts) = execute_counted(db, &q, true);
            let (raw, _) = execute_counted(db, &q, false);
            let points = |rs: &[crate::query::QueryResult]| -> Vec<(i64, u64)> {
                rs.iter().flat_map(|r| bits(&r.series.points)).collect()
            };
            prop_assert_eq!(
                points(&served),
                points(&raw),
                "{} over [{}, {})",
                agg,
                lo,
                hi
            );
            if !rollup_servable(agg) {
                prop_assert_eq!(counts.rollup_buckets, 0, "{} is never rollup-served", agg);
            }
        }
        Ok(())
    }

    proptest! {
        /// Served ≡ raw under the offset layout, for all ten aggregators:
        /// one chunk starting anywhere (pre-epoch included), optionally
        /// stretched to `MAX_OPEN_SPAN_SECS - 1` at a 1 s interval,
        /// optionally re-based by a retention straddle re-encode, and an
        /// in-order open head folded per query. Windows sit around the
        /// chunk's base (their first buckets lie before it), its end and
        /// the head.
        #[test]
        fn served_matches_raw_on_the_offset_layout(
            origin in -(1i64 << 40)..(1i64 << 40),
            width in prop_oneof![Just(1i64), 1i64..4_000],
            gaps in proptest::collection::vec(1i64..5_000, 1..40),
            stretch in any::<bool>(),
            cut in 0usize..48,
            head in proptest::collection::vec(1i64..900, 0..24),
            kinds in proptest::collection::vec(0u8..9, 1..64),
        ) {
            let mut times = vec![origin];
            for g in gaps {
                times.push(times.last().copied().unwrap_or(origin) + g);
            }
            let far = origin + MAX_OPEN_SPAN_SECS - 1;
            if stretch && times.last().is_some_and(|&t| t < far) {
                times.push(far);
            }
            let mut value = kinds.iter().cycle().map(|&k| palette(k));
            let chunk: Vec<(Timestamp, f64)> =
                times.iter().map(|&t| (Timestamp(t), value.next().unwrap_or(0.0))).collect();
            let mut db = Tsdb::with_layout(4096, Span::seconds(width));
            let id = db.intern("m", &TagSet::new());
            for &(t, v) in &chunk {
                db.append(id, t, v);
            }
            db.seal_all();
            prop_assert_eq!(db.series[0].sealed.len(), 1);
            let cutoff = times.get(cut).copied().unwrap_or(origin);
            prop_assert!(db.evict_before(Timestamp(cutoff)).is_ok());
            let end = times.last().copied().unwrap_or(origin);
            let mut t = end;
            let open: Vec<(Timestamp, f64)> = head
                .iter()
                .map(|&g| {
                    t += g;
                    (Timestamp(t), value.next().unwrap_or(0.0))
                })
                .collect();
            for &(t, v) in &open {
                db.append(id, t, v);
            }
            for sealed in &db.series[0].sealed {
                let r = sealed.rollups.as_ref();
                prop_assert!(r.is_some_and(|r| r.capacity() == r.len()));
            }
            for anchor in [origin, cutoff, end, end + 1, t] {
                let a = anchor.div_euclid(width) * width;
                assert_served_matches_raw(&db, width, a - 3 * width, a + 4 * width)?;
                assert_served_matches_raw(&db, width, a - 2 * width + 1, a + 2 * width - 1)?;
            }
        }
    }
}
