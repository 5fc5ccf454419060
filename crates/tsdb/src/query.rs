//! Query engine: tag filtering, group-by, downsampling, aggregation, rate.
//!
//! Mirrors the OpenTSDB query surface the Zeppelin dashboards use (§2.4):
//! a query names a metric, tag filters (exact / `*` / `a|b`), a time range,
//! an optional downsample (`interval-aggregator`, e.g. `1h-avg`), and a
//! cross-series aggregator. Wildcarded tag keys become group-by dimensions,
//! so `device=*` yields one result series per device.

use crate::error::TsdbError;
use crate::model::{TagFilter, TagSet};
use crate::rollup::{find_bucket, rollup_servable, RollupBucket};
use crate::store::{dedup_last_write_wins, ScanCounts, Series, SeriesId, Tsdb};
use ctt_core::measurement::Series as OutSeries;
use ctt_core::time::{Span, Timestamp};
use std::collections::BTreeMap;
use std::fmt;

/// Aggregation function over a bucket or across series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregator {
    /// Arithmetic mean.
    Avg,
    /// Sum.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Number of points.
    Count,
    /// First value in time order.
    First,
    /// Last value in time order.
    Last,
    /// Median (p50).
    Median,
    /// 95th percentile (linear interpolation between closest ranks —
    /// same definition as `ctt-analytics`' `quantile`).
    P95,
    /// Sample standard deviation.
    Dev,
}

impl Aggregator {
    /// Parse the OpenTSDB token (`avg`, `sum`, ...).
    pub fn parse(s: &str) -> Option<Aggregator> {
        Some(match s {
            "avg" => Aggregator::Avg,
            "sum" => Aggregator::Sum,
            "min" => Aggregator::Min,
            "max" => Aggregator::Max,
            "count" => Aggregator::Count,
            "first" => Aggregator::First,
            "last" => Aggregator::Last,
            "median" | "p50" => Aggregator::Median,
            "p95" => Aggregator::P95,
            "dev" => Aggregator::Dev,
            _ => return None,
        })
    }

    /// Apply to a slice of values (time-ordered). An empty slice yields NaN
    /// for value aggregators (0 for `Count`) rather than a panic — including
    /// `Min`/`Max`, whose fold identities would otherwise leak ±∞ into
    /// downsampled output.
    pub fn apply(self, values: &[f64]) -> f64 {
        if values.is_empty() {
            return match self {
                Aggregator::Count => 0.0,
                _ => f64::NAN,
            };
        }
        match self {
            Aggregator::Avg => values.iter().sum::<f64>() / values.len() as f64,
            Aggregator::Sum => values.iter().sum(),
            Aggregator::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
            Aggregator::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            Aggregator::Count => values.len() as f64,
            Aggregator::First => values.first().copied().unwrap_or(f64::NAN),
            Aggregator::Last => values.last().copied().unwrap_or(f64::NAN),
            Aggregator::Median => percentile(values, 0.50),
            Aggregator::P95 => percentile(values, 0.95),
            Aggregator::Dev => {
                if values.len() < 2 {
                    return 0.0;
                }
                let mean = values.iter().sum::<f64>() / values.len() as f64;
                (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64)
                    .sqrt()
            }
        }
    }
}

impl fmt::Display for Aggregator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Aggregator::Avg => "avg",
            Aggregator::Sum => "sum",
            Aggregator::Min => "min",
            Aggregator::Max => "max",
            Aggregator::Count => "count",
            Aggregator::First => "first",
            Aggregator::Last => "last",
            Aggregator::Median => "median",
            Aggregator::P95 => "p95",
            Aggregator::Dev => "dev",
        };
        f.write_str(s)
    }
}

/// Percentile of an unsorted slice by linear interpolation on the sorted
/// sample (NaN when empty). This is the *same* definition as
/// `ctt-analytics::stats::quantile`, so a P95 computed in a query agrees
/// bit-for-bit with the same P95 computed in figures — the cross-crate
/// agreement test in `tests/percentile_agreement.rs` pins that.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    match (v.get(lo), v.get(hi)) {
        (Some(&a), Some(&b)) => a + (b - a) * frac,
        _ => f64::NAN,
    }
}

/// Missing-bucket fill policy for downsampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FillPolicy {
    /// Skip empty buckets (default).
    #[default]
    None,
    /// Emit zero for empty buckets.
    Zero,
    /// Carry the previous bucket's value forward.
    Previous,
}

/// Downsampling specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Downsample {
    /// Bucket width.
    pub interval: Span,
    /// In-bucket aggregator.
    pub aggregator: Aggregator,
    /// Fill policy for empty buckets.
    pub fill: FillPolicy,
}

impl Downsample {
    /// Parse `"1h-avg"`, `"15m-max"`, `"300s-sum"` (OpenTSDB style).
    pub fn parse(s: &str) -> Option<Downsample> {
        let (interval, agg) = s.split_once('-')?;
        let (num, unit) = interval.split_at(interval.len().checked_sub(1)?);
        let n: i64 = num.parse().ok()?;
        let interval = match unit {
            "s" => Span::seconds(n),
            "m" => Span::minutes(n),
            "h" => Span::hours(n),
            "d" => Span::days(n),
            _ => return None,
        };
        Some(Downsample {
            interval,
            aggregator: Aggregator::parse(agg)?,
            fill: FillPolicy::None,
        })
    }
}

/// A query against the database.
#[derive(Debug, Clone)]
pub struct Query {
    /// Metric name.
    pub metric: String,
    /// Tag predicates. `Wildcard` keys also become group-by dimensions.
    pub filters: BTreeMap<String, TagFilter>,
    /// Range start (inclusive).
    pub start: Timestamp,
    /// Range end (exclusive).
    pub end: Timestamp,
    /// Optional per-series downsample.
    pub downsample: Option<Downsample>,
    /// Aggregator across the series of one group.
    pub aggregator: Aggregator,
    /// Convert values to per-second rate before aggregation.
    pub rate: bool,
}

impl Query {
    /// A simple average query over everything with the metric.
    pub fn range(metric: impl Into<String>, start: Timestamp, end: Timestamp) -> Query {
        Query {
            metric: metric.into(),
            filters: BTreeMap::new(),
            start,
            end,
            downsample: None,
            aggregator: Aggregator::Avg,
            rate: false,
        }
    }

    /// Add an exact-match tag filter.
    pub fn with_tag(mut self, key: impl Into<String>, value: impl Into<String>) -> Query {
        self.filters
            .insert(key.into(), TagFilter::Equals(value.into()));
        self
    }

    /// Add a wildcard (group-by) tag.
    pub fn group_by(mut self, key: impl Into<String>) -> Query {
        self.filters.insert(key.into(), TagFilter::Wildcard);
        self
    }

    /// Set the downsample.
    pub fn downsample(mut self, ds: Downsample) -> Query {
        self.downsample = Some(ds);
        self
    }

    /// Set the cross-series aggregator.
    pub fn aggregate(mut self, agg: Aggregator) -> Query {
        self.aggregator = agg;
        self
    }

    /// Request per-second rate conversion.
    pub fn as_rate(mut self) -> Query {
        self.rate = true;
        self
    }
}

/// One result group.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Values of the group-by tags for this group.
    pub group: TagSet,
    /// The aggregated series.
    pub series: OutSeries,
    /// How many stored series contributed.
    pub source_series: usize,
    /// Corrupt chunks skipped (quarantined) while reading this group.
    pub quarantined_chunks: usize,
    /// Points those quarantined chunks advertised.
    pub quarantined_points: u64,
}

/// Downsample a sorted point list. `seed` initializes the
/// [`FillPolicy::Previous`] carry — the value of the last point *before*
/// `start` — so leading empty buckets extend the pre-range value instead
/// of being silently dropped. Pass `None` when no point precedes the
/// range (or for the other fill policies, which ignore it).
fn downsample_points(
    points: &[(Timestamp, f64)],
    ds: Downsample,
    start: Timestamp,
    end: Timestamp,
    seed: Option<f64>,
) -> Vec<(Timestamp, f64)> {
    let mut out = Vec::new();
    if points.is_empty() && ds.fill == FillPolicy::None {
        return out;
    }
    let first_bucket = start.align_down(ds.interval);
    let mut bucket_start = first_bucket;
    let mut idx = 0usize;
    let mut prev_value: Option<f64> = seed;
    while bucket_start < end {
        let bucket_end = bucket_start + ds.interval;
        let mut vals = Vec::new();
        while let Some(&(t, v)) = points.get(idx) {
            if t >= bucket_end {
                break;
            }
            if t >= bucket_start {
                vals.push(v);
            }
            idx += 1;
        }
        if vals.is_empty() {
            match ds.fill {
                FillPolicy::None => {}
                FillPolicy::Zero => out.push((bucket_start, 0.0)),
                FillPolicy::Previous => {
                    if let Some(v) = prev_value {
                        out.push((bucket_start, v));
                    }
                }
            }
        } else {
            let v = ds.aggregator.apply(&vals);
            prev_value = Some(v);
            out.push((bucket_start, v));
        }
        bucket_start = bucket_end;
    }
    out
}

/// Convert a point list to per-second rates (length n-1 after duplicate
/// timestamps collapse). Colliding samples (dt == 0, e.g. a duplicate that
/// survived to this layer) are collapsed last-write-wins *before* the
/// pairwise rate, so the newer value still contributes to the next interval
/// instead of being silently dropped.
fn to_rate(points: &[(Timestamp, f64)]) -> Vec<(Timestamp, f64)> {
    let mut collapsed: Vec<(Timestamp, f64)> = Vec::with_capacity(points.len());
    for &(t, v) in points {
        match collapsed.last_mut() {
            Some(last) if last.0 == t => last.1 = v,
            _ => collapsed.push((t, v)),
        }
    }
    collapsed
        .iter()
        .zip(collapsed.iter().skip(1))
        .filter_map(|(&(t0, v0), &(t1, v1))| {
            let dt = (t1 - t0).as_seconds();
            if dt <= 0 {
                None
            } else {
                Some((t1, (v1 - v0) / dt as f64))
            }
        })
        .collect()
}

/// Serve one series' downsample over `[start, end)` bucket by bucket,
/// answering from a fold wherever a bucket is provably owned by one: the
/// seal-time rollups of the single sealed chunk that covers it, or — for a
/// bucket only the open buffer covers — that buffer folded once per call
/// with the same [`build_rollups`] a seal uses (when the buffer is strictly
/// time-ordered; see [`Series::open_rollups`]). Everywhere else it decodes
/// raw points, memoized per chunk. The output is bit-identical to
/// `downsample_points(collect(start, end), ...)`: fold values replay the
/// raw aggregator folds exactly (see [`crate::rollup`]), and every bucket
/// no fold can prove goes through the same decode → sort → dedup →
/// aggregate sequence the raw path uses.
#[allow(clippy::too_many_arguments)]
fn serve_downsample_series(
    s: &Series,
    start: Timestamp,
    end: Timestamp,
    ds: Downsample,
    rollup_interval: Span,
    seed: Option<f64>,
    quarantine: &mut crate::store::QuarantineReport,
    counts: &mut ScanCounts,
) -> Vec<(Timestamp, f64)> {
    // Rollups only answer their own bucket width and the aggregators whose
    // folds they replay; anything else is a plain raw downsample.
    if ds.interval != rollup_interval || !rollup_servable(ds.aggregator) {
        let (pts, q, c) = s.collect_counted(start, end);
        quarantine.merge(q);
        counts.merge(c);
        return downsample_points(&pts, ds, start, end, seed);
    }
    let (hits, skipped) = s.chunks_overlapping(start, end);
    counts.chunks_skipped += skipped;
    let open_span = s.open_span();
    // The open buffer's fold, built the first time a bucket needs it:
    // `Some(None)` when the buffer is out of order and cannot be folded.
    let mut head: Option<Option<Vec<RollupBucket>>> = None;
    // Per-call decode memo: a chunk is decoded (and, on failure,
    // quarantine-counted) at most once, matching the raw path's accounting.
    let mut memo: BTreeMap<usize, Option<Vec<(Timestamp, f64)>>> = BTreeMap::new();
    let mut in_bucket: Vec<usize> = Vec::new();
    let mut pts: Vec<(Timestamp, f64)> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    let mut out = Vec::new();
    let mut prev_value = seed;
    let mut bucket_start = start.align_down(ds.interval);
    while bucket_start < end {
        let bucket_end = bucket_start + ds.interval;
        let lo = bucket_start.max(start);
        let hi = bucket_end.min(end);
        in_bucket.clear();
        in_bucket.extend(
            hits.iter()
                .copied()
                .filter(|&i| s.sealed.get(i).is_some_and(|c| c.start < hi && c.end >= lo)),
        );
        let open_overlaps = open_span.is_some_and(|(omin, omax)| omin < hi && omax >= lo);
        let interior = bucket_start >= start && bucket_end <= end;
        // `Some(v)` = the bucket's aggregated value; `None` = empty bucket.
        let mut value: Option<f64> = None;
        let mut resolved = false;
        if interior {
            match (in_bucket.as_slice(), open_overlaps) {
                // No chunk and no open point can fall in the bucket.
                ([], false) => resolved = true,
                ([only], false) => {
                    if let Some(rollups) = s.sealed.get(*only).and_then(|c| c.rollups.as_ref()) {
                        resolved = true;
                        counts.rollup_buckets += 1;
                        value = find_bucket(rollups, bucket_start)
                            .and_then(|b| b.value_for(ds.aggregator));
                    }
                }
                // Only the open buffer can hold the bucket's points.
                ([], true) => {
                    let folded = head.get_or_insert_with(|| s.open_rollups(rollup_interval));
                    if let Some(folded) = folded.as_deref() {
                        resolved = true;
                        counts.rollup_buckets += 1;
                        value = find_bucket(folded, bucket_start)
                            .and_then(|b| b.value_for(ds.aggregator));
                    }
                }
                // Several owners (chunks from out-of-order seals, or a
                // chunk and the open buffer): only a merged decode
                // resolves duplicate timestamps.
                _ => {}
            }
        }
        if !resolved {
            counts.raw_buckets += 1;
            pts.clear();
            for &i in &in_bucket {
                let decoded = memo.entry(i).or_insert_with(|| match s.sealed.get(i) {
                    Some(sc) => match sc.chunk.decode() {
                        Ok(p) => {
                            counts.chunks_decoded += 1;
                            Some(p)
                        }
                        Err(_) => {
                            quarantine.chunks += 1;
                            quarantine.points += u64::from(sc.chunk.count());
                            None
                        }
                    },
                    None => None,
                });
                if let Some(p) = decoded {
                    pts.extend(p.iter().copied().filter(|&(t, _)| t >= lo && t < hi));
                }
            }
            if open_overlaps {
                pts.extend(s.open.iter().copied().filter(|&(t, _)| t >= lo && t < hi));
            }
            pts.sort_by_key(|&(t, _)| t);
            dedup_last_write_wins(&mut pts);
            if !pts.is_empty() {
                vals.clear();
                vals.extend(pts.iter().map(|&(_, v)| v));
                value = Some(ds.aggregator.apply(&vals));
            }
        }
        match value {
            Some(v) => {
                prev_value = Some(v);
                out.push((bucket_start, v));
            }
            None => match ds.fill {
                FillPolicy::None => {}
                FillPolicy::Zero => out.push((bucket_start, 0.0)),
                FillPolicy::Previous => {
                    if let Some(v) = prev_value {
                        out.push((bucket_start, v));
                    }
                }
            },
        }
        bucket_start = bucket_end;
    }
    out
}

/// Raw per-series points collected for one result group, before any rate /
/// downsample / cross-series aggregation. Each entry carries the canonical
/// series key so merges across shards aggregate in a shard-count-independent
/// order — the byte-identical-results guarantee of `ShardedTsdb`.
#[derive(Debug, Default, Clone)]
pub(crate) struct GroupCollection {
    /// `(canonical series key, points in [start, end))` — raw, or already
    /// downsampled when [`GroupCollection::downsampled`] is set.
    pub(crate) series: Vec<(String, Vec<(Timestamp, f64)>)>,
    /// Corruption skipped while reading this group.
    pub(crate) quarantine: crate::store::QuarantineReport,
    /// Scan accounting (index skips, decodes, rollup vs raw buckets).
    pub(crate) counts: ScanCounts,
    /// `series` holds collect-time downsampled buckets; finalize must not
    /// downsample again.
    pub(crate) downsampled: bool,
}

impl GroupCollection {
    /// Fold another shard's collection for the same group into this one.
    pub(crate) fn merge(&mut self, other: GroupCollection) {
        self.series.extend(other.series);
        self.quarantine.merge(other.quarantine);
        self.counts.merge(other.counts);
        self.downsampled |= other.downsampled;
    }
}

/// Phase 1 of query execution: match series against the filters, group by
/// the wildcard tags, and read each series' points. No cross-series
/// aggregation happens here, so collections from several shards can be
/// merged before [`finalize_groups`] aggregates — averaging averages would
/// be wrong.
///
/// Non-rate downsamples are applied here, per series (each series lives
/// wholly in one shard, so collect-time downsampling commutes with the
/// shard merge); with `use_rollups` they are answered from seal-time
/// rollups where possible. `FillPolicy::Previous` seeds its carry from the
/// last point preceding the range on both paths. Rate queries keep their
/// raw points (rate + downsample runs in finalize, unseeded: a pre-range
/// *rate* would need two pre-range points and is out of scope).
pub(crate) fn collect_groups(
    db: &Tsdb,
    q: &Query,
    use_rollups: bool,
) -> Result<BTreeMap<TagSet, GroupCollection>, TsdbError> {
    let matching: Vec<SeriesId> = db
        .series_for_metric(&q.metric)
        .iter()
        .copied()
        .filter(|&id| {
            q.filters.iter().all(|(k, f)| {
                db.tags(id)
                    .and_then(|tags| tags.get(k))
                    .map(|v| f.matches(v))
                    .unwrap_or(false)
            })
        })
        .collect();
    let group_keys: Vec<&String> = q
        .filters
        .iter()
        .filter(|(_, f)| matches!(f, TagFilter::Wildcard))
        .map(|(k, _)| k)
        .collect();
    let mut groups: BTreeMap<TagSet, GroupCollection> = BTreeMap::new();
    for id in matching {
        let mut group = TagSet::new();
        for &k in &group_keys {
            if let Some(v) = db.tags(id).and_then(|tags| tags.get(k)) {
                group.insert(k.clone(), v.clone());
            }
        }
        let key = match (db.metric(id), db.tags(id)) {
            (Some(metric), Some(tags)) => crate::model::series_key(metric, tags),
            _ => continue, // unreachable: id came from the metric index
        };
        let Some(series) = db.series.get(id.0 as usize) else {
            continue; // unreachable: id came from the metric index
        };
        let entry = groups.entry(group).or_default();
        match q.downsample {
            Some(ds) if !q.rate => {
                let seed = if ds.fill == FillPolicy::Previous {
                    series.last_value_before(q.start)
                } else {
                    None
                };
                let pts = if use_rollups {
                    serve_downsample_series(
                        series,
                        q.start,
                        q.end,
                        ds,
                        db.rollup_interval(),
                        seed,
                        &mut entry.quarantine,
                        &mut entry.counts,
                    )
                } else {
                    let (raw, skipped, c) = series.collect_counted(q.start, q.end);
                    entry.quarantine.merge(skipped);
                    entry.counts.merge(c);
                    downsample_points(&raw, ds, q.start, q.end, seed)
                };
                entry.downsampled = true;
                entry.series.push((key, pts));
            }
            _ => {
                let (pts, skipped, c) = series.collect_counted(q.start, q.end);
                entry.quarantine.merge(skipped);
                entry.counts.merge(c);
                entry.series.push((key, pts));
            }
        }
    }
    Ok(groups)
}

/// Phase 2 of query execution: per-series rate + downsample (unless
/// already downsampled at collect time), then cross-series aggregation per
/// group. Series are processed in canonical key order, so the result is
/// independent of insertion (and shard) order.
pub(crate) fn finalize_groups(
    groups: BTreeMap<TagSet, GroupCollection>,
    q: &Query,
) -> Vec<QueryResult> {
    let mut results = Vec::with_capacity(groups.len());
    for (group, mut coll) in groups {
        coll.series.sort_by(|a, b| a.0.cmp(&b.0));
        let source_series = coll.series.len();
        let downsampled = coll.downsampled;
        let mut per_series: Vec<Vec<(Timestamp, f64)>> = Vec::with_capacity(source_series);
        for (_, mut pts) in coll.series {
            if !downsampled {
                if q.rate {
                    pts = to_rate(&pts);
                }
                if let Some(ds) = q.downsample {
                    pts = downsample_points(&pts, ds, q.start, q.end, None);
                }
            }
            per_series.push(pts);
        }
        let series = OutSeries::from_points(merge_series(per_series, q.aggregator));
        results.push(QueryResult {
            group,
            series,
            source_series,
            quarantined_chunks: coll.quarantine.chunks,
            quarantined_points: coll.quarantine.points,
        });
    }
    results
}

/// Cross-series aggregation: one point per distinct timestamp, the
/// values sharing it folded through `agg` in series order (the caller
/// passes series in canonical key order).
///
/// A stable sort of the concatenated series keeps, within each timestamp,
/// exactly that order, so every fold sees the same values in the same
/// order as a per-timestamp map would hand it. Each series is sorted and
/// holds a timestamp at most once, so the sort merges presorted runs, and
/// a lone series is already one value per timestamp.
fn merge_series(
    mut per_series: Vec<Vec<(Timestamp, f64)>>,
    agg: Aggregator,
) -> Vec<(Timestamp, f64)> {
    if let [only] = per_series.as_mut_slice() {
        // Skip the fold where a one-value fold is the value bit for bit:
        // `First`/`Last` always, `Avg`/`Sum`/`Min`/`Max` unless a value is
        // NaN (`f64::min(+∞, NaN)` is +∞). `Count`, `Dev`, `Median` and
        // `P95` always fold, so one matching series answers as many would.
        let identity = match agg {
            Aggregator::First | Aggregator::Last => true,
            Aggregator::Avg | Aggregator::Sum | Aggregator::Min | Aggregator::Max => {
                only.iter().all(|&(_, v)| !v.is_nan())
            }
            Aggregator::Count | Aggregator::Median | Aggregator::P95 | Aggregator::Dev => false,
        };
        if !identity {
            for p in only.iter_mut() {
                p.1 = agg.apply(std::slice::from_ref(&p.1));
            }
        }
        return std::mem::take(only);
    }
    // At least as many timestamps as the longest series holds.
    let mut out = Vec::with_capacity(per_series.iter().map(Vec::len).max().unwrap_or(0));
    let mut all: Vec<(Timestamp, f64)> = Vec::with_capacity(per_series.iter().map(Vec::len).sum());
    for pts in per_series {
        all.extend(pts);
    }
    all.sort_by_key(|&(t, _)| t);
    let mut vals: Vec<f64> = Vec::new();
    for run in all.chunk_by(|a, b| a.0 == b.0) {
        vals.clear();
        vals.extend(run.iter().map(|&(_, v)| v));
        if let Some(&(t, _)) = run.first() {
            out.push((t, agg.apply(&vals)));
        }
    }
    out
}

/// Execute a query through the full serving stack (block index + seal-time
/// rollups). Storage corruption does not fail the query: corrupt chunks
/// are quarantined and surfaced in the per-group quarantine counts. An
/// unmatched metric or filter is an empty result set, not an error.
pub fn execute(db: &Tsdb, q: &Query) -> Result<Vec<QueryResult>, TsdbError> {
    Ok(finalize_groups(collect_groups(db, q, true)?, q))
}

/// Execute a query strictly by decoding raw chunks — the reference path
/// the serving stack must match byte for byte. Used by the equivalence
/// suite and the before/after benchmarks.
pub fn execute_raw(db: &Tsdb, q: &Query) -> Result<Vec<QueryResult>, TsdbError> {
    Ok(finalize_groups(collect_groups(db, q, false)?, q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DataPoint;
    use proptest::prelude::*;

    const ALL_AGGREGATORS: [Aggregator; 10] = [
        Aggregator::Avg,
        Aggregator::Sum,
        Aggregator::Min,
        Aggregator::Max,
        Aggregator::Count,
        Aggregator::First,
        Aggregator::Last,
        Aggregator::Median,
        Aggregator::P95,
        Aggregator::Dev,
    ];

    fn bits(points: &[(Timestamp, f64)]) -> Vec<(i64, u64)> {
        points.iter().map(|&(t, v)| (t.0, v.to_bits())).collect()
    }

    /// The reference cross-series merge — a per-timestamp map of value
    /// lists — that [`merge_series`] must match bit for bit.
    fn merge_series_oracle(
        per_series: Vec<Vec<(Timestamp, f64)>>,
        agg: Aggregator,
    ) -> Vec<(Timestamp, f64)> {
        let mut merged: BTreeMap<Timestamp, Vec<f64>> = BTreeMap::new();
        for pts in per_series {
            for (t, v) in pts {
                merged.entry(t).or_default().push(v);
            }
        }
        merged
            .into_iter()
            .map(|(t, vals)| (t, agg.apply(&vals)))
            .collect()
    }

    /// Values whose folds are sign-, order- or NaN-sensitive.
    fn palette(k: u8) -> f64 {
        match k {
            0 => 0.0,
            1 => -0.0,
            2 => 1.5,
            3 => -2.25,
            4 => 1e300,
            5 => f64::INFINITY,
            6 => f64::NAN,
            7 => f64::from_bits(0x7ff0_0000_0000_0001), // signaling NaN
            _ => 0.1,
        }
    }

    proptest! {
        /// 1–16 series with shared timestamps: the sort-merge folds every
        /// timestamp's values in the order the map merge did, bit for bit,
        /// under every aggregator — the lone-series shortcut included.
        #[test]
        fn sort_merge_matches_the_map_merge_bit_for_bit(
            series in collection::vec(collection::vec((0i64..24, 0u8..9), 0..24), 1..17),
        ) {
            // Each series arrives sorted with unique timestamps, as
            // collect, downsample and rate hand it over.
            let per_series: Vec<Vec<(Timestamp, f64)>> = series
                .into_iter()
                .map(|pts| {
                    let unique: BTreeMap<i64, u8> = pts.into_iter().collect();
                    unique.into_iter().map(|(t, k)| (Timestamp(t * 300), palette(k))).collect()
                })
                .collect();
            for agg in ALL_AGGREGATORS {
                let got = merge_series(per_series.clone(), agg);
                let want = merge_series_oracle(per_series.clone(), agg);
                prop_assert_eq!(bits(&got), bits(&want), "{}", agg);
            }
        }
    }

    #[test]
    fn a_lone_series_is_aggregated_like_many() {
        // One matching series: each timestamp's single value still goes
        // through the cross-series aggregator, as it does when other
        // series match at other timestamps (Count is 1, Dev is 0, and
        // Median of -0.0 is 0.0).
        let mut db = Tsdb::new();
        let values = [0.0, -0.0, 2.0];
        for (i, v) in values.into_iter().enumerate() {
            db.put(&dp("co2", "n1", "trd", i as i64 * 300, v));
        }
        for agg in ALL_AGGREGATORS {
            let q = Query::range("co2", Timestamp(0), Timestamp(900))
                .with_tag("device", "n1")
                .aggregate(agg);
            let rs = execute(&db, &q).unwrap();
            let want: Vec<(Timestamp, f64)> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| (Timestamp(i as i64 * 300), agg.apply(&[v])))
                .collect();
            assert_eq!(bits(&rs[0].series.points), bits(&want), "{agg}");
        }
    }

    fn dp(metric: &str, device: &str, city: &str, t: i64, v: f64) -> DataPoint {
        DataPoint::new(
            metric,
            vec![
                ("device".to_string(), device.to_string()),
                ("city".to_string(), city.to_string()),
            ],
            Timestamp(t),
            v,
        )
        .unwrap()
    }

    fn sample_db() -> Tsdb {
        let mut db = Tsdb::new();
        for i in 0..12 {
            db.put(&dp("co2", "n1", "trd", i * 300, 400.0 + i as f64));
            db.put(&dp("co2", "n2", "trd", i * 300, 500.0 + i as f64));
            db.put(&dp("co2", "n3", "vejle", i * 300, 600.0 + i as f64));
        }
        db
    }

    #[test]
    fn aggregator_functions() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(Aggregator::Avg.apply(&v), 2.5);
        assert_eq!(Aggregator::Sum.apply(&v), 10.0);
        assert_eq!(Aggregator::Min.apply(&v), 1.0);
        assert_eq!(Aggregator::Max.apply(&v), 4.0);
        assert_eq!(Aggregator::Count.apply(&v), 4.0);
        assert_eq!(Aggregator::First.apply(&v), 4.0);
        assert_eq!(Aggregator::Last.apply(&v), 2.0);
        // Linear interpolation (same definition as ctt-analytics quantile).
        assert_eq!(Aggregator::Median.apply(&v), 2.5);
        assert!((Aggregator::P95.apply(&v) - 3.85).abs() < 1e-12);
        let dev = Aggregator::Dev.apply(&v);
        assert!((dev - 1.29099).abs() < 1e-4);
        assert_eq!(Aggregator::Dev.apply(&[5.0]), 0.0);
    }

    #[test]
    fn empty_slice_yields_nan_not_infinity() {
        for agg in [
            Aggregator::Avg,
            Aggregator::Sum,
            Aggregator::Min,
            Aggregator::Max,
            Aggregator::First,
            Aggregator::Last,
            Aggregator::Median,
            Aggregator::P95,
            Aggregator::Dev,
        ] {
            let v = agg.apply(&[]);
            assert!(v.is_nan(), "{agg}([]) = {v}, want NaN");
        }
        assert_eq!(Aggregator::Count.apply(&[]), 0.0);
    }

    #[test]
    fn rate_collapses_colliding_samples_last_write_wins() {
        // A duplicate timestamp: the newer value (20) must feed the next
        // interval's rate instead of being silently dropped.
        let pts = vec![
            (Timestamp(0), 0.0),
            (Timestamp(100), 10.0),
            (Timestamp(100), 20.0),
            (Timestamp(200), 30.0),
        ];
        let rates = to_rate(&pts);
        assert_eq!(
            rates,
            vec![(Timestamp(100), 0.2), (Timestamp(200), 0.1)],
            "collision must collapse last-write-wins, not vanish"
        );
    }

    #[test]
    fn aggregator_parse_display_roundtrip() {
        for name in [
            "avg", "sum", "min", "max", "count", "first", "last", "median", "p95", "dev",
        ] {
            let a = Aggregator::parse(name).unwrap();
            let shown = a.to_string();
            assert_eq!(Aggregator::parse(&shown), Some(a));
        }
        assert_eq!(Aggregator::parse("bogus"), None);
    }

    #[test]
    fn downsample_parse() {
        let ds = Downsample::parse("1h-avg").unwrap();
        assert_eq!(ds.interval, Span::hours(1));
        assert_eq!(ds.aggregator, Aggregator::Avg);
        assert_eq!(
            Downsample::parse("15m-max").unwrap().interval,
            Span::minutes(15)
        );
        assert!(Downsample::parse("nope").is_none());
        assert!(Downsample::parse("1x-avg").is_none());
        assert!(Downsample::parse("1h-bogus").is_none());
    }

    #[test]
    fn single_series_query() {
        let db = sample_db();
        let q = Query::range("co2", Timestamp(0), Timestamp(3600)).with_tag("device", "n1");
        let rs = execute(&db, &q).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].source_series, 1);
        assert_eq!(rs[0].series.len(), 12);
        assert_eq!(rs[0].series.points[0], (Timestamp(0), 400.0));
    }

    #[test]
    fn cross_series_average() {
        let db = sample_db();
        let q = Query::range("co2", Timestamp(0), Timestamp(3600)).with_tag("city", "trd");
        let rs = execute(&db, &q).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].source_series, 2);
        // avg(400, 500) = 450 at t=0.
        assert_eq!(rs[0].series.points[0], (Timestamp(0), 450.0));
    }

    #[test]
    fn group_by_device() {
        let db = sample_db();
        let q = Query::range("co2", Timestamp(0), Timestamp(3600)).group_by("device");
        let rs = execute(&db, &q).unwrap();
        assert_eq!(rs.len(), 3);
        let groups: Vec<String> = rs
            .iter()
            .map(|r| r.group.get("device").unwrap().clone())
            .collect();
        assert_eq!(groups, vec!["n1", "n2", "n3"]);
    }

    #[test]
    fn filter_and_group_compose() {
        let db = sample_db();
        let q = Query::range("co2", Timestamp(0), Timestamp(3600))
            .with_tag("city", "trd")
            .group_by("device");
        let rs = execute(&db, &q).unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn one_of_filter() {
        let db = sample_db();
        let mut q = Query::range("co2", Timestamp(0), Timestamp(3600));
        q.filters.insert(
            "device".to_string(),
            TagFilter::OneOf(vec!["n1".to_string(), "n3".to_string()]),
        );
        let rs = execute(&db, &q).unwrap();
        assert_eq!(rs[0].source_series, 2);
    }

    #[test]
    fn downsample_avg_buckets() {
        let db = sample_db();
        let q = Query::range("co2", Timestamp(0), Timestamp(3600))
            .with_tag("device", "n1")
            .downsample(Downsample {
                interval: Span::minutes(15),
                aggregator: Aggregator::Avg,
                fill: FillPolicy::None,
            });
        let rs = execute(&db, &q).unwrap();
        // 12 points over 60 min → 4 buckets of 3.
        assert_eq!(rs[0].series.len(), 4);
        // First bucket: avg(400,401,402) = 401.
        assert_eq!(rs[0].series.points[0], (Timestamp(0), 401.0));
        assert_eq!(rs[0].series.points[1].0, Timestamp(900));
    }

    #[test]
    fn downsample_fill_policies() {
        let pts = vec![(Timestamp(0), 1.0), (Timestamp(2000), 5.0)];
        let mk = |fill| Downsample {
            interval: Span::seconds(1000),
            aggregator: Aggregator::Avg,
            fill,
        };
        let none = downsample_points(
            &pts,
            mk(FillPolicy::None),
            Timestamp(0),
            Timestamp(3000),
            None,
        );
        assert_eq!(none.len(), 2);
        let zero = downsample_points(
            &pts,
            mk(FillPolicy::Zero),
            Timestamp(0),
            Timestamp(3000),
            None,
        );
        assert_eq!(
            zero,
            vec![
                (Timestamp(0), 1.0),
                (Timestamp(1000), 0.0),
                (Timestamp(2000), 5.0)
            ]
        );
        let prev = downsample_points(
            &pts,
            mk(FillPolicy::Previous),
            Timestamp(0),
            Timestamp(3000),
            None,
        );
        assert_eq!(prev[1], (Timestamp(1000), 1.0));
    }

    #[test]
    fn previous_fill_seeded_from_pre_range_value() {
        // Points end before the queried range begins; the carry must seed
        // from the last pre-range value instead of emitting nothing.
        let pts: Vec<(Timestamp, f64)> = vec![];
        let ds = Downsample {
            interval: Span::seconds(1000),
            aggregator: Aggregator::Avg,
            fill: FillPolicy::Previous,
        };
        let unseeded = downsample_points(&pts, ds, Timestamp(0), Timestamp(3000), None);
        assert!(unseeded.is_empty(), "no seed, no carry: {unseeded:?}");
        let seeded = downsample_points(&pts, ds, Timestamp(0), Timestamp(3000), Some(7.5));
        assert_eq!(
            seeded,
            vec![
                (Timestamp(0), 7.5),
                (Timestamp(1000), 7.5),
                (Timestamp(2000), 7.5)
            ]
        );
        // A real bucket overrides the seed and becomes the new carry.
        let pts = vec![(Timestamp(1500), 2.0)];
        let mixed = downsample_points(&pts, ds, Timestamp(0), Timestamp(3000), Some(7.5));
        assert_eq!(
            mixed,
            vec![
                (Timestamp(0), 7.5),
                (Timestamp(1000), 2.0),
                (Timestamp(2000), 2.0)
            ]
        );
    }

    #[test]
    fn previous_fill_seeds_through_execute() {
        let mut db = Tsdb::with_layout(4, Span::seconds(1000));
        // Data only before t=2000; query [2000, 5000) with Previous fill.
        for i in 0..6 {
            db.put(&dp("co2", "n1", "trd", i * 300, 400.0 + i as f64));
        }
        let q = Query::range("co2", Timestamp(2000), Timestamp(5000))
            .with_tag("device", "n1")
            .downsample(Downsample {
                interval: Span::seconds(1000),
                aggregator: Aggregator::Last,
                fill: FillPolicy::Previous,
            });
        let rs = execute(&db, &q).unwrap();
        // Last pre-range point is (1500, 405): every empty bucket carries it.
        assert_eq!(
            rs[0].series.points,
            vec![
                (Timestamp(2000), 405.0),
                (Timestamp(3000), 405.0),
                (Timestamp(4000), 405.0)
            ]
        );
        // The raw reference path agrees byte for byte.
        assert_eq!(execute_raw(&db, &q).unwrap(), rs);
    }

    #[test]
    fn previous_fill_seed_negative_timestamps() {
        let mut db = Tsdb::with_layout(4, Span::seconds(600));
        // Pre-epoch data; align_down must bucket negatives correctly.
        db.put(&dp("co2", "n1", "trd", -3000, 1.0));
        db.put(&dp("co2", "n1", "trd", -2500, 2.0));
        let q = Query::range("co2", Timestamp(-1800), Timestamp(0))
            .with_tag("device", "n1")
            .downsample(Downsample {
                interval: Span::seconds(600),
                aggregator: Aggregator::Avg,
                fill: FillPolicy::Previous,
            });
        let rs = execute(&db, &q).unwrap();
        assert_eq!(
            rs[0].series.points,
            vec![
                (Timestamp(-1800), 2.0),
                (Timestamp(-1200), 2.0),
                (Timestamp(-600), 2.0)
            ],
            "pre-epoch buckets must align via div_euclid and carry the seed"
        );
        assert_eq!(execute_raw(&db, &q).unwrap(), rs);
    }

    #[test]
    fn rate_conversion() {
        let mut db = Tsdb::new();
        // A counter increasing 60 per 300 s → rate 0.2/s.
        for i in 0..5 {
            db.put(&dp("ctr", "n1", "trd", i * 300, i as f64 * 60.0));
        }
        let q = Query::range("ctr", Timestamp(0), Timestamp(3000))
            .with_tag("device", "n1")
            .as_rate();
        let rs = execute(&db, &q).unwrap();
        assert_eq!(rs[0].series.len(), 4);
        for &(_, v) in &rs[0].series.points {
            assert!((v - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_results() {
        let db = sample_db();
        let q = Query::range("nope", Timestamp(0), Timestamp(3600));
        assert!(execute(&db, &q).unwrap().is_empty());
        let q = Query::range("co2", Timestamp(0), Timestamp(3600)).with_tag("device", "nope");
        assert!(execute(&db, &q).unwrap().is_empty());
    }

    #[test]
    fn filter_requires_tag_presence() {
        let mut db = sample_db();
        // A series without the "city" tag.
        db.put(
            &DataPoint::new(
                "co2",
                vec![("device".to_string(), "n9".to_string())],
                Timestamp(0),
                1.0,
            )
            .unwrap(),
        );
        let q = Query::range("co2", Timestamp(0), Timestamp(3600)).group_by("city");
        let rs = execute(&db, &q).unwrap();
        // n9 has no city tag: excluded by the wildcard filter.
        let total: usize = rs.iter().map(|r| r.source_series).sum();
        assert_eq!(total, 3);
    }
}
