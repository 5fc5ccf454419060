//! Query engine: tag filtering, group-by, downsampling, aggregation, rate.
//!
//! Mirrors the OpenTSDB query surface the Zeppelin dashboards use (§2.4):
//! a query names a metric, tag filters (exact / `*` / `a|b`), a time range,
//! an optional downsample (`interval-aggregator`, e.g. `1h-avg`), and a
//! cross-series aggregator. Wildcarded tag keys become group-by dimensions,
//! so `device=*` yields one result series per device.

use crate::model::{TagFilter, TagSet};
use crate::rollup::{offset_of, rollup_servable, BlockColumns, RollupBucket};
use crate::store::{dedup_last_write_wins, ScanCounts, SealedChunk, Series, SeriesId, Tsdb};
use ctt_core::measurement::Series as OutSeries;
use ctt_core::stats::quantile;
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
            Aggregator::Min => values.iter().copied().fold(f64::INFINITY, min_step),
            Aggregator::Max => values.iter().copied().fold(f64::NEG_INFINITY, max_step),
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

/// One step of the `Min` fold: `v` replaces `acc` only when strictly
/// lower. From a `+∞` seed this is the `f64::min` fold — a NaN never wins
/// — with its open case closed: of two equal values (`0.0` and `-0.0`) the
/// one met first stays. `f64::min` may return either, and a release build
/// answered differently in the raw fold and in the rollup's.
pub(crate) fn min_step(acc: f64, v: f64) -> f64 {
    if v < acc {
        v
    } else {
        acc
    }
}

/// One step of the `Max` fold, as [`min_step`]: `v` replaces `acc` only
/// when strictly higher.
pub(crate) fn max_step(acc: f64, v: f64) -> f64 {
    if v > acc {
        v
    } else {
        acc
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

/// [`ctt_core::stats::quantile`], the one sample-quantile definition, with
/// an empty slice as NaN (a query row must hold some `f64`). The analytics
/// layer re-exports the same function, so a P95 computed in a query equals
/// the P95 computed in figures bit for bit; `tests/percentile_agreement.rs`
/// pins that.
fn percentile(values: &[f64], p: f64) -> f64 {
    quantile(values, p).unwrap_or(f64::NAN)
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

/// A downsample's output as it is emitted, bucket by bucket in time order
/// on the grid `grid + k·interval`: a bucket's value, which becomes the
/// [`FillPolicy::Previous`] carry, or for an empty bucket what the fill
/// policy puts there.
struct Emitter {
    out: Vec<(Timestamp, f64)>,
    carry: Option<f64>,
    fill: FillPolicy,
    grid: Timestamp,
    interval: Span,
}

impl Emitter {
    /// An emitter for `[start, end)`, its carry seeded with `seed`. The
    /// output has room for one point per bucket, but under
    /// [`FillPolicy::None`] for no more than `points`, since only a bucket
    /// holding a point is emitted. The room is reserved fallibly: a window
    /// too wide to reserve grows as it fills instead.
    fn new(
        ds: Downsample,
        start: Timestamp,
        end: Timestamp,
        seed: Option<f64>,
        points: u64,
    ) -> Self {
        let grid = start.align_down(ds.interval);
        let width = ds.interval.as_seconds();
        let span = end.0.saturating_sub(grid.0).max(0);
        let mut buckets = span / width + i64::from(span % width != 0);
        if ds.fill == FillPolicy::None {
            buckets = buckets.min(i64::try_from(points).unwrap_or(i64::MAX));
        }
        let mut out = Vec::new();
        let _ = out.try_reserve_exact(usize::try_from(buckets).unwrap_or(0));
        Emitter {
            out,
            carry: seed,
            fill: ds.fill,
            grid,
            interval: ds.interval,
        }
    }

    /// Emit the bucket starting at `bucket_start`: `Some` its value, `None`
    /// empty.
    fn push(&mut self, bucket_start: Timestamp, value: Option<f64>) {
        let filled = match (value, self.fill) {
            (Some(v), _) => {
                self.carry = Some(v);
                Some(v)
            }
            (None, FillPolicy::None) => None,
            (None, FillPolicy::Zero) => Some(0.0),
            (None, FillPolicy::Previous) => self.carry,
        };
        if let Some(v) = filled {
            self.out.push((bucket_start, v));
        }
    }

    /// The start of bucket `k`.
    fn start_of(&self, k: i64) -> Timestamp {
        Timestamp(self.grid.0 + k * self.interval.as_seconds())
    }

    /// Emit buckets `from..to` as empty: nothing under [`FillPolicy::None`].
    fn empty(&mut self, from: i64, to: i64) {
        if self.fill != FillPolicy::None {
            for k in from..to {
                self.push(self.start_of(k), None);
            }
        }
    }
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
    if points.is_empty() && ds.fill == FillPolicy::None {
        return Vec::new();
    }
    let mut emitter = Emitter::new(ds, start, end, seed, points.len() as u64);
    let mut bucket_start = emitter.grid;
    let mut idx = 0usize;
    // One buffer for every bucket's values.
    let mut vals = Vec::new();
    while bucket_start < end {
        let bucket_end = bucket_start + ds.interval;
        vals.clear();
        while let Some(&(t, v)) = points.get(idx) {
            if t >= bucket_end {
                break;
            }
            if t >= bucket_start {
                vals.push(v);
            }
            idx += 1;
        }
        let value = (!vals.is_empty()).then(|| ds.aggregator.apply(&vals));
        emitter.push(bucket_start, value);
        bucket_start = bucket_end;
    }
    emitter.out
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

/// A sealed chunk that meets the current bucket of
/// [`serve_downsample_series`]'s walk.
struct Owner<'a> {
    /// Position in `Series::sealed`: seal order.
    pos: usize,
    chunk: &'a SealedChunk,
    /// Decoded the first time a raw bucket needs it: its points, or `None`
    /// when it did not decode (quarantined once).
    points: Option<Option<Vec<(Timestamp, f64)>>>,
}

/// How the walk serves a run of interior buckets without a decode.
enum Fold {
    /// No chunk and no open point can fall in them.
    Empty,
    /// The loaded block of their one owner, a sealed chunk.
    Block(Option<i64>),
    /// The open buffer's fold: they meet only the open buffer.
    Head(Option<i64>),
}

/// Emit buckets `k..run_end` from a fold whose `i`-th bucket sits at
/// `offset(i)` (ascending) and holds `value(i)`, placed so that its offset
/// of bucket 0 is `placed` (`None`: off the grid, so every bucket is
/// empty). A bucket the fold holds gets its value and every other one is
/// empty. `at` is the walk's cursor into the fold, which only moves
/// forward.
fn emit_run(
    emitter: &mut Emitter,
    at: &mut usize,
    placed: Option<i64>,
    (k, run_end): (i64, i64),
    offset: impl Fn(usize) -> Option<u32>,
    value: impl Fn(usize) -> Option<f64>,
) {
    let mut next = k;
    if let Some(p) = placed {
        let (from, to) = (p.saturating_add(k), p.saturating_add(run_end));
        while let Some(o) = offset(*at).map(i64::from).filter(|&o| o < to) {
            if o >= from {
                let j = o - p;
                emitter.empty(next, j);
                emitter.push(emitter.start_of(j), value(*at));
                next = j + 1;
            }
            *at += 1;
        }
    }
    emitter.empty(next, run_end);
}

/// Serve one series' downsample over `[start, end)` in one forward walk
/// over the window's bucket grid, answering from a fold wherever a bucket
/// is provably owned by one: the seal-time rollup block of the single
/// sealed chunk that meets it (decoded once per chunk into `columns`,
/// which the caller reuses across series), or — for a bucket only the open
/// buffer meets — that buffer folded once per call by the fold a seal
/// encodes (when the buffer is strictly time-ordered; see
/// [`Series::open_rollups`]). Everywhere else it decodes raw points, each
/// chunk at most once. The output is bit-identical to
/// `downsample_points(collect(start, end), ...)`: fold values replay the
/// raw aggregator folds exactly (see [`crate::rollup`]), and every bucket
/// no fold can prove — or whose block does not decode — goes through the
/// same decode → sort → dedup → aggregate sequence the raw path uses.
///
/// The walk admits sealed chunks in block-index order as the buckets reach
/// their start and retires each once the buckets pass its end, so a
/// bucket's owners are at hand without a search. Owners change only where
/// a chunk starts or ends or the open buffer's span does, so a bucket a
/// fold serves is the first of a run the same fold serves up to the next
/// such change: the run is emitted in one pass over the fold's offsets
/// from a cursor, which makes each bucket O(1) amortized.
#[allow(clippy::too_many_arguments)]
fn serve_downsample_series(
    s: &Series,
    start: Timestamp,
    end: Timestamp,
    ds: Downsample,
    rollup_interval: Span,
    seed: Option<f64>,
    columns: &mut BlockColumns,
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
    let agg = ds.aggregator;
    let width = ds.interval.as_seconds();
    let open_span = s.open_span();
    let mut emitter = Emitter::new(ds, start, end, seed, s.points());
    // Bucket `k` of the walk starts `k` intervals after `grid`. A rollup
    // fold's offsets count from its own base, so each fold is placed on
    // this grid once (`offset_of`, one division) and bucket `k` is then its
    // offset `placed + k`: no division per bucket.
    let grid = emitter.grid;
    let place = |base: Timestamp| offset_of(base, rollup_interval, grid);
    // The bucket holding `t`, for `t` at or after `grid`; a run bound, so
    // saturating far out is harmless.
    let bucket_of = |t: Timestamp| t.0.saturating_sub(grid.0) / width;
    // Buckets `0..interior_end` end by `end`.
    let interior_end = bucket_of(end);
    // Chunks not yet admitted, and how many were.
    let mut pending = s.chunks_meeting(start, end).peekable();
    let mut admitted = 0usize;
    // The chunks meeting the current bucket, in seal order.
    let mut owners: Vec<Owner<'_>> = Vec::new();
    // The sealed chunk whose block `columns` holds, and its placement:
    // `None` when the block did not decode. A chunk's buckets are
    // contiguous in the walk, so each block is decoded at most once.
    let mut loaded: Option<(usize, Option<Option<i64>>)> = None;
    let mut column_at = 0usize;
    // The open buffer's fold and its placement, built the first time a
    // bucket needs it: `Some(None)` when the buffer is out of order and
    // cannot be folded.
    let mut head: Option<Option<(Option<i64>, Vec<RollupBucket>)>> = None;
    let mut head_at = 0usize;
    let mut pts: Vec<(Timestamp, f64)> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    let mut bucket_start = grid;
    let mut k = 0i64;
    while bucket_start < end {
        let bucket_end = bucket_start + ds.interval;
        let lo = bucket_start.max(start);
        let hi = bucket_end.min(end);
        while let Some((pos, chunk)) = pending.next_if(|(_, c)| c.start < hi) {
            admitted += 1;
            let at = owners.partition_point(|o| o.pos < pos);
            owners.insert(
                at,
                Owner {
                    pos,
                    chunk,
                    points: None,
                },
            );
        }
        owners.retain(|o| o.chunk.end >= lo);
        let open_overlaps = open_span.is_some_and(|(omin, omax)| omin < hi && omax >= lo);
        let interior = bucket_start >= start && bucket_end <= end;
        let fold = match (interior, owners.as_slice(), open_overlaps) {
            (false, ..) => None,
            (true, [], false) => Some(Fold::Empty),
            (true, [only], false) => only.chunk.rollups.as_ref().and_then(|block| {
                let placed = match loaded {
                    Some((pos, placed)) if pos == only.pos => placed,
                    _ => {
                        let placed = columns
                            .load(block, agg)
                            .then(|| place(only.chunk.start.align_down(rollup_interval)));
                        loaded = Some((only.pos, placed));
                        column_at = 0;
                        placed
                    }
                };
                placed.map(Fold::Block)
            }),
            (true, [], true) => head
                .get_or_insert_with(|| {
                    s.open_rollups(rollup_interval)
                        .map(|(base, folded)| (place(base), folded))
                })
                .as_ref()
                .map(|(placed, _)| Fold::Head(*placed)),
            // Several owners (chunks from out-of-order seals, or a chunk
            // and the open buffer): only a merged decode resolves
            // duplicate timestamps.
            (true, ..) => None,
        };
        let Some(fold) = fold else {
            counts.raw_buckets += 1;
            pts.clear();
            for o in &mut owners {
                let decoded = o
                    .points
                    .get_or_insert_with(|| match o.chunk.chunk.decode() {
                        Ok(p) => {
                            counts.chunks_decoded += 1;
                            Some(p)
                        }
                        Err(_) => {
                            quarantine.chunks += 1;
                            quarantine.points += u64::from(o.chunk.chunk.count());
                            None
                        }
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
            let value = (!pts.is_empty()).then(|| {
                vals.clear();
                vals.extend(pts.iter().map(|&(_, v)| v));
                agg.apply(&vals)
            });
            emitter.push(bucket_start, value);
            bucket_start = bucket_end;
            k += 1;
            continue;
        };
        // The run this fold serves ends at the window's last interior
        // bucket, or where a chunk arrives, an owner leaves, or the open
        // buffer starts or stops meeting the buckets. Each bound lies past
        // bucket `k`, which this fold serves.
        let mut run_end = interior_end;
        if let Some((_, next)) = pending.peek() {
            run_end = run_end.min(bucket_of(next.start));
        }
        for o in &owners {
            run_end = run_end.min(bucket_of(o.chunk.end).saturating_add(1));
        }
        if let Some((omin, omax)) = open_span {
            if open_overlaps {
                run_end = run_end.min(bucket_of(omax).saturating_add(1));
            } else if omax >= lo {
                run_end = run_end.min(bucket_of(omin));
            }
        }
        let run = (k, run_end);
        match fold {
            Fold::Empty => emitter.empty(k, run_end),
            Fold::Block(placed) => {
                counts.rollup_buckets += (run_end - k) as u64;
                let columns = &*columns;
                let offset = |i| columns.offset(i);
                let value = |i| columns.value(i, agg);
                emit_run(&mut emitter, &mut column_at, placed, run, offset, value);
            }
            Fold::Head(placed) => {
                counts.rollup_buckets += (run_end - k) as u64;
                let folded = head.as_ref().and_then(Option::as_ref);
                let folded = folded.map(|(_, f)| f.as_slice()).unwrap_or_default();
                let offset = |i| folded.get(i).map(|b: &RollupBucket| b.offset);
                let value = |i| folded.get(i).and_then(|b: &RollupBucket| b.value_for(agg));
                emit_run(&mut emitter, &mut head_at, placed, run, offset, value);
            }
        }
        bucket_start = emitter.start_of(run_end);
        k = run_end;
    }
    // Every chunk the walk never admitted was excluded by the block index.
    admitted += pending.count();
    counts.chunks_skipped += s.sealed.len().saturating_sub(admitted) as u64;
    emitter.out
}

/// Raw per-series points collected for one result group, before any rate /
/// downsample / cross-series aggregation.
#[derive(Debug, Default)]
struct GroupCollection {
    /// `(canonical series key, points in [start, end))` — raw, or already
    /// downsampled when the query downsamples without rate (see
    /// [`collect_groups`]).
    series: Vec<(String, Vec<(Timestamp, f64)>)>,
    /// Corruption skipped while reading this group.
    quarantine: crate::store::QuarantineReport,
}

/// Phase 1 of query execution: match series against the filters, group by
/// the wildcard tags, and read each series' points, adding the scan work to
/// `counts`. No cross-series aggregation happens here; [`finalize_groups`]
/// does it once per group.
///
/// Non-rate downsamples are applied here, per series; with `use_rollups`
/// they are answered from seal-time rollups where possible.
/// `FillPolicy::Previous` seeds its carry from the last point preceding
/// the range on both paths. Rate queries keep their raw points (rate +
/// downsample runs in finalize, unseeded: a pre-range *rate* would need two
/// pre-range points and is out of scope).
fn collect_groups(
    db: &Tsdb,
    q: &Query,
    use_rollups: bool,
    counts: &mut ScanCounts,
) -> BTreeMap<TagSet, GroupCollection> {
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
    let mut columns = BlockColumns::default();
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
                        &mut columns,
                        &mut entry.quarantine,
                        counts,
                    )
                } else {
                    let (raw, skipped, c) = series.collect_counted(q.start, q.end);
                    entry.quarantine.merge(skipped);
                    counts.merge(c);
                    downsample_points(&raw, ds, q.start, q.end, seed)
                };
                entry.series.push((key, pts));
            }
            _ => {
                let (pts, skipped, c) = series.collect_counted(q.start, q.end);
                entry.quarantine.merge(skipped);
                counts.merge(c);
                entry.series.push((key, pts));
            }
        }
    }
    groups
}

/// Phase 2 of query execution: per-series rate + downsample (unless
/// already downsampled at collect time), then cross-series aggregation per
/// group. Series are processed in canonical key order, so the result is
/// independent of insertion order.
fn finalize_groups(groups: BTreeMap<TagSet, GroupCollection>, q: &Query) -> Vec<QueryResult> {
    let downsampled = q.downsample.is_some() && !q.rate;
    let mut results = Vec::with_capacity(groups.len());
    for (group, mut coll) in groups {
        coll.series.sort_by(|a, b| a.0.cmp(&b.0));
        let source_series = coll.series.len();
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
        // NaN (`min_step(+∞, NaN)` is +∞). `Count`, `Dev`, `Median` and
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

/// Run a query against one store, returning the results and the scan work
/// it took: the full serving stack with `use_rollups`, the raw reference
/// path without.
pub(crate) fn execute_counted(
    db: &Tsdb,
    q: &Query,
    use_rollups: bool,
) -> (Vec<QueryResult>, ScanCounts) {
    let mut counts = ScanCounts::default();
    let groups = collect_groups(db, q, use_rollups, &mut counts);
    (finalize_groups(groups, q), counts)
}

/// Execute a query strictly by decoding raw chunks — the reference path
/// the serving stack must match byte for byte. Used by the equivalence
/// suite and the before/after benchmarks. Storage corruption does not fail
/// the query: corrupt chunks are quarantined and surfaced in the per-group
/// quarantine counts. An unmatched metric or filter is an empty result set.
pub fn execute_raw(db: &Tsdb, q: &Query) -> Vec<QueryResult> {
    execute_counted(db, q, false).0
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::model::DataPoint;
    use proptest::prelude::*;

    pub(crate) const ALL_AGGREGATORS: [Aggregator; 10] = [
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

    /// Points as `(seconds, value bits)`, every NaN mapped to one
    /// pattern: Rust defines neither NaN payloads nor whether an operation
    /// quiets a signalling NaN (RFC 3514), and release builds fold some
    /// operations away where debug builds quiet. ±0.0 and every other bit
    /// stay exact.
    pub(crate) fn bits(points: &[(Timestamp, f64)]) -> Vec<(i64, u64)> {
        let canonical = |v: f64| if v.is_nan() { f64::NAN } else { v };
        points
            .iter()
            .map(|&(t, v)| (t.0, canonical(v).to_bits()))
            .collect()
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
    pub(crate) fn palette(k: u8) -> f64 {
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
    fn min_and_max_keep_the_first_of_equal_zeros_and_pass_over_nans() {
        for (a, b) in [(0.0f64, -0.0f64), (-0.0, 0.0)] {
            for agg in [Aggregator::Min, Aggregator::Max] {
                assert_eq!(agg.apply(&[a, b]).to_bits(), a.to_bits(), "{agg}");
                assert_eq!(agg.apply(&[f64::NAN, b, a]).to_bits(), b.to_bits(), "{agg}");
            }
        }
        assert_eq!(Aggregator::Min.apply(&[f64::NAN]), f64::INFINITY);
        assert_eq!(Aggregator::Max.apply(&[f64::NAN]), f64::NEG_INFINITY);
        assert_eq!(Aggregator::Min.apply(&[3.0, f64::NAN, -2.0]), -2.0);
        assert_eq!(Aggregator::Max.apply(&[3.0, f64::NAN, -2.0]), 3.0);
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
            let rs = served(&db, &q);
            let want: Vec<(Timestamp, f64)> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| (Timestamp(i as i64 * 300), agg.apply(&[v])))
                .collect();
            assert_eq!(bits(&rs[0].series.points), bits(&want), "{agg}");
        }
    }

    /// The serving path without a cache: block index + seal-time rollups.
    fn served(db: &Tsdb, q: &Query) -> Vec<QueryResult> {
        execute_counted(db, q, true).0
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
        let rs = served(&db, &q);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].source_series, 1);
        assert_eq!(rs[0].series.len(), 12);
        assert_eq!(rs[0].series.points[0], (Timestamp(0), 400.0));
    }

    #[test]
    fn cross_series_average() {
        let db = sample_db();
        let q = Query::range("co2", Timestamp(0), Timestamp(3600)).with_tag("city", "trd");
        let rs = served(&db, &q);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].source_series, 2);
        // avg(400, 500) = 450 at t=0.
        assert_eq!(rs[0].series.points[0], (Timestamp(0), 450.0));
    }

    #[test]
    fn group_by_device() {
        let db = sample_db();
        let q = Query::range("co2", Timestamp(0), Timestamp(3600)).group_by("device");
        let rs = served(&db, &q);
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
        let rs = served(&db, &q);
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
        let rs = served(&db, &q);
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
        let rs = served(&db, &q);
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
        let rs = served(&db, &q);
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
        assert_eq!(execute_raw(&db, &q), rs);
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
        let rs = served(&db, &q);
        assert_eq!(
            rs[0].series.points,
            vec![
                (Timestamp(-1800), 2.0),
                (Timestamp(-1200), 2.0),
                (Timestamp(-600), 2.0)
            ],
            "pre-epoch buckets must align via div_euclid and carry the seed"
        );
        assert_eq!(execute_raw(&db, &q), rs);
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
        let rs = served(&db, &q);
        assert_eq!(rs[0].series.len(), 4);
        for &(_, v) in &rs[0].series.points {
            assert!((v - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_results() {
        let db = sample_db();
        let q = Query::range("nope", Timestamp(0), Timestamp(3600));
        assert!(served(&db, &q).is_empty());
        let q = Query::range("co2", Timestamp(0), Timestamp(3600)).with_tag("device", "nope");
        assert!(served(&db, &q).is_empty());
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
        let rs = served(&db, &q);
        // n9 has no city tag: excluded by the wildcard filter.
        let total: usize = rs.iter().map(|r| r.source_series).sum();
        assert_eq!(total, 3);
    }
}
