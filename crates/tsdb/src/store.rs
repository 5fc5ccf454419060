//! The series store: interned series, Gorilla-chunked storage.
//!
//! Writes go to a per-series open buffer that tolerates out-of-order
//! arrival (radio and broker hops reorder); when the buffer reaches the
//! chunk size it is sorted and sealed into an immutable compressed chunk,
//! written once and never rewritten (only a chaos bit flip alters one).
//! Reads merge sealed chunks and the open buffer.
//!
//! A series' identity is a pair of small ids: each distinct metric name and
//! each distinct tag set is held once, in the store's two [`Interner`]s.

use crate::gorilla::CompressedChunk;
use crate::intern::Interner;
use crate::model::{check_series_names, DataPoint, TagSet};
use crate::rollup::{fold_rollups, seal_chunk, ColumnBytes, RollupBlock, RollupBucket};
use ctt_core::time::{Span, Timestamp};
use std::collections::HashMap;

/// Identifies a series within one [`Tsdb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesId(pub u32);

/// Default points per sealed chunk (one day of 5-minute data is 288).
pub const DEFAULT_CHUNK_SIZE: usize = 512;

/// Default rollup bucket width: one hour, the dashboard downsample the
/// paper's Zeppelin panels use (`1h-avg`).
pub const DEFAULT_ROLLUP_INTERVAL: Span = Span::hours(1);

/// An open buffer never spans this many seconds (2²⁶ ≈ 2.13 years): the
/// Gorilla stream holds a chunk's first delta in 27 offset-encoded bits
/// and escapes a delta-of-delta through `i32`, and both fit exactly while
/// every pair of timestamps in a chunk is closer than this. Enforced in
/// [`Series::push_point`]; real traffic is cut by the size threshold long
/// before.
pub(crate) const MAX_OPEN_SPAN_SECS: i64 = 1 << 26;

/// Collapse duplicate timestamps in a time-sorted point list, keeping the
/// last occurrence of each run (last write wins). Returns how many points
/// were removed.
pub(crate) fn dedup_last_write_wins(points: &mut Vec<(Timestamp, f64)>) -> usize {
    // In-place two-cursor compaction — the seal path calls this for every
    // chunk, so it must not allocate a shadow vector.
    let before = points.len();
    let mut w = 0usize;
    for r in 0..before {
        let Some(&(t, v)) = points.get(r) else {
            break;
        };
        // `w.wrapping_sub(1)` is `usize::MAX` when nothing is kept yet,
        // which `get_mut` rejects — the empty case without a branch.
        match points.get_mut(w.wrapping_sub(1)) {
            Some(prev) if prev.0 == t => prev.1 = v,
            _ => {
                if let Some(slot) = points.get_mut(w) {
                    *slot = (t, v);
                }
                w += 1;
            }
        }
    }
    points.truncate(w);
    before - w
}

#[derive(Debug, Clone)]
pub(crate) struct SealedChunk {
    pub(crate) chunk: CompressedChunk,
    pub(crate) start: Timestamp,
    pub(crate) end: Timestamp,
    /// Seal-time pre-downsampled summaries, one encoded block, its
    /// offsets counted from `start.align_down(interval)`. `None` after the
    /// chunk has been corrupted (or when an offset would not fit) —
    /// serving then falls back to raw decode, which quarantines exactly
    /// like a plain read.
    pub(crate) rollups: Option<RollupBlock>,
}

/// Per-read scan accounting: how much work the block index and rollups
/// saved. Exposed through query results up to the `ctt-obs` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanCounts {
    /// Sealed chunks excluded by the time-range block index (no decode).
    pub chunks_skipped: u64,
    /// Sealed chunks Gorilla-decoded.
    pub chunks_decoded: u64,
    /// Downsample buckets served from a fold, no decode: a sealed chunk's
    /// seal-time rollups, or the open buffer folded once per query.
    pub rollup_buckets: u64,
    /// Downsample buckets resolved by decoding raw points.
    pub raw_buckets: u64,
}

impl ScanCounts {
    /// Merge another report into this one.
    pub fn merge(&mut self, other: ScanCounts) {
        self.chunks_skipped += other.chunks_skipped;
        self.chunks_decoded += other.chunks_decoded;
        self.rollup_buckets += other.rollup_buckets;
        self.raw_buckets += other.raw_buckets;
    }
}

/// One stored series.
#[derive(Debug, Clone)]
pub(crate) struct Series {
    /// Id of the metric name in [`Tsdb`]'s name table.
    metric: u32,
    /// Id of the tag set in [`Tsdb`]'s tag-set table.
    tags: u32,
    pub(crate) sealed: Vec<SealedChunk>,
    pub(crate) open: Vec<(Timestamp, f64)>,
    /// Minimum and maximum timestamp in `open` (which is unsorted between
    /// seals); `None` when it is empty.
    open_span: Option<(Timestamp, Timestamp)>,
    /// Block index: chunk positions sorted by `(start, seal order)`, so a
    /// range read binary-searches instead of walking every chunk.
    index: Vec<u32>,
    points: u64,
}

impl Series {
    fn new(metric: u32, tags: u32) -> Self {
        Series {
            metric,
            tags,
            sealed: Vec::new(),
            open: Vec::new(),
            open_span: None,
            index: Vec::new(),
            points: 0,
        }
    }

    /// Append one arrival to the open buffer. Reached only through
    /// [`Tsdb::append`], and so
    /// the one place that keeps the buffer's span under
    /// [`MAX_OPEN_SPAN_SECS`]: an arrival that would stretch it that far,
    /// in either direction, seals the buffer first and starts the next one.
    fn push_point(&mut self, t: Timestamp, v: f64, interval: Span) {
        let (lo, hi) = self
            .open_span
            .map_or((t, t), |(lo, hi)| (lo.min(t), hi.max(t)));
        if hi.0.saturating_sub(lo.0) >= MAX_OPEN_SPAN_SECS {
            self.seal_open(interval);
            self.open_span = Some((t, t));
        } else {
            self.open_span = Some((lo, hi));
        }
        self.open.push((t, v));
        self.points += 1;
    }

    /// Recompute `open_span` after points left the open buffer (a seal
    /// drained a prefix).
    fn rescan_open_span(&mut self) {
        let mut times = self.open.iter().map(|&(t, _)| t);
        self.open_span = times
            .next()
            .map(|t| times.fold((t, t), |(lo, hi), t| (lo.min(t), hi.max(t))));
    }

    /// Sort the open buffer and collapse duplicate timestamps.
    ///
    /// Stable sort + last-write-wins dedup: a QoS1 redelivery that slips
    /// past the pipeline's exactly-once guard must not double-count in
    /// Avg/Sum/Count. Within equal timestamps the stable sort preserves
    /// arrival order, so keeping the final value is last-write-wins.
    fn sort_dedup_open(&mut self) {
        self.open.sort_by_key(|&(t, _)| t);
        let removed = dedup_last_write_wins(&mut self.open);
        self.points = self.points.saturating_sub(removed as u64);
    }

    /// Append a sealed chunk and insert its position into the block index
    /// (after any chunk with the same start, keeping seal order stable).
    /// The first seal reserves exactly one slot in each (most series hold
    /// one chunk); later seals grow by doubling.
    fn push_sealed(&mut self, sc: SealedChunk) {
        if self.sealed.capacity() == 0 {
            self.sealed.reserve_exact(1);
            self.index.reserve_exact(1);
        }
        let pos = self.index.partition_point(|&i| {
            self.sealed
                .get(i as usize)
                .is_some_and(|c| c.start <= sc.start)
        });
        let idx = self.sealed.len() as u32;
        self.sealed.push(sc);
        self.index.insert(pos, idx);
    }

    /// Rebuild the block index from scratch (after a bit flip widened a
    /// chunk's time range).
    fn rebuild_index(&mut self) {
        let mut ix: Vec<u32> = (0..self.sealed.len() as u32).collect();
        ix.sort_by_key(|&i| {
            (
                self.sealed
                    .get(i as usize)
                    .map_or(Timestamp(i64::MAX), |c| c.start),
                i,
            )
        });
        self.index = ix;
    }

    /// Seal the first `cut` points of the (sorted, deduplicated) open
    /// buffer: encode them once, in the walk that folds their rollups.
    fn seal_prefix(&mut self, cut: usize, interval: Span) {
        let pts = self.open.get(..cut).unwrap_or(&[]);
        let (Some(&(start, _)), Some(&(end, _))) = (pts.first(), pts.last()) else {
            return; // nothing to seal
        };
        let (chunk, rollups) = seal_chunk(pts, interval);
        self.push_sealed(SealedChunk {
            chunk,
            start,
            end,
            rollups,
        });
        self.open.drain(..cut);
        self.rescan_open_span();
    }

    /// Seal the entire open buffer (force-flush path).
    fn seal_open(&mut self, interval: Span) {
        self.sort_dedup_open();
        self.seal_prefix(self.open.len(), interval);
    }

    /// Threshold seal: cut the sorted buffer at the last full rollup-bucket
    /// boundary, so sealed chunks align to buckets and — for in-order data
    /// — every bucket is wholly owned by one chunk, which is what lets the
    /// rollup path answer it without decoding neighbors. Falls back to a
    /// full seal when everything sits in one bucket (no boundary to cut
    /// at) or the tail alone already exceeds the chunk size (a bucket
    /// denser than a chunk must not pin the buffer open).
    fn seal_at_threshold(&mut self, interval: Span, chunk_size: usize) {
        self.sort_dedup_open();
        let Some(&(last, _)) = self.open.last() else {
            return;
        };
        let boundary = last.align_down(interval);
        let cut = self.open.partition_point(|&(t, _)| t < boundary);
        if cut == 0 || self.open.len() - cut >= chunk_size {
            self.seal_prefix(self.open.len(), interval);
        } else {
            self.seal_prefix(cut, interval);
        }
    }

    /// Sealed chunks whose time span meets `[start, end)`, with their
    /// positions in `sealed`, in block-index order (by start, then seal
    /// order). Every chunk it does not yield is one the block index
    /// excluded without a decode.
    pub(crate) fn chunks_meeting(
        &self,
        start: Timestamp,
        end: Timestamp,
    ) -> impl Iterator<Item = (usize, &SealedChunk)> + '_ {
        let cut = self
            .index
            .partition_point(|&i| self.sealed.get(i as usize).is_some_and(|c| c.start < end));
        self.index
            .get(..cut)
            .unwrap_or(&[])
            .iter()
            .filter_map(move |&i| {
                let c = self.sealed.get(i as usize).filter(|c| c.end >= start)?;
                Some((i as usize, c))
            })
    }

    /// Points stored in the series, sealed and open.
    pub(crate) fn points(&self) -> u64 {
        self.points
    }

    /// The open buffer folded into rollup buckets by the same fold a seal
    /// encodes ([`fold_rollups`]), with the base its offsets count from
    /// (the first point's `align_down(interval)`), or `None` unless the
    /// buffer is strictly time-ordered. Only then is the fold in arrival order
    /// the fold of the sorted, deduplicated points a raw read sees. Built
    /// per query, not kept: it then needs no upkeep under dedup, bit flips
    /// or seals, and it costs one fold per buffered point.
    pub(crate) fn open_rollups(&self, interval: Span) -> Option<(Timestamp, Vec<RollupBucket>)> {
        let &(first, _) = self.open.first()?;
        Some((
            first.align_down(interval),
            fold_rollups(&self.open, interval)?,
        ))
    }

    /// Minimum and maximum timestamp currently in the open buffer, or
    /// `None` when it is empty.
    pub(crate) fn open_span(&self) -> Option<(Timestamp, Timestamp)> {
        self.open_span
    }

    /// Collect points within `[start, end)`, sorted by time, with scan
    /// accounting. Corrupt sealed chunks are quarantined — skipped and
    /// counted — so one bad chunk degrades the read instead of failing the
    /// whole range.
    pub(crate) fn collect_counted(
        &self,
        start: Timestamp,
        end: Timestamp,
    ) -> (Vec<(Timestamp, f64)>, QuarantineReport, ScanCounts) {
        let mut out = Vec::new();
        let mut quarantine = QuarantineReport::default();
        let mut counts = ScanCounts::default();
        // Seal order, so the stable sort below resolves duplicate
        // timestamps as a walk of every chunk would.
        let mut hits: Vec<usize> = self.chunks_meeting(start, end).map(|(i, _)| i).collect();
        hits.sort_unstable();
        counts.chunks_skipped = self.sealed.len().saturating_sub(hits.len()) as u64;
        for i in hits {
            let Some(sc) = self.sealed.get(i) else {
                continue;
            };
            match sc.chunk.decode() {
                Ok(pts) => {
                    counts.chunks_decoded += 1;
                    out.extend(pts.into_iter().filter(|&(t, _)| t >= start && t < end));
                }
                Err(_) => {
                    quarantine.chunks += 1;
                    quarantine.points += u64::from(sc.chunk.count());
                }
            }
        }
        out.extend(
            self.open
                .iter()
                .copied()
                .filter(|&(t, _)| t >= start && t < end),
        );
        // Stable sort keeps seal order (oldest chunk first, open buffer
        // last) for equal timestamps, so last-write-wins dedup prefers the
        // most recently written copy of a duplicated timestamp.
        out.sort_by_key(|&(t, _)| t);
        dedup_last_write_wins(&mut out);
        (out, quarantine, counts)
    }

    /// [`Series::collect_counted`] without the scan accounting.
    fn collect(
        &self,
        start: Timestamp,
        end: Timestamp,
    ) -> (Vec<(Timestamp, f64)>, QuarantineReport) {
        let (pts, quarantine, _) = self.collect_counted(start, end);
        (pts, quarantine)
    }

    /// The value of the last point strictly before `t`, if one is
    /// readable — seeds `FillPolicy::Previous` so leading empty buckets
    /// carry the pre-range value. The block index answers "which chunk"
    /// from metadata; only chunks straddling `t` are decoded. The final
    /// value is read back through [`Series::collect`] so duplicate
    /// timestamps resolve last-write-wins exactly like a normal read.
    /// Corrupt chunks are skipped without being counted (the range read
    /// itself reports them).
    pub(crate) fn last_value_before(&self, t: Timestamp) -> Option<f64> {
        let mut best: Option<Timestamp> = None;
        let mut consider = |ts: Timestamp| {
            if ts < t && best.is_none_or(|b| ts > b) {
                best = Some(ts);
            }
        };
        for sc in &self.sealed {
            if sc.start >= t {
                continue;
            }
            if sc.end < t {
                consider(sc.end);
            } else if let Ok(pts) = sc.chunk.decode() {
                for &(ts, _) in &pts {
                    if ts >= t {
                        break;
                    }
                    consider(ts);
                }
            }
        }
        for &(ts, _) in &self.open {
            consider(ts);
        }
        let best = best?;
        let (pts, _) = self.collect(best, Timestamp(best.0.saturating_add(1)));
        pts.last().map(|&(_, v)| v)
    }

    fn compressed_bytes(&self) -> usize {
        self.sealed
            .iter()
            .map(|s| s.chunk.size_bytes())
            .sum::<usize>()
            + self.open.len() * std::mem::size_of::<(Timestamp, f64)>()
    }

    /// Buckets and heap bytes of this series' rollup blocks, each block
    /// built at its exact length.
    fn rollup_size(&self) -> (u64, usize) {
        self.sealed
            .iter()
            .filter_map(|s| s.rollups.as_ref())
            .fold((0, 0), |(n, b), r| (n + r.buckets(), b + r.size_bytes()))
    }
}

/// Corruption encountered (and skipped) during a read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuarantineReport {
    /// Sealed chunks that failed to decode and were skipped.
    pub chunks: usize,
    /// Points those chunks advertised (the data made unreadable).
    pub points: u64,
}

impl QuarantineReport {
    /// Merge another report into this one.
    pub fn merge(&mut self, other: QuarantineReport) {
        self.chunks += other.chunks;
        self.points += other.points;
    }
}

/// Outcome of injecting a bit flip into a sealed chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BitFlipOutcome {
    /// No sealed chunk exists to corrupt.
    NoChunks,
    /// A sealed chunk was selected but the bit could not be flipped (the
    /// chunk has no data bytes) — distinct from an empty store.
    BitOutOfRange,
    /// The flipped chunk still decodes (the corruption changed values,
    /// not structure) — no points are lost.
    StillReadable,
    /// The flipped chunk no longer decodes; reads will quarantine it.
    Quarantined {
        /// Points the chunk advertised before corruption.
        points: u32,
    },
}

/// Full-store integrity summary from trial-decoding every sealed chunk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityReport {
    /// Points recoverable by reads (decodable chunks + open buffers).
    pub readable_points: u64,
    /// Sealed chunks that fail to decode.
    pub quarantined_chunks: usize,
    /// Points advertised by the quarantined chunks.
    pub quarantined_points: u64,
}

/// Storage statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Number of series.
    pub series: usize,
    /// Total stored points.
    pub points: u64,
    /// Total sealed chunks.
    pub chunks: usize,
    /// Approximate stored bytes (compressed chunks + open buffers),
    /// excluding rollups so the raw compression ratio stays visible.
    pub bytes: usize,
    /// Heap bytes of seal-time rollup summaries (the cost of fast
    /// serving): every byte of every sealed chunk's [`RollupBlock`] — a
    /// varint header (bucket count, four column lengths), the run-length
    /// offsets and counts, and the `sum`/`min`/`max`/`last` columns, each
    /// decimal or XOR, or for a `sum` on its decimal chunk's grid (layout
    /// in [`crate::rollup`]). Each block is built at its exact length, so
    /// this is what the heap holds.
    pub rollup_bytes: usize,
    /// Buckets held by those rollup blocks.
    pub rollup_buckets: u64,
}

/// The time-series database.
#[derive(Debug)]
pub struct Tsdb {
    pub(crate) series: Vec<Series>,
    /// Each distinct metric name, held once; a [`Series`] holds its id.
    metric_names: Interner<String>,
    /// Each distinct tag set, held once; a [`Series`] holds its id.
    tag_sets: Interner<TagSet>,
    /// `(metric id, tag-set id)` → series.
    by_key: HashMap<(u32, u32), SeriesId>,
    /// Series of each metric, indexed by metric id, in id order.
    by_metric: Vec<Vec<SeriesId>>,
    chunk_size: usize,
    rollup_interval: Span,
}

impl Default for Tsdb {
    fn default() -> Self {
        Tsdb::new()
    }
}

impl Tsdb {
    /// New database with the default chunk size and rollup interval.
    pub fn new() -> Self {
        Tsdb::with_layout(DEFAULT_CHUNK_SIZE, DEFAULT_ROLLUP_INTERVAL)
    }

    /// New database with a custom points-per-chunk.
    pub fn with_chunk_size(chunk_size: usize) -> Self {
        Tsdb::with_layout(chunk_size, DEFAULT_ROLLUP_INTERVAL)
    }

    /// New database with custom points-per-chunk and rollup bucket width.
    /// Threshold seals cut at rollup boundaries, so the interval also
    /// shapes chunk spans; queries downsampling at exactly this interval
    /// are served from seal-time rollups without decoding chunks.
    pub fn with_layout(chunk_size: usize, rollup_interval: Span) -> Self {
        // lint:allow(panic): a layout is fixed at construction; tiny_chunk_size_rejected pins it
        assert!(chunk_size >= 2, "chunk size too small");
        // lint:allow(panic): a layout is fixed at construction; a zero-width bucket has no meaning
        assert!(
            rollup_interval.as_seconds() > 0,
            "rollup interval must be positive"
        );
        Tsdb {
            series: Vec::new(),
            metric_names: Interner::default(),
            tag_sets: Interner::default(),
            by_key: HashMap::new(),
            by_metric: Vec::new(),
            chunk_size,
            rollup_interval,
        }
    }

    /// The rollup bucket width this store materializes at seal time.
    pub fn rollup_interval(&self) -> Span {
        self.rollup_interval
    }

    /// Intern a series by metric + tags, returning its id (existing or
    /// freshly created). Ids are dense and never reused, so callers may
    /// cache them indefinitely.
    pub fn intern(&mut self, metric: &str, tags: &TagSet) -> SeriesId {
        let m = self.metric_names.intern(metric);
        let t = self.tag_sets.intern(tags);
        let next = SeriesId(self.series.len() as u32);
        let id = *self.by_key.entry((m, t)).or_insert(next);
        if id == next {
            self.series.push(Series::new(m, t));
            // Metric ids are dense and each new one arrives with its
            // first series, so it is either listed or the next to be.
            match self.by_metric.get_mut(m as usize) {
                Some(ids) => ids.push(id),
                None => self.by_metric.push(vec![id]),
            }
        }
        id
    }

    /// Register a series and get its id: validates the names as
    /// [`DataPoint::new`] does (`None` on an invalid one), then interns.
    /// Registering again returns the same id. A registered series holds no
    /// point until the first [`Tsdb::append`] to it.
    pub fn register(&mut self, metric: &str, tags: &TagSet) -> Option<SeriesId> {
        check_series_names(metric, tags).ok()?;
        Some(self.intern(metric, tags))
    }

    /// Append one point to an interned series, sealing its open buffer at
    /// the chunk-size threshold: the one per-point write. Any f64 is
    /// stored; [`DataPoint`] is what keeps values finite. Returns false,
    /// writing nothing, for an id this store never issued.
    pub fn append(&mut self, id: SeriesId, t: Timestamp, v: f64) -> bool {
        let Some(series) = self.series.get_mut(id.0 as usize) else {
            return false;
        };
        series.push_point(t, v, self.rollup_interval);
        if series.open.len() >= self.chunk_size {
            series.seal_at_threshold(self.rollup_interval, self.chunk_size);
        }
        true
    }

    /// Insert a data point, interning its series on first sight.
    pub fn put(&mut self, point: &DataPoint) -> SeriesId {
        let id = self.intern(&point.metric, &point.tags);
        self.append(id, point.time, point.value);
        id
    }

    /// Batched ingest: insert every point, interning series on first sight.
    /// Returns the number of points written. The building block of
    /// [`crate::shard::ShardedTsdb::put_batch`] — batching lets the store
    /// be locked once per batch instead of once per point.
    pub fn put_batch(&mut self, points: &[DataPoint]) -> u64 {
        for p in points {
            self.put(p);
        }
        points.len() as u64
    }

    /// All series ids for a metric.
    pub fn series_for_metric(&self, metric: &str) -> &[SeriesId] {
        self.metric_names
            .find(metric)
            .and_then(|m| self.by_metric.get(m as usize))
            .map_or(&[], Vec::as_slice)
    }

    /// A series id by exact metric + tags: the interner lookup that
    /// `identity_equivalence`'s `Op::Lookup` checks against its model.
    pub fn series_id(&self, metric: &str, tags: &TagSet) -> Option<SeriesId> {
        let m = self.metric_names.find(metric)?;
        let t = self.tag_sets.find(tags)?;
        self.by_key.get(&(m, t)).copied()
    }

    /// The tag set of a series, if the id is known.
    pub fn tags(&self, id: SeriesId) -> Option<&TagSet> {
        let s = self.series.get(id.0 as usize)?;
        self.tag_sets.get(s.tags)
    }

    /// The metric name of a series, if the id is known.
    pub fn metric(&self, id: SeriesId) -> Option<&str> {
        let s = self.series.get(id.0 as usize)?;
        self.metric_names.get(s.metric).map(String::as_str)
    }

    /// The sealed chunks of a series, in seal order (none for unknown
    /// ids).
    pub fn chunks(&self, id: SeriesId) -> impl Iterator<Item = &CompressedChunk> {
        self.series
            .get(id.0 as usize)
            .into_iter()
            .flat_map(|s| s.sealed.iter().map(|sc| &sc.chunk))
    }

    /// Fault injection: flip one bit in the `nth` sealed chunk (modulo the
    /// number of sealed chunks, in series order) and report whether the
    /// chunk survived. Returns [`BitFlipOutcome::NoChunks`] when nothing is
    /// sealed yet.
    pub fn flip_chunk_bit(&mut self, nth_chunk: u64, bit: u64) -> BitFlipOutcome {
        let total: usize = self.series.iter().map(|s| s.sealed.len()).sum();
        if total == 0 {
            return BitFlipOutcome::NoChunks;
        }
        let mut target = (nth_chunk % total as u64) as usize;
        for s in &mut self.series {
            if target >= s.sealed.len() {
                target -= s.sealed.len();
                continue;
            }
            let Some(sc) = s.sealed.get_mut(target) else {
                break;
            };
            if !sc.chunk.flip_bit(bit) {
                return BitFlipOutcome::BitOutOfRange;
            }
            // Even a still-readable flip may have changed values, so the
            // rollups no longer summarize the chunk: drop them and let
            // serving fall back to raw decode (which quarantines exactly
            // like a plain read if the bitstream broke).
            sc.rollups = None;
            let outcome = match sc.chunk.decode() {
                Ok(pts) => {
                    // A readable flip may have moved points in time (a
                    // corrupted timestamp delta shifts every later point),
                    // so the chunk's time-range metadata is *widened* to
                    // cover wherever the points now decode to — otherwise
                    // the block index would skip buckets the points moved
                    // into. Widened, not replaced: the original range stays
                    // covered so reads over it still attribute quarantine
                    // to this chunk if a later flip breaks the bitstream.
                    let min = pts.iter().map(|&(t, _)| t).min();
                    let max = pts.iter().map(|&(t, _)| t).max();
                    if let (Some(min), Some(max)) = (min, max) {
                        sc.start = sc.start.min(min);
                        sc.end = sc.end.max(max);
                    }
                    BitFlipOutcome::StillReadable
                }
                Err(_) => BitFlipOutcome::Quarantined {
                    points: sc.chunk.count(),
                },
            };
            s.rebuild_index();
            return outcome;
        }
        BitFlipOutcome::NoChunks
    }

    /// Trial-decode every sealed chunk and summarize what reads can still
    /// recover versus what is quarantined. `readable_points +
    /// quarantined_points` equals [`StoreStats::points`] — the conservation
    /// invariant the chaos loss ledger checks.
    pub fn integrity_scan(&self) -> IntegrityReport {
        let mut report = IntegrityReport::default();
        for s in &self.series {
            for sc in &s.sealed {
                match sc.chunk.decode() {
                    Ok(pts) => report.readable_points += pts.len() as u64,
                    Err(_) => {
                        report.quarantined_chunks += 1;
                        report.quarantined_points += u64::from(sc.chunk.count());
                    }
                }
            }
            report.readable_points += s.open.len() as u64;
        }
        report
    }

    /// Storage statistics.
    pub fn stats(&self) -> StoreStats {
        let (rollup_buckets, rollup_bytes) = self
            .series
            .iter()
            .map(Series::rollup_size)
            .fold((0, 0), |(n, b), (sn, sb)| (n + sn, b + sb));
        StoreStats {
            series: self.series.len(),
            points: self.series.iter().map(|s| s.points).sum(),
            chunks: self.series.iter().map(|s| s.sealed.len()).sum(),
            bytes: self.series.iter().map(Series::compressed_bytes).sum(),
            rollup_bytes,
            rollup_buckets,
        }
    }

    /// The rollup blocks' bytes per float column and coding.
    pub fn rollup_column_bytes(&self) -> ColumnBytes {
        let mut tally = ColumnBytes::default();
        let blocks = self.series.iter().flat_map(|s| &s.sealed);
        for block in blocks.filter_map(|c| c.rollups.as_ref()) {
            tally.add(block);
        }
        tally
    }

    /// Force-seal all open buffers (e.g. before measuring compression).
    pub fn seal_all(&mut self) {
        for s in &mut self.series {
            s.seal_open(self.rollup_interval);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dp(metric: &str, device: &str, t: i64, v: f64) -> DataPoint {
        DataPoint::new(
            metric,
            vec![("device".to_string(), device.to_string())],
            Timestamp(t),
            v,
        )
        .unwrap()
    }

    /// Every point of series 0 in `[start, end)`.
    fn read0(db: &Tsdb, start: Timestamp, end: Timestamp) -> Vec<(Timestamp, f64)> {
        db.series[0].collect(start, end).0
    }

    #[test]
    fn put_and_read_roundtrip() {
        let mut db = Tsdb::new();
        for i in 0..100 {
            db.put(&dp("m", "n1", i * 300, i as f64));
        }
        let tags = db.tags(SeriesId(0)).expect("series 0 exists").clone();
        let id = db.series_id("m", &tags).expect("series exists");
        let (pts, _) = db.series[id.0 as usize].collect(Timestamp(0), Timestamp(100 * 300));
        assert_eq!(pts.len(), 100);
        assert_eq!(pts[7], (Timestamp(7 * 300), 7.0));
    }

    /// Put one series' points, seal, and read every point back. The three
    /// tests below put neighbours ≥ 2²⁶ s apart, which one Gorilla chunk
    /// cannot hold (27-bit first delta, `i32` delta-of-delta escape): the
    /// store must cut the buffer between them.
    fn put_seal_read(times: &[i64]) -> Vec<(Timestamp, f64)> {
        let mut db = Tsdb::new();
        for (i, &t) in (1..).zip(times) {
            db.put(&dp("m", "n1", t, f64::from(i)));
        }
        db.seal_all();
        read0(&db, Timestamp(i64::MIN), Timestamp(i64::MAX))
    }

    fn numbered(times: &[i64]) -> Vec<(Timestamp, f64)> {
        (1..)
            .zip(times)
            .map(|(i, &t)| (Timestamp(t), f64::from(i)))
            .collect()
    }

    #[test]
    fn a_three_year_gap_after_the_first_point_round_trips() {
        let times = [0, 100_000_000, 100_000_300];
        assert_eq!(put_seal_read(&times), numbered(&times));
    }

    #[test]
    fn a_gap_wider_than_i32_after_a_steady_cadence_round_trips() {
        let times = [0, 300, 5_000_000_000];
        assert_eq!(put_seal_read(&times), numbered(&times));
    }

    #[test]
    fn the_first_delta_boundary_is_exact() {
        for gap in [(1 << 26) - 1, 1 << 26] {
            let times = [0, gap];
            assert_eq!(put_seal_read(&times), numbered(&times), "gap {gap}");
        }
    }

    #[test]
    fn series_interning() {
        let mut db = Tsdb::new();
        let a = db.put(&dp("m", "n1", 0, 1.0));
        let b = db.put(&dp("m", "n1", 300, 2.0));
        let c = db.put(&dp("m", "n2", 0, 3.0));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(db.series_for_metric("m").len(), 2);
        assert_eq!(db.series_for_metric("other").len(), 0);
        assert_eq!(db.metric(a), Some("m"));
        assert_eq!(
            db.tags(c).unwrap().get("device").map(String::as_str),
            Some("n2")
        );
    }

    #[test]
    fn chunks_seal_at_threshold() {
        let mut db = Tsdb::with_chunk_size(10);
        for i in 0..25 {
            db.put(&dp("m", "n1", i * 60, i as f64));
        }
        let st = db.stats();
        assert_eq!(st.chunks, 2, "two sealed chunks of 10");
        assert_eq!(st.points, 25);
        // All 25 still readable.
        let pts = read0(&db, Timestamp(0), Timestamp(i64::MAX / 2));
        assert_eq!(pts.len(), 25);
    }

    #[test]
    fn out_of_order_within_open_buffer() {
        let mut db = Tsdb::with_chunk_size(100);
        db.put(&dp("m", "n1", 600, 2.0));
        db.put(&dp("m", "n1", 0, 0.0));
        db.put(&dp("m", "n1", 300, 1.0));
        let pts = read0(&db, Timestamp(0), Timestamp(10_000));
        assert_eq!(
            pts,
            vec![
                (Timestamp(0), 0.0),
                (Timestamp(300), 1.0),
                (Timestamp(600), 2.0)
            ]
        );
    }

    #[test]
    fn out_of_order_across_chunks_still_reads_sorted() {
        let mut db = Tsdb::with_chunk_size(4);
        // First chunk seals with times 1000..1003.
        for i in 0..4 {
            db.put(&dp("m", "n1", 1000 + i, 1.0));
        }
        // Late straggler older than the sealed chunk.
        db.put(&dp("m", "n1", 500, 9.9));
        let pts = read0(&db, Timestamp(0), Timestamp(10_000));
        assert_eq!(pts.first(), Some(&(Timestamp(500), 9.9)));
        assert_eq!(pts.len(), 5);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn range_queries_clip() {
        let mut db = Tsdb::with_chunk_size(8);
        for i in 0..50 {
            db.put(&dp("m", "n1", i * 100, i as f64));
        }
        let pts = read0(&db, Timestamp(1000), Timestamp(2000));
        assert_eq!(pts.len(), 10);
        assert_eq!(pts.first().unwrap().0, Timestamp(1000));
        assert_eq!(pts.last().unwrap().0, Timestamp(1900));
    }

    #[test]
    fn stats_and_compression() {
        let mut db = Tsdb::new();
        for i in 0..2000 {
            db.put(&dp("m", "n1", i * 300, 400.0 + (i as f64 * 0.01).sin()));
        }
        db.seal_all();
        let st = db.stats();
        assert_eq!(st.series, 1);
        assert_eq!(st.points, 2000);
        let raw = 2000 * 16;
        assert!(
            st.bytes < raw / 2,
            "compressed {} bytes vs raw {raw}",
            st.bytes
        );
    }

    #[test]
    fn corrupt_chunk_quarantined_rest_of_range_survives() {
        let mut db = Tsdb::with_chunk_size(10);
        for i in 0..30 {
            db.put(&dp("m", "n1", i * 100, i as f64));
        }
        db.seal_all();
        assert_eq!(db.stats().chunks, 3);
        // Corrupt until a chunk actually quarantines (some flips only
        // perturb values without breaking the bitstream).
        let mut outcome = db.flip_chunk_bit(1, 3);
        let mut bit = 4u64;
        while outcome == BitFlipOutcome::StillReadable {
            outcome = db.flip_chunk_bit(1, bit);
            bit += 7;
        }
        let BitFlipOutcome::Quarantined { points } = outcome else {
            panic!("expected a quarantine, got {outcome:?}");
        };
        assert_eq!(points, 10);
        // The read degrades to the surviving chunks instead of failing.
        let (pts, q) = db.series[0].collect(Timestamp(0), Timestamp(10_000));
        assert_eq!(q.chunks, 1);
        assert_eq!(q.points, 10);
        assert_eq!(pts.len(), 20);
        // The conservation invariant holds.
        let scan = db.integrity_scan();
        assert_eq!(scan.quarantined_chunks, 1);
        assert_eq!(
            scan.readable_points + scan.quarantined_points,
            db.stats().points
        );
    }

    #[test]
    fn integrity_scan_counts_open_buffer() {
        let mut db = Tsdb::with_chunk_size(100);
        for i in 0..7 {
            db.put(&dp("m", "n1", i * 100, i as f64));
        }
        let scan = db.integrity_scan();
        assert_eq!(scan.readable_points, 7);
        assert_eq!(scan.quarantined_chunks, 0);
        assert_eq!(db.flip_chunk_bit(0, 0), BitFlipOutcome::NoChunks);
    }

    #[test]
    fn each_metric_name_and_tag_set_is_held_once() {
        // A Trondheim-shaped city: 12 devices × 9 metrics.
        let mut db = Tsdb::new();
        for d in 0..12 {
            for m in 0..9 {
                let tags = [
                    ("city".to_string(), "trondheim".to_string()),
                    ("device".to_string(), format!("n{d}")),
                ];
                let p = DataPoint::new(format!("ctt.m{m}"), tags, Timestamp(0), 1.0).unwrap();
                db.put(&p);
            }
        }
        assert_eq!(db.stats().series, 12 * 9);
        assert_eq!(db.tag_sets.iter().len(), 12);
        assert_eq!(db.metric_names.iter().len(), 9);
        assert_eq!(db.by_metric.len(), 9);
    }

    #[test]
    fn first_seal_reserves_exactly_one_slot() {
        let mut db = Tsdb::with_chunk_size(10);
        for i in 0..10 {
            db.put(&dp("m", "n1", i * 100, i as f64));
        }
        let s = &db.series[0];
        assert_eq!((s.sealed.len(), s.sealed.capacity()), (1, 1));
        assert_eq!((s.index.len(), s.index.capacity()), (1, 1));
        for i in 10..30 {
            db.put(&dp("m", "n1", i * 100, i as f64));
        }
        assert_eq!(db.series[0].sealed.len(), 3, "later seals still grow");
    }

    #[test]
    #[should_panic(expected = "chunk size too small")]
    fn tiny_chunk_size_rejected() {
        Tsdb::with_chunk_size(1);
    }

    #[test]
    fn duplicate_timestamp_dedups_last_write_wins_in_open_buffer() {
        let mut db = Tsdb::with_chunk_size(100);
        db.put(&dp("m", "n1", 300, 1.0));
        db.put(&dp("m", "n1", 300, 2.0)); // QoS1 redelivery with a new value
        db.put(&dp("m", "n1", 600, 3.0));
        let pts = read0(&db, Timestamp(0), Timestamp(10_000));
        assert_eq!(pts, vec![(Timestamp(300), 2.0), (Timestamp(600), 3.0)]);
    }

    #[test]
    fn duplicate_timestamp_dedups_on_seal() {
        let mut db = Tsdb::with_chunk_size(4);
        db.put(&dp("m", "n1", 0, 1.0));
        db.put(&dp("m", "n1", 300, 5.0));
        db.put(&dp("m", "n1", 300, 6.0)); // duplicate inside the chunk
        db.put(&dp("m", "n1", 600, 7.0)); // triggers the seal
        let st = db.stats();
        assert_eq!(st.chunks, 1);
        assert_eq!(st.points, 3, "duplicate must not be stored twice");
        let pts = read0(&db, Timestamp(0), Timestamp(10_000));
        assert_eq!(
            pts,
            vec![
                (Timestamp(0), 1.0),
                (Timestamp(300), 6.0),
                (Timestamp(600), 7.0)
            ]
        );
    }

    #[test]
    fn duplicate_across_sealed_and_open_prefers_latest_write() {
        let mut db = Tsdb::with_chunk_size(3);
        for i in 0..3 {
            db.put(&dp("m", "n1", i * 300, i as f64)); // seals at 3
        }
        // A late redelivery of t=300 lands in the open buffer.
        db.put(&dp("m", "n1", 300, 99.0));
        let pts = read0(&db, Timestamp(0), Timestamp(10_000));
        assert_eq!(pts.len(), 3, "no double-count across sealed + open");
        assert_eq!(pts[1], (Timestamp(300), 99.0), "open buffer wins");
    }

    #[test]
    fn put_batch_matches_pointwise_puts() {
        let points: Vec<DataPoint> = (0..50).map(|i| dp("m", "n1", i * 60, i as f64)).collect();
        let mut a = Tsdb::with_chunk_size(16);
        let stored = a.put_batch(&points);
        assert_eq!(stored, 50);
        let mut b = Tsdb::with_chunk_size(16);
        for p in &points {
            b.put(p);
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(
            read0(&a, Timestamp(0), Timestamp(i64::MAX / 2)),
            read0(&b, Timestamp(0), Timestamp(i64::MAX / 2))
        );
    }

    #[test]
    fn unflippable_chunk_is_not_reported_as_empty_store() {
        // A constant series can compress to a chunk whose payload is all
        // header (data may still be non-empty); instead force the edge by
        // checking both outcomes are distinguishable on an empty store vs
        // a store with sealed chunks.
        let mut db = Tsdb::with_chunk_size(10);
        assert_eq!(db.flip_chunk_bit(0, 0), BitFlipOutcome::NoChunks);
        for i in 0..10 {
            db.put(&dp("m", "n1", i * 100, i as f64));
        }
        assert_ne!(db.flip_chunk_bit(0, 0), BitFlipOutcome::NoChunks);
    }
}
