//! The series store: interned series, Gorilla-chunked storage, retention.
//!
//! Writes go to a per-series open buffer that tolerates out-of-order
//! arrival (radio and broker hops reorder); when the buffer reaches the
//! chunk size it is sorted and sealed into an immutable compressed chunk.
//! Reads merge sealed chunks and the open buffer.

use crate::error::TsdbError;
use crate::gorilla::{CompressedChunk, EncCheckpoint, GorillaEncoder};
use crate::model::{series_key, DataPoint, TagSet};
use crate::rollup::{build_rollups, RollupBucket};
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
const MAX_OPEN_SPAN_SECS: i64 = 1 << 26;

/// The first gap between neighbouring timestamps that a Gorilla chunk
/// cannot hold: negative (out of order), or [`MAX_OPEN_SPAN_SECS`] or more
/// (past the 27-bit first delta). `None` when every gap fits.
fn unencodable_gap(pts: &[(Timestamp, f64)]) -> Option<i64> {
    pts.iter()
        .zip(pts.iter().skip(1))
        .map(|(&(a, _), &(b, _))| b.0.saturating_sub(a.0))
        .find(|gap| !(0..MAX_OPEN_SPAN_SECS).contains(gap))
}

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
    /// Seal-time pre-downsampled summaries (sorted by bucket start).
    /// `None` after the chunk has been corrupted — serving then falls back
    /// to raw decode, which quarantines exactly like a plain read.
    pub(crate) rollups: Option<Vec<RollupBucket>>,
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

/// Streaming encoder over a series' open buffer: the Gorilla bitstream is
/// built as points arrive, so an in-order seal is a checkpoint rewind plus
/// `finish()` instead of an O(chunk) re-walk of every point.
///
/// The stream mirrors what `sort_dedup_open` would produce for strictly
/// increasing arrivals; a duplicate timestamp (last-write-wins rewrite) or
/// an out-of-order arrival abandons the stream (`push` returns `false`),
/// and the seal falls back to re-encoding the sorted, deduped buffer —
/// byte-identical output, and self-healing, since the post-seal rebuild
/// walks the sorted tail. Keeping the in-order fast path checkpoint-free
/// matters: it runs once per ingested point.
#[derive(Debug, Clone)]
struct OpenEnc {
    enc: GorillaEncoder,
    /// The threshold-seal cut: `(points before the last rollup-bucket
    /// boundary crossed, encoder state at that instant)`. `None` while all
    /// points sit in one bucket.
    cut: Option<(usize, EncCheckpoint)>,
    last_ts: Timestamp,
    /// End of the rollup bucket containing `last_ts`, cached so the
    /// boundary test is one compare per point instead of two `align_down`
    /// divisions. Valid whenever `count > 0` (the store's interval is
    /// fixed at construction).
    bucket_end: Timestamp,
}

impl OpenEnc {
    fn new() -> Self {
        OpenEnc {
            enc: GorillaEncoder::new(),
            cut: None,
            last_ts: Timestamp(i64::MIN),
            bucket_end: Timestamp(i64::MIN),
        }
    }

    /// Feed one arrival. Returns `false` when the stream cannot follow
    /// (out-of-order point, or a duplicate timestamp whose last-write-wins
    /// rewrite would mean re-encoding) — the caller then drops the stream
    /// and the next seal re-encodes from the sorted buffer.
    #[inline]
    fn push(&mut self, t: Timestamp, v: f64, interval: Span) -> bool {
        if self.enc.count() > 0 {
            if t <= self.last_ts {
                return false;
            }
            if t >= self.bucket_end {
                self.cut = Some((self.enc.count() as usize, self.enc.checkpoint()));
                self.bucket_end = t.align_down(interval) + interval;
            }
        } else {
            self.bucket_end = t.align_down(interval) + interval;
        }
        self.enc.append(t, v);
        self.last_ts = t;
        true
    }

    /// Consume the stream into the sealed chunk for its first `cut`
    /// points, if the stream can produce it without a re-walk: either the
    /// whole stream is sealed, or `cut` lands exactly on the recorded
    /// bucket-boundary checkpoint.
    fn into_chunk_for(mut self, cut: usize) -> Option<CompressedChunk> {
        if cut == self.enc.count() as usize {
            return Some(self.enc.finish());
        }
        match self.cut {
            Some((at, ck)) if at == cut => {
                self.enc.restore(&ck);
                Some(self.enc.finish())
            }
            _ => None,
        }
    }
}

/// One stored series.
#[derive(Debug, Clone)]
pub(crate) struct Series {
    pub(crate) metric: String,
    pub(crate) tags: TagSet,
    pub(crate) sealed: Vec<SealedChunk>,
    pub(crate) open: Vec<(Timestamp, f64)>,
    /// Minimum and maximum timestamp in `open` (which is unsorted between
    /// seals); `None` when it is empty.
    open_span: Option<(Timestamp, Timestamp)>,
    /// Block index: chunk positions sorted by `(start, seal order)`, so a
    /// range read binary-searches instead of walking every chunk.
    index: Vec<u32>,
    points: u64,
    /// Streaming encoder shadowing `open`; `None` after an out-of-order
    /// arrival until the next seal rebuilds it from the sorted tail.
    stream: Option<OpenEnc>,
    /// Monotone total of compressed bytes this series has ever encoded
    /// (seal-time chunks plus retention re-encodes). Feeds the ingest
    /// runtime's `encoded_bytes` counters; never decremented.
    encoded_bytes_total: u64,
}

impl Series {
    fn new(metric: String, tags: TagSet) -> Self {
        Series {
            metric,
            tags,
            sealed: Vec::new(),
            open: Vec::new(),
            open_span: None,
            index: Vec::new(),
            points: 0,
            stream: Some(OpenEnc::new()),
            encoded_bytes_total: 0,
        }
    }

    /// Append one arrival to the open buffer, keeping the streaming
    /// encoder in lockstep. The single write entry point shared by
    /// [`Tsdb::put`] and [`Tsdb::append_run`], and so the one place that
    /// keeps the buffer's span under [`MAX_OPEN_SPAN_SECS`]: an arrival
    /// that would stretch it that far, in either direction, seals the
    /// buffer first and starts the next one.
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
        if let Some(st) = &mut self.stream {
            if !st.push(t, v, interval) {
                self.stream = None;
            }
        }
    }

    /// Recompute `open_span` after points left the open buffer (a seal
    /// drained a prefix, or retention dropped some).
    fn rescan_open_span(&mut self) {
        let mut times = self.open.iter().map(|&(t, _)| t);
        self.open_span = times
            .next()
            .map(|t| times.fold((t, t), |(lo, hi), t| (lo.min(t), hi.max(t))));
    }

    /// Rebuild the streaming encoder from the current open buffer (after a
    /// seal drained a prefix, or retention rewrote the tail). Walks at most
    /// one chunk's worth of points; goes dormant again if the buffer holds
    /// out-of-order data.
    fn rebuild_stream(&mut self, interval: Span) {
        let mut st = OpenEnc::new();
        for &(t, v) in &self.open {
            if !st.push(t, v, interval) {
                self.stream = None;
                return;
            }
        }
        self.stream = Some(st);
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
    fn push_sealed(&mut self, sc: SealedChunk) {
        self.encoded_bytes_total += sc.chunk.size_bytes() as u64;
        let pos = self.index.partition_point(|&i| {
            self.sealed
                .get(i as usize)
                .is_some_and(|c| c.start <= sc.start)
        });
        let idx = self.sealed.len() as u32;
        self.sealed.push(sc);
        self.index.insert(pos, idx);
    }

    /// Rebuild the block index from scratch (after retention rewrites).
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

    /// Encode the first `cut` points of the (sorted, deduplicated) open
    /// buffer into a sealed chunk, materializing its rollups. When the
    /// streaming encoder tracked the buffer (in-order arrivals) and `cut`
    /// lands on its bucket checkpoint, the chunk is a checkpoint rewind —
    /// no bitstream re-walk; otherwise the points are re-encoded. Either
    /// way the stream is rebuilt over the surviving tail.
    fn seal_prefix(&mut self, cut: usize, interval: Span) {
        let pts = self.open.get(..cut).unwrap_or(&[]);
        let (Some(&(start, _)), Some(&(end, _))) = (pts.first(), pts.last()) else {
            return; // nothing to seal
        };
        let rollups = build_rollups(pts, interval);
        // The stream is trustworthy only if it followed every arrival: its
        // point count then equals the deduplicated buffer's length.
        let chunk = self
            .stream
            .take()
            .filter(|st| st.enc.count() as usize == self.open.len())
            .and_then(|st| st.into_chunk_for(cut))
            .unwrap_or_else(|| {
                let mut enc = GorillaEncoder::new();
                for &(t, v) in pts {
                    enc.append(t, v);
                }
                enc.finish()
            });
        self.push_sealed(SealedChunk {
            chunk,
            start,
            end,
            rollups: Some(rollups),
        });
        self.open.drain(..cut);
        self.rescan_open_span();
        self.rebuild_stream(interval);
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

    /// Sealed-chunk positions (in seal order) whose time span intersects
    /// `[start, end)`, plus how many chunks the block index excluded
    /// without decoding. The hit list is re-sorted into seal order so the
    /// downstream stable sort resolves duplicate timestamps exactly as the
    /// pre-index code did.
    pub(crate) fn chunks_overlapping(&self, start: Timestamp, end: Timestamp) -> (Vec<usize>, u64) {
        let cut = self
            .index
            .partition_point(|&i| self.sealed.get(i as usize).is_some_and(|c| c.start < end));
        let mut skipped = (self.index.len() - cut) as u64;
        let mut hits = Vec::new();
        for &i in self.index.get(..cut).unwrap_or(&[]) {
            match self.sealed.get(i as usize) {
                Some(c) if c.end >= start => hits.push(i as usize),
                _ => skipped += 1,
            }
        }
        hits.sort_unstable();
        (hits, skipped)
    }

    /// The open buffer folded into rollup buckets with the same
    /// [`build_rollups`] a seal uses, or `None` unless the buffer is
    /// strictly time-ordered — the condition under which [`OpenEnc`] keeps
    /// streaming. Only then is the fold in arrival order the fold of the
    /// sorted, deduplicated points a raw read sees. Built per query, not
    /// kept: it then needs no upkeep under dedup, retention, bit flips or
    /// seals, and it costs one fold per buffered point.
    pub(crate) fn open_rollups(&self, interval: Span) -> Option<Vec<RollupBucket>> {
        let ordered = self
            .open
            .iter()
            .zip(self.open.iter().skip(1))
            .all(|(a, b)| a.0 < b.0);
        ordered.then(|| build_rollups(&self.open, interval))
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
        let (hits, skipped) = self.chunks_overlapping(start, end);
        counts.chunks_skipped = skipped;
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

    fn rollup_bytes(&self) -> usize {
        self.sealed
            .iter()
            .map(|s| {
                s.rollups
                    .as_ref()
                    .map_or(0, |r| r.len() * RollupBucket::SIZE_BYTES)
            })
            .sum()
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
    /// Bytes of seal-time rollup summaries (the cost of fast serving).
    pub rollup_bytes: usize,
}

/// The time-series database.
#[derive(Debug)]
pub struct Tsdb {
    pub(crate) series: Vec<Series>,
    by_key: HashMap<String, SeriesId>,
    by_metric: HashMap<String, Vec<SeriesId>>,
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
        assert!(chunk_size >= 2, "chunk size too small");
        assert!(
            rollup_interval.as_seconds() > 0,
            "rollup interval must be positive"
        );
        Tsdb {
            series: Vec::new(),
            by_key: HashMap::new(),
            by_metric: HashMap::new(),
            chunk_size,
            rollup_interval,
        }
    }

    /// The rollup bucket width this store materializes at seal time.
    pub fn rollup_interval(&self) -> Span {
        self.rollup_interval
    }

    /// Intern a series by metric + tags, returning its id (existing or
    /// freshly created). Ids are dense and never reused, so callers — the
    /// ingest runtime's lanes in particular — may cache them indefinitely.
    pub fn intern(&mut self, metric: &str, tags: &TagSet) -> SeriesId {
        let key = series_key(metric, tags);
        match self.by_key.get(&key) {
            Some(&id) => id,
            None => {
                let id = SeriesId(self.series.len() as u32);
                self.series
                    .push(Series::new(metric.to_string(), tags.clone()));
                self.by_key.insert(key, id);
                self.by_metric
                    .entry(metric.to_string())
                    .or_default()
                    .push(id);
                id
            }
        }
    }

    /// Append a run of points to an already-interned series, checking the
    /// seal threshold after every point — byte-identical to calling
    /// [`Tsdb::put`] once per point, minus the per-point key build and map
    /// probe. Unknown ids are ignored (ids only come from this store).
    pub fn append_run(&mut self, id: SeriesId, pts: &[(Timestamp, f64)]) {
        let interval = self.rollup_interval;
        let chunk_size = self.chunk_size;
        if let Some(series) = self.series.get_mut(id.0 as usize) {
            for &(t, v) in pts {
                series.push_point(t, v, interval);
                if series.open.len() >= chunk_size {
                    series.seal_at_threshold(interval, chunk_size);
                }
            }
        }
    }

    /// Monotone total of compressed bytes this store has encoded (seal
    /// chunks plus retention re-encodes). Snapshot deltas of this feed the
    /// ingest runtime's per-shard `encoded_bytes` counters.
    pub fn encoded_bytes_total(&self) -> u64 {
        self.series.iter().map(|s| s.encoded_bytes_total).sum()
    }

    /// Insert a data point, interning its series on first sight.
    pub fn put(&mut self, point: &DataPoint) -> SeriesId {
        let id = self.intern(&point.metric, &point.tags);
        // by_key and series grow together, so an interned id is always in
        // range; the fallback keeps this path panic-free regardless.
        if let Some(series) = self.series.get_mut(id.0 as usize) {
            series.push_point(point.time, point.value, self.rollup_interval);
            if series.open.len() >= self.chunk_size {
                series.seal_at_threshold(self.rollup_interval, self.chunk_size);
            }
        }
        id
    }

    /// Batched ingest: insert every point, interning series on first sight.
    /// Returns the number of points written. The single-shard building
    /// block of [`crate::shard::ShardedTsdb::put_batch`] — batching lets a
    /// shard be locked once per batch instead of once per point.
    pub fn put_batch(&mut self, points: &[DataPoint]) -> u64 {
        for p in points {
            self.put(p);
        }
        points.len() as u64
    }

    /// All series ids for a metric.
    pub fn series_for_metric(&self, metric: &str) -> &[SeriesId] {
        self.by_metric.get(metric).map(Vec::as_slice).unwrap_or(&[])
    }

    /// A series id by exact metric + tags.
    pub fn series_id(&self, metric: &str, tags: &TagSet) -> Option<SeriesId> {
        self.by_key.get(&series_key(metric, tags)).copied()
    }

    /// The tag set of a series, if the id is known.
    pub fn tags(&self, id: SeriesId) -> Option<&TagSet> {
        self.series.get(id.0 as usize).map(|s| &s.tags)
    }

    /// The metric name of a series, if the id is known.
    pub fn metric(&self, id: SeriesId) -> Option<&str> {
        self.series.get(id.0 as usize).map(|s| s.metric.as_str())
    }

    /// All distinct metric names (sorted).
    pub fn metrics(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.by_metric.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Points of one series in `[start, end)`, time-sorted. Corrupt chunks
    /// are silently quarantined; use [`Tsdb::read_with_quarantine`] when the
    /// caller needs to know how much data was unreadable.
    pub fn read(
        &self,
        id: SeriesId,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<Vec<(Timestamp, f64)>, TsdbError> {
        self.read_with_quarantine(id, start, end)
            .map(|(pts, _)| pts)
    }

    /// Like [`Tsdb::read`], but also reports chunks that failed to decode
    /// and were skipped (graceful degradation under storage corruption).
    pub fn read_with_quarantine(
        &self,
        id: SeriesId,
        start: Timestamp,
        end: Timestamp,
    ) -> Result<(Vec<(Timestamp, f64)>, QuarantineReport), TsdbError> {
        Ok(self
            .series
            .get(id.0 as usize)
            .ok_or(TsdbError::UnknownSeries(id))?
            .collect(start, end))
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

    /// Number of points stored for a series (0 for unknown ids).
    pub fn point_count(&self, id: SeriesId) -> u64 {
        self.series.get(id.0 as usize).map_or(0, |s| s.points)
    }

    /// Storage statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            series: self.series.len(),
            points: self.series.iter().map(|s| s.points).sum(),
            chunks: self.series.iter().map(|s| s.sealed.len()).sum(),
            bytes: self.series.iter().map(Series::compressed_bytes).sum(),
            rollup_bytes: self.series.iter().map(Series::rollup_bytes).sum(),
        }
    }

    /// Force-seal all open buffers (e.g. before measuring compression).
    pub fn seal_all(&mut self) {
        for s in &mut self.series {
            s.seal_open(self.rollup_interval);
        }
    }

    /// Retention: drop all data strictly before `cutoff`. Sealed chunks that
    /// straddle the cutoff are re-encoded. Returns points dropped, or the
    /// first error from a corrupt straddling chunk — one that fails to
    /// decode, or decodes into points no chunk can hold
    /// ([`TsdbError::UnencodableChunk`]). Such a chunk is kept as-is.
    pub fn evict_before(&mut self, cutoff: Timestamp) -> Result<u64, TsdbError> {
        let mut dropped = 0u64;
        let mut first_err = None;
        let rollup_interval = self.rollup_interval;
        for s in &mut self.series {
            let mut kept_sealed = Vec::with_capacity(s.sealed.len());
            let mut reencoded_bytes = 0u64;
            for sc in s.sealed.drain(..) {
                if sc.end < cutoff {
                    dropped += u64::from(sc.chunk.count());
                } else if sc.start >= cutoff {
                    kept_sealed.push(sc);
                } else {
                    // Straddles: re-encode the surviving tail.
                    let tail = sc.chunk.decode().and_then(|pts| {
                        let tail: Vec<_> = pts.into_iter().filter(|&(t, _)| t >= cutoff).collect();
                        match unencodable_gap(&tail) {
                            Some(gap) => Err(TsdbError::UnencodableChunk { gap }),
                            None => Ok(tail),
                        }
                    });
                    let pts = match tail {
                        Ok(pts) => pts,
                        Err(e) => {
                            // Keep the corrupt chunk rather than guess.
                            first_err.get_or_insert(e);
                            kept_sealed.push(sc);
                            continue;
                        }
                    };
                    dropped += u64::from(sc.chunk.count()) - pts.len() as u64;
                    if let (Some(&(start, _)), Some(&(end, _))) = (pts.first(), pts.last()) {
                        let mut enc = GorillaEncoder::new();
                        for &(t, v) in &pts {
                            enc.append(t, v);
                        }
                        let chunk = enc.finish();
                        reencoded_bytes += chunk.size_bytes() as u64;
                        // Rollups rebuilt over the surviving points only:
                        // the truncated leading bucket summarizes exactly
                        // what a raw decode of the new chunk would see.
                        kept_sealed.push(SealedChunk {
                            chunk,
                            start,
                            end,
                            rollups: Some(build_rollups(&pts, rollup_interval)),
                        });
                    }
                }
            }
            s.sealed = kept_sealed;
            s.encoded_bytes_total += reencoded_bytes;
            s.rebuild_index();
            let before = s.open.len();
            s.open.retain(|&(t, _)| t >= cutoff);
            dropped += (before - s.open.len()) as u64;
            if before != s.open.len() {
                // Retention rewrote the open buffer underneath the
                // streaming encoder; rebuild it over what survived.
                s.rescan_open_span();
                s.rebuild_stream(rollup_interval);
            }
        }
        // Recompute per-series point counts after sealed drops.
        for s in &mut self.series {
            let sealed_pts: u64 = s.sealed.iter().map(|c| u64::from(c.chunk.count())).sum();
            s.points = sealed_pts + s.open.len() as u64;
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(dropped),
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

    #[test]
    fn put_and_read_roundtrip() {
        let mut db = Tsdb::new();
        for i in 0..100 {
            db.put(&dp("m", "n1", i * 300, i as f64));
        }
        let tags = db.tags(SeriesId(0)).expect("series 0 exists").clone();
        let id = db.series_id("m", &tags).expect("series exists");
        let pts = db.read(id, Timestamp(0), Timestamp(100 * 300)).unwrap();
        assert_eq!(pts.len(), 100);
        assert_eq!(pts[7], (Timestamp(7 * 300), 7.0));
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
        let pts = db
            .read(SeriesId(0), Timestamp(0), Timestamp(i64::MAX / 2))
            .unwrap();
        assert_eq!(pts.len(), 25);
    }

    #[test]
    fn out_of_order_within_open_buffer() {
        let mut db = Tsdb::with_chunk_size(100);
        db.put(&dp("m", "n1", 600, 2.0));
        db.put(&dp("m", "n1", 0, 0.0));
        db.put(&dp("m", "n1", 300, 1.0));
        let pts = db
            .read(SeriesId(0), Timestamp(0), Timestamp(10_000))
            .unwrap();
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
        let pts = db
            .read(SeriesId(0), Timestamp(0), Timestamp(10_000))
            .unwrap();
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
        let pts = db
            .read(SeriesId(0), Timestamp(1000), Timestamp(2000))
            .unwrap();
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
    fn retention_drops_old_points() {
        let mut db = Tsdb::with_chunk_size(10);
        for i in 0..100 {
            db.put(&dp("m", "n1", i * 100, i as f64));
        }
        let dropped = db.evict_before(Timestamp(5000)).unwrap();
        assert_eq!(dropped, 50);
        let pts = db
            .read(SeriesId(0), Timestamp(0), Timestamp(100 * 100))
            .unwrap();
        assert_eq!(pts.len(), 50);
        assert!(pts.iter().all(|&(t, _)| t >= Timestamp(5000)));
        assert_eq!(db.point_count(SeriesId(0)), 50);
        assert_eq!(db.stats().points, 50);
    }

    #[test]
    fn retention_straddling_chunk_reencoded() {
        let mut db = Tsdb::with_chunk_size(10);
        for i in 0..10 {
            db.put(&dp("m", "n1", i * 100, i as f64));
        }
        // Chunk spans 0..900; cutoff mid-chunk.
        let dropped = db.evict_before(Timestamp(450)).unwrap();
        assert_eq!(dropped, 5);
        let pts = db
            .read(SeriesId(0), Timestamp(0), Timestamp(10_000))
            .unwrap();
        assert_eq!(pts.len(), 5);
        assert_eq!(pts.first().unwrap().0, Timestamp(500));
    }

    #[test]
    fn retention_keeps_a_decodable_chunk_it_cannot_reencode() {
        // A bit flip can leave a chunk decodable into timestamps that run
        // backwards or lie 2²⁶ s apart, which no chunk can hold. Find the
        // first such flip of one chunk, then evict through the middle of it.
        let build = || {
            let mut db = Tsdb::with_chunk_size(10);
            for i in 0..10 {
                db.put(&dp("m", "n1", i * 100, i as f64));
            }
            db
        };
        let bits = build().series[0].sealed[0].chunk.size_bytes() as u64 * 8;
        let found = (0..bits).find_map(|bit| {
            let mut db = build();
            if db.flip_chunk_bit(0, bit) != BitFlipOutcome::StillReadable {
                return None;
            }
            let sc = &db.series[0].sealed[0];
            let cutoff = Timestamp(sc.start.0.saturating_add(1));
            let pts = sc.chunk.decode().ok()?;
            let tail: Vec<i64> = pts
                .iter()
                .map(|&(t, _)| t.0)
                .filter(|&t| t >= cutoff.0)
                .collect();
            let bad = tail
                .windows(2)
                .any(|w| w[1] < w[0] || w[1].saturating_sub(w[0]) >= 1 << 26);
            (bad && cutoff <= sc.end).then_some((db, cutoff))
        });
        let (mut db, cutoff) = found.expect("some flip decodes into an unencodable chunk");
        let before = db.stats();
        let err = db.evict_before(cutoff).unwrap_err();
        assert!(matches!(err, TsdbError::UnencodableChunk { .. }), "{err:?}");
        assert_eq!(db.stats(), before, "the chunk is kept as-is");
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
        let (pts, q) = db
            .read_with_quarantine(SeriesId(0), Timestamp(0), Timestamp(10_000))
            .unwrap();
        assert_eq!(q.chunks, 1);
        assert_eq!(q.points, 10);
        assert_eq!(pts.len(), 20);
        // Plain read agrees, and the conservation invariant holds.
        assert_eq!(
            db.read(SeriesId(0), Timestamp(0), Timestamp(10_000))
                .unwrap()
                .len(),
            20
        );
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
    fn metrics_listing() {
        let mut db = Tsdb::new();
        db.put(&dp("b.metric", "n", 0, 1.0));
        db.put(&dp("a.metric", "n", 0, 1.0));
        assert_eq!(db.metrics(), vec!["a.metric", "b.metric"]);
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
        let pts = db
            .read(SeriesId(0), Timestamp(0), Timestamp(10_000))
            .unwrap();
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
        assert_eq!(db.point_count(SeriesId(0)), 3);
        let pts = db
            .read(SeriesId(0), Timestamp(0), Timestamp(10_000))
            .unwrap();
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
        let pts = db
            .read(SeriesId(0), Timestamp(0), Timestamp(10_000))
            .unwrap();
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
            a.read(SeriesId(0), Timestamp(0), Timestamp(i64::MAX / 2))
                .unwrap(),
            b.read(SeriesId(0), Timestamp(0), Timestamp(i64::MAX / 2))
                .unwrap()
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
