//! Sharded storage: N independent [`Tsdb`] partitions behind `RwLock`s.
//!
//! Series are partitioned by an FNV-1a hash of the canonical series key
//! (`metric{k1=v1,...}`), so every series lives in exactly one shard and a
//! point's destination is a pure function of its identity — stable across
//! runs, process restarts, and shard counts that divide the hash space the
//! same way. Each shard owns its own intern map, sealed chunks, and open
//! buffers; writers contend only within a shard, and a batched write locks
//! each touched shard once.
//!
//! Queries run in two phases (see [`crate::query`]): every shard *collects*
//! per-series points under a read lock, the collections are merged in shard
//! index order, and cross-series aggregation happens once over the merged
//! set. Aggregating per shard and then combining would be wrong (an average
//! of averages weights shards, not points) — the two-phase split is what
//! makes an N-shard store return byte-identical query results to a 1-shard
//! store.
//!
//! The serving stack on top of that ([`ServePolicy`]):
//!
//! * **Epochs** — every shard carries an atomic epoch counter bumped by
//!   each mutation; the [`QueryCache`] validates against them, so
//!   invalidation is deterministic (no wall clock, lint R5).
//! * **Seal-aware cache** — finalized results are reused while *all*
//!   epochs match; per-shard phase-1 collections are reused while *their*
//!   shard's epoch matches, so sustained ingest into one shard only forces
//!   re-collection of that shard.
//! * **Rollups + block index** — inside each shard, downsample queries are
//!   answered from seal-time rollups and non-overlapping chunks are
//!   skipped via the block index (see [`crate::rollup`], [`crate::store`]).

use crate::cache::{query_signature, CacheStats, QueryCache};
use crate::error::TsdbError;
use crate::model::{series_key, DataPoint, TagSet};
use crate::query::{collect_groups, finalize_groups, GroupCollection, Query, QueryResult};
use crate::store::{
    BitFlipOutcome, IntegrityReport, QuarantineReport, ScanCounts, StoreStats, Tsdb,
    DEFAULT_CHUNK_SIZE, DEFAULT_ROLLUP_INTERVAL,
};
use ctt_core::time::{Span, Timestamp};
use ctt_obs::{Counter, Registry};
// lint:allow(shared): ShardedTsdb is Sync (shard_stress, ingest_sharded readers)
use parking_lot::RwLock;
use std::collections::BTreeMap;
// lint:allow(shared): the query cache reads each shard's epoch without its lock
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default shard count: matches the ingest worker pool's default width.
pub const DEFAULT_SHARDS: usize = 4;

/// FNV-1a 64-bit hash — deterministic (unlike `std`'s `RandomState`), so
/// shard assignment is replay-stable across processes and runs.
fn fnv1a(key: &str) -> u64 {
    fnv1a_step(0xcbf2_9ce4_8422_2325, key.as_bytes())
}

/// Fold more bytes into a running FNV-1a 64-bit state.
#[inline]
fn fnv1a_step(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64-bit hash of the canonical series key (`metric{k1=v1,...}`),
/// folded incrementally over the key's exact byte sequence — no key string
/// is allocated. Equal to hashing [`series_key`]'s output (pinned by a
/// unit test), so routing by this hash agrees with
/// [`ShardedTsdb::shard_of_key`]. This is the ingest runtime's submit-path
/// router: one hash, zero allocations, per point.
#[inline]
pub fn series_key_hash(metric: &str, tags: &TagSet) -> u64 {
    let mut h = fnv1a_step(0xcbf2_9ce4_8422_2325, metric.as_bytes());
    h = fnv1a_step(h, b"{");
    for (i, (k, v)) in tags.iter().enumerate() {
        if i > 0 {
            h = fnv1a_step(h, b",");
        }
        h = fnv1a_step(h, k.as_bytes());
        h = fnv1a_step(h, b"=");
        h = fnv1a_step(h, v.as_bytes());
    }
    fnv1a_step(h, b"}")
}

/// Which serving layers a query may use. The default ([`ServePolicy::full`])
/// is the fast path; [`ServePolicy::raw`] forces the reference raw-decode
/// path the equivalence suite compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServePolicy {
    /// Consult and populate the seal-aware query cache.
    pub cache: bool,
    /// Serve downsample buckets from seal-time rollups where provable.
    pub rollups: bool,
    /// No effect — kept only because `benchmark/` names it. Phase-1
    /// collection always runs on the calling thread, in shard order.
    pub parallel: bool,
}

impl ServePolicy {
    /// Every serving layer enabled.
    pub fn full() -> Self {
        ServePolicy {
            cache: true,
            rollups: true,
            parallel: true,
        }
    }

    /// Reference path: uncached, raw chunk decode only.
    pub fn raw() -> Self {
        ServePolicy {
            cache: false,
            rollups: false,
            parallel: false,
        }
    }
}

impl Default for ServePolicy {
    fn default() -> Self {
        ServePolicy::full()
    }
}

/// Per-shard observability counters, registered as `tsdb.shard<i>.*`.
/// Detached (uncounted into any registry) until
/// [`ShardedTsdb::attach_registry`] is called; counter handles are atomics,
/// so shard instrumentation never takes the registry lock on the data path.
#[derive(Debug, Clone, Default)]
struct ShardObs {
    puts: Counter,
    queries: Counter,
    quarantined_points: Counter,
    blocks_skipped: Counter,
    chunks_decoded: Counter,
    rollup_buckets: Counter,
    raw_buckets: Counter,
}

impl ShardObs {
    fn record_scan(&self, counts: ScanCounts) {
        self.blocks_skipped.add(counts.chunks_skipped);
        self.chunks_decoded.add(counts.chunks_decoded);
        self.rollup_buckets.add(counts.rollup_buckets);
        self.raw_buckets.add(counts.raw_buckets);
    }
}

type ShardCollections = BTreeMap<TagSet, GroupCollection>;

/// A time-series database partitioned across N single-owner shards.
#[derive(Debug)]
pub struct ShardedTsdb {
    shards: Vec<Arc<RwLock<Tsdb>>>,
    /// Per-shard mutation epochs: bumped by every write-path mutation,
    /// read (lock-free) by the cache validation.
    epochs: Vec<Arc<AtomicU64>>,
    obs: Vec<ShardObs>,
    cache: QueryCache,
}

impl Default for ShardedTsdb {
    fn default() -> Self {
        ShardedTsdb::new(DEFAULT_SHARDS)
    }
}

impl ShardedTsdb {
    /// New store with `shards` partitions (clamped to at least 1) and the
    /// default points-per-chunk.
    pub fn new(shards: usize) -> Self {
        ShardedTsdb::with_chunk_size(shards, DEFAULT_CHUNK_SIZE)
    }

    /// New store with a custom points-per-chunk in every shard.
    pub fn with_chunk_size(shards: usize, chunk_size: usize) -> Self {
        ShardedTsdb::with_layout(shards, chunk_size, DEFAULT_ROLLUP_INTERVAL)
    }

    /// New store with custom points-per-chunk and rollup interval in every
    /// shard (see [`Tsdb::with_layout`]).
    pub fn with_layout(shards: usize, chunk_size: usize, rollup_interval: Span) -> Self {
        let n = shards.max(1);
        ShardedTsdb {
            shards: (0..n)
                .map(|_| Arc::new(RwLock::new(Tsdb::with_layout(chunk_size, rollup_interval))))
                .collect(),
            epochs: (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect(),
            obs: vec![ShardObs::default(); n],
            cache: QueryCache::default(),
        }
    }

    /// Register per-shard put/query/quarantine/scan counters (as
    /// `tsdb.shard<i>.*`) and the cache counters (`tsdb.cache.*`) into
    /// `registry`. Counts accumulated before attachment are discarded —
    /// attach before ingest starts.
    pub fn attach_registry(&mut self, registry: &Registry) {
        self.obs = (0..self.shards.len())
            .map(|i| ShardObs {
                puts: registry.counter(&format!("tsdb.shard{i}.puts")),
                queries: registry.counter(&format!("tsdb.shard{i}.queries")),
                quarantined_points: registry.counter(&format!("tsdb.shard{i}.quarantined_points")),
                blocks_skipped: registry.counter(&format!("tsdb.shard{i}.blocks_skipped")),
                chunks_decoded: registry.counter(&format!("tsdb.shard{i}.chunks_decoded")),
                rollup_buckets: registry.counter(&format!("tsdb.shard{i}.rollup_buckets")),
                raw_buckets: registry.counter(&format!("tsdb.shard{i}.raw_buckets")),
            })
            .collect();
        self.cache.attach_registry(registry);
    }

    fn obs_of(&self, shard: usize) -> Option<&ShardObs> {
        self.obs.get(shard)
    }

    /// Bump a shard's mutation epoch (Release: pairs with the Acquire load
    /// in cache validation).
    fn bump_epoch(&self, shard: usize) {
        if let Some(e) = self.epochs.get(shard) {
            e.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Current mutation epoch of one shard (0 for out-of-range indices).
    pub fn epoch(&self, shard: usize) -> u64 {
        self.epochs
            .get(shard)
            .map_or(0, |e| e.load(Ordering::Acquire))
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index that owns a canonical series key.
    pub fn shard_of_key(&self, key: &str) -> usize {
        (fnv1a(key) % self.shards.len() as u64) as usize
    }

    /// The shard index that owns a precomputed [`series_key_hash`]. Agrees
    /// with [`ShardedTsdb::shard_of_key`] for the same metric + tags.
    pub fn shard_of_hash(&self, hash: u64) -> usize {
        (hash % self.shards.len() as u64) as usize
    }

    /// A standalone write handle for one shard, for the ingest runtime: it
    /// holds its own `Arc`s to the shard's store and epoch (plus a clone of
    /// the shard's `puts` counter), so its owner does not borrow the
    /// `ShardedTsdb`. Writes through the handle bump the same epoch the
    /// query cache validates against, so serving stays correct regardless
    /// of which path wrote. `None` for out-of-range indices.
    ///
    /// Call after [`ShardedTsdb::attach_registry`]: the handle captures the
    /// shard's current counter, and attaching replaces counters.
    pub fn writer(&self, shard: usize) -> Option<ShardWriter> {
        Some(ShardWriter {
            store: Arc::clone(self.shards.get(shard)?),
            epoch: Arc::clone(self.epochs.get(shard)?),
            puts: self.obs.get(shard)?.puts.clone(),
            shard,
        })
    }

    /// Cache hit/miss/eviction counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drop every cached query entry (benchmark hygiene).
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Insert one data point. Prefer [`ShardedTsdb::put_batch`] on the hot
    /// path — it locks each touched shard once per batch, not per point.
    pub fn put(&self, point: &DataPoint) {
        let shard = self.shard_of_key(&point.series_key());
        if let Some(s) = self.shards.get(shard) {
            s.write().put(point);
            self.bump_epoch(shard);
            if let Some(o) = self.obs_of(shard) {
                o.puts.inc();
            }
        }
    }

    /// Batched ingest: bucket points by owning shard, then lock each
    /// touched shard exactly once. Untouched shards keep their epoch, so
    /// their cached collections stay valid. Returns points written.
    pub fn put_batch(&self, points: &[DataPoint]) -> u64 {
        let mut buckets: Vec<Vec<&DataPoint>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for p in points {
            let shard = self.shard_of_key(&p.series_key());
            if let Some(bucket) = buckets.get_mut(shard) {
                bucket.push(p);
            }
        }
        let mut written = 0u64;
        for (i, (shard, bucket)) in self.shards.iter().zip(&buckets).enumerate() {
            if bucket.is_empty() {
                continue;
            }
            {
                let mut guard = shard.write();
                for p in bucket {
                    guard.put(p);
                    written += 1;
                }
            }
            self.bump_epoch(i);
            if let Some(o) = self.obs_of(i) {
                o.puts.add(bucket.len() as u64);
            }
        }
        written
    }

    /// Execute a query with the full serving stack (cache + rollups).
    /// Byte-identical to running the same query against a single [`Tsdb`]
    /// holding all the data.
    pub fn execute(&self, q: &Query) -> Result<Vec<QueryResult>, TsdbError> {
        self.execute_with(q, ServePolicy::full())
    }

    /// Execute a query with an explicit [`ServePolicy`]. All policies
    /// return byte-identical results — the policy only chooses how much
    /// work is skipped getting there.
    pub fn execute_with(
        &self,
        q: &Query,
        policy: ServePolicy,
    ) -> Result<Vec<QueryResult>, TsdbError> {
        // Count the query on every shard up front: cache-served queries
        // are still queries, and miss/hit ratios depend on this base rate.
        for i in 0..self.shards.len() {
            if let Some(o) = self.obs_of(i) {
                o.queries.inc();
            }
        }
        // Epochs are read *before* collecting: a write racing with the
        // collection can only make the stored entry look older than its
        // data, so a stale entry is never served after the epoch bump.
        let epochs: Vec<u64> = self
            .epochs
            .iter()
            .map(|e| e.load(Ordering::Acquire))
            .collect();
        let sig = policy.cache.then(|| query_signature(q));
        if let Some(sig) = &sig {
            if let Some(results) = self.cache.get_results(sig, &epochs) {
                return Ok(results);
            }
        }
        // A miss: one key, shared by the result entry and every shard entry.
        let sig: Option<Arc<str>> = sig.map(Arc::from);
        // Per-shard phase-1 collections: cache-valid shards are reused, the
        // rest are collected under their read lock, in shard order. Cache
        // locks and shard locks are never held together.
        let n = self.shards.len();
        let mut collections: Vec<Option<ShardCollections>> = (0..n).map(|_| None).collect();
        if let Some(sig) = &sig {
            for (i, slot) in collections.iter_mut().enumerate() {
                *slot = self
                    .cache
                    .get_collection(sig, i, epochs.get(i).copied().unwrap_or(0));
            }
        }
        for (i, (slot, shard)) in collections.iter_mut().zip(&self.shards).enumerate() {
            if slot.is_some() {
                continue;
            }
            let collected = collect_groups(&shard.read(), q, policy.rollups)?;
            if let Some(o) = self.obs_of(i) {
                let mut counts = ScanCounts::default();
                for c in collected.values() {
                    counts.merge(c.counts);
                }
                o.record_scan(counts);
            }
            if let Some(sig) = &sig {
                self.cache.put_collection(
                    sig,
                    i,
                    epochs.get(i).copied().unwrap_or(0),
                    collected.clone(),
                );
            }
            *slot = Some(collected);
        }
        // Merge in shard index order; finalize once over the merged set.
        let mut merged: ShardCollections = BTreeMap::new();
        for coll in collections.into_iter().flatten() {
            for (group, c) in coll {
                merged.entry(group).or_default().merge(c);
            }
        }
        let results = finalize_groups(merged, q);
        if let Some(sig) = sig {
            self.cache.put_results(sig, epochs, results.clone());
        }
        Ok(results)
    }

    /// Raw points of one exactly-identified series in `[start, end)`, with
    /// the quarantine report. `None` when the series is unknown. Routes
    /// directly to the owning shard — a point lookup touches one lock.
    pub fn read_series(
        &self,
        metric: &str,
        tags: &TagSet,
        start: Timestamp,
        end: Timestamp,
    ) -> Option<(Vec<(Timestamp, f64)>, QuarantineReport)> {
        let shard = self.shard_of_key(&series_key(metric, tags));
        // Count before the lookup resolves: unknown-series probes are real
        // query traffic, and hiding them skews every hit/miss ratio built
        // on this counter.
        if let Some(o) = self.obs_of(shard) {
            o.queries.inc();
        }
        let guard = self.shards.get(shard)?.read();
        let id = guard.series_id(metric, tags)?;
        guard.read_with_quarantine(id, start, end).ok()
    }

    /// Storage statistics summed across shards.
    pub fn stats(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for s in &self.shards {
            let st = s.read().stats();
            total.series += st.series;
            total.points += st.points;
            total.chunks += st.chunks;
            total.bytes += st.bytes;
            total.rollup_bytes += st.rollup_bytes;
        }
        total
    }

    /// Per-shard statistics, in shard order (balance inspection).
    pub fn per_shard_stats(&self) -> Vec<StoreStats> {
        self.shards.iter().map(|s| s.read().stats()).collect()
    }

    /// All distinct metric names across shards (sorted, deduplicated).
    pub fn metrics(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in &self.shards {
            let guard = s.read();
            out.extend(guard.metrics().into_iter().map(str::to_string));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Force-seal all open buffers in every shard.
    pub fn seal_all(&self) {
        for (i, s) in self.shards.iter().enumerate() {
            s.write().seal_all();
            self.bump_epoch(i);
        }
    }

    /// Retention across all shards: drop data strictly before `cutoff`.
    /// Returns total points dropped; if any shard hits a corrupt straddling
    /// chunk the first error is reported after every shard has been swept
    /// (no shard is skipped because an earlier one was corrupt).
    pub fn evict_before(&self, cutoff: Timestamp) -> Result<u64, TsdbError> {
        let mut dropped = 0u64;
        let mut first_err = None;
        for (i, s) in self.shards.iter().enumerate() {
            let swept = s.write().evict_before(cutoff);
            self.bump_epoch(i);
            match swept {
                Ok(n) => dropped += n,
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(dropped),
        }
    }

    /// Trial-decode every sealed chunk in every shard. The conservation
    /// invariant `readable_points + quarantined_points == stats().points`
    /// holds across the whole sharded store, so the chaos loss ledger
    /// balances exactly as it did against the flat store.
    pub fn integrity_scan(&self) -> IntegrityReport {
        let mut total = IntegrityReport::default();
        for s in &self.shards {
            let r = s.read().integrity_scan();
            total.readable_points += r.readable_points;
            total.quarantined_chunks += r.quarantined_chunks;
            total.quarantined_points += r.quarantined_points;
        }
        total
    }

    /// Fault injection: flip one bit in the `nth` sealed chunk, counting
    /// chunks across shards in shard order (modulo the global total), and
    /// report the outcome. Deterministic for a fixed ingest history.
    pub fn flip_chunk_bit(&self, nth_chunk: u64, bit: u64) -> BitFlipOutcome {
        let counts: Vec<usize> = self
            .shards
            .iter()
            .map(|s| s.read().stats().chunks)
            .collect();
        let total: usize = counts.iter().sum();
        if total == 0 {
            return BitFlipOutcome::NoChunks;
        }
        let mut target = (nth_chunk % total as u64) as usize;
        for (i, (shard, &count)) in self.shards.iter().zip(&counts).enumerate() {
            if target >= count {
                target -= count;
                continue;
            }
            let outcome = shard.write().flip_chunk_bit(target as u64, bit);
            // Any successful flip mutated stored bytes (and dropped the
            // chunk's rollups): cached answers over them are invalid.
            if !matches!(
                outcome,
                BitFlipOutcome::NoChunks | BitFlipOutcome::BitOutOfRange
            ) {
                self.bump_epoch(i);
            }
            if let BitFlipOutcome::Quarantined { points } = outcome {
                if let Some(o) = self.obs_of(i) {
                    o.quarantined_points.add(u64::from(points));
                }
            }
            return outcome;
        }
        BitFlipOutcome::NoChunks
    }
}

/// A write handle bound to one shard of a [`ShardedTsdb`] (see
/// [`ShardedTsdb::writer`]). The ingest runtime keeps exactly one per
/// shard, in the lane that stages that shard's points.
#[derive(Debug, Clone)]
pub struct ShardWriter {
    store: Arc<RwLock<Tsdb>>,
    epoch: Arc<AtomicU64>,
    puts: Counter,
    shard: usize,
}

impl ShardWriter {
    /// The shard index this handle writes.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Open a write session: the shard lock is taken once and held until
    /// the session drops, which is when the epoch bump and put-counter
    /// update publish everything the session wrote. Readers (queries, the
    /// cache) either see the shard wholly before or wholly after the
    /// session — never a half-applied batch.
    pub fn session(&self) -> ShardWriteSession<'_> {
        ShardWriteSession {
            guard: self.store.write(),
            epoch: &self.epoch,
            puts: &self.puts,
            written: 0,
        }
    }
}

/// One atomic batch of writes against a single shard, created by
/// [`ShardWriter::session`]. Dropping the session publishes: the shard
/// epoch is bumped (once, iff anything was written) and the shard's `puts`
/// counter advances by the points written — the same observable effects
/// per batch as [`ShardedTsdb::put_batch`] on that shard.
pub struct ShardWriteSession<'a> {
    // lint:allow(shared): a session holds its shard's write lock until it drops
    guard: parking_lot::RwLockWriteGuard<'a, Tsdb>,
    epoch: &'a AtomicU64,
    puts: &'a Counter,
    written: u64,
}

impl std::fmt::Debug for ShardWriteSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardWriteSession")
            .field("written", &self.written)
            .finish_non_exhaustive()
    }
}

impl ShardWriteSession<'_> {
    /// Intern a series in this shard (see [`Tsdb::intern`]). The id is
    /// stable for the shard's lifetime, so callers may cache it.
    pub fn intern(&mut self, metric: &str, tags: &TagSet) -> crate::store::SeriesId {
        self.guard.intern(metric, tags)
    }

    /// Append a time-ordered-as-received run of points to an interned
    /// series, sealing at thresholds exactly as per-point `put` would.
    pub fn append_run(&mut self, id: crate::store::SeriesId, pts: &[(Timestamp, f64)]) {
        self.guard.append_run(id, pts);
        self.written += pts.len() as u64;
    }

    /// Monotone compressed-bytes total of this shard (for encoded-bytes
    /// deltas without re-taking the lock).
    pub fn encoded_bytes_total(&self) -> u64 {
        self.guard.encoded_bytes_total()
    }
}

impl Drop for ShardWriteSession<'_> {
    fn drop(&mut self) {
        if self.written > 0 {
            // Release-ordered bump after the writes, matching
            // `ShardedTsdb::bump_epoch`: cache validation that loads the
            // new epoch observes the session's writes.
            self.epoch.fetch_add(1, Ordering::AcqRel);
            self.puts.add(self.written);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Aggregator;
    use ctt_core::time::Span;

    fn dp(metric: &str, device: &str, t: i64, v: f64) -> DataPoint {
        DataPoint::new(
            metric,
            vec![("device".to_string(), device.to_string())],
            Timestamp(t),
            v,
        )
        .unwrap()
    }

    fn fill(db: &ShardedTsdb, devices: u32, points: i64) {
        let batch: Vec<DataPoint> = (0..devices)
            .flat_map(|d| {
                (0..points)
                    .map(move |i| dp("m", &format!("n{d}"), i * 300, f64::from(d) + i as f64))
            })
            .collect();
        assert_eq!(db.put_batch(&batch), u64::from(devices) * points as u64);
    }

    #[test]
    fn shards_partition_series_not_points() {
        let db = ShardedTsdb::new(4);
        fill(&db, 16, 40);
        let st = db.stats();
        assert_eq!(st.series, 16);
        assert_eq!(st.points, 16 * 40);
        // Every series lives in exactly one shard.
        let per_shard = db.per_shard_stats();
        assert_eq!(per_shard.iter().map(|s| s.series).sum::<usize>(), 16);
        // 16 hashed series across 4 shards: expect more than one shard used.
        assert!(
            per_shard.iter().filter(|s| s.series > 0).count() > 1,
            "hash failed to spread series: {per_shard:?}"
        );
    }

    #[test]
    fn sharded_query_matches_flat_store() {
        let sharded = ShardedTsdb::with_chunk_size(4, 16);
        let mut flat = Tsdb::with_chunk_size(16);
        for d in 0..6u32 {
            for i in 0..100i64 {
                let p = dp(
                    "m",
                    &format!("n{d}"),
                    i * 300,
                    f64::from(d) * 10.0 + i as f64,
                );
                sharded.put(&p);
                flat.put(&p);
            }
        }
        for q in [
            Query::range("m", Timestamp(0), Timestamp(100 * 300)),
            Query::range("m", Timestamp(0), Timestamp(100 * 300)).group_by("device"),
            Query::range("m", Timestamp(5_000), Timestamp(20_000)).aggregate(Aggregator::P95),
            Query::range("m", Timestamp(0), Timestamp(100 * 300))
                .aggregate(Aggregator::Sum)
                .downsample(crate::query::Downsample {
                    interval: Span::minutes(30),
                    aggregator: Aggregator::Avg,
                    fill: crate::query::FillPolicy::None,
                }),
        ] {
            let a = sharded.execute(&q).unwrap();
            let b = crate::query::execute(&flat, &q).unwrap();
            assert_eq!(a, b, "sharded vs flat diverged on {q:?}");
        }
    }

    #[test]
    fn serve_policies_agree_byte_for_byte() {
        let db = ShardedTsdb::with_layout(4, 16, Span::minutes(30));
        fill(&db, 6, 100);
        db.seal_all();
        let queries = [
            Query::range("m", Timestamp(0), Timestamp(100 * 300)),
            Query::range("m", Timestamp(0), Timestamp(100 * 300))
                .group_by("device")
                .downsample(crate::query::Downsample {
                    interval: Span::minutes(30),
                    aggregator: Aggregator::Avg,
                    fill: crate::query::FillPolicy::None,
                }),
            Query::range("m", Timestamp(3000), Timestamp(21_000)).downsample(
                crate::query::Downsample {
                    interval: Span::minutes(30),
                    aggregator: Aggregator::Max,
                    fill: crate::query::FillPolicy::Previous,
                },
            ),
        ];
        for q in &queries {
            let raw = db.execute_with(q, ServePolicy::raw()).unwrap();
            let full = db.execute_with(q, ServePolicy::full()).unwrap();
            assert_eq!(full, raw, "serving diverged on {q:?}");
            // Second run: served from the result cache, still identical.
            let cached = db.execute_with(q, ServePolicy::full()).unwrap();
            assert_eq!(cached, raw, "cache diverged on {q:?}");
        }
        assert!(db.cache_stats().hits >= queries.len() as u64);
    }

    #[test]
    fn cache_invalidates_on_mutation() {
        let db = ShardedTsdb::with_chunk_size(2, 8);
        fill(&db, 4, 10);
        let q = Query::range("m", Timestamp(0), Timestamp(10_000));
        let before = db.execute(&q).unwrap();
        assert_eq!(db.execute(&q).unwrap(), before, "cached repeat");
        // A new point must invalidate: the cached answer is stale.
        db.put(&dp("m", "n0", 9000, 1234.5));
        let after = db.execute(&q).unwrap();
        assert_ne!(after, before, "epoch bump must invalidate the cache");
        assert_eq!(
            after,
            db.execute_with(&q, ServePolicy::raw()).unwrap(),
            "post-invalidation answer matches raw"
        );
    }

    #[test]
    fn cache_keys_tell_literal_star_and_bar_values_from_filter_kinds() {
        // `*` and `a|b` as literal tag values match no stored series (they
        // are not valid names); a cached wildcard or one-of answer must not
        // be served for them.
        let db = ShardedTsdb::new(2);
        fill(&db, 2, 10);
        let base = || Query::range("m", Timestamp(0), Timestamp(10_000));
        let mut one_of = base();
        one_of.filters.insert(
            "device".to_string(),
            crate::model::TagFilter::OneOf(vec!["n0".to_string(), "n1".to_string()]),
        );
        for (warm, probe) in [
            (base().group_by("device"), base().with_tag("device", "*")),
            (one_of, base().with_tag("device", "n0|n1")),
        ] {
            assert!(!db.execute(&warm).unwrap().is_empty());
            let raw = db.execute_with(&probe, ServePolicy::raw()).unwrap();
            assert!(raw.is_empty());
            assert_eq!(db.execute(&probe).unwrap(), raw, "{probe:?}");
        }
    }

    #[test]
    fn epochs_bump_only_touched_shards() {
        let db = ShardedTsdb::new(4);
        let before: Vec<u64> = (0..4).map(|i| db.epoch(i)).collect();
        let p = dp("m", "n0", 0, 1.0);
        let owner = db.shard_of_key(&p.series_key());
        db.put(&p);
        for (i, &was) in before.iter().enumerate() {
            if i == owner {
                assert_eq!(db.epoch(i), was + 1, "owner shard bumps");
            } else {
                assert_eq!(db.epoch(i), was, "other shards untouched");
            }
        }
    }

    #[test]
    fn read_series_routes_to_owning_shard() {
        let db = ShardedTsdb::new(8);
        fill(&db, 8, 10);
        let tags: TagSet = [("device".to_string(), "n3".to_string())].into();
        let (pts, q) = db
            .read_series("m", &tags, Timestamp(0), Timestamp(10_000))
            .expect("series exists");
        assert_eq!(pts.len(), 10);
        assert_eq!(q, QuarantineReport::default());
        assert!(db
            .read_series("m", &TagSet::new(), Timestamp(0), Timestamp(1))
            .is_none());
    }

    #[test]
    fn unknown_series_lookup_is_counted() {
        let registry = Registry::new();
        let mut db = ShardedTsdb::new(2);
        db.attach_registry(&registry);
        let tags: TagSet = [("device".to_string(), "ghost".to_string())].into();
        let shard = db.shard_of_key(&series_key("m", &tags));
        assert!(db
            .read_series("m", &tags, Timestamp(0), Timestamp(1))
            .is_none());
        let snap = registry.snapshot(Timestamp(0));
        assert_eq!(
            snap.value(&format!("tsdb.shard{shard}.queries")),
            Some(1),
            "a miss is still a query: it must appear in the snapshot"
        );
    }

    #[test]
    fn evict_before_sums_across_shards() {
        let db = ShardedTsdb::with_chunk_size(4, 8);
        fill(&db, 8, 50);
        let dropped = db.evict_before(Timestamp(25 * 300)).unwrap();
        assert_eq!(dropped, 8 * 25);
        assert_eq!(db.stats().points, 8 * 25);
    }

    #[test]
    fn flip_chunk_bit_walks_global_chunk_index() {
        let db = ShardedTsdb::with_chunk_size(4, 8);
        assert_eq!(db.flip_chunk_bit(0, 0), BitFlipOutcome::NoChunks);
        fill(&db, 8, 24);
        db.seal_all();
        let chunks = db.stats().chunks as u64;
        assert!(chunks >= 8);
        for nth in 0..chunks {
            assert_ne!(db.flip_chunk_bit(nth, 1), BitFlipOutcome::NoChunks);
        }
        // Conservation: the scan accounts for every point ever written.
        let scan = db.integrity_scan();
        assert_eq!(
            scan.readable_points + scan.quarantined_points,
            db.stats().points
        );
    }

    #[test]
    fn corruption_invalidates_cached_answers() {
        let db = ShardedTsdb::with_chunk_size(2, 8);
        fill(&db, 4, 24);
        db.seal_all();
        let q = Query::range("m", Timestamp(0), Timestamp(24 * 300));
        let before = db.execute(&q).unwrap();
        // Corrupt until a chunk actually quarantines.
        let mut bit = 1u64;
        loop {
            match db.flip_chunk_bit(1, bit) {
                BitFlipOutcome::Quarantined { .. } => break,
                _ => bit += 7,
            }
        }
        let after = db.execute(&q).unwrap();
        assert_ne!(after, before, "quarantine must not serve stale cache");
        assert_eq!(after, db.execute_with(&q, ServePolicy::raw()).unwrap());
    }

    #[test]
    fn metrics_merged_and_deduped() {
        let db = ShardedTsdb::new(4);
        for d in 0..8u32 {
            db.put(&dp("b.metric", &format!("n{d}"), 0, 1.0));
            db.put(&dp("a.metric", &format!("n{d}"), 0, 1.0));
        }
        assert_eq!(db.metrics(), vec!["a.metric", "b.metric"]);
    }

    #[test]
    fn attached_registry_counts_per_shard_activity() {
        let registry = Registry::new();
        let mut db = ShardedTsdb::with_chunk_size(2, 8);
        db.attach_registry(&registry);
        fill(&db, 4, 10);
        db.execute(&Query::range("m", Timestamp(0), Timestamp(10_000)))
            .unwrap();
        let snap = registry.snapshot(Timestamp(0));
        // Every put lands in exactly one shard's counter.
        let puts = snap.value("tsdb.shard0.puts").unwrap_or(0)
            + snap.value("tsdb.shard1.puts").unwrap_or(0);
        assert_eq!(puts, 40);
        // A fan-out query touches every shard once.
        assert_eq!(snap.value("tsdb.shard0.queries"), Some(1));
        assert_eq!(snap.value("tsdb.shard1.queries"), Some(1));
        // Quarantine counters track points made unreadable by bit flips.
        db.seal_all();
        let mut flipped = 0i128;
        for nth in 0..db.stats().chunks as u64 {
            if let BitFlipOutcome::Quarantined { points } = db.flip_chunk_bit(nth, 1) {
                flipped += i128::from(points);
            }
        }
        let snap = registry.snapshot(Timestamp(0));
        let quarantined = snap.value("tsdb.shard0.quarantined_points").unwrap_or(0)
            + snap.value("tsdb.shard1.quarantined_points").unwrap_or(0);
        assert_eq!(quarantined, flipped);
    }

    #[test]
    fn incremental_key_hash_matches_built_key_hash() {
        let cases: Vec<(String, TagSet)> = vec![
            ("m".to_string(), TagSet::new()),
            (
                "ctt.air.co2".to_string(),
                [
                    ("city".to_string(), "trondheim".to_string()),
                    ("device".to_string(), "70b3000000000001".to_string()),
                ]
                .into(),
            ),
            (
                "x".to_string(),
                [
                    ("a".to_string(), "1".to_string()),
                    ("b".to_string(), "2".to_string()),
                    ("c".to_string(), "3".to_string()),
                ]
                .into(),
            ),
        ];
        let db = ShardedTsdb::new(8);
        for (metric, tags) in cases {
            let key = series_key(&metric, &tags);
            assert_eq!(series_key_hash(&metric, &tags), fnv1a(&key), "{key}");
            assert_eq!(
                db.shard_of_hash(series_key_hash(&metric, &tags)),
                db.shard_of_key(&key)
            );
        }
    }

    #[test]
    fn writer_session_equals_put_batch() {
        // Writing through per-shard sessions must leave the store, epochs,
        // and puts counters exactly as put_batch would.
        let mk = || {
            let registry = Registry::new();
            let mut db = ShardedTsdb::with_chunk_size(4, 8);
            db.attach_registry(&registry);
            (registry, db)
        };
        let points: Vec<DataPoint> = (0..6u32)
            .flat_map(|d| {
                (0..30i64).map(move |i| dp("m", &format!("n{d}"), i * 300, f64::from(d) + i as f64))
            })
            .collect();
        let (reg_a, a) = mk();
        assert_eq!(a.put_batch(&points), points.len() as u64);
        let (reg_b, b) = mk();
        // Route by hash, group per shard preserving arrival order, then
        // apply each shard's bucket through one write session.
        let mut buckets: Vec<Vec<&DataPoint>> = (0..b.shard_count()).map(|_| Vec::new()).collect();
        for p in &points {
            let shard = b.shard_of_hash(series_key_hash(&p.metric, &p.tags));
            if let Some(bucket) = buckets.get_mut(shard) {
                bucket.push(p);
            }
        }
        for (i, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let writer = b.writer(i).expect("shard in range");
            assert_eq!(writer.shard(), i);
            let mut session = writer.session();
            for p in bucket {
                let id = session.intern(&p.metric, &p.tags);
                session.append_run(id, &[(p.time, p.value)]);
            }
        }
        assert_eq!(a.stats(), b.stats());
        for i in 0..a.shard_count() {
            assert_eq!(a.epoch(i), b.epoch(i), "shard {i} epoch");
        }
        let q = Query::range("m", Timestamp(0), Timestamp(30 * 300)).group_by("device");
        assert_eq!(a.execute(&q).unwrap(), b.execute(&q).unwrap());
        let at = Timestamp(0);
        assert_eq!(reg_a.snapshot(at).to_csv(), reg_b.snapshot(at).to_csv());
    }

    #[test]
    fn empty_session_does_not_bump_epoch() {
        let db = ShardedTsdb::new(2);
        let before = db.epoch(0);
        let writer = db.writer(0).expect("shard 0");
        drop(writer.session());
        assert_eq!(db.epoch(0), before);
        assert!(db.writer(99).is_none());
    }

    #[test]
    fn one_shard_degenerates_to_flat_store() {
        let db = ShardedTsdb::new(1);
        assert_eq!(db.shard_count(), 1);
        fill(&db, 3, 10);
        assert_eq!(db.stats().series, 3);
        let db = ShardedTsdb::new(0); // clamped
        assert_eq!(db.shard_count(), 1);
    }
}
