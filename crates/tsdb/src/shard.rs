//! One store per city: a [`Tsdb`], its mutation epoch and the query cache
//! that validates against that epoch, all behind one `Mutex`.
//!
//! The paper gives each city one OpenTSDB behind its dashboards (§2.4), and
//! so does this crate. Every mutation (`put_batch`, `register`, an
//! `append` that wrote, `seal_all`, a successful `flip_chunk_bit`) bumps
//! the epoch under the same guard that changes the data, so the epoch
//! always names exactly the data beside it. A query with the cache on
//! takes the guard once: it looks its answer up at the current epoch and,
//! on a miss, runs [`crate::query`] and stores the answer. Invalidation is
//! deterministic (no wall clock, lint R5).
//!
//! The type keeps its name, and [`ShardedTsdb::new`] its shard-count
//! argument, only because the frozen `benchmark/` harness names them; the
//! store's counters keep the `tsdb.shard0.*` names the harness sums.

use crate::cache::{query_signature, CacheStats, QueryCache};
use crate::error::TsdbError;
use crate::model::{DataPoint, TagSet};
use crate::query::{execute_counted, execute_raw, Query, QueryResult};
use crate::rollup::ColumnBytes;
use crate::store::{
    BitFlipOutcome, IntegrityReport, ScanCounts, SeriesId, StoreStats, Tsdb, DEFAULT_CHUNK_SIZE,
    DEFAULT_ROLLUP_INTERVAL,
};
use ctt_core::time::{Span, Timestamp};
use ctt_obs::{Counter, Registry};
// lint:allow(shared): ShardedTsdb is Sync (shard_stress queries while other threads write)
use parking_lot::Mutex;

/// No effect — kept only because `benchmark/` names it. A city has one
/// store.
pub const DEFAULT_SHARDS: usize = 1;

/// Which serving layers a query may use. The default ([`ServePolicy::full`])
/// is the fast path; [`ServePolicy::raw`] forces the reference raw-decode
/// path the equivalence suite compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServePolicy {
    /// Consult and populate the seal-aware query cache.
    pub cache: bool,
    /// Serve downsample buckets from seal-time rollups where provable.
    pub rollups: bool,
    /// No effect — kept only because `benchmark/` names it. A query runs
    /// on the calling thread.
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

/// Store counters, registered as `tsdb.shard0.*`. Detached (uncounted into
/// any registry) until [`ShardedTsdb::attach_registry`] is called.
#[derive(Debug, Default)]
struct StoreObs {
    puts: Counter,
    queries: Counter,
    quarantined_points: Counter,
    blocks_skipped: Counter,
    chunks_decoded: Counter,
    rollup_buckets: Counter,
    raw_buckets: Counter,
}

impl StoreObs {
    fn record_scan(&self, counts: ScanCounts) {
        self.blocks_skipped.add(counts.chunks_skipped);
        self.chunks_decoded.add(counts.chunks_decoded);
        self.rollup_buckets.add(counts.rollup_buckets);
        self.raw_buckets.add(counts.raw_buckets);
    }
}

/// The data, its mutation epoch and the cache, under one lock.
#[derive(Debug)]
struct Store {
    db: Tsdb,
    /// Bumped by every mutation, under the guard that makes it.
    epoch: u64,
    cache: QueryCache,
}

/// A city's time-series store: one [`Tsdb`] behind one lock, with the
/// serving stack (epoch-validated query cache, rollups, block index) on top.
#[derive(Debug)]
pub struct ShardedTsdb {
    store: Mutex<Store>,
    obs: StoreObs,
}

impl Default for ShardedTsdb {
    fn default() -> Self {
        ShardedTsdb::with_chunk_size(DEFAULT_CHUNK_SIZE)
    }
}

impl ShardedTsdb {
    /// New store with the default points-per-chunk. `shards` has no effect
    /// — kept only because `benchmark/` names it.
    pub fn new(_shards: usize) -> Self {
        ShardedTsdb::default()
    }

    /// New store with a custom points-per-chunk.
    pub fn with_chunk_size(chunk_size: usize) -> Self {
        ShardedTsdb::with_layout(chunk_size, DEFAULT_ROLLUP_INTERVAL)
    }

    /// New store with custom points-per-chunk and rollup interval (see
    /// [`Tsdb::with_layout`]).
    pub fn with_layout(chunk_size: usize, rollup_interval: Span) -> Self {
        ShardedTsdb {
            store: Mutex::new(Store {
                db: Tsdb::with_layout(chunk_size, rollup_interval),
                epoch: 0,
                cache: QueryCache::default(),
            }),
            obs: StoreObs::default(),
        }
    }

    /// Register the store's put/query/quarantine/scan counters (as
    /// `tsdb.shard0.*`) and the cache counters (`tsdb.cache.*`) into
    /// `registry`. Counts accumulated before attachment are discarded —
    /// attach before ingest starts.
    pub fn attach_registry(&mut self, registry: &Registry) {
        let counter = |name: &str| registry.counter(&format!("tsdb.shard0.{name}"));
        self.obs = StoreObs {
            puts: counter("puts"),
            queries: counter("queries"),
            quarantined_points: counter("quarantined_points"),
            blocks_skipped: counter("blocks_skipped"),
            chunks_decoded: counter("chunks_decoded"),
            rollup_buckets: counter("rollup_buckets"),
            raw_buckets: counter("raw_buckets"),
        };
        self.store.get_mut().cache.attach_registry(registry);
    }

    /// Cache hit/miss/eviction counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.store.lock().cache.stats()
    }

    /// Run `f` on the data under the lock and bump the epoch.
    fn mutate<R>(&self, f: impl FnOnce(&mut Tsdb) -> R) -> R {
        let mut store = self.store.lock();
        store.epoch += 1;
        f(&mut store.db)
    }

    /// Batched ingest under one lock. An empty batch changes nothing
    /// and keeps the epoch. Returns points written.
    pub fn put_batch(&self, points: &[DataPoint]) -> u64 {
        if points.is_empty() {
            return 0;
        }
        let written = self.mutate(|db| db.put_batch(points));
        self.obs.puts.add(written);
        written
    }

    /// Register a series and get its id (see [`Tsdb::register`]): `None`
    /// on a name [`DataPoint::new`] would refuse. The id names the series
    /// for the store's lifetime, so a caller resolves each series once and
    /// then writes by id through [`ShardedTsdb::append`].
    pub fn register(&self, metric: &str, tags: &TagSet) -> Option<SeriesId> {
        self.mutate(|db| db.register(metric, tags))
    }

    /// Append points by series id under one lock: the id-keyed
    /// [`ShardedTsdb::put_batch`]. A non-finite value is skipped, as
    /// [`DataPoint::new`] would have refused it, and so is an id this
    /// store never issued; neither is counted. The epoch and the `puts`
    /// counter move only if something was written. Returns points written.
    pub fn append(&self, points: &[(SeriesId, Timestamp, f64)]) -> u64 {
        let mut store = self.store.lock();
        let mut written = 0u64;
        for &(id, t, v) in points {
            if v.is_finite() && store.db.append(id, t, v) {
                written += 1;
            }
        }
        if written > 0 {
            store.epoch += 1;
            drop(store);
            self.obs.puts.add(written);
        }
        written
    }

    /// Execute a query with the full serving stack (cache + rollups).
    /// Byte-identical to [`crate::query::execute_raw`] on a [`Tsdb`] holding
    /// the same data. Never returns `Err`: corruption is reported as
    /// quarantine counts in the results. The `Result` stays only because
    /// the frozen `benchmark/` harness matches on it.
    pub fn execute(&self, q: &Query) -> Result<Vec<QueryResult>, TsdbError> {
        self.execute_with(q, ServePolicy::full())
    }

    /// Execute a query with an explicit [`ServePolicy`]. All policies
    /// return byte-identical results — the policy only chooses how much
    /// work is skipped getting there. Never returns `Err` (see
    /// [`ShardedTsdb::execute`]).
    pub fn execute_with(
        &self,
        q: &Query,
        policy: ServePolicy,
    ) -> Result<Vec<QueryResult>, TsdbError> {
        // Cache-served queries are still queries: count every one.
        self.obs.queries.inc();
        let sig = policy.cache.then(|| query_signature(q));
        let mut store = self.store.lock();
        let Store { db, epoch, cache } = &mut *store;
        if let Some(sig) = &sig {
            if let Some(results) = cache.get_results(sig, *epoch) {
                return Ok(results);
            }
        }
        let (results, counts) = execute_counted(db, q, policy.rollups);
        if let Some(sig) = sig {
            cache.put_results(sig, *epoch, results.clone());
        }
        drop(store);
        self.obs.record_scan(counts);
        Ok(results)
    }

    /// The raw reference answer ([`crate::query::execute_raw`]) over this
    /// store's data, taken under the lock: no cache, no rollups, and no
    /// counter moves, so reading the oracle leaves every observable where
    /// it was.
    pub fn execute_raw(&self, q: &Query) -> Vec<QueryResult> {
        execute_raw(&self.store.lock().db, q)
    }

    /// Storage statistics.
    pub fn stats(&self) -> StoreStats {
        self.store.lock().db.stats()
    }

    /// The rollup blocks' bytes per float column and coding.
    pub fn rollup_column_bytes(&self) -> ColumnBytes {
        self.store.lock().db.rollup_column_bytes()
    }

    /// Force-seal all open buffers.
    pub fn seal_all(&self) {
        self.mutate(Tsdb::seal_all);
    }

    /// Trial-decode every sealed chunk. `readable_points +
    /// quarantined_points == stats().points`, the conservation invariant
    /// the chaos loss ledger checks.
    pub fn integrity_scan(&self) -> IntegrityReport {
        self.store.lock().db.integrity_scan()
    }

    /// Fault injection: flip one bit in the `nth` sealed chunk (modulo the
    /// number of sealed chunks, in series order) and report the outcome.
    /// Deterministic for a fixed ingest history.
    pub fn flip_chunk_bit(&self, nth_chunk: u64, bit: u64) -> BitFlipOutcome {
        let outcome = {
            let mut store = self.store.lock();
            let outcome = store.db.flip_chunk_bit(nth_chunk, bit);
            // Any successful flip mutated stored bytes (and dropped the
            // chunk's rollups): cached answers over them are invalid.
            if !matches!(
                outcome,
                BitFlipOutcome::NoChunks | BitFlipOutcome::BitOutOfRange
            ) {
                store.epoch += 1;
            }
            outcome
        };
        if let BitFlipOutcome::Quarantined { points } = outcome {
            self.obs.quarantined_points.add(u64::from(points));
        }
        outcome
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
    fn sharded_query_matches_flat_store() {
        let served = ShardedTsdb::with_chunk_size(16);
        let mut flat = Tsdb::with_chunk_size(16);
        let points: Vec<DataPoint> = (0..6u32)
            .flat_map(|d| {
                (0..100i64).map(move |i| {
                    dp(
                        "m",
                        &format!("n{d}"),
                        i * 300,
                        f64::from(d) * 10.0 + i as f64,
                    )
                })
            })
            .collect();
        served.put_batch(&points);
        flat.put_batch(&points);
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
            let a = served.execute(&q).unwrap();
            let b = crate::query::execute_raw(&flat, &q);
            assert_eq!(a, b, "served vs flat diverged on {q:?}");
        }
    }

    #[test]
    fn serve_policies_agree_byte_for_byte() {
        let db = ShardedTsdb::with_layout(16, Span::minutes(30));
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
        let db = ShardedTsdb::with_chunk_size(8);
        fill(&db, 4, 10);
        let q = Query::range("m", Timestamp(0), Timestamp(10_000));
        let before = db.execute(&q).unwrap();
        assert_eq!(db.execute(&q).unwrap(), before, "cached repeat");
        // A new point must invalidate: the cached answer is stale.
        db.put_batch(&[dp("m", "n0", 9000, 1234.5)]);
        let after = db.execute(&q).unwrap();
        assert_ne!(after, before, "epoch bump must invalidate the cache");
        assert_eq!(
            after,
            db.execute_with(&q, ServePolicy::raw()).unwrap(),
            "post-invalidation answer matches raw"
        );
    }

    #[test]
    fn cache_counts_each_cached_query_once() {
        // `hits + misses` is the number of queries served with the cache
        // on: a miss is one miss, however the answer was then computed.
        let db = ShardedTsdb::default();
        fill(&db, 8, 10);
        let q = Query::range("m", Timestamp(0), Timestamp(10_000)).group_by("device");
        db.execute(&q).unwrap(); // miss
        db.execute(&q).unwrap(); // hit
        db.put_batch(&[dp("m", "n0", 9000, 1.0)]);
        db.execute(&q).unwrap(); // miss: the put bumped the epoch
        db.execute_with(&q, ServePolicy::raw()).unwrap(); // uncached
        let st = db.cache_stats();
        assert_eq!((st.hits, st.misses), (1, 2));
    }

    #[test]
    fn cache_keys_tell_literal_star_and_bar_values_from_filter_kinds() {
        // `*` and `a|b` as literal tag values match no stored series (they
        // are not valid names); a cached wildcard or one-of answer must not
        // be served for them.
        let db = ShardedTsdb::default();
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

    /// Every point of `device`'s series of metric `m`: one exact query.
    fn read_device(db: &ShardedTsdb, device: &str) -> Vec<(Timestamp, f64)> {
        let q = Query::range("m", Timestamp(0), Timestamp(i64::MAX)).with_tag("device", device);
        let results = db.execute(&q).unwrap();
        results.into_iter().flat_map(|r| r.series.points).collect()
    }

    #[test]
    fn unknown_series_lookup_is_counted() {
        let registry = Registry::new();
        let mut db = ShardedTsdb::default();
        db.attach_registry(&registry);
        assert!(read_device(&db, "ghost").is_empty());
        let snap = registry.snapshot(Timestamp(0));
        assert_eq!(
            snap.value("tsdb.shard0.queries"),
            Some(1),
            "a miss is still a query: it must appear in the snapshot"
        );
    }

    #[test]
    fn flip_chunk_bit_walks_global_chunk_index() {
        let db = ShardedTsdb::with_chunk_size(8);
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
        let db = ShardedTsdb::with_chunk_size(8);
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
    fn attached_registry_counts_per_shard_activity() {
        let registry = Registry::new();
        let mut db = ShardedTsdb::with_chunk_size(8);
        db.attach_registry(&registry);
        fill(&db, 4, 10);
        db.execute(&Query::range("m", Timestamp(0), Timestamp(10_000)))
            .unwrap();
        let snap = registry.snapshot(Timestamp(0));
        assert_eq!(snap.value("tsdb.shard0.puts"), Some(40));
        assert_eq!(snap.value("tsdb.shard0.queries"), Some(1));
        assert_eq!(snap.value("tsdb.shard1.puts"), None, "one store");
        // Quarantine counters track points made unreadable by bit flips.
        db.seal_all();
        let mut flipped = 0i128;
        for nth in 0..db.stats().chunks as u64 {
            if let BitFlipOutcome::Quarantined { points } = db.flip_chunk_bit(nth, 1) {
                flipped += i128::from(points);
            }
        }
        let snap = registry.snapshot(Timestamp(0));
        assert_eq!(snap.value("tsdb.shard0.quarantined_points"), Some(flipped));
    }

    #[test]
    fn append_equals_put_batch() {
        // Registering each series at first sight and appending by id must
        // leave the store, the cache's view of it, and the puts counter
        // exactly as put_batch would.
        let mk = || {
            let registry = Registry::new();
            let mut db = ShardedTsdb::with_chunk_size(8);
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
        let by_id: Vec<(SeriesId, Timestamp, f64)> = points
            .iter()
            .map(|p| (b.register(&p.metric, &p.tags).unwrap(), p.time, p.value))
            .collect();
        assert_eq!(b.append(&by_id), points.len() as u64);
        assert_eq!(a.stats(), b.stats());
        let q = Query::range("m", Timestamp(0), Timestamp(30 * 300)).group_by("device");
        assert_eq!(a.execute(&q).unwrap(), b.execute(&q).unwrap());
        let at = Timestamp(0);
        assert_eq!(reg_a.snapshot(at).to_csv(), reg_b.snapshot(at).to_csv());
    }

    #[test]
    fn an_append_that_writes_nothing_keeps_the_epoch() {
        let db = ShardedTsdb::default();
        let id = db.register("m", &device_tags("n0")).unwrap();
        let before = db.store.lock().epoch;
        assert_eq!(db.append(&[]), 0);
        assert_eq!(db.append(&[(id, Timestamp(0), f64::NAN)]), 0);
        assert_eq!(db.store.lock().epoch, before);
        assert_eq!(db.append(&[(id, Timestamp(0), 1.0)]), 1);
        assert_eq!(db.store.lock().epoch, before + 1);
    }

    fn device_tags(device: &str) -> TagSet {
        [("device".to_string(), device.to_string())].into()
    }

    #[test]
    fn register_validates_names_like_datapoint_new() {
        let db = ShardedTsdb::with_chunk_size(16);
        assert!(db.register("bad metric", &device_tags("n0")).is_none());
        assert!(db.register("", &device_tags("n0")).is_none());
        assert!(db.register("m", &device_tags("bad value")).is_none());
        let bad_key: TagSet = [("bad key".to_string(), "n0".to_string())].into();
        assert!(db.register("m", &bad_key).is_none());
        // Rejected names left nothing behind.
        assert_eq!(db.stats().series, 0);
        let id = db.register("m", &device_tags("n0")).expect("valid names");
        assert_eq!(db.register("m", &device_tags("n0")), Some(id), "idempotent");
        assert_ne!(db.register("m", &device_tags("n1")), Some(id));
        // A registered series exists from registration on, with no point.
        assert_eq!((db.stats().series, db.stats().points), (2, 0));
    }

    #[test]
    fn append_skips_non_finite_values_uncounted() {
        let registry = Registry::new();
        let mut db = ShardedTsdb::with_chunk_size(16);
        db.attach_registry(&registry);
        let id = db.register("m", &device_tags("n0")).expect("valid names");
        let written = db.append(&[
            (id, Timestamp(0), 1.0),
            (id, Timestamp(300), f64::NAN),
            (id, Timestamp(600), f64::INFINITY),
            (id, Timestamp(900), f64::NEG_INFINITY),
            (id, Timestamp(1200), 2.0),
        ]);
        assert_eq!(written, 2);
        assert_eq!(db.stats().points, 2);
        let snap = registry.snapshot(Timestamp(0));
        assert_eq!(snap.value("tsdb.shard0.puts"), Some(2));
        assert_eq!(
            read_device(&db, "n0"),
            vec![(Timestamp(0), 1.0), (Timestamp(1200), 2.0)]
        );
    }

    #[test]
    fn points_years_apart_append_and_read_back() {
        // The Gorilla first delta does not hold 10⁸ s, so the store must
        // not put both in one chunk; an encoder panic would surface here.
        let db = ShardedTsdb::with_chunk_size(16);
        let id = db.register("m", &device_tags("n0")).expect("valid names");
        let points = [(Timestamp(0), 1.0), (Timestamp(100_000_000), 2.0)];
        assert_eq!(db.append(&points.map(|(t, v)| (id, t, v))), 2);
        db.seal_all();
        assert_eq!(read_device(&db, "n0"), points);
    }

    #[test]
    fn out_of_range_ids_are_dropped_uncounted() {
        let registry = Registry::new();
        let mut db = ShardedTsdb::with_chunk_size(16);
        db.attach_registry(&registry);
        let own = db.register("m", &device_tags("n0")).expect("valid names");
        let mut batch: Vec<(SeriesId, Timestamp, f64)> = (1..64)
            .chain([u32::MAX])
            .map(|i| (SeriesId(i), Timestamp(0), 1.0))
            .collect();
        batch.push((own, Timestamp(0), 1.0));
        assert_eq!(db.append(&batch), 1);
        assert_eq!((db.stats().series, db.stats().points), (1, 1));
        let snap = registry.snapshot(Timestamp(0));
        assert_eq!(snap.value("tsdb.shard0.puts"), Some(1));
    }

    #[test]
    fn one_shard_degenerates_to_flat_store() {
        // The shard count is ignored: every store is the one flat store.
        for shards in [0, 1, 8] {
            let db = ShardedTsdb::new(shards);
            fill(&db, 3, 10);
            assert_eq!(db.stats().series, 3);
        }
    }
}
