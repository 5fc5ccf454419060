//! Seal-aware query cache with deterministic, epoch-based invalidation.
//!
//! Dashboard traffic is heavily repetitive — the same city-overview and
//! drilldown queries fire over and over while ingest trickles in. This
//! cache serves repeats without touching shard locks, and invalidates
//! *deterministically*: every shard carries a monotonically increasing
//! **epoch counter** bumped by any mutation (`put`, `put_batch`,
//! `seal_all`, `evict_before`, `flip_chunk_bit`). A cached entry records
//! the epochs it was computed at and is served only while they still
//! match. No wall clock is involved anywhere (lint R5: replay-safe), and
//! recency for eviction is a logical tick counter.
//!
//! Two levels, because invalidation granularity is the whole point on a
//! write-heavy system:
//!
//! 1. **Result level** — the finalized `Vec<QueryResult>` keyed by the
//!    canonical query signature, valid only while *every* shard epoch
//!    matches. One put anywhere invalidates it.
//! 2. **Per-shard collection level** — each shard's phase-1
//!    [`GroupCollection`]s keyed by `(signature, shard)`, valid while
//!    *that shard's* epoch matches. A put into shard 2 forces re-collection
//!    of shard 2 only; shards 0, 1 and 3 are served from cache and merged.
//!    This is what makes an N-shard store under sustained ingest ~N×
//!    cheaper per query than a 1-shard store, even on a single core.
//!
//! Lock discipline: the cache's one mutex is a leaf — no shard lock is ever
//! acquired while it is held.

use crate::model::{TagFilter, TagSet};
use crate::query::{GroupCollection, Query, QueryResult};
use ctt_obs::{Counter, Registry};
// lint:allow(shared): the cache lives inside the Sync ShardedTsdb
use parking_lot::Mutex;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Default maximum entries per cache level.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Canonical, injective string form of a query, used as the cache key:
/// equal signatures mean equal queries. Every character of the metric, a
/// tag key or a tag value that is not a name character (alphanumeric,
/// `-`, `_`, `.`, `/`) is escaped with a `\`, so the unescaped punctuation
/// that separates the fields and tags each filter's kind (`=` exact, `*`
/// wildcard, `[…;]` one-of) can never come from a name: a literal `*` is
/// not the group-by wildcard and a literal `a|b` is not a one-of. Filters
/// are a `BTreeMap`, so equal queries render alike regardless of
/// construction order.
pub fn query_signature(q: &Query) -> String {
    let mut s = String::with_capacity(64);
    push_name(&mut s, &q.metric);
    let _ = write!(s, "|{}|{}|", q.start.0, q.end.0);
    for (k, f) in &q.filters {
        push_name(&mut s, k);
        match f {
            TagFilter::Equals(v) => {
                s.push('=');
                push_name(&mut s, v);
            }
            TagFilter::Wildcard => s.push('*'),
            TagFilter::OneOf(vs) => {
                s.push('[');
                for v in vs {
                    push_name(&mut s, v);
                    s.push(';');
                }
                s.push(']');
            }
        }
        s.push(',');
    }
    let _ = write!(s, "|agg={}", q.aggregator);
    if let Some(ds) = q.downsample {
        let _ = write!(
            s,
            "|ds={}s-{}-{:?}",
            ds.interval.as_seconds(),
            ds.aggregator,
            ds.fill
        );
    }
    if q.rate {
        s.push_str("|rate");
    }
    s
}

/// Append `v` with every character outside the name set escaped by a `\`.
/// Valid names (the OpenTSDB set [`crate::model::is_valid_name`] admits)
/// are copied as they are.
fn push_name(s: &mut String, v: &str) {
    let plain = |c: char| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | '/');
    if v.chars().all(plain) {
        s.push_str(v);
        return;
    }
    for c in v.chars() {
        if !plain(c) {
            s.push('\\');
        }
        s.push(c);
    }
}

#[derive(Debug)]
struct ResultEntry {
    /// Every shard's epoch at compute time; valid only on full match.
    epochs: Vec<u64>,
    results: Vec<QueryResult>,
}

#[derive(Debug)]
struct CollectionEntry {
    /// The owning shard's epoch at collect time.
    epoch: u64,
    groups: BTreeMap<TagSet, GroupCollection>,
}

/// A cached value and the logical tick of its last use.
#[derive(Debug)]
struct Slot<V> {
    value: V,
    tick: u64,
}

/// One cache level: entries under an exact LRU policy (the victim is the
/// entry with the smallest tick).
///
/// Finding the victim by scanning every entry costs a walk of the whole
/// level per insert once it is full, so a full level keeps a recency index
/// instead. A level that never fills never builds one: below capacity an
/// insert is one map insert, and a hit is one tick store at every fill.
#[derive(Debug)]
struct Level<K, V> {
    entries: BTreeMap<K, Slot<V>>,
    /// `tick → key`, built the first time the level overflows and kept
    /// until [`Level::clear`] (nothing else removes entries, so a level
    /// that has filled stays full). Exactly one record per entry: a new key
    /// adds one, eviction removes one, and a re-put or a hit only moves the
    /// entry's tick forward. A record older than its entry's tick is stale;
    /// eviction re-files it at the entry's tick before trusting the next
    /// minimum, so the victim is exactly the smallest-tick entry.
    recency: Option<BTreeMap<u64, K>>,
}

impl<K, V> Default for Level<K, V> {
    fn default() -> Self {
        Level {
            entries: BTreeMap::new(),
            recency: None,
        }
    }
}

impl<K: Ord + Clone, V> Level<K, V> {
    /// Insert (or replace) `key` at `tick`, then evict least-recently-used
    /// entries until the level fits `capacity`. Returns how many were
    /// evicted.
    fn insert(&mut self, key: K, value: V, tick: u64, capacity: usize) -> u64 {
        let slot = Slot { value, tick };
        match &mut self.recency {
            Some(recency) => {
                if self.entries.insert(key.clone(), slot).is_none() {
                    recency.insert(tick, key);
                }
            }
            None => {
                self.entries.insert(key, slot);
            }
        }
        let mut evicted = 0u64;
        while self.entries.len() > capacity {
            let entries = &self.entries;
            let recency = self.recency.get_or_insert_with(|| {
                entries
                    .iter()
                    .map(|(k, slot)| (slot.tick, k.clone()))
                    .collect()
            });
            let Some((filed, key)) = recency.pop_first() else {
                break;
            };
            match self.entries.entry(key) {
                Entry::Occupied(e) if e.get().tick == filed => {
                    e.remove();
                    evicted += 1;
                }
                // Touched since it was filed: re-file at its tick.
                Entry::Occupied(e) => {
                    recency.insert(e.get().tick, e.key().clone());
                }
                Entry::Vacant(_) => {}
            }
        }
        evicted
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.recency = None;
    }
}

/// Counters exported as `tsdb.cache.*` once attached to a registry.
#[derive(Debug, Default)]
struct CacheObs {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

/// Aggregate cache statistics (reads the counters, not the maps).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Result- or collection-level hits served.
    pub hits: u64,
    /// Lookups that missed (absent or epoch-stale).
    pub misses: u64,
    /// Entries evicted to respect capacity.
    pub evictions: u64,
}

/// Everything the cache holds, behind its one lock. Both levels key on the
/// same shared signature, built once per query.
#[derive(Debug, Default)]
struct CacheState {
    results: Level<Arc<str>, ResultEntry>,
    collections: Level<(Arc<str>, usize), CollectionEntry>,
    /// Logical recency clock (no wall time): bumped per cache operation.
    tick: u64,
    obs: CacheObs,
}

impl CacheState {
    fn next_tick(&mut self) -> u64 {
        self.tick = self.tick.wrapping_add(1);
        self.tick
    }
}

/// The two-level seal-aware cache. Lookups and inserts take `&self`, so
/// the sharded store can consult it under concurrent readers; each one
/// takes the cache's single lock once.
#[derive(Debug)]
pub struct QueryCache {
    state: Mutex<CacheState>,
    capacity: usize,
}

impl Default for QueryCache {
    fn default() -> Self {
        QueryCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl QueryCache {
    /// New cache holding at most `capacity` entries per level.
    pub fn with_capacity(capacity: usize) -> Self {
        QueryCache {
            state: Mutex::new(CacheState::default()),
            capacity: capacity.max(1),
        }
    }

    /// Register `tsdb.cache.{hits,misses,evictions}` into `registry`.
    /// Counts accumulated before attachment are discarded.
    pub fn attach_registry(&self, registry: &Registry) {
        self.state.lock().obs = CacheObs {
            hits: registry.counter("tsdb.cache.hits"),
            misses: registry.counter("tsdb.cache.misses"),
            evictions: registry.counter("tsdb.cache.evictions"),
        };
    }

    /// Finalized results for `sig`, if cached at exactly these epochs.
    pub(crate) fn get_results(&self, sig: &str, epochs: &[u64]) -> Option<Vec<QueryResult>> {
        let mut state = self.state.lock();
        let tick = state.next_tick();
        let CacheState { results, obs, .. } = &mut *state;
        match results.entries.get_mut(sig) {
            Some(slot) if slot.value.epochs == epochs => {
                slot.tick = tick;
                obs.hits.inc();
                Some(slot.value.results.clone())
            }
            _ => {
                obs.misses.inc();
                None
            }
        }
    }

    /// Cache finalized results for `sig` computed at `epochs`.
    pub(crate) fn put_results(&self, sig: Arc<str>, epochs: Vec<u64>, results: Vec<QueryResult>) {
        let mut state = self.state.lock();
        let tick = state.next_tick();
        let CacheState {
            results: level,
            obs,
            ..
        } = &mut *state;
        let entry = ResultEntry { epochs, results };
        obs.evictions
            .add(level.insert(sig, entry, tick, self.capacity));
    }

    /// One shard's phase-1 collections for `sig`, if cached at `epoch`.
    pub(crate) fn get_collection(
        &self,
        sig: &Arc<str>,
        shard: usize,
        epoch: u64,
    ) -> Option<BTreeMap<TagSet, GroupCollection>> {
        let mut state = self.state.lock();
        let tick = state.next_tick();
        let CacheState {
            collections, obs, ..
        } = &mut *state;
        match collections.entries.get_mut(&(Arc::clone(sig), shard)) {
            Some(slot) if slot.value.epoch == epoch => {
                slot.tick = tick;
                obs.hits.inc();
                Some(slot.value.groups.clone())
            }
            _ => {
                obs.misses.inc();
                None
            }
        }
    }

    /// Cache one shard's phase-1 collections computed at `epoch`.
    pub(crate) fn put_collection(
        &self,
        sig: &Arc<str>,
        shard: usize,
        epoch: u64,
        groups: BTreeMap<TagSet, GroupCollection>,
    ) {
        let mut state = self.state.lock();
        let tick = state.next_tick();
        let CacheState {
            collections, obs, ..
        } = &mut *state;
        let entry = CollectionEntry { epoch, groups };
        obs.evictions
            .add(collections.insert((Arc::clone(sig), shard), entry, tick, self.capacity));
    }

    /// Drop every entry (used by tests and explicit resets).
    pub fn clear(&self) {
        let mut state = self.state.lock();
        state.results.clear();
        state.collections.clear();
    }

    /// Current counter values.
    pub fn stats(&self) -> CacheStats {
        let state = self.state.lock();
        CacheStats {
            hits: state.obs.hits.get(),
            misses: state.obs.misses.get(),
            evictions: state.obs.evictions.get(),
        }
    }

    /// Entries currently held (both levels).
    pub fn len(&self) -> usize {
        let state = self.state.lock();
        state.results.entries.len() + state.collections.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use ctt_core::time::{Span, Timestamp};
    use proptest::prelude::*;

    #[test]
    fn signature_is_canonical_and_distinguishes_queries() {
        let a = Query::range("co2", Timestamp(0), Timestamp(3600)).with_tag("city", "trd");
        let b = Query::range("co2", Timestamp(0), Timestamp(3600)).with_tag("city", "trd");
        assert_eq!(query_signature(&a), query_signature(&b));
        for other in [
            Query::range("co2", Timestamp(0), Timestamp(7200)).with_tag("city", "trd"),
            Query::range("no2", Timestamp(0), Timestamp(3600)).with_tag("city", "trd"),
            Query::range("co2", Timestamp(0), Timestamp(3600)).with_tag("city", "vejle"),
            Query::range("co2", Timestamp(0), Timestamp(3600))
                .with_tag("city", "trd")
                .as_rate(),
            Query::range("co2", Timestamp(0), Timestamp(3600))
                .with_tag("city", "trd")
                .downsample(crate::query::Downsample {
                    interval: Span::hours(1),
                    aggregator: crate::query::Aggregator::Avg,
                    fill: crate::query::FillPolicy::None,
                }),
            Query::range("co2", Timestamp(0), Timestamp(3600)).group_by("city"),
        ] {
            assert_ne!(
                query_signature(&a),
                query_signature(&other),
                "collision: {other:?}"
            );
        }
    }

    #[test]
    fn results_served_only_at_matching_epochs() {
        let cache = QueryCache::default();
        let sig: Arc<str> = "s".into();
        cache.put_results(Arc::clone(&sig), vec![1, 2], Vec::new());
        assert!(cache.get_results(&sig, &[1, 2]).is_some());
        assert!(
            cache.get_results(&sig, &[1, 3]).is_none(),
            "a bumped epoch must invalidate"
        );
        assert!(cache.get_results("other", &[1, 2]).is_none());
        let st = cache.stats();
        assert_eq!((st.hits, st.misses), (1, 2));
    }

    #[test]
    fn collections_invalidate_per_shard() {
        let cache = QueryCache::default();
        let sig: Arc<str> = "s".into();
        cache.put_collection(&sig, 0, 5, BTreeMap::new());
        cache.put_collection(&sig, 1, 9, BTreeMap::new());
        // Shard 1 mutated (epoch 9 → 10): shard 0 still serves.
        assert!(cache.get_collection(&sig, 0, 5).is_some());
        assert!(cache.get_collection(&sig, 1, 10).is_none());
    }

    #[test]
    fn lru_eviction_by_logical_tick() {
        let cache = QueryCache::with_capacity(2);
        cache.put_results("a".into(), vec![0], Vec::new());
        cache.put_results("b".into(), vec![0], Vec::new());
        let _ = cache.get_results("a", &[0]); // refresh "a"
        cache.put_results("c".into(), vec![0], Vec::new()); // evicts "b"
        assert!(cache.get_results("a", &[0]).is_some());
        assert!(cache.get_results("b", &[0]).is_none());
        assert!(cache.get_results("c", &[0]).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    /// Field-by-field query equality (`Query` has no `PartialEq`).
    fn same_query(a: &Query, b: &Query) -> bool {
        a.metric == b.metric
            && a.filters == b.filters
            && a.start == b.start
            && a.end == b.end
            && a.downsample == b.downsample
            && a.aggregator == b.aggregator
            && a.rate == b.rate
    }

    /// A query over a tiny alphabet that includes every character the
    /// signature uses as punctuation, so distinct queries often share a
    /// rendering under any encoding that is not injective.
    fn query_strategy() -> impl Strategy<Value = Query> {
        let filter = (
            "[a*|,=:1]{1,2}",
            0u8..3,
            collection::vec("[a*|,=]{0,1}", 1..3),
        )
            .prop_map(|(k, kind, vs)| {
                let f = match kind {
                    0 => TagFilter::Equals(vs.concat()),
                    1 => TagFilter::Wildcard,
                    _ => TagFilter::OneOf(vs),
                };
                (k, f)
            });
        (
            "[a*|,=:1]{0,1}",
            0i64..2,
            collection::vec(filter, 0..3),
            (0u8..3, any::<bool>()),
        )
            .prop_map(|(metric, end, filters, (shape, rate))| {
                let mut q = Query::range(metric, Timestamp(0), Timestamp(end));
                q.filters.extend(filters);
                q.rate = rate;
                match shape {
                    0 => q,
                    1 => q.aggregate(crate::query::Aggregator::Sum),
                    _ => q.downsample(crate::query::Downsample {
                        interval: Span::seconds(1),
                        aggregator: crate::query::Aggregator::Avg,
                        fill: crate::query::FillPolicy::None,
                    }),
                }
            })
    }

    proptest! {
        /// Equal signatures ⇒ equal queries: the cache can never serve one
        /// query's answer for another.
        #[test]
        fn signature_is_injective(queries in collection::vec(query_strategy(), 2..256)) {
            let mut seen: BTreeMap<String, &Query> = BTreeMap::new();
            for q in &queries {
                if let Some(prev) = seen.insert(query_signature(q), q) {
                    prop_assert!(same_query(prev, q), "{:?} and {:?} share a signature", prev, q);
                }
            }
        }
    }

    /// The reference victim search: scan the whole level for the smallest
    /// tick after every insert. The recency index must agree with it.
    fn evict_lru<K: Ord + Clone, V>(
        map: &mut BTreeMap<K, V>,
        capacity: usize,
        tick_of: impl Fn(&V) -> u64,
    ) -> u64 {
        let mut evicted = 0u64;
        while map.len() > capacity {
            let oldest = map
                .iter()
                .min_by_key(|(_, v)| tick_of(v))
                .map(|(k, _)| k.clone());
            match oldest {
                Some(k) => {
                    map.remove(&k);
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }

    /// Reference cache: the same operations over plain maps of
    /// `(epoch(s), tick)`, evicting through the scan.
    #[derive(Default)]
    struct Model {
        results: BTreeMap<String, (Vec<u64>, u64)>,
        collections: BTreeMap<(String, usize), (u64, u64)>,
        tick: u64,
        stats: CacheStats,
    }

    impl Model {
        fn next_tick(&mut self) -> u64 {
            self.tick += 1;
            self.tick
        }

        fn lookup<K: Ord, E: PartialEq>(
            map: &mut BTreeMap<K, (E, u64)>,
            key: &K,
            at: &E,
            tick: u64,
            stats: &mut CacheStats,
        ) -> bool {
            match map.get_mut(key) {
                Some((e, t)) if e == at => {
                    *t = tick;
                    stats.hits += 1;
                    true
                }
                _ => {
                    stats.misses += 1;
                    false
                }
            }
        }
    }

    /// Every level's recency index, when present, holds exactly one record
    /// per entry, filed no later than the entry's tick.
    fn recency_is_one_record_per_entry<K: Ord + Clone + std::fmt::Debug, V>(
        level: &Level<K, V>,
    ) -> Result<(), TestCaseError> {
        let Some(recency) = &level.recency else {
            return Ok(());
        };
        prop_assert_eq!(recency.len(), level.entries.len());
        let mut keys: Vec<&K> = Vec::new();
        for (&filed, key) in recency {
            let slot = level.entries.get(key);
            prop_assert!(slot.is_some_and(|s| s.tick >= filed), "record {:?}", key);
            keys.push(key);
        }
        keys.sort();
        keys.dedup();
        prop_assert_eq!(keys.len(), level.entries.len());
        Ok(())
    }

    proptest! {
        /// Random get / put / epoch-bump / clear sequences over both levels
        /// at capacities 1–8: the cache holds exactly the entries the
        /// scanning model holds (so it evicted the same victims), counts the
        /// same hits, misses and evictions, and keeps one recency record per
        /// entry.
        #[test]
        fn recency_index_evicts_the_scan_victim(
            capacity in 1usize..9,
            ops in collection::vec((0u8..11, 0u8..10, 0usize..3), 1..200),
        ) {
            let cache = QueryCache::with_capacity(capacity);
            let mut model = Model::default();
            let mut epochs = vec![0u64; 3];
            for &(kind, sig, shard) in &ops {
                let name = format!("q{sig}");
                let key: Arc<str> = name.as_str().into();
                let epoch = epochs.get(shard).copied().unwrap_or(0);
                match kind {
                    0..=2 => {
                        let tick = model.next_tick();
                        let want = Model::lookup(&mut model.results, &name, &epochs, tick, &mut model.stats);
                        prop_assert_eq!(cache.get_results(&key, &epochs).is_some(), want);
                    }
                    3..=4 => {
                        let tick = model.next_tick();
                        model.results.insert(name, (epochs.clone(), tick));
                        model.stats.evictions += evict_lru(&mut model.results, capacity, |e| e.1);
                        cache.put_results(key, epochs.clone(), Vec::new());
                    }
                    5..=6 => {
                        let tick = model.next_tick();
                        let want = Model::lookup(&mut model.collections, &(name, shard), &epoch, tick, &mut model.stats);
                        prop_assert_eq!(cache.get_collection(&key, shard, epoch).is_some(), want);
                    }
                    7..=8 => {
                        let tick = model.next_tick();
                        model.collections.insert((name, shard), (epoch, tick));
                        model.stats.evictions += evict_lru(&mut model.collections, capacity, |e| e.1);
                        cache.put_collection(&key, shard, epoch, BTreeMap::new());
                    }
                    9 => {
                        if let Some(e) = epochs.get_mut(shard) {
                            *e += 1;
                        }
                    }
                    _ => {
                        model.results.clear();
                        model.collections.clear();
                        cache.clear();
                    }
                }
                let state = cache.state.lock();
                let results: Vec<&str> = state.results.entries.keys().map(|k| &**k).collect();
                let want: Vec<&str> = model.results.keys().map(String::as_str).collect();
                prop_assert_eq!(results, want);
                let collections: Vec<(&str, usize)> =
                    state.collections.entries.keys().map(|(k, s)| (&**k, *s)).collect();
                let want: Vec<(&str, usize)> =
                    model.collections.keys().map(|(k, s)| (k.as_str(), *s)).collect();
                prop_assert_eq!(collections, want);
                recency_is_one_record_per_entry(&state.results)?;
                recency_is_one_record_per_entry(&state.collections)?;
                drop(state);
                prop_assert_eq!(cache.stats(), model.stats);
            }
        }
    }
}
