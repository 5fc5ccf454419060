//! Seal-aware query cache with deterministic, epoch-based invalidation.
//!
//! Dashboard traffic is heavily repetitive — the same city-overview and
//! drilldown queries fire over and over while ingest trickles in. This
//! cache serves repeats without running the query, and invalidates
//! *deterministically*: the store carries a monotonically increasing
//! **epoch counter** bumped by any mutation (`put_batch`, `register`, an
//! `append` that wrote, `seal_all`, `flip_chunk_bit`). A cached entry —
//! the finalized `Vec<QueryResult>`, keyed by the canonical query
//! signature — records the epoch it was computed at and is served only
//! while it still matches, so one write invalidates every entry. No wall
//! clock is involved anywhere (lint R5: replay-safe), and recency for
//! eviction is a logical tick counter.
//!
//! Lock discipline: the cache's one mutex is a leaf — nothing else is
//! locked while it is held.

use crate::model::{is_name_char, TagFilter};
use crate::query::{Query, QueryResult};
use ctt_obs::{Counter, Registry};
// lint:allow(shared): the cache lives inside the Sync ShardedTsdb
use parking_lot::Mutex;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default maximum number of cached queries.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Canonical, injective string form of a query, used as the cache key:
/// equal signatures mean equal queries. Every character of the metric, a
/// tag key or a tag value that is not a name character (`is_name_char`)
/// is escaped with a `\`, so the unescaped punctuation that separates the
/// fields and tags each filter's kind (`=` exact, `*` wildcard, `[…;]`
/// one-of) can never come from a name: a literal `*` is not the group-by
/// wildcard and a literal `a|b` is not a one-of. Filters are a `BTreeMap`,
/// so equal queries render alike regardless of construction order.
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

/// Append `v` with every character that is not an [`is_name_char`]
/// escaped by a `\`; a valid name is copied as it is.
fn push_name(s: &mut String, v: &str) {
    if v.chars().all(is_name_char) {
        s.push_str(v);
        return;
    }
    for c in v.chars() {
        if !is_name_char(c) {
            s.push('\\');
        }
        s.push(c);
    }
}

#[derive(Debug)]
struct ResultEntry {
    /// The store's epoch at compute time; valid only while it matches.
    epoch: u64,
    results: Vec<QueryResult>,
}

/// A cached value and the logical tick of its last use.
#[derive(Debug)]
struct Slot {
    value: ResultEntry,
    tick: u64,
}

/// Entries under an exact LRU policy (the victim is the entry with the
/// smallest tick).
///
/// Finding the victim by scanning every entry costs a walk of the whole
/// level per insert once it is full, so a full level keeps a recency index
/// instead. A level that never fills never builds one: below capacity an
/// insert is one map insert, and a hit is one tick store at every fill.
#[derive(Debug, Default)]
struct Level {
    entries: BTreeMap<String, Slot>,
    /// `tick → key`, built the first time the level overflows and kept
    /// until [`Level::clear`] (nothing else removes entries, so a level
    /// that has filled stays full). Exactly one record per entry: a new key
    /// adds one, eviction removes one, and a re-put or a hit only moves the
    /// entry's tick forward. A record older than its entry's tick is stale;
    /// eviction re-files it at the entry's tick before trusting the next
    /// minimum, so the victim is exactly the smallest-tick entry.
    recency: Option<BTreeMap<u64, String>>,
}

impl Level {
    /// Insert (or replace) `key` at `tick`, then evict least-recently-used
    /// entries until the level fits `capacity`. Returns how many were
    /// evicted.
    fn insert(&mut self, key: String, value: ResultEntry, tick: u64, capacity: usize) -> u64 {
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

/// Aggregate cache statistics (reads the counters, not the maps). Every
/// query served with the cache on looks it up exactly once, so `hits +
/// misses` is the number of such queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries the cache could not answer (absent or epoch-stale).
    pub misses: u64,
    /// Entries evicted to respect capacity.
    pub evictions: u64,
}

/// Everything the cache holds, behind its one lock.
#[derive(Debug, Default)]
struct CacheState {
    results: Level,
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

/// The seal-aware query cache. Lookups and inserts take `&self`, so the
/// store can consult it under concurrent readers; each one takes the
/// cache's single lock once.
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
    /// New cache holding at most `capacity` entries.
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

    /// Finalized results for `sig`, if cached at exactly this epoch.
    pub(crate) fn get_results(&self, sig: &str, epoch: u64) -> Option<Vec<QueryResult>> {
        let mut state = self.state.lock();
        let tick = state.next_tick();
        let CacheState { results, obs, .. } = &mut *state;
        match results.entries.get_mut(sig) {
            Some(slot) if slot.value.epoch == epoch => {
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

    /// Cache finalized results for `sig` computed at `epoch`.
    pub(crate) fn put_results(&self, sig: String, epoch: u64, results: Vec<QueryResult>) {
        let mut state = self.state.lock();
        let tick = state.next_tick();
        let CacheState {
            results: level,
            obs,
            ..
        } = &mut *state;
        let entry = ResultEntry { epoch, results };
        obs.evictions
            .add(level.insert(sig, entry, tick, self.capacity));
    }

    /// Drop every entry (used by tests and explicit resets).
    pub fn clear(&self) {
        self.state.lock().results.clear();
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

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.state.lock().results.entries.len()
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
        cache.put_results("s".into(), 1, Vec::new());
        assert!(cache.get_results("s", 1).is_some());
        assert!(
            cache.get_results("s", 2).is_none(),
            "a bumped epoch must invalidate"
        );
        assert!(cache.get_results("other", 1).is_none());
        let st = cache.stats();
        assert_eq!((st.hits, st.misses), (1, 2));
    }

    #[test]
    fn lru_eviction_by_logical_tick() {
        let cache = QueryCache::with_capacity(2);
        cache.put_results("a".into(), 0, Vec::new());
        cache.put_results("b".into(), 0, Vec::new());
        let _ = cache.get_results("a", 0); // refresh "a"
        cache.put_results("c".into(), 0, Vec::new()); // evicts "b"
        assert!(cache.get_results("a", 0).is_some());
        assert!(cache.get_results("b", 0).is_none());
        assert!(cache.get_results("c", 0).is_some());
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
    fn evict_lru(map: &mut BTreeMap<String, (u64, u64)>, capacity: usize) -> u64 {
        let mut evicted = 0u64;
        while map.len() > capacity {
            let oldest = map
                .iter()
                .min_by_key(|(_, &(_, tick))| tick)
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

    /// Reference cache: the same operations over a plain map of `(epoch,
    /// tick)`, evicting through the scan.
    #[derive(Default)]
    struct Model {
        results: BTreeMap<String, (u64, u64)>,
        tick: u64,
        stats: CacheStats,
    }

    impl Model {
        fn lookup(&mut self, key: &str, at: u64) -> bool {
            self.tick += 1;
            match self.results.get_mut(key) {
                Some((e, t)) if *e == at => {
                    *t = self.tick;
                    self.stats.hits += 1;
                    true
                }
                _ => {
                    self.stats.misses += 1;
                    false
                }
            }
        }

        fn insert(&mut self, key: String, at: u64, capacity: usize) {
            self.tick += 1;
            self.results.insert(key, (at, self.tick));
            self.stats.evictions += evict_lru(&mut self.results, capacity);
        }
    }

    /// The recency index, when present, holds exactly one record per entry,
    /// filed no later than the entry's tick.
    fn recency_is_one_record_per_entry(level: &Level) -> Result<(), TestCaseError> {
        let Some(recency) = &level.recency else {
            return Ok(());
        };
        prop_assert_eq!(recency.len(), level.entries.len());
        let mut keys: Vec<&String> = Vec::new();
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
        /// Random get / put / epoch-bump / clear sequences at capacities
        /// 1–8: the cache holds exactly the entries the scanning model holds
        /// (so it evicted the same victims), counts the same hits, misses
        /// and evictions, and keeps one recency record per entry.
        #[test]
        fn recency_index_evicts_the_scan_victim(
            capacity in 1usize..9,
            ops in collection::vec((0u8..7, 0u8..10), 1..200),
        ) {
            let cache = QueryCache::with_capacity(capacity);
            let mut model = Model::default();
            let mut epoch = 0u64;
            for &(kind, sig) in &ops {
                let name = format!("q{sig}");
                match kind {
                    0..=2 => {
                        let want = model.lookup(&name, epoch);
                        prop_assert_eq!(cache.get_results(&name, epoch).is_some(), want);
                    }
                    3..=4 => {
                        model.insert(name.clone(), epoch, capacity);
                        cache.put_results(name, epoch, Vec::new());
                    }
                    5 => epoch += 1,
                    _ => {
                        model.results.clear();
                        cache.clear();
                    }
                }
                let state = cache.state.lock();
                let results: Vec<&String> = state.results.entries.keys().collect();
                let want: Vec<&String> = model.results.keys().collect();
                prop_assert_eq!(results, want);
                recency_is_one_record_per_entry(&state.results)?;
                drop(state);
                prop_assert_eq!(cache.stats(), model.stats);
            }
        }
    }
}
