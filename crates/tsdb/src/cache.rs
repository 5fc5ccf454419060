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
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Default maximum entries per cache level.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Canonical string form of a query, used as the cache key. Filters are a
/// `BTreeMap`, so iteration (and therefore the signature) is deterministic
/// for equal queries regardless of construction order.
pub fn query_signature(q: &Query) -> String {
    let mut s = String::with_capacity(64);
    let _ = write!(s, "{}|{}|{}|", q.metric, q.start.0, q.end.0);
    for (k, f) in &q.filters {
        match f {
            TagFilter::Equals(v) => {
                let _ = write!(s, "{k}={v},");
            }
            TagFilter::Wildcard => {
                let _ = write!(s, "{k}=*,");
            }
            TagFilter::OneOf(vs) => {
                let _ = write!(s, "{k}={},", vs.join("|"));
            }
        }
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

#[derive(Debug)]
struct ResultEntry {
    /// Every shard's epoch at compute time; valid only on full match.
    epochs: Vec<u64>,
    results: Vec<QueryResult>,
    tick: u64,
}

#[derive(Debug)]
struct CollectionEntry {
    /// The owning shard's epoch at collect time.
    epoch: u64,
    groups: BTreeMap<TagSet, GroupCollection>,
    tick: u64,
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

/// Everything the cache holds, behind its one lock.
#[derive(Debug, Default)]
struct CacheState {
    results: BTreeMap<String, ResultEntry>,
    collections: BTreeMap<(String, usize), CollectionEntry>,
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
        match results.get_mut(sig) {
            Some(entry) if entry.epochs == epochs => {
                entry.tick = tick;
                obs.hits.inc();
                Some(entry.results.clone())
            }
            _ => {
                obs.misses.inc();
                None
            }
        }
    }

    /// Cache finalized results for `sig` computed at `epochs`.
    pub(crate) fn put_results(&self, sig: String, epochs: Vec<u64>, results: Vec<QueryResult>) {
        let mut state = self.state.lock();
        let tick = state.next_tick();
        let CacheState {
            results: map, obs, ..
        } = &mut *state;
        map.insert(
            sig,
            ResultEntry {
                epochs,
                results,
                tick,
            },
        );
        obs.evictions.add(evict_lru(map, self.capacity, |e| e.tick));
    }

    /// One shard's phase-1 collections for `sig`, if cached at `epoch`.
    pub(crate) fn get_collection(
        &self,
        sig: &str,
        shard: usize,
        epoch: u64,
    ) -> Option<BTreeMap<TagSet, GroupCollection>> {
        let mut state = self.state.lock();
        let tick = state.next_tick();
        let CacheState {
            collections, obs, ..
        } = &mut *state;
        match collections.get_mut(&(sig.to_string(), shard)) {
            Some(entry) if entry.epoch == epoch => {
                entry.tick = tick;
                obs.hits.inc();
                Some(entry.groups.clone())
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
        sig: &str,
        shard: usize,
        epoch: u64,
        groups: BTreeMap<TagSet, GroupCollection>,
    ) {
        let mut state = self.state.lock();
        let tick = state.next_tick();
        let CacheState {
            collections, obs, ..
        } = &mut *state;
        collections.insert(
            (sig.to_string(), shard),
            CollectionEntry {
                epoch,
                groups,
                tick,
            },
        );
        obs.evictions
            .add(evict_lru(collections, self.capacity, |e| e.tick));
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
        state.results.len() + state.collections.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Evict least-recently-used entries until the map fits `capacity`.
/// Deterministic: recency is the logical tick, ties impossible (ticks are
/// unique). Returns how many entries were evicted.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use ctt_core::time::{Span, Timestamp};

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
        let sig = "s".to_string();
        cache.put_results(sig.clone(), vec![1, 2], Vec::new());
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
        cache.put_collection("s", 0, 5, BTreeMap::new());
        cache.put_collection("s", 1, 9, BTreeMap::new());
        // Shard 1 mutated (epoch 9 → 10): shard 0 still serves.
        assert!(cache.get_collection("s", 0, 5).is_some());
        assert!(cache.get_collection("s", 1, 10).is_none());
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
}
