//! # ctt-ingest — handle-fed, run-framed ingest in front of the store
//!
//! [`ShardedTsdb::put_batch`] hashes and probes the store's metric-name
//! and tag-set tables, then its id-pair map, for every point. This crate
//! is the same write with the per-point work taken out — and nothing else:
//! it starts no thread and queues nothing.
//!
//! * **Register once, ship handles.** A device's series set is fixed at
//!   enrolment, so a caller resolves each series exactly once:
//!   [`IngestRuntime::register`] validates the names, interns the metric
//!   name and the tag set (each held once, in an [`Interner`], however many
//!   series share it) and returns a `Copy` [`SeriesRef`] for the pair.
//!   From then on [`IngestRuntime::submit_resolved`] takes
//!   `(SeriesRef, ts, value)` — no strings, no hash, no probe per point.
//!   The string-keyed [`IngestRuntime::submit`] is the external/text
//!   boundary and the test oracle: it resolves each point through the same
//!   tables and stages it through the same code.
//! * **Run framing.** Points are staged in one lane as bare
//!   `(timestamp, value)` pairs under run headers `(ref, len)`; a header is
//!   emitted only when the series changes mid-stream.
//! * **One write session per batch.** The lane's staged batch is applied on
//!   the caller once it holds `ship_points` points, or at a
//!   [`IngestRuntime::flush`]: one [`ctt_tsdb::ShardWriteSession`] (one
//!   lock, one epoch bump, one `puts` update), each run fed straight into
//!   [`ctt_tsdb::Tsdb::append_run`] and its streaming Gorilla encoder. A
//!   series is interned into the store at its first staged point — once
//!   per series lifetime, in first-occurrence order, so series ids match
//!   `put_batch`. A flush also releases the lane's staging buffers: between
//!   segments an idle city holds none.
//!
//! ## Equivalence contract
//!
//! After [`IngestRuntime::flush`], the store (state, stats, query results,
//! `puts` counter) is byte-identical to having called
//! [`ShardedTsdb::put_batch`] with the same points in the same order;
//! between flushes at most `ship_points − 1` points are staged and not yet
//! visible. The pipeline flushes at the end of every run segment and before
//! chaos actions, so its snapshots and reads never find staged points. The
//! `ingest.shard0.*` counters are functions of the submitted workload and
//! the flush points alone.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

use ctt_core::time::Timestamp;
use ctt_obs::{Counter, Registry};
use ctt_tsdb::model::is_valid_name;
use ctt_tsdb::{DataPoint, Interner, SeriesId, ShardWriter, ShardedTsdb, TagSet};
use std::collections::HashMap;

/// Default staging threshold: the staged points are applied as one batch
/// once they reach this many, amortizing the per-batch costs (store lock,
/// epoch bump, counter updates) over more points. Anything still staged is
/// applied at the next flush regardless.
pub const DEFAULT_SHIP_POINTS: usize = 1024;

/// Ingest runtime tuning.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Staged points that trigger applying the batch.
    pub ship_points: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            ship_points: DEFAULT_SHIP_POINTS,
        }
    }
}

/// An opaque handle to one registered series. Obtained from
/// [`IngestRuntime::register`] and only meaningful to the runtime that
/// issued it; [`IngestRuntime::submit_resolved`] drops handles that are out
/// of range for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeriesRef(u32);

/// The lane's staged batch: run headers `(ref, len)` over a flat point
/// array. A new header is emitted only when the series changes mid-stream,
/// so each run feeds straight into [`ctt_tsdb::Tsdb::append_run`] — no
/// per-point regrouping.
#[derive(Debug, Default)]
struct LaneBatch {
    runs: Vec<(u32, u32)>,
    pts: Vec<(Timestamp, f64)>,
}

/// Lane observability, registered as `ingest.shard0.*`.
#[derive(Debug)]
struct LaneObs {
    /// Points applied (by handle or by string key).
    enqueued: Counter,
    /// Batches (= write sessions) applied.
    batches: Counter,
    /// Compressed bytes the store encoded during those sessions.
    encoded_bytes: Counter,
}

/// The lane: everything between a staged point and the store.
#[derive(Debug)]
struct Lane {
    writer: ShardWriter,
    staged: LaneBatch,
    obs: LaneObs,
}

impl Lane {
    /// Apply the staged batch through one write session and clear it for
    /// reuse. Series not yet in the store are interned from their resolver
    /// slot in first-occurrence order — exactly serial interning order, so
    /// new-series ids match `put_batch`.
    fn ship(&mut self, resolver: &mut Resolver) {
        if self.staged.pts.is_empty() {
            return;
        }
        // Taken out while it is applied: a panic below then unwinds past an
        // empty lane, and the `Drop` flush does not apply the batch again.
        let mut batch = std::mem::take(&mut self.staged);
        let mut session = self.writer.session();
        let encoded_before = session.encoded_bytes_total();
        let mut off = 0usize;
        for &(r, len) in &batch.runs {
            let end = off + len as usize;
            let run = batch.pts.get(off..end);
            off = end;
            let Some(run) = run else {
                continue;
            };
            if let Some(id) = resolver.store_id(r, |metric, tags| session.intern(metric, tags)) {
                session.append_run(id, run);
            }
        }
        let encoded = session.encoded_bytes_total() - encoded_before;
        drop(session);
        self.obs.enqueued.add(batch.pts.len() as u64);
        self.obs.batches.inc();
        self.obs.encoded_bytes.add(encoded);
        batch.runs.clear();
        batch.pts.clear();
        self.staged = batch;
    }
}

/// One resolved series: its identity as ids into the [`Resolver`]'s name
/// tables, read by probe verification and by the first-sight intern, and
/// its store series id once a batch has interned it. A [`SeriesRef`] is the
/// slot's index.
#[derive(Debug)]
struct SeriesSlot {
    metric: u32,
    tags: u32,
    id: Option<SeriesId>,
}

/// Series resolution: `(metric, tags)` → handle, assigned in
/// first-occurrence order. Shared by [`IngestRuntime::register`] and the
/// string-keyed [`IngestRuntime::submit`], so both name a series the same.
/// Each distinct metric name and tag set is held once, however many series
/// share it.
#[derive(Debug, Default)]
struct Resolver {
    metrics: Interner<String>,
    tag_sets: Interner<TagSet>,
    /// `(metric id, tag-set id)` → slot index.
    by_pair: HashMap<(u32, u32), u32>,
    slots: Vec<SeriesSlot>,
    /// Memo of the slot the previous lookup resolved to. String-keyed
    /// input that arrives series by series (a bulk import, the
    /// `ingest_runs/runtime` bench) pays one equality check instead of hash +
    /// probe — ≈ 1.6× on that shape. The pipeline's traffic is nine
    /// different series per uplink and never hits it; that traffic goes by
    /// handle instead.
    last_slot: Option<u32>,
}

impl Resolver {
    /// Resolve a series to its handle, registering a new series (names and
    /// slot) on first sight.
    #[inline]
    fn resolve(&mut self, metric: &str, tags: &TagSet) -> SeriesRef {
        if let Some(idx) = self.last_slot {
            let memo = self.slots.get(idx as usize);
            if memo.is_some_and(|slot| self.names_of(slot) == Some((metric, tags))) {
                return SeriesRef(idx);
            }
        }
        let m = self.metrics.intern(metric);
        let t = self.tag_sets.intern(tags);
        let next = self.slots.len() as u32;
        let idx = *self.by_pair.entry((m, t)).or_insert(next);
        if idx == next {
            self.slots.push(SeriesSlot {
                metric: m,
                tags: t,
                id: None,
            });
        }
        self.last_slot = Some(idx);
        SeriesRef(idx)
    }

    /// The metric name and tag set a slot names.
    fn names_of(&self, slot: &SeriesSlot) -> Option<(&str, &TagSet)> {
        let metric = self.metrics.get(slot.metric)?;
        Some((metric.as_str(), self.tag_sets.get(slot.tags)?))
    }

    /// The store series id of slot `r`, interning it through `intern` with
    /// the slot's borrowed names on first use. `None` for an unknown slot.
    fn store_id(
        &mut self,
        r: u32,
        intern: impl FnOnce(&str, &TagSet) -> SeriesId,
    ) -> Option<SeriesId> {
        let slot = self.slots.get_mut(r as usize)?;
        match slot.id {
            Some(id) => Some(id),
            None => {
                let metric = self.metrics.get(slot.metric)?;
                let tags = self.tag_sets.get(slot.tags)?;
                Some(*slot.id.insert(intern(metric, tags)))
            }
        }
    }
}

/// The ingest runtime: one lane in front of the store, applied on the
/// caller. See the crate docs for the design and the equivalence contract.
pub struct IngestRuntime {
    lane: Lane,
    /// Staged points that trigger applying the batch.
    ship_points: usize,
    /// Series resolution: (metric, tags) → handle.
    resolver: Resolver,
}

impl std::fmt::Debug for IngestRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestRuntime")
            .field("series", &self.resolver.slots.len())
            .field("staged", &self.lane.staged.pts.len())
            .finish_non_exhaustive()
    }
}

impl IngestRuntime {
    /// Build a runtime over `db`, registering `ingest.shard0.*` metrics
    /// into `registry`.
    ///
    /// Call after [`ShardedTsdb::attach_registry`]: the writer handle
    /// captures the store's put counter current at this moment.
    pub fn new(db: &ShardedTsdb, registry: &Registry, config: IngestConfig) -> Self {
        let counter = |name: &str| registry.counter(&format!("ingest.shard0.{name}"));
        IngestRuntime {
            lane: Lane {
                writer: db.writer(),
                staged: LaneBatch::default(),
                obs: LaneObs {
                    enqueued: counter("enqueued"),
                    batches: counter("batches"),
                    encoded_bytes: counter("encoded_bytes"),
                },
            },
            ship_points: config.ship_points.max(1),
            resolver: Resolver::default(),
        }
    }

    /// Register a series and get its handle. Validates the metric and every
    /// tag key/value exactly as [`DataPoint::new`] does (`None` on an
    /// invalid name), then resolves the series once: key hash and table
    /// insert. Registering the same series again returns the same handle.
    /// Handles are assigned in registration order; a registered series
    /// costs the store nothing until its first point arrives.
    pub fn register(&mut self, metric: &str, tags: &TagSet) -> Option<SeriesRef> {
        let valid = is_valid_name(metric)
            && tags
                .iter()
                .all(|(k, v)| is_valid_name(k) && is_valid_name(v));
        valid.then(|| self.resolver.resolve(metric, tags))
    }

    /// Stage one point under the lane's current run header. Returns false
    /// (nothing staged) for a handle this runtime never issued.
    #[inline]
    fn stage(&mut self, h: SeriesRef, t: Timestamp, v: f64) -> bool {
        if h.0 as usize >= self.resolver.slots.len() {
            return false;
        }
        let staged = &mut self.lane.staged;
        match staged.runs.last_mut() {
            Some(run) if run.0 == h.0 => run.1 += 1,
            _ => staged.runs.push((h.0, 1)),
        }
        staged.pts.push((t, v));
        true
    }

    /// Apply the lane if its staged points reached `ship_points`.
    fn ship_full(&mut self) {
        if self.lane.staged.pts.len() >= self.ship_points {
            self.lane.ship(&mut self.resolver);
        }
    }

    /// Submit points by handle: the pipeline's put path. Each point is
    /// staged as a bare `(ts, value)` under the lane's run header and
    /// applied once the lane reaches `ship_points` (or at the next flush)
    /// — no strings, no hash, no probe. A non-finite value is skipped, as
    /// [`DataPoint::new`] would have refused it, and so is a handle this
    /// runtime never issued; the return value counts only the points
    /// accepted.
    pub fn submit_resolved(&mut self, points: &[(SeriesRef, Timestamp, f64)]) -> u64 {
        let mut accepted = 0u64;
        for &(h, t, v) in points {
            if v.is_finite() && self.stage(h, t, v) {
                accepted += 1;
            }
        }
        self.ship_full();
        accepted
    }

    /// Submit string-keyed points: the external/text boundary and the test
    /// oracle. Resolves each point's series through the same table
    /// [`IngestRuntime::register`] fills and stages it through the same
    /// code as [`IngestRuntime::submit_resolved`]. A [`DataPoint`] is
    /// already validated by its constructor, so nothing is filtered here:
    /// returns the number of points accepted — all of them.
    pub fn submit(&mut self, points: &[DataPoint]) -> u64 {
        let mut accepted = 0u64;
        for p in points {
            let h = self.resolver.resolve(&p.metric, &p.tags);
            if self.stage(h, p.time, p.value) {
                accepted += 1;
            }
        }
        self.ship_full();
        accepted
    }

    /// Apply everything still staged and release the staging buffers (the
    /// next segment regrows them). After this, the store is byte-identical
    /// to the same points having gone through [`ShardedTsdb::put_batch`] in
    /// submit order.
    pub fn flush(&mut self) {
        self.lane.ship(&mut self.resolver);
        self.lane.staged = LaneBatch::default();
    }
}

impl Drop for IngestRuntime {
    fn drop(&mut self) {
        // No accepted point is lost with the runtime.
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctt_tsdb::Query;

    fn dp(metric: &str, device: &str, t: i64, v: f64) -> DataPoint {
        DataPoint::new(
            metric,
            vec![("device".to_string(), device.to_string())],
            Timestamp(t),
            v,
        )
        .expect("valid point")
    }

    fn points(devices: u32, per_device: i64) -> Vec<DataPoint> {
        // Interleaved across devices, like the pipeline's drain batches.
        (0..per_device)
            .flat_map(|i| {
                (0..devices)
                    .map(move |d| dp("m", &format!("n{d}"), i * 300, f64::from(d) + i as f64))
            })
            .collect()
    }

    #[test]
    fn runtime_matches_put_batch_at_flush() {
        let registry_a = Registry::new();
        let mut a = ShardedTsdb::with_chunk_size(16);
        a.attach_registry(&registry_a);
        let registry_b = Registry::new();
        let mut b = ShardedTsdb::with_chunk_size(16);
        b.attach_registry(&registry_b);
        let mut rt = IngestRuntime::new(&b, &registry_b, IngestConfig::default());
        for chunk in points(8, 60).chunks(37) {
            a.put_batch(chunk);
            rt.submit(chunk);
        }
        rt.flush();
        assert_eq!(a.stats(), b.stats());
        let q = Query::range("m", Timestamp(0), Timestamp(60 * 300)).group_by("device");
        assert_eq!(a.execute(&q).expect("a"), b.execute(&q).expect("b"));
        // Put counters agree exactly.
        let at = Timestamp(0);
        let name = "tsdb.shard0.puts";
        assert_eq!(
            registry_a.snapshot(at).value(name),
            registry_b.snapshot(at).value(name)
        );
    }

    #[test]
    fn flush_releases_staging_and_matches_put_batch_at_every_flush() {
        let registry_a = Registry::new();
        let mut a = ShardedTsdb::with_chunk_size(16);
        a.attach_registry(&registry_a);
        let registry_b = Registry::new();
        let mut b = ShardedTsdb::with_chunk_size(16);
        b.attach_registry(&registry_b);
        let mut rt = IngestRuntime::new(&b, &registry_b, IngestConfig { ship_points: 64 });
        let q = Query::range("m", Timestamp(0), Timestamp(60 * 300)).group_by("device");
        let name = "tsdb.shard0.puts";
        let mut flushes = 0;
        for chunk in points(8, 60).chunks(37) {
            a.put_batch(chunk);
            rt.submit(chunk);
            rt.flush();
            flushes += 1;
            let staged = &rt.lane.staged;
            assert_eq!((staged.runs.capacity(), staged.pts.capacity()), (0, 0));
            assert_eq!(a.stats(), b.stats());
            assert_eq!(a.execute(&q).expect("a"), b.execute(&q).expect("b"));
            assert_eq!(
                registry_a.snapshot(Timestamp(0)).value(name),
                registry_b.snapshot(Timestamp(0)).value(name)
            );
        }
        assert!(flushes >= 10, "{flushes} flushes");
    }

    #[test]
    fn resolver_holds_each_metric_name_and_tag_set_once() {
        // A Trondheim-shaped city: 12 devices × 9 metrics.
        let db = ShardedTsdb::with_chunk_size(16);
        let mut rt = IngestRuntime::new(&db, &Registry::new(), IngestConfig::default());
        for d in 0..12 {
            let tags: TagSet = [
                ("city".to_string(), "trondheim".to_string()),
                ("device".to_string(), format!("n{d}")),
            ]
            .into();
            for m in 0..9 {
                let h = rt
                    .register(&format!("ctt.m{m}"), &tags)
                    .expect("valid names");
                rt.submit_resolved(&[(h, Timestamp(0), 1.0)]);
            }
        }
        rt.flush();
        assert_eq!(db.stats().series, 12 * 9);
        assert_eq!(rt.resolver.slots.len(), 12 * 9);
        assert_eq!(rt.resolver.tag_sets.len(), 12);
        assert_eq!(rt.resolver.metrics.len(), 9);
    }

    #[test]
    fn ingest_metrics_are_deterministic_across_replays() {
        let run = || {
            let registry = Registry::new();
            let mut db = ShardedTsdb::with_chunk_size(16);
            db.attach_registry(&registry);
            let mut rt = IngestRuntime::new(&db, &registry, IngestConfig { ship_points: 1 });
            for chunk in points(6, 50).chunks(23) {
                rt.submit(chunk);
            }
            rt.flush();
            registry.snapshot(Timestamp(0)).to_csv()
        };
        let a = run();
        assert_eq!(a, run(), "ingest metrics are a function of the workload");
        for name in ["enqueued", "batches", "encoded_bytes"] {
            assert!(a.contains(&format!("ingest.shard0.{name}")), "{name}");
        }
    }

    fn device_tags(device: &str) -> TagSet {
        [("device".to_string(), device.to_string())].into()
    }

    #[test]
    fn register_validates_names_like_datapoint_new() {
        let registry = Registry::new();
        let db = ShardedTsdb::with_chunk_size(16);
        let mut rt = IngestRuntime::new(&db, &registry, IngestConfig::default());
        assert!(rt.register("bad metric", &device_tags("n0")).is_none());
        assert!(rt.register("", &device_tags("n0")).is_none());
        assert!(rt.register("m", &device_tags("bad value")).is_none());
        let bad_key: TagSet = [("bad key".to_string(), "n0".to_string())].into();
        assert!(rt.register("m", &bad_key).is_none());
        let h = rt.register("m", &device_tags("n0")).expect("valid names");
        assert_eq!(rt.register("m", &device_tags("n0")), Some(h), "idempotent");
        assert_ne!(rt.register("m", &device_tags("n1")), Some(h));
        // Rejected names left nothing behind; registered ones cost the
        // store nothing until a point arrives.
        rt.flush();
        assert_eq!(db.stats().series, 0);
    }

    #[test]
    fn submit_resolved_skips_non_finite_values_uncounted() {
        let registry = Registry::new();
        let db = ShardedTsdb::with_chunk_size(16);
        let mut rt = IngestRuntime::new(&db, &registry, IngestConfig::default());
        let h = rt.register("m", &device_tags("n0")).expect("valid names");
        let accepted = rt.submit_resolved(&[
            (h, Timestamp(0), 1.0),
            (h, Timestamp(300), f64::NAN),
            (h, Timestamp(600), f64::INFINITY),
            (h, Timestamp(900), f64::NEG_INFINITY),
            (h, Timestamp(1200), 2.0),
        ]);
        assert_eq!(accepted, 2);
        rt.flush();
        assert_eq!(db.stats().points, 2);
        let (stored, _) = db
            .read_series("m", &device_tags("n0"), Timestamp(0), Timestamp(i64::MAX))
            .expect("series exists");
        assert_eq!(stored, vec![(Timestamp(0), 1.0), (Timestamp(1200), 2.0)]);
    }

    #[test]
    fn points_years_apart_flush_and_read_back() {
        // The Gorilla first delta does not hold 10⁸ s, so the store must
        // not put both in one chunk; an encoder panic would surface here.
        let db = ShardedTsdb::with_chunk_size(16);
        let mut rt = IngestRuntime::new(&db, &Registry::new(), IngestConfig::default());
        let h = rt.register("m", &device_tags("n0")).expect("valid names");
        let points = [(Timestamp(0), 1.0), (Timestamp(100_000_000), 2.0)];
        assert_eq!(rt.submit_resolved(&points.map(|(t, v)| (h, t, v))), 2);
        rt.flush();
        db.seal_all();
        let (stored, _) = db
            .read_series("m", &device_tags("n0"), Timestamp(0), Timestamp(i64::MAX))
            .expect("series exists");
        assert_eq!(stored, points);
    }

    #[test]
    fn foreign_handles_are_dropped_without_panic() {
        let registry = Registry::new();
        let wide_db = ShardedTsdb::with_chunk_size(16);
        let mut wide = IngestRuntime::new(&wide_db, &registry, IngestConfig::default());
        // Handles far past anything the narrow runtime issued.
        let foreign: Vec<SeriesRef> = (0..64)
            .filter_map(|d| wide.register("m", &device_tags(&format!("n{d}"))))
            .collect();
        assert_eq!(foreign.len(), 64);

        let narrow_db = ShardedTsdb::with_chunk_size(16);
        let mut narrow = IngestRuntime::new(&narrow_db, &Registry::new(), IngestConfig::default());
        let own = narrow
            .register("m", &device_tags("n0"))
            .expect("valid names");
        let mut batch: Vec<(SeriesRef, Timestamp, f64)> =
            foreign.iter().map(|&h| (h, Timestamp(0), 1.0)).collect();
        batch.push((own, Timestamp(0), 1.0));
        // Only handles that are in range for `narrow` (its one series) can
        // be taken for its own; everything else is dropped.
        let in_range = 1 + foreign.iter().filter(|&&h| h == own).count() as u64;
        assert_eq!(narrow.submit_resolved(&batch), in_range);
        narrow.flush();
        assert_eq!(narrow_db.stats().points, in_range);
        assert_eq!(narrow_db.stats().series, 1, "nothing foreign was interned");
    }

    #[test]
    fn drop_flushes_outstanding_batches() {
        let registry = Registry::new();
        let mut db = ShardedTsdb::with_chunk_size(16);
        db.attach_registry(&registry);
        {
            let mut rt = IngestRuntime::new(&db, &registry, IngestConfig::default());
            rt.submit(&points(3, 20));
        }
        assert_eq!(db.stats().points, 3 * 20);
    }
}
