//! # ctt-ingest — single-writer sharded ingest runtime
//!
//! The storage tier's put path used to be "hash the point, take the
//! shard's `RwLock`, insert": correct, but every core contends on the same
//! handful of locks, per-point series-key strings are built twice, and the
//! intern map is probed for every single point. This crate restructures
//! ingest as a staged runtime, the way dedicated ingest tiers in the
//! related urban-sensing systems are built:
//!
//! * **One writer per shard.** Each TSDB shard is owned by exactly one
//!   writer thread. Producers never take a shard lock — they route points
//!   by the same FNV-1a series-key hash as [`ShardedTsdb`] and push
//!   batches onto the owner's bounded SPSC ring ([`ring::SpscRing`]).
//!   (The writer still takes its shard's `RwLock` once per ring batch so
//!   concurrent *readers* stay safe, but no other writer ever touches it —
//!   the put path itself acquires no lock.)
//! * **Register once, ship handles.** A device's series set is fixed at
//!   enrolment, so a producer resolves each series exactly once:
//!   [`IngestRuntime::register`] validates the names, hashes the key into
//!   the producer's open-addressed table, appends a definition to the
//!   owning lane's log, and returns a `Copy` [`SeriesRef`]. From then on
//!   [`IngestRuntime::submit_resolved`] takes `(SeriesRef, ts, value)` —
//!   no strings, no hash, no probe per point — and every point ships as a
//!   bare `(timestamp, value)` pair under a run header `(ref, len)` the
//!   writer feeds straight into the shard. The string-keyed
//!   [`IngestRuntime::submit`] is the external/text boundary and the test
//!   oracle: it resolves each point through the same table and stages it
//!   through the same code.
//! * **Batch interning.** The writer interns a series into the shard's
//!   map once per series *lifetime* (the id is cached per ref), not once
//!   per point, and applies each ring batch through one write session.
//! * **Arena batches.** Batch buffers (run headers + point arrays) are
//!   recycled ring → spare stack → producer, so steady-state ingest
//!   allocates nothing on the hot path.
//! * **Streaming seals.** Writers append through
//!   [`ctt_tsdb::Tsdb::append_run`], which feeds the store's streaming
//!   Gorilla encoder — sealing a chunk is a checkpoint rewind, not a
//!   re-encode of the whole open buffer.
//! * **Epoch publication.** A writer publishes each batch by dropping its
//!   [`ctt_tsdb::ShardWriteSession`], which bumps the same per-shard
//!   atomic epoch the query cache validates against — the serving stack
//!   is unchanged.
//!
//! ## Determinism contract
//!
//! The runtime is asynchronous between barriers and exactly equivalent at
//! them: after [`IngestRuntime::flush`], the sharded store (state, stats,
//! query results, per-shard `puts` counters) is byte-identical to having
//! called [`ShardedTsdb::put_batch`] with the same points in the same
//! order. The pipeline flushes at segment/slice boundaries, before
//! snapshots, and before reads, so replay, run-split invariance, and the
//! loss ledger see no difference.
//!
//! The runtime's own metrics are *producer-side* quantities so they share
//! that contract: admission is governed by a deterministic unflushed-batch
//! budget per lane (not by racing the writer), which makes `full_stalls`
//! and `ring_high_water` functions of the submitted workload alone —
//! byte-identical across replays — while also guaranteeing the physical
//! ring never overflows.
//!
//! ## Crash drill
//!
//! The occupied ring slot is the lane's write-ahead record: a writer
//! killed mid-batch ([`IngestRuntime::arm_crash`]) leaves the batch in the
//! ring; the next barrier joins the dead thread, respawns the writer, and
//! the batch is reapplied exactly once. Writer-local state (ref → series
//! id) dies with the thread and is rebuilt from the lane's definition log
//! and the shard's intern map, whose ids are stable.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod ring;

use ctt_core::time::Timestamp;
use ctt_obs::{Counter, Gauge, Registry};
use ctt_tsdb::model::is_valid_name;
use ctt_tsdb::{series_key_hash, DataPoint, SeriesId, ShardWriter, ShardedTsdb, TagSet};
use parking_lot::Mutex;
use ring::SpscRing;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};

/// Default bound on unflushed batches per lane (and the lane's physical
/// ring capacity). Reaching it forces a lane barrier — counted in
/// `full_stalls` — so producers can never overrun a slow writer.
pub const DEFAULT_LANE_CAPACITY: usize = 256;

/// Default staging threshold: a lane's staged points are shipped as one
/// ring batch once they reach this many, amortizing the per-batch costs
/// (ring hand-off, shard write session, writer wakeup) over more points.
/// Anything still staged ships at the next flush barrier regardless.
pub const DEFAULT_SHIP_POINTS: usize = 1024;

/// Ingest runtime tuning.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Unflushed-batch budget per lane; also the SPSC ring's slot count.
    pub lane_capacity: usize,
    /// Staged points per lane that trigger shipping a ring batch.
    pub ship_points: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            lane_capacity: DEFAULT_LANE_CAPACITY,
            ship_points: DEFAULT_SHIP_POINTS,
        }
    }
}

/// An opaque handle to one registered series: the lane (= shard) that owns
/// it and its index in that lane's definition log. Obtained from
/// [`IngestRuntime::register`] and only meaningful to the runtime that
/// issued it; [`IngestRuntime::submit_resolved`] drops handles that are out
/// of range for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeriesRef {
    lane: u32,
    r: u32,
}

/// One routed batch on a lane's ring: run headers `(ref, len)` over a flat
/// point array. The producer emits a new header only when the series
/// changes mid-stream, so the writer can feed each run straight into
/// [`ctt_tsdb::Tsdb::append_run`] — no per-point regrouping, no heap
/// traffic beyond the recycled buffers themselves.
#[derive(Debug, Default)]
struct LaneBatch {
    runs: Vec<(u32, u32)>,
    pts: Vec<(Timestamp, f64)>,
}

impl LaneBatch {
    fn clear(&mut self) {
        self.runs.clear();
        self.pts.clear();
    }
}

/// Per-lane observability, registered as `ingest.shard<i>.*`. All values
/// are producer-side or barrier-exact (see the crate docs), so snapshots
/// taken at flush barriers are replay-deterministic.
#[derive(Debug, Clone)]
struct LaneObs {
    /// Points shipped into this lane (by handle or by string key).
    enqueued: Counter,
    /// Ring batches applied by the writer (equals batches pushed, at
    /// barriers).
    batches: Counter,
    /// Forced lane barriers: a submit found the lane's unflushed-batch
    /// budget exhausted and waited for the writer to drain.
    full_stalls: Counter,
    /// Compressed bytes this lane's shard encoded during writer sessions.
    encoded_bytes: Counter,
    /// High-water of unflushed batches in this lane between barriers.
    ring_high_water: Gauge,
}

impl LaneObs {
    fn register(registry: &Registry, shard: usize) -> Self {
        LaneObs {
            enqueued: registry.counter(&format!("ingest.shard{shard}.enqueued")),
            batches: registry.counter(&format!("ingest.shard{shard}.batches")),
            full_stalls: registry.counter(&format!("ingest.shard{shard}.full_stalls")),
            encoded_bytes: registry.counter(&format!("ingest.shard{shard}.encoded_bytes")),
            ring_high_water: registry.gauge(&format!("ingest.shard{shard}.ring_high_water")),
        }
    }
}

/// State shared between a lane's producer side and its writer thread.
#[derive(Debug)]
struct LaneShared {
    ring: SpscRing<LaneBatch>,
    /// The lane's series definition log, indexed by ref. Append-only; the
    /// producer writes a new series' identity here *before* any of its
    /// points enter the ring, so a (re)spawned writer can always resolve
    /// every ref it encounters. Touched once per series lifetime by the
    /// producer and once per series per writer incarnation — never on the
    /// per-point path.
    defs: Mutex<Vec<(String, TagSet)>>,
    /// Cleared batch buffers flowing back writer → producer for reuse.
    spares: Mutex<Vec<LaneBatch>>,
    /// Batches fully applied (and popped) by the writer. The flush barrier
    /// waits for this to reach the producer's pushed count.
    applied: AtomicU64,
    /// The applied count a parked barrier is waiting for (`u64::MAX` when
    /// nobody waits). The writer only takes the waiter-unpark path when it
    /// crosses this, so a flush costs one wakeup, not one per batch.
    wait_target: AtomicU64,
    /// Writer liveness: set false by a crashing writer on its way out.
    alive: AtomicBool,
    /// Shutdown request: the writer drains the ring, then exits.
    shutdown: AtomicBool,
    /// Chaos: when set, the writer dies mid-batch (batch read off the
    /// ring's front but not applied) instead of applying the next batch.
    crash_next: AtomicBool,
    /// True while the writer is parked on an empty ring. Producers only
    /// pay the unpark syscall when this is set; a busy writer picks new
    /// batches up on its own.
    writer_parked: AtomicBool,
    /// The writer thread's handle for unparking (token semantics: the
    /// producer unparks after every push, so no wakeup is ever lost).
    thread: Mutex<Option<Thread>>,
    /// A barrier waiter's handle; unparked by the writer when `applied`
    /// crosses `wait_target`.
    waiter: Mutex<Option<Thread>>,
    obs: LaneObs,
}

impl LaneShared {
    fn unpark_writer(&self) {
        if let Some(t) = self.thread.lock().as_ref() {
            t.unpark();
        }
    }
}

/// Producer-side lane accounting. `pushed`/`acked` are written only by the
/// producer; they are atomics so `&self` barriers (`flush`) can read them.
#[derive(Debug)]
struct LaneLocal {
    shared: Arc<LaneShared>,
    writer: ShardWriter,
    /// Batches ever pushed onto the ring.
    pushed: AtomicU64,
    /// `pushed` as of the last completed barrier; `pushed - acked` is the
    /// deterministic unflushed budget admission charges against.
    acked: AtomicU64,
    /// Refs issued for this lane (= the definition log's length). Written
    /// and read by the producer only — it publishes nothing — so a handle's
    /// range check on the per-point path never takes the defs lock.
    defined: AtomicU64,
    join: Mutex<Option<JoinHandle<()>>>,
}

/// One resolved series on the producer side: its identity (for probe
/// verification) and the handle that routes it.
#[derive(Debug)]
struct ProducerSlot {
    metric: String,
    tags: TagSet,
    handle: SeriesRef,
}

/// Open-addressed series-key-hash table with full-key verification on
/// hits. Deterministic (FNV keys, linear probing, no `RandomState`) and
/// panic-free. Values are `slot_index + 1`; zero marks a vacant bucket.
#[derive(Debug, Default)]
struct KeyTable {
    entries: Vec<(u64, u32)>,
    len: usize,
}

impl KeyTable {
    #[inline]
    fn probe(&self, slots: &[ProducerSlot], hash: u64, metric: &str, tags: &TagSet) -> Option<u32> {
        if self.entries.is_empty() {
            return None;
        }
        let mask = self.entries.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let &(h, s) = self.entries.get(i)?;
            if s == 0 {
                return None;
            }
            if h == hash {
                if let Some(slot) = slots.get((s - 1) as usize) {
                    if slot.metric == metric && slot.tags == *tags {
                        return Some(s - 1);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    fn insert(&mut self, hash: u64, slot_plus1: u32) {
        if self.entries.len() < (self.len + 1) * 2 {
            self.grow();
        }
        let mask = self.entries.len().saturating_sub(1);
        let mut i = (hash as usize) & mask;
        loop {
            match self.entries.get_mut(i) {
                Some(e) if e.1 == 0 => {
                    *e = (hash, slot_plus1);
                    self.len += 1;
                    return;
                }
                Some(_) => i = (i + 1) & mask,
                None => return,
            }
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.entries.len() * 2).max(64);
        let old = std::mem::replace(&mut self.entries, vec![(0, 0); new_cap]);
        self.len = 0;
        for (h, s) in old {
            if s != 0 {
                self.insert(h, s);
            }
        }
    }
}

/// Producer-side series resolution: `(metric, tags)` → handle, assigned in
/// first-occurrence order. Shared by [`IngestRuntime::register`] and the
/// string-keyed [`IngestRuntime::submit`], so both name a series the same.
#[derive(Debug, Default)]
struct Resolver {
    table: KeyTable,
    slots: Vec<ProducerSlot>,
    /// Memo of the slot the previous lookup resolved to. String-keyed
    /// input that arrives series by series (a bulk import, the run-shaped
    /// `ingest_runtime` bench) pays one equality check instead of hash +
    /// probe — ≈ 1.6× on that shape. The pipeline's traffic is nine
    /// different series per uplink and never hits it; that traffic goes by
    /// handle instead.
    last_slot: Option<u32>,
}

impl Resolver {
    /// Resolve a series to its handle, registering a new series (key
    /// table + the owning lane's definition log) on first sight.
    #[inline]
    fn resolve(&mut self, lanes: &[LaneLocal], metric: &str, tags: &TagSet) -> Option<SeriesRef> {
        if let Some(slot) = self.last_slot.and_then(|idx| self.slots.get(idx as usize)) {
            if slot.metric == metric && slot.tags == *tags {
                return Some(slot.handle);
            }
        }
        let hash = series_key_hash(metric, tags);
        let idx = match self.table.probe(&self.slots, hash, metric, tags) {
            Some(idx) => idx,
            None => {
                let lane = hash.checked_rem(lanes.len() as u64)? as u32;
                let owner = lanes.get(lane as usize)?;
                // The definition is in the lane's log before the handle
                // exists, so no point can reach the ring ahead of it.
                let mut defs = owner.shared.defs.lock();
                let r = defs.len() as u32;
                defs.push((metric.to_string(), tags.clone()));
                owner.defined.store(defs.len() as u64, Ordering::Relaxed);
                drop(defs);
                let idx = self.slots.len() as u32;
                self.slots.push(ProducerSlot {
                    metric: metric.to_string(),
                    tags: tags.clone(),
                    handle: SeriesRef { lane, r },
                });
                self.table.insert(hash, idx + 1);
                idx
            }
        };
        self.last_slot = Some(idx);
        Some(self.slots.get(idx as usize)?.handle)
    }
}

/// Everything a writer thread owns: the ref → shard series id cache. Dies
/// with the thread on a crash and is rebuilt from the lane's definition
/// log and the shard's stable intern map on respawn.
#[derive(Debug, Default)]
struct WriterState {
    ids: Vec<Option<SeriesId>>,
}

impl WriterState {
    /// Apply one ring batch through one shard write session: each run
    /// header feeds its point subslice straight into the shard, resolving
    /// unknown refs from the lane's definition log (one intern per series
    /// per writer incarnation) in first-occurrence order — exactly serial
    /// interning order, so new-series ids match `put_batch`. Returns the
    /// compressed bytes the shard encoded during the session.
    fn apply(&mut self, writer: &ShardWriter, shared: &LaneShared, batch: &LaneBatch) -> u64 {
        let mut session = writer.session();
        let encoded_before = session.encoded_bytes_total();
        let mut off = 0usize;
        for &(r, len) in &batch.runs {
            let idx = r as usize;
            if idx >= self.ids.len() {
                self.ids.resize(idx + 1, None);
            }
            let id = match self.ids.get(idx).copied().flatten() {
                Some(id) => id,
                None => {
                    // Lock order: shard write lock (the session), then the
                    // defs mutex. The producer takes defs without ever
                    // holding a shard lock, so no cycle.
                    let defs = shared.defs.lock();
                    let Some((metric, tags)) = defs.get(idx) else {
                        off += len as usize;
                        continue;
                    };
                    let id = session.intern(metric, tags);
                    drop(defs);
                    if let Some(slot) = self.ids.get_mut(idx) {
                        *slot = Some(id);
                    }
                    id
                }
            };
            let end = off + len as usize;
            if let Some(run) = batch.pts.get(off..end) {
                session.append_run(id, run);
            }
            off = end;
        }
        session.encoded_bytes_total() - encoded_before
    }
}

/// What the writer found at the ring's front.
#[derive(Debug)]
enum Step {
    Applied(u64),
    Crashed,
}

/// The writer thread body for one lane.
fn writer_loop(shared: Arc<LaneShared>, writer: ShardWriter) {
    let mut state = WriterState::default();
    loop {
        let step = shared.ring.with_front(|batch| {
            if shared.crash_next.swap(false, Ordering::AcqRel) {
                // Chaos drill: die mid-batch — read off the ring's front
                // but not applied. The slot keeps the batch for the
                // respawned writer.
                return Step::Crashed;
            }
            Step::Applied(state.apply(&writer, &shared, batch))
        });
        match step {
            Some(Step::Crashed) => {
                shared.alive.store(false, Ordering::Release);
                return;
            }
            Some(Step::Applied(encoded)) => {
                shared.obs.encoded_bytes.add(encoded);
                shared.obs.batches.inc();
                if let Some(mut batch) = shared.ring.pop_front() {
                    batch.clear();
                    shared.spares.lock().push(batch);
                }
                let done = shared.applied.fetch_add(1, Ordering::AcqRel) + 1;
                if done >= shared.wait_target.load(Ordering::Acquire) {
                    if let Some(w) = shared.waiter.lock().as_ref() {
                        w.unpark();
                    }
                }
            }
            None => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Empty ring: park until the producer pushes. Publish the
                // parked flag BEFORE re-checking the ring: a producer that
                // pushes after the re-check already sees the flag and
                // unparks, so park returns immediately (token semantics —
                // no lost wakeup).
                shared.writer_parked.store(true, Ordering::Release);
                if shared.ring.depth() > 0 || shared.shutdown.load(Ordering::Acquire) {
                    shared.writer_parked.store(false, Ordering::Release);
                    continue;
                }
                std::thread::park();
                shared.writer_parked.store(false, Ordering::Release);
            }
        }
    }
}

/// The staged ingest runtime: one bounded SPSC lane and one writer thread
/// per TSDB shard. See the crate docs for the architecture and the
/// determinism contract.
pub struct IngestRuntime {
    lanes: Vec<LaneLocal>,
    /// Producer-side routing buffers, one per lane, recycled via spares.
    /// Staged points accumulate across `submit` calls and ship as one ring
    /// batch when a lane crosses `ship_points` — or at any flush barrier.
    /// Behind a mutex (uncontended: one lock per submit/flush, never per
    /// point) so `flush(&self)` can drain staged work too.
    staging: Mutex<Vec<LaneBatch>>,
    /// Staged points per lane that trigger shipping a ring batch.
    ship_points: usize,
    /// Series resolution: (metric, tags) → handle.
    resolver: Resolver,
}

impl std::fmt::Debug for IngestRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestRuntime")
            .field("lanes", &self.lanes.len())
            .field("series", &self.resolver.slots.len())
            .finish_non_exhaustive()
    }
}

impl IngestRuntime {
    /// Build a runtime over `db`'s shards, registering `ingest.shard<i>.*`
    /// metrics into `registry`, and spawn one writer per shard.
    ///
    /// Call after [`ShardedTsdb::attach_registry`]: writer handles capture
    /// the shard put counters current at this moment.
    pub fn new(db: &ShardedTsdb, registry: &Registry, config: IngestConfig) -> Self {
        let n = db.shard_count();
        let mut lanes = Vec::with_capacity(n);
        for shard in 0..n {
            let Some(writer) = db.writer(shard) else {
                continue;
            };
            let shared = Arc::new(LaneShared {
                ring: SpscRing::new(config.lane_capacity.max(1)),
                defs: Mutex::new(Vec::new()),
                spares: Mutex::new(Vec::new()),
                applied: AtomicU64::new(0),
                wait_target: AtomicU64::new(u64::MAX),
                alive: AtomicBool::new(true),
                shutdown: AtomicBool::new(false),
                crash_next: AtomicBool::new(false),
                writer_parked: AtomicBool::new(false),
                thread: Mutex::new(None),
                waiter: Mutex::new(None),
                obs: LaneObs::register(registry, shard),
            });
            let lane = LaneLocal {
                shared,
                writer,
                pushed: AtomicU64::new(0),
                acked: AtomicU64::new(0),
                defined: AtomicU64::new(0),
                join: Mutex::new(None),
            };
            Self::spawn_writer(&lane);
            lanes.push(lane);
        }
        IngestRuntime {
            staging: Mutex::new((0..lanes.len()).map(|_| LaneBatch::default()).collect()),
            ship_points: config.ship_points.max(1),
            lanes,
            resolver: Resolver::default(),
        }
    }

    /// Spawn (or respawn) a lane's writer thread.
    fn spawn_writer(lane: &LaneLocal) {
        let shared = Arc::clone(&lane.shared);
        let writer = lane.writer.clone();
        let name = format!("ctt-ingest-{}", lane.writer.shard());
        shared.alive.store(true, Ordering::Release);
        if let Ok(handle) = std::thread::Builder::new()
            .name(name)
            .spawn(move || writer_loop(shared, writer))
        {
            *lane.shared.thread.lock() = Some(handle.thread().clone());
            *lane.join.lock() = Some(handle);
        } else {
            lane.shared.alive.store(false, Ordering::Release);
        }
    }

    /// Number of lanes (= shards).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Register a series and get its handle. Validates the metric and every
    /// tag key/value exactly as [`DataPoint::new`] does (`None` on an
    /// invalid name, or on a runtime with no lanes), then resolves the
    /// series once: key hash, table insert, and an append to the owning
    /// lane's definition log — all before any point can carry the handle.
    /// Registering the same series again returns the same handle. Handles
    /// are assigned in registration order per lane; a registered series
    /// costs the store nothing until its first point arrives.
    pub fn register(&mut self, metric: &str, tags: &TagSet) -> Option<SeriesRef> {
        let valid = is_valid_name(metric)
            && tags
                .iter()
                .all(|(k, v)| is_valid_name(k) && is_valid_name(v));
        if !valid {
            return None;
        }
        self.resolver.resolve(&self.lanes, metric, tags)
    }

    /// Stage one point under its lane's current run header. Returns false
    /// (staging untouched) for a handle this runtime never issued: a lane
    /// it does not have, or a ref past that lane's definition log.
    #[inline]
    fn stage(
        staging: &mut [LaneBatch],
        lanes: &[LaneLocal],
        h: SeriesRef,
        t: Timestamp,
        v: f64,
    ) -> bool {
        let (Some(stage), Some(lane)) =
            (staging.get_mut(h.lane as usize), lanes.get(h.lane as usize))
        else {
            return false;
        };
        if u64::from(h.r) >= lane.defined.load(Ordering::Relaxed) {
            return false;
        }
        match stage.runs.last_mut() {
            Some(run) if run.0 == h.r => run.1 += 1,
            _ => stage.runs.push((h.r, 1)),
        }
        stage.pts.push((t, v));
        true
    }

    /// Ship every lane whose staged points reached `ship_points`.
    fn ship_full(&self, staging: &mut [LaneBatch]) {
        for (lane, stage) in self.lanes.iter().zip(staging) {
            if stage.pts.len() >= self.ship_points {
                Self::ship(lane, stage);
            }
        }
    }

    /// Submit points by handle: the pipeline's put path. Each point is
    /// staged as a bare `(ts, value)` under its lane's run header and
    /// shipped once the lane reaches `ship_points` (or at the next flush
    /// barrier) — no strings, no hash, no probe. A non-finite value is
    /// skipped, as [`DataPoint::new`] would have refused it, and so is a
    /// handle this runtime never issued (lane or ref out of range); the
    /// return value counts only the points accepted. Blocks on a lane's
    /// barrier (counted in `full_stalls`) rather than dropping data when
    /// that lane's unflushed budget is exhausted.
    pub fn submit_resolved(&mut self, points: &[(SeriesRef, Timestamp, f64)]) -> u64 {
        let mut staging = self.staging.lock();
        let mut accepted = 0u64;
        for &(h, t, v) in points {
            if v.is_finite() && Self::stage(&mut staging, &self.lanes, h, t, v) {
                accepted += 1;
            }
        }
        self.ship_full(&mut staging);
        accepted
    }

    /// Submit string-keyed points: the external/text boundary and the test
    /// oracle. Resolves each point's series through the same table
    /// [`IngestRuntime::register`] fills (routing by the same FNV-1a
    /// series-key discipline as [`ShardedTsdb::put_batch`]) and stages it
    /// through the same code as [`IngestRuntime::submit_resolved`]. A
    /// [`DataPoint`] is already validated by its constructor, so nothing
    /// is filtered here: returns the number of points accepted — all of
    /// them, on a runtime with lanes.
    pub fn submit(&mut self, points: &[DataPoint]) -> u64 {
        let mut staging = self.staging.lock();
        let mut accepted = 0u64;
        for p in points {
            let Some(h) = self.resolver.resolve(&self.lanes, &p.metric, &p.tags) else {
                continue;
            };
            if Self::stage(&mut staging, &self.lanes, h, p.time, p.value) {
                accepted += 1;
            }
        }
        self.ship_full(&mut staging);
        accepted
    }

    /// Hand one lane's staged batch to its writer: deterministic
    /// admission, buffer swap against the spare pool, ring push, counters.
    fn ship(lane: &LaneLocal, stage: &mut LaneBatch) {
        let staged = stage.pts.len();
        if staged == 0 {
            return;
        }
        // Deterministic admission: the unflushed-batch budget depends only
        // on the submitted workload, never on writer timing. It also
        // bounds ring occupancy (applied >= acked), so the physical push
        // below cannot find the ring full.
        let unflushed = lane.pushed.load(Ordering::Relaxed) - lane.acked.load(Ordering::Relaxed);
        if unflushed >= lane.shared.ring.capacity() as u64 {
            lane.shared.obs.full_stalls.inc();
            Self::barrier(lane);
        }
        let spare = lane.shared.spares.lock().pop().unwrap_or_default();
        let mut batch = std::mem::replace(stage, spare);
        loop {
            match lane.shared.ring.push(batch) {
                Ok(()) => break,
                Err(back) => {
                    // Unreachable by the budget argument above; kept as a
                    // safety backstop rather than a panic.
                    batch = back;
                    lane.shared.unpark_writer();
                    std::thread::yield_now();
                }
            }
        }
        lane.pushed.fetch_add(1, Ordering::Release);
        lane.shared.obs.enqueued.add(staged as u64);
        let unflushed = lane.pushed.load(Ordering::Relaxed) - lane.acked.load(Ordering::Relaxed);
        lane.shared.obs.ring_high_water.raise_to(unflushed as i64);
        if lane.shared.writer_parked.load(Ordering::Acquire) {
            lane.shared.unpark_writer();
        }
    }

    /// Wait until one lane's writer has applied everything its producer
    /// pushed, respawning the writer if it died (the crash drill path).
    /// The waiter parks after publishing its target; the writer unparks it
    /// once `applied` crosses that target, with a bounded park timeout as
    /// the backstop against the publish/apply race.
    fn barrier(lane: &LaneLocal) {
        let target = lane.pushed.load(Ordering::Acquire);
        if lane.shared.applied.load(Ordering::Acquire) >= target {
            lane.acked.store(target, Ordering::Release);
            return;
        }
        // lint:allow(det) -- wakeup routing only; never a replayed observable
        *lane.shared.waiter.lock() = Some(std::thread::current());
        lane.shared.wait_target.store(target, Ordering::Release);
        while lane.shared.applied.load(Ordering::Acquire) < target {
            if !lane.shared.alive.load(Ordering::Acquire) {
                // Writer died mid-batch. Join the corpse, then respawn; the
                // in-flight batch is still in the ring and is reapplied
                // exactly once by the fresh writer.
                if let Some(handle) = lane.join.lock().take() {
                    let _ = handle.join();
                }
                Self::spawn_writer(lane);
            }
            lane.shared.unpark_writer();
            std::thread::park_timeout(std::time::Duration::from_micros(200));
        }
        lane.shared.wait_target.store(u64::MAX, Ordering::Release);
        *lane.shared.waiter.lock() = None;
        lane.acked.store(target, Ordering::Release);
    }

    /// Synchronous flush barrier: ships anything still staged, then
    /// returns once every lane's writer has applied every submitted
    /// point. After this, the sharded store is byte-identical to the same
    /// points having gone through [`ShardedTsdb::put_batch`] in submit
    /// order.
    pub fn flush(&self) {
        let mut staging = self.staging.lock();
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(stage) = staging.get_mut(i) {
                Self::ship(lane, stage);
            }
        }
        drop(staging);
        for lane in &self.lanes {
            Self::barrier(lane);
        }
    }

    /// Chaos drill: make one shard's writer die mid-batch (after reading
    /// the next batch off the ring, before applying it). The writer is
    /// respawned at the next barrier and the batch is reapplied exactly
    /// once. No-op for out-of-range shards.
    pub fn arm_crash(&self, shard: usize) {
        if let Some(lane) = self.lanes.get(shard) {
            lane.shared.crash_next.store(true, Ordering::Release);
            lane.shared.unpark_writer();
        }
    }

    /// Whether a lane's writer thread is currently alive (test hook for
    /// the crash drill).
    pub fn writer_alive(&self, shard: usize) -> bool {
        self.lanes
            .get(shard)
            .is_some_and(|l| l.shared.alive.load(Ordering::Acquire))
    }
}

impl Drop for IngestRuntime {
    fn drop(&mut self) {
        // Drain everything first so no accepted point is lost, then stop
        // the writers.
        self.flush();
        for lane in &self.lanes {
            lane.shared.shutdown.store(true, Ordering::Release);
            lane.shared.unpark_writer();
        }
        for lane in &self.lanes {
            if let Some(handle) = lane.join.lock().take() {
                let _ = handle.join();
            }
        }
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
        let mut a = ShardedTsdb::with_chunk_size(4, 16);
        a.attach_registry(&registry_a);
        let registry_b = Registry::new();
        let mut b = ShardedTsdb::with_chunk_size(4, 16);
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
        // Shard put counters agree exactly.
        let at = Timestamp(0);
        let snap_a = registry_a.snapshot(at);
        let snap_b = registry_b.snapshot(at);
        for i in 0..4 {
            let name = format!("tsdb.shard{i}.puts");
            assert_eq!(snap_a.value(&name), snap_b.value(&name), "{name}");
        }
    }

    #[test]
    fn ingest_metrics_are_deterministic_across_replays() {
        let run = || {
            let registry = Registry::new();
            let mut db = ShardedTsdb::with_chunk_size(4, 16);
            db.attach_registry(&registry);
            let mut rt = IngestRuntime::new(
                &db,
                &registry,
                IngestConfig {
                    lane_capacity: 2,
                    ship_points: 1,
                },
            );
            for chunk in points(6, 50).chunks(23) {
                rt.submit(chunk);
            }
            rt.flush();
            registry.snapshot(Timestamp(0)).to_csv()
        };
        let a = run();
        assert_eq!(a, run(), "ingest metrics must not depend on thread timing");
        assert!(a.contains("ingest.shard0.enqueued"));
        assert!(a.contains("ingest.shard0.ring_high_water"));
    }

    #[test]
    fn tiny_lane_budget_forces_deterministic_stalls() {
        let registry = Registry::new();
        let mut db = ShardedTsdb::with_chunk_size(2, 16);
        db.attach_registry(&registry);
        let mut rt = IngestRuntime::new(
            &db,
            &registry,
            IngestConfig {
                lane_capacity: 1,
                ship_points: 1,
            },
        );
        for chunk in points(4, 40).chunks(11) {
            rt.submit(chunk);
        }
        rt.flush();
        let snap = registry.snapshot(Timestamp(0));
        let stalls: i128 = (0..2)
            .map(|i| {
                snap.value(&format!("ingest.shard{i}.full_stalls"))
                    .unwrap_or(0)
            })
            .sum();
        assert!(
            stalls > 0,
            "budget 1 with many submits must stall:\n{snap:?}"
        );
        assert_eq!(db.stats().points, 4 * 40, "stalls never drop points");
    }

    #[test]
    fn crash_mid_batch_loses_and_duplicates_nothing() {
        let registry = Registry::new();
        let mut db = ShardedTsdb::with_chunk_size(2, 16);
        db.attach_registry(&registry);
        let mut rt = IngestRuntime::new(&db, &registry, IngestConfig::default());
        let all = points(4, 30);
        let mid = all.len() / 2;
        rt.submit(all.get(..mid).unwrap_or_default());
        rt.flush();
        rt.arm_crash(0);
        rt.arm_crash(1);
        rt.submit(all.get(mid..).unwrap_or_default());
        rt.flush();
        assert!(
            rt.writer_alive(0) && rt.writer_alive(1),
            "writers respawned"
        );
        // Reference store, no crash.
        let mut reference = ShardedTsdb::with_chunk_size(2, 16);
        reference.attach_registry(&Registry::new());
        reference.put_batch(&all);
        assert_eq!(db.stats(), reference.stats());
        let q = Query::range("m", Timestamp(0), Timestamp(30 * 300)).group_by("device");
        assert_eq!(
            db.execute(&q).expect("db"),
            reference.execute(&q).expect("reference")
        );
    }

    fn device_tags(device: &str) -> TagSet {
        [("device".to_string(), device.to_string())].into()
    }

    #[test]
    fn register_validates_names_like_datapoint_new() {
        let registry = Registry::new();
        let db = ShardedTsdb::with_chunk_size(2, 16);
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
        let db = ShardedTsdb::with_chunk_size(2, 16);
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
    fn foreign_handles_are_dropped_without_panic() {
        let registry = Registry::new();
        let wide_db = ShardedTsdb::with_chunk_size(8, 16);
        let mut wide = IngestRuntime::new(&wide_db, &registry, IngestConfig::default());
        // Enough series that some lane of the wide runtime holds several
        // refs and every lane index up to 7 is in use.
        let foreign: Vec<SeriesRef> = (0..64)
            .filter_map(|d| wide.register("m", &device_tags(&format!("n{d}"))))
            .collect();
        assert_eq!(foreign.len(), 64);

        let narrow_db = ShardedTsdb::with_chunk_size(1, 16);
        let mut narrow = IngestRuntime::new(&narrow_db, &Registry::new(), IngestConfig::default());
        let own = narrow
            .register("m", &device_tags("n0"))
            .expect("valid names");
        let mut batch: Vec<(SeriesRef, Timestamp, f64)> =
            foreign.iter().map(|&h| (h, Timestamp(0), 1.0)).collect();
        batch.push((own, Timestamp(0), 1.0));
        // Only handles that are in range for `narrow` (lane 0, ref 0) can
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
        let mut db = ShardedTsdb::with_chunk_size(2, 16);
        db.attach_registry(&registry);
        {
            let mut rt = IngestRuntime::new(&db, &registry, IngestConfig::default());
            rt.submit(&points(3, 20));
        }
        assert_eq!(db.stats().points, 3 * 20);
    }
}
