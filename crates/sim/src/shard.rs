//! Sharded event space: one logical calendar partitioned by owning entity.
//!
//! A fleet of cities is one event-driven system, but almost every event is
//! local to a single city (a node transmission, a radio window resolve, a
//! storage drain). [`ShardedEventQueue`] exploits that: events are filed
//! into per-shard calendars keyed by their owning entity (city, node,
//! gateway — hashed with the same FNV-1a 64 discipline `ShardedTsdb` uses,
//! so the whole stack shards by one rule), while the rare events that span
//! shards (fleet rollups, shared integration feeds) go to a dedicated
//! *cross* lane.
//!
//! Dispatch is by **time slice**: [`ShardedEventQueue::pop_slice`] removes
//! every pending event at the next instant and returns them grouped by
//! shard — groups in ascending shard index, events inside a group in the
//! shard's `(priority, seq)` order, cross-lane events separate. The
//! driver (`ctt::Fleet`) dispatches the groups one after another on its
//! own thread. Cross-lane events run at the slice barrier, after every
//! shard-local event of the slice — that is the cross-shard routing rule,
//! and it is what keeps a rollup's view of the shards replay-stable.
//!
//! Per-shard `seq` counters are independent: the order *between* shards at
//! one instant is fixed by shard index, never by scheduling interleaving,
//! so adding a city to shard 3 cannot perturb shard 0's replay.
//!
//! Observability is always on and integer-cheap: per-shard dispatch
//! counters, a cross-lane counter, a slice count, and a slice-width
//! histogram ([`ShardedEventQueue::publish`] emits them under
//! `sim.shard<i>.dispatched`, `sim.cross_shard_events`, `sim.slices`,
//! `sim.slice_width`).

use crate::{EventKey, EventQueue};
use ctt_core::time::Timestamp;
use ctt_obs::{FixedHistogram, PercentileEstimate, Snapshot};
use std::fmt;
use std::fmt::Write as _;

/// FNV-1a 64-bit hash — deterministic (unlike `std`'s `RandomState`), so
/// shard assignment is replay-stable across processes and runs. Same
/// constants as `ShardedTsdb`'s private hasher; the parity test in
/// `crates/sim/tests/sharded_space.rs` pins the reference vectors.
pub fn fnv1a_64(key: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Slice-width buckets (events per instant): singleton ticks up to the
/// whole-fleet cadence bursts a 100k-node deployment produces.
const SLICE_WIDTH_BOUNDS: &[i64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096];

/// Every event pending at one instant, grouped by shard.
///
/// `shards` holds `(shard index, events)` pairs in ascending shard index;
/// each group is in that shard's `(priority, seq)` dispatch order and is
/// non-empty. `cross` holds the cross-lane events at the same instant, in
/// the lane's own dispatch order; they must run after all shard groups
/// (the slice barrier).
pub struct TimeSlice<E> {
    /// The instant every event in this slice fires at.
    pub time: Timestamp,
    /// Per-shard event groups, ascending shard index, each non-empty.
    pub shards: Vec<(usize, Vec<(EventKey, E)>)>,
    /// Cross-shard events: dispatch at the barrier, after every group.
    pub cross: Vec<(EventKey, E)>,
}

impl<E> TimeSlice<E> {
    /// Total events in the slice (shard groups plus cross lane).
    pub fn width(&self) -> usize {
        self.shards.iter().map(|(_, g)| g.len()).sum::<usize>() + self.cross.len()
    }
}

impl<E> fmt::Debug for TimeSlice<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimeSlice")
            .field("time", &self.time)
            .field("width", &self.width())
            .field("shard_groups", &self.shards.len())
            .field("cross", &self.cross.len())
            .finish()
    }
}

/// A deterministic calendar partitioned into per-entity shards plus a
/// cross-shard lane. See the module docs for the dispatch contract.
pub struct ShardedEventQueue<E> {
    shards: Vec<EventQueue<E>>,
    cross: EventQueue<E>,
    dispatched: Vec<u64>,
    cross_dispatched: u64,
    slices: u64,
    slice_width: FixedHistogram,
}

impl<E> fmt::Debug for ShardedEventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedEventQueue")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .field("slices", &self.slices)
            .field("cross_dispatched", &self.cross_dispatched)
            .finish()
    }
}

impl<E> ShardedEventQueue<E> {
    /// An empty space with `shards` shards (clamped to at least 1).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedEventQueue {
            shards: (0..shards).map(|_| EventQueue::new()).collect(),
            cross: EventQueue::new(),
            dispatched: vec![0; shards],
            cross_dispatched: 0,
            slices: 0,
            slice_width: FixedHistogram::new(SLICE_WIDTH_BOUNDS),
        }
    }

    /// Number of shards (cross lane excluded).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns `key` — FNV-1a of the entity key modulo the
    /// shard count, the same discipline `ShardedTsdb` routes series by.
    pub fn shard_of(&self, key: &str) -> usize {
        (fnv1a_64(key) % self.shards.len() as u64) as usize
    }

    /// Schedule `payload` at `time` in `priority` on `shard` (indices wrap
    /// modulo the shard count, keeping this panic-free on the hot path).
    /// Returns the key it was filed under; `seq` is per-shard.
    pub fn schedule(
        &mut self,
        shard: usize,
        time: Timestamp,
        priority: u8,
        payload: E,
    ) -> EventKey {
        let idx = shard % self.shards.len();
        match self.shards.get_mut(idx) {
            Some(q) => q.schedule(time, priority, payload),
            // Unreachable: `new` guarantees at least one shard.
            None => EventKey {
                time,
                priority,
                seq: 0,
            },
        }
    }

    /// Schedule a cross-shard event: it dispatches at the slice barrier,
    /// after every shard-local event of its instant.
    pub fn schedule_cross(&mut self, time: Timestamp, priority: u8, payload: E) -> EventKey {
        self.cross.schedule(time, priority, payload)
    }

    /// Total pending events across all shards and the cross lane.
    pub fn len(&self) -> usize {
        self.shards.iter().map(EventQueue::len).sum::<usize>() + self.cross.len()
    }

    /// Whether nothing is pending anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The earliest pending instant across every shard and the cross lane.
    pub fn next_time(&self) -> Option<Timestamp> {
        let mut next: Option<Timestamp> = None;
        for q in self.shards.iter().chain(std::iter::once(&self.cross)) {
            if let Some(key) = q.peek_key() {
                next = Some(next.map_or(key.time, |t| t.min(key.time)));
            }
        }
        next
    }

    /// Remove and return every event at the next pending instant. `None`
    /// when the space is empty.
    pub fn pop_slice(&mut self) -> Option<TimeSlice<E>> {
        self.pop_slice_until(Timestamp(i64::MAX), u8::MAX)
    }

    /// [`Self::pop_slice`] bounded by a run horizon: events admit while
    /// `time < end`, or at `time == end` only in priority classes
    /// `<= boundary_priority` — the same boundary rule the solo pipeline
    /// runner uses, which is what makes run-splitting invariant through
    /// the sharded path. Returns `None` when nothing qualifies.
    pub fn pop_slice_until(
        &mut self,
        end: Timestamp,
        boundary_priority: u8,
    ) -> Option<TimeSlice<E>> {
        let time = self.next_time()?;
        if time > end {
            return None;
        }
        let admit_all = time < end;
        let mut groups: Vec<(usize, Vec<(EventKey, E)>)> = Vec::new();
        for (idx, q) in self.shards.iter_mut().enumerate() {
            let group = drain_instant(q, time, admit_all, boundary_priority);
            if !group.is_empty() {
                if let Some(n) = self.dispatched.get_mut(idx) {
                    *n += group.len() as u64;
                }
                groups.push((idx, group));
            }
        }
        let cross = drain_instant(&mut self.cross, time, admit_all, boundary_priority);
        self.cross_dispatched += cross.len() as u64;
        let width = groups.iter().map(|(_, g)| g.len()).sum::<usize>() + cross.len();
        if width == 0 {
            // Everything at `time` sits beyond the boundary priority.
            return None;
        }
        self.slices += 1;
        self.slice_width.observe(width as i64);
        Some(TimeSlice {
            time,
            shards: groups,
            cross,
        })
    }

    /// Remove every pending shard-local event, as `(shard, events)` groups
    /// in ascending shard index, each group in dispatch order — *without*
    /// recording slice instrumentation. Maintenance for unmounting the
    /// space back into per-owner calendars; cross-lane events stay put
    /// (drain them with [`Self::drain_cross`]).
    pub fn drain_shards(&mut self) -> Vec<(usize, Vec<(EventKey, E)>)> {
        self.shards
            .iter_mut()
            .enumerate()
            .map(|(idx, q)| (idx, q.drain_ordered()))
            .collect()
    }

    /// Remove every pending cross-lane event in dispatch order, without
    /// recording instrumentation.
    pub fn drain_cross(&mut self) -> Vec<(EventKey, E)> {
        self.cross.drain_ordered()
    }

    /// Events dispatched through slices, per shard (index = shard).
    pub fn dispatched_by_shard(&self) -> &[u64] {
        &self.dispatched
    }

    /// Cross-lane events dispatched through slices.
    pub fn cross_dispatched(&self) -> u64 {
        self.cross_dispatched
    }

    /// Slices popped so far.
    pub fn slices(&self) -> u64 {
        self.slices
    }

    /// The slice-width histogram (events per popped slice).
    pub fn slice_width(&self) -> &FixedHistogram {
        &self.slice_width
    }

    /// Publish the space's dispatch profile under `sim.*` names.
    pub fn publish(&self, snap: &mut Snapshot) {
        for (idx, n) in self.dispatched.iter().enumerate() {
            snap.push_counter(&format!("sim.shard{idx}.dispatched"), *n);
        }
        snap.push_counter("sim.cross_shard_events", self.cross_dispatched);
        snap.push_counter("sim.slices", self.slices);
        snap.push_histogram("sim.slice_width", &self.slice_width);
        snap.push_gauge("sim.space.len", self.len() as i64);
    }

    /// Human-readable dispatch profile: shard table, cross lane, slice
    /// widths with percentile estimates.
    pub fn render_profile(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "space shards={} len={} slices={}",
            self.shards.len(),
            self.len(),
            self.slices
        );
        for (idx, (n, q)) in self.dispatched.iter().zip(self.shards.iter()).enumerate() {
            let _ = writeln!(
                out,
                "shard{idx} dispatched={n} pending={} high_water={}",
                q.len(),
                q.high_water()
            );
        }
        let _ = writeln!(
            out,
            "cross dispatched={} pending={}",
            self.cross_dispatched,
            self.cross.len()
        );
        let _ = write!(out, "slice_width");
        for (bound, count) in self.slice_width.buckets() {
            let _ = write!(out, " le_{bound}={count}");
        }
        let _ = writeln!(
            out,
            " overflow={} count={}",
            self.slice_width.overflow(),
            self.slice_width.count()
        );
        for (permille, label) in [(500u32, "p50"), (950, "p95"), (990, "p99")] {
            if let Some(estimate) = self.slice_width.percentile(permille) {
                let v = match estimate {
                    PercentileEstimate::Le(bound) => bound,
                    PercentileEstimate::Overflow => -1,
                };
                let _ = writeln!(out, "slice_width.{label}={v}");
            }
        }
        out
    }
}

/// Pop every event at `time` that the boundary rule admits, in the queue's
/// own dispatch order. Same-instant events are contiguous at the head and
/// priority-ordered, so the first violation ends the group.
fn drain_instant<E>(
    q: &mut EventQueue<E>,
    time: Timestamp,
    admit_all: bool,
    boundary_priority: u8,
) -> Vec<(EventKey, E)> {
    let mut group = Vec::new();
    while let Some(key) = q.peek_key() {
        if key.time != time || !(admit_all || key.priority <= boundary_priority) {
            break;
        }
        match q.pop() {
            Some(ev) => group.push(ev),
            None => break,
        }
    }
    group
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_parity_with_tsdb_discipline() {
        // Reference FNV-1a 64 vectors; `ShardedTsdb` uses the same
        // constants, so shard routing agrees across the stack.
        assert_eq!(fnv1a_64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn slice_groups_ascend_and_keep_per_shard_order() {
        let mut space: ShardedEventQueue<&'static str> = ShardedEventQueue::new(4);
        space.schedule(2, Timestamp(10), 1, "s2-p1");
        space.schedule(0, Timestamp(10), 3, "s0-p3");
        space.schedule(0, Timestamp(10), 0, "s0-p0");
        space.schedule(2, Timestamp(10), 1, "s2-p1-later");
        space.schedule(1, Timestamp(20), 0, "future");
        let slice = space.pop_slice().expect("events at t=10");
        assert_eq!(slice.time, Timestamp(10));
        assert_eq!(slice.width(), 4);
        let shape: Vec<(usize, Vec<&str>)> = slice
            .shards
            .iter()
            .map(|(i, g)| (*i, g.iter().map(|(_, p)| *p).collect()))
            .collect();
        assert_eq!(
            shape,
            vec![
                (0, vec!["s0-p0", "s0-p3"]),
                (2, vec!["s2-p1", "s2-p1-later"]),
            ]
        );
        assert!(slice.cross.is_empty());
        // Next slice is the future event on shard 1.
        let next = space.pop_slice().expect("t=20 pending");
        assert_eq!(next.time, Timestamp(20));
        assert_eq!(next.width(), 1);
        assert!(space.pop_slice().is_none());
    }

    #[test]
    fn boundary_rule_matches_solo_runner() {
        // At time == end only classes <= boundary admit; below end all do.
        let mut space: ShardedEventQueue<&'static str> = ShardedEventQueue::new(2);
        space.schedule(0, Timestamp(5), 4, "early-any-prio");
        space.schedule(0, Timestamp(10), 1, "at-end-radio");
        space.schedule(0, Timestamp(10), 3, "at-end-node");
        space.schedule(1, Timestamp(10), 0, "at-end-tick");
        let first = space
            .pop_slice_until(Timestamp(10), 1)
            .expect("t=5 admits all");
        assert_eq!(first.time, Timestamp(5));
        assert_eq!(first.width(), 1);
        let second = space
            .pop_slice_until(Timestamp(10), 1)
            .expect("boundary classes admit at end");
        assert_eq!(second.time, Timestamp(10));
        let names: Vec<&str> = second
            .shards
            .iter()
            .flat_map(|(_, g)| g.iter().map(|(_, p)| *p))
            .collect();
        assert_eq!(names, ["at-end-radio", "at-end-tick"]);
        // The p3 event stays pending beyond the boundary.
        assert!(space.pop_slice_until(Timestamp(10), 1).is_none());
        assert_eq!(space.len(), 1);
    }

    #[test]
    fn cross_lane_is_separate_and_counted() {
        let mut space: ShardedEventQueue<&'static str> = ShardedEventQueue::new(2);
        space.schedule(0, Timestamp(10), 3, "local");
        space.schedule_cross(Timestamp(10), 0, "rollup");
        let slice = space.pop_slice().expect("slice at t=10");
        assert_eq!(slice.width(), 2);
        assert_eq!(slice.cross.len(), 1);
        assert_eq!(slice.cross.first().map(|(_, p)| *p), Some("rollup"));
        assert_eq!(space.cross_dispatched(), 1);
        assert_eq!(space.dispatched_by_shard(), &[1, 0]);
        assert_eq!(space.slices(), 1);
        assert_eq!(space.slice_width().count(), 1);
    }

    #[test]
    fn publish_emits_pinned_names() {
        let mut space: ShardedEventQueue<u8> = ShardedEventQueue::new(2);
        space.schedule(0, Timestamp(1), 0, 1);
        space.schedule_cross(Timestamp(1), 0, 2);
        let _ = space.pop_slice();
        let mut snap = Snapshot::new(Timestamp(1));
        space.publish(&mut snap);
        assert_eq!(snap.value("sim.shard0.dispatched"), Some(1));
        assert_eq!(snap.value("sim.shard1.dispatched"), Some(0));
        assert_eq!(snap.value("sim.cross_shard_events"), Some(1));
        assert_eq!(snap.value("sim.slices"), Some(1));
        assert_eq!(snap.value("sim.slice_width.count"), Some(1));
        assert_eq!(snap.value("sim.space.len"), Some(0));
    }

    #[test]
    fn drain_shards_round_trips_without_instrumentation() {
        let mut space: ShardedEventQueue<&'static str> = ShardedEventQueue::new(2);
        space.schedule(1, Timestamp(4), 0, "x");
        space.schedule(1, Timestamp(2), 0, "y");
        space.schedule_cross(Timestamp(3), 0, "c");
        let groups = space.drain_shards();
        let flat: Vec<(usize, Vec<&str>)> = groups
            .iter()
            .map(|(i, g)| (*i, g.iter().map(|(_, p)| *p).collect()))
            .collect();
        assert_eq!(flat, vec![(0, vec![]), (1, vec!["y", "x"])]);
        assert_eq!(space.drain_cross().len(), 1);
        assert!(space.is_empty());
        assert_eq!(space.slices(), 0, "maintenance drains record no slices");
    }

    #[test]
    fn shard_of_wraps_and_is_stable() {
        let space: ShardedEventQueue<u8> = ShardedEventQueue::new(4);
        let s = space.shard_of("vejle");
        assert!(s < 4);
        assert_eq!(s, space.shard_of("vejle"), "replay-stable routing");
        assert_eq!(s, (fnv1a_64("vejle") % 4) as usize);
    }
}
