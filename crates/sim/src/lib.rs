//! # ctt-sim — deterministic discrete-event core
//!
//! The CTT system is event-driven end to end (LoRaWAN uplinks → MQTT →
//! TSDB → dataport twins), and the simulation must replay byte-identically:
//! the determinism suite compares alarm traces, ledgers, and TSDB contents
//! across runs. This crate is the one scheduling substrate every time-driven
//! layer dispatches through:
//!
//! * an [`EventQueue`]: a binary-heap calendar queue keyed by
//!   `(Timestamp, priority class, monotonic sequence number)`. Two events at
//!   the same instant are ordered first by their priority class, then by
//!   the order they were scheduled — so same-instant ordering is pinned and
//!   replay-stable, never a heap-internals accident;
//! * a [`SimClock`]: the single monotone notion of "now", advanced only by
//!   event dispatch;
//! * a [`Schedulable`] trait for components that know when they next need
//!   to run (radio window deadlines, dataport tick cadences, chaos
//!   transitions), so the driving loop registers them instead of polling.
//!
//! The queue is payload-generic and allocation-lean: `O(log n)` push/pop,
//! nothing else. Policy — what the priority classes mean, what an event
//! does — belongs to the caller.
//!
//! The pop path is the single choke point every time-driven layer passes
//! through, so observability hangs here: an optional [`QueueObs`] records
//! per-priority-class dispatch counts, an inter-event time histogram, and
//! a bounded trace of `(EventKey, payload discriminant)` — one attach call
//! yields a scheduling profile for the whole run without instrumenting
//! each subsystem. The queue always tracks its depth high-water mark
//! (one comparison per schedule).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

use ctt_core::time::Timestamp;
use ctt_obs::{FixedHistogram, Snapshot, TraceSink};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::fmt;

/// The total-order key of one scheduled event.
///
/// Events dispatch in ascending `(time, priority, seq)` order. `seq` is
/// assigned monotonically by [`EventQueue::schedule`], so events that share
/// a timestamp and a priority class run in the order they were scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// When the event fires.
    pub time: Timestamp,
    /// Priority class: lower runs first among same-instant events.
    pub priority: u8,
    /// Monotonic schedule order, the final tie-break.
    pub seq: u64,
}

/// Bits of `seq` kept in the packed word. Sequence numbers are assigned
/// from 0 per queue, so 2^56 schedules per queue is unreachable in any run
/// we model; the packed word is the *only* per-entry copy of the key (the
/// heap entry stays 2 words + payload, which is what keeps sift swaps
/// cheap), so a popped key's `seq` is the 56-bit value.
const PACKED_SEQ_BITS: u32 = 56;
const PACKED_SEQ_MASK: u64 = (1 << PACKED_SEQ_BITS) - 1;

/// Pack `(time, priority, seq)` into one `u128` whose integer order equals
/// the lexicographic key order. Heap sift compares are then a single wide
/// compare instead of a three-field chain — measurable on the small-fleet
/// dispatch path where pop/reschedule dominates. The time bias flips the
/// sign bit so negative timestamps (pre-epoch) still sort below positive.
fn pack_key(key: EventKey) -> u128 {
    let time = (key.time.as_seconds() as u64) ^ (1u64 << 63);
    (u128::from(time) << 64)
        | (u128::from(key.priority) << PACKED_SEQ_BITS)
        | u128::from(key.seq & PACKED_SEQ_MASK)
}

/// Inverse of [`pack_key`]. Exact for any key whose `seq` fits
/// [`PACKED_SEQ_BITS`] — i.e. every key a real queue ever assigns.
fn unpack_key(packed: u128) -> EventKey {
    let low = packed as u64;
    EventKey {
        time: Timestamp((((packed >> 64) as u64) ^ (1u64 << 63)) as i64),
        priority: (low >> PACKED_SEQ_BITS) as u8,
        seq: low & PACKED_SEQ_MASK,
    }
}

#[derive(Debug)]
struct Entry<E> {
    /// The packed key (see [`pack_key`]): the only compared field and the
    /// only stored copy — keys are unpacked on pop/peek.
    packed: u128,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.packed == other.packed
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.packed.cmp(&other.packed)
    }
}

/// Dispatch instrumentation attached to an [`EventQueue`] via
/// [`EventQueue::attach_obs`].
///
/// All state is plain (non-atomic) integers: the dispatch loop is
/// single-threaded by construction, and the whole record step is a handful
/// of adds — the `obs_overhead` bench gates it at ≤ 20% of the bare
/// dispatch loop (measured 11-15% on the single-core CI container; the
/// packed-key entry shrink made the bare pop cheaper, which raised the
/// *relative* share of the unchanged record cost). The payload
/// discriminant comes from a caller-supplied labelling function, so the
/// queue stays payload-generic.
pub struct QueueObs<E> {
    label_of: fn(&E) -> &'static str,
    /// Dispatch count per priority class, indexed by class.
    by_priority: Vec<u64>,
    dispatched: u64,
    last_time: Option<Timestamp>,
    /// Seconds between consecutive dispatches.
    inter_event: FixedHistogram,
    trace: Option<TraceSink>,
}

impl<E> fmt::Debug for QueueObs<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueueObs")
            .field("dispatched", &self.dispatched)
            .field("by_priority", &self.by_priority)
            .field("trace", &self.trace.is_some())
            .finish()
    }
}

/// Inter-event time buckets (seconds): sub-second bursts up to the hour.
const INTER_EVENT_BOUNDS: &[i64] = &[0, 1, 2, 5, 15, 60, 300, 900, 3600];

impl<E> QueueObs<E> {
    /// Instrumentation using `label_of` to name payload discriminants.
    pub fn new(label_of: fn(&E) -> &'static str) -> Self {
        QueueObs {
            label_of,
            by_priority: Vec::new(),
            dispatched: 0,
            last_time: None,
            inter_event: FixedHistogram::new(INTER_EVENT_BOUNDS),
            trace: None,
        }
    }

    /// Also keep a bounded trace of the first `capacity` dispatches
    /// (builder style).
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace = Some(TraceSink::new(capacity));
        self
    }

    /// Enable the bounded trace sink in place. A fresh sink replaces any
    /// existing one; dispatch counts are untouched.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceSink::new(capacity));
    }

    /// Record one dispatched event.
    fn record(&mut self, key: EventKey, payload: &E) {
        self.dispatched += 1;
        let prio = usize::from(key.priority);
        if prio >= self.by_priority.len() {
            self.by_priority.resize(prio + 1, 0);
        }
        if let Some(slot) = self.by_priority.get_mut(prio) {
            *slot += 1;
        }
        if let Some(last) = self.last_time {
            self.inter_event
                .observe(key.time.as_seconds() - last.as_seconds());
        }
        self.last_time = Some(key.time);
        if let Some(trace) = self.trace.as_mut() {
            trace.record(key.time, key.priority, key.seq, (self.label_of)(payload));
        }
    }

    /// Total events dispatched while attached.
    pub fn dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Dispatch counts per priority class (index = class).
    pub fn dispatch_counts(&self) -> &[u64] {
        &self.by_priority
    }

    /// The inter-event time histogram (seconds between dispatches).
    pub fn inter_event(&self) -> &FixedHistogram {
        &self.inter_event
    }

    /// The bounded dispatch trace, when enabled.
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// Publish the dispatch profile into a snapshot under `sim.*` names.
    pub fn publish(&self, snap: &mut Snapshot) {
        snap.push_counter("sim.dispatch.total", self.dispatched);
        for (prio, count) in self.by_priority.iter().enumerate() {
            snap.push_counter(&format!("sim.dispatch.p{prio}"), *count);
        }
        snap.push_histogram("sim.inter_event_s", &self.inter_event);
        // Percentile gauges make gap regressions readable without
        // reconstructing them from the cumulative buckets; -1 encodes the
        // overflow region (above the last bound).
        for (permille, label) in [(500u32, "p50"), (950, "p95"), (990, "p99")] {
            if let Some(estimate) = self.inter_event.percentile(permille) {
                let v = match estimate {
                    ctt_obs::PercentileEstimate::Le(bound) => bound,
                    ctt_obs::PercentileEstimate::Overflow => -1,
                };
                snap.push_gauge(&format!("sim.inter_event_s.{label}"), v);
            }
        }
        if let Some(trace) = &self.trace {
            snap.push_counter("sim.trace.kept", trace.events().len() as u64);
            snap.push_counter("sim.trace.dropped", trace.dropped());
        }
    }
}

/// A deterministic calendar queue: a min-heap of events keyed by
/// [`EventKey`].
///
/// `BinaryHeap` alone is not replay-stable for equal keys; the monotonic
/// `seq` component makes every key unique, so the dequeue order is a pure
/// function of the schedule calls — independent of heap layout, platform,
/// or allocator.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
    high_water: usize,
    obs: Option<QueueObs<E>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            high_water: 0,
            obs: None,
        }
    }

    /// Attach dispatch instrumentation. Counting starts at the next pop;
    /// a second attach replaces the first (counts restart from zero).
    pub fn attach_obs(&mut self, obs: QueueObs<E>) {
        self.obs = Some(obs);
    }

    /// The attached instrumentation, if any.
    pub fn obs(&self) -> Option<&QueueObs<E>> {
        self.obs.as_ref()
    }

    /// Mutable access to the attached instrumentation (e.g. to enable the
    /// trace sink mid-life without resetting dispatch counts).
    pub fn obs_mut(&mut self) -> Option<&mut QueueObs<E>> {
        self.obs.as_mut()
    }

    /// Schedule `payload` at `time` in the given priority class, returning
    /// the key it was filed under. `O(log n)`.
    pub fn schedule(&mut self, time: Timestamp, priority: u8, payload: E) -> EventKey {
        let key = EventKey {
            time,
            priority,
            seq: self.next_seq,
        };
        self.next_seq = self.next_seq.wrapping_add(1);
        self.heap.push(Reverse(Entry {
            packed: pack_key(key),
            payload,
        }));
        self.high_water = self.high_water.max(self.heap.len());
        key
    }

    /// The key of the next event to fire, without removing it.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|Reverse(e)| unpack_key(e.packed))
    }

    /// Remove and return the next event. `O(log n)`.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        let popped = self
            .heap
            .pop()
            .map(|Reverse(e)| (unpack_key(e.packed), e.payload));
        if let Some(obs) = self.obs.as_mut() {
            if let Some((key, payload)) = popped.as_ref() {
                obs.record(*key, payload);
            }
        }
        popped
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The deepest the queue has ever been (pending events), across the
    /// queue's whole life.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

/// The simulation's single monotone clock. Time only moves forward: an
/// `advance` to the past is clamped to the current instant (panic-free —
/// this sits on the dispatch hot path), so a well-ordered event stream is
/// reflected exactly and a misordered one cannot rewind history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimClock {
    now: Timestamp,
}

impl SimClock {
    /// A clock starting at `start`.
    pub fn new(start: Timestamp) -> Self {
        SimClock { now: start }
    }

    /// The current instant.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Advance to `to` (monotone: earlier instants are clamped to now).
    /// Returns the clock's time after the advance.
    pub fn advance(&mut self, to: Timestamp) -> Timestamp {
        if to > self.now {
            self.now = to;
        }
        self.now
    }
}

/// A component that knows when it next needs to run.
///
/// The driving loop asks after each dispatch and (re)schedules accordingly
/// — components register their cadences and deadlines instead of being
/// polled every iteration. `None` means "nothing pending".
pub trait Schedulable {
    /// The next instant (≥ `now`) at which this component wants an event,
    /// or `None` if it has nothing scheduled.
    fn next_event(&self, now: Timestamp) -> Option<Timestamp>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_order_is_time_then_priority_then_seq() {
        let mut q = EventQueue::new();
        q.schedule(Timestamp(20), 0, "late");
        q.schedule(Timestamp(10), 2, "t10-p2");
        q.schedule(Timestamp(10), 0, "t10-p0-first");
        q.schedule(Timestamp(10), 0, "t10-p0-second");
        q.schedule(Timestamp(10), 1, "t10-p1");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(
            order,
            ["t10-p0-first", "t10-p0-second", "t10-p1", "t10-p2", "late"]
        );
    }

    #[test]
    fn keys_are_unique_and_monotonic_in_seq() {
        let mut q = EventQueue::new();
        let a = q.schedule(Timestamp(5), 3, ());
        let b = q.schedule(Timestamp(5), 3, ());
        assert!(a < b, "{a:?} vs {b:?}");
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_key(), Some(a));
        assert_eq!(q.pop().map(|(k, _)| k), Some(a));
        assert_eq!(q.pop().map(|(k, _)| k), Some(b));
        assert!(q.is_empty());
    }

    #[test]
    fn packed_key_order_matches_lexicographic_order() {
        // Includes negative (pre-epoch) timestamps: the sign-bit bias must
        // keep integer order equal to EventKey order.
        let keys = [
            EventKey {
                time: Timestamp(-50),
                priority: 3,
                seq: 9,
            },
            EventKey {
                time: Timestamp(-50),
                priority: 3,
                seq: 10,
            },
            EventKey {
                time: Timestamp(0),
                priority: 0,
                seq: 2,
            },
            EventKey {
                time: Timestamp(0),
                priority: 1,
                seq: 1,
            },
            EventKey {
                time: Timestamp(7),
                priority: 0,
                seq: 0,
            },
        ];
        for pair in keys.windows(2) {
            if let [a, b] = pair {
                assert!(a < b, "test fixture must be ascending: {a:?} {b:?}");
                assert!(
                    pack_key(*a) < pack_key(*b),
                    "packed order broke: {a:?} {b:?}"
                );
            }
        }
        // The packed word is the only stored copy of the key: unpack must
        // round-trip exactly (seq below 2^56 always does).
        for key in keys {
            assert_eq!(unpack_key(pack_key(key)), key, "round-trip broke");
        }
    }

    #[test]
    fn high_water_tracks_peak_depth() {
        let mut q = EventQueue::new();
        assert_eq!(q.high_water(), 0);
        q.schedule(Timestamp(1), 0, ());
        q.schedule(Timestamp(2), 0, ());
        q.schedule(Timestamp(3), 0, ());
        let _ = q.pop();
        let _ = q.pop();
        q.schedule(Timestamp(4), 0, ());
        // Peak was 3 even though the queue later shrank.
        assert_eq!(q.high_water(), 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn queue_obs_counts_and_traces_dispatches() {
        fn label(p: &&'static str) -> &'static str {
            p
        }
        let mut q: EventQueue<&'static str> = EventQueue::new();
        q.attach_obs(QueueObs::new(label).with_trace(2));
        q.schedule(Timestamp(10), 0, "tick");
        q.schedule(Timestamp(10), 1, "radio");
        q.schedule(Timestamp(70), 3, "node-tx");
        while q.pop().is_some() {}
        let obs = q.obs().expect("attached");
        assert_eq!(obs.dispatched(), 3);
        assert_eq!(obs.dispatch_counts(), &[1, 1, 0, 1]);
        // Inter-event gaps: 0 s and 60 s.
        assert_eq!(obs.inter_event().count(), 2);
        assert_eq!(obs.inter_event().sum(), 60);
        let trace = obs.trace().expect("trace enabled");
        assert_eq!(trace.events().len(), 2);
        assert_eq!(trace.dropped(), 1);
        assert_eq!(
            trace.render(),
            "t=10 p0 seq=0 tick\nt=10 p1 seq=1 radio\ntrace kept=2 dropped=1\n"
        );
    }

    #[test]
    fn queue_obs_publishes_dispatch_profile() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.attach_obs(QueueObs::new(|_| "byte"));
        q.schedule(Timestamp(0), 2, 7);
        q.schedule(Timestamp(5), 2, 8);
        while q.pop().is_some() {}
        let mut snap = Snapshot::new(Timestamp(5));
        q.obs().expect("attached").publish(&mut snap);
        assert_eq!(snap.value("sim.dispatch.total"), Some(2));
        assert_eq!(snap.value("sim.dispatch.p2"), Some(2));
        assert_eq!(snap.value("sim.inter_event_s.count"), Some(1));
    }

    #[test]
    fn clock_is_monotone() {
        let mut c = SimClock::new(Timestamp(100));
        assert_eq!(c.now(), Timestamp(100));
        assert_eq!(c.advance(Timestamp(150)), Timestamp(150));
        // A stale instant cannot rewind the clock.
        assert_eq!(c.advance(Timestamp(120)), Timestamp(150));
        assert_eq!(c.now(), Timestamp(150));
    }
}
