//! The event-driven message broker.
//!
//! A thread-safe MQTT-style broker: subscriptions live in a topic trie so
//! publishing is O(topic depth) rather than O(subscriptions); retained
//! messages provide "last known good" values to late subscribers (this is
//! how the dashboards warm up, §2.4); QoS 1 subscriptions get packet ids,
//! an in-flight store, acknowledgements, and redelivery.
//!
//! All state — every subscriber's queue included — sits behind the one
//! broker mutex; a [`Subscriber`] is the broker handle plus its id.

use crate::message::{Message, QoS};
use crate::topic::{Topic, TopicFilter};
use ctt_obs::{Counter, Gauge, Registry};
// lint:allow(shared): a Broker is a Clone + Sync handle its callers share
use parking_lot::Mutex;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// Identifies one subscription inside the broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(u64);

/// A message as delivered to a subscriber.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The message.
    pub message: Message,
    /// Packet id, present iff the effective QoS is `AtLeastOnce`;
    /// the subscriber must [`Broker::ack`] it.
    pub packet_id: Option<u16>,
}

/// Aggregate broker counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Messages published.
    pub published: u64,
    /// Deliveries enqueued to subscribers.
    pub delivered: u64,
    /// QoS0 deliveries dropped because a subscriber queue was full.
    pub dropped_qos0: u64,
    /// QoS1 deliveries deferred to the in-flight store on full queues.
    pub deferred_qos1: u64,
    /// Redeliveries performed.
    pub redelivered: u64,
    /// QoS1 deliveries shed because a subscriber's in-flight store was at
    /// its cap (backpressure drop, after deferral was exhausted).
    pub shed: u64,
    /// Messages currently retained.
    pub retained: usize,
    /// Active subscriptions.
    pub subscriptions: usize,
}

/// Per-subscriber delivery counters (aggregated in [`BrokerStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubscriberStats {
    /// Deliveries enqueued to this subscriber.
    pub delivered: u64,
    /// QoS0 deliveries dropped on a full queue.
    pub dropped_qos0: u64,
    /// QoS1 deliveries deferred to the in-flight store on a full queue.
    pub deferred_qos1: u64,
    /// Redeliveries enqueued (both explicit and deferred-retry).
    pub redelivered: u64,
    /// QoS1 deliveries shed at the in-flight cap.
    pub shed: u64,
}

/// What happened to one publish, per delivery attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishOutcome {
    /// Subscriptions the message was routed to.
    pub routed: usize,
    /// Deliveries that made it into a subscriber queue.
    pub enqueued: usize,
    /// QoS1 deliveries deferred to the in-flight store (queue full).
    pub deferred_qos1: usize,
    /// QoS0 deliveries dropped (queue full).
    pub dropped_qos0: usize,
    /// QoS1 deliveries shed because the subscriber's in-flight store was
    /// at its cap — the broker gave up on this copy; publishers must
    /// account for the loss.
    pub shed: usize,
    /// Deliveries skipped because the subscription is misconfigured
    /// (zero queue capacity).
    pub misconfigured: usize,
}

#[derive(Debug, Default)]
struct TrieNode {
    children: HashMap<String, TrieNode>,
    /// Subscriptions attached via a `+` at this level.
    plus: Option<Box<TrieNode>>,
    /// Subscriptions attached via a trailing `#` here.
    hash_subs: Vec<SubscriptionId>,
    /// Subscriptions terminating exactly here.
    subs: Vec<SubscriptionId>,
}

impl TrieNode {
    fn insert(&mut self, mut levels: std::str::Split<'_, char>, id: SubscriptionId) {
        match levels.next() {
            None => self.subs.push(id),
            Some("#") => self.hash_subs.push(id),
            Some("+") => self
                .plus
                .get_or_insert_with(Default::default)
                .insert(levels, id),
            Some(level) => self
                .children
                .entry(level.to_string())
                .or_default()
                .insert(levels, id),
        }
    }

    fn remove(&mut self, mut levels: std::str::Split<'_, char>, id: SubscriptionId) {
        match levels.next() {
            None => self.subs.retain(|s| *s != id),
            Some("#") => self.hash_subs.retain(|s| *s != id),
            Some("+") => {
                if let Some(p) = self.plus.as_mut() {
                    p.remove(levels, id);
                }
            }
            Some(level) => {
                if let Some(c) = self.children.get_mut(level) {
                    c.remove(levels, id);
                }
            }
        }
    }

    /// Append every subscription matching the topic whose remaining levels
    /// are `tail` (`None` once the topic is used up). Walks the string in
    /// place: no per-publish list of levels.
    fn collect(&self, tail: Option<&str>, out: &mut Vec<SubscriptionId>) {
        out.extend_from_slice(&self.hash_subs);
        let Some(tail) = tail else {
            out.extend_from_slice(&self.subs);
            return;
        };
        let (first, rest) = match tail.split_once('/') {
            Some((first, rest)) => (first, Some(rest)),
            None => (tail, None),
        };
        if let Some(child) = self.children.get(first) {
            child.collect(rest, out);
        }
        if let Some(plus) = &self.plus {
            plus.collect(rest, out);
        }
    }
}

/// Per-subscriber counters, backed by registry cells so they show up in
/// metric exports under `broker.sub<id>.*`. The legacy
/// [`Broker::subscriber_stats`] getter reads these same cells.
#[derive(Debug, Clone)]
struct SessionCounters {
    delivered: Counter,
    dropped_qos0: Counter,
    deferred_qos1: Counter,
    redelivered: Counter,
    shed: Counter,
    /// High-water of the in-flight store (queued + deferred, unacked);
    /// bounded by the in-flight cap when one is configured.
    inflight_hw: Gauge,
}

impl SessionCounters {
    fn register(registry: &Registry, id: SubscriptionId) -> Self {
        SessionCounters {
            delivered: registry.counter(&format!("broker.sub{}.delivered", id.0)),
            dropped_qos0: registry.counter(&format!("broker.sub{}.dropped_qos0", id.0)),
            deferred_qos1: registry.counter(&format!("broker.sub{}.deferred_qos1", id.0)),
            redelivered: registry.counter(&format!("broker.sub{}.redelivered", id.0)),
            shed: registry.counter(&format!("broker.sub{}.shed", id.0)),
            inflight_hw: registry.gauge(&format!("broker.sub{}.inflight_hw", id.0)),
        }
    }
}

#[derive(Debug)]
struct Session {
    filter: TopicFilter,
    qos: QoS,
    /// Deliveries waiting for the subscriber, oldest first.
    queue: VecDeque<Delivery>,
    /// How many deliveries `queue` may hold: the subscription's capacity,
    /// and 0 once its [`Subscriber`] is dropped, so every later copy counts
    /// as a full queue's would (QoS1 deferred, QoS0 dropped).
    room: usize,
    next_pid: u16,
    inflight: BTreeMap<u16, Message>,
    /// Packet ids whose initial delivery hit a full queue, in deferral
    /// order; retried by [`Broker::redeliver_deferred`].
    deferred: Vec<u16>,
    /// Cap on the in-flight store (queued + deferred, unacked). `None`
    /// means unbounded (the pre-backpressure behaviour); at the cap, QoS1
    /// overflow is shed instead of deferred.
    inflight_cap: Option<usize>,
    /// The subscription was created with queue capacity 0 — a config
    /// error; deliveries are skipped and surfaced via
    /// [`PublishOutcome::misconfigured`].
    zero_capacity: bool,
    counters: SessionCounters,
}

impl Session {
    /// Queue one delivery if the queue has room. `false` leaves the copy
    /// to the caller, to defer or drop.
    fn offer(&mut self, message: Message, packet_id: Option<u16>) -> bool {
        if self.queue.len() >= self.room {
            return false;
        }
        self.queue.push_back(Delivery { message, packet_id });
        true
    }
}

/// How many packet ids there are: 1..=65 535 (0 is not a valid MQTT id).
const PACKET_IDS: usize = 65_535;

/// The id after `pid`, wrapping 65 535 → 1.
fn next_packet_id(pid: u16) -> u16 {
    pid.wrapping_add(1).max(1)
}

/// Result of one delivery attempt.
enum DeliverOutcome {
    Enqueued,
    Deferred,
    Dropped,
    Shed,
    Misconfigured,
}

#[derive(Debug, Default)]
struct Inner {
    trie: TrieNode,
    sessions: BTreeMap<SubscriptionId, Session>,
    /// What an unsubscribed but still live [`Subscriber`] had queued: it
    /// may drain these, and nothing new arrives. Freed when it is dropped.
    unsubscribed: BTreeMap<SubscriptionId, VecDeque<Delivery>>,
    retained: BTreeMap<String, Message>,
    next_id: u64,
    stats: BrokerStats,
    /// The subscriptions one publish routes to; emptied after every publish
    /// and kept for its capacity.
    routed: Vec<SubscriptionId>,
    /// Where per-subscriber counters are registered. A private (default)
    /// registry when the broker runs standalone; shared via
    /// [`Broker::with_registry`] when embedded in an instrumented pipeline.
    registry: Registry,
}

impl Inner {
    /// The queue subscription `id` reads from: its session's, or what it
    /// left queued when it unsubscribed.
    fn queue_mut(&mut self, id: SubscriptionId) -> Option<&mut VecDeque<Delivery>> {
        match self.sessions.get_mut(&id) {
            Some(session) => Some(&mut session.queue),
            None => self.unsubscribed.get_mut(&id),
        }
    }
}

/// The broker. Cheaply clonable handle (`Arc` inside).
#[derive(Debug, Clone, Default)]
pub struct Broker {
    inner: Arc<Mutex<Inner>>,
}

/// A subscriber handle: the receiving end of one subscription. Its queue
/// lives in the broker; dropping the handle frees it.
#[derive(Debug)]
pub struct Subscriber {
    /// Subscription identity (needed for acks).
    pub id: SubscriptionId,
    broker: Broker,
}

impl Subscriber {
    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Delivery> {
        self.broker.inner.lock().queue_mut(self.id)?.pop_front()
    }

    /// Drain everything currently queued.
    pub fn drain(&self) -> Vec<Delivery> {
        let mut inner = self.broker.inner.lock();
        inner
            .queue_mut(self.id)
            .map_or_else(Vec::new, |queue| queue.drain(..).collect())
    }

    /// Number of deliveries currently waiting.
    pub fn pending(&self) -> usize {
        self.broker
            .inner
            .lock()
            .queue_mut(self.id)
            .map_or(0, |queue| queue.len())
    }
}

impl Drop for Subscriber {
    fn drop(&mut self) {
        let mut inner = self.broker.inner.lock();
        if let Some(session) = inner.sessions.get_mut(&self.id) {
            session.room = 0;
            session.queue = VecDeque::new();
        }
        inner.unsubscribed.remove(&self.id);
    }
}

impl Broker {
    /// New empty broker.
    pub fn new() -> Self {
        Broker::default()
    }

    /// New empty broker whose per-subscriber counters register into
    /// `registry` (as `broker.sub<id>.*`), so they appear alongside the
    /// rest of a pipeline's metrics in snapshots.
    pub fn with_registry(registry: Registry) -> Self {
        let broker = Broker::default();
        broker.inner.lock().registry = registry;
        broker
    }

    /// Subscribe to `filter` with the given QoS and queue capacity.
    /// Retained messages matching the filter are delivered immediately.
    /// The in-flight store is unbounded; see [`Broker::subscribe_bounded`]
    /// for backpressure caps.
    pub fn subscribe(&self, filter: TopicFilter, qos: QoS, capacity: usize) -> Subscriber {
        self.subscribe_inner(filter, qos, capacity, None)
    }

    /// Subscribe with a cap on the in-flight/deferred QoS1 store. At the
    /// cap the broker sheds overflow ([`PublishOutcome::shed`],
    /// `broker.sub<id>.shed`) instead of deferring it, bounding memory
    /// under overload.
    pub fn subscribe_bounded(
        &self,
        filter: TopicFilter,
        qos: QoS,
        capacity: usize,
        inflight_cap: usize,
    ) -> Subscriber {
        debug_assert!(inflight_cap > 0, "in-flight cap 0 would shed everything");
        self.subscribe_inner(filter, qos, capacity, Some(inflight_cap))
    }

    fn subscribe_inner(
        &self,
        filter: TopicFilter,
        qos: QoS,
        capacity: usize,
        inflight_cap: Option<usize>,
    ) -> Subscriber {
        // Queue capacity 0 is a config error: the subscription could never
        // receive anything. Loud in debug builds; in release it is kept
        // inert and surfaced through `PublishOutcome::misconfigured`.
        debug_assert!(
            capacity > 0,
            "subscriber queue capacity 0 is a config error"
        );
        let zero_capacity = capacity == 0;
        let mut inner = self.inner.lock();
        let id = SubscriptionId(inner.next_id);
        inner.next_id += 1;
        inner.trie.insert(filter.as_str().split('/'), id);
        let counters = SessionCounters::register(&inner.registry, id);
        let mut session = Session {
            filter: filter.clone(),
            qos,
            queue: VecDeque::new(),
            room: capacity,
            next_pid: 1,
            inflight: BTreeMap::new(),
            deferred: Vec::new(),
            inflight_cap,
            zero_capacity,
            counters,
        };
        // Replay retained messages, in topic order (BTreeMap — replay
        // determinism).
        let retained: Vec<Message> = inner
            .retained
            .values()
            .filter(|m| filter.matches(&m.topic))
            .cloned()
            .collect();
        for m in &retained {
            Self::deliver_to(&mut session, m, &mut inner.stats);
        }
        inner.sessions.insert(id, session);
        inner.stats.subscriptions = inner.sessions.len();
        Subscriber {
            id,
            broker: self.clone(),
        }
    }

    /// Remove a subscription entirely. The subscriber can still drain what
    /// was already queued for it.
    pub fn unsubscribe(&self, sub: &Subscriber) {
        let mut inner = self.inner.lock();
        if let Some(session) = inner.sessions.remove(&sub.id) {
            inner
                .trie
                .remove(session.filter.as_str().split('/'), sub.id);
            if !session.queue.is_empty() {
                inner.unsubscribed.insert(sub.id, session.queue);
            }
        }
        inner.stats.subscriptions = inner.sessions.len();
    }

    /// Deliver one copy of `message` to `session`. A copy is two reference
    /// count bumps (topic and payload), never a byte copy.
    fn deliver_to(
        session: &mut Session,
        message: &Message,
        stats: &mut BrokerStats,
    ) -> DeliverOutcome {
        if session.zero_capacity {
            return DeliverOutcome::Misconfigured;
        }
        let packet_id = if message.qos.min(session.qos) == QoS::AtLeastOnce {
            // Full means the in-flight cap when one is configured, and in
            // any case every packet id being taken. Deferral space is
            // exhausted either way: shed the copy. The publisher sees it in
            // the outcome and owns the loss accounting.
            let room = session.inflight_cap.unwrap_or(usize::MAX).min(PACKET_IDS);
            if session.inflight.len() >= room {
                stats.shed += 1;
                session.counters.shed.inc();
                return DeliverOutcome::Shed;
            }
            // MQTT 3.1.1 §2.3.1: a packet id is reusable only after its
            // ack, so step past the ids still in flight. One is free — the
            // store holds fewer than `PACKET_IDS` entries.
            let mut pid = session.next_pid;
            loop {
                match session.inflight.entry(pid) {
                    Entry::Vacant(slot) => {
                        slot.insert(message.clone());
                        break;
                    }
                    Entry::Occupied(_) => pid = next_packet_id(pid),
                }
            }
            session.next_pid = next_packet_id(pid);
            let depth = i64::try_from(session.inflight.len()).unwrap_or(i64::MAX);
            session.counters.inflight_hw.raise_to(depth);
            Some(pid)
        } else {
            None
        };
        if session.offer(message.clone(), packet_id) {
            stats.delivered += 1;
            session.counters.delivered.inc();
            DeliverOutcome::Enqueued
        } else if let Some(pid) = packet_id {
            // Still in the in-flight store: will be redelivered.
            stats.deferred_qos1 += 1;
            session.counters.deferred_qos1.inc();
            session.deferred.push(pid);
            DeliverOutcome::Deferred
        } else {
            stats.dropped_qos0 += 1;
            session.counters.dropped_qos0.inc();
            DeliverOutcome::Dropped
        }
    }

    /// Publish a message; returns the number of subscriptions it was routed
    /// to (before any queue-full drops).
    pub fn publish(&self, message: Message) -> usize {
        self.publish_with_outcome(message).routed
    }

    /// Publish a message and report per-attempt delivery outcomes, so
    /// publishers (e.g. the TTN bridge) can react to deferrals.
    pub fn publish_with_outcome(&self, message: Message) -> PublishOutcome {
        let mut inner = self.inner.lock();
        inner.stats.published += 1;
        if message.retain {
            if message.payload.is_empty() {
                // MQTT: empty retained payload clears the retained message.
                inner.retained.remove(message.topic.as_str());
            } else {
                inner
                    .retained
                    .insert(message.topic.as_str().to_string(), message.clone());
            }
            inner.stats.retained = inner.retained.len();
        }
        let Inner {
            trie,
            sessions,
            stats,
            routed,
            ..
        } = &mut *inner;
        trie.collect(Some(message.topic.as_str()), routed);
        routed.sort_unstable();
        routed.dedup();
        let mut outcome = PublishOutcome {
            routed: routed.len(),
            ..PublishOutcome::default()
        };
        for id in routed.drain(..) {
            if let Some(session) = sessions.get_mut(&id) {
                match Self::deliver_to(session, &message, stats) {
                    DeliverOutcome::Enqueued => outcome.enqueued += 1,
                    DeliverOutcome::Deferred => outcome.deferred_qos1 += 1,
                    DeliverOutcome::Dropped => outcome.dropped_qos0 += 1,
                    DeliverOutcome::Shed => outcome.shed += 1,
                    DeliverOutcome::Misconfigured => outcome.misconfigured += 1,
                }
            }
        }
        outcome
    }

    /// Acknowledge a QoS1 delivery.
    pub fn ack(&self, sub: SubscriptionId, packet_id: u16) -> bool {
        let mut inner = self.inner.lock();
        inner
            .sessions
            .get_mut(&sub)
            .map(|s| s.inflight.remove(&packet_id).is_some())
            .unwrap_or(false)
    }

    /// Redeliver all unacknowledged QoS1 messages of a subscription.
    /// Returns how many were re-enqueued.
    pub fn redeliver(&self, sub: SubscriptionId) -> usize {
        let mut inner = self.inner.lock();
        let Some(session) = inner.sessions.get_mut(&sub) else {
            return 0;
        };
        // BTreeMap iteration is already packet-id order (replay determinism).
        let entries: Vec<(u16, Message)> = session
            .inflight
            .iter()
            .map(|(&pid, msg)| (pid, msg.clone()))
            .collect();
        let mut n = 0;
        for (pid, msg) in entries {
            if session.offer(msg, Some(pid)) {
                n += 1;
                session.deferred.retain(|&d| d != pid);
            }
        }
        let redelivered = n as u64;
        session.counters.redelivered.add(redelivered);
        session.counters.delivered.add(redelivered);
        inner.stats.redelivered += redelivered;
        inner.stats.delivered += redelivered;
        n
    }

    /// Retry only deliveries that were deferred on a full queue (a subset
    /// of [`Broker::redeliver`] that cannot duplicate messages still
    /// sitting in a subscriber queue). Returns how many were re-enqueued
    /// across all subscriptions.
    pub fn redeliver_deferred(&self) -> usize {
        let mut inner = self.inner.lock();
        let mut n = 0;
        // BTreeMap values are already subscription order (replay determinism).
        for session in inner.sessions.values_mut() {
            let pending = std::mem::take(&mut session.deferred);
            for pid in pending {
                // Acked while deferred: nothing left to deliver.
                let Some(msg) = session.inflight.get(&pid).cloned() else {
                    continue;
                };
                if session.offer(msg, Some(pid)) {
                    n += 1;
                    session.counters.redelivered.inc();
                    session.counters.delivered.inc();
                } else {
                    session.deferred.push(pid);
                }
            }
        }
        inner.stats.redelivered += n as u64;
        inner.stats.delivered += n as u64;
        n
    }

    /// Deferred (queue-full) QoS1 deliveries currently awaiting retry,
    /// across all subscriptions.
    pub fn deferred_count(&self) -> usize {
        self.inner
            .lock()
            .sessions
            .values()
            .map(|s| s.deferred.len())
            .sum()
    }

    /// Per-subscriber delivery counters, if the subscription exists. A
    /// thin view over the registry-backed cells (the same values a metrics
    /// snapshot exports as `broker.sub<id>.*`).
    pub fn subscriber_stats(&self, sub: SubscriptionId) -> Option<SubscriberStats> {
        self.inner
            .lock()
            .sessions
            .get(&sub)
            .map(|s| SubscriberStats {
                delivered: s.counters.delivered.get(),
                dropped_qos0: s.counters.dropped_qos0.get(),
                deferred_qos1: s.counters.deferred_qos1.get(),
                redelivered: s.counters.redelivered.get(),
                shed: s.counters.shed.get(),
            })
    }

    /// Number of unacknowledged in-flight messages for a subscription.
    pub fn inflight_count(&self, sub: SubscriptionId) -> usize {
        self.inner
            .lock()
            .sessions
            .get(&sub)
            .map(|s| s.inflight.len())
            .unwrap_or(0)
    }

    /// The retained message for a topic, if any.
    pub fn retained(&self, topic: &Topic) -> Option<Message> {
        self.inner.lock().retained.get(topic.as_str()).cloned()
    }

    /// Counters snapshot.
    pub fn stats(&self) -> BrokerStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctt_core::time::Timestamp;

    fn topic(s: &str) -> Topic {
        Topic::new(s).unwrap()
    }
    fn filter(s: &str) -> TopicFilter {
        TopicFilter::new(s).unwrap()
    }
    fn msg(t: &str, body: &str) -> Message {
        Message::new(topic(t), body.as_bytes().to_vec(), Timestamp(0))
    }

    #[test]
    fn publish_routes_to_matching_subscribers() {
        let b = Broker::new();
        let s1 = b.subscribe(filter("ctt/+/up"), QoS::AtMostOnce, 16);
        let s2 = b.subscribe(filter("ctt/node1/#"), QoS::AtMostOnce, 16);
        let s3 = b.subscribe(filter("other/#"), QoS::AtMostOnce, 16);
        let n = b.publish(msg("ctt/node1/up", "x"));
        assert_eq!(n, 2);
        assert!(s1.try_recv().is_some());
        assert!(s2.try_recv().is_some());
        assert!(s3.try_recv().is_none());
    }

    #[test]
    fn overlapping_filters_deliver_once_per_subscription() {
        let b = Broker::new();
        let s = b.subscribe(filter("a/#"), QoS::AtMostOnce, 16);
        // Same subscriber id also matches via the trie only once.
        b.publish(msg("a/b", "x"));
        assert_eq!(s.drain().len(), 1);
    }

    #[test]
    fn qos0_dropped_when_queue_full() {
        let b = Broker::new();
        let s = b.subscribe(filter("t"), QoS::AtMostOnce, 2);
        for i in 0..5 {
            b.publish(msg("t", &format!("{i}")));
        }
        assert_eq!(s.drain().len(), 2);
        let st = b.stats();
        assert_eq!(st.dropped_qos0, 3);
        assert_eq!(st.delivered, 2);
    }

    #[test]
    fn qos1_requires_ack_and_redelivers() {
        let b = Broker::new();
        let s = b.subscribe(filter("t"), QoS::AtLeastOnce, 16);
        b.publish(msg("t", "important").with_qos(QoS::AtLeastOnce));
        let d = s.try_recv().unwrap();
        let pid = d.packet_id.expect("QoS1 must carry a packet id");
        assert_eq!(b.inflight_count(s.id), 1);
        // Unacked: redeliver queues it again.
        assert_eq!(b.redeliver(s.id), 1);
        let again = s.try_recv().unwrap();
        assert_eq!(again.packet_id, Some(pid));
        // Ack clears it.
        assert!(b.ack(s.id, pid));
        assert_eq!(b.inflight_count(s.id), 0);
        assert_eq!(b.redeliver(s.id), 0);
        assert!(!b.ack(s.id, pid), "double ack must fail");
    }

    #[test]
    fn qos1_deferred_on_full_queue_then_redelivered() {
        let b = Broker::new();
        let s = b.subscribe(filter("t"), QoS::AtLeastOnce, 1);
        b.publish(msg("t", "a").with_qos(QoS::AtLeastOnce));
        b.publish(msg("t", "b").with_qos(QoS::AtLeastOnce));
        // Queue held one; the other was deferred but is in flight.
        assert_eq!(b.stats().deferred_qos1, 1);
        assert_eq!(b.inflight_count(s.id), 2);
        let first = s.try_recv().unwrap();
        b.ack(s.id, first.packet_id.unwrap());
        // Space freed: redelivery brings the deferred one through.
        assert_eq!(b.redeliver(s.id), 1);
        let second = s.try_recv().unwrap();
        b.ack(s.id, second.packet_id.unwrap());
        assert_eq!(b.inflight_count(s.id), 0);
    }

    #[test]
    fn per_subscriber_counters_split_qos0_drops_from_qos1_deferrals() {
        let b = Broker::new();
        // Two capacity-1 subscribers on the same topic: one QoS0, one QoS1.
        let s0 = b.subscribe(filter("t"), QoS::AtMostOnce, 1);
        let s1 = b.subscribe(filter("t"), QoS::AtLeastOnce, 1);
        for body in ["a", "b", "c"] {
            b.publish(msg("t", body).with_qos(QoS::AtLeastOnce));
        }
        let st0 = b.subscriber_stats(s0.id).unwrap();
        let st1 = b.subscriber_stats(s1.id).unwrap();
        // QoS0 subscriber: overflow is dropped outright, never deferred.
        assert_eq!(st0.delivered, 1);
        assert_eq!(st0.dropped_qos0, 2);
        assert_eq!(st0.deferred_qos1, 0);
        // QoS1 subscriber: overflow is deferred into the in-flight store.
        assert_eq!(st1.delivered, 1);
        assert_eq!(st1.dropped_qos0, 0);
        assert_eq!(st1.deferred_qos1, 2);
        assert_eq!(b.inflight_count(s1.id), 3);
        // Aggregates are the per-subscriber sums.
        let agg = b.stats();
        assert_eq!(agg.dropped_qos0, st0.dropped_qos0);
        assert_eq!(agg.deferred_qos1, st1.deferred_qos1);
        assert_eq!(agg.delivered, st0.delivered + st1.delivered);
    }

    #[test]
    fn redeliver_deferred_retries_only_queue_full_deferrals() {
        let b = Broker::new();
        let s = b.subscribe(filter("t"), QoS::AtLeastOnce, 1);
        b.publish(msg("t", "a").with_qos(QoS::AtLeastOnce));
        b.publish(msg("t", "b").with_qos(QoS::AtLeastOnce));
        assert_eq!(b.deferred_count(), 1);
        // Queue still full: the deferred delivery cannot land yet…
        assert_eq!(b.redeliver_deferred(), 0);
        // …and crucially, "a" (undelivered but queued) is NOT duplicated.
        let first = s.try_recv().unwrap();
        assert_eq!(first.message.payload_str(), Some("a"));
        b.ack(s.id, first.packet_id.unwrap());
        assert_eq!(b.redeliver_deferred(), 1);
        assert_eq!(b.deferred_count(), 0);
        let second = s.try_recv().unwrap();
        assert_eq!(second.message.payload_str(), Some("b"));
        assert!(s.try_recv().is_none(), "no duplicate of a");
        b.ack(s.id, second.packet_id.unwrap());
        assert_eq!(b.inflight_count(s.id), 0);
        assert_eq!(b.subscriber_stats(s.id).unwrap().redelivered, 1);
    }

    #[test]
    fn effective_qos_is_min_of_pub_and_sub() {
        let b = Broker::new();
        let s0 = b.subscribe(filter("t"), QoS::AtMostOnce, 4);
        let s1 = b.subscribe(filter("t"), QoS::AtLeastOnce, 4);
        b.publish(msg("t", "x").with_qos(QoS::AtLeastOnce));
        assert!(s0.try_recv().unwrap().packet_id.is_none());
        assert!(s1.try_recv().unwrap().packet_id.is_some());
        // QoS0 publish to QoS1 subscription is still QoS0.
        b.publish(msg("t", "y"));
        assert!(s1.try_recv().unwrap().packet_id.is_none());
    }

    #[test]
    fn retained_message_replayed_to_new_subscriber() {
        let b = Broker::new();
        b.publish(msg("status/node1", "online").retained());
        let s = b.subscribe(filter("status/#"), QoS::AtMostOnce, 4);
        let d = s.try_recv().expect("retained replay");
        assert_eq!(d.message.payload_str(), Some("online"));
        assert_eq!(
            b.retained(&topic("status/node1")).unwrap().payload_str(),
            Some("online")
        );
    }

    #[test]
    fn empty_retained_payload_clears() {
        let b = Broker::new();
        b.publish(msg("status/node1", "online").retained());
        assert_eq!(b.stats().retained, 1);
        b.publish(Message::new(topic("status/node1"), vec![], Timestamp(1)).retained());
        assert_eq!(b.stats().retained, 0);
        let s = b.subscribe(filter("status/#"), QoS::AtMostOnce, 4);
        assert!(s.try_recv().is_none());
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let b = Broker::new();
        let s = b.subscribe(filter("t"), QoS::AtMostOnce, 4);
        b.publish(msg("t", "1"));
        b.unsubscribe(&s);
        b.publish(msg("t", "2"));
        assert_eq!(s.drain().len(), 1);
        assert_eq!(b.stats().subscriptions, 0);
    }

    #[test]
    fn subscriber_lifecycle_counts_exactly() {
        let qos1 = |body: &str| msg("t", body).with_qos(QoS::AtLeastOnce);
        let payloads = |ds: Vec<Delivery>| -> Vec<String> {
            ds.iter()
                .map(|d| d.message.payload_str().unwrap().to_string())
                .collect()
        };

        // Queued, then unsubscribed, then drained: the queued copies stay
        // readable, nothing new arrives, and the session is gone.
        let b = Broker::new();
        let s = b.subscribe(filter("t"), QoS::AtLeastOnce, 4);
        b.publish(qos1("a"));
        b.publish(qos1("b"));
        b.unsubscribe(&s);
        assert_eq!(b.publish(qos1("c")), 0);
        assert_eq!(s.pending(), 2);
        assert_eq!(payloads(s.drain()), ["a", "b"]);
        assert!(s.try_recv().is_none());
        assert!(!b.ack(s.id, 1), "no session left to ack into");
        assert_eq!(b.subscriber_stats(s.id), None);
        assert_eq!(b.inflight_count(s.id), 0);
        let expected = BrokerStats {
            published: 3,
            delivered: 2,
            ..BrokerStats::default()
        };
        assert_eq!(b.stats(), expected);

        // Dropped while subscribed: every later copy counts as a full
        // queue's would, QoS1 deferred and QoS0 dropped, and nothing can
        // redeliver the deferred copy.
        let b = Broker::new();
        let s0 = b.subscribe(filter("t"), QoS::AtMostOnce, 4);
        let s1 = b.subscribe(filter("t"), QoS::AtLeastOnce, 4);
        b.publish(qos1("queued"));
        let (id0, id1) = (s0.id, s1.id);
        drop(s0);
        drop(s1);
        let qos0_out = b.publish_with_outcome(msg("t", "x"));
        let expected = PublishOutcome {
            routed: 2,
            dropped_qos0: 2,
            ..PublishOutcome::default()
        };
        assert_eq!(qos0_out, expected);
        let qos1_out = b.publish_with_outcome(qos1("y"));
        let expected = PublishOutcome {
            routed: 2,
            deferred_qos1: 1,
            dropped_qos0: 1,
            ..PublishOutcome::default()
        };
        assert_eq!(qos1_out, expected);
        let expected = SubscriberStats {
            delivered: 1,
            dropped_qos0: 2,
            ..SubscriberStats::default()
        };
        assert_eq!(b.subscriber_stats(id0), Some(expected));
        let expected = SubscriberStats {
            delivered: 1,
            dropped_qos0: 1,
            deferred_qos1: 1,
            ..SubscriberStats::default()
        };
        assert_eq!(b.subscriber_stats(id1), Some(expected));
        assert_eq!(
            b.inflight_count(id1),
            2,
            "the unacked copy and the deferred one"
        );
        assert_eq!(b.redeliver_deferred(), 0);
        assert_eq!(b.redeliver(id1), 0);
        assert_eq!(b.deferred_count(), 1);
        let expected = BrokerStats {
            published: 3,
            delivered: 2,
            dropped_qos0: 3,
            deferred_qos1: 1,
            subscriptions: 2,
            ..BrokerStats::default()
        };
        assert_eq!(b.stats(), expected);

        // The storage consumer's swap on a chaos attach: unsubscribe, then
        // resubscribe bounded in place (the old handle drops on assignment).
        let registry = Registry::new();
        let b = Broker::with_registry(registry.clone());
        let mut sub = b.subscribe(filter("t"), QoS::AtLeastOnce, 65_536);
        b.publish(qos1("before"));
        let old = sub.id;
        b.unsubscribe(&sub);
        sub = b.subscribe_bounded(filter("t"), QoS::AtLeastOnce, 2, 3);
        let shed: usize = ["a", "b", "c", "d", "e"]
            .into_iter()
            .map(|body| b.publish_with_outcome(qos1(body)).shed)
            .sum();
        assert_eq!(shed, 2);
        assert_eq!(b.subscriber_stats(old), None);
        let expected = SubscriberStats {
            delivered: 2,
            deferred_qos1: 1,
            shed: 2,
            ..SubscriberStats::default()
        };
        assert_eq!(b.subscriber_stats(sub.id), Some(expected));
        let snap = registry.snapshot(Timestamp(0));
        assert_eq!(snap.value("broker.sub0.delivered"), Some(1));
        assert_eq!(snap.value("broker.sub1.delivered"), Some(2));
        assert_eq!(snap.value("broker.sub1.shed"), Some(2));
        // Drained as the pipeline drains: ack gate, then deferred retry.
        let mut seen = Vec::new();
        loop {
            while let Some(d) = sub.try_recv() {
                if b.ack(sub.id, d.packet_id.unwrap()) {
                    seen.extend(payloads(vec![d]));
                }
            }
            if b.redeliver_deferred() == 0 {
                break;
            }
        }
        assert_eq!(seen, ["a", "b", "c"]);
        let expected = SubscriberStats {
            delivered: 3,
            deferred_qos1: 1,
            redelivered: 1,
            shed: 2,
            ..SubscriberStats::default()
        };
        assert_eq!(b.subscriber_stats(sub.id), Some(expected));
        let expected = BrokerStats {
            published: 6,
            delivered: 4,
            deferred_qos1: 1,
            redelivered: 1,
            shed: 2,
            subscriptions: 1,
            ..BrokerStats::default()
        };
        assert_eq!(b.stats(), expected);
        assert_eq!(b.inflight_count(sub.id), 0);
    }

    #[test]
    fn concurrent_publish_and_consume() {
        let b = Broker::new();
        let s = b.subscribe(filter("load/#"), QoS::AtMostOnce, 100_000);
        let publishers: Vec<_> = (0..4)
            .map(|p| {
                let b = b.clone();
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        b.publish(msg(&format!("load/{p}"), &format!("{i}")));
                    }
                })
            })
            .collect();
        for p in publishers {
            p.join().unwrap();
        }
        assert_eq!(s.drain().len(), 4000);
        assert_eq!(b.stats().published, 4000);
    }

    #[test]
    fn with_registry_exports_per_subscriber_counters() {
        let registry = Registry::new();
        let b = Broker::with_registry(registry.clone());
        let s = b.subscribe(filter("t"), QoS::AtMostOnce, 1);
        b.publish(msg("t", "a"));
        b.publish(msg("t", "b")); // queue full → dropped
        let snap = registry.snapshot(Timestamp(0));
        assert_eq!(snap.value("broker.sub0.delivered"), Some(1));
        assert_eq!(snap.value("broker.sub0.dropped_qos0"), Some(1));
        // The legacy getter is a view over the same cells.
        let st = b.subscriber_stats(s.id).unwrap();
        assert_eq!(st.delivered, 1);
        assert_eq!(st.dropped_qos0, 1);
    }

    #[test]
    fn qos1_overflow_sheds_at_inflight_cap() {
        let registry = Registry::new();
        let b = Broker::with_registry(registry.clone());
        // Queue 1, in-flight cap 3: one queued, two deferred, then shed.
        let s = b.subscribe_bounded(filter("t"), QoS::AtLeastOnce, 1, 3);
        let mut shed = 0;
        for body in ["a", "b", "c", "d", "e"] {
            shed += b
                .publish_with_outcome(msg("t", body).with_qos(QoS::AtLeastOnce))
                .shed;
        }
        assert_eq!(shed, 2);
        assert_eq!(b.inflight_count(s.id), 3, "store bounded at the cap");
        assert_eq!(b.deferred_count(), 2);
        let st = b.subscriber_stats(s.id).unwrap();
        assert_eq!(st.shed, 2);
        assert_eq!(st.deferred_qos1, 2);
        assert_eq!(b.stats().shed, 2);
        // The registry sees the shed tally and the bounded high-water.
        let snap = registry.snapshot(Timestamp(0));
        assert_eq!(snap.value("broker.sub0.shed"), Some(2));
        assert_eq!(snap.value("broker.sub0.inflight_hw"), Some(3));
        // The consumer catches up: every admitted message still arrives
        // exactly once.
        let mut seen = Vec::new();
        let mut guard = 0;
        loop {
            while let Some(d) = s.try_recv() {
                if b.ack(s.id, d.packet_id.unwrap()) {
                    seen.push(d.message.payload_str().unwrap().to_string());
                }
            }
            if b.redeliver_deferred() == 0 {
                break;
            }
            guard += 1;
            assert!(guard < 100, "redelivery must converge");
        }
        assert_eq!(seen, vec!["a", "b", "c"]);
        assert_eq!(b.inflight_count(s.id), 0);
    }

    #[test]
    fn zero_capacity_subscription_is_a_config_error() {
        // Debug builds assert loudly at subscribe time; release builds keep
        // the subscription inert and surface skipped deliveries through
        // `PublishOutcome::misconfigured`.
        #[cfg(debug_assertions)]
        {
            let b = Broker::new();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                b.subscribe(filter("t"), QoS::AtMostOnce, 0)
            }));
            assert!(r.is_err(), "capacity 0 must debug-assert");
        }
        #[cfg(not(debug_assertions))]
        {
            let b = Broker::new();
            let s = b.subscribe(filter("t"), QoS::AtLeastOnce, 0);
            let out = b.publish_with_outcome(msg("t", "x").with_qos(QoS::AtLeastOnce));
            assert_eq!(out.routed, 1);
            assert_eq!(out.misconfigured, 1);
            assert_eq!(out.enqueued, 0);
            assert_eq!(b.inflight_count(s.id), 0, "nothing enters the store");
            assert!(s.try_recv().is_none());
        }
    }

    #[test]
    fn uncapped_subscription_never_sheds() {
        let b = Broker::new();
        let s = b.subscribe(filter("t"), QoS::AtLeastOnce, 1);
        for i in 0..50 {
            let out = b.publish_with_outcome(msg("t", &format!("{i}")).with_qos(QoS::AtLeastOnce));
            assert_eq!(out.shed, 0);
        }
        assert_eq!(b.inflight_count(s.id), 50);
        assert_eq!(b.stats().shed, 0);
    }

    #[test]
    fn packet_ids_are_not_reused_while_in_flight() {
        // More unacked deliveries than there are packet ids: the ids run
        // out before the queue does. Reusing one would overwrite an
        // unacked message in the store, and the consumer's ack gate would
        // then drop the later delivery as a duplicate, uncounted.
        let b = Broker::new();
        let s = b.subscribe(filter("t"), QoS::AtLeastOnce, 70_000);
        let topic = topic("t");
        let published = 65_540u64;
        let mut shed = 0;
        for i in 0..published {
            let body = i.to_string().into_bytes();
            let m = Message::new(topic.clone(), body, Timestamp(0)).with_qos(QoS::AtLeastOnce);
            shed += b.publish_with_outcome(m).shed as u64;
        }
        assert_eq!(b.inflight_count(s.id), PACKET_IDS);
        let (mut processed, mut skipped) = (Vec::new(), 0u64);
        while let Some(d) = s.try_recv() {
            if b.ack(s.id, d.packet_id.unwrap()) {
                processed.push(d.message.payload_str().unwrap().parse::<u64>().unwrap());
            } else {
                skipped += 1;
            }
        }
        assert_eq!(skipped, 0, "a delivery was dropped as a duplicate");
        assert_eq!(processed.len() as u64 + shed, published);
        assert_eq!(shed, 5, "the copies past the last free id are shed");
        assert_eq!(b.stats().shed, 5);
        assert_eq!(processed, (0..65_535).collect::<Vec<u64>>());
        // Ids freed by the acks are handed out again, past the ones a
        // straggler still holds.
        let m = |body: &str| msg("t", body).with_qos(QoS::AtLeastOnce);
        b.publish(m("straggler"));
        let straggler = s.try_recv().unwrap().packet_id.unwrap();
        for _ in 0..PACKET_IDS - 1 {
            b.publish(m("x"));
            let d = s.try_recv().unwrap();
            assert_ne!(d.packet_id, Some(straggler));
            assert!(b.ack(s.id, d.packet_id.unwrap()));
        }
        b.publish(m("wrapped"));
        let wrapped = s.try_recv().unwrap();
        assert_ne!(wrapped.packet_id, Some(straggler), "stepped past it");
        assert!(b.ack(s.id, wrapped.packet_id.unwrap()));
        assert!(b.ack(s.id, straggler));
    }

    #[test]
    fn pending_counts_queue_depth() {
        let b = Broker::new();
        let s = b.subscribe(filter("t"), QoS::AtMostOnce, 8);
        assert_eq!(s.pending(), 0);
        b.publish(msg("t", "a"));
        b.publish(msg("t", "b"));
        assert_eq!(s.pending(), 2);
    }
}
