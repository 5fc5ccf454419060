//! The event-driven message broker.
//!
//! The one pub/sub hop between the network server and storage (§2.1).
//! Every subscription is QoS 1 (MQTT 3.1.1 §4.3.2): a publish is matched
//! against each subscription's filter, in subscription order, and every
//! matching one gets a copy under a packet id that stays in its in-flight
//! store until acknowledged. A copy that meets a full queue waits in the
//! store and is retried by [`Broker::redeliver_deferred`].
//!
//! All state — every subscriber's queue and counts included — sits behind
//! the one broker mutex; a [`Subscriber`] is the broker handle plus its id.

use crate::message::{Message, QoS};
use crate::topic::TopicFilter;
use ctt_obs::{Registry, Snapshot};
// lint:allow(shared): a Broker is a Clone + Sync handle its callers share
use parking_lot::Mutex;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Identifies one subscription inside the broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(u64);

/// A message as delivered to a subscriber.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The message.
    pub message: Message,
    /// Packet id; the subscriber must [`Broker::ack`] it. Always `Some`:
    /// an `Option` only because the frozen `benchmark/` harness matches on
    /// it, until ROADMAP item 1.
    pub packet_id: Option<u16>,
}

/// Aggregate broker counters: `published` and `subscriptions`, plus the
/// sums of every subscription's counts, dropped ones included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Messages published.
    pub published: u64,
    /// Deliveries enqueued to subscribers.
    pub delivered: u64,
    /// Deliveries deferred to the in-flight store on full queues.
    pub deferred_qos1: u64,
    /// Deferred deliveries later enqueued.
    pub redelivered: u64,
    /// Deliveries shed because a subscriber's in-flight store was at its
    /// cap (backpressure drop, after deferral was exhausted).
    pub shed: u64,
    /// Active subscriptions.
    pub subscriptions: usize,
}

/// What happened to one publish. Deliveries and deferrals are in the
/// subscriptions' counts ([`Broker::stats`], [`Broker::export`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishOutcome {
    /// Deliveries shed because the subscriber's in-flight store was at its
    /// cap — the broker gave up on this copy; publishers must account for
    /// the loss.
    pub shed: usize,
}

/// One subscription's counts, exported as `broker.sub<id>.*`. Each event
/// is counted here and nowhere else: [`BrokerStats`] sums them.
#[derive(Debug, Default)]
struct SessionCounts {
    /// Deliveries enqueued, redeliveries included.
    delivered: u64,
    deferred_qos1: u64,
    redelivered: u64,
    shed: u64,
    /// High-water of the in-flight store (queued + deferred, unacked);
    /// bounded by the in-flight cap.
    inflight_hw: usize,
}

#[derive(Debug)]
struct Session {
    filter: TopicFilter,
    /// Deliveries waiting for the subscriber, oldest first.
    queue: VecDeque<Delivery>,
    /// How many deliveries `queue` may hold.
    capacity: usize,
    next_pid: u16,
    inflight: BTreeMap<u16, Message>,
    /// Packet ids whose delivery hit a full queue, in deferral order;
    /// retried by [`Broker::redeliver_deferred`].
    deferred: Vec<u16>,
    /// Cap on the in-flight store (queued + deferred, unacked), at most
    /// [`PACKET_IDS`]; at the cap a copy is shed instead of deferred.
    inflight_cap: usize,
    counts: SessionCounts,
}

impl Session {
    /// Queue one delivery if the queue has room. `false` leaves the copy
    /// deferred in the in-flight store.
    fn offer(&mut self, message: Message, packet_id: u16) -> bool {
        if self.queue.len() >= self.capacity {
            return false;
        }
        self.queue.push_back(Delivery {
            message,
            packet_id: Some(packet_id),
        });
        true
    }

    /// Deliver one copy of `message`. A copy is two reference count bumps
    /// (topic and payload), never a byte copy.
    fn deliver(&mut self, message: &Message, outcome: &mut PublishOutcome) {
        // Full means the in-flight cap, and in any case every packet id
        // being taken. Deferral space is exhausted either way: shed the
        // copy. The publisher sees it in the outcome and owns the loss.
        if self.inflight.len() >= self.inflight_cap {
            self.counts.shed += 1;
            outcome.shed += 1;
            return;
        }
        // MQTT 3.1.1 §2.3.1: a packet id is reusable only after its ack, so
        // step past the ids still in flight. One is free — the store holds
        // fewer than `PACKET_IDS` entries.
        let mut pid = self.next_pid;
        loop {
            match self.inflight.entry(pid) {
                Entry::Vacant(slot) => {
                    slot.insert(message.clone());
                    break;
                }
                Entry::Occupied(_) => pid = next_packet_id(pid),
            }
        }
        self.next_pid = next_packet_id(pid);
        self.counts.inflight_hw = self.counts.inflight_hw.max(self.inflight.len());
        if self.offer(message.clone(), pid) {
            self.counts.delivered += 1;
        } else {
            // Still in the in-flight store: will be redelivered.
            self.counts.deferred_qos1 += 1;
            self.deferred.push(pid);
        }
    }
}

/// How many packet ids there are: 1..=65 535 (0 is not a valid MQTT id).
const PACKET_IDS: usize = 65_535;

/// The id after `pid`, wrapping 65 535 → 1.
fn next_packet_id(pid: u16) -> u16 {
    pid.wrapping_add(1).max(1)
}

#[derive(Debug, Default)]
struct Inner {
    sessions: BTreeMap<SubscriptionId, Session>,
    /// The counts of dropped subscriptions, which outlive their sessions.
    retired: BTreeMap<SubscriptionId, SessionCounts>,
    next_id: u64,
    published: u64,
}

impl Inner {
    /// Every subscription's counts, live and dropped.
    fn counts(&self) -> impl Iterator<Item = (&SubscriptionId, &SessionCounts)> {
        let live = self.sessions.iter().map(|(id, s)| (id, &s.counts));
        live.chain(self.retired.iter())
    }
}

/// The broker. Cheaply clonable handle (`Arc` inside).
#[derive(Debug, Clone, Default)]
pub struct Broker {
    inner: Arc<Mutex<Inner>>,
}

/// A subscriber handle: the receiving end of one subscription. Its queue
/// lives in the broker; dropping the handle ends the subscription.
#[derive(Debug)]
pub struct Subscriber {
    /// Subscription identity (needed for acks).
    pub id: SubscriptionId,
    broker: Broker,
}

impl Subscriber {
    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Delivery> {
        let mut inner = self.broker.inner.lock();
        inner.sessions.get_mut(&self.id)?.queue.pop_front()
    }

    /// Number of deliveries currently waiting.
    pub fn pending(&self) -> usize {
        let inner = self.broker.inner.lock();
        inner.sessions.get(&self.id).map_or(0, |s| s.queue.len())
    }
}

impl Drop for Subscriber {
    fn drop(&mut self) {
        let mut inner = self.broker.inner.lock();
        if let Some(session) = inner.sessions.remove(&self.id) {
            inner.retired.insert(self.id, session.counts);
        }
    }
}

impl Broker {
    /// A new empty broker: [`Broker::default`]. The broker keeps its own
    /// counts ([`Broker::export`]), so the marker says nothing; it stays
    /// for the frozen `benchmark/` harness until ROADMAP item 1.
    pub fn with_registry(_registry: Registry) -> Self {
        Broker::default()
    }

    /// Subscribe to `filter` with a queue of `capacity` deliveries. The
    /// in-flight store is bounded only by the packet ids; see
    /// [`Broker::subscribe_bounded`] for a backpressure cap. `QoS` has one
    /// level, so `_qos` says nothing; it stays in the signature for the
    /// frozen `benchmark/` harness until ROADMAP item 1.
    ///
    /// # Panics
    ///
    /// If `capacity` is 0: such a subscription could never receive.
    pub fn subscribe(&self, filter: TopicFilter, _qos: QoS, capacity: usize) -> Subscriber {
        self.subscribe_bounded(filter, QoS::AtLeastOnce, capacity, PACKET_IDS)
    }

    /// Subscribe with a cap on the in-flight/deferred store. At the cap the
    /// broker sheds overflow ([`PublishOutcome::shed`],
    /// `broker.sub<id>.shed`) instead of deferring it, bounding memory
    /// under overload.
    ///
    /// # Panics
    ///
    /// If `capacity` or `inflight_cap` is 0: the first could never
    /// receive, the second would shed everything.
    pub fn subscribe_bounded(
        &self,
        filter: TopicFilter,
        _qos: QoS,
        capacity: usize,
        inflight_cap: usize,
    ) -> Subscriber {
        // lint:allow(panic): a zero queue or cap is a config error, refused where it is made
        assert!(
            capacity > 0 && inflight_cap > 0,
            "zero queue or in-flight cap"
        );
        let mut inner = self.inner.lock();
        let id = SubscriptionId(inner.next_id);
        inner.next_id += 1;
        let session = Session {
            filter,
            queue: VecDeque::new(),
            capacity,
            next_pid: 1,
            inflight: BTreeMap::new(),
            deferred: Vec::new(),
            inflight_cap: inflight_cap.min(PACKET_IDS),
            counts: SessionCounts::default(),
        };
        inner.sessions.insert(id, session);
        Subscriber {
            id,
            broker: self.clone(),
        }
    }

    /// Publish a message to every subscription whose filter matches its
    /// topic, in subscription order, and report what became of the copies.
    pub fn publish_with_outcome(&self, message: Message) -> PublishOutcome {
        let mut inner = self.inner.lock();
        inner.published += 1;
        let mut outcome = PublishOutcome::default();
        for session in inner.sessions.values_mut() {
            if session.filter.matches(&message.topic) {
                session.deliver(&message, &mut outcome);
            }
        }
        outcome
    }

    /// Acknowledge a delivery. `false` when the id is not in flight: the
    /// delivery was a copy of one already acknowledged.
    pub fn ack(&self, sub: SubscriptionId, packet_id: u16) -> bool {
        let mut inner = self.inner.lock();
        inner
            .sessions
            .get_mut(&sub)
            .is_some_and(|s| s.inflight.remove(&packet_id).is_some())
    }

    /// Retry the deliveries that were deferred on a full queue, in
    /// deferral order. Returns how many were enqueued across all
    /// subscriptions.
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
                if session.offer(msg, pid) {
                    n += 1;
                    session.counts.redelivered += 1;
                    session.counts.delivered += 1;
                } else {
                    session.deferred.push(pid);
                }
            }
        }
        n
    }

    /// Deferred (queue-full) deliveries currently awaiting retry, across
    /// all subscriptions.
    pub fn deferred_count(&self) -> usize {
        self.inner
            .lock()
            .sessions
            .values()
            .map(|s| s.deferred.len())
            .sum()
    }

    /// Counters snapshot.
    pub fn stats(&self) -> BrokerStats {
        let inner = self.inner.lock();
        let mut stats = BrokerStats {
            published: inner.published,
            subscriptions: inner.sessions.len(),
            ..BrokerStats::default()
        };
        for (_, c) in inner.counts() {
            stats.delivered += c.delivered;
            stats.deferred_qos1 += c.deferred_qos1;
            stats.redelivered += c.redelivered;
            stats.shed += c.shed;
        }
        stats
    }

    /// Write every subscription's counts, live and dropped, into `snap` as
    /// `broker.sub<id>.{delivered, deferred_qos1, redelivered, shed}` and
    /// the `broker.sub<id>.inflight_hw` gauge.
    pub fn export(&self, snap: &mut Snapshot) {
        let inner = self.inner.lock();
        for (id, c) in inner.counts() {
            let name = |field: &str| format!("broker.sub{}.{field}", id.0);
            snap.push_counter(&name("delivered"), c.delivered);
            snap.push_counter(&name("deferred_qos1"), c.deferred_qos1);
            snap.push_counter(&name("redelivered"), c.redelivered);
            snap.push_counter(&name("shed"), c.shed);
            snap.push_gauge(&name("inflight_hw"), c.inflight_hw as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topic::Topic;
    use ctt_core::time::Timestamp;

    /// One subscription's counts (exported as `broker.sub<id>.*`), read
    /// straight from its live session.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    struct SubscriberStats {
        delivered: u64,
        deferred_qos1: u64,
        redelivered: u64,
        shed: u64,
    }

    impl Broker {
        fn subscriber_stats(&self, sub: SubscriptionId) -> Option<SubscriberStats> {
            self.inner
                .lock()
                .sessions
                .get(&sub)
                .map(|s| SubscriberStats {
                    delivered: s.counts.delivered,
                    deferred_qos1: s.counts.deferred_qos1,
                    redelivered: s.counts.redelivered,
                    shed: s.counts.shed,
                })
        }

        /// Unacknowledged deliveries of a subscription: queued, deferred,
        /// or received and not yet acked.
        fn unacked(&self, sub: SubscriptionId) -> usize {
            self.inner
                .lock()
                .sessions
                .get(&sub)
                .map_or(0, |s| s.inflight.len())
        }

        fn publish(&self, message: Message) {
            self.publish_with_outcome(message);
        }
    }

    /// What the broker's export writes.
    fn exported(b: &Broker) -> Snapshot {
        let mut snap = Snapshot::new(Timestamp(0));
        b.export(&mut snap);
        snap
    }

    fn filter(s: &str) -> TopicFilter {
        TopicFilter::new(s).unwrap()
    }
    fn msg(t: &str, body: &str) -> Message {
        Message::new(Topic::new(t).unwrap(), body.as_bytes().to_vec())
    }
    fn subscribe(b: &Broker, f: &str, capacity: usize) -> Subscriber {
        b.subscribe(filter(f), QoS::AtLeastOnce, capacity)
    }
    fn body(d: &Delivery) -> String {
        String::from_utf8(d.message.payload.to_vec()).unwrap()
    }

    #[test]
    fn publish_routes_to_matching_subscribers() {
        let b = Broker::default();
        let s1 = subscribe(&b, "ctt/+/up", 16);
        let s2 = subscribe(&b, "ctt/node1/#", 16);
        let s3 = subscribe(&b, "other/#", 16);
        let out = b.publish_with_outcome(msg("ctt/node1/up", "x"));
        assert_eq!(out, PublishOutcome::default(), "nothing shed");
        assert_eq!(b.stats().delivered, 2, "routed to two, both enqueued");
        // Each subscription numbers its own packet ids.
        assert_eq!(s1.try_recv().unwrap().packet_id, Some(1));
        assert_eq!(s2.try_recv().unwrap().packet_id, Some(1));
        assert!(s3.try_recv().is_none());
        let snap = exported(&b);
        assert_eq!(snap.value("broker.sub0.delivered"), Some(1));
        assert_eq!(snap.value("broker.sub1.delivered"), Some(1));
        assert_eq!(snap.value("broker.sub2.delivered"), Some(0));
    }

    #[test]
    fn delivery_requires_an_ack_and_an_id_is_acked_once() {
        let b = Broker::default();
        let s = subscribe(&b, "t", 16);
        b.publish(msg("t", "important"));
        let d = s.try_recv().unwrap();
        let pid = d.packet_id.expect("every delivery carries a packet id");
        assert_eq!(b.unacked(s.id), 1, "received is not acked");
        assert!(b.ack(s.id, pid));
        assert_eq!(b.unacked(s.id), 0);
        assert!(!b.ack(s.id, pid), "double ack must fail");
        assert_eq!(b.redeliver_deferred(), 0, "nothing was deferred");
    }

    #[test]
    fn redeliver_deferred_retries_only_queue_full_deferrals() {
        let b = Broker::default();
        let s = subscribe(&b, "t", 1);
        b.publish(msg("t", "a"));
        b.publish(msg("t", "b"));
        assert_eq!(b.deferred_count(), 1);
        assert_eq!(b.stats().deferred_qos1, 1);
        assert_eq!(b.unacked(s.id), 2, "the deferred copy is in flight");
        // Queue still full: the deferred delivery cannot land yet…
        assert_eq!(b.redeliver_deferred(), 0);
        // …and crucially, "a" (undelivered but queued) is NOT duplicated.
        let first = s.try_recv().unwrap();
        assert_eq!(body(&first), "a");
        b.ack(s.id, first.packet_id.unwrap());
        assert_eq!(b.redeliver_deferred(), 1);
        assert_eq!(b.deferred_count(), 0);
        let second = s.try_recv().unwrap();
        assert_eq!(body(&second), "b");
        assert!(s.try_recv().is_none(), "no duplicate of a");
        b.ack(s.id, second.packet_id.unwrap());
        assert_eq!(b.unacked(s.id), 0);
        assert_eq!(b.subscriber_stats(s.id).unwrap().redelivered, 1);
    }

    #[test]
    fn a_copy_acked_while_deferred_is_not_redelivered() {
        let b = Broker::default();
        let s = subscribe(&b, "t", 1);
        b.publish(msg("t", "a"));
        b.publish(msg("t", "b"));
        // The consumer acks the deferred id before it ever arrives.
        assert!(b.ack(s.id, 2));
        assert_eq!(body(&s.try_recv().unwrap()), "a");
        assert_eq!(b.redeliver_deferred(), 0);
        assert_eq!(b.deferred_count(), 0);
        assert!(s.try_recv().is_none());
    }

    #[test]
    fn subscriber_lifecycle_counts_exactly() {
        // Dropped: the session goes with its queue and in-flight store, so
        // nothing is routed to it, deferred for it or acked into it.
        let b = Broker::default();
        let s = subscribe(&b, "t", 1);
        b.publish(msg("t", "queued"));
        b.publish(msg("t", "deferred"));
        let id = s.id;
        drop(s);
        assert_eq!(
            b.publish_with_outcome(msg("t", "x")),
            PublishOutcome::default()
        );
        assert!(!b.ack(id, 1), "no session left to ack into");
        assert_eq!(b.subscriber_stats(id), None);
        assert_eq!(b.deferred_count(), 0);
        assert_eq!(b.redeliver_deferred(), 0);
        let expected = BrokerStats {
            published: 3,
            delivered: 1,
            deferred_qos1: 1,
            ..BrokerStats::default()
        };
        assert_eq!(b.stats(), expected);

        // The storage consumer's bounded subscription, drained as the
        // pipeline drains: ack gate, then deferred retry.
        let b = Broker::default();
        let sub = b.subscribe_bounded(filter("t"), QoS::AtLeastOnce, 2, 3);
        let shed: usize = ["a", "b", "c", "d", "e"]
            .into_iter()
            .map(|body| b.publish_with_outcome(msg("t", body)).shed)
            .sum();
        assert_eq!(shed, 2);
        let expected = SubscriberStats {
            delivered: 2,
            deferred_qos1: 1,
            shed: 2,
            ..SubscriberStats::default()
        };
        assert_eq!(b.subscriber_stats(sub.id), Some(expected));
        let snap = exported(&b);
        assert_eq!(snap.value("broker.sub0.delivered"), Some(2));
        assert_eq!(snap.value("broker.sub0.shed"), Some(2));
        let mut seen = Vec::new();
        loop {
            while let Some(d) = sub.try_recv() {
                if b.ack(sub.id, d.packet_id.unwrap()) {
                    seen.push(body(&d));
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
        };
        assert_eq!(b.subscriber_stats(sub.id), Some(expected));
        let expected = BrokerStats {
            published: 5,
            delivered: 3,
            deferred_qos1: 1,
            redelivered: 1,
            shed: 2,
            subscriptions: 1,
        };
        assert_eq!(b.stats(), expected);
        assert_eq!(b.unacked(sub.id), 0);
    }

    #[test]
    fn concurrent_publish_and_consume() {
        let b = Broker::default();
        let s = subscribe(&b, "load/#", 100_000);
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
        let mut received = 0;
        while let Some(d) = s.try_recv() {
            assert!(b.ack(s.id, d.packet_id.unwrap()));
            received += 1;
        }
        assert_eq!(received, 4000);
        assert_eq!(b.stats().published, 4000);
    }

    #[test]
    fn export_writes_per_subscriber_counts() {
        let b = Broker::default();
        let s = subscribe(&b, "t", 1);
        b.publish(msg("t", "a"));
        b.publish(msg("t", "b")); // queue full → deferred
        let snap = exported(&b);
        assert_eq!(snap.value("broker.sub0.delivered"), Some(1));
        assert_eq!(snap.value("broker.sub0.deferred_qos1"), Some(1));
        assert_eq!(snap.value("broker.sub0.inflight_hw"), Some(2));
        // The test getter reads the same counts.
        let st = b.subscriber_stats(s.id).unwrap();
        assert_eq!(st.delivered, 1);
        assert_eq!(st.deferred_qos1, 1);
        // A dropped subscription's counts outlive its session.
        drop(s);
        assert_eq!(exported(&b), snap);
    }

    #[test]
    fn overflow_sheds_at_inflight_cap() {
        let b = Broker::default();
        // Queue 1, in-flight cap 3: one queued, two deferred, then shed.
        let s = b.subscribe_bounded(filter("t"), QoS::AtLeastOnce, 1, 3);
        let mut shed = 0;
        for body in ["a", "b", "c", "d", "e"] {
            shed += b.publish_with_outcome(msg("t", body)).shed;
        }
        assert_eq!(shed, 2);
        assert_eq!(b.unacked(s.id), 3, "store bounded at the cap");
        assert_eq!(b.deferred_count(), 2);
        let st = b.subscriber_stats(s.id).unwrap();
        assert_eq!(st.shed, 2);
        assert_eq!(st.deferred_qos1, 2);
        assert_eq!(b.stats().shed, 2);
        // The export carries the shed tally and the bounded high-water.
        let snap = exported(&b);
        assert_eq!(snap.value("broker.sub0.shed"), Some(2));
        assert_eq!(snap.value("broker.sub0.inflight_hw"), Some(3));
        // The consumer catches up: every admitted message still arrives
        // exactly once.
        let mut seen = Vec::new();
        let mut guard = 0;
        loop {
            while let Some(d) = s.try_recv() {
                if b.ack(s.id, d.packet_id.unwrap()) {
                    seen.push(body(&d));
                }
            }
            if b.redeliver_deferred() == 0 {
                break;
            }
            guard += 1;
            assert!(guard < 100, "redelivery must converge");
        }
        assert_eq!(seen, vec!["a", "b", "c"]);
        assert_eq!(b.unacked(s.id), 0);
    }

    #[test]
    #[should_panic(expected = "zero queue or in-flight cap")]
    fn a_zero_capacity_queue_is_refused() {
        subscribe(&Broker::default(), "t", 0);
    }

    #[test]
    #[should_panic(expected = "zero queue or in-flight cap")]
    fn a_zero_inflight_cap_is_refused() {
        Broker::default().subscribe_bounded(filter("t"), QoS::AtLeastOnce, 1, 0);
    }

    #[test]
    fn uncapped_subscription_never_sheds() {
        let b = Broker::default();
        let s = subscribe(&b, "t", 1);
        for i in 0..50 {
            let out = b.publish_with_outcome(msg("t", &format!("{i}")));
            assert_eq!(out.shed, 0);
        }
        assert_eq!(b.unacked(s.id), 50);
        assert_eq!(b.stats().shed, 0);
    }

    #[test]
    fn packet_ids_are_not_reused_while_in_flight() {
        // More unacked deliveries than there are packet ids: the ids run
        // out before the queue does. Reusing one would overwrite an
        // unacked message in the store, and the consumer's ack gate would
        // then drop the later delivery as a duplicate, uncounted.
        let b = Broker::default();
        let s = subscribe(&b, "t", 70_000);
        let topic = Topic::new("t").unwrap();
        let published = 65_540u64;
        let mut shed = 0;
        for i in 0..published {
            let body = i.to_string().into_bytes();
            let m = Message::new(topic.clone(), body);
            shed += b.publish_with_outcome(m).shed as u64;
        }
        assert_eq!(b.unacked(s.id), PACKET_IDS);
        let (mut processed, mut skipped) = (Vec::new(), 0u64);
        while let Some(d) = s.try_recv() {
            if b.ack(s.id, d.packet_id.unwrap()) {
                processed.push(body(&d).parse::<u64>().unwrap());
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
        b.publish(msg("t", "straggler"));
        let straggler = s.try_recv().unwrap().packet_id.unwrap();
        for _ in 0..PACKET_IDS - 1 {
            b.publish(msg("t", "x"));
            let d = s.try_recv().unwrap();
            assert_ne!(d.packet_id, Some(straggler));
            assert!(b.ack(s.id, d.packet_id.unwrap()));
        }
        b.publish(msg("t", "wrapped"));
        let wrapped = s.try_recv().unwrap();
        assert_ne!(wrapped.packet_id, Some(straggler), "stepped past it");
        assert!(b.ack(s.id, wrapped.packet_id.unwrap()));
        assert!(b.ack(s.id, straggler));
    }

    #[test]
    fn pending_counts_queue_depth() {
        let b = Broker::default();
        let s = subscribe(&b, "t", 8);
        assert_eq!(s.pending(), 0);
        b.publish(msg("t", "a"));
        b.publish(msg("t", "b"));
        assert_eq!(s.pending(), 2);
    }
}
