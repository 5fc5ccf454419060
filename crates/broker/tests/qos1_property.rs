//! Property test: QoS1 delivery is exactly-once-after-ack.
//!
//! A consumer that treats a successful [`Broker::ack`] as its processing
//! gate must process every published message exactly once, no matter how
//! publishes, consumer stalls, acks, and deferred retries interleave. The
//! ack return value is what de-duplicates.

use ctt_broker::{Broker, Message, QoS, Subscriber, Topic, TopicFilter};
use ctt_core::time::Timestamp;
use ctt_obs::Snapshot;
use proptest::collection::vec;
use proptest::prelude::*;

/// One step of the interleaving, decoded from a byte.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Publish the next message in sequence.
    Publish,
    /// Consume one queued delivery (ack gates processing). A stalled
    /// consumer is simply the absence of this op for a while.
    Consume,
    /// Retry queue-full deferrals, as the pipeline's drain pass does.
    RedeliverDeferred,
}

impl Op {
    fn from_byte(b: u8) -> Op {
        match b % 3 {
            0 => Op::Publish,
            1 => Op::Consume,
            _ => Op::RedeliverDeferred,
        }
    }
}

/// Consume one delivery; returns the processed payload if the ack said
/// this packet id was still outstanding (first delivery wins).
fn consume_one(broker: &Broker, sub: &Subscriber) -> Option<u64> {
    let d = sub.try_recv()?;
    let pid = d.packet_id?;
    if !broker.ack(sub.id, pid) {
        return None; // duplicate of an already-processed pid
    }
    std::str::from_utf8(&d.message.payload).ok()?.parse().ok()
}

/// Run `ops` against `sub`, then recover as the pipeline does — drain
/// through the ack gate, retry the deferred copies — until nothing is
/// left. Returns how many were published and what was processed.
fn run(broker: &Broker, sub: &Subscriber, ops: &[u8]) -> Result<(u64, Vec<u64>), TestCaseError> {
    let topic = Topic::new("q1/up").unwrap();
    let mut published = 0u64;
    let mut processed: Vec<u64> = Vec::new();
    for &b in ops {
        match Op::from_byte(b) {
            Op::Publish => {
                let body = published.to_string().into_bytes();
                broker.publish_with_outcome(Message::new(topic.clone(), body));
                published += 1;
            }
            Op::Consume => processed.extend(consume_one(broker, sub)),
            Op::RedeliverDeferred => {
                broker.redeliver_deferred();
            }
        }
    }
    let mut guard = 0;
    loop {
        while sub.pending() > 0 {
            processed.extend(consume_one(broker, sub));
        }
        if broker.redeliver_deferred() == 0 {
            break;
        }
        guard += 1;
        prop_assert!(guard < 10_000, "recovery loop did not converge");
    }
    prop_assert_eq!(broker.deferred_count(), 0);
    Ok((published, processed))
}

proptest! {
    #[test]
    fn qos1_exactly_once_after_ack(ops in vec(any::<u8>(), 1..120)) {
        let broker = Broker::default();
        // Tiny queue so deferrals are common in the interleavings.
        let sub = broker.subscribe(
            TopicFilter::new("q1/#").unwrap(),
            QoS::AtLeastOnce,
            2,
        );
        let (published, mut processed) = run(&broker, &sub, &ops)?;
        // Exactly once: every published sequence number, no duplicates.
        processed.sort_unstable();
        let expect: Vec<u64> = (0..published).collect();
        prop_assert_eq!(processed, expect);
    }

    /// Conservation under an in-flight cap: with backpressure shedding
    /// enabled, every published message is either processed (exactly once)
    /// or shed — never both, never neither, no matter the interleaving.
    #[test]
    fn qos1_capped_sheds_or_processes_every_publish(ops in vec(any::<u8>(), 1..120)) {
        let broker = Broker::default();
        // Tiny queue and a tight in-flight cap so both deferral and
        // shedding are common in the interleavings.
        let sub = broker.subscribe_bounded(
            TopicFilter::new("q1/#").unwrap(),
            QoS::AtLeastOnce,
            2,
            3,
        );
        let (published, processed) = run(&broker, &sub, &ops)?;
        // The advertised bound held at every step: the store's high-water
        // is raised on every insertion.
        let mut snap = Snapshot::new(Timestamp(0));
        broker.export(&mut snap);
        let hw = snap.value("broker.sub0.inflight_hw");
        prop_assert!(hw.is_some_and(|hw| hw <= 3), "in-flight high-water {:?}", hw);
        let shed = broker.stats().shed;
        // Conservation: shed + processed == published, with no duplicate
        // and no phantom processing.
        prop_assert_eq!(processed.len() as u64 + shed, published,
            "processed {} + shed {} != published {}", processed.len(), shed, published);
        let mut unique = processed.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(unique.len(), processed.len(), "duplicate processing");
        prop_assert!(processed.iter().all(|&v| v < published));
    }
}
