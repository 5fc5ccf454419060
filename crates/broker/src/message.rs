//! Broker messages and the quality-of-service level.

use crate::topic::Topic;
use std::sync::Arc;

/// MQTT quality of service. The broker delivers at least once, and only
/// so; the type stays because the frozen `benchmark/` harness passes
/// `QoS::AtLeastOnce` to [`crate::Broker::subscribe`], until ROADMAP
/// item 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QoS {
    /// At least once: requires acknowledgement, may be redelivered.
    AtLeastOnce,
}

/// A published message. Payloads are reference-counted so fan-out to many
/// subscribers does not copy bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// The topic it was published to.
    pub topic: Topic,
    /// Opaque payload bytes.
    pub payload: Arc<Vec<u8>>,
}

impl Message {
    /// Build a message.
    pub fn new(topic: Topic, payload: Vec<u8>) -> Self {
        Message {
            topic,
            payload: Arc::new(payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_payload() {
        let t = Topic::new("a").unwrap();
        let m = Message::new(t, vec![0u8; 1024]);
        let c = m.clone();
        assert!(Arc::ptr_eq(&m.payload, &c.payload));
    }
}
