//! # ctt-broker — event-driven MQTT-style message broker
//!
//! The CTT data path forwards LoRaWAN uplinks from the network server into
//! storage and live consumers over MQTT (§2.1). This crate implements that
//! hop: [`topic`] names and wildcard filters, [`message`] records with QoS
//! and retain semantics, the thread-safe trie-routed [`broker`], and the
//! TTN-style [`bridge`] topic scheme + uplink-event codec.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod bridge;
pub mod broker;
pub mod message;
pub mod topic;

pub use bridge::{city_slug, Admission, AdmissionControl, PublishReport, RetryPolicy, UplinkEvent};
pub use broker::{
    Broker, BrokerStats, Delivery, PublishOutcome, Subscriber, SubscriberStats, SubscriptionId,
};
pub use message::{Message, QoS};
pub use topic::{Topic, TopicError, TopicFilter};
