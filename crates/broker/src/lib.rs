//! # ctt-broker — event-driven MQTT-style message broker
//!
//! The CTT data path forwards LoRaWAN uplinks from the network server into
//! storage and live consumers over MQTT (§2.1). This crate implements that
//! hop as the pipeline uses it: [`topic`] names and `+`/`#` filters,
//! [`message`] records, the QoS 1 [`broker`] (one lock, filters matched in
//! subscription order, packet ids, acks, deferral on full queues and
//! shedding at an in-flight cap), and the TTN-style [`bridge`] topic
//! scheme, uplink-event codec and admission control.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod bridge;
pub mod broker;
pub mod message;
pub mod topic;

pub use bridge::{city_slug, Admission, AdmissionControl, RetryPolicy, UplinkEvent};
pub use broker::{Broker, BrokerStats, Delivery, PublishOutcome, Subscriber, SubscriptionId};
pub use message::{Message, QoS};
pub use topic::{Topic, TopicError, TopicFilter};
