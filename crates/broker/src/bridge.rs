//! TTN-style MQTT bridge.
//!
//! In the CTT architecture the network server forwards uplinks into MQTT
//! (§2.1: "Data forwarding and cloud sensor management was built through
//! the event-driven MQTT communication protocol"). This bridge defines the
//! topic scheme and a line-oriented text encoding of uplink events —
//! human-readable like TTN's JSON but dependency-free — plus the decoder
//! the storage/dataport consumers use.

use crate::broker::Broker;
use crate::message::{Message, QoS};
use crate::topic::{Topic, TopicFilter};
use ctt_core::ids::{DevEui, GatewayId};
use ctt_core::time::{Span, Timestamp};
use std::fmt;

/// An uplink event as carried over MQTT.
#[derive(Debug, Clone, PartialEq)]
pub struct UplinkEvent {
    /// City/application id (lower-case, e.g. `trondheim`).
    pub city: String,
    /// Device identity.
    pub device: DevEui,
    /// Frame counter.
    pub fcnt: u16,
    /// Application port.
    pub port: u8,
    /// Reception time.
    pub time: Timestamp,
    /// Best gateway.
    pub gateway: GatewayId,
    /// RSSI at the best gateway, dBm.
    pub rssi_dbm: f64,
    /// SNR at the best gateway, dB.
    pub snr_db: f64,
    /// How many gateways heard the frame.
    pub gateway_count: usize,
    /// Application payload bytes.
    pub payload: Vec<u8>,
}

/// Errors decoding an uplink event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BridgeDecodeError(String);

impl fmt::Display for BridgeDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid uplink event: {}", self.0)
    }
}

impl std::error::Error for BridgeDecodeError {}

/// Lower-case hex of `bytes`: two nibble-table pushes per byte into one
/// pre-sized `String` (this runs once per published uplink).
fn hex_encode(bytes: &[u8]) -> String {
    const NIBBLES: [char; 16] = [
        '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', 'a', 'b', 'c', 'd', 'e', 'f',
    ];
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        for nibble in [b >> 4, b & 0x0f] {
            out.push(NIBBLES.get(usize::from(nibble)).copied().unwrap_or('0'));
        }
    }
    out
}

fn hex_decode(s: &str) -> Result<Vec<u8>, BridgeDecodeError> {
    if !s.len().is_multiple_of(2) {
        return Err(BridgeDecodeError(format!("odd hex length {}", s.len())));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            // `get` rather than slicing: a multi-byte char in the input
            // would make `i..i + 2` a non-boundary slice and panic.
            s.get(i..i + 2)
                .and_then(|pair| u8::from_str_radix(pair, 16).ok())
                .ok_or_else(|| BridgeDecodeError(format!("bad hex at {i}")))
        })
        .collect()
}

/// Replace characters that are illegal inside a single topic level.
///
/// City names are operator input; a `+`, `#`, or `/` in one must not be able
/// to corrupt the topic scheme (or panic topic construction).
fn sanitize_level(s: &str) -> String {
    let cleaned: String = s
        .chars()
        .map(|c| if matches!(c, '+' | '#' | '/') { '_' } else { c })
        .collect();
    if cleaned.is_empty() {
        "unknown".to_string()
    } else {
        cleaned
    }
}

impl UplinkEvent {
    /// Topic this event is published to:
    /// `ctt/{city}/devices/{dev-eui}/up`.
    pub fn topic(&self) -> Topic {
        Topic::from_sanitized(format!(
            "ctt/{}/devices/{}/up",
            sanitize_level(&self.city),
            self.device.0
        ))
    }

    /// Subscription filter for all uplinks of a city.
    pub fn city_filter(city: &str) -> TopicFilter {
        TopicFilter::from_sanitized(format!("ctt/{}/devices/+/up", sanitize_level(city)))
    }

    /// Subscription filter for all uplinks of all cities.
    pub fn all_filter() -> TopicFilter {
        TopicFilter::from_sanitized("ctt/+/devices/+/up".to_string())
    }

    /// Encode to the line format.
    pub fn encode(&self) -> Vec<u8> {
        format!(
            "v1 city={} dev={:016x} fcnt={} port={} time={} gw={:016x} rssi={:.1} snr={:.1} gws={} data={}",
            self.city,
            self.device.0,
            self.fcnt,
            self.port,
            self.time.as_seconds(),
            self.gateway.0,
            self.rssi_dbm,
            self.snr_db,
            self.gateway_count,
            hex_encode(&self.payload),
        )
        .into_bytes()
    }

    /// Decode from the line format.
    pub fn decode(bytes: &[u8]) -> Result<UplinkEvent, BridgeDecodeError> {
        let text =
            std::str::from_utf8(bytes).map_err(|_| BridgeDecodeError("not UTF-8".to_string()))?;
        let mut parts = text.split_whitespace();
        if parts.next() != Some("v1") {
            return Err(BridgeDecodeError("missing v1 marker".to_string()));
        }
        let mut city = None;
        let mut dev = None;
        let mut fcnt = None;
        let mut port = None;
        let mut time = None;
        let mut gw = None;
        let mut rssi = None;
        let mut snr = None;
        let mut gws = None;
        let mut data = None;
        for kv in parts {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| BridgeDecodeError(format!("bad field {kv:?}")))?;
            let err = |what: &str| BridgeDecodeError(format!("bad {what}: {v:?}"));
            match k {
                "city" => city = Some(v.to_string()),
                "dev" => dev = Some(u64::from_str_radix(v, 16).map_err(|_| err("dev"))?),
                "fcnt" => fcnt = Some(v.parse().map_err(|_| err("fcnt"))?),
                "port" => port = Some(v.parse().map_err(|_| err("port"))?),
                "time" => time = Some(v.parse().map_err(|_| err("time"))?),
                "gw" => gw = Some(u64::from_str_radix(v, 16).map_err(|_| err("gw"))?),
                "rssi" => rssi = Some(v.parse().map_err(|_| err("rssi"))?),
                "snr" => snr = Some(v.parse().map_err(|_| err("snr"))?),
                "gws" => gws = Some(v.parse().map_err(|_| err("gws"))?),
                "data" => data = Some(hex_decode(v)?),
                _ => {} // forward compatible: ignore unknown fields
            }
        }
        let missing = |what: &str| BridgeDecodeError(format!("missing {what}"));
        Ok(UplinkEvent {
            city: city.ok_or_else(|| missing("city"))?,
            device: DevEui(dev.ok_or_else(|| missing("dev"))?),
            fcnt: fcnt.ok_or_else(|| missing("fcnt"))?,
            port: port.ok_or_else(|| missing("port"))?,
            time: Timestamp(time.ok_or_else(|| missing("time"))?),
            gateway: GatewayId(gw.ok_or_else(|| missing("gw"))?),
            rssi_dbm: rssi.ok_or_else(|| missing("rssi"))?,
            snr_db: snr.ok_or_else(|| missing("snr"))?,
            gateway_count: gws.ok_or_else(|| missing("gws"))?,
            payload: data.ok_or_else(|| missing("data"))?,
        })
    }

    /// Publish this event to a broker (QoS1, since measurement loss after
    /// successful radio reception would be self-inflicted).
    pub fn publish(&self, broker: &Broker) -> usize {
        broker.publish(
            Message::new(self.topic(), self.encode(), self.time).with_qos(QoS::AtLeastOnce),
        )
    }

    /// Publish with bounded retry: when the QoS1 publish defers on a full
    /// subscriber queue, retry the deferred deliveries under exponential
    /// backoff until they land or the attempt budget runs out. Undelivered
    /// messages stay in the broker's in-flight store either way, so giving
    /// up here loses nothing — a later ack/redeliver cycle recovers them.
    pub fn publish_with_retry(&self, broker: &Broker, policy: RetryPolicy) -> PublishReport {
        let outcome = broker.publish_with_outcome(
            Message::new(self.topic(), self.encode(), self.time).with_qos(QoS::AtLeastOnce),
        );
        let mut report = PublishReport {
            routed: outcome.routed,
            enqueued: outcome.enqueued,
            retries: 0,
            backoff: Span::seconds(0),
            still_deferred: outcome.deferred_qos1,
            shed: outcome.shed,
        };
        while report.still_deferred > 0 && report.retries < policy.max_attempts {
            // Simulated-time backoff: 1×, 2×, 4×, … the base interval.
            let factor = 1i64 << report.retries.min(16);
            report.backoff =
                report.backoff + Span::seconds(policy.base_backoff.as_seconds() * factor);
            report.retries += 1;
            let recovered = broker.redeliver_deferred();
            report.enqueued += recovered;
            report.still_deferred = report.still_deferred.saturating_sub(recovered);
        }
        report
    }
}

/// Bounded exponential backoff for deferred QoS1 publishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retry attempts after the initial publish.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each attempt.
    pub base_backoff: Span,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Span::seconds(1),
        }
    }
}

/// What a retried publish accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishReport {
    /// Subscriptions the message was routed to.
    pub routed: usize,
    /// Deliveries enqueued (initial + recovered by retry).
    pub enqueued: usize,
    /// Retry rounds performed.
    pub retries: u32,
    /// Total simulated backoff accumulated across retries.
    pub backoff: Span,
    /// Deliveries still deferred when the attempt budget ran out.
    pub still_deferred: usize,
    /// Deliveries shed at a subscriber's in-flight cap: the broker gave
    /// this copy up for good. The publisher owns the loss accounting.
    pub shed: usize,
}

/// A deterministic token bucket refilled in *logical* time.
///
/// All arithmetic is integer (token levels are scaled by 3600 so an
/// hourly refill rate divides exactly into per-second steps); replaying
/// the same event sequence replays the same admission decisions.
#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    /// Current level, in tokens × 3600.
    level: i64,
    /// Burst capacity, in tokens × 3600.
    capacity: i64,
    /// Refill rate, tokens per hour (i.e. scaled units per second).
    refill_per_hour: i64,
    /// When the bucket was last refilled.
    last: Timestamp,
}

impl TokenBucket {
    const SCALE: i64 = 3600;

    fn new(burst: u32, refill_per_hour: u32, now: Timestamp) -> Self {
        let capacity = i64::from(burst) * Self::SCALE;
        TokenBucket {
            level: capacity,
            capacity,
            refill_per_hour: i64::from(refill_per_hour),
            last: now,
        }
    }

    /// Refill for elapsed logical time, then take one token if available.
    fn try_take(&mut self, now: Timestamp) -> bool {
        let dt = (now - self.last).as_seconds();
        if dt > 0 {
            self.level = self
                .level
                .saturating_add(dt.saturating_mul(self.refill_per_hour))
                .min(self.capacity);
            self.last = now;
        }
        if self.level >= Self::SCALE {
            self.level -= Self::SCALE;
            true
        } else {
            false
        }
    }
}

/// The admission decision for one uplink publish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A token was available: publish now.
    Granted,
    /// No token, but deferral space remains: hold the uplink and retry
    /// via [`AdmissionControl::retry`] as logical time advances.
    Deferred,
    /// No token and the deferral window is full: shed the uplink. The
    /// caller must account it (`Lost(Backpressure)`).
    Shed,
}

/// Per-gateway admission control for uplink publishes: a token bucket per
/// gateway, refilled in logical time, with a bounded deferral window
/// before shedding starts. Deterministic by construction — no wall clock,
/// `BTreeMap` iteration, integer token math.
#[derive(Debug, Clone)]
pub struct AdmissionControl {
    burst: u32,
    refill_per_hour: u32,
    defer_cap: usize,
    buckets: std::collections::BTreeMap<GatewayId, TokenBucket>,
    /// Publishes currently held back, per gateway.
    deferred: std::collections::BTreeMap<GatewayId, usize>,
    shed_total: u64,
    deferred_total: u64,
}

impl AdmissionControl {
    /// Build with a per-gateway `burst` capacity, sustained
    /// `refill_per_hour` rate, and `defer_cap` publishes of deferral
    /// window per gateway.
    pub fn new(burst: u32, refill_per_hour: u32, defer_cap: usize) -> Self {
        AdmissionControl {
            burst,
            refill_per_hour,
            defer_cap,
            buckets: std::collections::BTreeMap::new(),
            deferred: std::collections::BTreeMap::new(),
            shed_total: 0,
            deferred_total: 0,
        }
    }

    fn bucket(&mut self, gateway: GatewayId, now: Timestamp) -> &mut TokenBucket {
        let (burst, refill) = (self.burst, self.refill_per_hour);
        self.buckets
            .entry(gateway)
            .or_insert_with(|| TokenBucket::new(burst, refill, now))
    }

    /// Decide what to do with a new uplink publish via `gateway` at `now`.
    pub fn admit(&mut self, gateway: GatewayId, now: Timestamp) -> Admission {
        if self.bucket(gateway, now).try_take(now) {
            return Admission::Granted;
        }
        let held = self.deferred.entry(gateway).or_insert(0);
        if *held < self.defer_cap {
            *held += 1;
            self.deferred_total += 1;
            Admission::Deferred
        } else {
            self.shed_total += 1;
            Admission::Shed
        }
    }

    /// Retry one previously deferred publish via `gateway`. Returns true
    /// when a token was available — the caller releases the held uplink
    /// and publishes it.
    pub fn retry(&mut self, gateway: GatewayId, now: Timestamp) -> bool {
        if self.deferred.get(&gateway).copied().unwrap_or(0) == 0 {
            return false;
        }
        if self.bucket(gateway, now).try_take(now) {
            if let Some(held) = self.deferred.get_mut(&gateway) {
                *held = held.saturating_sub(1);
            }
            true
        } else {
            false
        }
    }

    /// Publishes currently held back across all gateways.
    pub fn deferred_now(&self) -> usize {
        self.deferred.values().sum()
    }

    /// Uplinks shed at admission so far.
    pub fn shed_total(&self) -> u64 {
        self.shed_total
    }

    /// Uplinks that went through the deferral window so far.
    pub fn deferred_total(&self) -> u64 {
        self.deferred_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event() -> UplinkEvent {
        UplinkEvent {
            city: "trondheim".to_string(),
            device: DevEui::ctt(7),
            fcnt: 1234,
            port: 2,
            time: Timestamp(1_490_000_000),
            gateway: GatewayId::ctt(1),
            rssi_dbm: -103.4,
            snr_db: 5.2,
            gateway_count: 2,
            payload: vec![0x01, 0xAB, 0xFF, 0x00],
        }
    }

    #[test]
    fn publish_with_retry_bounded_giveup_preserves_message() {
        let broker = Broker::new();
        let sub = broker.subscribe(UplinkEvent::all_filter(), QoS::AtLeastOnce, 1);
        let e = event();
        let first = e.publish_with_retry(&broker, RetryPolicy::default());
        assert_eq!(
            (first.enqueued, first.retries, first.still_deferred),
            (1, 0, 0)
        );
        // Queue full and the consumer stalled: retries are bounded…
        let second = e.publish_with_retry(&broker, RetryPolicy::default());
        assert_eq!(second.retries, RetryPolicy::default().max_attempts);
        assert_eq!(second.still_deferred, 1);
        // …under exponential backoff: 1 + 2 + 4 + 8 seconds.
        assert_eq!(second.backoff, Span::seconds(15));
        // Giving up lost nothing: drain + deferred retry recovers it.
        let d = sub.try_recv().unwrap();
        broker.ack(sub.id, d.packet_id.unwrap());
        assert_eq!(broker.redeliver_deferred(), 1);
        let d2 = sub.try_recv().unwrap();
        broker.ack(sub.id, d2.packet_id.unwrap());
        assert_eq!(broker.inflight_count(sub.id), 0);
        assert_eq!(broker.deferred_count(), 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let e = event();
        let decoded = UplinkEvent::decode(&e.encode()).unwrap();
        assert_eq!(decoded, e);
    }

    #[test]
    fn topic_shape() {
        let e = event();
        let t = e.topic();
        assert!(t.as_str().starts_with("ctt/trondheim/devices/"));
        assert!(t.as_str().ends_with("/up"));
        assert!(UplinkEvent::city_filter("trondheim").matches(&t));
        assert!(UplinkEvent::all_filter().matches(&t));
        assert!(!UplinkEvent::city_filter("vejle").matches(&t));
    }

    #[test]
    fn empty_payload_roundtrip() {
        let mut e = event();
        e.payload = vec![];
        assert_eq!(UplinkEvent::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(UplinkEvent::decode(b"").is_err());
        assert!(UplinkEvent::decode(b"v2 city=x").is_err());
        assert!(UplinkEvent::decode(&[0xFF, 0xFE]).is_err());
        assert!(UplinkEvent::decode(b"v1 city=x dev=zz").is_err());
        // Missing fields.
        assert!(UplinkEvent::decode(b"v1 city=x dev=1 fcnt=0").is_err());
    }

    #[test]
    fn decode_ignores_unknown_fields() {
        let mut line = String::from_utf8(event().encode()).unwrap();
        line.push_str(" future=stuff");
        let decoded = UplinkEvent::decode(line.as_bytes()).unwrap();
        assert_eq!(decoded, event());
    }

    #[test]
    fn hex_codec() {
        assert_eq!(hex_encode(&[0x00, 0xFF, 0x1a]), "00ff1a");
        assert_eq!(hex_decode("00ff1a").unwrap(), vec![0x00, 0xFF, 0x1a]);
        assert!(hex_decode("0f0").is_err());
        assert!(hex_decode("zz").is_err());
        // Multi-byte chars used to panic on the non-boundary slice.
        assert!(hex_decode("日日").is_err());
        assert!(hex_decode("¡¡").is_err());
    }

    #[test]
    fn hex_encode_matches_format_for_every_byte_value() {
        let all: Vec<u8> = (0..=255).collect();
        let encoded = hex_encode(&all);
        let reference: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(encoded, reference);
        assert_eq!(hex_decode(&encoded).unwrap(), all);
    }

    #[test]
    fn hostile_city_names_cannot_corrupt_the_topic_scheme() {
        let mut e = event();
        e.city = "tr#nd/heim+".to_string();
        let t = e.topic();
        assert_eq!(
            t.as_str(),
            format!("ctt/tr_nd_heim_/devices/{}/up", e.device.0)
        );
        // A hostile name must not be able to subscribe across cities.
        let f = UplinkEvent::city_filter("+");
        assert!(!f.matches(&event().topic()));
        // Empty city still yields a valid, non-empty level.
        e.city = String::new();
        assert!(e.topic().as_str().starts_with("ctt/unknown/"));
    }

    #[test]
    fn admission_grants_defers_then_sheds() {
        let gw = GatewayId::ctt(1);
        let t0 = Timestamp(1_000_000);
        // Burst 2, refill 3600/h (one token per second), defer window 2.
        let mut ac = AdmissionControl::new(2, 3600, 2);
        assert_eq!(ac.admit(gw, t0), Admission::Granted);
        assert_eq!(ac.admit(gw, t0), Admission::Granted);
        // Burst exhausted, no time has passed: defer, then shed.
        assert_eq!(ac.admit(gw, t0), Admission::Deferred);
        assert_eq!(ac.admit(gw, t0), Admission::Deferred);
        assert_eq!(ac.admit(gw, t0), Admission::Shed);
        assert_eq!(ac.deferred_now(), 2);
        assert_eq!(ac.shed_total(), 1);
        // One logical second refills one token: a retry releases one held
        // uplink, the other stays deferred.
        let t1 = t0 + Span::seconds(1);
        assert!(ac.retry(gw, t1));
        assert!(!ac.retry(gw, t1));
        assert_eq!(ac.deferred_now(), 1);
        // Retrying with nothing held is a no-op even with tokens banked.
        let t2 = t0 + Span::seconds(10);
        assert!(ac.retry(gw, t2));
        assert!(!ac.retry(gw, t2), "nothing left to release");
        assert_eq!(ac.deferred_now(), 0);
    }

    #[test]
    fn admission_is_per_gateway_and_deterministic() {
        let t0 = Timestamp(500);
        let mut a = AdmissionControl::new(1, 60, 1);
        let mut b = AdmissionControl::new(1, 60, 1);
        let decisions: Vec<Admission> = (0..20u32)
            .map(|i| a.admit(GatewayId::ctt(i % 3), t0 + Span::seconds(i64::from(i) * 30)))
            .collect();
        let replay: Vec<Admission> = (0..20u32)
            .map(|i| b.admit(GatewayId::ctt(i % 3), t0 + Span::seconds(i64::from(i) * 30)))
            .collect();
        assert_eq!(decisions, replay, "same inputs, same decisions");
        // One gateway exhausting its bucket does not starve another.
        let gw9 = GatewayId::ctt(9);
        assert_eq!(a.admit(gw9, t0), Admission::Granted);
    }

    #[test]
    fn token_bucket_refills_in_logical_time_only() {
        let t0 = Timestamp(0);
        // 60 tokens/hour = one per minute.
        let mut bucket = TokenBucket::new(1, 60, t0);
        assert!(bucket.try_take(t0));
        assert!(!bucket.try_take(t0), "burst of one is spent");
        assert!(!bucket.try_take(t0 + Span::seconds(59)), "not yet refilled");
        assert!(bucket.try_take(t0 + Span::seconds(60)));
        // Level is capped at the burst capacity: a long idle stretch banks
        // at most `burst` tokens.
        let late = t0 + Span::hours(10);
        assert!(bucket.try_take(late));
        assert!(!bucket.try_take(late), "capacity caps the bank at 1");
    }

    #[test]
    fn publish_reaches_subscriber() {
        let broker = Broker::new();
        let sub = broker.subscribe(UplinkEvent::all_filter(), QoS::AtLeastOnce, 8);
        let e = event();
        assert_eq!(e.publish(&broker), 1);
        let d = sub.try_recv().unwrap();
        assert!(d.packet_id.is_some());
        let decoded = UplinkEvent::decode(&d.message.payload).unwrap();
        assert_eq!(decoded, e);
        broker.ack(sub.id, d.packet_id.unwrap());
    }
}
