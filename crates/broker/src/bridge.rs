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
use std::borrow::Cow;
use std::fmt;
use std::io::Write;

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

/// The normal form of a city name, used for its topic level, its wire
/// field and its TSDB `city` tag alike: lower-case, every character outside
/// `[a-z0-9._-]` (the TSDB tag alphabet minus `/`, the topic separator)
/// replaced by `_`, and `unknown` for an empty name.
///
/// City names are operator input. Normalizing once where the name enters
/// (the pipeline does so at construction) means a space, `=`, `+`, `#` or
/// `/` in one cannot break the wire line, be refused as a tag value, or
/// corrupt the topic scheme.
pub fn city_slug(name: &str) -> String {
    if name.is_empty() {
        return "unknown".to_string();
    }
    name.chars()
        .flat_map(char::to_lowercase)
        .map(|c| match c {
            'a'..='z' | '0'..='9' | '.' | '_' | '-' => c,
            _ => '_',
        })
        .collect()
}

/// `city` as a topic level: verbatim unless it is empty or holds a
/// character with a meaning in the topic grammar, and then its slug.
fn topic_level(city: &str) -> Cow<'_, str> {
    if city.is_empty() || city.contains(['+', '#', '/']) {
        Cow::Owned(city_slug(city))
    } else {
        Cow::Borrowed(city)
    }
}

/// `city` as a wire field: verbatim unless it holds whitespace, which would
/// split the field (such a line never decoded), and then its slug.
fn wire_city(city: &str) -> Cow<'_, str> {
    if city.contains(char::is_whitespace) {
        Cow::Owned(city_slug(city))
    } else {
        Cow::Borrowed(city)
    }
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Append the two lower-case hex digits of each of `bytes`.
fn push_hex(out: &mut Vec<u8>, bytes: &[u8]) {
    let digit = |nibble: u8| HEX_DIGITS.get(usize::from(nibble)).copied().unwrap_or(b'0');
    for b in bytes {
        out.extend_from_slice(&[digit(b >> 4), digit(b & 0x0f)]);
    }
}

/// The decimal digits of `n`, as `{}` prints them, written at the end of
/// `buf`.
fn decimal(mut n: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut digits = 0;
    for slot in buf.iter_mut().rev() {
        *slot = b'0' + (n % 10) as u8;
        digits += 1;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.get(buf.len() - digits..).unwrap_or_default()
}

/// Append `n` in decimal, as `{}` prints it.
fn push_u64(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(decimal(n, &mut [0; 20]));
}

/// Append `n` in decimal, as `{}` prints it.
fn push_i64(out: &mut Vec<u8>, n: i64) {
    if n < 0 {
        out.push(b'-');
    }
    push_u64(out, n.unsigned_abs());
}

/// Append `v` exactly as `{v:.1}` prints it.
///
/// `{:.1}` rounds the exact binary value of `v` to the nearest tenth, so
/// `round(|v|·10)` is the same number whenever the computed product rounds
/// the way the exact one does. The one multiply is off by at most half an
/// ulp (< 1e-7 below 1e9), so a scaled fraction farther than 1e-6 from the
/// .5 tie cannot have crossed it. Anything nearer the tie, 1e8 and beyond,
/// NaN and ±inf go through `core::fmt`.
fn push_fixed1(out: &mut Vec<u8>, v: f64) {
    let scaled = v.abs() * 10.0;
    if scaled < 1e9 {
        let whole = scaled as u64;
        let frac = scaled - whole as f64;
        if (frac - 0.5).abs() > 1e-6 {
            let tenths = whole + u64::from(frac > 0.5);
            // `{:.1}` keeps the sign of -0.0 and of negatives rounding to zero.
            if v.is_sign_negative() {
                out.push(b'-');
            }
            push_u64(out, tenths / 10);
            out.extend_from_slice(&[b'.', b'0' + (tenths % 10) as u8]);
            return;
        }
    }
    let _ = write!(out, "{v:.1}");
}

/// The value of one hex digit, either case; `NOT_HEX` for any other byte.
const fn hex_value(digit: u8) -> u8 {
    match digit {
        b'0'..=b'9' => digit - b'0',
        b'a'..=b'f' => digit - b'a' + 10,
        b'A'..=b'F' => digit - b'A' + 10,
        _ => NOT_HEX,
    }
}

/// Has bits above the low nibble, so OR-ing looked-up values together and
/// comparing against 0x0f once says whether any byte was not a hex digit.
const NOT_HEX: u8 = 0xFF;

/// [`hex_value`] of every byte.
const HEX_VALUES: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut rest: &mut [u8] = &mut table;
    let mut byte = 0u8;
    while let Some((slot, tail)) = rest.split_first_mut() {
        *slot = hex_value(byte);
        byte = byte.wrapping_add(1);
        rest = tail;
    }
    table
};

fn hex_lookup(byte: u8) -> u8 {
    HEX_VALUES
        .get(usize::from(byte))
        .copied()
        .unwrap_or(NOT_HEX)
}

/// A field's bytes as text, for the std parsers and for error messages.
/// Fields are whole whitespace-separated tokens of a valid line split at an
/// ASCII `=`, so the conversion cannot fail.
fn text(field: &[u8]) -> &str {
    std::str::from_utf8(field).unwrap_or_default()
}

/// `u64::from_str_radix(s, 16)`: one to sixteen hex digits fold directly
/// (they cannot overflow); a sign, an overlong or an invalid string is left
/// to the std parser to accept or refuse.
fn parse_hex_u64(s: &[u8]) -> Option<u64> {
    if (1..=16).contains(&s.len()) {
        let (n, seen) = s.iter().fold((0u64, 0u8), |(n, seen), b| {
            let nibble = hex_lookup(*b);
            (n << 4 | u64::from(nibble & 0x0f), seen | nibble)
        });
        if seen <= 0x0f {
            return Some(n);
        }
    }
    u64::from_str_radix(text(s), 16).ok()
}

/// `s.parse::<u64>()` narrowed to `T`: one to nineteen digits fold directly
/// (they cannot overflow); anything else — a sign, twenty digits, a value
/// beyond `T` — is left to `T`'s std parser to accept or refuse.
fn parse_unsigned<T: TryFrom<u64> + std::str::FromStr>(s: &[u8]) -> Option<T> {
    fold_digits(s)
        .and_then(|n| T::try_from(n).ok())
        .or_else(|| text(s).parse().ok())
}

/// `s.parse::<i64>()`, with the same direct fold after an optional `-`.
fn parse_i64(s: &[u8]) -> Option<i64> {
    let (negative, digits) = match s {
        [b'-', digits @ ..] => (true, digits),
        digits => (false, digits),
    };
    fold_digits(digits)
        .and_then(|n| i64::try_from(n).ok())
        .map(|n| if negative { -n } else { n })
        .or_else(|| text(s).parse().ok())
}

/// The value of one to nineteen ASCII digits (at most 10^19 − 1 < 2^64).
fn fold_digits(digits: &[u8]) -> Option<u64> {
    if !(1..=19).contains(&digits.len()) {
        return None;
    }
    digits.iter().try_fold(0u64, |acc, b| {
        b.is_ascii_digit().then(|| acc * 10 + u64::from(b - b'0'))
    })
}

/// `s.parse::<f64>()`. The shape `{:.1}` prints — `-?D{1,9}.D` — is at most
/// ten digits `n` over ten: `n` and 10 are exact doubles and IEEE division
/// rounds correctly, so `n / 10` is the double nearest the decimal, which is
/// what a correct parser returns. Every other shape goes to the std parser.
fn parse_f64(s: &[u8]) -> Option<f64> {
    let (negative, digits) = match s {
        [b'-', digits @ ..] => (true, digits),
        digits => (false, digits),
    };
    match digits {
        [whole @ .., b'.', tenth] if whole.len() <= 9 && tenth.is_ascii_digit() => {
            fold_digits(whole).map(|whole| {
                let v = (whole * 10 + u64::from(tenth - b'0')) as f64 / 10.0;
                if negative {
                    -v
                } else {
                    v
                }
            })
        }
        _ => None,
    }
    .or_else(|| text(s).parse().ok())
}

/// Decode lower- or upper-case hex `s` into `out`, replacing its contents.
fn hex_decode_into(out: &mut Vec<u8>, s: &[u8]) -> Result<(), BridgeDecodeError> {
    if !s.len().is_multiple_of(2) {
        return Err(BridgeDecodeError(format!("odd hex length {}", s.len())));
    }
    out.clear();
    let mut seen = 0u8;
    out.extend(s.chunks_exact(2).map(|pair| {
        let (hi, lo) = match pair {
            [hi, lo] => (hex_lookup(*hi), hex_lookup(*lo)),
            _ => (NOT_HEX, NOT_HEX),
        };
        seen |= hi | lo;
        hi << 4 | lo & 0x0f
    }));
    if seen <= 0x0f {
        return Ok(());
    }
    // Not all hex digits. Pair by pair through the std parser, which also
    // takes a `+` for a pair's first digit and refuses — without panicking
    // — a pair that is not on character boundaries.
    out.clear();
    let s = text(s);
    for at in (0..s.len()).step_by(2) {
        let byte = s
            .get(at..at + 2)
            .and_then(|pair| u8::from_str_radix(pair, 16).ok())
            .ok_or_else(|| BridgeDecodeError(format!("bad hex at {at}")))?;
        out.push(byte);
    }
    Ok(())
}

/// The ten fields of the line format, in the order a missing one is
/// reported.
const FIELDS: [&str; 10] = [
    "city", "dev", "fcnt", "port", "time", "gw", "rssi", "snr", "gws", "data",
];

/// What the line format adds around the city and the payload hex, rounded
/// up: 57 bytes of marker, keys and separators, two 16-digit ids, the four
/// integers at their widest (5 + 3 + 20 + 20) and eight bytes for each
/// signal reading — 153. A reading that prints wider than that (1e300)
/// grows the buffer.
const LINE_OVERHEAD: usize = 160;

impl Default for UplinkEvent {
    /// The blank event: what [`UplinkEvent::decode_into`] is given to fill.
    fn default() -> Self {
        UplinkEvent {
            city: String::new(),
            device: DevEui(0),
            fcnt: 0,
            port: 0,
            time: Timestamp(0),
            gateway: GatewayId(0),
            rssi_dbm: 0.0,
            snr_db: 0.0,
            gateway_count: 0,
            payload: Vec::new(),
        }
    }
}

impl UplinkEvent {
    /// Topic this event is published to:
    /// `ctt/{city}/devices/{dev-eui}/up`.
    pub fn topic(&self) -> Topic {
        let level = topic_level(&self.city);
        let mut digits = [0; 20];
        let device = decimal(self.device.0, &mut digits);
        let mut topic =
            String::with_capacity("ctt//devices//up".len() + level.len() + device.len());
        topic.push_str("ctt/");
        topic.push_str(&level);
        topic.push_str("/devices/");
        topic.push_str(text(device));
        topic.push_str("/up");
        Topic::from_sanitized(&topic)
    }

    /// Subscription filter for all uplinks of a city.
    pub fn city_filter(city: &str) -> TopicFilter {
        TopicFilter::from_sanitized(format!("ctt/{}/devices/+/up", topic_level(city)))
    }

    /// Subscription filter for all uplinks of all cities.
    pub fn all_filter() -> TopicFilter {
        TopicFilter::from_sanitized("ctt/+/devices/+/up".to_string())
    }

    /// Encode to the line format:
    /// `v1 city={} dev={:016x} fcnt={} port={} time={} gw={:016x}
    /// rssi={:.1} snr={:.1} gws={} data={hex}`, single spaces.
    pub fn encode(&self) -> Vec<u8> {
        let city = wire_city(&self.city);
        let mut out = Vec::with_capacity(LINE_OVERHEAD + city.len() + 2 * self.payload.len());
        out.extend_from_slice(b"v1 city=");
        out.extend_from_slice(city.as_bytes());
        out.extend_from_slice(b" dev=");
        push_hex(&mut out, &self.device.0.to_be_bytes());
        out.extend_from_slice(b" fcnt=");
        push_u64(&mut out, u64::from(self.fcnt));
        out.extend_from_slice(b" port=");
        push_u64(&mut out, u64::from(self.port));
        out.extend_from_slice(b" time=");
        push_i64(&mut out, self.time.as_seconds());
        out.extend_from_slice(b" gw=");
        push_hex(&mut out, &self.gateway.0.to_be_bytes());
        out.extend_from_slice(b" rssi=");
        push_fixed1(&mut out, self.rssi_dbm);
        out.extend_from_slice(b" snr=");
        push_fixed1(&mut out, self.snr_db);
        out.extend_from_slice(b" gws=");
        push_u64(
            &mut out,
            u64::try_from(self.gateway_count).unwrap_or(u64::MAX),
        );
        out.extend_from_slice(b" data=");
        push_hex(&mut out, &self.payload);
        out
    }

    /// Decode from the line format.
    pub fn decode(bytes: &[u8]) -> Result<UplinkEvent, BridgeDecodeError> {
        let mut event = UplinkEvent::default();
        event.decode_into(bytes)?;
        Ok(event)
    }

    /// Decode from the line format into `self`, reusing the capacity of
    /// `city` and `payload`. On an error `self` is left partly overwritten.
    ///
    /// The grammar: UTF-8; fields separated by Unicode whitespace; `v1`
    /// first, then `key=value` fields in any order; unknown keys ignored
    /// (forward compatible); the last of a repeated key wins; all ten known
    /// keys required.
    pub fn decode_into(&mut self, bytes: &[u8]) -> Result<(), BridgeDecodeError> {
        if bytes.is_ascii() {
            // In ASCII, Unicode whitespace is 0x09–0x0D and the space
            // (`u8::is_ascii_whitespace` would miss 0x0B).
            return self.fill(
                bytes
                    .split(|b| matches!(b, 0x09..=0x0D | b' '))
                    .filter(|field| !field.is_empty()),
            );
        }
        let text =
            std::str::from_utf8(bytes).map_err(|_| BridgeDecodeError("not UTF-8".to_string()))?;
        self.fill(text.split_whitespace().map(str::as_bytes))
    }

    /// Fill `self` from the whitespace-separated `fields` of one line.
    fn fill<'a>(
        &mut self,
        mut fields: impl Iterator<Item = &'a [u8]>,
    ) -> Result<(), BridgeDecodeError> {
        if fields.next() != Some(b"v1") {
            return Err(BridgeDecodeError("missing v1 marker".to_string()));
        }
        let mut seen = 0u16;
        for field in fields {
            seen |= self.set_field(field)?;
        }
        match FIELDS
            .iter()
            .enumerate()
            .find(|(bit, _)| seen & (1 << bit) == 0)
        {
            Some((_, name)) => Err(BridgeDecodeError(format!("missing {name}"))),
            None => Ok(()),
        }
    }

    /// Parse one `key=value` field into `self`; returns the key's bit in
    /// [`FIELDS`] order, 0 for an unknown key. The key is what precedes the
    /// first `=`, which for a known key is to say the field starts `key=`.
    fn set_field(&mut self, field: &[u8]) -> Result<u16, BridgeDecodeError> {
        let bad = |key: &str, v: &[u8]| BridgeDecodeError(format!("bad {key}: {:?}", text(v)));
        let bit = match field {
            [b'c', b'i', b't', b'y', b'=', v @ ..] => {
                self.city.clear();
                self.city.push_str(text(v));
                0
            }
            [b'd', b'e', b'v', b'=', v @ ..] => {
                self.device = DevEui(parse_hex_u64(v).ok_or_else(|| bad("dev", v))?);
                1
            }
            [b'f', b'c', b'n', b't', b'=', v @ ..] => {
                self.fcnt = parse_unsigned(v).ok_or_else(|| bad("fcnt", v))?;
                2
            }
            [b'p', b'o', b'r', b't', b'=', v @ ..] => {
                self.port = parse_unsigned(v).ok_or_else(|| bad("port", v))?;
                3
            }
            [b't', b'i', b'm', b'e', b'=', v @ ..] => {
                self.time = Timestamp(parse_i64(v).ok_or_else(|| bad("time", v))?);
                4
            }
            [b'g', b'w', b'=', v @ ..] => {
                self.gateway = GatewayId(parse_hex_u64(v).ok_or_else(|| bad("gw", v))?);
                5
            }
            [b'r', b's', b's', b'i', b'=', v @ ..] => {
                self.rssi_dbm = parse_f64(v).ok_or_else(|| bad("rssi", v))?;
                6
            }
            [b's', b'n', b'r', b'=', v @ ..] => {
                self.snr_db = parse_f64(v).ok_or_else(|| bad("snr", v))?;
                7
            }
            [b'g', b'w', b's', b'=', v @ ..] => {
                self.gateway_count = parse_unsigned(v).ok_or_else(|| bad("gws", v))?;
                8
            }
            [b'd', b'a', b't', b'a', b'=', v @ ..] => {
                hex_decode_into(&mut self.payload, v)?;
                9
            }
            // Forward compatible: a field with any other key is ignored.
            _ if field.contains(&b'=') => return Ok(0),
            _ => return Err(BridgeDecodeError(format!("bad field {:?}", text(field)))),
        };
        Ok(1 << bit)
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
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The shape `hex_codec` and its neighbour were written against.
    fn hex_encode(bytes: &[u8]) -> String {
        let mut out = Vec::new();
        push_hex(&mut out, bytes);
        String::from_utf8(out).unwrap()
    }

    fn hex_decode(s: &str) -> Result<Vec<u8>, BridgeDecodeError> {
        let mut out = vec![0xEE; 3];
        hex_decode_into(&mut out, s.as_bytes()).map(|()| out)
    }

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

    // ---------------------------------------------------------------
    // The codec contract: the writers and parsers above against the
    // `format!` / `split_whitespace` + `str::parse` codec they replaced,
    // kept here verbatim as the oracle.
    // ---------------------------------------------------------------

    fn encode_v0(e: &UplinkEvent) -> Vec<u8> {
        format!(
            "v1 city={} dev={:016x} fcnt={} port={} time={} gw={:016x} rssi={:.1} snr={:.1} gws={} data={}",
            e.city,
            e.device.0,
            e.fcnt,
            e.port,
            e.time.as_seconds(),
            e.gateway.0,
            e.rssi_dbm,
            e.snr_db,
            e.gateway_count,
            e.payload.iter().map(|b| format!("{b:02x}")).collect::<String>(),
        )
        .into_bytes()
    }

    fn hex_decode_v0(s: &str) -> Result<Vec<u8>, BridgeDecodeError> {
        if !s.len().is_multiple_of(2) {
            return Err(BridgeDecodeError(format!("odd hex length {}", s.len())));
        }
        (0..s.len())
            .step_by(2)
            .map(|i| {
                s.get(i..i + 2)
                    .and_then(|pair| u8::from_str_radix(pair, 16).ok())
                    .ok_or_else(|| BridgeDecodeError(format!("bad hex at {i}")))
            })
            .collect()
    }

    fn decode_v0(bytes: &[u8]) -> Result<UplinkEvent, BridgeDecodeError> {
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
                "data" => data = Some(hex_decode_v0(v)?),
                _ => {}
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

    /// A decode result with the floats as bits, so NaN == NaN and
    /// 0.0 != -0.0 when two decoders are compared.
    fn exact(
        r: Result<UplinkEvent, BridgeDecodeError>,
    ) -> Result<(UplinkEvent, u64, u64), BridgeDecodeError> {
        r.map(|mut e| {
            let bits = (e.rssi_dbm.to_bits(), e.snr_db.to_bits());
            (e.rssi_dbm, e.snr_db) = (0.0, 0.0);
            (e, bits.0, bits.1)
        })
    }

    /// The new decoder against the oracle on one input: same `Ok` value
    /// bit for bit or the same error, through `decode` and through
    /// `decode_into` on an event that has been used before; and nothing it
    /// allocates is larger than the input (8 is the smallest allocation a
    /// `Vec<u8>` makes).
    fn check_decode(bytes: &[u8]) -> Result<(), TestCaseError> {
        let expect = exact(decode_v0(bytes));
        let got = UplinkEvent::decode(bytes);
        if let Ok(e) = &got {
            let bound = bytes.len().max(8);
            prop_assert!(e.city.capacity() <= bound && e.payload.capacity() <= bound);
        }
        prop_assert_eq!(exact(got), expect.clone(), "decode of {:?}", bytes);
        let mut used = event();
        used.payload = vec![7; 70];
        let reused = used.decode_into(bytes).map(|()| used);
        prop_assert_eq!(exact(reused), expect, "decode_into of {:?}", bytes);
        Ok(())
    }

    /// SplitMix64 over one proptest-drawn seed: many derived inputs a case.
    struct Words(u64);

    impl Words {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Clone>(&mut self, from: &[T]) -> T {
            from[self.below(from.len())].clone()
        }

        /// Either end of an integer's range, a small value, or anything.
        fn edgy(&mut self) -> u64 {
            match self.below(4) {
                0 => self.pick(&[0, 1, u64::MAX, i64::MAX as u64, i64::MIN as u64]),
                1 => self.next() % 100_000,
                _ => self.next(),
            }
        }

        /// A signal reading: a special, a tenths' tie `k/20` within 3 ulp,
        /// a plausible dBm value, or arbitrary bits.
        fn float(&mut self) -> f64 {
            match self.below(4) {
                0 => self.pick(&[
                    0.0,
                    -0.0,
                    -0.04,
                    0.05,
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    1e300,
                    -1e-300,
                    99_999_999.95,
                ]),
                1 => {
                    let tie = (self.next() % 3_000_000_000) as f64 / 20.0;
                    let bits = tie.to_bits();
                    let near = match self.below(2) {
                        0 => bits + self.next() % 4,
                        _ => bits.saturating_sub(self.next() % 4),
                    };
                    let v = f64::from_bits(near);
                    [v, -v][self.below(2)]
                }
                2 => -150.0 + (self.next() % 1_800_000) as f64 / 10_000.0,
                _ => f64::from_bits(self.next()),
            }
        }

        /// Any event at all; the city never holds whitespace.
        fn event(&mut self) -> UplinkEvent {
            let city = self.pick(&["", "trondheim", "a=b", "Ålesund", "v1", "city=x=y", "+#/"]);
            let any_len = self.below(65);
            let len = self.pick(&[0, 1, 18, any_len]);
            UplinkEvent {
                city: city.to_string(),
                device: DevEui(self.edgy()),
                fcnt: self.edgy() as u16,
                port: self.edgy() as u8,
                time: Timestamp(self.edgy() as i64),
                gateway: GatewayId(self.edgy()),
                rssi_dbm: self.float(),
                snr_db: self.float(),
                gateway_count: self.edgy() as usize,
                payload: (0..len).map(|_| self.next() as u8).collect(),
            }
        }

        /// A byte that means something to the grammar, or any byte.
        fn byte(&mut self) -> u8 {
            match self.below(3) {
                0 => {
                    self.pick(b" \t\n\x0b\x0c\r=+-.0123456789abcfeinfNAXx\x1c\x85\xa0\xc2\xe2\x80")
                }
                _ => self.next() as u8,
            }
        }
    }

    fn fixed1(v: f64) -> String {
        let mut out = Vec::new();
        push_fixed1(&mut out, v);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn fixed1_table() {
        for v in [
            0.0,
            -0.0,
            -0.04,
            0.04,
            0.05,
            0.15,
            0.25,
            0.75,
            -103.4,
            5.2,
            9.95,
            99_999_999.949_99,
            99_999_999.95,
            1e8,
            1e9,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-300,
            1e300,
        ] {
            assert_eq!(fixed1(v), format!("{v:.1}"), "{v:e}");
            assert_eq!(fixed1(-v), format!("{:.1}", -v), "-{v:e}");
        }
        assert_eq!(fixed1(-0.04), "-0.0");
        assert_eq!(fixed1(0.25), "0.2");
    }

    #[test]
    fn city_slug_table() {
        for (name, slug) in [
            ("Trondheim", "trondheim"),
            ("vejle", "vejle"),
            ("city17", "city17"),
            ("New York", "new_york"),
            ("a=b", "a_b"),
            ("tr#nd/heim+", "tr_nd_heim_"),
            ("São\u{a0}Paulo", "s_o_paulo"),
            ("x.y-z_0", "x.y-z_0"),
            ("", "unknown"),
        ] {
            assert_eq!(city_slug(name), slug);
            assert_eq!(city_slug(slug), slug, "a slug is its own slug");
        }
    }

    #[test]
    fn a_city_with_whitespace_still_makes_a_decodable_line() {
        let mut e = event();
        for city in ["New York", "a\tb", "x\u{85}y", "z\u{a0}"] {
            e.city = city.to_string();
            let decoded = UplinkEvent::decode(&e.encode()).unwrap();
            assert_eq!(decoded.city, city_slug(city));
            assert_eq!(decoded.payload, e.payload);
            assert!(decode_v0(&encode_v0(&e)).map(|d| d.city) != Ok(city.to_string()));
        }
    }

    #[test]
    fn every_unicode_separator_splits_fields_and_vertical_tab_too() {
        let line = String::from_utf8(event().encode()).unwrap();
        for sep in [
            "\u{b}",
            "\u{c}",
            "\r\n",
            "\u{85}",
            "\u{a0}",
            "\u{2003} \u{3000}",
        ] {
            let respaced = format!("{sep}{}{sep}", line.replace(' ', sep));
            assert_eq!(
                UplinkEvent::decode(respaced.as_bytes()),
                Ok(event()),
                "{sep:?}"
            );
            assert_eq!(decode_v0(respaced.as_bytes()), Ok(event()), "{sep:?}");
        }
        // U+001C is not whitespace to `split_whitespace`, nor here.
        let glued = line.replace(' ', "\u{1c}");
        assert_eq!(
            UplinkEvent::decode(glued.as_bytes()),
            decode_v0(glued.as_bytes())
        );
        assert!(UplinkEvent::decode(glued.as_bytes()).is_err());
    }

    #[test]
    fn hex_payload_takes_what_the_std_parser_took() {
        // `u8::from_str_radix` accepts a `+` for the first digit of a pair
        // and either case; it refuses `-`, a lone sign and non-digits.
        for s in ["+f0A", "+a+b", "Ff", "-1", "++", "+", "0+", "é0", "0é"] {
            assert_eq!(hex_decode(s), hex_decode_v0(s), "{s:?}");
        }
        assert_eq!(hex_decode("+f0A"), Ok(vec![0x0f, 0x0a]));
    }

    proptest! {
        #[test]
        fn fixed1_matches_fmt_on_arbitrary_bits(bits in vec(any::<u64>(), 512..513)) {
            for v in bits.into_iter().map(f64::from_bits) {
                prop_assert_eq!(fixed1(v), format!("{v:.1}"), "bits {:#x}", v.to_bits());
            }
        }

        #[test]
        fn fixed1_matches_fmt_on_signal_range(vs in vec(-150.0..30.0f64, 512..513)) {
            for v in vs {
                prop_assert_eq!(fixed1(v), format!("{v:.1}"), "{v:e}");
            }
        }

        /// The tenths' ties `k/20`, exact and a few ulps to either side,
        /// both signs: where the rounding direction is decided.
        #[test]
        fn fixed1_matches_fmt_around_ties(ks in vec(0u64..3_000_000_000, 128..129)) {
            for k in ks {
                let tie = k as f64 / 20.0;
                for ulps in 0..4u64 {
                    for bits in [tie.to_bits() + ulps, tie.to_bits().saturating_sub(ulps)] {
                        for v in [f64::from_bits(bits), -f64::from_bits(bits)] {
                            prop_assert_eq!(fixed1(v), format!("{v:.1}"), "{v:e}");
                        }
                    }
                }
            }
        }

        /// Every value parser against the std parser it stands in for: on
        /// what the writers print and on near-miss strings, the same value
        /// bit for bit or both refusals.
        #[test]
        fn value_parsers_match_std(
            seed in any::<u64>(),
            soup in vec("[0-9a-fA-F+.eEinfNaty_ -]{0,22}", 64..65),
        ) {
            let mut words = Words(seed);
            let mut strings = soup;
            for _ in 0..64 {
                let (v, n) = (words.float(), words.edgy());
                strings.extend([
                    format!("{v:.1}"),
                    format!("{v}"),
                    format!("{v:e}"),
                    format!("{:.2}", v),
                    format!("+{:.1}", v.abs()),
                    format!("{n}"),
                    format!("{}", n as i64),
                    format!("{n:x}"),
                    format!("{n:016X}"),
                    format!("0{n}"),
                    format!("+{}", n % 70_000),
                    format!("-{}", n % 300),
                ]);
            }
            for s in &strings {
                let b = s.as_bytes();
                prop_assert_eq!(
                    parse_f64(b).map(f64::to_bits),
                    s.parse::<f64>().ok().map(f64::to_bits),
                    "f64 {:?}", s
                );
                prop_assert_eq!(parse_i64(b), s.parse::<i64>().ok(), "i64 {:?}", s);
                prop_assert_eq!(parse_unsigned::<u8>(b), s.parse::<u8>().ok(), "u8 {:?}", s);
                prop_assert_eq!(parse_unsigned::<u16>(b), s.parse::<u16>().ok(), "u16 {:?}", s);
                prop_assert_eq!(parse_unsigned::<usize>(b), s.parse::<usize>().ok(), "usize {:?}", s);
                prop_assert_eq!(parse_hex_u64(b), u64::from_str_radix(s, 16).ok(), "hex {:?}", s);
                prop_assert_eq!(hex_decode(s), hex_decode_v0(s), "hex bytes {:?}", s);
            }
        }

        #[test]
        fn encode_matches_the_format_encoder(seed in any::<u64>()) {
            let mut words = Words(seed);
            for _ in 0..64 {
                let mut e = words.event();
                prop_assert_eq!(e.encode(), encode_v0(&e), "{:?}", e);
                prop_assert_eq!(
                    e.topic().as_str(),
                    format!("ctt/{}/devices/{}/up", topic_level(&e.city), e.device.0)
                );
                // Whitespace in the city: the old line did not decode; the
                // line is now the one the slugged city always made.
                e.city = format!("{} {}", e.city, e.city);
                let mut slugged = e.clone();
                slugged.city = city_slug(&e.city);
                prop_assert_eq!(e.encode(), encode_v0(&slugged), "{:?}", e);
            }
        }

        #[test]
        fn decode_inverts_encode(seed in any::<u64>()) {
            let mut words = Words(seed);
            for _ in 0..64 {
                let mut e = words.event();
                // What survives the line is the float `{:.1}` prints.
                for v in [&mut e.rssi_dbm, &mut e.snr_db] {
                    *v = format!("{:.1}", *v).parse().unwrap();
                }
                let decoded = UplinkEvent::decode(&e.encode());
                prop_assert_eq!(exact(decoded), exact(Ok(e)));
            }
        }

        #[test]
        fn decode_matches_the_split_and_parse_decoder_on_valid_and_damaged_lines(
            seed in any::<u64>(),
        ) {
            let mut words = Words(seed);
            for _ in 0..16 {
                let line = encode_v0(&words.event());
                check_decode(&line)?;
                // Single-byte damage: replaced, inserted, removed.
                for _ in 0..12 {
                    let mut damaged = line.clone();
                    let at = words.below(damaged.len());
                    match words.below(3) {
                        0 => damaged[at] = words.byte(),
                        1 => damaged.insert(at, words.byte()),
                        _ => {
                            damaged.remove(at);
                        }
                    }
                    check_decode(&damaged)?;
                }
                check_decode(&line[..words.below(line.len())])?;
                // Fields shuffled, dropped, repeated (the last one wins)
                // and repeated with another line's value.
                let other = encode_v0(&words.event());
                let mut fields: Vec<&[u8]> = line.split(|b| *b == b' ').collect();
                let spare: Vec<&[u8]> = other.split(|b| *b == b' ').collect();
                for _ in 0..6 {
                    let (i, j) = (words.below(fields.len()), words.below(fields.len()));
                    match words.below(4) {
                        0 => fields.swap(i, j),
                        1 => fields.insert(i, fields[j]),
                        2 => fields.insert(i, spare[words.below(spare.len())]),
                        _ => {
                            fields.remove(i);
                        }
                    }
                    check_decode(&fields.join(&b' '))?;
                    if fields.is_empty() {
                        break;
                    }
                }
            }
        }

        #[test]
        fn decode_matches_the_split_and_parse_decoder_on_arbitrary_bytes(
            raw in vec(any::<u8>(), 0..200),
            seed in any::<u64>(),
        ) {
            check_decode(&raw)?;
            // Arbitrary bytes rarely get past the marker: also a line of
            // grammar-shaped noise behind a valid one.
            let mut words = Words(seed);
            let mut line = b"v1".to_vec();
            for _ in 0..words.below(16) {
                line.push(b' ');
                line.extend_from_slice(words.pick(&FIELDS).as_bytes());
                line.push(b'=');
                for _ in 0..words.below(20) {
                    line.push(words.byte());
                }
            }
            check_decode(&line)?;
        }
    }
}
