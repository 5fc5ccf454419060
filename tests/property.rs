//! Property-based tests over the core data structures and codecs.

use ctt::prelude::*;
use ctt_broker::{Topic, TopicFilter};
use ctt_core::payload;
use ctt_core::time::Span as CSpan;
use ctt_lorawan::UplinkFrame;
use ctt_tsdb::CompressedChunk;
use proptest::prelude::*;

proptest! {
    /// Civil-calendar conversion roundtrips for any representable instant
    /// within ±10000 years.
    #[test]
    fn timestamp_civil_roundtrip(secs in -300_000_000_000i64..300_000_000_000i64) {
        let t = Timestamp(secs);
        let c = t.civil();
        prop_assert_eq!(c.timestamp(), t);
        prop_assert!((1..=12).contains(&c.month));
        prop_assert!((1..=31).contains(&c.day));
    }

    /// Alignment is idempotent, ordered, and within one interval.
    #[test]
    fn align_invariants(secs in -1_000_000_000i64..1_000_000_000i64, step in 1i64..100_000) {
        let t = Timestamp(secs);
        let s = CSpan::seconds(step);
        let down = t.align_down(s);
        let up = t.align_up(s);
        prop_assert!(down <= t && t <= up);
        prop_assert!((t - down).as_seconds() < step);
        prop_assert!((up - t).as_seconds() < step);
        prop_assert_eq!(down.align_down(s), down);
        prop_assert_eq!(up.align_up(s), up);
    }

    /// The 18-byte payload codec roundtrips any in-range reading within
    /// quantization error.
    #[test]
    fn payload_roundtrip(
        co2 in 0.0..6000.0f64,
        no2 in 0.0..6000.0f64,
        pm25 in 0.0..6000.0f64,
        pm10 in 0.0..6000.0f64,
        temp in -300.0..300.0f64,
        press in 510.0..7000.0f64,
        rh in 0.0..127.0f64,
        batt in 0.0..100.0f64,
    ) {
        let r = SensorReading {
            device: DevEui::ctt(1),
            time: Timestamp(0),
            co2_ppm: co2,
            no2_ppb: no2,
            pm25_ug_m3: pm25,
            pm10_ug_m3: pm10,
            temperature_c: temp,
            pressure_hpa: press,
            humidity_pct: rh,
            battery_pct: batt,
        };
        let dec = payload::decode(&payload::encode(&r), r.device, r.time).unwrap();
        prop_assert!((dec.co2_ppm - co2).abs() <= 0.05 + 1e-9);
        prop_assert!((dec.temperature_c - temp).abs() <= 0.005 + 1e-9);
        prop_assert!((dec.pressure_hpa - press).abs() <= 0.05 + 1e-9);
        prop_assert!((dec.humidity_pct - rh).abs() <= 0.25 + 1e-9);
        prop_assert!((dec.battery_pct - batt).abs() <= 0.25 + 1e-9);
    }

    /// Any single-byte corruption of a payload is detected by the CRC.
    #[test]
    fn payload_corruption_detected(idx in 0usize..18, flip in 1u8..=255) {
        let r = SensorReading::background(DevEui::ctt(2), Timestamp(1000));
        let mut bytes = payload::encode(&r);
        bytes[idx] ^= flip;
        // The final pad byte is not covered by the CRC; corruption there is
        // harmless by construction.
        if idx != 17 {
            prop_assert!(payload::decode(&bytes, r.device, r.time).is_err());
        }
    }

    /// LoRaWAN frames roundtrip any payload and reject any corruption.
    #[test]
    fn frame_roundtrip(dev in any::<u64>(), fcnt in any::<u16>(), port in any::<u8>(),
                       body in proptest::collection::vec(any::<u8>(), 0..64)) {
        let f = UplinkFrame::new(DevEui(dev), fcnt, port, body);
        let bytes = f.encode();
        prop_assert_eq!(UplinkFrame::decode(&bytes).unwrap(), f);
    }

    /// Gorilla compression is lossless for sorted timestamp/value streams.
    #[test]
    fn gorilla_lossless(
        mut deltas in proptest::collection::vec(0i64..100_000, 1..200),
        values in proptest::collection::vec(-1e12f64..1e12, 1..200),
    ) {
        let n = deltas.len().min(values.len());
        deltas.truncate(n);
        let mut t = 1_483_228_800i64;
        let mut pts = Vec::new();
        for (d, v) in deltas.iter().zip(&values) {
            t += d;
            pts.push((Timestamp(t), *v));
        }
        let decoded = CompressedChunk::encode(&pts).decode();
        prop_assert_eq!(decoded, Ok(pts));
    }

    /// Topic filters: `#` matches everything under the prefix; an exact
    /// filter matches exactly itself.
    #[test]
    fn topic_matching_invariants(levels in proptest::collection::vec("[a-z0-9]{1,6}", 1..6)) {
        let name = levels.join("/");
        let topic = Topic::new(name.clone()).unwrap();
        // Exact filter matches.
        prop_assert!(TopicFilter::new(name.clone()).unwrap().matches(&topic));
        // Global wildcard matches.
        prop_assert!(TopicFilter::new("#").unwrap().matches(&topic));
        // Prefix + /# matches.
        if levels.len() > 1 {
            let prefix = levels[..levels.len() - 1].join("/");
            let sub = format!("{prefix}/#");
            prop_assert!(TopicFilter::new(sub).unwrap().matches(&topic));
            // Replacing any level with + still matches.
            for i in 0..levels.len() {
                let mut l2 = levels.clone();
                l2[i] = "+".to_string();
                prop_assert!(TopicFilter::new(l2.join("/")).unwrap().matches(&topic));
            }
        }
        // A different final level does not match.
        let mut other = levels.clone();
        let last = other.last_mut().unwrap();
        last.push('x');
        prop_assert!(!TopicFilter::new(other.join("/")).unwrap().matches(&topic));
    }

    /// CAQI sub-indices are monotone and non-negative for every pollutant.
    #[test]
    fn caqi_monotone(c1 in 0.0..2000.0f64, c2 in 0.0..2000.0f64) {
        use ctt_core::aqi::sub_index;
        for p in [Pollutant::No2, Pollutant::Pm10, Pollutant::Pm25] {
            let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
            let i_lo = sub_index(p, lo).unwrap();
            let i_hi = sub_index(p, hi).unwrap();
            prop_assert!(i_lo >= 0.0);
            prop_assert!(i_lo <= i_hi + 1e-9, "{:?}: {} > {}", p, i_lo, i_hi);
        }
    }

    /// LoRa airtime is positive, monotone in payload length, and monotone
    /// in spreading factor.
    #[test]
    fn airtime_monotonicity(len in 0usize..200) {
        use ctt_lorawan::{time_on_air_s, AirtimeParams, SpreadingFactor};
        let mut prev_sf = 0.0;
        for sf in SpreadingFactor::ALL {
            let t = time_on_air_s(&AirtimeParams::lorawan_uplink(sf, len));
            prop_assert!(t > 0.0);
            prop_assert!(t > prev_sf, "{sf} not slower than previous");
            prev_sf = t;
            let t_longer = time_on_air_s(&AirtimeParams::lorawan_uplink(sf, len + 16));
            prop_assert!(t_longer >= t);
        }
    }

    /// Resampling never invents points outside the requested window and
    /// output is strictly time-ordered.
    #[test]
    fn resample_window_bounds(
        pts in proptest::collection::vec((0i64..100_000, -100.0..100.0f64), 0..50),
        start in 0i64..50_000,
        len in 1i64..50_000,
        step in 10i64..5_000,
    ) {
        use ctt::integration::{resample, ResampleMethod};
        let series = Series::from_points(
            pts.into_iter().map(|(t, v)| (Timestamp(t), v)).collect(),
        );
        for method in [ResampleMethod::BucketMean, ResampleMethod::Linear, ResampleMethod::Locf] {
            let out = resample(&series, Timestamp(start), Timestamp(start + len), CSpan::seconds(step), method);
            for w in out.points.windows(2) {
                prop_assert!(w[0].0 < w[1].0);
            }
            for &(t, v) in &out.points {
                prop_assert!(t < Timestamp(start + len));
                prop_assert!(v.is_finite());
                // Grid instants are epoch-aligned multiples of the step.
                prop_assert_eq!(t.as_seconds().rem_euclid(step), 0);
            }
        }
    }

    /// Aggregators: min ≤ avg/median ≤ max; sum = avg·n.
    #[test]
    fn aggregator_order(values in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        use ctt_tsdb::Aggregator;
        let min = Aggregator::Min.apply(&values);
        let max = Aggregator::Max.apply(&values);
        let avg = Aggregator::Avg.apply(&values);
        let med = Aggregator::Median.apply(&values);
        let sum = Aggregator::Sum.apply(&values);
        prop_assert!(min <= avg + 1e-6 && avg <= max + 1e-6);
        prop_assert!(min <= med && med <= max);
        prop_assert!((sum - avg * values.len() as f64).abs() < 1e-3_f64.max(sum.abs() * 1e-9));
    }
}

/// A metric kind in a snapshot export line: the two valid ones, an
/// unknown one, an empty one, a stray quote.
fn json_kind() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        3 => Just("counter"),
        3 => Just("gauge"),
        1 => Just("histogram"),
        1 => Just(""),
        1 => Just("\""),
    ]
}

/// A number in a snapshot export line: in range, at the `u64`/`i64`
/// edges, one past them, past `i128`, a sign alone, nothing.
fn json_number() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("7"),
        Just("-1"),
        Just("18446744073709551615"),
        Just("18446744073709551616"),
        Just("-9223372036854775808"),
        Just("-9223372036854775809"),
        Just("340282366920938463463374607431768211456"),
        Just("-"),
        Just(""),
    ]
}

proptest! {
    /// Any bytes decode to a reading or a typed error, and only a
    /// payload-length frame decodes. A frame with the version byte and a
    /// matching CRC always decodes, whatever its fields hold.
    fn payloads_decode_or_refuse(
        bytes in proptest::collection::vec(any::<u8>(), 0..40),
        body in proptest::collection::vec(any::<u8>(), 15..16),
        pad in any::<u8>(),
    ) {
        let (dev, t) = (DevEui::ctt(3), Timestamp(0));
        if payload::decode(&bytes, dev, t).is_ok() {
            prop_assert_eq!(bytes.len(), payload::PAYLOAD_LEN);
        }
        let mut frame = body;
        frame[0] = payload::PAYLOAD_VERSION;
        frame.extend(payload::crc16_ccitt(&frame).to_be_bytes());
        frame.push(pad);
        prop_assert!(payload::decode(&frame, dev, t).is_ok());
    }

    /// Noise, lines of the export format built from edge pieces, and a
    /// real export cut short or with one byte replaced each parse or
    /// refuse; whatever parses renders back to text that parses to the
    /// same snapshot.
    fn snapshot_json_parses_or_refuses(
        noise in proptest::collection::vec(any::<u8>(), 0..200),
        at_s in json_number(),
        lines in proptest::collection::vec((json_kind(), json_number(), 0u8..8), 0..4),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let mut snap = ctt_obs::Snapshot::new(Timestamp(-5));
        snap.push_counter("a.count", u64::MAX);
        snap.push_gauge("b.level", i64::MIN);
        let real = snap.to_json().into_bytes();
        let at = at % (real.len() + 1);
        let mut replaced = real.clone();
        if let Some(b) = replaced.get_mut(at) {
            *b = byte;
        }
        let mut built = format!("{{\"at_s\": {at_s},\n\"metrics\": [\n");
        for (kind, value, draw) in &lines {
            // One line in eight has a name key but no name.
            let name = if *draw > 0 { "\"name\": \"m\", " } else { "\"name\", " };
            built += &format!("{{{name}\"kind\": \"{kind}\", \"value\": {value}}}\n");
        }
        for text in [&noise[..], built.as_bytes(), &real[..at], &replaced[..]] {
            if let Ok(parsed) = ctt_obs::Snapshot::from_json(&String::from_utf8_lossy(text)) {
                prop_assert_eq!(ctt_obs::Snapshot::from_json(&parsed.to_json()), Ok(parsed));
            }
        }
    }
}

/// The two hostile-input properties, each on its own thread under a
/// watchdog: a decoder that loops on crafted input fails here instead of
/// hanging the suite.
#[test]
fn hostile_bytes_never_panic_or_hang() {
    for property in [payloads_decode_or_refuse, snapshot_json_parses_or_refuses] {
        let (done, watchdog) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            property();
            let _ = done.send(());
        });
        if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
            watchdog.recv_timeout(std::time::Duration::from_secs(60))
        {
            panic!("a hostile input hung a decoder");
        }
        runner.join().expect("a hostile input panicked a decoder");
    }
}
