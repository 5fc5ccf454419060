//! Compact binary uplink payload codec.
//!
//! LoRaWAN payloads are tiny (51 bytes at SF12 in EU868), so real
//! deployments pack readings into scaled fixed-point fields rather than
//! JSON. This codec encodes one [`SensorReading`] into 18 bytes:
//!
//! | bytes | field       | encoding                              |
//! |-------|-------------|---------------------------------------|
//! | 0     | version     | `0x01`                                |
//! | 1–2   | CO2         | u16, ppm × 10 (0–6553.5 ppm)          |
//! | 3–4   | NO2         | u16, ppb × 10 (0–6553.5 ppb)          |
//! | 5–6   | PM2.5       | u16, µg/m³ × 10                       |
//! | 7–8   | PM10        | u16, µg/m³ × 10                       |
//! | 9–10  | temperature | i16, °C × 100 (−327 to +327 °C)       |
//! | 11–12 | pressure    | u16, (hPa − 500) × 10 (500–7053 hPa)  |
//! | 13    | humidity    | u8, % × 2 (0–127.5 %)                 |
//! | 14    | battery     | u8, % × 2 (0–127.5 %)                 |
//! | 15–17 | reserved    | CRC-16/CCITT over bytes 0–14 + pad    |
//!
//! Values outside the representable range are clamped on encode (a real
//! firmware does exactly this); decode never fails on clamped values.

use crate::ids::DevEui;
use crate::measurement::SensorReading;
use crate::time::Timestamp;
use std::fmt;

/// Payload format version emitted by this codec.
pub const PAYLOAD_VERSION: u8 = 0x01;
/// Encoded payload length in bytes.
pub const PAYLOAD_LEN: usize = 18;

/// Errors from [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PayloadError {
    /// Payload has the wrong length.
    BadLength(usize),
    /// Unknown version byte.
    BadVersion(u8),
    /// CRC mismatch (corrupted frame).
    BadCrc {
        /// CRC computed over the received bytes.
        computed: u16,
        /// CRC carried in the frame.
        stored: u16,
    },
}

impl fmt::Display for PayloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PayloadError::BadLength(n) => write!(f, "payload length {n}, expected {PAYLOAD_LEN}"),
            PayloadError::BadVersion(v) => write!(f, "unknown payload version 0x{v:02X}"),
            PayloadError::BadCrc { computed, stored } => {
                write!(
                    f,
                    "payload CRC mismatch: computed {computed:04X}, stored {stored:04X}"
                )
            }
        }
    }
}

impl std::error::Error for PayloadError {}

/// CRC-16/CCITT-FALSE.
pub fn crc16_ccitt(data: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &b in data {
        crc ^= u16::from(b) << 8;
        for _ in 0..8 {
            if crc & 0x8000 != 0 {
                crc = (crc << 1) ^ 0x1021;
            } else {
                crc <<= 1;
            }
        }
    }
    crc
}

fn clamp_u16(v: f64) -> u16 {
    v.round().clamp(0.0, 65535.0) as u16
}

fn clamp_i16(v: f64) -> i16 {
    v.round().clamp(-32768.0, 32767.0) as i16
}

fn clamp_u8(v: f64) -> u8 {
    v.round().clamp(0.0, 255.0) as u8
}

/// Encode a reading into the wire payload. Timestamp and device are carried
/// by the LoRaWAN frame metadata, not the application payload.
pub fn encode(r: &SensorReading) -> [u8; PAYLOAD_LEN] {
    let mut out = [0u8; PAYLOAD_LEN];
    out[0] = PAYLOAD_VERSION;
    out[1..3].copy_from_slice(&clamp_u16(r.co2_ppm * 10.0).to_be_bytes());
    out[3..5].copy_from_slice(&clamp_u16(r.no2_ppb * 10.0).to_be_bytes());
    out[5..7].copy_from_slice(&clamp_u16(r.pm25_ug_m3 * 10.0).to_be_bytes());
    out[7..9].copy_from_slice(&clamp_u16(r.pm10_ug_m3 * 10.0).to_be_bytes());
    out[9..11].copy_from_slice(&clamp_i16(r.temperature_c * 100.0).to_be_bytes());
    out[11..13].copy_from_slice(&clamp_u16((r.pressure_hpa - 500.0) * 10.0).to_be_bytes());
    out[13] = clamp_u8(r.humidity_pct * 2.0);
    out[14] = clamp_u8(r.battery_pct * 2.0);
    let crc = crc16_ccitt(&out[0..15]);
    out[15..17].copy_from_slice(&crc.to_be_bytes());
    out[17] = 0; // pad/reserved
    out
}

/// Decode a wire payload received at `time` from `device`.
pub fn decode(
    bytes: &[u8],
    device: DevEui,
    time: Timestamp,
) -> Result<SensorReading, PayloadError> {
    // Slice patterns instead of indexing: the length check and the field
    // layout are one statement, and nothing here can panic.
    let Some((body, &[crc_hi, crc_lo, _reserved])) = bytes.split_last_chunk::<3>() else {
        return Err(PayloadError::BadLength(bytes.len()));
    };
    let &[version, c0, c1, n0, n1, f0, f1, m0, m1, t0, t1, p0, p1, humidity, battery] = body else {
        return Err(PayloadError::BadLength(bytes.len()));
    };
    if version != PAYLOAD_VERSION {
        return Err(PayloadError::BadVersion(version));
    }
    let stored = u16::from_be_bytes([crc_hi, crc_lo]);
    let computed = crc16_ccitt(body);
    if stored != computed {
        return Err(PayloadError::BadCrc { computed, stored });
    }
    let unsigned = |hi: u8, lo: u8| f64::from(u16::from_be_bytes([hi, lo]));
    Ok(SensorReading {
        device,
        time,
        co2_ppm: unsigned(c0, c1) / 10.0,
        no2_ppb: unsigned(n0, n1) / 10.0,
        pm25_ug_m3: unsigned(f0, f1) / 10.0,
        pm10_ug_m3: unsigned(m0, m1) / 10.0,
        temperature_c: f64::from(i16::from_be_bytes([t0, t1])) / 100.0,
        pressure_hpa: unsigned(p0, p1) / 10.0 + 500.0,
        humidity_pct: f64::from(humidity) / 2.0,
        battery_pct: f64::from(battery) / 2.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> SensorReading {
        SensorReading {
            device: DevEui::ctt(7),
            time: Timestamp::from_civil(2017, 4, 3, 8, 5, 0),
            co2_ppm: 412.3,
            no2_ppb: 23.7,
            pm25_ug_m3: 8.4,
            pm10_ug_m3: 17.9,
            temperature_c: -4.25,
            pressure_hpa: 1002.7,
            humidity_pct: 81.5,
            battery_pct: 64.0,
        }
    }

    #[test]
    fn roundtrip_within_quantization() {
        let r = fixture();
        let enc = encode(&r);
        let dec = decode(&enc, r.device, r.time).unwrap();
        assert!((dec.co2_ppm - r.co2_ppm).abs() <= 0.05);
        assert!((dec.no2_ppb - r.no2_ppb).abs() <= 0.05);
        assert!((dec.pm25_ug_m3 - r.pm25_ug_m3).abs() <= 0.05);
        assert!((dec.pm10_ug_m3 - r.pm10_ug_m3).abs() <= 0.05);
        assert!((dec.temperature_c - r.temperature_c).abs() <= 0.005);
        assert!((dec.pressure_hpa - r.pressure_hpa).abs() <= 0.05);
        assert!((dec.humidity_pct - r.humidity_pct).abs() <= 0.25);
        assert!((dec.battery_pct - r.battery_pct).abs() <= 0.25);
        assert_eq!(dec.device, r.device);
        assert_eq!(dec.time, r.time);
    }

    #[test]
    fn payload_is_18_bytes() {
        assert_eq!(encode(&fixture()).len(), PAYLOAD_LEN);
    }

    #[test]
    fn negative_temperature_survives() {
        let mut r = fixture();
        r.temperature_c = -27.13;
        let dec = decode(&encode(&r), r.device, r.time).unwrap();
        assert!((dec.temperature_c + 27.13).abs() < 0.005);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let mut r = fixture();
        r.co2_ppm = 99_999.0; // beyond u16 range after scaling
        r.humidity_pct = 250.0;
        r.pressure_hpa = 200.0; // below the 500 hPa floor
        let dec = decode(&encode(&r), r.device, r.time).unwrap();
        assert!((dec.co2_ppm - 6553.5).abs() < 0.01);
        assert!((dec.humidity_pct - 127.5).abs() < 0.01);
        assert!((dec.pressure_hpa - 500.0).abs() < 0.01);
    }

    #[test]
    fn decode_rejects_bad_length() {
        assert_eq!(
            decode(&[0u8; 5], DevEui::ctt(1), Timestamp(0)),
            Err(PayloadError::BadLength(5))
        );
    }

    #[test]
    fn decode_rejects_bad_version() {
        let mut enc = encode(&fixture());
        enc[0] = 0x7F;
        match decode(&enc, DevEui::ctt(1), Timestamp(0)) {
            Err(PayloadError::BadVersion(0x7F)) => {}
            other => panic!("expected BadVersion, got {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let mut enc = encode(&fixture());
        enc[4] ^= 0xFF; // flip data bits
        match decode(&enc, DevEui::ctt(1), Timestamp(0)) {
            Err(PayloadError::BadCrc { .. }) => {}
            other => panic!("expected BadCrc, got {other:?}"),
        }
    }

    #[test]
    fn crc16_known_vector() {
        // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
        assert_eq!(crc16_ccitt(b"123456789"), 0x29B1);
        assert_eq!(crc16_ccitt(b""), 0xFFFF);
    }

    #[test]
    fn error_display_messages() {
        assert!(PayloadError::BadLength(5).to_string().contains("5"));
        assert!(PayloadError::BadVersion(0x22).to_string().contains("0x22"));
        let e = PayloadError::BadCrc {
            computed: 0x1234,
            stored: 0x5678,
        };
        assert!(e.to_string().contains("1234"));
    }
}
