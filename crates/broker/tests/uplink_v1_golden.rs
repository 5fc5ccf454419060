//! Byte-for-byte golden of the v1 uplink wire line.
//!
//! `tests/goldens/uplink_v1.txt` holds one encoded line per event below.
//! The test encodes the events and compares the bytes with the file, then
//! decodes every golden line and re-encodes it to the same bytes. Bytes,
//! not events, are compared: `encode` slugs a city holding whitespace and
//! writes RSSI and SNR to 0.1 dB, so a decoded event need not equal the
//! one encoded. Re-bless with `GOLDEN_BLESS=1 cargo test -p ctt-broker
//! --test uplink_v1_golden` only for a reviewed change of the wire format.

use std::fs;
use std::path::PathBuf;

use ctt_broker::UplinkEvent;
use ctt_core::ids::{DevEui, GatewayId};
use ctt_core::time::Timestamp;

/// A plain Trondheim uplink, the base every case edits.
fn base() -> UplinkEvent {
    UplinkEvent {
        city: "trondheim".to_string(),
        device: DevEui::ctt(7),
        fcnt: 42,
        port: 1,
        time: Timestamp(1_483_228_800),
        gateway: GatewayId::ctt(2),
        rssi_dbm: -97.25,
        snr_db: 6.75,
        gateway_count: 2,
        payload: vec![0x01, 0x9c, 0x00, 0x2a, 0xff],
    }
}

/// The golden cases: hostile city names (the codec oracle's list), an
/// empty and a long payload, and extreme counters and signal values.
fn events() -> Vec<UplinkEvent> {
    let city = |name: &str| UplinkEvent {
        city: name.to_string(),
        ..base()
    };
    vec![
        base(),
        city("Ålesund"),
        city("a=b"),
        city("+#/"),
        city("city=x=y"),
        city("v1"),
        city("Sankt Petersburg"),
        city(""),
        UplinkEvent {
            payload: Vec::new(),
            ..base()
        },
        UplinkEvent {
            payload: (0..=255).collect(),
            ..base()
        },
        UplinkEvent {
            device: DevEui(u64::MAX),
            fcnt: u16::MAX,
            port: u8::MAX,
            time: Timestamp(-1),
            gateway: GatewayId(0),
            rssi_dbm: -140.05,
            snr_db: -20.04,
            gateway_count: usize::MAX,
            ..base()
        },
        UplinkEvent {
            fcnt: 0,
            port: 0,
            time: Timestamp(i64::MAX),
            rssi_dbm: -0.04,
            snr_db: 1e12,
            gateway_count: 0,
            ..base()
        },
    ]
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/uplink_v1.txt")
}

#[test]
fn encoded_lines_match_the_golden_and_round_trip() {
    let mut encoded = Vec::new();
    for event in events() {
        encoded.extend(event.encode());
        encoded.push(b'\n');
    }
    let path = golden_path();
    if std::env::var("GOLDEN_BLESS").is_ok() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir goldens");
        fs::write(&path, &encoded).expect("write golden");
        return;
    }
    let golden = fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with GOLDEN_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        String::from_utf8_lossy(&encoded),
        String::from_utf8_lossy(&golden),
        "the v1 wire line moved"
    );
    assert_eq!(encoded, golden);

    let lines: Vec<&[u8]> = golden
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();
    assert_eq!(lines.len(), events().len());
    for line in lines {
        let event = UplinkEvent::decode(line).unwrap_or_else(|e| {
            panic!("{e}: {}", String::from_utf8_lossy(line));
        });
        assert_eq!(
            event.encode(),
            line,
            "re-encoding {}",
            String::from_utf8_lossy(line)
        );
    }
}
