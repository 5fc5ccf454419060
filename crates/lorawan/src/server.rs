//! Network-server functions: frame-counter tracking, duplicate filtering,
//! per-device ADR, and delivery records for downstream consumers.
//!
//! In the real deployment this is The Things Network's cloud backend; the
//! dataport monitors it as a component that can itself fail (§2.3).

use crate::adr::{AdrCommand, AdrEngine};
use crate::region::DataRate;
use crate::sim::DeliveredUplink;
use ctt_core::ids::{DevEui, GatewayId};
use ctt_core::time::Timestamp;
use ctt_core::units::Dbm;
use std::collections::BTreeMap;

/// Per-device state on the network server.
#[derive(Debug, Clone)]
struct DeviceState {
    last_fcnt: Option<u16>,
    adr: AdrEngine,
    data_rate: DataRate,
    tx_power_dbm: f64,
}

impl Default for DeviceState {
    fn default() -> Self {
        DeviceState {
            last_fcnt: None,
            adr: AdrEngine::new(),
            data_rate: DataRate(0),
            tx_power_dbm: 14.0,
        }
    }
}

/// An application-layer uplink record handed to the MQTT bridge, in the
/// shape of a TTN uplink message (device, counters, payload, gateway
/// metadata).
#[derive(Debug, Clone)]
pub struct UplinkRecord {
    /// Device identity.
    pub device: DevEui,
    /// Frame counter.
    pub fcnt: u16,
    /// Application port.
    pub port: u8,
    /// Application payload bytes.
    pub payload: Vec<u8>,
    /// Reception time.
    pub time: Timestamp,
    /// Gateway that provided the strongest copy.
    pub via_gateway: GatewayId,
    /// RSSI at that gateway, dBm.
    pub rssi_dbm: f64,
    /// SNR at that gateway, dB.
    pub snr_db: f64,
    /// Number of gateways that heard the frame.
    pub gateway_count: usize,
}

/// The network server.
#[derive(Debug, Default)]
pub struct NetworkServer {
    devices: BTreeMap<DevEui, DeviceState>,
}

impl NetworkServer {
    /// Fresh server.
    pub fn new() -> Self {
        NetworkServer::default()
    }

    /// Ingest one delivered uplink; returns the application record and an
    /// optional ADR command for the device, or `None` for duplicates.
    pub fn ingest(
        &mut self,
        delivery: &DeliveredUplink,
    ) -> Option<(UplinkRecord, Option<AdrCommand>)> {
        let dev = delivery.frame.dev_eui;
        let st = self.devices.entry(dev).or_default();
        // Duplicate / replay filtering on the frame counter. Accept a
        // wrap-around (fcnt much smaller than last) as a device reset.
        if let Some(last) = st.last_fcnt {
            let fcnt = delivery.frame.fcnt;
            if fcnt == last {
                return None;
            }
            if fcnt < last && last.wrapping_sub(fcnt) < 1000 {
                // Small regression: stale duplicate.
                return None;
            }
            // else: a gap (frames lost on air) or a counter reset, accept.
        }
        st.last_fcnt = Some(delivery.frame.fcnt);
        let best = delivery.best();
        st.adr.record_snr(best.snr_db);
        let adr_cmd = st.adr.recommend(st.data_rate, Dbm(st.tx_power_dbm));
        if let Some(cmd) = adr_cmd {
            st.data_rate = cmd.data_rate;
            st.tx_power_dbm = cmd.tx_power_dbm;
        }
        let record = UplinkRecord {
            device: dev,
            fcnt: delivery.frame.fcnt,
            port: delivery.frame.port,
            payload: delivery.frame.payload.clone(),
            time: delivery.time,
            via_gateway: best.gateway,
            rssi_dbm: best.rssi_dbm,
            snr_db: best.snr_db,
            gateway_count: delivery.receptions.len(),
        };
        Some((record, adr_cmd))
    }

    /// All devices seen, in EUI order (BTreeMap keys are already sorted).
    pub fn devices(&self) -> Vec<DevEui> {
        self.devices.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::UplinkFrame;
    use crate::region::SpreadingFactor;
    use crate::sim::Reception;

    fn delivery(dev: u32, fcnt: u16, snr: f64) -> DeliveredUplink {
        DeliveredUplink {
            frame: UplinkFrame::new(DevEui::ctt(dev), fcnt, 2, vec![9, 9]),
            time: Timestamp(i64::from(fcnt) * 300),
            sf: SpreadingFactor::Sf9,
            airtime_s: 0.2,
            receptions: vec![Reception {
                gateway: GatewayId::ctt(1),
                rssi_dbm: -100.0,
                snr_db: snr,
            }],
        }
    }

    #[test]
    fn ingest_produces_record() {
        let mut ns = NetworkServer::new();
        let (rec, adr) = ns.ingest(&delivery(1, 0, 5.0)).unwrap();
        assert_eq!(rec.device, DevEui::ctt(1));
        assert_eq!(rec.fcnt, 0);
        assert_eq!(rec.via_gateway, GatewayId::ctt(1));
        assert_eq!(rec.gateway_count, 1);
        assert!(adr.is_none(), "no ADR before history fills");
    }

    #[test]
    fn duplicates_dropped() {
        let mut ns = NetworkServer::new();
        assert!(ns.ingest(&delivery(1, 5, 5.0)).is_some());
        assert!(ns.ingest(&delivery(1, 5, 5.0)).is_none());
        assert!(ns.ingest(&delivery(1, 4, 5.0)).is_none(), "stale fcnt");
        assert!(
            ns.ingest(&delivery(1, 9, 5.0)).is_some(),
            "a gap is accepted"
        );
    }

    #[test]
    fn counter_reset_accepted() {
        let mut ns = NetworkServer::new();
        ns.ingest(&delivery(1, 60_000, 5.0));
        // Device rebooted and restarted at 0: large regression → accept.
        assert!(ns.ingest(&delivery(1, 0, 5.0)).is_some());
    }

    #[test]
    fn adr_command_issued_after_history() {
        let mut ns = NetworkServer::new();
        let mut last_cmd = None;
        for i in 0..25u16 {
            if let Some((_, cmd)) = ns.ingest(&delivery(1, i, 10.0)) {
                if cmd.is_some() {
                    last_cmd = cmd;
                }
            }
        }
        let cmd = last_cmd.expect("strong link should trigger ADR");
        assert!(cmd.data_rate > DataRate(0));
        assert_eq!(ns.devices[&DevEui::ctt(1)].data_rate, cmd.data_rate);
    }

    #[test]
    fn devices_listed_sorted() {
        let mut ns = NetworkServer::new();
        ns.ingest(&delivery(3, 0, 1.0));
        ns.ingest(&delivery(1, 0, 1.0));
        assert_eq!(ns.devices(), vec![DevEui::ctt(1), DevEui::ctt(3)]);
    }
}
