//! Digital twins for sensors and gateways.
//!
//! "Each device in the real world corresponds to a dedicated actor that
//! acts as its digital twin, which is a virtual model of the sensor or
//! gateway. It keeps track of its state in real-time" (§2.3). The twin
//! state machines live here as plain, deterministic structs; the dataport
//! hosts them inside supervised actors.
//!
//! The subtle part the paper calls out: "a single missing measurement is
//! expected occasionally. Based on the measurement frequency of individual
//! sensors, it takes some cycles to determine a failure with certainty. As
//! sensor nodes can adapt their frequency based on battery levels, a
//! complex model of the sensor node and its status is needed" — the twin
//! therefore tracks the node's *current* expected interval, derived from
//! the battery level it last reported, instead of a fixed timeout.

use ctt_core::battery::AdaptivePolicy;
use ctt_core::ids::{DevEui, GatewayId};
use ctt_core::time::{Span, Timestamp};
use ctt_core::units::Dbm;
use std::collections::BTreeMap;

/// Connectivity state of a sensor twin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TwinState {
    /// Registered but no uplink received yet.
    NeverSeen,
    /// Receiving data as expected.
    Online,
    /// Missed at least one expected uplink, not yet conclusive.
    Late,
    /// Missed enough cycles to be declared failed with certainty.
    Offline,
}

/// Events emitted on twin state transitions.
#[derive(Debug, Clone, PartialEq)]
pub enum TwinEvent {
    /// First uplink or recovery.
    WentOnline(DevEui),
    /// Missed one expected cycle.
    WentLate(DevEui),
    /// Declared offline after the configured number of cycles.
    WentOffline(DevEui),
    /// Battery dropped below the warning threshold.
    LowBattery(DevEui, f64),
    /// Battery recovered above the threshold.
    BatteryRecovered(DevEui, f64),
}

/// Configuration for sensor twins.
#[derive(Debug, Clone, Copy)]
pub struct SensorTwinConfig {
    /// The node's adaptive uplink policy (mirrors the firmware).
    pub policy: AdaptivePolicy,
    /// Grace factor before a node counts as late (× expected interval).
    pub late_factor: f64,
    /// Missed cycles needed to declare a failure "with certainty".
    pub offline_cycles: u32,
    /// Low-battery warning threshold, percent.
    pub low_battery_pct: f64,
}

impl Default for SensorTwinConfig {
    fn default() -> Self {
        SensorTwinConfig {
            policy: AdaptivePolicy::default(),
            late_factor: 1.5,
            offline_cycles: 3,
            low_battery_pct: 20.0,
        }
    }
}

/// Digital twin of one sensor node.
#[derive(Debug, Clone)]
pub struct SensorTwin {
    device: DevEui,
    config: SensorTwinConfig,
    state: TwinState,
    last_uplink: Option<Timestamp>,
    /// Expected interval given the last reported battery level.
    expected_interval: Span,
    last_battery: Option<f64>,
    low_battery_active: bool,
    /// Frames seen per gateway (for single-homing detection).
    gateway_counts: BTreeMap<GatewayId, u64>,
    last_gateway: Option<GatewayId>,
    last_rssi_dbm: Option<f64>,
    uplinks: u64,
}

impl SensorTwin {
    /// New twin for `device`.
    pub fn new(device: DevEui, config: SensorTwinConfig) -> Self {
        SensorTwin {
            device,
            config,
            state: TwinState::NeverSeen,
            last_uplink: None,
            expected_interval: config.policy.normal,
            last_battery: None,
            low_battery_active: false,
            gateway_counts: BTreeMap::new(),
            last_gateway: None,
            last_rssi_dbm: None,
            uplinks: 0,
        }
    }

    /// Forget everything observed, keeping identity and configuration:
    /// the twin as [`SensorTwin::new`] built it.
    pub(crate) fn reset(&mut self) {
        *self = SensorTwin::new(self.device, self.config);
    }

    /// Device identity.
    pub fn device(&self) -> DevEui {
        self.device
    }

    /// Current state.
    pub fn state(&self) -> TwinState {
        self.state
    }

    /// Last uplink time.
    pub fn last_uplink(&self) -> Option<Timestamp> {
        self.last_uplink
    }

    /// The interval the twin currently expects between uplinks.
    pub fn expected_interval(&self) -> Span {
        self.expected_interval
    }

    /// Last reported battery level.
    pub fn last_battery(&self) -> Option<f64> {
        self.last_battery
    }

    /// Gateway that carried the most recent uplink.
    pub fn last_gateway(&self) -> Option<GatewayId> {
        self.last_gateway
    }

    /// RSSI of the most recent uplink.
    pub fn last_rssi_dbm(&self) -> Option<f64> {
        self.last_rssi_dbm
    }

    /// Total uplinks seen.
    pub fn uplinks(&self) -> u64 {
        self.uplinks
    }

    /// True if ≥ `frac` of this twin's traffic came through `gw`.
    pub fn is_dependent_on(&self, gw: GatewayId, frac: f64) -> bool {
        let total: u64 = self.gateway_counts.values().sum();
        if total == 0 {
            return false;
        }
        let via = self.gateway_counts.get(&gw).copied().unwrap_or(0);
        via as f64 / total as f64 >= frac
    }

    /// Process an uplink observation.
    pub fn on_uplink(
        &mut self,
        time: Timestamp,
        battery_pct: f64,
        gateway: GatewayId,
        rssi_dbm: Dbm,
    ) -> Vec<TwinEvent> {
        let mut events = Vec::new();
        if self.state != TwinState::Online {
            events.push(TwinEvent::WentOnline(self.device));
        }
        self.state = TwinState::Online;
        self.last_uplink = Some(time);
        self.last_battery = Some(battery_pct);
        self.last_gateway = Some(gateway);
        self.last_rssi_dbm = Some(rssi_dbm.0);
        *self.gateway_counts.entry(gateway).or_insert(0) += 1;
        self.uplinks += 1;
        // Mirror the firmware's adaptive schedule.
        self.expected_interval = self.config.policy.interval_at(battery_pct);
        // Battery threshold with hysteresis (re-arm 5 points above).
        if battery_pct < self.config.low_battery_pct && !self.low_battery_active {
            self.low_battery_active = true;
            events.push(TwinEvent::LowBattery(self.device, battery_pct));
        } else if battery_pct > self.config.low_battery_pct + 5.0 && self.low_battery_active {
            self.low_battery_active = false;
            events.push(TwinEvent::BatteryRecovered(self.device, battery_pct));
        }
        events
    }

    /// Periodic check at wall-clock `now`.
    pub fn tick(&mut self, now: Timestamp) -> Vec<TwinEvent> {
        let Some(last) = self.last_uplink else {
            return Vec::new(); // NeverSeen: nothing to conclude yet
        };
        let silence = now - last;
        let expected = self.expected_interval.as_seconds() as f64;
        let mut events = Vec::new();
        let offline_after = expected * f64::from(self.config.offline_cycles);
        let late_after = expected * self.config.late_factor;
        if silence.as_seconds() as f64 >= offline_after {
            if self.state != TwinState::Offline {
                self.state = TwinState::Offline;
                events.push(TwinEvent::WentOffline(self.device));
            }
        } else if silence.as_seconds() as f64 >= late_after && self.state == TwinState::Online {
            self.state = TwinState::Late;
            events.push(TwinEvent::WentLate(self.device));
        }
        events
    }
}

/// State of a gateway twin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GatewayState {
    /// No traffic yet.
    NeverSeen,
    /// Forwarding traffic.
    Up,
    /// No traffic within the outage window.
    Down,
}

/// Events from gateway twins.
#[derive(Debug, Clone, PartialEq)]
pub enum GatewayEvent {
    /// Gateway carried traffic again.
    WentUp(GatewayId),
    /// Gateway silent past the outage window.
    WentDown(GatewayId),
}

/// Digital twin of one gateway.
#[derive(Debug, Clone)]
pub struct GatewayTwin {
    id: GatewayId,
    state: GatewayState,
    last_traffic: Option<Timestamp>,
    /// Silence longer than this declares an outage.
    outage_window: Span,
    frames: u64,
}

impl GatewayTwin {
    /// New twin. `outage_window` should exceed the slowest sensor cadence
    /// it serves (e.g. 3× the survival interval).
    pub fn new(id: GatewayId, outage_window: Span) -> Self {
        GatewayTwin {
            id,
            state: GatewayState::NeverSeen,
            last_traffic: None,
            outage_window,
            frames: 0,
        }
    }

    /// Gateway identity.
    pub fn id(&self) -> GatewayId {
        self.id
    }

    /// Current state.
    pub fn state(&self) -> GatewayState {
        self.state
    }

    /// Frames forwarded.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Last traffic time.
    pub fn last_traffic(&self) -> Option<Timestamp> {
        self.last_traffic
    }

    /// A frame passed through this gateway.
    pub fn on_traffic(&mut self, time: Timestamp) -> Vec<GatewayEvent> {
        let mut events = Vec::new();
        if self.state != GatewayState::Up {
            events.push(GatewayEvent::WentUp(self.id));
        }
        self.state = GatewayState::Up;
        self.last_traffic = Some(time);
        self.frames += 1;
        events
    }

    /// Periodic check.
    pub fn tick(&mut self, now: Timestamp) -> Vec<GatewayEvent> {
        let Some(last) = self.last_traffic else {
            return Vec::new();
        };
        if now - last >= self.outage_window && self.state == GatewayState::Up {
            self.state = GatewayState::Down;
            return vec![GatewayEvent::WentDown(self.id)];
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn twin() -> SensorTwin {
        SensorTwin::new(DevEui::ctt(1), SensorTwinConfig::default())
    }
    const GW: GatewayId = GatewayId(0xB827_EB00_0000_0001);

    #[test]
    fn first_uplink_goes_online() {
        let mut t = twin();
        assert_eq!(t.state(), TwinState::NeverSeen);
        let ev = t.on_uplink(Timestamp(0), 90.0, GW, Dbm(-100.0));
        assert_eq!(ev, vec![TwinEvent::WentOnline(DevEui::ctt(1))]);
        assert_eq!(t.state(), TwinState::Online);
        assert_eq!(t.expected_interval(), Span::minutes(5));
        assert_eq!(t.uplinks(), 1);
    }

    #[test]
    fn single_missed_cycle_is_only_late() {
        // "a single missing measurement is expected occasionally".
        let mut t = twin();
        t.on_uplink(Timestamp(0), 90.0, GW, Dbm(-100.0));
        // 8 minutes after a 5-minute cadence: late (>1.5×), not offline.
        let ev = t.tick(Timestamp(8 * 60));
        assert_eq!(ev, vec![TwinEvent::WentLate(DevEui::ctt(1))]);
        assert_eq!(t.state(), TwinState::Late);
        // Still not offline at 14 minutes (<3 cycles).
        assert!(t.tick(Timestamp(14 * 60)).is_empty());
        assert_eq!(t.state(), TwinState::Late);
    }

    #[test]
    fn offline_after_configured_cycles() {
        let mut t = twin();
        t.on_uplink(Timestamp(0), 90.0, GW, Dbm(-100.0));
        t.tick(Timestamp(8 * 60));
        let ev = t.tick(Timestamp(15 * 60)); // 3 × 5 min
        assert_eq!(ev, vec![TwinEvent::WentOffline(DevEui::ctt(1))]);
        assert_eq!(t.state(), TwinState::Offline);
        // Repeated ticks do not re-emit.
        assert!(t.tick(Timestamp(60 * 60)).is_empty());
    }

    #[test]
    fn recovery_emits_online() {
        let mut t = twin();
        t.on_uplink(Timestamp(0), 90.0, GW, Dbm(-100.0));
        t.tick(Timestamp(15 * 60));
        let ev = t.on_uplink(Timestamp(16 * 60), 88.0, GW, Dbm(-101.0));
        assert_eq!(ev, vec![TwinEvent::WentOnline(DevEui::ctt(1))]);
    }

    /// Offline/late alarms over a day at the healthy 5-minute cadence, then
    /// a day at the low-battery 15-minute cadence, ticked every 5 minutes
    /// as the dataport does. Every uplink arrives on its schedule, so each
    /// alarm is a false one.
    fn false_alarms(config: SensorTwinConfig) -> usize {
        let mut t = SensorTwin::new(DevEui::ctt(1), config);
        let mut alarms = 0;
        let mut now = 0i64;
        for _ in 0..288 {
            t.on_uplink(Timestamp(now), 80.0, GW, Dbm(-100.0));
            now += 300;
        }
        for _ in 0..96 {
            t.on_uplink(Timestamp(now), 30.0, GW, Dbm(-100.0));
            for k in 1..=3 {
                alarms += t
                    .tick(Timestamp(now + k * 300))
                    .iter()
                    .filter(|ev| matches!(ev, TwinEvent::WentOffline(_) | TwinEvent::WentLate(_)))
                    .count();
            }
            now += 900;
        }
        alarms
    }

    #[test]
    fn adaptive_interval_prevents_false_alarm() {
        // The paper's key subtlety: a low-battery node legitimately slows to
        // 15-minute cadence; a fixed 5-minute timeout would false-alarm.
        let mut t = twin();
        t.on_uplink(Timestamp(0), 40.0, GW, Dbm(-100.0)); // battery 40% → 15 min
        assert_eq!(t.expected_interval(), Span::minutes(15));
        // 20 minutes of silence: under 1.5 × 15 min → still online.
        assert!(t.tick(Timestamp(20 * 60)).is_empty());
        assert_eq!(t.state(), TwinState::Online);
        // A fixed-5-minute twin would have declared it offline at 15 min.
        // Offline only after 45 min.
        t.tick(Timestamp(30 * 60));
        let ev = t.tick(Timestamp(45 * 60));
        assert_eq!(ev, vec![TwinEvent::WentOffline(DevEui::ctt(1))]);
        // The ablation over two days: the adaptive detector raises no false
        // alarm where a fixed 5-minute timeout raises 192.
        assert_eq!(false_alarms(SensorTwinConfig::default()), 0);
        let fixed = SensorTwinConfig {
            policy: AdaptivePolicy::fixed(Span::minutes(5)),
            ..SensorTwinConfig::default()
        };
        assert_eq!(false_alarms(fixed), 192);
    }

    #[test]
    fn never_seen_does_not_alarm() {
        let mut t = twin();
        assert!(t.tick(Timestamp(i64::from(u32::MAX))).is_empty());
        assert_eq!(t.state(), TwinState::NeverSeen);
    }

    #[test]
    fn low_battery_hysteresis() {
        let mut t = twin();
        let ev = t.on_uplink(Timestamp(0), 18.0, GW, Dbm(-100.0));
        assert!(ev.contains(&TwinEvent::LowBattery(DevEui::ctt(1), 18.0)));
        // Still low: no repeat.
        let ev = t.on_uplink(Timestamp(900), 17.0, GW, Dbm(-100.0));
        assert!(!ev.iter().any(|e| matches!(e, TwinEvent::LowBattery(..))));
        // Barely above threshold: hysteresis holds.
        let ev = t.on_uplink(Timestamp(1800), 22.0, GW, Dbm(-100.0));
        assert!(!ev
            .iter()
            .any(|e| matches!(e, TwinEvent::BatteryRecovered(..))));
        // Clearly above: recovered.
        let ev = t.on_uplink(Timestamp(2700), 30.0, GW, Dbm(-100.0));
        assert!(ev.contains(&TwinEvent::BatteryRecovered(DevEui::ctt(1), 30.0)));
    }

    #[test]
    fn gateway_dependence_tracking() {
        let mut t = twin();
        let gw2 = GatewayId(0xB827_EB00_0000_0002);
        for i in 0..9 {
            t.on_uplink(Timestamp(i * 300), 90.0, GW, Dbm(-100.0));
        }
        t.on_uplink(Timestamp(9 * 300), 90.0, gw2, Dbm(-110.0));
        assert!(t.is_dependent_on(GW, 0.9));
        assert!(!t.is_dependent_on(gw2, 0.9));
        assert_eq!(t.last_gateway(), Some(gw2));
        assert_eq!(t.last_rssi_dbm(), Some(-110.0));
    }

    #[test]
    fn gateway_twin_outage_and_recovery() {
        let mut g = GatewayTwin::new(GW, Span::minutes(30));
        assert_eq!(g.state(), GatewayState::NeverSeen);
        assert!(g.tick(Timestamp(10_000)).is_empty());
        let ev = g.on_traffic(Timestamp(0));
        assert_eq!(ev, vec![GatewayEvent::WentUp(GW)]);
        assert!(g.tick(Timestamp(29 * 60)).is_empty());
        let ev = g.tick(Timestamp(30 * 60));
        assert_eq!(ev, vec![GatewayEvent::WentDown(GW)]);
        assert_eq!(g.state(), GatewayState::Down);
        // Recovery.
        let ev = g.on_traffic(Timestamp(31 * 60));
        assert_eq!(ev, vec![GatewayEvent::WentUp(GW)]);
        assert_eq!(g.frames(), 2);
    }
}
