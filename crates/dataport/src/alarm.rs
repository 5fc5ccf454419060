//! Alarms raised by the monitoring twins.
//!
//! "It keeps track of its state in real-time, monitors all communication
//! and triggers alarms if data is not received as expected" (§2.3). Alarms
//! carry a severity and a source; the bus deduplicates (raise/clear
//! semantics) so a sensor that is offline for a week produces one alarm,
//! not two thousand.

use ctt_core::time::Timestamp;
use std::collections::HashMap;
use std::fmt;

/// Alarm severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational (e.g. device recovered).
    Info,
    /// Degraded but operating (late data, low battery).
    Warning,
    /// Data loss occurring (device offline, gateway outage).
    Critical,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "INFO",
            Severity::Warning => "WARN",
            Severity::Critical => "CRIT",
        })
    }
}

/// What kind of condition the alarm describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlarmKind {
    /// Sensor has missed enough cycles to be declared offline.
    SensorOffline,
    /// Sensor is late but not yet conclusively offline.
    SensorLate,
    /// Sensor battery below threshold.
    LowBattery,
    /// Sensor readings look implausible/decayed.
    SensorSuspect,
    /// Gateway has stopped forwarding traffic.
    GatewayOutage,
    /// The cloud backend (TTN) is unreachable.
    BackendDown,
    /// The MQTT link is broken.
    MqttDown,
    /// The dataport itself missed its heartbeat (watchdog).
    DataportDown,
    /// The pipeline is shedding load: broker caps or bridge admission
    /// control started dropping uplinks under overload.
    Backpressure,
    /// Condition cleared / device recovered.
    Recovered,
}

impl AlarmKind {
    /// Default severity for the kind.
    pub fn severity(self) -> Severity {
        match self {
            AlarmKind::SensorOffline
            | AlarmKind::GatewayOutage
            | AlarmKind::BackendDown
            | AlarmKind::MqttDown
            | AlarmKind::DataportDown => Severity::Critical,
            AlarmKind::SensorLate
            | AlarmKind::LowBattery
            | AlarmKind::SensorSuspect
            // Shedding is degraded-but-operating by design: the system is
            // doing what the overload policy asks, loudly.
            | AlarmKind::Backpressure => Severity::Warning,
            AlarmKind::Recovered => Severity::Info,
        }
    }
}

/// One alarm event.
#[derive(Debug, Clone, PartialEq)]
pub struct Alarm {
    /// Condition.
    pub kind: AlarmKind,
    /// Severity.
    pub severity: Severity,
    /// Source entity (actor path style, e.g. `sensor/70-B3-...`).
    pub source: String,
    /// When it fired.
    pub time: Timestamp,
    /// Human-readable detail.
    pub message: String,
}

/// The alarm bus: raise/clear with deduplication plus an append-only log.
#[derive(Debug, Default)]
pub struct AlarmBus {
    /// Currently-active alarm per (source, kind).
    active: HashMap<(String, AlarmKind), Alarm>,
    /// Every alarm transition ever (raised and cleared).
    log: Vec<Alarm>,
    /// Alarms suppressed by hierarchical correlation (see network twin).
    suppressed: u64,
}

impl AlarmBus {
    /// Empty bus.
    pub fn new() -> Self {
        AlarmBus::default()
    }

    /// Raise an alarm. Returns `true` if it was newly raised (not a dup).
    pub fn raise(
        &mut self,
        kind: AlarmKind,
        source: &str,
        time: Timestamp,
        message: String,
    ) -> bool {
        let key = (source.to_string(), kind);
        if self.active.contains_key(&key) {
            return false;
        }
        let alarm = Alarm {
            kind,
            severity: kind.severity(),
            source: source.to_string(),
            time,
            message,
        };
        self.active.insert(key, alarm.clone());
        self.log.push(alarm);
        true
    }

    /// Clear an active alarm; logs a `Recovered` event if one was active.
    pub fn clear(&mut self, kind: AlarmKind, source: &str, time: Timestamp) -> bool {
        let key = (source.to_string(), kind);
        if self.active.remove(&key).is_some() {
            self.log.push(Alarm {
                kind: AlarmKind::Recovered,
                severity: Severity::Info,
                source: source.to_string(),
                time,
                message: format!("{kind:?} cleared"),
            });
            true
        } else {
            false
        }
    }

    /// Record that an alarm was suppressed by correlation.
    pub fn note_suppressed(&mut self) {
        self.suppressed += 1;
    }

    /// Retroactively suppress an active alarm: remove it without logging a
    /// recovery (the underlying condition was re-attributed to a higher-level
    /// cause, e.g. a gateway outage). Returns `true` if one was active.
    pub fn suppress(&mut self, kind: AlarmKind, source: &str) -> bool {
        let removed = self.active.remove(&(source.to_string(), kind)).is_some();
        if removed {
            self.suppressed += 1;
        }
        removed
    }

    /// Count of suppressed alarms.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// Active alarms, sorted by (severity desc, source).
    pub fn active(&self) -> Vec<&Alarm> {
        let mut v: Vec<&Alarm> = self.active.values().collect();
        v.sort_by(|a, b| b.severity.cmp(&a.severity).then(a.source.cmp(&b.source)));
        v
    }

    /// The full transition log.
    pub fn log(&self) -> &[Alarm] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_is_deduplicated() {
        let mut bus = AlarmBus::new();
        assert!(bus.raise(
            AlarmKind::SensorOffline,
            "sensor/1",
            Timestamp(0),
            "gone".into()
        ));
        assert!(!bus.raise(
            AlarmKind::SensorOffline,
            "sensor/1",
            Timestamp(10),
            "gone".into()
        ));
        assert_eq!(bus.active().len(), 1);
        assert_eq!(bus.log().len(), 1);
    }

    #[test]
    fn different_kind_or_source_not_dedup() {
        let mut bus = AlarmBus::new();
        bus.raise(
            AlarmKind::SensorOffline,
            "sensor/1",
            Timestamp(0),
            String::new(),
        );
        assert!(bus.raise(
            AlarmKind::LowBattery,
            "sensor/1",
            Timestamp(0),
            String::new()
        ));
        assert!(bus.raise(
            AlarmKind::SensorOffline,
            "sensor/2",
            Timestamp(0),
            String::new()
        ));
        assert_eq!(bus.active().len(), 3);
    }

    #[test]
    fn clear_logs_recovery() {
        let mut bus = AlarmBus::new();
        bus.raise(
            AlarmKind::GatewayOutage,
            "gw/1",
            Timestamp(0),
            String::new(),
        );
        assert_eq!(bus.active().len(), 1);
        assert!(bus.clear(AlarmKind::GatewayOutage, "gw/1", Timestamp(100)));
        assert!(bus.active().is_empty());
        assert_eq!(bus.log().len(), 2);
        assert_eq!(bus.log()[1].kind, AlarmKind::Recovered);
        // Clearing again is a no-op.
        assert!(!bus.clear(AlarmKind::GatewayOutage, "gw/1", Timestamp(200)));
    }

    #[test]
    fn active_sorted_by_severity() {
        let mut bus = AlarmBus::new();
        bus.raise(
            AlarmKind::LowBattery,
            "sensor/2",
            Timestamp(0),
            String::new(),
        );
        bus.raise(
            AlarmKind::SensorOffline,
            "sensor/1",
            Timestamp(0),
            String::new(),
        );
        let active = bus.active();
        assert_eq!(active[0].kind, AlarmKind::SensorOffline);
        assert_eq!(active[0].severity, Severity::Critical);
    }

    #[test]
    fn kind_severities() {
        assert_eq!(AlarmKind::SensorOffline.severity(), Severity::Critical);
        assert_eq!(AlarmKind::SensorLate.severity(), Severity::Warning);
        assert_eq!(AlarmKind::Recovered.severity(), Severity::Info);
        assert_eq!(Severity::Critical.to_string(), "CRIT");
    }

    #[test]
    fn suppression_counter() {
        let mut bus = AlarmBus::new();
        bus.note_suppressed();
        bus.note_suppressed();
        assert_eq!(bus.suppressed(), 2);
    }
}
