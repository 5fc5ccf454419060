//! The dataport protocol pipeline of Fig. 2.
//!
//! Fig. 2 numbers eight stations on the data path — sensors (1) over
//! LoRaWAN to gateways (2), TCP/IP to the TTN backend (3), MQTT into the
//! CTT dataport (5) via the broker (4), REST/storage into the databases
//! (6) and network visualization (7), with an external watchdog pinging
//! the dataport itself (8). A [`ProtocolTrace`] records one uplink's
//! journey through those stages with per-stage timestamps and outcomes;
//! the demo uses it to show attendees where a frame is and where a
//! failure cut the path.

use ctt_core::time::Timestamp;
use std::fmt;

/// The eight stations of Fig. 2, in path order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// (1) Sensor samples and transmits over LoRaWAN.
    SensorUplink,
    /// (2) Gateway receives and forwards over TCP/IP.
    GatewayForward,
    /// (3) The Things Network cloud backend processes the frame.
    TtnBackend,
    /// (4) Uplink published to the MQTT broker.
    MqttPublish,
    /// (5) CTT dataport ingests and updates digital twins.
    DataportIngest,
    /// (6) Measurement written to the time-series database.
    DatabaseWrite,
    /// (7) Visualization/dashboard updated.
    Visualization,
    /// (8) External watchdog ping of the dataport (out-of-band).
    WatchdogPing,
}

impl Stage {
    /// All stages in order.
    pub const ALL: [Stage; 8] = [
        Stage::SensorUplink,
        Stage::GatewayForward,
        Stage::TtnBackend,
        Stage::MqttPublish,
        Stage::DataportIngest,
        Stage::DatabaseWrite,
        Stage::Visualization,
        Stage::WatchdogPing,
    ];

    /// Stage number as printed in Fig. 2 (1-based). Kept in sync with
    /// [`Stage::ALL`] by `stage_numbers_match_figure`.
    pub fn number(self) -> u8 {
        match self {
            Stage::SensorUplink => 1,
            Stage::GatewayForward => 2,
            Stage::TtnBackend => 3,
            Stage::MqttPublish => 4,
            Stage::DataportIngest => 5,
            Stage::DatabaseWrite => 6,
            Stage::Visualization => 7,
            Stage::WatchdogPing => 8,
        }
    }

    /// The transport between this stage and the next (Fig. 2 labels).
    pub fn transport(self) -> &'static str {
        match self {
            Stage::SensorUplink => "LoRaWAN",
            Stage::GatewayForward => "TCP/IP",
            Stage::TtnBackend => "MQTT",
            Stage::MqttPublish => "MQTT",
            Stage::DataportIngest => "REST",
            Stage::DatabaseWrite => "HTTP",
            Stage::Visualization => "HTTP",
            Stage::WatchdogPing => "IP ping",
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::SensorUplink => "Sensor",
            Stage::GatewayForward => "Gateway",
            Stage::TtnBackend => "TTN backend",
            Stage::MqttPublish => "MQTT broker",
            Stage::DataportIngest => "CTT dataport",
            Stage::DatabaseWrite => "Databases",
            Stage::Visualization => "Network visualization",
            Stage::WatchdogPing => "Watchdog",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}) {}", self.number(), self.name())
    }
}

/// One stage record within a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRecord {
    /// Which stage.
    pub stage: Stage,
    /// When the frame reached it.
    pub time: Timestamp,
    /// Whether the stage succeeded.
    pub ok: bool,
    /// Detail (gateway id, error message, ...).
    pub detail: String,
}

/// The journey of one uplink through the Fig. 2 pipeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProtocolTrace {
    records: Vec<StageRecord>,
}

impl ProtocolTrace {
    /// Empty trace.
    pub fn new() -> Self {
        ProtocolTrace::default()
    }

    /// Record a stage outcome. Stages must be recorded in path order.
    pub fn record(&mut self, stage: Stage, time: Timestamp, ok: bool, detail: impl Into<String>) {
        if let Some(last) = self.records.last() {
            // lint:allow(panic): callers record stages in path order (out_of_order_stage_panics)
            assert!(
                stage > last.stage,
                "stages must be recorded in order: {stage} after {}",
                last.stage
            );
        }
        self.records.push(StageRecord {
            stage,
            time,
            ok,
            detail: detail.into(),
        });
    }

    /// All records.
    pub fn records(&self) -> &[StageRecord] {
        &self.records
    }

    /// End-to-end latency from the first to the last successful record.
    pub fn latency(&self) -> Option<ctt_core::time::Span> {
        let first = self.records.first()?;
        let last = self.records.iter().rev().find(|r| r.ok)?;
        Some(last.time - first.time)
    }

    /// Render the trace as an ASCII diagram (the Fig. 2 view of one frame).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            let mark = if r.ok { "✓" } else { "✗" };
            out.push_str(&format!(
                "{mark} {} [{}] at {} {}\n",
                r.stage,
                r.stage.transport(),
                r.time,
                if r.detail.is_empty() {
                    String::new()
                } else {
                    format!("— {}", r.detail)
                }
            ));
            if !r.ok {
                out.push_str("  └─ data path interrupted here\n");
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctt_core::time::Span;

    #[test]
    fn stage_numbers_match_figure() {
        assert_eq!(Stage::SensorUplink.number(), 1);
        assert_eq!(Stage::GatewayForward.number(), 2);
        assert_eq!(Stage::MqttPublish.number(), 4);
        assert_eq!(Stage::DatabaseWrite.number(), 6);
        assert_eq!(Stage::WatchdogPing.number(), 8);
        // `number` is a match so it cannot panic; pin it to ALL's order.
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.number() as usize, i + 1);
        }
    }

    #[test]
    fn transports_match_figure_labels() {
        assert_eq!(Stage::SensorUplink.transport(), "LoRaWAN");
        assert_eq!(Stage::GatewayForward.transport(), "TCP/IP");
        assert_eq!(Stage::TtnBackend.transport(), "MQTT");
    }

    fn happy_trace() -> ProtocolTrace {
        let mut t = ProtocolTrace::new();
        let t0 = Timestamp(1_000);
        t.record(Stage::SensorUplink, t0, true, "SF9");
        t.record(Stage::GatewayForward, t0 + Span::seconds(1), true, "gw-1");
        t.record(Stage::TtnBackend, t0 + Span::seconds(1), true, "");
        t.record(Stage::MqttPublish, t0 + Span::seconds(2), true, "");
        t.record(Stage::DataportIngest, t0 + Span::seconds(2), true, "");
        t.record(
            Stage::DatabaseWrite,
            t0 + Span::seconds(3),
            true,
            "8 points",
        );
        t.record(Stage::Visualization, t0 + Span::seconds(4), true, "");
        t
    }

    #[test]
    fn happy_path_reaches_storage() {
        let t = happy_trace();
        assert_eq!(t.latency(), Some(Span::seconds(4)));
        let render = t.render();
        assert!(render.contains("(1) Sensor"));
        assert!(render.contains("(6) Databases"));
        assert!(!render.contains("interrupted"));
    }

    #[test]
    fn failure_cuts_the_path() {
        let mut t = ProtocolTrace::new();
        t.record(Stage::SensorUplink, Timestamp(0), true, "");
        t.record(Stage::GatewayForward, Timestamp(1), false, "no coverage");
        let render = t.render();
        assert!(render.contains("✗"));
        assert!(render.contains("interrupted"));
    }

    #[test]
    #[should_panic(expected = "stages must be recorded in order")]
    fn out_of_order_stage_panics() {
        let mut t = ProtocolTrace::new();
        t.record(Stage::MqttPublish, Timestamp(0), true, "");
        t.record(Stage::SensorUplink, Timestamp(1), true, "");
    }

    #[test]
    fn empty_trace() {
        let t = ProtocolTrace::new();
        assert!(t.latency().is_none());
        assert_eq!(t.render(), "");
    }
}
