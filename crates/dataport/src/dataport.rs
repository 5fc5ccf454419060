//! The dataport: actor-hosted twins, hierarchical alarm correlation, and
//! the network status snapshot that drives the visualizations.
//!
//! The actor hierarchy mirrors the paper: a root supervisor with a
//! `sensors` branch (one digital-twin actor per device), a `gateways`
//! branch, and an `alarms` actor holding the alarm bus. "Actors are
//! organized hierarchically. On higher levels, failures can be grouped so
//! that for example a distinction can be drawn between sensor failures
//! versus a gateway outage that would make a set of sensors invisible"
//! (§2.3) — that distinction is implemented in the alarm actor: a
//! sensor-offline event whose twin was ≥90% dependent on a gateway that is
//! currently down is suppressed and attributed to the gateway.

use crate::actor::{Actor, ActorRef, ActorSystem, Context, Fault, SupervisorStrategy};
use crate::alarm::{Alarm, AlarmBus, AlarmKind};
use crate::twin::{
    GatewayEvent, GatewayState, GatewayTwin, SensorTwin, SensorTwinConfig, TwinEvent, TwinState,
};
use crate::watchdog::{Watchdog, WatchdogVerdict};
use ctt_core::ids::{DevEui, GatewayId};
use ctt_core::time::{Span, Timestamp};
use ctt_core::units::Dbm;
use std::collections::{BTreeMap, HashMap};

// ---------------------------------------------------------------- messages

/// Every message of the dataport's actors.
#[derive(Debug, Clone)]
enum Msg {
    /// An uplink observation, for a sensor twin.
    Uplink(UplinkMsg),
    /// Traffic seen at this time, for a gateway twin.
    Traffic(Timestamp),
    /// Periodic clock tick, for every twin.
    Tick(Timestamp),
    /// An alarm-bus event, for the alarm actor.
    Alarm(AlarmMsg),
}

/// An uplink observation for a sensor twin.
#[derive(Debug, Clone, Copy)]
pub struct UplinkMsg {
    /// Reception time.
    pub time: Timestamp,
    /// Battery level decoded from the payload.
    pub battery_pct: f64,
    /// Best gateway.
    pub gateway: GatewayId,
    /// RSSI at the best gateway.
    pub rssi_dbm: f64,
}

/// Messages to the alarm actor.
#[derive(Debug, Clone)]
enum AlarmMsg {
    Sensor {
        event: TwinEvent,
        dependent_gateway: Option<GatewayId>,
        time: Timestamp,
    },
    Gateway {
        event: GatewayEvent,
        time: Timestamp,
    },
    Raise {
        kind: AlarmKind,
        source: String,
        time: Timestamp,
        message: String,
    },
    Clear {
        kind: AlarmKind,
        source: String,
        time: Timestamp,
    },
}

// ------------------------------------------------------------------ actors

/// Every actor of the dataport: the twins, the alarm bus, and the branch
/// supervisors that only group twins in the tree.
enum Node {
    Sensor(SensorActor),
    Gateway(GatewayActor),
    Alarms(AlarmActor),
    Branch,
}

impl Actor for Node {
    type Msg = Msg;

    fn handle(&mut self, ctx: &mut Context<'_, Node>, msg: Msg) -> Result<(), Fault> {
        match (self, msg) {
            (Node::Sensor(s), Msg::Uplink(up)) => s.on_uplink(ctx, up)?,
            (Node::Sensor(s), Msg::Tick(now)) => {
                let events = s.twin.tick(now);
                s.forward_events(ctx, events, now);
            }
            (Node::Gateway(g), Msg::Traffic(time)) => {
                let events = g.twin.on_traffic(time);
                g.forward_events(ctx, events, time);
            }
            (Node::Gateway(g), Msg::Tick(now)) => {
                let events = g.twin.tick(now);
                g.forward_events(ctx, events, now);
            }
            (Node::Alarms(a), Msg::Alarm(m)) => a.on_msg(m),
            (node, msg) => return Err(Fault(format!("{} cannot handle {msg:?}", node.kind()))),
        }
        Ok(())
    }

    fn restarted(&mut self) {
        if let Node::Sensor(s) = self {
            // Keep identity/config; volatile connectivity state resets.
            s.twin = SensorTwin::new(s.twin.device(), SensorTwinConfig::default());
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Node::Sensor(_) => "sensor-twin",
            Node::Gateway(_) => "gateway-twin",
            Node::Alarms(_) => "alarm-bus",
            Node::Branch => "supervisor",
        }
    }
}

struct SensorActor {
    twin: SensorTwin,
    alarms: ActorRef,
}

impl SensorActor {
    fn on_uplink(&mut self, ctx: &mut Context<'_, Node>, up: UplinkMsg) -> Result<(), Fault> {
        if !up.battery_pct.is_finite() {
            // A corrupt observation is a fault: supervision restarts the
            // twin rather than letting bad state accumulate.
            return Err(Fault(format!(
                "corrupt uplink for {}: non-finite battery",
                self.twin.device()
            )));
        }
        let events = self
            .twin
            .on_uplink(up.time, up.battery_pct, up.gateway, Dbm(up.rssi_dbm));
        self.forward_events(ctx, events, up.time);
        Ok(())
    }

    fn forward_events(&self, ctx: &mut Context<'_, Node>, events: Vec<TwinEvent>, time: Timestamp) {
        for event in events {
            let dependent_gateway = self
                .twin
                .last_gateway()
                .filter(|&gw| self.twin.is_dependent_on(gw, 0.9));
            ctx.send(
                self.alarms,
                Msg::Alarm(AlarmMsg::Sensor {
                    event,
                    dependent_gateway,
                    time,
                }),
            );
        }
    }
}

struct GatewayActor {
    twin: GatewayTwin,
    alarms: ActorRef,
}

impl GatewayActor {
    fn forward_events(
        &self,
        ctx: &mut Context<'_, Node>,
        events: Vec<GatewayEvent>,
        time: Timestamp,
    ) {
        for event in events {
            ctx.send(self.alarms, Msg::Alarm(AlarmMsg::Gateway { event, time }));
        }
    }
}

struct AlarmActor {
    bus: AlarmBus,
    gateway_down: HashMap<GatewayId, bool>,
    /// For each offline sensor source: the gateway it depends on, if any —
    /// used to re-attribute its alarm when the gateway outage is confirmed
    /// later (gateway detection windows are longer than sensor windows).
    // BTreeMap: victim suppression iterates this map, and suppression
    // order must be stable for byte-identical replay.
    offline_dependents: BTreeMap<String, GatewayId>,
    correlate: bool,
}

impl AlarmActor {
    fn on_sensor(&mut self, event: TwinEvent, dependent: Option<GatewayId>, time: Timestamp) {
        match event {
            TwinEvent::WentOffline(dev) => {
                let source = format!("sensor/{dev}");
                if let Some(gw) = dependent {
                    self.offline_dependents.insert(source.clone(), gw);
                }
                // Hierarchical grouping: attribute to a downed gateway.
                let gateway_is_down = dependent
                    .map(|gw| *self.gateway_down.get(&gw).unwrap_or(&false))
                    .unwrap_or(false);
                if self.correlate && gateway_is_down {
                    self.bus.note_suppressed();
                } else {
                    self.bus.raise(
                        AlarmKind::SensorOffline,
                        &source,
                        time,
                        format!("{dev} missed its failure-certainty window"),
                    );
                }
            }
            TwinEvent::WentLate(dev) => {
                self.bus.raise(
                    AlarmKind::SensorLate,
                    &format!("sensor/{dev}"),
                    time,
                    "uplink overdue".to_string(),
                );
            }
            TwinEvent::WentOnline(dev) => {
                let source = format!("sensor/{dev}");
                self.offline_dependents.remove(&source);
                self.bus.clear(AlarmKind::SensorOffline, &source, time);
                self.bus.clear(AlarmKind::SensorLate, &source, time);
            }
            TwinEvent::LowBattery(dev, pct) => {
                self.bus.raise(
                    AlarmKind::LowBattery,
                    &format!("sensor/{dev}"),
                    time,
                    format!("battery at {pct:.0}%"),
                );
            }
            TwinEvent::BatteryRecovered(dev, _) => {
                self.bus
                    .clear(AlarmKind::LowBattery, &format!("sensor/{dev}"), time);
            }
        }
    }

    fn on_gateway(&mut self, event: GatewayEvent, time: Timestamp) {
        match event {
            GatewayEvent::WentDown(id) => {
                self.gateway_down.insert(id, true);
                self.bus.raise(
                    AlarmKind::GatewayOutage,
                    &format!("gateway/{id}"),
                    time,
                    "no traffic within the outage window".to_string(),
                );
                // Re-attribute: sensors that depend on this gateway and were
                // already declared offline are victims of the outage, not
                // individual failures.
                if self.correlate {
                    let victims: Vec<String> = self
                        .offline_dependents
                        .iter()
                        .filter(|(_, &gw)| gw == id)
                        .map(|(s, _)| s.clone())
                        .collect();
                    for source in victims {
                        self.bus.suppress(AlarmKind::SensorOffline, &source);
                    }
                }
            }
            GatewayEvent::WentUp(id) => {
                self.gateway_down.insert(id, false);
                self.bus
                    .clear(AlarmKind::GatewayOutage, &format!("gateway/{id}"), time);
            }
        }
    }

    fn on_msg(&mut self, msg: AlarmMsg) {
        match msg {
            AlarmMsg::Sensor {
                event,
                dependent_gateway,
                time,
            } => self.on_sensor(event, dependent_gateway, time),
            AlarmMsg::Gateway { event, time } => self.on_gateway(event, time),
            AlarmMsg::Raise {
                kind,
                source,
                time,
                message,
            } => {
                self.bus.raise(kind, &source, time, message);
            }
            AlarmMsg::Clear { kind, source, time } => {
                self.bus.clear(kind, &source, time);
            }
        }
    }
}

// ---------------------------------------------------------------- facade

/// Dataport configuration.
#[derive(Debug, Clone, Copy)]
pub struct DataportConfig {
    /// Sensor twin configuration.
    pub twin: SensorTwinConfig,
    /// Gateway outage window.
    pub gateway_outage_window: Span,
    /// Enable hierarchical sensor↔gateway alarm correlation.
    pub correlate: bool,
    /// TTN backend / MQTT silence tolerated before alarming.
    pub component_window: Span,
    /// Cadence of the periodic [`Dataport::tick`] — the interval the
    /// dataport registers with the driving event loop (it is scheduled,
    /// not polled).
    pub tick_cadence: Span,
}

impl Default for DataportConfig {
    fn default() -> Self {
        DataportConfig {
            twin: SensorTwinConfig::default(),
            gateway_outage_window: Span::minutes(30),
            correlate: true,
            component_window: Span::minutes(10),
            tick_cadence: Span::minutes(5),
        }
    }
}

/// Status of one sensor in the snapshot.
#[derive(Debug, Clone)]
pub struct SensorStatus {
    /// Device.
    pub device: DevEui,
    /// Twin state.
    pub state: TwinState,
    /// Last uplink time.
    pub last_uplink: Option<Timestamp>,
    /// Last battery level.
    pub battery_pct: Option<f64>,
    /// Gateway of the last uplink.
    pub last_gateway: Option<GatewayId>,
    /// RSSI of the last uplink.
    pub last_rssi_dbm: Option<f64>,
    /// Total uplinks.
    pub uplinks: u64,
}

/// Status of one gateway in the snapshot.
#[derive(Debug, Clone)]
pub struct GatewayStatus {
    /// Gateway id.
    pub gateway: GatewayId,
    /// Twin state.
    pub state: GatewayState,
    /// Frames forwarded.
    pub frames: u64,
    /// Last traffic time.
    pub last_traffic: Option<Timestamp>,
}

/// A point-in-time view of the whole network (drives Figs. 3 and 8).
#[derive(Debug, Clone)]
pub struct NetworkSnapshot {
    /// All sensors, sorted by device id.
    pub sensors: Vec<SensorStatus>,
    /// All gateways, sorted by id.
    pub gateways: Vec<GatewayStatus>,
    /// Active alarms.
    pub active_alarms: Vec<Alarm>,
    /// Alarms suppressed by correlation.
    pub suppressed_alarms: u64,
    /// Snapshot time.
    pub time: Timestamp,
}

#[derive(Debug, Clone, Copy)]
struct ComponentHealth {
    last_ok: Option<Timestamp>,
}

/// The dataport service.
#[derive(Debug)]
pub struct Dataport {
    system: ActorSystem<Node>,
    config: DataportConfig,
    sensors_branch: ActorRef,
    gateways_branch: ActorRef,
    alarms: ActorRef,
    // BTreeMaps: ticks and snapshots walk twins in id order, so same-tick
    // alarms land in the log in a reproducible sequence (replays are
    // compared byte-for-byte by the chaos determinism tests).
    sensor_refs: BTreeMap<DevEui, ActorRef>,
    gateway_refs: BTreeMap<GatewayId, ActorRef>,
    backend: ComponentHealth,
    mqtt: ComponentHealth,
    watchdog: Watchdog,
    uplinks_processed: u64,
    /// When the last periodic tick ran (drives [`ctt_sim::Schedulable`]).
    last_tick: Option<Timestamp>,
}

impl Dataport {
    /// Build the actor hierarchy.
    pub fn new(config: DataportConfig) -> Self {
        let mut system = ActorSystem::new();
        let alarms = system.spawn(
            "dataport/alarms",
            Node::Alarms(AlarmActor {
                bus: AlarmBus::new(),
                gateway_down: HashMap::new(),
                offline_dependents: BTreeMap::new(),
                correlate: config.correlate,
            }),
            SupervisorStrategy::Restart,
        );
        let sensors_branch = system.spawn(
            "dataport/sensors",
            Node::Branch,
            SupervisorStrategy::Restart,
        );
        let gateways_branch = system.spawn(
            "dataport/gateways",
            Node::Branch,
            SupervisorStrategy::Restart,
        );
        Dataport {
            system,
            config,
            sensors_branch,
            gateways_branch,
            alarms,
            sensor_refs: BTreeMap::new(),
            gateway_refs: BTreeMap::new(),
            backend: ComponentHealth { last_ok: None },
            mqtt: ComponentHealth { last_ok: None },
            watchdog: Watchdog::new(Span::minutes(5)),
            uplinks_processed: 0,
            last_tick: None,
        }
    }

    /// Register a sensor twin (idempotent; also done lazily on first uplink).
    pub fn register_sensor(&mut self, device: DevEui) -> ActorRef {
        if let Some(&r) = self.sensor_refs.get(&device) {
            return r;
        }
        let actor = Node::Sensor(SensorActor {
            twin: SensorTwin::new(device, self.config.twin),
            alarms: self.alarms,
        });
        // Children of the sensors branch. (Spawned directly under the branch
        // path; the branch supervisor owns them.)
        let r = self.spawn_under(self.sensors_branch, format!("{device}"), actor);
        self.sensor_refs.insert(device, r);
        r
    }

    /// Register a gateway twin (idempotent).
    pub fn register_gateway(&mut self, gateway: GatewayId) -> ActorRef {
        if let Some(&r) = self.gateway_refs.get(&gateway) {
            return r;
        }
        let actor = Node::Gateway(GatewayActor {
            twin: GatewayTwin::new(gateway, self.config.gateway_outage_window),
            alarms: self.alarms,
        });
        let r = self.spawn_under(self.gateways_branch, format!("{gateway}"), actor);
        self.gateway_refs.insert(gateway, r);
        r
    }

    fn spawn_under(&mut self, parent: ActorRef, name: String, actor: Node) -> ActorRef {
        self.system
            .spawn_child_of(parent, name, actor, SupervisorStrategy::Restart)
    }

    /// Process one uplink observation end-to-end: updates the sensor twin,
    /// the gateway twin, component health, and the heartbeat.
    pub fn on_uplink(
        &mut self,
        device: DevEui,
        time: Timestamp,
        battery_pct: f64,
        gateway: GatewayId,
        rssi_dbm: Dbm,
    ) {
        let sensor = self.register_sensor(device);
        let gw = self.register_gateway(gateway);
        self.system.send(
            sensor,
            Msg::Uplink(UplinkMsg {
                time,
                battery_pct,
                gateway,
                rssi_dbm: rssi_dbm.0,
            }),
        );
        self.system.send(gw, Msg::Traffic(time));
        self.system.run_until_idle();
        // Data flowing end-to-end implies the backend and broker are up.
        self.backend.last_ok = Some(time);
        self.mqtt.last_ok = Some(time);
        self.watchdog.heartbeat(time);
        self.uplinks_processed += 1;
    }

    /// Explicit component health reports (e.g. from connection probes).
    pub fn backend_ok(&mut self, now: Timestamp) {
        self.backend.last_ok = Some(now);
    }

    /// MQTT connection verified alive.
    pub fn mqtt_ok(&mut self, now: Timestamp) {
        self.mqtt.last_ok = Some(now);
    }

    /// Periodic tick: run twin timeout checks and component monitoring.
    pub fn tick(&mut self, now: Timestamp) {
        // Sensors in id order, then gateways in id order.
        for &r in self.sensor_refs.values().chain(self.gateway_refs.values()) {
            self.system.send(r, Msg::Tick(now));
        }
        // Component monitors.
        for (health, kind, source) in [
            (self.backend, AlarmKind::BackendDown, "ttn-backend"),
            (self.mqtt, AlarmKind::MqttDown, "mqtt"),
        ] {
            if let Some(last) = health.last_ok {
                let msg = if now - last > self.config.component_window {
                    AlarmMsg::Raise {
                        kind,
                        source: source.to_string(),
                        time: now,
                        message: format!("no traffic since {last}"),
                    }
                } else {
                    AlarmMsg::Clear {
                        kind,
                        source: source.to_string(),
                        time: now,
                    }
                };
                self.system.send(self.alarms, Msg::Alarm(msg));
            }
        }
        self.system.run_until_idle();
        self.watchdog.heartbeat(now);
        self.last_tick = Some(now);
    }

    /// The next instant the periodic tick is due: one cadence after the
    /// last tick, or `now` if it has never run.
    pub fn next_tick_due(&self, now: Timestamp) -> Timestamp {
        match self.last_tick {
            Some(last) => last + self.config.tick_cadence,
            None => now,
        }
    }

    /// The external watchdog's view of this dataport.
    pub fn watchdog_check(&mut self, now: Timestamp) -> WatchdogVerdict {
        self.watchdog.check(now)
    }

    /// Total uplinks processed.
    pub fn uplinks_processed(&self) -> u64 {
        self.uplinks_processed
    }

    /// The actor path of a sensor twin (diagnostics).
    pub fn sensor_path(&self, device: DevEui) -> Option<String> {
        self.sensor_refs.get(&device).map(|&r| self.system.path(r))
    }

    /// Raise an operational alarm from outside the twin monitors (e.g. the
    /// pipeline reporting backpressure shedding). Deduplicated per
    /// `(source, kind)` by the alarm bus; cleared conditions re-raise.
    pub fn raise_alarm(&mut self, kind: AlarmKind, source: &str, now: Timestamp, message: String) {
        self.system.send(
            self.alarms,
            Msg::Alarm(AlarmMsg::Raise {
                kind,
                source: source.to_string(),
                time: now,
                message,
            }),
        );
        self.system.run_until_idle();
    }

    fn alarm_bus(&self) -> Option<&AlarmBus> {
        match self.system.get(self.alarms)? {
            Node::Alarms(a) => Some(&a.bus),
            _ => None,
        }
    }

    /// Active alarms (sorted by severity).
    pub fn active_alarms(&self) -> Vec<Alarm> {
        self.alarm_bus()
            .map(|bus| bus.active().into_iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Full alarm transition log.
    pub fn alarm_log(&self) -> &[Alarm] {
        self.alarm_bus().map_or(&[], AlarmBus::log)
    }

    /// Point-in-time network snapshot.
    pub fn snapshot(&self, now: Timestamp) -> NetworkSnapshot {
        let sensors = self
            .sensor_refs
            .iter()
            .filter_map(|(&device, &r)| match self.system.get(r)? {
                Node::Sensor(a) => Some(SensorStatus {
                    device,
                    state: a.twin.state(),
                    last_uplink: a.twin.last_uplink(),
                    battery_pct: a.twin.last_battery(),
                    last_gateway: a.twin.last_gateway(),
                    last_rssi_dbm: a.twin.last_rssi_dbm(),
                    uplinks: a.twin.uplinks(),
                }),
                _ => None,
            })
            .collect();
        let gateways = self
            .gateway_refs
            .iter()
            .filter_map(|(&gateway, &r)| match self.system.get(r)? {
                Node::Gateway(a) => Some(GatewayStatus {
                    gateway,
                    state: a.twin.state(),
                    frames: a.twin.frames(),
                    last_traffic: a.twin.last_traffic(),
                }),
                _ => None,
            })
            .collect();
        NetworkSnapshot {
            sensors,
            gateways,
            active_alarms: self.active_alarms(),
            suppressed_alarms: self.alarm_bus().map_or(0, AlarmBus::suppressed),
            time: now,
        }
    }
}

impl ctt_sim::Schedulable for Dataport {
    /// The dataport always wants its next periodic tick: one cadence after
    /// the last, or immediately if it has never ticked.
    fn next_event(&self, now: Timestamp) -> Option<Timestamp> {
        Some(self.next_tick_due(now).max(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::LifecycleEvent;

    const GW1: GatewayId = GatewayId(0xB827_EB00_0000_0001);
    const GW2: GatewayId = GatewayId(0xB827_EB00_0000_0002);

    fn dataport() -> Dataport {
        Dataport::new(DataportConfig::default())
    }

    #[test]
    fn uplinks_update_twins() {
        let mut dp = dataport();
        dp.on_uplink(DevEui::ctt(1), Timestamp(0), 90.0, GW1, Dbm(-100.0));
        dp.on_uplink(DevEui::ctt(1), Timestamp(300), 89.0, GW1, Dbm(-99.0));
        let snap = dp.snapshot(Timestamp(300));
        assert_eq!(snap.sensors.len(), 1);
        assert_eq!(snap.sensors[0].state, TwinState::Online);
        assert_eq!(snap.sensors[0].uplinks, 2);
        assert_eq!(snap.gateways.len(), 1);
        assert_eq!(snap.gateways[0].frames, 2);
        assert_eq!(dp.uplinks_processed(), 2);
    }

    #[test]
    fn sensor_offline_alarm_after_cycles() {
        let mut dp = dataport();
        dp.on_uplink(DevEui::ctt(1), Timestamp(0), 90.0, GW1, Dbm(-100.0));
        // Keep the gateway alive via another sensor so correlation does not
        // suppress the sensor alarm.
        dp.on_uplink(DevEui::ctt(2), Timestamp(60), 90.0, GW1, Dbm(-100.0));
        for minutes in [8i64, 16, 20, 25] {
            dp.tick(Timestamp(minutes * 60));
            dp.on_uplink(
                DevEui::ctt(2),
                Timestamp(minutes * 60 + 1),
                90.0,
                GW1,
                Dbm(-100.0),
            );
        }
        let alarms = dp.active_alarms();
        assert!(
            alarms
                .iter()
                .any(|a| a.kind == AlarmKind::SensorOffline && a.source.contains("00-01")),
            "expected sensor-offline alarm, got {alarms:?}"
        );
    }

    #[test]
    fn gateway_outage_suppresses_dependent_sensor_alarms() {
        let mut dp = dataport();
        // Three sensors all single-homed on GW1.
        for d in 1..=3u32 {
            for i in 0..5i64 {
                dp.on_uplink(DevEui::ctt(d), Timestamp(i * 300), 90.0, GW1, Dbm(-100.0));
            }
        }
        // Everything goes silent (gateway died). Sensors are declared
        // offline first (15-minute certainty window), the gateway outage is
        // confirmed later (30-minute window from its last traffic at 20:00)
        // and retroactively claims the sensor alarms.
        dp.tick(Timestamp(40 * 60)); // sensors offline, alarms raised
        dp.tick(Timestamp(55 * 60)); // gateway outage confirmed
        let snap = dp.snapshot(Timestamp(55 * 60));
        // One gateway-outage alarm, sensor alarms suppressed.
        let gw_alarms: Vec<_> = snap
            .active_alarms
            .iter()
            .filter(|a| a.kind == AlarmKind::GatewayOutage)
            .collect();
        assert_eq!(gw_alarms.len(), 1);
        let sensor_alarms: Vec<_> = snap
            .active_alarms
            .iter()
            .filter(|a| a.kind == AlarmKind::SensorOffline)
            .collect();
        assert!(
            sensor_alarms.is_empty(),
            "sensor alarms should be suppressed: {sensor_alarms:?}"
        );
        assert_eq!(snap.suppressed_alarms, 3);
    }

    #[test]
    fn without_correlation_all_alarms_fire() {
        let mut dp = Dataport::new(DataportConfig {
            correlate: false,
            ..DataportConfig::default()
        });
        for d in 1..=3u32 {
            for i in 0..5i64 {
                dp.on_uplink(DevEui::ctt(d), Timestamp(i * 300), 90.0, GW1, Dbm(-100.0));
            }
        }
        dp.tick(Timestamp(31 * 60));
        dp.tick(Timestamp(40 * 60));
        let snap = dp.snapshot(Timestamp(40 * 60));
        let sensor_alarms = snap
            .active_alarms
            .iter()
            .filter(|a| a.kind == AlarmKind::SensorOffline)
            .count();
        assert_eq!(sensor_alarms, 3);
        assert_eq!(snap.suppressed_alarms, 0);
    }

    #[test]
    fn multihomed_sensor_alarms_despite_one_gateway_down() {
        let mut dp = dataport();
        // Sensor 1 alternates between two gateways: not dependent on either.
        for i in 0..6i64 {
            let gw = if i % 2 == 0 { GW1 } else { GW2 };
            dp.on_uplink(DevEui::ctt(1), Timestamp(i * 300), 90.0, gw, Dbm(-100.0));
        }
        dp.tick(Timestamp(31 * 60)); // both gateways down now
        dp.tick(Timestamp(60 * 60));
        let snap = dp.snapshot(Timestamp(60 * 60));
        // The sensor is not ≥90% dependent on its last gateway, so its
        // offline alarm is NOT suppressed.
        assert!(snap
            .active_alarms
            .iter()
            .any(|a| a.kind == AlarmKind::SensorOffline));
    }

    #[test]
    fn recovery_clears_alarms() {
        let mut dp = dataport();
        dp.on_uplink(DevEui::ctt(1), Timestamp(0), 90.0, GW1, Dbm(-100.0));
        dp.on_uplink(DevEui::ctt(2), Timestamp(10), 90.0, GW1, Dbm(-100.0));
        dp.tick(Timestamp(20 * 60));
        dp.on_uplink(
            DevEui::ctt(2),
            Timestamp(20 * 60 + 30),
            90.0,
            GW1,
            Dbm(-100.0),
        );
        dp.tick(Timestamp(25 * 60));
        assert!(dp
            .active_alarms()
            .iter()
            .any(|a| a.kind == AlarmKind::SensorOffline));
        // Sensor 1 comes back.
        dp.on_uplink(DevEui::ctt(1), Timestamp(26 * 60), 85.0, GW1, Dbm(-100.0));
        assert!(!dp
            .active_alarms()
            .iter()
            .any(|a| a.kind == AlarmKind::SensorOffline));
        // Log shows raise + recover.
        let log = dp.alarm_log();
        assert!(log.iter().any(|a| a.kind == AlarmKind::SensorOffline));
        assert!(log.iter().any(|a| a.kind == AlarmKind::Recovered));
    }

    #[test]
    fn component_monitoring() {
        let mut dp = dataport();
        dp.on_uplink(DevEui::ctt(1), Timestamp(0), 90.0, GW1, Dbm(-100.0));
        // 15 minutes of silence exceeds the 10-minute component window.
        dp.tick(Timestamp(15 * 60));
        let alarms = dp.active_alarms();
        assert!(alarms.iter().any(|a| a.kind == AlarmKind::BackendDown));
        assert!(alarms.iter().any(|a| a.kind == AlarmKind::MqttDown));
        // Probes report recovery.
        dp.backend_ok(Timestamp(16 * 60));
        dp.mqtt_ok(Timestamp(16 * 60));
        dp.tick(Timestamp(17 * 60));
        let alarms = dp.active_alarms();
        assert!(!alarms.iter().any(|a| a.kind == AlarmKind::BackendDown));
        assert!(!alarms.iter().any(|a| a.kind == AlarmKind::MqttDown));
    }

    #[test]
    fn watchdog_detects_dead_dataport() {
        let mut dp = dataport();
        dp.on_uplink(DevEui::ctt(1), Timestamp(0), 90.0, GW1, Dbm(-100.0));
        assert_eq!(dp.watchdog_check(Timestamp(60)), WatchdogVerdict::Healthy);
        // The dataport stops being driven (no ticks, no uplinks): from the
        // watchdog's perspective it is down.
        assert!(matches!(
            dp.watchdog_check(Timestamp(20 * 60)),
            WatchdogVerdict::Down { .. }
        ));
    }

    #[test]
    fn corrupt_uplink_restarts_twin_via_supervision() {
        let mut dp = dataport();
        dp.on_uplink(DevEui::ctt(1), Timestamp(0), 90.0, GW1, Dbm(-100.0));
        dp.on_uplink(DevEui::ctt(1), Timestamp(300), f64::NAN, GW1, Dbm(-100.0));
        // Twin restarted: state reset to NeverSeen, but actor alive.
        let snap = dp.snapshot(Timestamp(300));
        assert_eq!(snap.sensors.len(), 1);
        assert_eq!(snap.sensors[0].state, TwinState::NeverSeen);
        assert_eq!(snap.sensors[0].uplinks, 0);
        // And it keeps working afterwards.
        dp.on_uplink(DevEui::ctt(1), Timestamp(600), 88.0, GW1, Dbm(-100.0));
        let snap = dp.snapshot(Timestamp(600));
        assert_eq!(snap.sensors[0].state, TwinState::Online);
    }

    #[test]
    fn mismatched_message_faults_and_restarts_the_twin() {
        let mut dp = dataport();
        dp.on_uplink(DevEui::ctt(1), Timestamp(0), 90.0, GW1, Dbm(-100.0));
        let sensor = dp.register_sensor(DevEui::ctt(1));
        // Gateway traffic is no message for a sensor twin.
        dp.system.send(sensor, Msg::Traffic(Timestamp(60)));
        dp.system.run_until_idle();
        let path = dp.sensor_path(DevEui::ctt(1)).unwrap();
        assert!(
            dp.system.events().iter().any(
                |e| matches!(e, LifecycleEvent::Restarted(p, f) if *p == path && f.contains("Traffic"))
            ),
            "{:?}",
            dp.system.events()
        );
        let snap = dp.snapshot(Timestamp(60));
        assert_eq!(snap.sensors[0].state, TwinState::NeverSeen);
    }

    #[test]
    fn actor_paths_are_hierarchical() {
        let mut dp = dataport();
        dp.on_uplink(DevEui::ctt(1), Timestamp(0), 90.0, GW1, Dbm(-100.0));
        let path = dp.sensor_path(DevEui::ctt(1)).unwrap();
        assert!(path.starts_with("/dataport/sensors/"), "{path}");
    }
}
