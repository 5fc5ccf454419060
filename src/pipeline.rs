//! The end-to-end CTT pipeline (Fig. 1).
//!
//! Wires every subsystem along the paper's data path: sensor nodes sample
//! the emission field and transmit over the simulated LoRaWAN network; the
//! network server deduplicates and runs ADR; uplinks are published to the
//! MQTT broker in TTN shape; the storage consumer decodes payloads into
//! the time-series database; and the dataport's digital twins monitor the
//! whole flow. One `Pipeline` is one city pilot.
//!
//! Time is driven by the [`ctt_sim`] discrete-event core: node
//! transmissions, radio window deadlines, dataport ticks, and chaos
//! transitions (including due TSDB bit flips) are all events in one
//! [`EventQueue`], dispatched in `(time, priority, seq)` order. Same-instant
//! events run ticks first, then radio resolutions, then chaos transitions,
//! then transmissions — the order the old lockstep loop implied — and the
//! pinned key is what makes `run_until(a); run_until(b)` replay exactly
//! like `run_until(b)`.

use ctt_broker::{
    city_slug, Admission, AdmissionControl, Broker, QoS, RetryPolicy, Subscriber, UplinkEvent,
};
use ctt_chaos::{CauseCode, ChaosEngine, FaultPlan, FrameFault, InjectionStats, LossLedger};
use ctt_core::deployment::Deployment;
use ctt_core::emission::EmissionModel;
use ctt_core::ids::{DevEui, GatewayId};
use ctt_core::measurement::{SensorReading, Series};
use ctt_core::node::{NodeHealth, SensorNode};
use ctt_core::payload;
use ctt_core::quantity::Quantity;
use ctt_core::scenario::ScenarioSet;
use ctt_core::time::{Span, Timestamp};
use ctt_core::units::Dbm;
use ctt_dataport::{AlarmKind, Dataport, DataportConfig};
use ctt_lorawan::{
    collision_horizon, DataRate, GatewayConfig, LinkBackoff, NetworkServer, RadioSimulator,
    SimConfig, TxRequest, UplinkFrame, UplinkRecord,
};
use ctt_obs::{Counter, FlightRecorder, Registry, Snapshot};
use ctt_sim::{EventQueue, QueueObs, Schedulable, SimClock};
use ctt_tsdb::{
    Aggregator, BitFlipOutcome, CacheStats, ColumnBytes, IntegrityReport, Query, QueryResult,
    SeriesId, ShardedTsdb, StoreStats, TagSet,
};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;

/// Pipeline counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Readings produced by nodes.
    pub readings: u64,
    /// Uplinks delivered by the radio network.
    pub delivered: u64,
    /// Uplinks lost in the radio network (all causes).
    pub radio_lost: u64,
    /// Data points written to the TSDB.
    pub points_stored: u64,
    /// Payloads that failed to decode.
    pub decode_errors: u64,
    /// ADR commands applied to devices.
    pub adr_commands: u64,
}

/// Per-device radio state (data rate and power under ADR).
#[derive(Debug, Clone, Copy)]
struct RadioState {
    data_rate: DataRate,
    tx_power_dbm: f64,
    fcnt: u16,
    /// Device-side fallback: slow down after consecutive unheard uplinks.
    backoff: LinkBackoff,
}

impl Default for RadioState {
    fn default() -> Self {
        RadioState {
            data_rate: DataRate(2), // SF10: a sane EU868 starting point
            tx_power_dbm: 14.0,
            fcnt: 0,
            backoff: LinkBackoff::new(4),
        }
    }
}

// Priority classes for same-instant events, in dispatch order. Ticks run
// before anything else at the same instant (the lockstep loop drained ticks
// `<= due` first); radio deadlines resolve before chaos and transmissions
// (a window ending at `t` cannot overlap a transmission starting at `t`,
// so resolving first is outcome-neutral — and it is what makes the
// `run_until` boundary split-invariant); chaos transitions apply before
// the node steps that observe them.
const PRIO_TICK: u8 = 0;
const PRIO_RADIO: u8 = 1;
const PRIO_CHAOS: u8 = 2;
const PRIO_NODE: u8 = 3;
/// Scheduled storage drains run after everything else at an instant: the
/// backlog they work off was produced by that instant's other events.
const PRIO_DRAIN: u8 = 4;

/// Default per-dispatch storage drain batch. Sized above any healthy-run
/// burst (a resolve delivers at most the fleet's in-flight windows), so a
/// healthy pipeline never schedules a drain event and replays of pre-drain
/// seeds stay byte-identical; overload runs bound each dispatch to this.
const DEFAULT_DRAIN_BATCH: usize = 64;

/// EUI base for synthetic traffic-spike devices. Far above any deployment's
/// sequential numbering, so spike traffic can never collide with a real
/// device's ledger keys.
const SPIKE_EUI_BASE: u32 = 0x00FA_0000;

/// Points stored per uplink: the eight quantities in [`Quantity::ALL`]
/// order, then the link-quality RSSI for the network dashboards.
const SERIES_PER_DEVICE: usize = Quantity::ALL.len() + 1;
const RSSI_METRIC: &str = "ctt.net.rssi";

/// How many span events the pipeline's flight recorder retains. Sized for
/// post-mortems: enough dispatch context around a failure, bounded so a
/// week-long soak costs the same memory as a minute-long one.
const FLIGHT_RECORDER_CAPACITY: usize = 256;

/// Chaos fault-activation counters, registered as `chaos.activation.*`.
/// Incremented pipeline-side at the points where the engine is consulted,
/// so the engine itself stays a pure fault-plan interpreter.
#[derive(Debug, Clone)]
struct ChaosObs {
    frame_fault: Counter,
    bitflip: Counter,
    death_edge: Counter,
    /// Distinct broker-stall windows the consumer observed (edge-counted).
    broker_stall: Counter,
    /// Raw tally of consumer runs skipped while stalled (`broker.stall_ticks`).
    stall_ticks: Counter,
}

impl ChaosObs {
    fn register(registry: &Registry) -> Self {
        ChaosObs {
            frame_fault: registry.counter("chaos.activation.frame_fault"),
            bitflip: registry.counter("chaos.activation.bitflip"),
            death_edge: registry.counter("chaos.activation.death_edge"),
            broker_stall: registry.counter("chaos.activation.broker_stall"),
            stall_ticks: registry.counter("broker.stall_ticks"),
        }
    }
}

/// One scheduled pipeline event. All five time-driven sources (node tx,
/// radio window resolution, dataport tick, chaos window transition, due
/// TSDB bit flip) dispatch through the [`EventQueue`]; bit flips ride the
/// chaos-transition events their fire times are scheduled under.
#[derive(Debug, Clone, Copy)]
enum SimEvent {
    /// Periodic dataport twin/component tick; reschedules itself at the
    /// dataport's registered cadence.
    DataportTick,
    /// An in-flight radio window's airtime-derived deadline: resolve every
    /// window ending by now and push the outcomes downstream.
    RadioResolve,
    /// Windowed chaos state changes: node-death edges and due bit flips.
    ChaosTransition,
    /// The node at this deployment index is due to transmit.
    NodeTx(usize),
    /// A scheduled bounded storage drain: work off at most `drain_batch`
    /// backlogged deliveries, then reschedule while backlog remains. Only
    /// ever scheduled when a drain pass leaves backlog behind, so healthy
    /// runs never see one.
    StorageDrain,
}

impl SimEvent {
    /// Stable payload discriminant, used as the dispatch-trace label and as
    /// the flight-recorder stage name for this event's dispatch span.
    fn label(&self) -> &'static str {
        match self {
            SimEvent::DataportTick => "tick",
            SimEvent::RadioResolve => "radio",
            SimEvent::ChaosTransition => "chaos",
            SimEvent::NodeTx(_) => "node-tx",
            SimEvent::StorageDrain => "drain",
        }
    }
}

/// The assembled city pipeline.
#[derive(Debug)]
pub struct Pipeline {
    /// The pilot configuration.
    pub deployment: Deployment,
    emission: EmissionModel,
    nodes: Vec<SensorNode>,
    radio: RadioSimulator,
    server: NetworkServer,
    broker: Broker,
    storage_sub: Subscriber,
    /// The city's time-series store. Public only because the frozen
    /// `benchmark/` harness reads it (it goes with ROADMAP item 1); every
    /// other reader goes through [`Pipeline::query`] and its siblings.
    pub tsdb: ShardedTsdb,
    /// The monitoring dataport.
    pub dataport: Dataport,
    radio_state: HashMap<DevEui, RadioState>,
    scenario: ScenarioSet,
    /// The deployment's city in its normal form: topic level, wire field
    /// and `city` tag all carry exactly this.
    city_slug: String,
    /// The event the bridge publishes, refilled per uplink: `city` is set
    /// once and `payload` keeps its capacity.
    outbound: UplinkEvent,
    /// The event the storage consumer decodes into, likewise reused.
    inbound: UplinkEvent,
    /// The single monotone simulation clock, advanced only by dispatch.
    clock: SimClock,
    /// The discrete-event calendar every time-driven layer schedules into.
    events: EventQueue<SimEvent>,
    stats: PipelineStats,
    seed: u64,
    /// Fault-injection interpreter, when chaos is attached.
    chaos: Option<ChaosEngine>,
    /// Conservation accounting — maintained on every run, chaos or not.
    ledger: LossLedger,
    /// Death state currently applied to each node, so health toggles only
    /// on window edges (a revived node must not clobber other injections).
    chaos_dead: HashMap<DevEui, bool>,
    /// Deployment order of each device, for health toggling by EUI.
    node_index: HashMap<DevEui, usize>,
    /// The storage consumer's series ids per device, registered with the
    /// store at the device's first decoded uplink — deployment node,
    /// synthetic spike device or chaos-mangled EUI alike — whose points the
    /// same drain pass appends, so ids follow first-point order. `None`
    /// marks a device whose series names failed validation: its points are
    /// dropped uncounted.
    series: HashMap<DevEui, Option<[SeriesId; SERIES_PER_DEVICE]>>,
    /// One drain pass's points, reused across passes.
    points: Vec<(SeriesId, Timestamp, f64)>,
    /// The metrics registry every layer publishes into (broker subscriber
    /// counters, TSDB store counters, chaos activations).
    registry: Registry,
    /// Chaos fault-activation counters (registered even when no plan is
    /// attached, so snapshots have a stable shape).
    chaos_obs: ChaosObs,
    /// Ring of recent stage enter/exit spans, dumped on soak failures.
    recorder: FlightRecorder,
    /// Max deliveries one storage drain dispatch processes.
    drain_batch: usize,
    /// Whether a [`SimEvent::StorageDrain`] is outstanding. While one is,
    /// opportunistic consumer runs stand down: all backlog work happens
    /// through scheduled drains, which keeps segmented runs split-invariant.
    drain_scheduled: bool,
    /// Whether the consumer is currently inside an injected stall window
    /// (edge state for counting distinct windows, not skipped runs).
    stall_active: bool,
    /// Bridge admission control, when the chaos plan enables it.
    admission: Option<AdmissionControl>,
    /// Uplink records the admission controller deferred, awaiting tokens.
    /// Bounded by the controller's per-gateway defer cap.
    admission_pending: VecDeque<UplinkRecord>,
    /// Synthetic-device allocation state for traffic-spike amplification:
    /// the instant last amplified and the count handed out at it. Devices
    /// are reused across instants (bounded twin population) but distinct
    /// within one (distinct ledger keys).
    spike_at: Option<Timestamp>,
    spike_seq: u32,
}

impl Pipeline {
    /// Build the pipeline for a deployment.
    pub fn new(deployment: Deployment, seed: u64) -> Self {
        let emission = deployment.emission_model(seed);
        let nodes = deployment.spawn_nodes(seed);
        let gateways = deployment
            .gateways
            .iter()
            .map(|g| GatewayConfig::standard(g.id, g.position, g.antenna_m))
            .collect();
        let radio = RadioSimulator::new(SimConfig::urban(seed), gateways);
        let registry = Registry::new();
        let chaos_obs = ChaosObs::register(&registry);
        let broker = Broker::with_registry(registry.clone());
        let storage_sub = broker.subscribe(UplinkEvent::all_filter(), QoS::AtLeastOnce, 65_536);
        let mut tsdb = ShardedTsdb::default();
        tsdb.attach_registry(&registry);
        let mut dataport = Dataport::new(DataportConfig::default());
        for n in &deployment.nodes {
            dataport.register_sensor(n.eui);
        }
        for g in &deployment.gateways {
            dataport.register_gateway(g.id);
        }
        let city_slug = city_slug(&deployment.city);
        let outbound = UplinkEvent {
            city: city_slug.clone(),
            ..UplinkEvent::default()
        };
        let start = deployment.started;
        let node_index = deployment
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.eui, i))
            .collect();
        // Seed the calendar: the first dataport tick at the deployment
        // start, and one transmission event per node at its phase-jittered
        // first due time (deployment order pins same-instant ties).
        let mut events = EventQueue::new();
        // Dispatch instrumentation is always attached: the record step is a
        // handful of plain-integer adds (bench-gated), and an always-on
        // profile means replay comparisons need no special build.
        events.attach_obs(QueueObs::new(SimEvent::label));
        events.schedule(start, PRIO_TICK, SimEvent::DataportTick);
        for (i, n) in nodes.iter().enumerate() {
            events.schedule(n.next_due(), PRIO_NODE, SimEvent::NodeTx(i));
        }
        Pipeline {
            deployment,
            emission,
            nodes,
            radio,
            server: NetworkServer::new(),
            broker,
            storage_sub,
            tsdb,
            dataport,
            radio_state: HashMap::new(),
            scenario: ScenarioSet::new(),
            city_slug,
            outbound,
            inbound: UplinkEvent::default(),
            clock: SimClock::new(start),
            events,
            stats: PipelineStats::default(),
            seed,
            chaos: None,
            ledger: LossLedger::new(),
            chaos_dead: HashMap::new(),
            node_index,
            series: HashMap::new(),
            points: Vec::new(),
            registry,
            chaos_obs,
            recorder: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
            drain_batch: DEFAULT_DRAIN_BATCH,
            drain_scheduled: false,
            stall_active: false,
            admission: None,
            admission_pending: VecDeque::new(),
            spike_at: None,
            spike_seq: 0,
        }
    }

    /// Build a pipeline with a chaos plan attached from the start.
    pub fn with_chaos(deployment: Deployment, seed: u64, plan: FaultPlan) -> Self {
        let mut p = Pipeline::new(deployment, seed);
        p.attach_chaos(plan);
        p
    }

    /// Attach a fault plan. Gateway outage windows are handed to the radio
    /// simulator; everything else is consulted at stage boundaries while
    /// the simulation runs. The engine is seeded with the pipeline seed, so
    /// the same (seed, plan) pair replays byte-identically.
    pub fn attach_chaos(&mut self, plan: FaultPlan) {
        if plan.storage_queue_capacity.is_some() || plan.storage_inflight_cap.is_some() {
            let capacity = plan.storage_queue_capacity.unwrap_or(65_536);
            self.broker.unsubscribe(&self.storage_sub);
            self.storage_sub = match plan.storage_inflight_cap {
                // Bounded in-flight store: past the cap the broker sheds
                // QoS1 overflow, which this pipeline owns as
                // `Lost(Backpressure)` at the publish site.
                Some(cap) => self.broker.subscribe_bounded(
                    UplinkEvent::all_filter(),
                    QoS::AtLeastOnce,
                    capacity,
                    cap,
                ),
                None => {
                    self.broker
                        .subscribe(UplinkEvent::all_filter(), QoS::AtLeastOnce, capacity)
                }
            };
        }
        if let Some(batch) = plan.drain_batch {
            self.drain_batch = batch.max(1);
        }
        if let Some(cfg) = plan.admission {
            self.admission = Some(AdmissionControl::new(
                cfg.burst,
                cfg.refill_per_hour,
                cfg.defer_cap,
            ));
        }
        let engine = ChaosEngine::new(self.seed, plan);
        self.radio.set_outages(engine.outage_windows());
        // Register the engine's windowed-state transitions (death edges,
        // bit-flip fire times) as events; past instants clamp to now so a
        // late attach still applies them on the next dispatch.
        let now = self.clock.now();
        for t in engine.transition_times() {
            self.events
                .schedule(t.max(now), PRIO_CHAOS, SimEvent::ChaosTransition);
        }
        self.chaos = Some(engine);
    }

    /// Current simulation time.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// The emission ground truth (for experiment comparisons).
    pub fn emission(&self) -> &EmissionModel {
        &self.emission
    }

    /// The broker (to attach extra live consumers, e.g. dashboards).
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// Mutable node access (fault injection).
    pub fn nodes_mut(&mut self) -> &mut [SensorNode] {
        &mut self.nodes
    }

    /// Install a synthetic-pollution scenario overlaid on node readings
    /// (the §3 "inject synthetic data showing different pollution levels").
    pub fn set_scenario(&mut self, scenario: ScenarioSet) {
        self.scenario = scenario;
    }

    /// Counters so far.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Radio network statistics.
    pub fn radio_stats(&self) -> ctt_lorawan::SimStats {
        self.radio.stats()
    }

    /// The loss ledger (conservation accounting for every uplink).
    pub fn ledger(&self) -> &LossLedger {
        &self.ledger
    }

    /// What the chaos engine has injected so far (zero when no plan).
    pub fn chaos_stats(&self) -> InjectionStats {
        self.chaos
            .as_ref()
            .map(|c| c.injected())
            .unwrap_or_default()
    }

    /// Canonical rendering of the dataport's append-only alarm log, one
    /// line per raise/clear in order. Byte-identical across replays of the
    /// same seed + plan — determinism tests compare this directly.
    pub fn alarm_trace(&self) -> String {
        let mut out = String::new();
        for a in self.dataport.alarm_log() {
            let _ = writeln!(
                out,
                "t={} {:?} [{}] {} {}",
                a.time.as_seconds(),
                a.kind,
                a.severity,
                a.source,
                a.message
            );
        }
        out
    }

    /// The metrics registry every layer of this pipeline publishes into
    /// (broker subscriber counters, TSDB store counters, chaos activations).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The flight recorder: the ring of recent stage enter/exit spans.
    /// Soak harnesses dump this on ledger-imbalance or alarm-mismatch.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Keep a bounded trace of the next `capacity` event dispatches — the
    /// `(time, priority, seq)` key plus the payload discriminant of each.
    /// Dispatch counters are unaffected; the trace shows up in
    /// [`Pipeline::scheduling_profile`].
    pub fn enable_dispatch_trace(&mut self, capacity: usize) {
        if let Some(obs) = self.events.obs_mut() {
            obs.enable_trace(capacity);
        }
    }

    /// Capture every metric — registered cells plus stage-boundary,
    /// ledger-cause, and scheduler values — at the current simulation time.
    /// Byte-identical (CSV and JSON) across replays of the same seed+plan.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = self.registry.snapshot(self.clock.now());
        snap.push_counter("stage.node.readings", self.stats.readings);
        snap.push_counter("stage.radio.delivered", self.stats.delivered);
        snap.push_counter("stage.radio.lost", self.stats.radio_lost);
        let bs = self.broker.stats();
        snap.push_counter("stage.broker.published", bs.published);
        snap.push_counter("stage.broker.delivered", bs.delivered);
        snap.push_counter("stage.broker.dropped_qos0", bs.dropped_qos0);
        snap.push_counter("stage.broker.deferred_qos1", bs.deferred_qos1);
        snap.push_counter("stage.broker.redelivered", bs.redelivered);
        snap.push_counter("stage.broker.shed", bs.shed);
        snap.push_gauge("stage.broker.retained", bs.retained as i64);
        snap.push_gauge("stage.broker.subscriptions", bs.subscriptions as i64);
        snap.push_counter("stage.server.adr_commands", self.stats.adr_commands);
        snap.push_counter("stage.tsdb.points_stored", self.stats.points_stored);
        snap.push_counter("stage.tsdb.decode_errors", self.stats.decode_errors);
        snap.push_counter(
            "stage.dataport.alarms",
            self.dataport.alarm_log().len() as u64,
        );
        for (cause, n) in self.ledger.cause_counts() {
            snap.push_counter(&format!("ledger.cause.{cause:?}"), n);
        }
        if let Some(a) = &self.admission {
            snap.push_counter("stage.bridge.admission_shed", a.shed_total());
            snap.push_counter("stage.bridge.admission_deferred", a.deferred_total());
            snap.push_gauge(
                "stage.bridge.admission_pending",
                self.admission_pending.len() as i64,
            );
        }
        snap.push_gauge("sim.queue.len", self.events.len() as i64);
        snap.push_gauge("sim.queue.high_water", self.events.high_water() as i64);
        if let Some(obs) = self.events.obs() {
            obs.publish(&mut snap);
        }
        snap
    }

    /// Canonical rendering of the scheduler's dispatch profile: queue
    /// depths, per-priority dispatch counts, the inter-event time
    /// histogram, and the dispatch trace when enabled. Byte-identical
    /// across replays of the same seed+plan.
    pub fn scheduling_profile(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "queue len={} high_water={}",
            self.events.len(),
            self.events.high_water()
        );
        if let Some(obs) = self.events.obs() {
            let _ = write!(out, "dispatch total={}", obs.dispatched());
            for (prio, n) in obs.dispatch_counts().iter().enumerate() {
                let _ = write!(out, " p{prio}={n}");
            }
            out.push('\n');
            let h = obs.inter_event();
            for (bound, n) in h.buckets() {
                let _ = writeln!(out, "inter_event le_{bound}={n}");
            }
            let _ = writeln!(
                out,
                "inter_event overflow={} count={} sum={}",
                h.overflow(),
                h.count(),
                h.sum()
            );
            // Bucket-resolution latency summary (nearest-rank; present
            // only once something was dispatched).
            if let (Some(p50), Some(p95), Some(p99)) =
                (h.percentile(500), h.percentile(950), h.percentile(990))
            {
                let _ = writeln!(out, "inter_event p50={p50} p95={p95} p99={p99}");
            }
            if let Some(trace) = obs.trace() {
                out.push_str(&trace.render());
            }
        }
        out
    }

    /// Advance the simulation until `end` by dispatching scheduled events
    /// in `(time, priority, seq)` order — no per-event scan over nodes, no
    /// polling. Exactly one transmission event per node is outstanding at
    /// any time; every accepted transmission schedules its own
    /// airtime-derived resolution deadline.
    pub fn run_until(&mut self, end: Timestamp) {
        while let Some(key) = self.events.peek_key() {
            // Boundary rule: ticks and radio deadlines landing exactly on
            // `end` belong to this run (the lockstep loop drained both);
            // chaos transitions and transmissions at `end` belong to the
            // next. The same rule on both sides of a split point is what
            // makes `run_until(a); run_until(b)` ≡ `run_until(b)`.
            let within = key.time < end || (key.time == end && key.priority <= PRIO_RADIO);
            if !within {
                break;
            }
            let Some((key, event)) = self.events.pop() else {
                break;
            };
            let now = self.clock.advance(key.time);
            self.dispatch_event(now, event);
        }
        self.finish_segment(end);
    }

    /// Dispatch one popped event at `now`; handlers file follow-up events
    /// straight into `self.events`.
    fn dispatch_event(&mut self, now: Timestamp, event: SimEvent) {
        self.recorder.enter(now, event.label());
        match event {
            SimEvent::DataportTick => {
                self.dataport.tick(now);
                if let Some(next) = self.dataport.next_event(now) {
                    self.events
                        .schedule(next, PRIO_TICK, SimEvent::DataportTick);
                }
            }
            SimEvent::RadioResolve => {
                self.radio.resolve_until(now);
                self.process_radio_outcomes();
            }
            SimEvent::ChaosTransition => self.apply_chaos(now),
            SimEvent::NodeTx(idx) => self.node_transmit(idx, now),
            SimEvent::StorageDrain => {
                self.drain_scheduled = false;
                self.pump_admission(now);
                self.consume_storage();
            }
        }
        self.recorder.exit(now, event.label());
    }

    /// End-of-segment settlement: windows still open whose deadlines lie
    /// beyond `end` can be resolved early iff no future submission can
    /// overlap them — the nodes' next transmission is that bound, so
    /// resolving up to it is exact (the full interferer set of everything
    /// resolved is already in flight).
    /// One O(N) pass per segment, not per event; the leftover deadline
    /// events become no-ops when they fire. Finally the clock advances to
    /// `end`.
    fn finish_segment(&mut self, end: Timestamp) {
        if let Some(next_tx) = self.nodes.iter().map(SensorNode::next_due).min() {
            self.radio.resolve_until(next_tx);
        }
        self.process_radio_outcomes();
        self.clock.advance(end);
    }

    /// Handle one node's transmission event at `now`: step the node,
    /// apply scenario overlays and inline chaos, submit to the radio, and
    /// reschedule the node at its new due time.
    fn node_transmit(&mut self, idx: usize, now: Timestamp) {
        let Some(node) = self.nodes.get_mut(idx) else {
            return;
        };
        let node_pos = node.site().position;
        if let Some(mut reading) = node.step(&self.emission, now) {
            reading = self.scenario.apply_reading(&reading, node_pos);
            self.stats.readings += 1;
            let device = reading.device;
            self.ledger.produced(device, now);
            if let Some(level) = self
                .chaos
                .as_ref()
                .and_then(|c| c.battery_override(device, now))
            {
                // Stuck telemetry only: the node's real battery (and
                // hence its transmit cadence) is untouched.
                reading.battery_pct = level;
            }
            let state = self.radio_state.entry(device).or_default();
            let mut frame =
                UplinkFrame::new(device, state.fcnt, 2, payload::encode(&reading).to_vec());
            let channel = usize::from(state.fcnt) % 3;
            state.fcnt = state.fcnt.wrapping_add(1);
            let sf = state.data_rate.spreading_factor();
            let tx_power_dbm = state.tx_power_dbm;
            let mut submit = true;
            if let Some(fault) = self.chaos.as_mut().and_then(|c| c.frame_fault(device, now)) {
                self.chaos_obs.frame_fault.inc();
                match Self::mutate_frame(&frame, fault) {
                    // The mangled frame still decodes (flip landed in
                    // padding, truncation kept a valid prefix): it
                    // travels on as-is.
                    Ok(mangled) => frame = mangled,
                    Err(cause) => {
                        // Gateway CRC check drops it; own the loss.
                        self.ledger.attribute(device, now, cause);
                        submit = false;
                    }
                }
            }
            if submit {
                let req = TxRequest {
                    device,
                    position: node_pos,
                    frame,
                    sf,
                    tx_power_dbm,
                    channel,
                };
                match self.radio.submit(now, req) {
                    Some(airtime) => {
                        // Schedule this window's resolution at its deadline:
                        // submissions land on whole seconds, so the window
                        // is certainly closed at ceil(now + airtime) — and
                        // always within the airtime-derived horizon.
                        let bound = collision_horizon().as_seconds();
                        let delay = (airtime.ceil() as i64).clamp(1, bound);
                        self.events.schedule(
                            now + Span::seconds(delay),
                            PRIO_RADIO,
                            SimEvent::RadioResolve,
                        );
                    }
                    None => {
                        // Duty-cycle refusal: the loss is known immediately
                        // (no window opens), so account for it now.
                        self.absorb_radio_losses();
                    }
                }
            }
        }
        // Reschedule the node at its post-step due time. `step` is the only
        // mutation of `next_due`, so exactly one event per node stays
        // outstanding.
        if let Some(node) = self.nodes.get(idx) {
            self.events
                .schedule(node.next_due(), PRIO_NODE, SimEvent::NodeTx(idx));
        }
    }

    /// Apply time-windowed chaos state at `now`: node death transitions
    /// and due TSDB bit flips. (Outage windows live in the radio simulator;
    /// per-frame and per-delivery faults are consulted inline.)
    fn apply_chaos(&mut self, now: Timestamp) {
        if self.chaos.is_none() {
            return;
        }
        let flips = self
            .chaos
            .as_mut()
            .map(|c| c.due_bitflips(now))
            .unwrap_or_default();
        for (nth_chunk, bit) in flips {
            self.chaos_obs.bitflip.inc();
            match self.tsdb.flip_chunk_bit(nth_chunk, bit) {
                BitFlipOutcome::Quarantined { points } => {
                    // The integrity scan must later account for exactly these.
                    self.ledger.storage_quarantined(u64::from(points));
                }
                // Distinct non-destructive outcomes: an empty store, a chunk
                // whose bitstream had no bytes to flip, or a flip the codec
                // survived. None destroys data, so none enters the ledger.
                BitFlipOutcome::NoChunks
                | BitFlipOutcome::BitOutOfRange
                | BitFlipOutcome::StillReadable => {}
            }
        }
        let deaths: Vec<(DevEui, bool)> = self
            .chaos
            .as_ref()
            .map(|c| {
                c.death_devices()
                    .into_iter()
                    .map(|d| (d, c.death_active(d, now)))
                    .collect()
            })
            .unwrap_or_default();
        for (device, want_dead) in deaths {
            let applied = self.chaos_dead.get(&device).copied().unwrap_or(false);
            if want_dead == applied {
                continue;
            }
            if let Some(&idx) = self.node_index.get(&device) {
                if let Some(node) = self.nodes.get_mut(idx) {
                    node.set_health(if want_dead {
                        NodeHealth::Dead
                    } else {
                        NodeHealth::Healthy
                    });
                    self.chaos_dead.insert(device, want_dead);
                    self.chaos_obs.death_edge.inc();
                }
            }
        }
    }

    /// Apply an air-interface fault to an encoded frame. `Err(cause)` means
    /// the gateway's CRC check rejects the result — the uplink is lost and
    /// the cause is the attribution the ledger records.
    fn mutate_frame(frame: &UplinkFrame, fault: FrameFault) -> Result<UplinkFrame, CauseCode> {
        let mut bytes = frame.encode();
        let cause = match fault {
            FrameFault::CorruptBit { bit } => {
                if !bytes.is_empty() {
                    let b = bit % (bytes.len() as u64 * 8);
                    if let Some(byte) = bytes.get_mut((b / 8) as usize) {
                        *byte ^= 1 << (b % 8);
                    }
                }
                CauseCode::FrameCorrupted
            }
            FrameFault::Truncate { keep } => {
                let len = bytes.len().max(1) as u64;
                bytes.truncate((keep % len) as usize);
                CauseCode::FrameTruncated
            }
        };
        match UplinkFrame::decode(&bytes) {
            Ok(mangled) => Ok(mangled),
            Err(_) => Err(cause),
        }
    }

    /// Account for radio losses resolved so far: ledger attribution plus
    /// device-side link backoff (a real node that gets no downlink/ack for
    /// several uplinks falls back one data rate to regain range).
    fn absorb_radio_losses(&mut self) {
        let lost = self.radio.drain_lost();
        self.stats.radio_lost += lost.len() as u64;
        for l in &lost {
            self.ledger
                .attribute(l.device, l.time, CauseCode::from_loss(l.reason));
            let st = self.radio_state.entry(l.device).or_default();
            let sf = st.data_rate.spreading_factor();
            let new_sf = st.backoff.on_uplink(false, sf);
            st.data_rate = DataRate::from_sf(new_sf);
        }
    }

    /// Push every already-resolved radio outcome downstream: losses first
    /// (as the lockstep loop did), then deliveries through server → broker
    /// → storage → dataport.
    fn process_radio_outcomes(&mut self) {
        self.absorb_radio_losses();
        // Held-back uplinks go first when tokens allow: admission is FIFO
        // per gateway, so a deferred record is never overtaken by a newer
        // one from the same gateway.
        self.pump_admission(self.clock.now());
        let deliveries = self.radio.drain_resolved();
        for d in deliveries {
            self.stats.delivered += 1;
            {
                let dev = d.frame.dev_eui;
                let st = self.radio_state.entry(dev).or_default();
                let sf = st.data_rate.spreading_factor();
                st.backoff.on_uplink(true, sf);
            }
            let Some((record, adr)) = self.server.ingest(&d) else {
                self.ledger
                    .attribute(d.frame.dev_eui, d.time, CauseCode::ServerDuplicate);
                continue;
            };
            self.ledger.accepted(record.device, record.time);
            if let Some(cmd) = adr {
                let st = self.radio_state.entry(record.device).or_default();
                st.data_rate = cmd.data_rate;
                st.tx_power_dbm = cmd.tx_power_dbm;
                self.stats.adr_commands += 1;
            }
            self.publish_uplink(&record);
            if let Some(factor) = self
                .chaos
                .as_ref()
                .and_then(|c| c.traffic_spike_factor(record.time))
            {
                self.amplify_spike(&record, factor);
            }
        }
        self.consume_storage();
    }

    /// Traffic-spike amplification: for each real uplink delivered inside
    /// an active spike window, inject `factor - 1` synthetic uplinks from
    /// distinct synthetic devices through the normal publish path (the
    /// paper's "what if the whole city transmits at once"). Each synthetic
    /// uplink is a first-class ledger entry — produced, accepted, and then
    /// either stored or shed with an attributed cause — so conservation
    /// still balances under a ×100 burst.
    fn amplify_spike(&mut self, r: &UplinkRecord, factor: u32) {
        for _ in 1..factor {
            let device = self.spike_device(r.time);
            let mut synth = r.clone();
            synth.device = device;
            self.ledger.produced(device, synth.time);
            self.ledger.accepted(device, synth.time);
            self.publish_uplink(&synth);
        }
    }

    /// Allocate a synthetic spike device for an uplink at `time`: distinct
    /// within one instant (distinct `(device, time)` ledger keys), reused
    /// across instants (bounded twin/alarm population).
    fn spike_device(&mut self, time: Timestamp) -> DevEui {
        if self.spike_at != Some(time) {
            self.spike_at = Some(time);
            self.spike_seq = 0;
        }
        let device = DevEui::ctt(SPIKE_EUI_BASE + self.spike_seq);
        self.spike_seq = self.spike_seq.wrapping_add(1);
        device
    }

    /// Publish one uplink record to the broker in TTN shape, through the
    /// bridge admission controller when one is configured. Deferred records
    /// wait in `admission_pending` for a token; shed records are owned as
    /// `Lost(Backpressure)` and raise the dataport's backpressure alarm.
    fn publish_uplink(&mut self, r: &UplinkRecord) {
        let now = self.clock.now();
        if let Some(ctrl) = self.admission.as_mut() {
            match ctrl.admit(r.via_gateway, now) {
                Admission::Granted => {}
                Admission::Deferred => {
                    self.admission_pending.push_back(r.clone());
                    // A drain event doubles as the retry tick, so held
                    // records drain even if the radio goes quiet.
                    self.ensure_drain_scheduled(now);
                    return;
                }
                Admission::Shed => {
                    self.ledger
                        .attribute(r.device, r.time, CauseCode::Backpressure);
                    self.dataport.raise_alarm(
                        AlarmKind::Backpressure,
                        "bridge.admission",
                        now,
                        "uplink shed at bridge admission (token bucket dry)".to_string(),
                    );
                    return;
                }
            }
        }
        self.publish_to_broker(r);
    }

    /// Release admission-deferred records whose gateway has tokens again,
    /// in arrival order. No-op without an admission controller.
    fn pump_admission(&mut self, now: Timestamp) {
        if self.admission.is_none() || self.admission_pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.admission_pending);
        for rec in pending {
            let granted = self
                .admission
                .as_mut()
                .map(|a| a.retry(rec.via_gateway, now))
                .unwrap_or(false);
            if granted {
                self.publish_to_broker(&rec);
            } else {
                self.admission_pending.push_back(rec);
            }
        }
    }

    /// The admitted publish: broker delivery with bounded retry. A copy
    /// shed at the storage subscriber's in-flight cap is gone for good —
    /// only the storage subscription is ever capped, so `shed > 0` means
    /// the uplink will never be stored and the publisher owns the loss.
    fn publish_to_broker(&mut self, r: &UplinkRecord) {
        let event = &mut self.outbound;
        event.device = r.device;
        event.fcnt = r.fcnt;
        event.port = r.port;
        event.time = r.time;
        event.gateway = r.via_gateway;
        event.rssi_dbm = r.rssi_dbm;
        event.snr_db = r.snr_db;
        event.gateway_count = r.gateway_count;
        event.payload.clear();
        event.payload.extend_from_slice(&r.payload);
        // Bounded retry with exponential backoff: a full storage queue
        // defers QoS1 deliveries instead of losing them, and the bridge
        // gives up after the policy's attempts rather than spinning.
        let report = event.publish_with_retry(&self.broker, RetryPolicy::default());
        if report.shed > 0 {
            self.ledger
                .attribute(r.device, r.time, CauseCode::Backpressure);
            self.dataport.raise_alarm(
                AlarmKind::Backpressure,
                "broker.storage",
                self.clock.now(),
                "delivery shed at storage subscriber in-flight cap".to_string(),
            );
        }
    }

    /// The storage consumer: decode uplink events into TSDB points and feed
    /// the dataport twins. Each run is bounded to `drain_batch` deliveries;
    /// leftover backlog is worked off by scheduled [`SimEvent::StorageDrain`]
    /// events instead of one unbounded dispatch, so tick latency stays flat
    /// under overload. While a drain is scheduled, opportunistic runs stand
    /// down — all backlog work flows through the calendar, which is what
    /// keeps segmented `run_until` calls split-invariant.
    fn consume_storage(&mut self) {
        let now = self.clock.now();
        if self
            .chaos
            .as_ref()
            .map(|c| c.broker_stalled(now))
            .unwrap_or(false)
        {
            // Injected consumer stall: deliveries wait in the broker queue
            // (QoS1 keeps them in flight) until the window passes.
            // `broker_stall` edge-counts distinct windows; `stall_ticks`
            // tallies the raw skipped runs.
            if !self.stall_active {
                self.stall_active = true;
                self.chaos_obs.broker_stall.inc();
            }
            self.chaos_obs.stall_ticks.inc();
            // Keep a drain on the calendar so the backlog is picked up
            // when the window passes even if the radio goes quiet.
            self.ensure_drain_scheduled(now);
            return;
        }
        self.stall_active = false;
        if self.drain_scheduled {
            return;
        }
        self.recorder.enter(now, "storage");
        self.drain_storage(self.drain_batch);
        self.recorder.exit(now, "storage");
        self.ensure_drain_scheduled(now);
    }

    /// One bounded drain pass: up to `limit` deliveries through the
    /// exactly-once ack gate, each decoded and applied in delivery order,
    /// then one `ShardedTsdb::append` for the pass.
    fn drain_storage(&mut self, limit: usize) {
        let mut event = std::mem::take(&mut self.inbound);
        let mut taken = 0;
        while taken < limit {
            let Some(delivery) = self.storage_sub.try_recv() else {
                break;
            };
            if let Some(pid) = delivery.packet_id {
                if !self.broker.ack(self.storage_sub.id, pid) {
                    // Already acked: a redelivered copy of an uplink
                    // this consumer has processed. Exactly-once gate.
                    continue;
                }
            }
            taken += 1;
            self.decode_delivery(&mut event, &delivery.message.payload);
        }
        self.inbound = event;
        self.stats.points_stored += self.tsdb.append(&self.points);
        self.points.clear();
        // Queue headroom opened: pull back QoS1 deliveries deferred while
        // it was full. One round per pass — a scheduled drain picks up
        // whatever is still deferred.
        self.broker.redeliver_deferred();
    }

    /// Decode one delivery into `event` (the pass's reused scratch event)
    /// and apply it: ledger, twins, and the points the pass submits. A
    /// payload that fails to decode is counted, and attributed in the
    /// ledger when its envelope named the device.
    fn decode_delivery(&mut self, event: &mut UplinkEvent, bytes: &[u8]) {
        if event.decode_into(bytes).is_err() {
            self.stats.decode_errors += 1;
            return;
        }
        let Ok(reading) = payload::decode(&event.payload, event.device, event.time) else {
            self.stats.decode_errors += 1;
            self.ledger
                .attribute(event.device, event.time, CauseCode::DecodeError);
            return;
        };
        let skew = self
            .chaos
            .as_ref()
            .and_then(|c| c.clock_skew(event.device, event.time))
            .unwrap_or(Span::seconds(0));
        self.collect_points(event, &reading, skew);
        self.ledger.stored(event.device, event.time);
        self.dataport.on_uplink(
            event.device,
            event.time,
            reading.battery_pct,
            event.gateway,
            Dbm(event.rssi_dbm),
        );
    }

    /// Schedule a [`SimEvent::StorageDrain`] one logical second out if
    /// backlog remains anywhere — queued deliveries, deferred QoS1 copies,
    /// or admission-held records — and none is outstanding yet.
    fn ensure_drain_scheduled(&mut self, now: Timestamp) {
        if self.drain_scheduled {
            return;
        }
        if self.storage_sub.pending() > 0
            || self.broker.deferred_count() > 0
            || !self.admission_pending.is_empty()
        {
            self.events
                .schedule(now + Span::seconds(1), PRIO_DRAIN, SimEvent::StorageDrain);
            self.drain_scheduled = true;
        }
    }

    /// Turn one decoded uplink into its TSDB points, appended to the batch
    /// the storage stage writes with one `ShardedTsdb::append` call.
    fn collect_points(&mut self, event: &UplinkEvent, reading: &SensorReading, skew: Span) {
        let ids = match self.series.get(&event.device) {
            Some(&ids) => ids,
            None => {
                let ids = self.register_device(event.device);
                self.series.insert(event.device, ids);
                ids
            }
        };
        let Some(ids) = ids else {
            return;
        };
        // Clock skew perturbs only the stored timestamps — the twins (and
        // the ledger key) still see the uplink's transport time.
        let at = event.time + skew;
        let values = Quantity::ALL
            .iter()
            .map(|&q| reading.value(q))
            .chain(std::iter::once(event.rssi_dbm));
        self.points
            .extend(ids.iter().zip(values).map(|(&id, v)| (id, at, v)));
    }

    /// Register one device's series with the store, in the order its
    /// points are stored. `None` if the store refuses a name.
    fn register_device(&self, device: DevEui) -> Option<[SeriesId; SERIES_PER_DEVICE]> {
        let tags: TagSet = [
            ("city".to_string(), self.city_slug.clone()),
            ("device".to_string(), format!("{:016x}", device.0)),
        ]
        .into();
        let ids: Vec<SeriesId> = Quantity::ALL
            .iter()
            .map(|q| q.metric_name())
            .chain(std::iter::once(RSSI_METRIC.to_string()))
            .map(|metric| self.tsdb.register(&metric, &tags))
            .collect::<Option<_>>()?;
        ids.try_into().ok()
    }

    /// Serve a query from the city's store, through its query cache and
    /// rollups. Answers exactly as [`Pipeline::query_raw`] does.
    pub fn query(&mut self, q: &Query) -> Vec<QueryResult> {
        // The store reports corruption as quarantine counts, never `Err`.
        self.tsdb.execute(q).unwrap_or_default()
    }

    /// The oracle for [`Pipeline::query`]: the same query, uncached and
    /// decoded from raw chunks. It counts nothing, so reading it moves no
    /// metric of [`Pipeline::metrics_snapshot`].
    pub fn query_raw(&self, q: &Query) -> Vec<QueryResult> {
        self.tsdb.execute_raw(q)
    }

    /// The store's size: series, points, chunks and bytes.
    pub fn store_stats(&self) -> StoreStats {
        self.tsdb.stats()
    }

    /// The store's rollup bytes per float column and coding.
    pub fn rollup_column_bytes(&self) -> ColumnBytes {
        self.tsdb.rollup_column_bytes()
    }

    /// The query cache's hit, miss and eviction counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.tsdb.cache_stats()
    }

    /// Seal every open buffer into chunks (e.g. before measuring bytes).
    pub fn seal_all(&mut self) {
        self.tsdb.seal_all();
    }

    /// Trial-decode every sealed chunk: `readable_points +
    /// quarantined_points` equals the points stored, the conservation
    /// the chaos loss ledger checks.
    pub fn integrity_scan(&self) -> IntegrityReport {
        self.tsdb.integrity_scan()
    }

    /// Query one device's series for a quantity over `[from, to)` at the
    /// stored resolution.
    pub fn device_series(
        &mut self,
        device: DevEui,
        quantity: Quantity,
        from: Timestamp,
        to: Timestamp,
    ) -> Series {
        self.avg_series(quantity, from, to, "device", format!("{:016x}", device.0))
    }

    /// City-wide average series for a quantity.
    pub fn city_series(&mut self, quantity: Quantity, from: Timestamp, to: Timestamp) -> Series {
        self.avg_series(quantity, from, to, "city", self.city_slug.clone())
    }

    /// The average over every series of `quantity` tagged `key=value`, in
    /// `[from, to)`; empty when none matches. A corrupt chunk is
    /// quarantined inside the query result, so the read itself answers.
    fn avg_series(
        &mut self,
        quantity: Quantity,
        from: Timestamp,
        to: Timestamp,
        key: &str,
        value: String,
    ) -> Series {
        let q = Query::range(quantity.metric_name(), from, to)
            .with_tag(key, value)
            .aggregate(Aggregator::Avg);
        self.query(&q)
            .into_iter()
            .next()
            .map(|r| r.series)
            .unwrap_or_default()
    }

    /// The gateway ids of this pilot.
    pub fn gateway_ids(&self) -> Vec<GatewayId> {
        self.deployment.gateways.iter().map(|g| g.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctt_core::node::NodeHealth;
    use ctt_core::quantity::Pollutant;
    use ctt_dataport::AlarmKind;

    fn run_hours(hours: i64) -> Pipeline {
        let mut p = Pipeline::new(Deployment::vejle(), 42);
        let start = p.deployment.started;
        p.run_until(start + Span::hours(hours));
        p
    }

    #[test]
    fn data_flows_end_to_end() {
        let p = run_hours(2);
        let st = p.stats();
        // 2 nodes × 12 uplinks/hour × 2 h = 48 readings.
        assert_eq!(st.readings, 48);
        assert!(st.delivered > 40, "delivered {}", st.delivered);
        assert_eq!(st.decode_errors, 0);
        // 9 points per uplink (8 quantities + RSSI).
        assert_eq!(st.points_stored, st.delivered * 9);
        assert_eq!(p.store_stats().points, st.points_stored);
        // Conservation holds even without chaos: every reading is stored
        // or attributed to a radio-level cause.
        let verdict = p.ledger().verify();
        assert!(verdict.is_balanced(), "{verdict:?}");
        assert_eq!(verdict.produced, st.readings);
        assert_eq!(verdict.stored, st.delivered);
    }

    #[test]
    fn a_city_name_with_a_space_is_stored_under_its_slug() {
        // Verbatim, "New York" split the wire line's city field in two:
        // every uplink failed to decode and, naming no device, went
        // unattributed in the ledger.
        let mut deployment = Deployment::trondheim();
        deployment.city = "New York".to_string();
        let mut p = Pipeline::new(deployment, 42);
        let start = p.deployment.started;
        p.run_until(start + Span::hours(3));
        let st = p.stats();
        assert!(st.delivered > 300, "delivered {}", st.delivered);
        assert_eq!(st.decode_errors, 0);
        assert_eq!(st.points_stored, st.delivered * 9);
        assert_eq!(p.store_stats().points, st.points_stored);
        let verdict = p.ledger().verify();
        assert!(verdict.is_balanced(), "{verdict:?}");
        assert_eq!(verdict.stored, st.delivered);
        let by_city = Query::range(
            Quantity::Temperature.metric_name(),
            start,
            start + Span::hours(3),
        )
        .with_tag("city", "new_york");
        let stored = p.query(&by_city);
        assert!(stored.iter().any(|r| !r.series.is_empty()));
        assert!(!p
            .city_series(Quantity::Temperature, start, start + Span::hours(3))
            .is_empty());
    }

    #[test]
    fn tsdb_contains_queryable_series() {
        let mut p = run_hours(3);
        let start = p.deployment.started;
        let dev = p.deployment.nodes[0].eui;
        let co2 = p.device_series(
            dev,
            Quantity::Pollutant(Pollutant::Co2),
            start,
            start + Span::hours(3),
        );
        assert!(co2.len() > 25, "CO2 points {}", co2.len());
        assert!(co2.values().all(|v| (300.0..1500.0).contains(&v)));
        let city = p.city_series(Quantity::Temperature, start, start + Span::hours(3));
        assert!(!city.is_empty());
    }

    #[test]
    fn dataport_sees_all_devices_online() {
        let p = run_hours(2);
        let snap = p.dataport.snapshot(p.now());
        assert_eq!(snap.sensors.len(), 2);
        for s in &snap.sensors {
            assert_eq!(s.state, ctt_dataport::TwinState::Online, "{:?}", s.device);
            assert!(s.uplinks > 0);
            assert!(s.battery_pct.is_some());
        }
        assert_eq!(snap.gateways.len(), 1);
        assert!(snap.gateways[0].frames > 0);
    }

    #[test]
    fn dead_node_raises_offline_alarm() {
        let mut p = Pipeline::new(Deployment::vejle(), 42);
        let start = p.deployment.started;
        p.run_until(start + Span::hours(1));
        let victim = p.deployment.nodes[0].eui;
        p.nodes_mut()[0].set_health(NodeHealth::Dead);
        p.run_until(start + Span::hours(2));
        let alarms = p.dataport.active_alarms();
        assert!(
            alarms
                .iter()
                .any(|a| a.kind == AlarmKind::SensorOffline
                    && a.source.contains(&victim.to_string())),
            "no offline alarm for {victim}: {alarms:?}"
        );
        // The other node is unaffected.
        let snap = p.dataport.snapshot(p.now());
        let other = snap
            .sensors
            .iter()
            .find(|s| s.device != victim)
            .expect("two sensors");
        assert_eq!(other.state, ctt_dataport::TwinState::Online);
    }

    #[test]
    fn scenario_injection_shifts_stored_values() {
        use ctt_core::scenario::{Injection, ScenarioKind};
        let start = Deployment::vejle().started;
        let node_pos = Deployment::vejle().nodes[0].site.position;
        // Baseline run.
        let mut base = Pipeline::new(Deployment::vejle(), 42);
        base.run_until(start + Span::hours(2));
        // Run with a construction site on top of node 0.
        let mut injected = Pipeline::new(Deployment::vejle(), 42);
        let mut set = ScenarioSet::new();
        set.add(Injection {
            kind: ScenarioKind::ConstructionSite,
            center: node_pos,
            radius_m: 150.0,
            from: start,
            until: start + Span::days(30),
            intensity: 1.0,
        });
        injected.set_scenario(set);
        injected.run_until(start + Span::hours(2));
        let dev = base.deployment.nodes[0].eui;
        let range = (start, start + Span::hours(2));
        let q = Quantity::Pollutant(Pollutant::Pm10);
        let base_mean: f64 = {
            let s = base.device_series(dev, q, range.0, range.1);
            s.values().sum::<f64>() / s.len() as f64
        };
        let inj_mean: f64 = {
            let s = injected.device_series(dev, q, range.0, range.1);
            s.values().sum::<f64>() / s.len() as f64
        };
        assert!(
            inj_mean > base_mean + 40.0,
            "construction dust not visible: base {base_mean:.1}, injected {inj_mean:.1}"
        );
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let p = run_hours(1);
            (p.stats(), p.store_stats().points)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trondheim_full_fleet() {
        let mut p = Pipeline::new(Deployment::trondheim(), 7);
        let start = p.deployment.started;
        p.run_until(start + Span::hours(1));
        let st = p.stats();
        // 12 nodes × 12 uplinks/hour = 144 readings (first uplinks are
        // phase-jittered inside the first interval, so ±12).
        assert!((132..=144).contains(&st.readings), "{st:?}");
        // Urban propagation loses some distant nodes' frames, but most flow.
        assert!(st.delivered as f64 > 0.7 * st.readings as f64, "{st:?}");
        let snap = p.dataport.snapshot(p.now());
        assert_eq!(snap.sensors.len(), 12);
    }
}
