//! The layer probes of the traced run: the station ladder, the query-class
//! probe and the runner probe.
//!
//! `Pipeline::run_until` is one opaque call from outside, so the traced run
//! cannot see where its time goes. The **station ladder** answers that
//! without touching the program: it builds the same layers through their
//! public constructors exactly as `Pipeline::new` does and drives the same
//! input through them one Fig. 2 station at a time, a simulated day per
//! batch, with a span around each station's batch:
//!
//! ```text
//! SensorNode::step + payload::encode            core.node_step
//! RadioSimulator::submit / resolve / drain      lorawan.radio
//! NetworkServer::ingest                         lorawan.server
//! UplinkEvent::publish_with_retry               broker.publish
//! Subscriber::try_recv + Broker::ack            broker.drain
//! UplinkEvent::decode + payload::decode         broker.decode
//! Dataport::on_uplink / tick                    dataport.on_uplink / .tick
//! DataPoint::new × 9                            pipeline.collect_points
//! IngestRuntime::submit                         ingest.submit
//! IngestRuntime::flush                          ingest.flush
//! ShardedTsdb::seal_all                         tsdb.seal_all
//! EventQueue schedule + pop (replay)            sim.queue
//! ```
//!
//! The radio and the network server feed back into later transmissions
//! (ADR commands, link back-off), so those two stations run interleaved in
//! event order and file their summed call times; every later station has no
//! path back and runs as a plain batch. A reference `Pipeline` runs the same
//! city and days beside the ladder: delivered uplinks and stored points
//! must agree exactly — which proves the ladder times the same work — and
//! the stations' sum over the pipeline's own time is `trace.coverage`.
//!
//! This is the one file that knows the layers' constructors and call
//! sequence; the workloads stay on `ctt::prelude` and `tsdb.execute`.

use crate::dashboard::{CityView, Class, Client};
use crate::layers::histogram_p50;
use crate::measure::{Checks, Meas};
use crate::rng::derive;
use crate::trace::Tracer;
use crate::workloads::{build_world, deployments, Digest, Sizes, World};
use ctt::broker::{Broker, QoS, RetryPolicy, UplinkEvent};
use ctt::core::measurement::SensorReading;
use ctt::core::payload;
use ctt::core::units::Dbm;
use ctt::dataport::{Dataport, DataportConfig};
use ctt::lorawan::{
    DataRate, GatewayConfig, LinkBackoff, NetworkServer, RadioSimulator, SimConfig, TxRequest,
    UplinkFrame, UplinkRecord,
};
use ctt::obs::Registry;
use ctt::prelude::*;
use ctt::sim::{EventQueue, QueueObs, Schedulable};
use ctt::tsdb::{
    Aggregator, DataPoint, Downsample, FillPolicy, Query, ShardedTsdb, DEFAULT_SHARDS,
};
use ctt_ingest::{IngestConfig, IngestRuntime};
use std::collections::HashMap;
use std::time::Instant;

/// The station spans whose busy time is compared with the pipeline's.
pub const STATIONS: [&str; 12] = [
    "core.node_step",
    "lorawan.radio",
    "lorawan.server",
    "broker.publish",
    "broker.drain",
    "broker.decode",
    "dataport.on_uplink",
    "dataport.tick",
    "pipeline.collect_points",
    "ingest.submit",
    "ingest.flush",
    "sim.queue",
];

/// Per-device radio state, as the pipeline keeps it.
#[derive(Debug, Clone, Copy)]
struct RadioState {
    data_rate: DataRate,
    tx_power_dbm: f64,
    fcnt: u16,
    backoff: LinkBackoff,
}

impl Default for RadioState {
    fn default() -> Self {
        RadioState {
            data_rate: DataRate(2),
            tx_power_dbm: 14.0,
            fcnt: 0,
            backoff: LinkBackoff::new(4),
        }
    }
}

/// One transmission the node station produced.
#[derive(Debug)]
struct Tx {
    time: Timestamp,
    node: usize,
    reading: SensorReading,
    payload: [u8; payload::PAYLOAD_LEN],
}

/// Busy-time accumulator for a station whose calls are interleaved with
/// another's.
#[derive(Debug, Default)]
struct Busy {
    ns: u64,
}

impl Busy {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.ns += started.elapsed().as_nanos() as u64;
        out
    }
}

/// What the ladder and its reference pipeline produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LadderOutcome {
    /// Readings the ladder's nodes produced.
    pub readings: u64,
    /// Uplinks the ladder's radio delivered.
    pub delivered: u64,
    /// Points the ladder stored.
    pub points: u64,
    /// Wall time of the reference pipeline's `run_until` calls.
    pub reference_ns: u64,
}

/// The air interface and network server, run in event order. Returns the
/// accepted records with the instant each was handed downstream.
struct Air<'a> {
    radio: RadioSimulator,
    server: NetworkServer,
    state: HashMap<DevEui, RadioState>,
    radio_busy: Busy,
    server_busy: Busy,
    delivered: u64,
    out: Vec<(UplinkRecord, Timestamp)>,
    positions: &'a [ctt::core::geo::LatLon],
}

impl Air<'_> {
    /// Everything resolved so far: losses feed link back-off, deliveries go
    /// through the server (dedup, ADR) and on downstream, stamped `at`.
    fn process_outcomes(&mut self, at: Timestamp) {
        let lost = self.radio_busy.time(|| self.radio.drain_lost());
        for l in lost {
            let st = self.state.entry(l.device).or_default();
            let sf = st.data_rate.spreading_factor();
            st.data_rate = DataRate::from_sf(st.backoff.on_uplink(false, sf));
        }
        let deliveries = self.radio_busy.time(|| self.radio.drain_resolved());
        for d in deliveries {
            self.delivered += 1;
            let st = self.state.entry(d.frame.dev_eui).or_default();
            let sf = st.data_rate.spreading_factor();
            st.backoff.on_uplink(true, sf);
            let Some((record, adr)) = self.server_busy.time(|| self.server.ingest(&d)) else {
                continue;
            };
            if let Some(cmd) = adr {
                let st = self.state.entry(record.device).or_default();
                st.data_rate = cmd.data_rate;
                st.tx_power_dbm = cmd.tx_power_dbm;
            }
            self.out.push((record, at));
        }
    }

    /// Fire every window deadline up to and including `until`, in order.
    fn resolve_deadlines(&mut self, until: Timestamp) {
        while let Some(deadline) = self.radio_busy.time(|| self.radio.next_deadline()) {
            if deadline > until {
                break;
            }
            self.radio_busy.time(|| self.radio.resolve_until(deadline));
            self.process_outcomes(deadline);
        }
    }

    fn transmit(&mut self, tx: &Tx) {
        self.resolve_deadlines(tx.time);
        let device = tx.reading.device;
        let st = self.state.entry(device).or_default();
        let frame = UplinkFrame::new(device, st.fcnt, 2, tx.payload.to_vec());
        let channel = usize::from(st.fcnt) % 3;
        st.fcnt = st.fcnt.wrapping_add(1);
        let req = TxRequest {
            device,
            position: self.positions[tx.node],
            frame,
            sf: st.data_rate.spreading_factor(),
            tx_power_dbm: st.tx_power_dbm,
            channel,
        };
        if self
            .radio_busy
            .time(|| self.radio.submit(tx.time, req))
            .is_none()
        {
            // Duty-cycle refusal: known at once, no window opens.
            self.process_outcomes(tx.time);
        }
    }
}

/// Drive `days` simulated days of `deployment` through the station ladder
/// and, beside it, through a reference `Pipeline` in 1-day segments; check
/// that both did the same work. Spans go to `tracer`.
pub fn ladder(
    deployment: &Deployment,
    seed: u64,
    days: i64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> (LadderOutcome, Pipeline) {
    // The layers, built as `Pipeline::new` builds them.
    let emission = deployment.emission_model(seed);
    let mut nodes = deployment.spawn_nodes(seed);
    let gateways = deployment
        .gateways
        .iter()
        .map(|g| GatewayConfig::standard(g.id, g.position, g.antenna_m))
        .collect();
    let registry = Registry::new();
    let broker = Broker::with_registry(registry.clone());
    let storage_sub = broker.subscribe(UplinkEvent::all_filter(), QoS::AtLeastOnce, 65_536);
    let mut tsdb = ShardedTsdb::new(DEFAULT_SHARDS);
    tsdb.attach_registry(&registry);
    let mut ingest = IngestRuntime::new(&tsdb, &registry, IngestConfig::default());
    let mut dataport = Dataport::new(DataportConfig::default());
    for n in &deployment.nodes {
        dataport.register_sensor(n.eui);
    }
    for g in &deployment.gateways {
        dataport.register_gateway(g.id);
    }
    let city_slug = deployment.city.to_lowercase();
    let positions: Vec<_> = nodes.iter().map(|n| n.site().position).collect();
    let mut air = Air {
        radio: RadioSimulator::new(SimConfig::urban(seed), gateways),
        server: NetworkServer::new(),
        state: HashMap::new(),
        radio_busy: Busy::default(),
        server_busy: Busy::default(),
        delivered: 0,
        out: Vec::new(),
        positions: &positions,
    };
    // Same-instant transmissions go in the order their events were filed:
    // a node's rank is when it last transmitted.
    let mut filed: Vec<u64> = (0..nodes.len() as u64).collect();
    let mut next_rank = nodes.len() as u64;
    let start = deployment.started;
    let mut next_tick = Some(start);
    let mut out = LadderOutcome::default();

    for day in 1..=days {
        let end = start + Span::days(day);
        let day_span = tracer.begin("ladder.day", "harness");

        // Station: nodes sample and encode, in transmission order.
        let span = tracer.begin("core.node_step", "core");
        let mut txs: Vec<Tx> = Vec::new();
        while let Some(idx) = (0..nodes.len())
            .filter(|&i| nodes[i].next_due() < end)
            .min_by_key(|&i| (nodes[i].next_due(), filed[i]))
        {
            let time = nodes[idx].next_due();
            if let Some(reading) = nodes[idx].step(&emission, time) {
                let payload = payload::encode(&reading);
                txs.push(Tx {
                    time,
                    node: idx,
                    reading,
                    payload,
                });
            }
            filed[idx] = next_rank;
            next_rank += 1;
        }
        tracer.end(span, txs.len() as u64);
        out.readings += txs.len() as u64;

        // Stations: radio and network server, interleaved in event order.
        let span = tracer.begin("ladder.air", "harness");
        let delivered_before = air.delivered;
        for tx in &txs {
            air.transmit(tx);
        }
        // Segment end, as `finish_segment`: deadlines up to `end` fire, then
        // everything no later transmission can overlap is settled early.
        air.resolve_deadlines(end);
        if let Some(next_tx) = nodes.iter().map(|n| n.next_due()).min() {
            air.radio_busy.time(|| air.radio.resolve_until(next_tx));
        }
        air.process_outcomes(end);
        let records = std::mem::take(&mut air.out);
        tracer.record(
            "lorawan.radio",
            "lorawan",
            std::mem::take(&mut air.radio_busy.ns),
            txs.len() as u64,
        );
        tracer.record(
            "lorawan.server",
            "lorawan",
            std::mem::take(&mut air.server_busy.ns),
            air.delivered - delivered_before,
        );
        tracer.end(span, txs.len() as u64);

        // Station: bridge to broker.
        let span = tracer.begin("broker.publish", "broker");
        for (r, _) in &records {
            let event = UplinkEvent {
                city: city_slug.clone(),
                device: r.device,
                fcnt: r.fcnt,
                port: r.port,
                time: r.time,
                gateway: r.via_gateway,
                rssi_dbm: r.rssi_dbm,
                snr_db: r.snr_db,
                gateway_count: r.gateway_count,
                payload: r.payload.clone(),
            };
            event.publish_with_retry(&broker, RetryPolicy::default());
        }
        tracer.end(span, records.len() as u64);

        // Station: storage consumer drains through the ack gate.
        let span = tracer.begin("broker.drain", "broker");
        let mut raw = Vec::with_capacity(records.len());
        while let Some(delivery) = storage_sub.try_recv() {
            if let Some(pid) = delivery.packet_id {
                if !broker.ack(storage_sub.id, pid) {
                    continue;
                }
            }
            raw.push(delivery.message.payload);
        }
        tracer.end(span, raw.len() as u64);
        checks.equal("ladder: published vs drained", records.len(), raw.len());

        // Station: event envelope and sensor payload decode.
        let span = tracer.begin("broker.decode", "broker");
        let decoded: Vec<(UplinkEvent, SensorReading)> = raw
            .iter()
            .filter_map(|bytes| {
                let event = UplinkEvent::decode(bytes).ok()?;
                let reading = payload::decode(&event.payload, event.device, event.time).ok()?;
                Some((event, reading))
            })
            .collect();
        tracer.end(span, decoded.len() as u64);
        checks.equal("ladder: drained vs decoded", raw.len(), decoded.len());

        // Station: dataport twins; ticks fall where the calendar put them.
        let span = tracer.begin("ladder.dataport", "harness");
        let mut uplink_busy = Busy::default();
        let mut tick_busy = Busy::default();
        let mut ticks = 0u64;
        let mut tick_until = |dataport: &mut Dataport, until: Timestamp, busy: &mut Busy| {
            while let Some(at) = next_tick.filter(|&t| t <= until) {
                busy.time(|| dataport.tick(at));
                ticks += 1;
                next_tick = dataport.next_event(at).filter(|&t| t > at);
            }
        };
        for ((event, reading), (_, handed_on)) in decoded.iter().zip(&records) {
            tick_until(&mut dataport, *handed_on, &mut tick_busy);
            uplink_busy.time(|| {
                dataport.on_uplink(
                    event.device,
                    event.time,
                    reading.battery_pct,
                    event.gateway,
                    Dbm(event.rssi_dbm),
                )
            });
        }
        tick_until(&mut dataport, end, &mut tick_busy);
        tracer.record(
            "dataport.on_uplink",
            "dataport",
            uplink_busy.ns,
            decoded.len() as u64,
        );
        tracer.record("dataport.tick", "dataport", tick_busy.ns, ticks);
        tracer.end(span, decoded.len() as u64);

        // Station: nine data points per uplink, as `collect_points`.
        let span = tracer.begin("pipeline.collect_points", "pipeline");
        let mut points: Vec<DataPoint> = Vec::with_capacity(decoded.len() * 9);
        // One storage batch per hand-over instant, as the pipeline's drains.
        let mut batch_ends: Vec<usize> = Vec::new();
        for (i, ((event, reading), (_, handed_on))) in decoded.iter().zip(&records).enumerate() {
            let device_tag = format!("{:016x}", event.device.0);
            let tags = || {
                vec![
                    ("city".to_string(), city_slug.clone()),
                    ("device".to_string(), device_tag.clone()),
                ]
            };
            for q in Quantity::ALL {
                if let Ok(p) = DataPoint::new(q.metric_name(), tags(), event.time, reading.value(q))
                {
                    points.push(p);
                }
            }
            if let Ok(p) = DataPoint::new("ctt.net.rssi", tags(), event.time, event.rssi_dbm) {
                points.push(p);
            }
            if records.get(i + 1).is_none_or(|(_, next)| next != handed_on) {
                batch_ends.push(points.len());
            }
        }
        tracer.end(span, points.len() as u64);

        // Station: producer side of the ingest runtime.
        let span = tracer.begin("ingest.submit", "ingest");
        let mut from = 0;
        for &to in &batch_ends {
            out.points += ingest.submit(points.get(from..to).unwrap_or_default());
            from = to;
        }
        tracer.end(span, points.len() as u64);

        // Station: the segment's flush barrier.
        let span = tracer.begin("ingest.flush", "ingest");
        ingest.flush();
        tracer.end(span, points.len() as u64);

        tracer.end(day_span, txs.len() as u64);
    }
    out.delivered = air.delivered;

    let span = tracer.begin("tsdb.seal_all", "tsdb");
    tsdb.seal_all();
    tracer.end(span, out.points);

    // The reference: the same city, seed and days through `Pipeline`.
    let mut reference = Pipeline::new(deployment.clone(), seed);
    for day in 1..=days {
        let before = reference.stats().readings;
        let span = tracer.begin("pipeline.run_until", "pipeline");
        let started = Instant::now();
        reference.run_until(start + Span::days(day));
        out.reference_ns += started.elapsed().as_nanos() as u64;
        tracer.end(span, reference.stats().readings - before);
    }
    let span = tracer.begin("tsdb.seal_all", "tsdb");
    reference.tsdb.seal_all();
    tracer.end(span, reference.stats().points_stored);
    let stats = reference.stats();
    checks.equal("ladder vs pipeline: readings", out.readings, stats.readings);
    checks.equal(
        "ladder vs pipeline: delivered",
        out.delivered,
        stats.delivered,
    );
    checks.equal(
        "ladder vs pipeline: points",
        out.points,
        stats.points_stored,
    );
    checks.equal(
        "ladder vs pipeline: sealed store",
        tsdb.stats(),
        reference.tsdb.stats(),
    );

    // Station: the event calendar. Replay as many schedule + pop pairs as
    // the reference dispatched, at the pipeline's standing queue depth.
    let events = reference
        .metrics_snapshot()
        .value("sim.dispatch.total")
        .unwrap_or(0)
        .max(1) as u64;
    let span = tracer.begin("sim.queue", "sim");
    let mut queue: EventQueue<u32> = EventQueue::new();
    queue.attach_obs(QueueObs::new(|_| "replay"));
    for i in 0..=nodes.len() as u32 {
        queue.schedule(start + Span::seconds(i64::from(i) * 25), 3, i);
    }
    for _ in 0..events {
        if let Some((key, payload)) = queue.pop() {
            queue.schedule(key.time + Span::minutes(5), key.priority, payload);
        }
    }
    std::hint::black_box(queue.len());
    tracer.end(span, events);

    (out, reference)
}

/// The read side of the ladder: every query class against the reference
/// city's sealed archive, so each class has samples on every workload.
/// Distinct 1-day windows per class miss the result cache; a second pass
/// over the rollup windows hits it; a last pass sends fresh point windows
/// through the default `execute`.
pub fn class_probe(
    reference: &Pipeline,
    days: i64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Meas {
    const PER_CLASS: i64 = 64;
    let mut scratch = Meas::default();
    let mut client = Client {
        meas: &mut scratch,
        tracer,
        checks,
        check_ns: 0,
        raw_checks: 0,
    };
    let start = reference.deployment.started;
    let slack_hours = ((days - 1).max(0) * 24 + 1).max(1);
    let view = CityView::of(&reference.deployment);
    let window = |i: i64| {
        let from = start + Span::hours(i % slack_hours);
        let device = view
            .nodes
            .get((i / slack_hours) as usize % view.nodes.len().max(1))
            .map(|n| n.0.clone())
            .unwrap_or_default();
        Query::range(
            Quantity::Pollutant(Pollutant::Co2).metric_name(),
            from,
            from + Span::days(1),
        )
        .with_tag("device", device)
    };
    let every = |interval: Span| Downsample {
        interval,
        aggregator: Aggregator::Avg,
        fill: FillPolicy::None,
    };
    let db = &reference.tsdb;
    for i in 0..PER_CLASS {
        client.query(db, &window(i), Class::Point);
        client.query(
            db,
            &window(i).downsample(every(Span::minutes(37))),
            Class::Raw,
        );
        client.query(
            db,
            &window(i).downsample(every(Span::hours(1))),
            Class::Rollup,
        );
    }
    for i in 0..PER_CLASS {
        client.query(
            db,
            &window(i).downsample(every(Span::hours(1))),
            Class::Rollup,
        );
    }
    // The default entry point (`execute`: the same serving stack plus the
    // parallel collect pool) on fresh point windows, for comparison.
    for i in PER_CLASS..2 * PER_CLASS {
        let span = client.tracer.begin("tsdb.execute.default", "tsdb");
        let answer = db.execute(&window(i));
        client.tracer.end(span, 1);
        if answer.is_err() {
            client.meas.failed += 1;
        }
    }
    scratch
}

/// What the runner probe read off its parallel fleet.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeOutcome {
    /// Threads of this process while the parallel fleet was alive.
    pub fleet_threads: f64,
    /// Slices the fleet dispatched.
    pub slices: f64,
    /// Bucket-resolution median slice width.
    pub slice_width_p50: f64,
    /// Cross-shard (barrier) events.
    pub cross_events: f64,
}

/// The same cities and simulated time under each of the repo's runners:
/// solo `Pipeline::run_until` per city, the workload's `Fleet` with parallel
/// slice dispatch, and the same fleet on one thread. All three must produce
/// the same counts.
pub fn runner_probe(
    sizes: &Sizes,
    seed: u64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> ProbeOutcome {
    let cities = deployments(sizes.cities);
    let start = cities.first().map_or(Timestamp(0), |d| d.started);
    let config = sizes.fleet.unwrap_or_default();
    let runners = [
        (None, "pipeline.run_until", "pipeline"),
        (
            Some(FleetConfig {
                parallel: true,
                ..config
            }),
            "fleet.run_until",
            "fleet",
        ),
        (
            Some(FleetConfig {
                parallel: false,
                ..config
            }),
            "fleet.run_until.seq",
            "fleet",
        ),
    ];
    let mut outcome = ProbeOutcome::default();
    let mut digests: Vec<Digest> = Vec::new();
    for (fleet, name, layer) in runners {
        let parallel = fleet.is_some_and(|c| c.parallel);
        // Epoch index `u64::MAX - 1`: no workload epoch uses these seeds.
        let mut world = build_world(&cities, fleet, seed, u64::MAX - 1, tracer);
        for s in 1..=sizes.probe_segments as i64 {
            let before = world.readings();
            let span = tracer.begin(name, layer);
            world.run_until(start + Span::seconds(sizes.segment.as_seconds() * s));
            tracer.end(span, world.readings() - before);
        }
        if let (true, World::Fleet(f)) = (parallel, &world) {
            let snap = f.metrics_snapshot();
            outcome = ProbeOutcome {
                fleet_threads: crate::proc_status("Threads").unwrap_or(0.0),
                slices: snap.value("sim.slices").unwrap_or(0) as f64,
                slice_width_p50: histogram_p50(
                    &snap,
                    "sim.slice_width",
                    &[1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096],
                ),
                cross_events: snap.value("sim.cross_shard_events").unwrap_or(0) as f64,
            };
        }
        let mut digest = Digest::default();
        for p in world.cities() {
            digest.add(p.stats(), p.tsdb.stats());
        }
        digests.push(digest);
    }
    if let Some(first) = digests.first() {
        for d in &digests {
            checks.equal(
                "runner probe: solo vs fleet vs sequential fleet",
                *d,
                *first,
            );
        }
    }
    outcome
}

/// Probe seed: epoch index no workload epoch or runner probe uses.
pub fn ladder_seed(seed: u64) -> u64 {
    derive(seed, u64::MAX - 2, 0)
}
