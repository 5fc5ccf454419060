//! End-to-end chaos tests: the full pipeline under a dense fault plan.
//!
//! The keystone is conservation: after any run — healthy or hostile — every
//! uplink a node produced must be stored in the TSDB or attributed to a
//! typed cause. One unattributed loss fails the soak.

use ctt::prelude::*;
use ctt_chaos::{CauseCode, FaultKind, FaultPlan};

/// The dense two-city plan: at least five distinct fault kinds, spread
/// across the week so recovery windows are visible.
fn dense_plan(d: &Deployment) -> FaultPlan {
    let t0 = d.started;
    let day = |n: i64| t0 + Span::days(n);
    let gw = d.gateways[0].id;
    let node0 = d.nodes[0].eui;
    let node1 = d.nodes[1].eui;
    FaultPlan::new()
        .with(
            FaultKind::GatewayOutage { gateway: gw },
            day(1) + Span::hours(6),
            day(1) + Span::hours(6) + Span::minutes(45),
        )
        .with(
            FaultKind::NodeDeath { device: node0 },
            day(2) + Span::hours(10),
            day(2) + Span::hours(14),
        )
        .with(
            FaultKind::BatteryStuck {
                device: node1,
                level_pct: 55.0,
            },
            day(0),
            day(7),
        )
        .with(
            FaultKind::FrameCorruption { device: node0 },
            day(3) + Span::hours(8),
            day(3) + Span::hours(10),
        )
        .with(
            FaultKind::FrameTruncation { device: node1 },
            day(3) + Span::hours(8),
            day(3) + Span::hours(10),
        )
        .with(
            FaultKind::BrokerStall,
            day(4) + Span::hours(9),
            day(4) + Span::hours(9) + Span::minutes(40),
        )
        .at(
            FaultKind::TsdbBitFlip {
                nth_chunk: 3,
                bit: 40_011,
            },
            day(5) + Span::hours(12),
        )
        .at(
            FaultKind::TsdbBitFlip {
                nth_chunk: 11,
                bit: 17_923,
            },
            day(5) + Span::hours(12),
        )
        .with(
            FaultKind::ClockSkew {
                device: node0,
                offset: Span::seconds(90),
            },
            day(6),
            day(6) + Span::hours(6),
        )
        .with_storage_queue(64)
}

/// Run one city for `days` under the dense plan and check conservation.
fn soak_city(deployment: Deployment, seed: u64, days: i64) {
    let plan = dense_plan(&deployment);
    assert!(plan.distinct_kinds() >= 5, "plan too thin");
    let mut p = Pipeline::with_chaos(deployment, seed, plan);
    let start = p.deployment.started;
    p.run_until(start + Span::days(days));

    // Keystone: zero unattributed loss. On imbalance, dump the flight
    // recorder — the recent stage spans show what the pipeline was
    // dispatching leading up to the failure.
    let verdict = p.ledger().verify();
    assert!(
        verdict.is_balanced(),
        "unattributed losses: {:?}\n{}",
        verdict.unattributed,
        p.flight_recorder().dump()
    );
    assert_eq!(
        p.ledger().conflicts(),
        0,
        "attribution conflicts\n{}",
        p.flight_recorder().dump()
    );
    assert_eq!(verdict.produced, p.stats().readings);
    assert!(verdict.stored > 0);

    // The plan's faults actually bit: injected frame damage was attributed.
    let causes = p.ledger().cause_counts();
    let injected = p.chaos_stats();
    assert!(injected.corrupted_frames > 0, "{injected:?}");
    assert!(injected.truncated_frames > 0, "{injected:?}");
    assert_eq!(
        causes.get(&CauseCode::FrameCorrupted).copied().unwrap_or(0),
        injected.corrupted_frames
    );
    assert_eq!(
        causes.get(&CauseCode::FrameTruncated).copied().unwrap_or(0),
        injected.truncated_frames
    );
    assert!(
        causes.get(&CauseCode::GatewayOutage).copied().unwrap_or(0) > 0,
        "outage window attributed nothing: {causes:?}"
    );

    // Storage-level conservation: the integrity scan accounts for every
    // point ever written, and quarantine matches the ledger's expectation.
    let scan = p.integrity_scan();
    assert_eq!(
        scan.readable_points + scan.quarantined_points,
        p.store_stats().points,
        "{scan:?}"
    );
    assert_eq!(scan.quarantined_points, p.ledger().quarantined_points());

    // Graceful degradation: queries over the whole week still answer.
    let dev = p.deployment.nodes[1].eui;
    let series = p.device_series(
        dev,
        Quantity::Pollutant(Pollutant::Co2),
        start,
        start + Span::days(days),
    );
    assert!(!series.is_empty());
}

#[test]
fn seven_day_vejle_soak_conserves_every_uplink() {
    soak_city(Deployment::vejle(), 42, 7);
}

#[test]
fn seven_day_trondheim_soak_conserves_every_uplink() {
    soak_city(Deployment::trondheim(), 7, 7);
}

#[test]
fn broker_stall_defers_then_redelivers_without_loss() {
    let d = Deployment::vejle();
    let t0 = d.started;
    let plan = FaultPlan::new()
        .with(
            FaultKind::BrokerStall,
            t0 + Span::hours(2),
            t0 + Span::hours(2) + Span::minutes(40),
        )
        .with_storage_queue(8);
    let mut p = Pipeline::with_chaos(d, 42, plan);
    p.run_until(t0 + Span::hours(5));

    // The tiny queue filled during the stall, QoS1 deferred rather than
    // dropped, and the deferred deliveries were redelivered afterwards.
    let bs = p.broker().stats();
    assert!(bs.deferred_qos1 > 0, "{bs:?}");
    assert!(bs.redelivered > 0, "{bs:?}");
    let verdict = p.ledger().verify();
    assert!(verdict.is_balanced(), "{:?}", verdict.unattributed);
    // Everything the server accepted made it to storage in the end.
    assert_eq!(verdict.stored, p.stats().delivered);
}

/// A zero storage queue or in-flight cap in a plan means the smallest
/// working one, 1: a subscription that could never receive would lose
/// every accepted uplink without a ledger cause. Run in debug and release.
#[test]
fn zero_storage_knobs_still_conserve_and_store() {
    let d = Deployment::vejle();
    let t0 = d.started;
    // A one-slot queue defers the rest; the drain pass recovers all of it.
    let mut p = Pipeline::with_chaos(d.clone(), 42, FaultPlan::new().with_storage_queue(0));
    p.run_until(t0 + Span::hours(6));
    let verdict = p.ledger().verify();
    assert!(verdict.is_balanced(), "{:?}", verdict.unattributed);
    assert!(p.stats().delivered > 0);
    assert_eq!(verdict.stored, p.stats().delivered);
    assert!(p.store_stats().points > 0);

    // A one-copy in-flight store as well: what it cannot hold is shed and
    // owned as backpressure, and the rest is stored.
    let plan = FaultPlan::new()
        .with_storage_queue(0)
        .with_storage_inflight_cap(0);
    let mut p = Pipeline::with_chaos(d, 42, plan);
    p.run_until(t0 + Span::hours(6));
    let verdict = p.ledger().verify();
    assert!(verdict.is_balanced(), "{:?}", verdict.unattributed);
    assert!(verdict.stored > 0);
    assert!(p.store_stats().points > 0);
    let shed = p.broker().stats().shed;
    let backpressure = p
        .ledger()
        .cause_counts()
        .get(&CauseCode::Backpressure)
        .copied();
    assert_eq!(backpressure.unwrap_or(0), shed);
}

#[test]
fn twins_disambiguate_node_death_from_gateway_outage() {
    use ctt::dataport::{AlarmKind, TwinState};
    let d = Deployment::vejle();
    let t0 = d.started;
    let gw = d.gateways[0].id;
    let dead = d.nodes[0].eui;
    let alive = d.nodes[1].eui;
    // Node death overlaps a later gateway outage.
    let plan = FaultPlan::new()
        .with(
            FaultKind::NodeDeath { device: dead },
            t0 + Span::hours(2),
            t0 + Span::hours(20),
        )
        .with(
            FaultKind::GatewayOutage { gateway: gw },
            t0 + Span::hours(4),
            t0 + Span::hours(4) + Span::minutes(45),
        );
    let mut p = Pipeline::with_chaos(d, 42, plan);

    // Phase 1 — gateway healthy, node 0 dead: a genuine offline alarm.
    p.run_until(t0 + Span::hours(3));
    let active = p.dataport.active_alarms();
    assert!(
        active
            .iter()
            .any(|a| a.kind == AlarmKind::SensorOffline && a.source.contains(&dead.to_string())),
        "real death not detected: {active:?}"
    );
    assert!(
        !active
            .iter()
            .any(|a| a.kind == AlarmKind::SensorOffline && a.source.contains(&alive.to_string())),
        "healthy node flagged: {active:?}"
    );

    // Phase 2 — mid-outage: the gateway alarm owns the incident. The
    // healthy node behind the downed gateway must NOT be called offline,
    // and the already-offline node is re-attributed to the outage.
    p.run_until(t0 + Span::hours(4) + Span::minutes(40));
    let active = p.dataport.active_alarms();
    assert!(
        active.iter().any(|a| a.kind == AlarmKind::GatewayOutage),
        "outage not detected: {active:?}"
    );
    assert!(
        !active.iter().any(|a| a.kind == AlarmKind::SensorOffline),
        "sensor false alarm during gateway outage: {active:?}"
    );
    let snap = p.dataport.snapshot(p.now());
    assert!(snap.suppressed_alarms >= 1, "{snap:?}");

    // Phase 3 — outage over: the healthy node recovers, the outage alarm
    // clears, and the dead node is still not reporting.
    p.run_until(t0 + Span::hours(6));
    let active = p.dataport.active_alarms();
    assert!(
        !active.iter().any(|a| a.kind == AlarmKind::GatewayOutage),
        "outage alarm stuck: {active:?}"
    );
    let snap = p.dataport.snapshot(p.now());
    let alive_status = snap
        .sensors
        .iter()
        .find(|s| s.device == alive)
        .expect("twin for healthy node");
    assert_eq!(alive_status.state, TwinState::Online);
    let dead_status = snap
        .sensors
        .iter()
        .find(|s| s.device == dead)
        .expect("twin for dead node");
    assert_ne!(dead_status.state, TwinState::Online);
    // Conservation holds through the overlap as well.
    assert!(p.ledger().verify().is_balanced());
}

#[test]
fn same_seed_same_plan_byte_identical_ledger_and_alarms() {
    let run = || {
        let d = Deployment::vejle();
        let plan = dense_plan(&d);
        let start = d.started;
        let mut p = Pipeline::with_chaos(d, 1234, plan);
        p.run_until(start + Span::days(1) + Span::hours(8));
        (p.ledger().render(), p.alarm_trace(), p.stats())
    };
    let (ledger_a, alarms_a, stats_a) = run();
    let (ledger_b, alarms_b, stats_b) = run();
    assert_eq!(ledger_a, ledger_b, "ledger render diverged");
    assert_eq!(alarms_a, alarms_b, "alarm sequence diverged");
    assert_eq!(stats_a, stats_b);
    assert!(!ledger_a.is_empty());
}

#[test]
fn chaos_activations_show_up_in_metrics_snapshot() {
    let d = Deployment::vejle();
    let plan = dense_plan(&d);
    let start = d.started;
    let mut p = Pipeline::with_chaos(d, 42, plan);
    p.run_until(start + Span::days(7));
    let snap = p.metrics_snapshot();
    let activation = |name: &str| snap.value(name).unwrap_or(0);
    let injected = p.chaos_stats();
    assert_eq!(
        activation("chaos.activation.frame_fault"),
        i128::from(injected.corrupted_frames + injected.truncated_frames)
    );
    assert!(activation("chaos.activation.bitflip") >= 2);
    // Death window: one falling edge in, one rising edge out.
    assert_eq!(activation("chaos.activation.death_edge"), 2);
    assert!(activation("chaos.activation.broker_stall") > 0);
    // The store's quarantine counter agrees with the ledger.
    assert_eq!(
        activation("tsdb.shard0.quarantined_points"),
        i128::from(p.ledger().quarantined_points())
    );
}
