//! Observability must be replay-deterministic: two runs of the same
//! seed+plan produce byte-identical metrics snapshots (CSV and JSON) and
//! byte-identical scheduling profiles, with the dispatch trace enabled.
//! This pins the ctt-obs acceptance criterion — instrumentation that
//! perturbed replay, or exports that depended on iteration order, wall
//! clock, or float formatting, would diverge here.

use ctt::prelude::*;

/// Run a two-city fleet for six hours.
fn fleet_run() -> Fleet {
    let mut fleet = Fleet::new(vec![
        Pipeline::new(Deployment::vejle(), 42),
        Pipeline::new(Deployment::trondheim(), 7),
    ]);
    fleet.run_until(Deployment::vejle().started + Span::hours(6));
    fleet
}

/// Run one city with full instrumentation and capture every export.
fn instrumented_run(deployment: Deployment, seed: u64, hours: i64) -> (String, String, String) {
    let mut p = Pipeline::new(deployment, seed);
    p.enable_dispatch_trace(64);
    let start = p.deployment.started;
    p.run_until(start + Span::hours(hours));
    let snap = p.metrics_snapshot();
    (snap.to_csv(), snap.to_json(), p.scheduling_profile())
}

#[test]
fn two_city_profile_is_byte_identical_across_replays() {
    for (deployment, seed) in [
        (Deployment::vejle as fn() -> Deployment, 42u64),
        (Deployment::trondheim as fn() -> Deployment, 7u64),
    ] {
        let (csv_a, json_a, prof_a) = instrumented_run(deployment(), seed, 6);
        let (csv_b, json_b, prof_b) = instrumented_run(deployment(), seed, 6);
        assert_eq!(csv_a, csv_b, "metrics CSV diverged across replays");
        assert_eq!(json_a, json_b, "metrics JSON diverged across replays");
        assert_eq!(prof_a, prof_b, "scheduling profile diverged across replays");
        // The exports are substantive, not vacuously equal.
        assert!(csv_a.lines().count() > 20, "thin snapshot:\n{csv_a}");
        assert!(prof_a.contains("dispatch total="), "{prof_a}");
        assert!(prof_a.contains("trace kept=64"), "trace missing:\n{prof_a}");
    }
}

#[test]
fn snapshot_agrees_with_pipeline_stats() {
    let mut p = Pipeline::new(Deployment::vejle(), 42);
    let start = p.deployment.started;
    p.run_until(start + Span::hours(2));
    let snap = p.metrics_snapshot();
    let st = p.stats();
    assert_eq!(
        snap.value("stage.node.readings"),
        Some(i128::from(st.readings))
    );
    assert_eq!(
        snap.value("stage.radio.delivered"),
        Some(i128::from(st.delivered))
    );
    assert_eq!(
        snap.value("stage.tsdb.points_stored"),
        Some(i128::from(st.points_stored))
    );
    // The storage subscriber's registry-backed counter saw every delivery.
    assert_eq!(
        snap.value("broker.sub0.delivered"),
        Some(i128::from(p.broker().stats().delivered))
    );
    // Shard put counters sum to the points stored.
    let shard_puts: i128 = (0..p.tsdb.shard_count())
        .map(|i| snap.value(&format!("tsdb.shard{i}.puts")).unwrap_or(0))
        .sum();
    assert_eq!(shard_puts, i128::from(st.points_stored));
    // The dispatch profile accounts for every priority class in use.
    assert!(snap.value("sim.dispatch.total").unwrap_or(0) > 0);
    assert!(snap.value("sim.queue.high_water").unwrap_or(0) > 0);
    // Snapshot time is the simulation clock, not the wall clock.
    assert_eq!(snap.at(), p.now());
}

/// The test id predates the fleet's own metrics; it pins those now.
#[test]
fn fleet_profile_is_byte_identical_across_replays_and_pins_shard_metrics() {
    let fleet = fleet_run();
    let a = fleet.metrics_snapshot();
    let b = fleet_run().metrics_snapshot();
    assert_eq!(a.to_csv(), b.to_csv(), "fleet metrics CSV diverged");
    assert_eq!(a.to_json(), b.to_json(), "fleet metrics JSON diverged");
    assert_eq!(a.value("fleet.cities"), Some(2));
    // Hourly rollups; the last, at the run's end, reads the cities as
    // `run_until(end)` left them.
    assert_eq!(a.value("fleet.rollups"), Some(6));
    let total = |f: &dyn Fn(&Pipeline) -> usize| -> Option<i128> {
        Some(fleet.cities().map(|p| f(p) as i128).sum())
    };
    assert_eq!(
        a.value("fleet.readings"),
        total(&|p| p.stats().readings as usize)
    );
    assert_eq!(
        a.value("fleet.points_stored"),
        total(&|p| p.stats().points_stored as usize)
    );
    let online = |p: &Pipeline| {
        let snap = p.dataport.snapshot(fleet.now());
        snap.sensors
            .iter()
            .filter(|s| s.state == ctt::dataport::TwinState::Online)
            .count()
    };
    assert_eq!(a.value("fleet.sensors_online"), total(&online));
    assert_eq!(
        a.value("fleet.active_alarms"),
        total(&|p| p.dataport.active_alarms().len())
    );
    assert!(a.value("fleet.readings") > Some(0), "{a:?}");
}

#[test]
fn instrumentation_does_not_perturb_replay_observables() {
    // A run with tracing enabled must produce the same pipeline
    // observables as a run without: obs is read-only on the data path.
    let run = |trace: bool| {
        let mut p = Pipeline::new(Deployment::trondheim(), 7);
        if trace {
            p.enable_dispatch_trace(128);
        }
        let start = p.deployment.started;
        p.run_until(start + Span::hours(4));
        (p.ledger().render(), p.alarm_trace(), p.stats())
    };
    assert_eq!(run(false), run(true));
}
