//! The ×100 traffic-spike survival gate.
//!
//! A half-hour window multiplies every delivered uplink by 100 synthetic
//! copies, slamming the bridge and broker with two orders of magnitude
//! more traffic than the deployment was sized for. The pipeline must not
//! fall over, must not lose anything *silently*, and must keep every
//! bound it advertises:
//!
//! * the storage subscriber's in-flight store never exceeds its cap
//!   (high-water counter), and overflow is shed — not queued without
//!   bound, not dropped without a ledger entry;
//! * every shed uplink is accounted as `Lost(Backpressure)`, and the
//!   ledger still balances to zero unattributed losses;
//! * the dataport raises at least one backpressure alarm while shedding;
//! * the whole run replays byte-identically.

use ctt::prelude::*;
use ctt_chaos::{AdmissionConfig, CauseCode, FaultKind, FaultPlan};

/// The overload plan: ×100 spike for 30 minutes, two hours in, against a
/// deliberately small storage pipeline (queue 32, drains of 8/s, in-flight
/// cap 64) behind a bridge admitting ~2 uplinks/min sustained per gateway
/// with a burst of 50 and 16 deferred slots.
fn spike_plan(d: &Deployment) -> FaultPlan {
    let t0 = d.started;
    FaultPlan::new()
        .with(
            FaultKind::TrafficSpike { factor: 100 },
            t0 + Span::hours(2),
            t0 + Span::hours(2) + Span::minutes(30),
        )
        .with_storage_queue(32)
        .with_drain_batch(8)
        .with_storage_inflight_cap(64)
        .with_admission(AdmissionConfig {
            burst: 50,
            refill_per_hour: 120,
            defer_cap: 16,
        })
}

/// Run the spike and return the observables determinism compares.
fn run_spike(seed: u64) -> (Pipeline, String, String) {
    let d = Deployment::vejle();
    let plan = spike_plan(&d);
    let mut p = Pipeline::with_chaos(d, seed, plan);
    let start = p.deployment.started;
    // Run well past the window so deferred admissions drain and the
    // ledger can settle: refill 120/h × ~4 h of tail covers any held
    // records many times over.
    p.run_until(start + Span::hours(6));
    let ledger = p.ledger().render();
    let alarms = p.alarm_trace();
    (p, ledger, alarms)
}

#[test]
fn x100_spike_sheds_visibly_and_conserves_every_uplink() {
    let (p, _ledger, alarms) = run_spike(42);

    // Keystone: conservation holds even at ×100 — every produced uplink
    // (real or synthetic) is stored or attributed, with no conflicts.
    let verdict = p.ledger().verify();
    assert!(
        verdict.is_balanced(),
        "unattributed losses under spike: {:?}\n{}",
        verdict.unattributed,
        p.flight_recorder().dump()
    );
    assert_eq!(p.ledger().conflicts(), 0, "attribution conflicts");

    // The spike actually amplified: far more produced than the fleet's
    // organic rate (2 nodes × 12/h × 6 h = 144).
    assert!(
        verdict.produced > 1_000,
        "spike did not amplify: produced {}",
        verdict.produced
    );

    // Load was genuinely shed, and every shed uplink is ledger-visible as
    // Lost(Backpressure): broker cap sheds + bridge admission sheds.
    let causes = p.ledger().cause_counts();
    let backpressure = causes.get(&CauseCode::Backpressure).copied().unwrap_or(0);
    assert!(backpressure > 0, "nothing shed under ×100: {causes:?}");
    let snap = p.metrics_snapshot();
    let broker_shed = snap.value("stage.broker.shed").unwrap_or(0);
    let admission_shed = snap.value("stage.bridge.admission_shed").unwrap_or(0);
    assert_eq!(
        i128::from(backpressure),
        broker_shed + admission_shed,
        "ledger backpressure != broker shed {broker_shed} + admission shed {admission_shed}"
    );

    // The advertised bound held: the storage subscriber's in-flight store
    // never exceeded its cap, even at the spike's peak (high-water gauge).
    // The storage subscription is the broker's only one: sub0.
    let hw = snap.value("broker.sub0.inflight_hw").unwrap_or(-1);
    assert!(
        (0..=64).contains(&hw),
        "in-flight high-water {hw} breached cap 64"
    );
    assert!(hw > 0, "high-water gauge never moved");

    // Nothing was held back forever: admission settled after the window.
    assert_eq!(snap.value("stage.bridge.admission_pending"), Some(0));

    // Backlog was worked off by scheduled bounded drains, not one
    // unbounded dispatch.
    assert!(
        snap.value("sim.dispatch.p4").unwrap_or(0) > 0,
        "no StorageDrain events dispatched under overload"
    );

    // Operators saw it: at least one backpressure alarm in the log.
    assert!(
        alarms.contains("Backpressure"),
        "no backpressure alarm raised:\n{alarms}"
    );

    // And the system recovered: data stored after the window closed.
    assert!(verdict.stored > 0);
    let st = p.stats();
    assert!(st.points_stored > 0);
}

#[test]
fn spike_run_replays_byte_identically() {
    let (_pa, ledger_a, alarms_a) = run_spike(42);
    let (_pb, ledger_b, alarms_b) = run_spike(42);
    assert_eq!(ledger_a, ledger_b, "ledger diverged across replays");
    assert_eq!(alarms_a, alarms_b, "alarm trace diverged across replays");
}
