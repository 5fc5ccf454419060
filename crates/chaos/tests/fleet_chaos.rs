//! Fleet-level chaos: several cities under dense fault plans run as one
//! fleet. Conservation must hold per city — every produced uplink stored
//! or attributed to a typed cause — and running a city in the fleet must
//! not perturb a single byte of it against the same city solo.

use ctt::fleet::{Fleet, FleetConfig};
use ctt::prelude::*;
use ctt_chaos::{FaultKind, FaultPlan};

/// A two-day plan exercising five distinct fault kinds inside the run
/// horizon: outage, node death, frame corruption, broker stall, bit flip.
fn two_day_plan(d: &Deployment) -> FaultPlan {
    let t0 = d.started;
    FaultPlan::new()
        .with(
            FaultKind::GatewayOutage {
                gateway: d.gateways[0].id,
            },
            t0 + Span::hours(5),
            t0 + Span::hours(5) + Span::minutes(40),
        )
        .with(
            FaultKind::NodeDeath {
                device: d.nodes[0].eui,
            },
            t0 + Span::hours(10),
            t0 + Span::hours(13),
        )
        .with(
            FaultKind::FrameCorruption {
                device: d.nodes[1].eui,
            },
            t0 + Span::hours(20),
            t0 + Span::hours(22),
        )
        .with(
            FaultKind::BrokerStall,
            t0 + Span::hours(30),
            t0 + Span::hours(30) + Span::minutes(30),
        )
        .at(
            FaultKind::TsdbBitFlip {
                nth_chunk: 2,
                bit: 11_321,
            },
            t0 + Span::hours(40),
        )
        .with_storage_queue(64)
}

fn build_cities() -> Vec<Pipeline> {
    let mut cities = vec![
        Pipeline::with_chaos(Deployment::vejle(), 42, two_day_plan(&Deployment::vejle())),
        Pipeline::with_chaos(
            Deployment::trondheim(),
            7,
            two_day_plan(&Deployment::trondheim()),
        ),
    ];
    let mut d = Deployment::vejle();
    d.city = "Pilot2".to_string();
    let plan = two_day_plan(&d);
    cities.push(Pipeline::with_chaos(d, 99, plan));
    cities
}

/// The fleet's run to `end`, which stops every city at each hourly rollup.
fn run_fleet(end: Timestamp) -> Vec<Pipeline> {
    let mut fleet = Fleet::new(build_cities());
    fleet.run_until(end);
    fleet.into_pipelines()
}

/// The same cities solo, through the same boundaries: every rollup
/// instant up to `end`.
fn run_solo(end: Timestamp) -> Vec<Pipeline> {
    let cadence = FleetConfig::default()
        .rollup_cadence
        .expect("default fleet rolls up");
    let mut cities = build_cities();
    for p in &mut cities {
        let mut stop = p.now();
        while stop < end {
            stop = (stop + cadence).min(end);
            p.run_until(stop);
        }
    }
    cities
}

#[test]
fn fleet_under_chaos_conserves_per_city_and_matches_solo() {
    let end = Deployment::vejle().started + Span::days(2);
    let fleet = run_fleet(end);
    let solo = run_solo(end);
    assert_eq!(fleet.len(), solo.len());
    for (p, s) in fleet.iter().zip(&solo) {
        let city = &p.deployment.city;
        // Conservation per city, even with faults in every city of the
        // fleet: zero unattributed loss, zero conflicts.
        let verdict = p.ledger().verify();
        assert!(
            verdict.is_balanced(),
            "{city}: unattributed losses {:?}\n{}",
            verdict.unattributed,
            p.flight_recorder().dump()
        );
        assert_eq!(p.ledger().conflicts(), 0, "{city}: attribution conflicts");
        assert_eq!(verdict.produced, p.stats().readings, "{city}");
        assert!(verdict.stored > 0, "{city}: nothing stored");
        // The plan actually bit.
        assert!(p.chaos_stats().corrupted_frames > 0, "{city}");
        // A city in the fleet is byte-identical to the same city solo.
        assert_eq!(p.ledger().render(), s.ledger().render(), "{city}");
        assert_eq!(p.alarm_trace(), s.alarm_trace(), "{city}");
        assert_eq!(p.stats(), s.stats(), "{city}");
        assert_eq!(p.tsdb.stats().points, s.tsdb.stats().points, "{city}");
        assert_eq!(
            p.metrics_snapshot().to_csv(),
            s.metrics_snapshot().to_csv(),
            "{city}"
        );
    }
}
