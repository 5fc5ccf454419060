//! Fleet-level chaos: several cities under dense fault plans dispatched
//! through the sharded event space. Conservation must hold per city —
//! every produced uplink stored or attributed to a typed cause — and
//! spreading the cities over shards must not perturb a single byte of it.

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

fn run(shards: usize) -> Vec<Pipeline> {
    let end = Deployment::vejle().started + Span::days(2);
    let mut fleet = Fleet::with_config(
        build_cities(),
        FleetConfig {
            shards,
            ..FleetConfig::default()
        },
    );
    fleet.run_until(end);
    fleet.into_pipelines()
}

#[test]
fn fleet_under_chaos_conserves_per_city_and_sharded_matches_single_queue() {
    let sharded = run(4);
    let single = run(1);
    assert_eq!(sharded.len(), single.len());
    for (p, s) in sharded.iter().zip(&single) {
        let city = &p.deployment.city;
        // Conservation per city, even with faults dispatched through the
        // sharded space: zero unattributed loss, zero conflicts.
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
        // 4-shard slice dispatch is byte-identical to a single queue.
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
