//! Fleet ≡ solo: a city in a [`Fleet`] must be bit-for-bit equal to the
//! same city driven solo through the same boundaries (the caller's ends
//! plus the fleet's rollup instants) — ledger, alarm trace, metrics
//! snapshot (CSV and JSON), and TSDB contents — over random multi-city
//! workloads *including chaos faults*. Plus run-split invariance through
//! the fleet: pausing it at any instant and resuming must replay
//! identically.
//!
//! The three test names are the ids the test floor tracks, kept stable
//! from when this file compared N-shard against 1-shard dispatch.

use ctt::fleet::{Fleet, FleetConfig};
use ctt::prelude::*;
use ctt_chaos::{FaultKind, FaultPlan};
use proptest::prelude::*;

/// Everything the determinism suite compares per city: ledger render,
/// alarm trace, counters, TSDB totals, and the full metrics snapshot in
/// both export formats.
fn observables(p: &Pipeline) -> (String, String, PipelineStats, u64, usize, String, String) {
    let st = p.store_stats();
    let snap = p.metrics_snapshot();
    (
        p.ledger().render(),
        p.alarm_trace(),
        p.stats(),
        st.points,
        st.series,
        snap.to_csv(),
        snap.to_json(),
    )
}

/// The split-invariance observable set, mirroring `tests/run_split.rs`:
/// outcome state only. Work-attempt counters (e.g. `broker.stall_ticks`)
/// legitimately differ across splits — a segment boundary inside a stall
/// window makes one extra (idle) consumer attempt — so the full metrics
/// snapshot is compared only between equal-schedule runs.
fn split_observables(p: &Pipeline) -> (String, String, PipelineStats, u64, usize) {
    let st = p.store_stats();
    (
        p.ledger().render(),
        p.alarm_trace(),
        p.stats(),
        st.points,
        st.series,
    )
}

/// One generated fault, positioned in minutes past the deployment start.
#[derive(Debug, Clone)]
enum FaultSpec {
    Death {
        node: u8,
        from_min: i64,
        len_min: i64,
    },
    Outage {
        from_min: i64,
        len_min: i64,
    },
    Corrupt {
        node: u8,
        from_min: i64,
        len_min: i64,
    },
    Stall {
        from_min: i64,
        len_min: i64,
    },
    BitFlip {
        nth: u64,
        bit: u64,
        at_min: i64,
    },
}

fn build_plan(d: &Deployment, faults: &[FaultSpec]) -> FaultPlan {
    let t0 = d.started;
    let mut plan = FaultPlan::new();
    for f in faults {
        plan = match *f {
            FaultSpec::Death {
                node,
                from_min,
                len_min,
            } => plan.with(
                FaultKind::NodeDeath {
                    device: d.nodes[usize::from(node) % d.nodes.len()].eui,
                },
                t0 + Span::minutes(from_min),
                t0 + Span::minutes(from_min + len_min),
            ),
            FaultSpec::Outage { from_min, len_min } => plan.with(
                FaultKind::GatewayOutage {
                    gateway: d.gateways[0].id,
                },
                t0 + Span::minutes(from_min),
                t0 + Span::minutes(from_min + len_min),
            ),
            FaultSpec::Corrupt {
                node,
                from_min,
                len_min,
            } => plan.with(
                FaultKind::FrameCorruption {
                    device: d.nodes[usize::from(node) % d.nodes.len()].eui,
                },
                t0 + Span::minutes(from_min),
                t0 + Span::minutes(from_min + len_min),
            ),
            FaultSpec::Stall { from_min, len_min } => plan.with(
                FaultKind::BrokerStall,
                t0 + Span::minutes(from_min),
                t0 + Span::minutes(from_min + len_min),
            ),
            FaultSpec::BitFlip { nth, bit, at_min } => plan.at(
                FaultKind::TsdbBitFlip {
                    nth_chunk: nth,
                    bit,
                },
                t0 + Span::minutes(at_min),
            ),
        };
    }
    plan
}

fn fault_strategy() -> impl Strategy<Value = FaultSpec> {
    prop_oneof![
        (0u8..4, 5i64..70, 10i64..50).prop_map(|(node, from_min, len_min)| FaultSpec::Death {
            node,
            from_min,
            len_min
        }),
        (5i64..70, 5i64..40)
            .prop_map(|(from_min, len_min)| FaultSpec::Outage { from_min, len_min }),
        (0u8..4, 5i64..70, 10i64..50).prop_map(|(node, from_min, len_min)| FaultSpec::Corrupt {
            node,
            from_min,
            len_min
        }),
        (5i64..70, 5i64..25).prop_map(|(from_min, len_min)| FaultSpec::Stall { from_min, len_min }),
        (0u64..8, 0u64..100_000, 30i64..80).prop_map(|(nth, bit, at_min)| FaultSpec::BitFlip {
            nth,
            bit,
            at_min
        }),
    ]
}

fn city_strategy() -> impl Strategy<Value = (u64, Vec<FaultSpec>)> {
    (
        0u64..10_000,
        proptest::collection::vec(fault_strategy(), 0..3),
    )
}

/// Build one case's cities, renamed so each has its own slug (two cities
/// of one slug are covered by `four_city_fleet_parallel_equals_sequential`).
fn build_cities(specs: &[(u64, Vec<FaultSpec>)]) -> Vec<Pipeline> {
    specs
        .iter()
        .enumerate()
        .map(|(i, (seed, faults))| {
            let mut d = Deployment::vejle();
            d.city = format!("City{i}");
            let plan = build_plan(&d, faults);
            Pipeline::with_chaos(d, *seed, plan)
        })
        .collect()
}

/// A default fleet of `cities` run through each of the caller's `ends`.
fn run_fleet(cities: Vec<Pipeline>, ends: &[Timestamp]) -> Fleet {
    let mut fleet = Fleet::new(cities);
    for &end in ends {
        fleet.run_until(end);
    }
    fleet
}

/// The same cities driven solo through every boundary a default fleet
/// stops them at on its way through `ends` (ascending): the caller's ends
/// and every rollup instant up to the last of them.
fn run_solo(mut cities: Vec<Pipeline>, ends: &[Timestamp]) -> Vec<Pipeline> {
    let start = cities.iter().map(Pipeline::now).min().expect("a city");
    let cadence = FleetConfig::default()
        .rollup_cadence
        .expect("default fleet rolls up");
    let last = ends.last().copied().unwrap_or(start);
    let mut stops = ends.to_vec();
    let mut rollup = start + cadence;
    while rollup <= last {
        stops.push(rollup);
        rollup += cadence;
    }
    stops.sort();
    stops.dedup();
    for p in &mut cities {
        for &stop in &stops {
            p.run_until(stop);
        }
    }
    cities
}

/// Sum of the cities' own `sim.dispatch.total`.
fn dispatched(fleet: &Fleet) -> i128 {
    fleet
        .cities()
        .map(|p| {
            p.metrics_snapshot()
                .value("sim.dispatch.total")
                .unwrap_or(0)
        })
        .sum()
}

proptest! {
    /// Random multi-city chaos workloads, paused at a random caller end
    /// or not: every city in the fleet matches the same city solo, byte
    /// for byte on every observable including the full metrics snapshot.
    #[test]
    fn sharded_parallel_matches_sequential_single_queue(
        specs in proptest::collection::vec(city_strategy(), 1..4),
        split_min in 10i64..130,
        horizon_min in 45i64..110,
    ) {
        let start = Deployment::vejle().started;
        let end = start + Span::minutes(horizon_min);
        let ends = if split_min < horizon_min {
            vec![start + Span::minutes(split_min), end]
        } else {
            vec![end]
        };
        let fleet = run_fleet(build_cities(&specs), &ends);
        prop_assert_eq!(fleet.now(), end);
        let got: Vec<_> = fleet.into_pipelines().iter().map(observables).collect();
        let want: Vec<_> = run_solo(build_cities(&specs), &ends).iter().map(observables).collect();
        prop_assert_eq!(&got, &want, "fleet diverged from solo at ends {:?}", ends);
    }

    /// Run-split invariance through the fleet: a fleet paused and resumed
    /// at a random split replays the one-shot run exactly — per-city
    /// outcomes, total dispatches, and the fleet's own snapshot.
    #[test]
    fn fleet_run_split_is_invariant(
        specs in proptest::collection::vec(city_strategy(), 1..3),
        split_s in (20i64 * 60)..(70 * 60),
        horizon_min in 80i64..110,
    ) {
        let start = Deployment::vejle().started;
        let end = start + Span::minutes(horizon_min);
        let oneshot = run_fleet(build_cities(&specs), &[end]);
        let segmented = run_fleet(build_cities(&specs), &[start + Span::seconds(split_s), end]);
        prop_assert_eq!(segmented.now(), oneshot.now());
        let a: Vec<_> = oneshot.cities().map(split_observables).collect();
        let b: Vec<_> = segmented.cities().map(split_observables).collect();
        prop_assert_eq!(&b, &a, "split at {}s diverged from one-shot", split_s);
        prop_assert_eq!(dispatched(&segmented), dispatched(&oneshot));
        prop_assert_eq!(
            segmented.metrics_snapshot().to_csv(),
            oneshot.metrics_snapshot().to_csv()
        );
    }
}

/// The acceptance-criterion case, pinned deterministically: a 4-city fleet
/// (two pilots plus two renamed vejles, all with fault plans) paused at an
/// odd-second caller end and at a rollup instant replays its fleet-level
/// snapshot exactly, and every city equals the same city solo.
#[test]
fn four_city_fleet_parallel_equals_sequential() {
    let build = || {
        let mut cities = vec![
            Pipeline::new(Deployment::vejle(), 7),
            Pipeline::new(Deployment::trondheim(), 7),
        ];
        for (i, seed) in [(2usize, 99u64), (3, 1234)] {
            let mut d = Deployment::vejle();
            d.city = format!("Pilot{i}");
            let plan = build_plan(
                &d,
                &[
                    FaultSpec::Death {
                        node: 0,
                        from_min: 40,
                        len_min: 60,
                    },
                    FaultSpec::Outage {
                        from_min: 90,
                        len_min: 30,
                    },
                    FaultSpec::BitFlip {
                        nth: 2,
                        bit: 9_173,
                        at_min: 150,
                    },
                ],
            );
            cities.push(Pipeline::with_chaos(d, seed, plan));
        }
        cities
    };
    let start = Deployment::vejle().started;
    let ends = [
        start + Span::seconds(97 * 60 + 13),
        start + Span::hours(2),
        start + Span::hours(4),
    ];
    let fleet = run_fleet(build(), &ends);
    let replay = run_fleet(build(), &ends);
    let snap = fleet.metrics_snapshot();
    assert_eq!(snap.to_csv(), replay.metrics_snapshot().to_csv());
    assert_eq!(snap.to_json(), replay.metrics_snapshot().to_json());
    assert_eq!(snap.value("fleet.cities"), Some(4));
    assert_eq!(snap.value("fleet.rollups"), Some(4));
    let got: Vec<_> = fleet.into_pipelines().iter().map(observables).collect();
    let want: Vec<_> = run_solo(build(), &ends).iter().map(observables).collect();
    assert_eq!(got, want);
}
