//! Byte-identity of the sharded event space: dispatching a multi-city
//! fleet through [`Fleet`]'s sliced N-shard path must be bit-for-bit equal
//! to single-queue (1-shard) dispatch — ledger, alarm trace, metrics
//! snapshot (CSV and JSON), and TSDB contents — at 2 and 8 shards, over
//! random workloads *including chaos faults*. Plus run-split invariance
//! through the sharded path: pausing a fleet at any instant and resuming
//! must replay identically.
//!
//! Two test names still say "parallel"/"sequential": they are the ids the
//! test floor tracks, kept stable; every fleet dispatches on one thread.

use ctt::fleet::{Fleet, FleetConfig};
use ctt::prelude::*;
use ctt_chaos::{FaultKind, FaultPlan};
use proptest::prelude::*;

/// Everything the determinism suite compares per city: ledger render,
/// alarm trace, counters, TSDB totals, and the full metrics snapshot in
/// both export formats.
fn observables(p: &Pipeline) -> (String, String, PipelineStats, u64, usize, String, String) {
    let st = p.tsdb.stats();
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
    let st = p.tsdb.stats();
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

/// Build the fleet's pipelines for one case. Cities are renamed so they
/// spread over shards by slug hash (two pipelines of the same slug
/// sharing a shard is covered by `four_city_fleet_parallel_equals_sequential`).
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

fn run_fleet(pipelines: Vec<Pipeline>, shards: usize, end: Timestamp) -> Fleet {
    let mut fleet = Fleet::with_config(
        pipelines,
        FleetConfig {
            shards,
            ..FleetConfig::default()
        },
    );
    fleet.run_until(end);
    fleet
}

proptest! {
    /// Random multi-city workloads with chaos: slice dispatch at 2 and 8
    /// shards must match single-queue dispatch byte for byte on every
    /// per-city observable.
    #[test]
    fn sharded_parallel_matches_sequential_single_queue(
        specs in proptest::collection::vec(city_strategy(), 1..4),
        horizon_min in 45i64..110,
    ) {
        let end = Deployment::vejle().started + Span::minutes(horizon_min);
        let reference = run_fleet(build_cities(&specs), 1, end);
        let ref_obs: Vec<_> = reference.into_pipelines().iter().map(observables).collect();
        for shards in [2usize, 8] {
            let fleet = run_fleet(build_cities(&specs), shards, end);
            let got: Vec<_> = fleet.into_pipelines().iter().map(observables).collect();
            prop_assert_eq!(&got, &ref_obs, "shards={} diverged from single queue", shards);
        }
    }

    /// Run-split invariance through the sharded path: a fleet paused and
    /// resumed at a random split replays the one-shot run exactly.
    #[test]
    fn fleet_run_split_is_invariant(
        specs in proptest::collection::vec(city_strategy(), 1..3),
        split_s in (20i64 * 60)..(70 * 60),
        horizon_min in 80i64..110,
    ) {
        let start = Deployment::vejle().started;
        let end = start + Span::minutes(horizon_min);
        let oneshot = run_fleet(build_cities(&specs), 4, end);
        let mut segmented = run_fleet(build_cities(&specs), 4, start + Span::seconds(split_s));
        segmented.run_until(end);
        prop_assert_eq!(segmented.now(), oneshot.now());
        let a: Vec<_> = oneshot.cities().map(split_observables).collect();
        let b: Vec<_> = segmented.cities().map(split_observables).collect();
        prop_assert_eq!(&b, &a, "split at {}s diverged from one-shot", split_s);
        // Per-shard dispatch totals agree (the same events flowed through
        // the same shards). Slice *counts* may legitimately differ: a
        // split landing exactly on a populated instant cuts that instant
        // into two slices without reordering any dispatch.
        prop_assert_eq!(
            segmented.metrics_snapshot().value("sim.shard0.dispatched"),
            oneshot.metrics_snapshot().value("sim.shard0.dispatched")
        );
    }
}

/// The acceptance-criterion case, pinned deterministically: a 4-city fleet
/// (two pilots plus two renamed vejles, all with fault plans, two cities
/// hashing onto the same shard) dispatched over 4 shards equals
/// single-queue dispatch bit for bit — and at equal shard counts even the
/// fleet-level snapshot and scheduling profile replay identically.
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
    let end = Deployment::vejle().started + Span::hours(4);
    let replay = run_fleet(build(), 4, end);
    let sharded = run_fleet(build(), 4, end);
    // Equal shard count: fleet-level exports are byte-identical.
    assert_eq!(
        sharded.metrics_snapshot().to_csv(),
        replay.metrics_snapshot().to_csv()
    );
    assert_eq!(
        sharded.metrics_snapshot().to_json(),
        replay.metrics_snapshot().to_json()
    );
    assert_eq!(sharded.scheduling_profile(), replay.scheduling_profile());
    // Slices actually spread over multiple shards.
    let snap = sharded.metrics_snapshot();
    let active = (0..4)
        .filter(|i| snap.value(&format!("sim.shard{i}.dispatched")).unwrap_or(0) > 0)
        .count();
    assert!(active >= 2, "fleet never spread over shards:\n{snap:?}");
    // And against the single-queue reference, every per-city observable.
    let reference = run_fleet(build(), 1, end);
    let ref_obs: Vec<_> = reference.into_pipelines().iter().map(observables).collect();
    let got: Vec<_> = sharded.into_pipelines().iter().map(observables).collect();
    assert_eq!(got, ref_obs);
}
