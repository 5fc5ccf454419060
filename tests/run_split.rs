//! Split invariance: `run_until(a); run_until(b)` must be byte-identical
//! to `run_until(b)`.
//!
//! The old lockstep loop force-drained the radio at every intermediate
//! `end`, resolving in-flight collision windows early — so where a caller
//! happened to pause the simulation changed its outcome. With event-based
//! window deadlines the boundary rule is exact: ticks and radio deadlines
//! landing on the split point belong to the first segment, transmissions
//! and chaos transitions to the second, and the total dispatch order is
//! identical either way. This suite pins that for healthy and chaotic
//! pipelines over several split points, including awkward odd-second ones,
//! comparing stats, ledger, alarm trace, and TSDB contents byte for byte.

use ctt::prelude::*;
use ctt_chaos::{FaultKind, FaultPlan};

/// Everything the determinism suite compares: ledger render, alarm trace,
/// counters, and TSDB point/series totals.
fn observables(p: &Pipeline) -> (String, String, PipelineStats, u64, usize) {
    let st = p.store_stats();
    (
        p.ledger().render(),
        p.alarm_trace(),
        p.stats(),
        st.points,
        st.series,
    )
}

/// A plan that keeps windows opening and closing around the split points:
/// a node death, a gateway outage, frame corruption, and a bit flip.
fn split_plan(d: &Deployment) -> FaultPlan {
    let t0 = d.started;
    FaultPlan::new()
        .with(
            FaultKind::NodeDeath {
                device: d.nodes[0].eui,
            },
            t0 + Span::minutes(50),
            t0 + Span::minutes(130),
        )
        .with(
            FaultKind::GatewayOutage {
                gateway: d.gateways[0].id,
            },
            t0 + Span::minutes(95),
            t0 + Span::minutes(125),
        )
        .with(
            FaultKind::FrameCorruption {
                device: d.nodes[1].eui,
            },
            t0 + Span::hours(2),
            t0 + Span::hours(3),
        )
        .at(
            FaultKind::TsdbBitFlip {
                nth_chunk: 2,
                bit: 9_173,
            },
            t0 + Span::minutes(170),
        )
}

/// Run to `end` in one shot and in the given segments; observables must
/// agree byte for byte.
fn assert_split_invariant(build: impl Fn() -> Pipeline, splits: &[Span], horizon: Span) {
    let mut oneshot = build();
    let end = oneshot.deployment.started + horizon;
    oneshot.run_until(end);

    let mut segmented = build();
    let start = segmented.deployment.started;
    for &s in splits {
        segmented.run_until(start + s);
    }
    segmented.run_until(end);

    assert_eq!(segmented.now(), oneshot.now());
    assert_eq!(
        observables(&segmented),
        observables(&oneshot),
        "split at {splits:?} diverged from the one-shot run"
    );
}

#[test]
fn healthy_run_is_split_invariant() {
    let build = || Pipeline::new(Deployment::vejle(), 42);
    let horizon = Span::hours(3);
    // One round split, one awkward odd-second split, one mid-minute split.
    for split in [
        Span::hours(1),
        Span::seconds(47 * 60 + 13),
        Span::seconds(90 * 60 + 1),
    ] {
        assert_split_invariant(build, &[split], horizon);
    }
}

#[test]
fn many_uneven_segments_match_one_shot() {
    let build = || Pipeline::new(Deployment::vejle(), 7);
    // Eleven segments of 17 min 11 s each, ending past the 3 h one-shot
    // horizon check inside assert_split_invariant.
    let splits: Vec<Span> = (1..=10)
        .map(|i| Span::seconds(i * (17 * 60 + 11)))
        .collect();
    assert_split_invariant(build, &splits, Span::hours(3));
}

#[test]
fn chaos_run_is_split_invariant() {
    let d = Deployment::vejle();
    let plan = split_plan(&d);
    let build = || Pipeline::with_chaos(Deployment::vejle(), 1234, plan.clone());
    let horizon = Span::hours(4);
    // Splits landing before, inside, and after the fault windows — one on
    // a death-window edge exactly, one at an odd second inside the outage.
    for split in [
        Span::minutes(50),
        Span::seconds(100 * 60 + 37),
        Span::minutes(170),
        Span::seconds(3 * 3600 + 59 * 60 + 59),
    ] {
        assert_split_invariant(build, &[split], horizon);
    }
}

#[test]
fn full_fleet_split_is_invariant() {
    // Twelve nodes give dense same-instant event traffic around splits.
    let build = || Pipeline::new(Deployment::trondheim(), 5);
    assert_split_invariant(
        build,
        &[Span::seconds(29 * 60 + 59), Span::hours(1)],
        Span::hours(2),
    );
}
