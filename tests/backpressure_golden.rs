//! Healthy-run byte-identity pin for the backpressure work.
//!
//! The fixtures under `tests/goldens/` were captured on the tree *before*
//! scheduled storage drains, broker queue caps, and bridge admission control
//! existed. A healthy (chaos-free) run must keep producing byte-identical
//! observables: backpressure machinery may only change behaviour under
//! overload. Re-bless with `GOLDEN_BLESS=1 cargo test --test
//! backpressure_golden` only for a reviewed, intentional behaviour change.

use std::fs;
use std::path::PathBuf;

use ctt::prelude::*;

/// Everything the pin compares: ledger render, alarm trace, stage counters,
/// and TSDB point/series totals — the same observable set the run-split
/// determinism suite uses.
fn render_observables(p: &Pipeline) -> String {
    let st = p.store_stats();
    format!(
        "== ledger ==\n{}== alarms ==\n{}== stats ==\n{:?}\n== tsdb ==\npoints={} series={}\n",
        p.ledger().render(),
        p.alarm_trace(),
        p.stats(),
        st.points,
        st.series,
    )
}

fn check_golden(name: &str, build: impl Fn() -> Pipeline, horizon: Span) {
    let mut p = build();
    let start = p.now();
    p.run_until(start + horizon);
    let got = render_observables(&p);

    let mut path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.push("tests/goldens");
    path.push(name);

    if std::env::var("GOLDEN_BLESS").is_ok() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir goldens");
        fs::write(&path, &got).expect("write golden");
        return;
    }

    let want = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); run with GOLDEN_BLESS=1", name));
    assert_eq!(
        got, want,
        "healthy-run observables diverged from the pre-backpressure golden {name}"
    );
}

#[test]
fn healthy_vejle_matches_pre_backpressure_golden() {
    check_golden(
        "healthy_vejle_seed42_6h.txt",
        || Pipeline::new(Deployment::vejle(), 42),
        Span::hours(6),
    );
}

#[test]
fn healthy_trondheim_matches_pre_backpressure_golden() {
    check_golden(
        "healthy_trondheim_seed5_3h.txt",
        || Pipeline::new(Deployment::trondheim(), 5),
        Span::hours(3),
    );
}
