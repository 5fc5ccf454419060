//! The system starts no threads: building a fleet, running it, reading its
//! metrics and serving a query all happen on the caller. This file holds
//! exactly one test, so the harness itself adds no sibling test threads to
//! the count.

#![cfg(target_os = "linux")]

use ctt::prelude::*;
use ctt::tsdb::Query;

/// The `Threads:` line of `/proc/self/status`.
fn os_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("status has a Threads line")
}

#[test]
fn an_eight_city_fleet_starts_no_threads() {
    let before = os_threads();
    let cities = (0..8)
        .map(|i| {
            let mut d = Deployment::vejle();
            d.city = format!("Pilot{i}");
            Pipeline::new(d, 42 + i)
        })
        .collect();
    let mut fleet = Fleet::new(cities);
    assert_eq!(os_threads(), before, "building the fleet");
    let start = Deployment::vejle().started;
    for hour in 1..=2 {
        fleet.run_until(start + Span::hours(hour));
        assert_eq!(os_threads(), before, "segment {hour}");
    }
    for city in fleet.cities() {
        city.metrics_snapshot();
    }
    assert_eq!(os_threads(), before, "snapshots");
    let co2 = Query::range(
        Quantity::Pollutant(Pollutant::Co2).metric_name(),
        start,
        start + Span::hours(2),
    );
    for i in 0..fleet.len() {
        let served = fleet.query(i, &co2).expect("a city at each index");
        assert!(
            served.iter().any(|r| !r.series.is_empty()),
            "a served query returns the stored points"
        );
    }
    assert_eq!(os_threads(), before, "served queries");
}
