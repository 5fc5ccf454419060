//! The dashboard client: timed queries against a city's store and the
//! Fig. 6-style citizen dashboard refresh built from them (the shape of
//! `examples/citizen_dashboard.rs`, on the `tsdb.execute_with` surface).

use crate::measure::{Checks, Meas};
use crate::trace::Tracer;
use ctt::analytics::diurnal_profile;
use ctt::core::aqi::{caqi, AqiBand};
use ctt::core::geo::LatLon;
use ctt::prelude::*;
use ctt::tsdb::{Aggregator, Downsample, FillPolicy, Query, QueryResult, ServePolicy, ShardedTsdb};
use ctt::viz::{Dashboard, LineChart, MapView, Marker, MarkerKind, StatTile};
use std::hint::black_box;
use std::time::Instant;

/// One in this many queries is re-run, untimed, through the raw reference
/// path and compared with the served answer.
pub const RAW_CHECK_EVERY: u64 = 64;
/// At most this many such re-runs per epoch: the hot mix repeats 16
/// signatures a million times, and re-decoding a week of raw points for the
/// same signature thousands of times over checks nothing new.
pub const RAW_CHECKS_PER_EPOCH: u32 = 256;

/// How the client asks: result cache and rollups on, shards collected one
/// after another on the calling thread. `ShardedTsdb::execute` would also
/// fan the collect out to a worker pool; for dashboard-sized queries on a
/// two-core host that costs more than it saves, and what it costs is the
/// cross-thread wake-up latency of the moment (the same small query reads
/// 26 µs or 61 µs depending on whether the host let the other vCPU idle),
/// which would make every latency metric bimodal between runs. The default
/// path is still measured, as the per-layer `tsdb.query_default_us`.
pub const SERVED: ServePolicy = ServePolicy {
    cache: true,
    rollups: true,
    parallel: false,
};

/// Shape class of a query: which part of the serving stack answers it when
/// the result cache misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// No downsample: the window's points come back as stored.
    Point,
    /// Downsample on the store's rollup interval with a foldable
    /// aggregator: sealed buckets are served from seal-time rollups.
    Rollup,
    /// Downsample the rollups cannot serve (odd interval, P95): decoded.
    Raw,
}

impl Class {
    fn span_name(self, hit: bool) -> &'static str {
        match (hit, self) {
            (true, _) => "tsdb.execute.hit",
            (false, Class::Point) => "tsdb.execute.point",
            (false, Class::Rollup) => "tsdb.execute.rollup",
            (false, Class::Raw) => "tsdb.execute.raw",
        }
    }
}

/// The one closed-loop client: times every `execute`, files a span for it
/// when tracing, and samples the raw-equivalence check.
#[derive(Debug)]
pub struct Client<'a> {
    /// Where timing samples go.
    pub meas: &'a mut Meas,
    /// Where spans go (a disabled tracer in the untraced run).
    pub tracer: &'a mut Tracer,
    /// Where failed checks go.
    pub checks: &'a mut Checks,
    /// Time spent so far in the sampled raw re-runs, which no latency
    /// sample may include.
    pub check_ns: u64,
    /// Raw re-runs made so far (a client lives for one epoch).
    pub raw_checks: u32,
}

impl Client<'_> {
    /// Run one query against `db`, timed. An `Err` counts as a failed
    /// operation and comes back as an empty result.
    pub fn query(&mut self, db: &ShardedTsdb, q: &Query, class: Class) -> Vec<QueryResult> {
        // Tracing only: a result-cache hit is a query after which the miss
        // counter has not moved.
        let misses_before = self.tracer.enabled().then(|| db.cache_stats().misses);
        let started = Instant::now();
        let served = db.execute_with(black_box(q), SERVED);
        let ns = started.elapsed().as_nanos() as u64;
        self.meas.query(ns);
        if let Some(before) = misses_before {
            let hit = db.cache_stats().misses == before;
            self.tracer.record(class.span_name(hit), "tsdb", ns, 1);
        }
        if self.meas.queries.is_multiple_of(RAW_CHECK_EVERY)
            && self.raw_checks < RAW_CHECKS_PER_EPOCH
        {
            self.raw_checks += 1;
            let check = self.tracer.begin("check.raw", "harness");
            let check_started = Instant::now();
            let raw = db.execute_with(q, ServePolicy::raw());
            let same = self.checks.served_equals_raw(q, &served, &raw);
            self.check_ns += check_started.elapsed().as_nanos() as u64;
            self.tracer.end(check, 1);
            if !same {
                self.meas.failed += 1;
                return served.unwrap_or_default();
            }
        }
        match served {
            Ok(results) => results,
            Err(_) => {
                self.meas.failed += 1;
                Vec::new()
            }
        }
    }
}

/// What the dashboard needs to know about a city, prepared at set-up so a
/// refresh spends its time in the system, not formatting identifiers.
#[derive(Debug, Clone)]
pub struct CityView {
    /// The `city` tag value (lower-case name).
    pub slug: String,
    /// Per node: `device` tag value, position, display name.
    pub nodes: Vec<(String, LatLon, String)>,
}

impl CityView {
    /// The view of a deployment.
    pub fn of(d: &Deployment) -> Self {
        CityView {
            slug: d.city.to_lowercase(),
            nodes: d
                .nodes
                .iter()
                .map(|n| (format!("{:016x}", n.eui.0), n.site.position, n.name.clone()))
                .collect(),
        }
    }
}

fn metric(p: Pollutant) -> String {
    Quantity::Pollutant(p).metric_name()
}

/// Mean of the first result group (0 for an empty answer).
fn mean(results: &[QueryResult]) -> f64 {
    results.first().map_or(0.0, |g| {
        g.series.values().sum::<f64>() / g.series.len().max(1) as f64
    })
}

/// One full dashboard refresh at `now`: per-node last-hour NO2 and PM10
/// (CAQI colour on the map), the city's CO2 over 24 h, and hourly CO2 by
/// device over 7 days (trend panel and cleanest-hour tile), rendered to SVG.
/// Returns the SVG bytes produced. The whole call is one refresh sample.
pub fn refresh(
    client: &mut Client<'_>,
    db: &ShardedTsdb,
    city: &CityView,
    now: Timestamp,
) -> usize {
    let started = Instant::now();
    let checks_before = client.check_ns;
    let whole = client.tracer.begin("dashboard.refresh", "harness");

    let hour_ago = now - Span::hours(1);
    let mut last_hour = Vec::with_capacity(city.nodes.len());
    for (device, _, _) in &city.nodes {
        let per_device = |p: Pollutant| {
            Query::range(metric(p), hour_ago, now)
                .with_tag("device", device.clone())
                .aggregate(Aggregator::Avg)
        };
        let no2 = client.query(db, &per_device(Pollutant::No2), Class::Point);
        let pm10 = client.query(db, &per_device(Pollutant::Pm10), Class::Point);
        last_hour.push((mean(&no2), mean(&pm10)));
    }
    let city_co2 = client.query(
        db,
        &Query::range(metric(Pollutant::Co2), now - Span::days(1), now)
            .with_tag("city", city.slug.clone())
            .aggregate(Aggregator::Avg),
        Class::Point,
    );
    let week_by_device = client.query(
        db,
        &Query::range(metric(Pollutant::Co2), now - Span::days(7), now)
            .with_tag("city", city.slug.clone())
            .group_by("device")
            .downsample(Downsample {
                interval: Span::hours(1),
                aggregator: Aggregator::Avg,
                fill: FillPolicy::None,
            }),
        Class::Rollup,
    );

    let analytics = client.tracer.begin("analytics.refresh", "analytics");
    let bands: Vec<AqiBand> = last_hour
        .iter()
        .map(|&(no2_ppb, pm10)| {
            // ppb → µg/m³ for NO2 at 20 °C, as the citizen example does.
            caqi(&[(Pollutant::No2, no2_ppb * 1.9125), (Pollutant::Pm10, pm10)])
                .map_or(AqiBand::VeryLow, |c| c.band())
        })
        .collect();
    let worst = bands.iter().copied().max().unwrap_or(AqiBand::VeryLow);
    let profile = week_by_device
        .first()
        .map_or([None; 24], |g| diurnal_profile(&g.series));
    let cleanest_hour = profile
        .iter()
        .enumerate()
        .filter_map(|(h, v)| v.map(|v| (h, v)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map_or(4, |(h, _)| h);
    client.tracer.end(analytics, city.nodes.len() as u64 + 1);

    let render = client.tracer.begin("viz.render", "viz");
    let mut map = MapView::new("Air quality right now");
    for ((_, position, name), band) in city.nodes.iter().zip(&bands) {
        map.markers.push(Marker {
            position: *position,
            kind: MarkerKind::Sensor,
            color: band.color().to_string(),
            label: name.clone(),
            value: Some(band.label().to_string()),
        });
    }
    let chart = |title: &str, groups: &[QueryResult]| {
        let mut c = LineChart::new(title, "ppm");
        for g in groups {
            let name = g.group.get("device").map_or("city mean", String::as_str);
            c.add(name, g.series.clone());
        }
        c.width = 740.0;
        c.height = 260.0;
        c.render_canvas()
    };
    let tile = |label: &str, value: String, color: &str| {
        StatTile {
            label: label.to_string(),
            value,
            color: color.to_string(),
        }
        .render_canvas(360.0, 260.0)
    };
    let mut dash = Dashboard::new("CTT — citizens' air quality", 3, 2, 360.0, 260.0);
    dash.place(
        0,
        0,
        1,
        1,
        tile(
            "overall air quality",
            worst.label().to_string(),
            worst.color(),
        ),
    );
    dash.place(
        0,
        1,
        1,
        1,
        tile("cleanest hour", format!("{cleanest_hour:02}:00"), "#0072B2"),
    );
    dash.place(1, 0, 2, 1, chart("City CO2 (last 24 h)", &city_co2));
    dash.place(
        1,
        1,
        2,
        1,
        chart("CO2 by device (7 d, hourly)", &week_by_device),
    );
    let svg_bytes = black_box(dash.render()).len() + black_box(map.render()).len();
    client.tracer.end(render, svg_bytes as u64);

    client.tracer.end(whole, 1);
    let checking = client.check_ns - checks_before;
    client
        .meas
        .refresh((started.elapsed().as_nanos() as u64).saturating_sub(checking));
    svg_bytes
}
