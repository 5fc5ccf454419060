//! The five workloads and the epoch loop that runs them.
//!
//! Every workload is the whole path from a node's transmission to a served
//! dashboard; they differ in which part does most of the work. A run is a
//! sequence of *epochs*. Each epoch builds fresh cities from the seed
//! (set-up, sampled into `setup_s`), pushes a fixed amount of simulated
//! time and dashboard traffic through them (the timed region), checks the
//! outcome, and drops them. Epochs repeat until `--seconds` of timed work
//! have been measured, so a run has several set-up samples, per-epoch
//! throughputs whose median is reported, and a peak memory that does not
//! grow with how fast the machine is. Everything an epoch does is a pure
//! function of `(seed, epoch index)`.

use crate::dashboard::{refresh, CityView, Client};
use crate::layers::{self, LayerCounts};
use crate::measure::{Checks, Meas};
use crate::queries::{self, QuerySet};
use crate::rng::{derive, SplitMix64};
use crate::trace::Tracer;
use ctt::prelude::*;
use ctt::tsdb::StoreStats;
use std::time::Instant;

/// A workload by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One city through the solo runner, a day per segment.
    CitySolo,
    /// A hundred cities in one sharded fleet, an hour per segment.
    Fleet100,
    /// A sealed archive under a query mix that fits the cache.
    DashHot,
    /// The same archive under a query mix 16× the cache.
    DashCold,
    /// Eight cities: every hourly segment is followed by every dashboard.
    LiveMixed,
}

/// Which ad-hoc query mix follows the segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// 16 signatures, zipfian; dashboards refresh at the archive's end.
    Hot,
    /// 4 096 signatures, uniform; dashboards refresh at historic instants.
    Cold,
}

/// The fixed sizes of one epoch of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Trondheim-shaped cities (12 nodes, 2 gateways each).
    pub cities: usize,
    /// `None`: each city's own solo `Pipeline::run_until`. `Some`: one
    /// `Fleet` with this configuration.
    pub fleet: Option<FleetConfig>,
    /// Simulated time per `run_until` call.
    pub segment: Span,
    /// Timed segments per epoch.
    pub segments: usize,
    /// Dashboards refreshed after each timed segment (rotating over cities).
    pub refresh_cities: usize,
    /// Days of archive loaded (a `segment` per call) and sealed during
    /// set-up.
    pub archive_days: i64,
    /// Ad-hoc queries after the segments, drawn from `mix`.
    pub queries: usize,
    /// Dashboard refreshes after the ad-hoc queries.
    pub refreshes: usize,
    /// Which mix `queries` and `refreshes` follow.
    pub mix: Option<Mix>,
    /// Segments the runner probe of the traced run drives per runner.
    pub probe_segments: usize,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::CitySolo,
        Workload::Fleet100,
        Workload::DashHot,
        Workload::DashCold,
        Workload::LiveMixed,
    ];

    /// Name as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CitySolo => "city_solo",
            Workload::Fleet100 => "fleet_100",
            Workload::DashHot => "dash_hot",
            Workload::DashCold => "dash_cold",
            Workload::LiveMixed => "live_mixed",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Epoch sizes. `smoke` divides every size by about twenty: enough to
    /// run every code path and check every output, too little to time.
    pub fn sizes(self, smoke: bool) -> Sizes {
        let div = |n: usize| if smoke { n.div_ceil(20) } else { n };
        let days = |n: i64| if smoke { (n / 20).max(2) } else { n };
        match self {
            Workload::CitySolo => Sizes {
                cities: 1,
                fleet: None,
                segment: Span::days(1),
                segments: div(48),
                refresh_cities: 1,
                archive_days: 0,
                queries: 0,
                refreshes: 0,
                mix: None,
                probe_segments: div(10),
            },
            Workload::Fleet100 => Sizes {
                cities: div(100),
                fleet: Some(FleetConfig {
                    shards: 8,
                    parallel: true,
                    rollup_cadence: Some(Span::hours(1)),
                }),
                segment: Span::hours(1),
                segments: 2,
                refresh_cities: div(100),
                archive_days: 0,
                queries: 0,
                refreshes: 0,
                mix: None,
                probe_segments: 2,
            },
            Workload::DashHot => Sizes {
                cities: 1,
                fleet: None,
                segment: Span::days(1),
                segments: 0,
                refresh_cities: 0,
                archive_days: days(30),
                queries: div(1_000_000),
                refreshes: div(500),
                mix: Some(Mix::Hot),
                probe_segments: div(10),
            },
            Workload::DashCold => Sizes {
                cities: 1,
                fleet: None,
                segment: Span::days(1),
                segments: 0,
                refresh_cities: 0,
                archive_days: days(30),
                queries: div(20_000),
                refreshes: div(200),
                mix: Some(Mix::Cold),
                probe_segments: div(10),
            },
            Workload::LiveMixed => Sizes {
                cities: 8,
                fleet: Some(FleetConfig {
                    parallel: false,
                    ..FleetConfig::default()
                }),
                segment: Span::hours(1),
                segments: div(24).max(2),
                refresh_cities: 8,
                archive_days: 0,
                queries: 0,
                refreshes: 0,
                mix: None,
                probe_segments: div(24).max(2),
            },
        }
    }
}

/// The cities of an epoch under their runner.
#[derive(Debug)]
pub enum World {
    /// Independent pipelines, each driven by its own `run_until`.
    Solo(Vec<Pipeline>),
    /// One fleet driving all of them.
    Fleet(Box<Fleet>),
}

impl World {
    /// Advance every city to `end`.
    pub fn run_until(&mut self, end: Timestamp) {
        match self {
            World::Solo(ps) => ps.iter_mut().for_each(|p| p.run_until(end)),
            World::Fleet(f) => f.run_until(end),
        }
    }

    /// The cities, in index order.
    pub fn cities(&self) -> Box<dyn Iterator<Item = &Pipeline> + '_> {
        match self {
            World::Solo(ps) => Box::new(ps.iter()),
            World::Fleet(f) => Box::new(f.cities()),
        }
    }

    /// City `idx`.
    pub fn city(&self, idx: usize) -> Option<&Pipeline> {
        match self {
            World::Solo(ps) => ps.get(idx),
            World::Fleet(f) => f.city(idx),
        }
    }

    /// Readings produced so far, over all cities.
    pub fn readings(&self) -> u64 {
        self.cities().map(|p| p.stats().readings).sum()
    }

    fn span_name(&self) -> (&'static str, &'static str) {
        match self {
            World::Solo(_) => ("pipeline.run_until", "pipeline"),
            World::Fleet(_) => ("fleet.run_until", "fleet"),
        }
    }
}

/// The deployments of a workload: Trondheim's nodes and gateways, one copy
/// per city, named so every city has its own tag value and fleet shard.
pub fn deployments(cities: usize) -> Vec<Deployment> {
    (0..cities)
        .map(|i| {
            let mut d = Deployment::trondheim();
            if cities > 1 {
                d.city = format!("City{i}");
            }
            d
        })
        .collect()
}

/// Build the cities of `(seed, epoch)` under the workload's runner, filing a
/// span per constructor.
pub fn build_world(
    deployments: &[Deployment],
    fleet: Option<FleetConfig>,
    seed: u64,
    epoch: u64,
    tracer: &mut Tracer,
) -> World {
    let pipelines: Vec<Pipeline> = deployments
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let span = tracer.begin("pipeline.new", "pipeline");
            let p = Pipeline::new(d.clone(), derive(seed, epoch, i as u64));
            tracer.end(span, 1);
            p
        })
        .collect();
    match fleet {
        None => World::Solo(pipelines),
        Some(config) => {
            let span = tracer.begin("fleet.new", "fleet");
            let fleet = Fleet::with_config(pipelines, config);
            tracer.end(span, deployments.len() as u64);
            World::Fleet(Box::new(fleet))
        }
    }
}

/// One timed `run_until`: the span, the ingest sample, the uplinks produced.
pub fn timed_segment(world: &mut World, end: Timestamp, meas: &mut Meas, tracer: &mut Tracer) {
    let before = world.readings();
    let (name, layer) = world.span_name();
    let span = tracer.begin(name, layer);
    let started = Instant::now();
    world.run_until(end);
    let ns = started.elapsed().as_nanos() as u64;
    let uplinks = world.readings() - before;
    tracer.end(span, uplinks);
    meas.ingest(uplinks, ns);
}

/// `seal_all` on every city, in one span whose units are the stored points
/// (most chunks seal as they fill during ingest; this is the remainder,
/// spread over all points).
fn seal(world: &World, tracer: &mut Tracer) {
    let span = tracer.begin("tsdb.seal_all", "tsdb");
    let mut points = 0;
    for p in world.cities() {
        p.tsdb.seal_all();
        points += p.tsdb.stats().points;
    }
    tracer.end(span, points);
}

/// What an epoch leaves behind for the cross-run checks: counts that must
/// repeat exactly for the same `(seed, epoch)`, traced or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Readings produced.
    pub readings: u64,
    /// Uplinks delivered by the radio.
    pub delivered: u64,
    /// Points the pipelines stored.
    pub points_stored: u64,
    /// Series, points, chunks, bytes and rollup bytes after `seal_all`.
    pub store: [u64; 5],
}

impl Digest {
    /// Fold one city in.
    pub fn add(&mut self, stats: PipelineStats, store: StoreStats) {
        self.readings += stats.readings;
        self.delivered += stats.delivered;
        self.points_stored += stats.points_stored;
        let s = [
            store.series as u64,
            store.points,
            store.chunks as u64,
            store.bytes as u64,
            store.rollup_bytes as u64,
        ];
        for (total, part) in self.store.iter_mut().zip(s) {
            *total += part;
        }
    }

    /// Stored bytes (chunks + rollups) per stored point over `digests`.
    pub fn bytes_per_point(digests: &[Digest]) -> f64 {
        let sum = |i: usize| digests.iter().map(|d| d.store[i]).sum::<u64>();
        (sum(3) + sum(4)) as f64 / sum(1).max(1) as f64
    }

    /// The digest as a flat list, for the info line.
    pub fn to_vec(self) -> Vec<u64> {
        let mut v = vec![self.readings, self.delivered, self.points_stored];
        v.extend(self.store);
        v
    }
}

/// Everything one run of a workload produced.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// Timing samples and operation counts.
    pub meas: Meas,
    /// The correctness verdict.
    pub checks: Checks,
    /// One digest per epoch, in order.
    pub digests: Vec<Digest>,
    /// Layer counts read at the end of the first traced epoch.
    pub layer_counts: Option<LayerCounts>,
    /// SVG bytes of the last dashboard of the first traced epoch.
    pub svg_bytes: usize,
    /// Primary rate (uplinks/s, or queries/s on the archive workloads) of
    /// each epoch, split by whether the tracer was recording.
    pub rate_untraced: Vec<f64>,
    /// See `rate_untraced`.
    pub rate_traced: Vec<f64>,
}

/// Run epochs of `sizes` for about `seconds` of timed work. With `trace`, every
/// second epoch records spans into `tracer` (the others stay untraced, so
/// the two halves give the tracing overhead).
pub fn run(sizes: &Sizes, seed: u64, seconds: f64, trace: bool, tracer: &mut Tracer) -> RunOutcome {
    let mut out = RunOutcome::default();
    let budget_ns = (seconds * 1e9) as u64;
    let mut epoch = 0u64;
    loop {
        let traced = trace && epoch % 2 == 1;
        tracer.set_enabled(traced);
        run_epoch(sizes, seed, epoch, tracer, &mut out);
        epoch += 1;
        // A traced run needs one epoch of each kind whatever the budget.
        if out.meas.timed_ns >= budget_ns && (!trace || epoch >= 2) {
            break;
        }
    }
    tracer.set_enabled(trace);
    out
}

fn run_epoch(sizes: &Sizes, seed: u64, epoch: u64, tracer: &mut Tracer, out: &mut RunOutcome) {
    let RunOutcome {
        meas,
        checks,
        digests,
        layer_counts,
        svg_bytes: first_traced_svg_bytes,
        rate_untraced,
        rate_traced,
    } = out;

    // ---- set-up: constructors, archive load and seal, query generation.
    let setup_started = Instant::now();
    let deployments = deployments(sizes.cities);
    let views: Vec<CityView> = deployments.iter().map(CityView::of).collect();
    let start = deployments.first().map_or(Timestamp(0), |d| d.started);
    let mut world = build_world(&deployments, sizes.fleet, seed, epoch, tracer);
    let mut now = start;
    if sizes.archive_days > 0 {
        let archive_end = start + Span::days(sizes.archive_days);
        while now < archive_end {
            now = (now + sizes.segment).min(archive_end);
            timed_segment(&mut world, now, meas, tracer);
        }
        seal(&world, tracer);
    }
    let mut rng = SplitMix64::new(derive(seed, epoch, u64::MAX));
    let devices: Vec<String> = views
        .first()
        .map(|v| v.nodes.iter().map(|n| n.0.clone()).collect())
        .unwrap_or_default();
    let query_set: Option<QuerySet> = sizes.mix.map(|mix| match mix {
        Mix::Hot => queries::hot(now),
        Mix::Cold => queries::cold(&mut rng, start, sizes.archive_days, &devices),
    });
    meas.setup_s.push(setup_started.elapsed().as_secs_f64());

    // ---- timed region.
    let uplinks_before = meas.uplinks;
    let queries_before = meas.queries;
    let region_started = Instant::now();
    let mut client = Client {
        meas,
        tracer,
        checks,
        check_ns: 0,
        raw_checks: 0,
    };
    let mut svg_bytes = 0;
    for s in 0..sizes.segments {
        now = start + Span::seconds(sizes.segment.as_seconds() * (s as i64 + 1));
        timed_segment(&mut world, now, client.meas, client.tracer);
        for k in 0..sizes.refresh_cities {
            let idx = (s * sizes.refresh_cities + k) % sizes.cities.max(1);
            if let (Some(p), Some(view)) = (world.city(idx), views.get(idx)) {
                svg_bytes = refresh(&mut client, &p.tsdb, view, now);
            }
        }
    }
    if let (Some(mix), Some(set), Some(p), Some(view)) =
        (sizes.mix, &query_set, world.city(0), views.first())
    {
        for _ in 0..sizes.queries {
            let (q, class) = set.draw(&mut rng);
            std::hint::black_box(client.query(&p.tsdb, q, *class));
        }
        let week_hours = 7 * 24;
        let slack_hours = (sizes.archive_days * 24 - week_hours).max(0) as u64 + 1;
        for _ in 0..sizes.refreshes {
            let at = match mix {
                Mix::Hot => now,
                Mix::Cold => {
                    start
                        + Span::hours(week_hours.min(sizes.archive_days * 24))
                        + Span::hours(rng.below(slack_hours) as i64)
                }
            };
            svg_bytes = refresh(&mut client, &p.tsdb, view, at);
        }
    }
    let region_ns = region_started.elapsed().as_nanos() as u64;
    let Client {
        meas,
        tracer,
        checks,
        ..
    } = client;
    meas.timed_ns += region_ns;

    // ---- epoch end (untimed): seal what the segments wrote, read the
    // outcome, check it.
    if sizes.segments > 0 {
        seal(&world, tracer);
    }
    let mut digest = Digest::default();
    for p in world.cities() {
        let stats = p.stats();
        let store = p.tsdb.stats();
        meas.failed += checks.ledger(&p.deployment.city, &p.ledger().verify(), stats);
        checks.equal(
            &format!("{}: stored points vs tsdb points", p.deployment.city),
            stats.points_stored,
            store.points,
        );
        digest.add(stats, store);
    }
    if tracer.enabled() && layer_counts.is_none() {
        *layer_counts = Some(layers::read_counts(&world, tracer));
        *first_traced_svg_bytes = svg_bytes;
    }
    digests.push(digest);

    // The epoch's primary rate, for the tracing-overhead comparison.
    let secs = region_ns as f64 / 1e9;
    let rate = if sizes.segments > 0 {
        (meas.uplinks - uplinks_before) as f64 / secs
    } else {
        (meas.queries - queries_before) as f64 / secs
    };
    if tracer.enabled() {
        rate_traced.push(rate);
    } else {
        rate_untraced.push(rate);
    }
    meas.end_epoch();
}
