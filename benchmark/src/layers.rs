//! Layer counts, read from outside through the public stats and snapshot
//! surface: `PipelineStats`, `radio_stats()`, `tsdb.stats()`,
//! `tsdb.cache_stats()` and `metrics_snapshot().value(..)`, summed over
//! shards and cities.

use crate::trace::Tracer;
use crate::workloads::World;
use ctt::obs::Snapshot;
use std::collections::BTreeMap;

/// Exact counts of one epoch, by per-layer metric name.
pub type LayerCounts = BTreeMap<&'static str, f64>;

/// Sum of `prefix<i>.suffix` over consecutive `i` from 0 until one is
/// missing, and the largest single value.
fn over_shards(snap: &Snapshot, prefix: &str, suffix: &str) -> (i128, i128) {
    let mut sum = 0;
    let mut max = 0;
    for i in 0.. {
        let Some(v) = snap.value(&format!("{prefix}{i}.{suffix}")) else {
            break;
        };
        sum += v;
        max = max.max(v);
    }
    (sum, max)
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Read every count layer by layer, over all cities of `world`. The
/// `metrics_snapshot` calls are filed as `obs.metrics_snapshot` spans (one
/// unit per snapshot entry).
pub fn read_counts(world: &World, tracer: &mut Tracer) -> LayerCounts {
    let mut counts = LayerCounts::new();
    let mut submitted = 0.0;
    let mut ring_high_water = 0i128;
    let mut queue_high_water = 0i128;
    for p in world.cities() {
        let span = tracer.begin("obs.metrics_snapshot", "obs");
        let snap = p.metrics_snapshot();
        tracer.end(span, snap.len() as u64);
        let value = |name: &str| snap.value(name).unwrap_or(0) as f64;
        let shards = |prefix: &str, suffix: &str| over_shards(&snap, prefix, suffix).0 as f64;
        let stats = p.stats();
        let store = p.tsdb.stats();
        let cache = p.tsdb.cache_stats();
        submitted += p.radio_stats().submitted as f64;
        for (name, v) in [
            ("core.readings", stats.readings as f64),
            ("lorawan.delivered", stats.delivered as f64),
            ("lorawan.lost", stats.radio_lost as f64),
            ("broker.published", value("stage.broker.published")),
            ("broker.redelivered", value("stage.broker.redelivered")),
            ("broker.deferred", value("stage.broker.deferred_qos1")),
            ("broker.shed", value("stage.broker.shed")),
            ("dataport.alarms", value("stage.dataport.alarms")),
            ("ingest.points", shards("ingest.shard", "enqueued")),
            ("ingest.batches", shards("ingest.shard", "batches")),
            ("ingest.full_stalls", shards("ingest.shard", "full_stalls")),
            (
                "ingest.encoded_bytes",
                shards("ingest.shard", "encoded_bytes"),
            ),
            ("tsdb.cache_hits", cache.hits as f64),
            ("tsdb.cache_misses", cache.misses as f64),
            ("tsdb.cache_evictions", cache.evictions as f64),
            (
                "tsdb.chunks_decoded",
                shards("tsdb.shard", "chunks_decoded"),
            ),
            (
                "tsdb.blocks_skipped",
                shards("tsdb.shard", "blocks_skipped"),
            ),
            (
                "tsdb.rollup_buckets",
                shards("tsdb.shard", "rollup_buckets"),
            ),
            ("tsdb.raw_buckets", shards("tsdb.shard", "raw_buckets")),
            ("tsdb.series", store.series as f64),
            ("tsdb.chunks", store.chunks as f64),
            ("tsdb.bytes", store.bytes as f64),
            ("tsdb.rollup_bytes", store.rollup_bytes as f64),
            ("sim.events", value("sim.dispatch.total")),
            ("obs.snapshot_entries", snap.len() as f64),
        ] {
            *counts.entry(name).or_default() += v;
        }
        ring_high_water =
            ring_high_water.max(over_shards(&snap, "ingest.shard", "ring_high_water").1);
        queue_high_water = queue_high_water.max(snap.value("sim.queue.high_water").unwrap_or(0));
    }
    let get = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let derived = [
        ("lorawan.pdr", ratio(get("lorawan.delivered"), submitted)),
        (
            "tsdb.cache_hit_ratio",
            ratio(
                get("tsdb.cache_hits"),
                get("tsdb.cache_hits") + get("tsdb.cache_misses"),
            ),
        ),
        (
            "tsdb.scan_ratio",
            ratio(
                get("tsdb.chunks_decoded"),
                get("tsdb.chunks_decoded") + get("tsdb.blocks_skipped"),
            ),
        ),
        ("ingest.ring_high_water", ring_high_water as f64),
        ("sim.queue_high_water", queue_high_water as f64),
    ];
    counts.extend(derived);
    counts
}

/// Smallest histogram bound (`<name>.le_<bound>` entries) at or below which
/// at least half the samples lie — the bucket-resolution median.
pub fn histogram_p50(snap: &Snapshot, name: &str, bounds: &[u64]) -> f64 {
    let count = snap.value(&format!("{name}.count")).unwrap_or(0);
    for b in bounds {
        if snap.value(&format!("{name}.le_{b}")).unwrap_or(0) * 2 >= count {
            return *b as f64;
        }
    }
    0.0
}

/// Everything the traced run measured besides its spans.
#[derive(Debug, Clone, Default)]
pub struct TracedRun {
    /// Counts of the first traced epoch.
    pub counts: LayerCounts,
    /// What the runner probe read off its parallel fleet.
    pub probe: crate::stations::ProbeOutcome,
    /// The ladder's totals and its reference pipeline's time.
    pub ladder: crate::stations::LadderOutcome,
    /// Primary-rate loss of traced against untraced epochs, in percent.
    pub overhead_pct: f64,
    /// SVG bytes of the last dashboard of the first traced epoch.
    pub svg_bytes: usize,
}

/// The per-layer values by metric name. A timing is "all spans of that name
/// in the traced run": the workload's own where it makes the call, the
/// probes' on every workload.
pub fn per_layer(tracer: &Tracer, run: &TracedRun) -> Vec<(&'static str, f64)> {
    let totals = tracer.totals();
    let per_unit = |name: &str| totals.get(name).map_or(0.0, |t| t.ns_per_unit());
    let mean_ns = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / t.spans.max(1) as f64)
    };
    let total_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let count = |name: &str| run.counts.get(name).copied().unwrap_or(0.0);
    let stations_ns: f64 = crate::stations::STATIONS.iter().map(|s| total_ns(s)).sum();
    let reference_ns = run.ladder.reference_ns as f64;
    let timings = [
        ("core.node_step_ns", per_unit("core.node_step")),
        ("lorawan.radio_ns", per_unit("lorawan.radio")),
        ("lorawan.server_ns", per_unit("lorawan.server")),
        ("broker.publish_ns", per_unit("broker.publish")),
        ("broker.drain_ns", per_unit("broker.drain")),
        ("broker.decode_ns", per_unit("broker.decode")),
        ("dataport.on_uplink_ns", per_unit("dataport.on_uplink")),
        ("dataport.tick_ns", per_unit("dataport.tick")),
        ("ingest.submit_ns", per_unit("ingest.submit")),
        ("ingest.flush_wait_ns", per_unit("ingest.flush")),
        ("tsdb.seal_ns", per_unit("tsdb.seal_all")),
        (
            "tsdb.query_hit_us",
            tracer.percentile_ns("tsdb.execute.hit", 0.5) / 1e3,
        ),
        (
            "tsdb.query_rollup_us",
            tracer.percentile_ns("tsdb.execute.rollup", 0.5) / 1e3,
        ),
        (
            "tsdb.query_raw_us",
            tracer.percentile_ns("tsdb.execute.raw", 0.5) / 1e3,
        ),
        (
            "tsdb.query_point_us",
            tracer.percentile_ns("tsdb.execute.point", 0.5) / 1e3,
        ),
        (
            "tsdb.query_default_us",
            tracer.percentile_ns("tsdb.execute.default", 0.5) / 1e3,
        ),
        ("sim.queue_ns", per_unit("sim.queue")),
        ("pipeline.new_ms", mean_ns("pipeline.new") / 1e6),
        ("pipeline.run_ns", per_unit("pipeline.run_until")),
        (
            "pipeline.segment_p99_ms",
            tracer.percentile_ns("pipeline.run_until", 0.99) / 1e6,
        ),
        ("pipeline.collect_ns", per_unit("pipeline.collect_points")),
        (
            "pipeline.unattributed_ns",
            (reference_ns - stations_ns) / run.ladder.readings.max(1) as f64,
        ),
        ("fleet.new_ms", mean_ns("fleet.new") / 1e6),
        ("fleet.run_ns", per_unit("fleet.run_until")),
        ("fleet.seq_run_ns", per_unit("fleet.run_until.seq")),
        (
            "fleet.parallel_ratio",
            ratio(per_unit("fleet.run_until.seq"), per_unit("fleet.run_until")),
        ),
        (
            "fleet.segment_p99_ms",
            tracer.percentile_ns("fleet.run_until", 0.99) / 1e6,
        ),
        ("fleet.threads", run.probe.fleet_threads),
        ("obs.snapshot_ms", mean_ns("obs.metrics_snapshot") / 1e6),
        (
            "dashboard.refresh_p95_ms",
            tracer.percentile_ns("dashboard.refresh", 0.95) / 1e6,
        ),
        ("analytics.refresh_us", mean_ns("analytics.refresh") / 1e3),
        ("viz.render_us", mean_ns("viz.render") / 1e3),
        ("viz.svg_bytes", run.svg_bytes as f64),
        ("trace.coverage", ratio(stations_ns, reference_ns)),
        ("trace.overhead_pct", run.overhead_pct),
        ("trace.spans", tracer.spans().len() as f64),
        ("sim.slices", run.probe.slices),
        ("sim.slice_width_p50", run.probe.slice_width_p50),
        ("sim.cross_events", run.probe.cross_events),
    ];
    crate::metrics::PER_LAYER
        .iter()
        .map(|def| {
            let value = timings
                .iter()
                .find(|(n, _)| *n == def.name)
                .map_or_else(|| count(def.name), |&(_, v)| v);
            (def.name, value)
        })
        .collect()
}
