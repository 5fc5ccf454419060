//! The metric tables: every name the benchmark prints, with its unit,
//! direction and (for end-to-end metrics) regression bound. `BENCHMARK.json`
//! carries the same tables; a unit test keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

#[cfg(test)]
impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// End-to-end only: share of the baseline median by which the metric
    /// may worsen before `--compare` (and the driver) calls it a regression.
    pub bound: f64,
    /// The value is a pure function of `--seed` and the sizes: two runs of
    /// the same code must agree exactly, and `--compare` says so.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn timing(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
        exact: false,
    }
}

const fn count(name: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit: "count",
        better,
        bound: 0.0,
        exact: true,
    }
}

const fn gauge(name: &'static str, unit: &'static str, better: Better, exact: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact,
    }
}

/// What a user of the system sees. Reported by the untraced run, on every
/// workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("uplinks_per_s", "1/s", Better::Higher, 0.25),
    e2e("query_p50_us", "us", Better::Lower, 0.25),
    e2e("query_p99_us", "us", Better::Lower, 0.25),
    e2e("queries_per_s", "1/s", Better::Higher, 0.25),
    e2e("refresh_p50_ms", "ms", Better::Lower, 0.25),
    MetricDef {
        exact: true,
        ..e2e("bytes_per_point", "B", Better::Lower, 0.05)
    },
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// Single layers. Reported by the traced run, on every workload; no bound.
pub const PER_LAYER: &[MetricDef] = &[
    // core
    timing("core.node_step_ns", "ns"),
    count("core.readings", Higher),
    // lorawan
    timing("lorawan.radio_ns", "ns"),
    timing("lorawan.server_ns", "ns"),
    count("lorawan.delivered", Higher),
    count("lorawan.lost", Lower),
    gauge("lorawan.pdr", "ratio", Higher, true),
    // broker
    timing("broker.publish_ns", "ns"),
    timing("broker.drain_ns", "ns"),
    timing("broker.decode_ns", "ns"),
    count("broker.published", Higher),
    count("broker.redelivered", Lower),
    count("broker.deferred", Lower),
    count("broker.shed", Lower),
    // dataport
    timing("dataport.on_uplink_ns", "ns"),
    timing("dataport.tick_ns", "ns"),
    count("dataport.alarms", Lower),
    // ingest
    timing("ingest.submit_ns", "ns"),
    timing("ingest.flush_wait_ns", "ns"),
    count("ingest.points", Higher),
    count("ingest.batches", Lower),
    count("ingest.full_stalls", Lower),
    count("ingest.ring_high_water", Lower),
    gauge("ingest.encoded_bytes", "B", Lower, true),
    // tsdb
    timing("tsdb.seal_ns", "ns"),
    timing("tsdb.query_hit_us", "us"),
    timing("tsdb.query_rollup_us", "us"),
    timing("tsdb.query_raw_us", "us"),
    timing("tsdb.query_point_us", "us"),
    timing("tsdb.query_default_us", "us"),
    count("tsdb.cache_hits", Higher),
    count("tsdb.cache_misses", Lower),
    count("tsdb.cache_evictions", Lower),
    gauge("tsdb.cache_hit_ratio", "ratio", Higher, true),
    count("tsdb.chunks_decoded", Lower),
    count("tsdb.blocks_skipped", Higher),
    gauge("tsdb.scan_ratio", "ratio", Lower, true),
    count("tsdb.rollup_buckets", Higher),
    count("tsdb.raw_buckets", Lower),
    count("tsdb.series", Lower),
    count("tsdb.chunks", Lower),
    gauge("tsdb.bytes", "B", Lower, true),
    gauge("tsdb.rollup_bytes", "B", Lower, true),
    // sim
    timing("sim.queue_ns", "ns"),
    count("sim.events", Lower),
    count("sim.queue_high_water", Lower),
    count("sim.slices", Lower),
    count("sim.slice_width_p50", Higher),
    count("sim.cross_events", Lower),
    // pipeline
    timing("pipeline.new_ms", "ms"),
    timing("pipeline.run_ns", "ns"),
    timing("pipeline.segment_p99_ms", "ms"),
    timing("pipeline.collect_ns", "ns"),
    timing("pipeline.unattributed_ns", "ns"),
    // fleet
    timing("fleet.new_ms", "ms"),
    timing("fleet.run_ns", "ns"),
    timing("fleet.seq_run_ns", "ns"),
    gauge("fleet.parallel_ratio", "ratio", Higher, false),
    timing("fleet.segment_p99_ms", "ms"),
    gauge("fleet.threads", "count", Lower, false),
    // obs
    timing("obs.snapshot_ms", "ms"),
    count("obs.snapshot_entries", Lower),
    // the dashboard client
    timing("dashboard.refresh_p95_ms", "ms"),
    // analytics
    timing("analytics.refresh_us", "us"),
    // viz
    timing("viz.render_us", "us"),
    gauge("viz.svg_bytes", "B", Lower, true),
    // trace
    gauge("trace.coverage", "ratio", Higher, false),
    gauge("trace.overhead_pct", "%", Lower, false),
    gauge("trace.spans", "count", Lower, false),
];

/// Look a metric up in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn check_table(listed: &Json, table: &[MetricDef], bounded: bool) {
        let listed = listed.as_arr().expect("metric array");
        assert_eq!(listed.len(), table.len(), "metric count differs");
        for (entry, def) in listed.iter().zip(table) {
            let field = |k: &str| entry.get(k).and_then(Json::as_str).map(str::to_string);
            assert_eq!(field("name").as_deref(), Some(def.name));
            assert_eq!(field("unit").as_deref(), Some(def.unit), "{}", def.name);
            assert_eq!(
                field("better").as_deref(),
                Some(def.better.word()),
                "{}",
                def.name
            );
            let bound = entry.get("bound").and_then(Json::as_f64);
            if bounded {
                assert_eq!(bound, Some(def.bound), "{}", def.name);
                assert!(def.bound > 0.0 && def.bound <= 0.25, "{}", def.name);
            } else {
                assert_eq!(bound, None, "{}", def.name);
            }
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let m = manifest();
        check_table(m.get("end_to_end").expect("end_to_end"), END_TO_END, true);
        check_table(m.get("per_layer").expect("per_layer"), PER_LAYER, false);
        let names: Vec<&str> = m
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        assert_eq!(
            m.get("paths").map(Json::render).as_deref(),
            Some(r#"["benchmark"]"#)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for (i, a) in all.iter().enumerate() {
            assert!(a.name.len() <= 64 && a.unit.len() <= 16, "{}", a.name);
            assert!(a
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(all[i + 1..].iter().all(|b| b.name != a.name), "{}", a.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
