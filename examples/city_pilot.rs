//! The developers' demo (§3): the full two-city pilot end to end.
//!
//! Runs both Trondheim (12 sensors) and Vejle (2 sensors) for a day,
//! traces one uplink through the Fig. 2 protocol stages, shows the
//! architecture counters at every hop, and performs the co-located
//! calibration against the reference station.
//!
//! ```sh
//! cargo run --release --example city_pilot
//! cargo run --release --example city_pilot -- --profile   # + metrics export
//! ```
//!
//! With `--profile`, each pilot's metrics snapshot and scheduling profile
//! are written to `results/profile_<city>.csv` / `.json` / `_sched.txt` —
//! the same replay-deterministic exports the figures binary produces.

use ctt::analytics::{calibrate_and_evaluate, completeness};
use ctt::dataport::{ProtocolTrace, Stage};
use ctt::integration::NiluStation;
use ctt::prelude::*;
use ctt_core::emission::Site;

fn main() {
    let profile = std::env::args().any(|a| a == "--profile");
    for deployment in Deployment::all_pilots() {
        let city = deployment.city.clone();
        println!("════════ {city} pilot ════════");
        let mut pipeline = Pipeline::new(deployment, 42);
        if profile {
            pipeline.enable_dispatch_trace(128);
        }
        let start = pipeline.deployment.started;
        let end = start + Span::days(1);
        pipeline.run_until(end);
        if profile {
            export_profile(&pipeline);
        }

        let st = pipeline.stats();
        let radio = pipeline.radio_stats();
        println!("  nodes:          {}", pipeline.deployment.nodes.len());
        println!("  readings:       {}", st.readings);
        println!(
            "  radio:          {} delivered / {} lost (PDR {:.1}%)",
            st.delivered,
            st.radio_lost,
            radio.pdr() * 100.0
        );
        println!(
            "    losses:       coverage={} collision={} duty={} busy={}",
            radio.lost_no_coverage,
            radio.lost_collision,
            radio.lost_duty_cycle,
            radio.lost_gateway_busy
        );
        println!("  ADR commands:   {}", st.adr_commands);
        // Seal the open buffers so the byte count is the compressed store.
        // Reads are unchanged by it: a read dedups the open buffer exactly
        // as a seal does, and a sealed chunk decodes to the same points.
        pipeline.seal_all();
        let tsdb = pipeline.store_stats();
        println!(
            "  TSDB:           {} points, {} series, {} bytes",
            tsdb.points, tsdb.series, tsdb.bytes
        );

        // Per-node completeness (the §2.2 missing-data reality).
        for n in &pipeline.deployment.nodes.clone() {
            let s = pipeline.device_series(n.eui, Quantity::Pollutant(Pollutant::Co2), start, end);
            let c = completeness(&s, Span::minutes(5));
            println!("    {:<18} completeness {:>5.1}%", n.name, c * 100.0);
        }

        // Fig. 2: trace one uplink through all stages.
        let mut trace = ProtocolTrace::new();
        let t0 = start + Span::hours(1);
        trace.record(Stage::SensorUplink, t0, true, "SF10, 34 B PHY");
        trace.record(
            Stage::GatewayForward,
            t0 + Span::seconds(1),
            true,
            format!("{}", pipeline.gateway_ids()[0]),
        );
        trace.record(
            Stage::TtnBackend,
            t0 + Span::seconds(1),
            true,
            "dedup + ADR",
        );
        trace.record(Stage::MqttPublish, t0 + Span::seconds(2), true, "QoS1");
        trace.record(
            Stage::DataportIngest,
            t0 + Span::seconds(2),
            true,
            "twin updated",
        );
        trace.record(
            Stage::DatabaseWrite,
            t0 + Span::seconds(2),
            true,
            "9 points",
        );
        trace.record(
            Stage::Visualization,
            t0 + Span::seconds(3),
            true,
            "dashboard refresh",
        );
        println!("\n  Fig. 2 protocol trace:\n{}", indent(&trace.render(), 4));

        // Calibration against the official station (Trondheim only).
        if let Some(station_spec) = pipeline.deployment.reference_station.clone() {
            let station = NiluStation::new(
                station_spec.name.clone(),
                Site::kerbside(station_spec.position),
                7,
            );
            let reference = station.hourly_series(pipeline.emission(), Pollutant::Co2, start, end);
            let colocated = station_spec
                .colocated_node
                .expect("paper: node 1 co-located");
            // Hourly means of the co-located sensor to match the station.
            let raw =
                pipeline.device_series(colocated, Quantity::Pollutant(Pollutant::Co2), start, end);
            let hourly = ctt::integration::resample(
                &raw,
                start,
                end,
                Span::hours(1),
                ctt::integration::ResampleMethod::BucketMean,
            );
            match calibrate_and_evaluate(&hourly, &reference, 0.5) {
                Some(report) => {
                    println!("  calibration vs {}:", station.name);
                    println!(
                        "    absolute accuracy: RMSE {:.1} → {:.1} ppm, bias {:+.1} → {:+.1} ppm",
                        report.before.rmse,
                        report.after.rmse,
                        report.before.bias,
                        report.after.bias
                    );
                    println!(
                        "    relative accuracy: r = {:.3} (gain {:.3}, offset {:+.1})",
                        report.after.r,
                        report.calibration.fit.slope,
                        report.calibration.fit.intercept
                    );
                }
                None => println!("  calibration: not enough co-located pairs in one day"),
            }
        }
        println!();
    }
}

fn indent(s: &str, n: usize) -> String {
    let pad = " ".repeat(n);
    s.lines().map(|l| format!("{pad}{l}\n")).collect()
}

/// Write the pilot's observability exports under `results/`.
fn export_profile(pipeline: &Pipeline) {
    let slug = pipeline.deployment.city.to_lowercase();
    std::fs::create_dir_all("results").expect("create results/");
    let snap = pipeline.metrics_snapshot();
    let artifacts = [
        (format!("results/profile_{slug}.csv"), snap.to_csv()),
        (format!("results/profile_{slug}.json"), snap.to_json()),
        (
            format!("results/profile_{slug}_sched.txt"),
            pipeline.scheduling_profile(),
        ),
    ];
    for (path, content) in artifacts {
        std::fs::write(&path, content).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("  wrote {path}");
    }
}
