//! Regenerate every figure and table of the paper's evaluation.
//!
//! ```sh
//! cargo run --release -p ctt-bench --bin figures            # everything
//! cargo run --release -p ctt-bench --bin figures -- --fig4  # one artifact
//! ```
//!
//! Outputs land in `results/` (CSV + SVG); a summary row per artifact is
//! printed for EXPERIMENTS.md. See DESIGN.md for the experiment index.

use ctt::prelude::*;
use ctt_analytics as analytics;
use ctt_bench::SEED;
use ctt_chaos::{FaultKind, FaultPlan};
use ctt_citymodel::{generate_district, overlay, project::project_model, PlacedSensor, P2};
use ctt_core::aqi::AqiBand;
use ctt_core::battery::{AdaptivePolicy, Battery, BatteryConfig};
use ctt_core::deployment::CostModel;
use ctt_core::emission::Site;
use ctt_core::node::{SensorNode, SensorSpec};
use ctt_dataport::{AlarmKind, GatewayState, ProtocolTrace, Stage, TwinState};
use ctt_integration::{info, resample, NiluStation, Oco2, ResampleMethod, SourceKind, TrafficFeed};
use ctt_viz::{
    AlarmList, Anchor, Canvas, Dashboard, LineChart, Link, MapView, Marker, MarkerKind,
    ScatterChart, StatTile,
};
use std::fmt::Write as _;
use std::fs;

fn out(name: &str, content: &str) {
    fs::create_dir_all("results").expect("create results/");
    let path = format!("results/{name}");
    fs::write(&path, content).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("  wrote {path}");
}

fn mean(series: &Series) -> f64 {
    series.values().sum::<f64>() / series.len().max(1) as f64
}

// ------------------------------------------------------------------- FIG 1

/// Fig. 1: the overall architecture exercised end to end; reports the
/// per-stage counters of the data flow for both pilots.
fn fig1() {
    println!("FIG1 — architecture & data flow (both pilots, 24 h)");
    let mut csv = String::from("city,nodes,readings,delivered,lost,pdr,points,series,alarms\n");
    for d in Deployment::all_pilots() {
        let mut p = ctt::Pipeline::new(d, SEED);
        let start = p.deployment.started;
        p.run_until(start + Span::days(1));
        let st = p.stats();
        let store = p.store_stats();
        let snap = p.dataport.snapshot(p.now());
        let _ = writeln!(
            csv,
            "{},{},{},{},{},{:.4},{},{},{}",
            p.deployment.city,
            p.deployment.nodes.len(),
            st.readings,
            st.delivered,
            st.radio_lost,
            p.radio_stats().pdr(),
            store.points,
            store.series,
            snap.active_alarms.len(),
        );
        println!(
            "  {}: {} readings → {} delivered (PDR {:.1}%) → {} points in {} series",
            p.deployment.city,
            st.readings,
            st.delivered,
            p.radio_stats().pdr() * 100.0,
            store.points,
            store.series
        );
    }
    out("fig1_pipeline.csv", &csv);
}

// ------------------------------------------------------------------- FIG 2

/// Fig. 2: the dataport protocol diagram — one uplink traced through the
/// eight numbered stations.
fn fig2() {
    println!("FIG2 — dataport protocol trace");
    let t0 = Timestamp::from_civil(2017, 3, 26, 10, 0, 0);
    let mut trace = ProtocolTrace::new();
    trace.record(
        Stage::SensorUplink,
        t0,
        true,
        "SF10, 34 B PHY, ch 868.1 MHz",
    );
    trace.record(
        Stage::GatewayForward,
        t0 + Span::seconds(1),
        true,
        "gw Gløshaugen, RSSI -97 dBm",
    );
    trace.record(
        Stage::TtnBackend,
        t0 + Span::seconds(1),
        true,
        "dedup, fcnt ok, ADR snr rec",
    );
    trace.record(
        Stage::MqttPublish,
        t0 + Span::seconds(2),
        true,
        "ctt/trondheim/devices/+/up QoS1",
    );
    trace.record(
        Stage::DataportIngest,
        t0 + Span::seconds(2),
        true,
        "digital twin → Online",
    );
    trace.record(
        Stage::DatabaseWrite,
        t0 + Span::seconds(2),
        true,
        "9 points to OpenTSDB-style store",
    );
    trace.record(
        Stage::Visualization,
        t0 + Span::seconds(3),
        true,
        "dashboard + network view refresh",
    );
    trace.record(
        Stage::WatchdogPing,
        t0 + Span::seconds(30),
        true,
        "AppBeat-style external probe OK",
    );
    let rendered = trace.render();
    print!(
        "{}",
        rendered
            .lines()
            .map(|l| format!("  {l}\n"))
            .collect::<String>()
    );
    println!(
        "  end-to-end latency: {}",
        trace.latency().expect("complete trace")
    );
    out("fig2_protocol_trace.txt", &rendered);
}

// ------------------------------------------------------------------- FIG 3

/// Fig. 3: visualization of sensors, gateways, and links.
fn fig3() {
    println!("FIG3 — network visualization (Trondheim, 6 h)");
    let p = ctt_bench::run_pipeline(Deployment::trondheim(), 6);
    let snap = p.dataport.snapshot(p.now());
    let mut map = MapView::new("CTT Trondheim — sensors, gateways, links");
    map.width = 760.0;
    map.height = 560.0;
    let gw_pos: std::collections::HashMap<_, _> = p
        .deployment
        .gateways
        .iter()
        .map(|g| (g.id, g.position))
        .collect();
    let mut online = 0;
    for s in &snap.sensors {
        let spec = p.deployment.node(s.device).expect("known device");
        if s.state == TwinState::Online {
            online += 1;
        }
        if let Some(&to) = s.last_gateway.and_then(|g| gw_pos.get(&g)) {
            map.links.push(Link {
                from: spec.site.position,
                to,
                color: "#9aa7b0".to_string(),
                width: 1.2,
                dashed: s.state != TwinState::Online,
            });
        }
        let color = match s.state {
            TwinState::Online => "#2ca02c",
            TwinState::Late => "#f0a202",
            _ => "#d7191c",
        };
        map.markers.push(Marker {
            position: spec.site.position,
            kind: MarkerKind::Sensor,
            color: color.to_string(),
            label: spec.name.clone(),
            value: s.last_rssi_dbm.map(|r| format!("{r:.0} dBm")),
        });
    }
    for g in &snap.gateways {
        map.markers.push(Marker {
            position: gw_pos[&g.gateway],
            kind: MarkerKind::Gateway,
            color: if g.state == GatewayState::Up {
                "#1f77b4"
            } else {
                "#d7191c"
            }
            .to_string(),
            label: format!("gateway {}", g.gateway.seq()),
            value: Some(format!("{} frames", g.frames)),
        });
    }
    if let Some(station) = &p.deployment.reference_station {
        map.markers.push(Marker {
            position: station.position,
            kind: MarkerKind::Station,
            color: "#ffd34d".to_string(),
            label: station.name.clone(),
            value: None,
        });
    }
    println!(
        "  {} sensors ({online} online), {} gateways, {} links drawn",
        snap.sensors.len(),
        snap.gateways.len(),
        map.links.len()
    );
    out("fig3_network.svg", &map.render());
}

// ------------------------------------------------------------------- FIG 4

/// Run one standalone node over a window and return its battery series.
fn battery_series(start: Timestamp, days: i64) -> Series {
    let d = Deployment::trondheim();
    let em = d.emission_model(SEED);
    let pos = d.nodes[2].site.position;
    let mut node = SensorNode::new(
        DevEui::ctt(3),
        Site::urban_background(pos),
        SensorSpec::reference_grade(),
        Battery::new(BatteryConfig::default(), 85.0),
        AdaptivePolicy::default(),
        start,
        SEED,
    );
    let mut s = Series::new();
    let end = start + Span::days(days);
    while node.next_due() < end {
        let t = node.next_due();
        if let Some(r) = node.step(&em, t) {
            s.push(t, r.battery_pct);
        }
    }
    s
}

/// Fig. 4: battery level vs time (left) and Δ battery vs time of day with
/// sunlight colouring (right), for a summer and a winter fortnight.
fn fig4() {
    println!("FIG4 — battery analysis");
    let pos = Deployment::trondheim().nodes[2].site.position;
    let mut csv = String::from("season,time,hour_of_day,delta_pct,delta_pct_per_hour,sunlit\n");
    for (season, start) in [
        ("summer", Timestamp::from_civil(2017, 6, 5, 0, 0, 0)),
        ("winter", Timestamp::from_civil(2017, 12, 1, 0, 0, 0)),
    ] {
        let levels = battery_series(start, 14);
        let a = analytics::analyze_battery(&levels, pos);
        for d in &a.deltas {
            let _ = writeln!(
                csv,
                "{season},{},{:.3},{:.4},{:.4},{}",
                d.time.as_seconds(),
                d.hour_of_day,
                d.delta_pct,
                d.delta_pct_per_hour,
                d.sunlit
            );
        }
        println!(
            "  {season}: sunlit rate {:+.3} %/h, dark rate {:+.3} %/h, net {:+.2} %/day{}",
            a.sunlit_rate_pct_per_hour.unwrap_or(0.0),
            a.dark_rate_pct_per_hour.unwrap_or(0.0),
            a.net_trend_pct_per_day.unwrap_or(0.0),
            a.days_to_empty
                .map(|d| format!(", empty in {d:.0} days"))
                .unwrap_or_default()
        );
        // Left panel: level vs time.
        let mut chart = LineChart::new(
            format!("Battery level — Trondheim node, {season} fortnight"),
            "battery [%]",
        );
        chart.add("level", levels.clone());
        out(&format!("fig4_{season}_level.svg"), &chart.render());
        // Right panel: Δ vs time of day, red = could have charged.
        let mut sc = ScatterChart::new(
            format!("Δ battery vs time of day ({season})"),
            "hour of day [UTC]",
            "Δ battery since previous packet [%]",
            vec!["dark".to_string(), "sunlit".to_string()],
        );
        sc.colors = vec!["#333333".to_string(), "#d7191c".to_string()];
        for d in &a.deltas {
            sc.push(d.hour_of_day, d.delta_pct, usize::from(d.sunlit));
        }
        out(&format!("fig4_{season}_delta.svg"), &sc.render());
    }
    out("fig4_battery.csv", &csv);
}

// ------------------------------------------------------------------- FIG 5

/// Fig. 5: CO2 dynamics vs traffic jam factor.
fn fig5() {
    println!("FIG5 — CO2 dynamics vs traffic jam factor (7 days)");
    let mut p = ctt_bench::run_pipeline(Deployment::trondheim(), 7 * 24);
    let start = p.deployment.started;
    let end = start + Span::days(7);
    let dev = p.deployment.nodes[2].eui; // Midtbyen urban background
                                         // Harmonize the phase-jittered uplinks onto the feed's 5-minute grid.
    let grid = |s: &Series| resample(s, start, end, Span::minutes(5), ResampleMethod::BucketMean);
    let co2 = grid(&p.device_series(dev, Quantity::Pollutant(Pollutant::Co2), start, end));
    let no2 = grid(&p.device_series(dev, Quantity::Pollutant(Pollutant::No2), start, end));
    let feed = TrafficFeed::new(p.deployment.traffic_model(SEED), 9);
    let jam = feed.series(start, end);
    let study_co2 = analytics::study(&co2, &jam, Span::minutes(5)).expect("week of data");
    let study_no2 = analytics::study(&no2, &jam, Span::minutes(5)).expect("week of data");
    println!("  CO₂ vs jam factor: {}", study_co2.conclusion());
    println!("  NO₂ vs jam factor: {}  (control)", study_no2.conclusion());
    println!(
        "  paper's verdict reproduced: {}",
        study_co2.verdict.phrase()
    );
    // CSV of the aligned series.
    let mut csv = String::from("time,co2_ppm,jam_factor\n");
    let jmap: std::collections::BTreeMap<i64, f64> = jam
        .points
        .iter()
        .map(|&(t, v)| (t.as_seconds(), v))
        .collect();
    for &(t, v) in &co2.points {
        if let Some(&j) = jmap.get(&t.as_seconds()) {
            let _ = writeln!(csv, "{},{v:.2},{j:.3}", t.as_seconds());
        }
    }
    out("fig5_co2_traffic.csv", &csv);
    // Chart: first 48 h of both series (jam scaled ×40 onto the CO2 axis
    // for visual comparison, as the paper's stacked panels do).
    let window_end = start + Span::days(2);
    let co2_win = Series {
        points: co2
            .points
            .iter()
            .copied()
            .filter(|&(t, _)| t < window_end)
            .collect(),
    };
    let jam_win = Series {
        points: jam
            .points
            .iter()
            .map(|&(t, v)| (t, 380.0 + v * 40.0))
            .filter(|&(t, _)| t < window_end)
            .collect(),
    };
    let mut chart = LineChart::new(
        format!(
            "CO₂ vs jam factor — r = {:.2} ({})",
            study_co2.pearson_r,
            study_co2.verdict.phrase()
        ),
        "ppm / scaled jam",
    );
    chart.add("CO₂ [ppm]", co2_win);
    chart.add("jam factor (scaled)", jam_win);
    out("fig5_series.svg", &chart.render());
    // Diurnal profiles CSV: the "different patterns".
    let mut prof = String::from("hour,co2_mean_ppm,jam_mean\n");
    for h in 0..24 {
        let _ = writeln!(
            prof,
            "{h},{:.2},{:.3}",
            study_co2.pollutant_diurnal[h].unwrap_or(f64::NAN),
            study_co2.traffic_diurnal[h].unwrap_or(f64::NAN)
        );
    }
    out("fig5_diurnal.csv", &prof);
}

// ------------------------------------------------------------------- FIG 6

/// Build the air-quality + traffic dashboard for a pipeline state.
fn build_dashboard(p: &mut ctt::Pipeline, title: &str) -> Dashboard {
    let end = p.now();
    let start = end - Span::days(1);
    let mut map = MapView::new("Sensors (CAQI)");
    map.width = 360.0;
    map.height = 260.0;
    let mut worst = AqiBand::VeryLow;
    for node in p.deployment.nodes.clone() {
        let no2 = p.device_series(
            node.eui,
            Quantity::Pollutant(Pollutant::No2),
            end - Span::hours(1),
            end,
        );
        let pm10 = p.device_series(
            node.eui,
            Quantity::Pollutant(Pollutant::Pm10),
            end - Span::hours(1),
            end,
        );
        let band = ctt_core::aqi::caqi(&[
            (Pollutant::No2, mean(&no2) * 1.9125),
            (Pollutant::Pm10, mean(&pm10)),
        ])
        .map(|c| c.band())
        .unwrap_or(AqiBand::VeryLow);
        worst = worst.max(band);
        map.markers.push(Marker {
            position: node.site.position,
            kind: MarkerKind::Sensor,
            color: band.color().to_string(),
            label: String::new(),
            value: None,
        });
    }
    let feed = TrafficFeed::new(p.deployment.traffic_model(SEED), 9);
    let jam = feed.series(start, end);
    let mut jam_chart = LineChart::new("Traffic jam factor (24 h)", "jam");
    jam_chart.width = 740.0;
    jam_chart.height = 260.0;
    jam_chart.add("arterial", jam.clone());
    let co2 = p.city_series(Quantity::Pollutant(Pollutant::Co2), start, end);
    let mut co2_chart = LineChart::new("City mean CO₂ (24 h)", "ppm");
    co2_chart.width = 740.0;
    co2_chart.height = 260.0;
    co2_chart.add("CO₂", co2);
    let mut dash = Dashboard::new(title, 3, 2, 360.0, 260.0);
    dash.place(0, 0, 1, 1, map.render_canvas());
    let jam_now = jam.points.last().map(|&(_, v)| v).unwrap_or(0.0);
    dash.place(
        0,
        1,
        1,
        1,
        StatTile {
            label: "air quality / jam factor now".to_string(),
            value: format!("{} / {jam_now:.1}", worst.label()),
            color: worst.color().to_string(),
        }
        .render_canvas(360.0, 260.0),
    );
    dash.place(1, 0, 2, 1, co2_chart.render_canvas());
    dash.place(1, 1, 2, 1, jam_chart.render_canvas());
    dash
}

/// Fig. 6: the air quality and traffic dashboard.
fn fig6() {
    println!("FIG6 — air quality + traffic dashboard (Trondheim, 2 days)");
    let mut p = ctt_bench::run_pipeline(Deployment::trondheim(), 48);
    let dash = build_dashboard(&mut p, "CTT — air quality & traffic (Zeppelin-style)");
    out("fig6_dashboard.svg", &dash.render());
}

// ------------------------------------------------------------------- FIG 7

/// Fig. 7: sensor data integrated into the 3D city model.
fn fig7() {
    println!("FIG7 — 3D city model integration (Vejle)");
    let mut p = ctt_bench::run_pipeline(Deployment::vejle(), 24);
    let end = p.now();
    let model = generate_district("Vejle LOD1", p.deployment.center, 8, 6);
    // Place the two pilot sensors in the model with their latest readings.
    let mut placed = Vec::new();
    for node in p.deployment.nodes.clone() {
        let local = model.to_local(node.site.position);
        let no2 = p.device_series(
            node.eui,
            Quantity::Pollutant(Pollutant::No2),
            end - Span::hours(1),
            end,
        );
        let pm10 = p.device_series(
            node.eui,
            Quantity::Pollutant(Pollutant::Pm10),
            end - Span::hours(1),
            end,
        );
        let mut reading = SensorReading::background(node.eui, end);
        reading.no2_ppb = mean(&no2);
        reading.pm10_ug_m3 = mean(&pm10);
        // Clamp into the rendered district so attribution is interesting.
        let clamp = |v: f64| v.clamp(-320.0, 320.0);
        placed.push(PlacedSensor {
            device: node.eui,
            position: P2::new(clamp(local.x), clamp(local.y)),
            reading,
        });
    }
    let ov = overlay(&model, placed).expect("sensors placed");
    println!("  buildings: {}", model.buildings.len());
    for (band, n) in ov.band_histogram() {
        if n > 0 {
            println!("    {:<9} {n}", band.label());
        }
    }
    // Render: isometric faces tinted by the building's band colour.
    let faces = project_model(&model);
    let (min_u, min_v, max_u, max_v) =
        ctt_citymodel::project::faces_bbox(&faces).expect("non-empty model");
    let (w, h) = (860.0, 620.0);
    let pad = 30.0;
    let scale = ((w - 2.0 * pad) / (max_u - min_u)).min((h - 2.0 * pad - 20.0) / (max_v - min_v));
    let tx = |u: f64, v: f64| (pad + (u - min_u) * scale, pad + 20.0 + (v - min_v) * scale);
    let mut canvas = Canvas::new(w, h);
    canvas.background("#0e1726");
    canvas.text(
        w / 2.0,
        22.0,
        15.0,
        "#e8eef4",
        Anchor::Middle,
        "Vejle LOD1 city model — buildings coloured by nearest sensor CAQI",
    );
    for f in &faces {
        let band = ov.buildings[f.building_index].band;
        let fill = ctt_viz::color::shade(band.color(), f.shade);
        let outline: Vec<(f64, f64)> = f.outline.iter().map(|&(u, v)| tx(u, v)).collect();
        canvas.polygon(&outline, &fill, Some(("#0e1726", 0.4)));
    }
    // Sensor markers on top.
    for s in &ov.sensors {
        let (u, v) = ctt_citymodel::project::project_point(s.position, 0.0);
        let (x, y) = tx(u, v);
        canvas.circle(x, y, 6.0, "#ffffff", Some(("#d7191c", 2.5)));
        canvas.text(
            x,
            y - 10.0,
            11.0,
            "#ffffff",
            Anchor::Middle,
            &format!("{}", s.device.seq()),
        );
    }
    out("fig7_citymodel.svg", &canvas.finish());
}

// ------------------------------------------------------------------- FIG 8

/// Fig. 8: the wall display — network monitoring + data dashboards.
fn fig8() {
    println!("FIG8 — network monitoring wall display");
    let mut p = ctt::Pipeline::new(Deployment::trondheim(), SEED);
    let start = p.deployment.started;
    p.run_until(start + Span::hours(12));
    // Make the wall interesting: one node died mid-run.
    p.nodes_mut()[8].set_health(ctt_core::node::NodeHealth::Dead);
    p.run_until(start + Span::hours(14));
    let snap = p.dataport.snapshot(p.now());
    let dash = build_dashboard(&mut p, "data overview");
    // Network panel.
    let mut map = MapView::new("Network monitoring");
    map.width = 740.0;
    map.height = 560.0;
    let gw_pos: std::collections::HashMap<_, _> = p
        .deployment
        .gateways
        .iter()
        .map(|g| (g.id, g.position))
        .collect();
    for s in &snap.sensors {
        let spec = p.deployment.node(s.device).expect("known");
        let color = match s.state {
            TwinState::Online => "#2ca02c",
            TwinState::Late => "#f0a202",
            _ => "#d7191c",
        };
        if let Some(&to) = s.last_gateway.and_then(|g| gw_pos.get(&g)) {
            map.links.push(Link {
                from: spec.site.position,
                to,
                color: "#8395a7".to_string(),
                width: 1.0,
                dashed: s.state != TwinState::Online,
            });
        }
        map.markers.push(Marker {
            position: spec.site.position,
            kind: MarkerKind::Sensor,
            color: color.to_string(),
            label: spec.name.clone(),
            value: None,
        });
    }
    for g in &snap.gateways {
        map.markers.push(Marker {
            position: gw_pos[&g.gateway],
            kind: MarkerKind::Gateway,
            color: "#1f77b4".to_string(),
            label: format!("gw {}", g.gateway.seq()),
            value: None,
        });
    }
    let alarms = AlarmList {
        title: "Active alarms".to_string(),
        rows: snap
            .active_alarms
            .iter()
            .map(|a| {
                (
                    match a.severity {
                        ctt_dataport::Severity::Critical => "#d7191c".to_string(),
                        ctt_dataport::Severity::Warning => "#f0a202".to_string(),
                        ctt_dataport::Severity::Info => "#2ca02c".to_string(),
                    },
                    format!("{:?} {}", a.kind, a.source),
                )
            })
            .collect(),
    };
    let online = snap
        .sensors
        .iter()
        .filter(|s| s.state == TwinState::Online)
        .count();
    let mut wall = Dashboard::new(
        "CTT wall display — network monitoring and data visualization",
        4,
        2,
        370.0,
        280.0,
    );
    // Network view spans 2×2 on the left.
    let mut map_canvas = map;
    map_canvas.width = 750.0;
    map_canvas.height = 570.0;
    wall.place(0, 0, 2, 2, map_canvas.render_canvas());
    wall.place(
        2,
        0,
        1,
        1,
        StatTile {
            label: "sensors online".to_string(),
            value: format!("{online}/{}", snap.sensors.len()),
            color: if online == snap.sensors.len() {
                "#2ca02c"
            } else {
                "#f0a202"
            }
            .to_string(),
        }
        .render_canvas(370.0, 280.0),
    );
    wall.place(3, 0, 1, 1, alarms.render_canvas(370.0, 280.0));
    // Data dashboard (rendered small) spans the bottom-right.
    let mini = dash.render();
    let _ = mini; // full dashboard exported separately in fig6
    let co2 = p.city_series(
        Quantity::Pollutant(Pollutant::Co2),
        p.now() - Span::days(1),
        p.now(),
    );
    let mut co2_chart = LineChart::new("City CO₂ (24 h)", "ppm");
    co2_chart.width = 750.0;
    co2_chart.height = 280.0;
    co2_chart.add("CO₂", co2);
    wall.place(2, 1, 2, 1, co2_chart.render_canvas());
    println!(
        "  wall: {online}/{} sensors online, {} active alarms",
        snap.sensors.len(),
        snap.active_alarms.len()
    );
    out("fig8_wall.svg", &wall.render());
}

// ------------------------------------------------------------------ TABLE 1

/// Table 1: external data integration — with measured characteristics from
/// each simulated source.
fn table1() {
    println!("TAB1 — external data integration (30 days measured)");
    let d = Deployment::trondheim();
    let em = d.emission_model(SEED);
    let from = d.started;
    let to = from + Span::days(30);
    let mut csv = String::from(
        "type,example,temporal_resolution,spatial_resolution,uncertainty,observations_30d\n",
    );
    for kind in SourceKind::ALL {
        let i = info(kind);
        let n: usize = match kind {
            SourceKind::OfficialAirQuality => {
                let st = NiluStation::new("Elgeseter", Site::kerbside(d.center), 7);
                st.hourly_series(&em, Pollutant::No2, from, to).len()
            }
            SourceKind::RemoteSensing => Oco2::default().collect(&em, d.center, from, to).len(),
            SourceKind::TrafficData => TrafficFeed::new(d.traffic_model(SEED), 1)
                .series(from, to)
                .len(),
            SourceKind::MunicipalCounts => ctt_integration::CountingCampaign {
                start: from + Span::days(10),
                days: 7,
            }
            .daily_counts(&d.traffic_model(SEED))
            .len(),
            SourceKind::CityModel3d => {
                generate_district("Vejle LOD1", Deployment::vejle().center, 8, 6)
                    .buildings
                    .len()
            }
            SourceKind::NationalStatistics => ctt_integration::NationalInventory::new(0.035)
                .downscale(2017)
                .len(),
            SourceKind::MunicipalTools => 1,
        };
        let kind_name = format!("{kind:?}");
        println!(
            "  {:<22} {:<12} {:<18} n={n}",
            kind_name,
            i.temporal_resolution,
            i.uncertainty.to_string()
        );
        let _ = writeln!(
            csv,
            "{kind_name},{},{},{},{},{n}",
            i.example.replace(',', ";"),
            i.temporal_resolution,
            i.spatial_resolution,
            i.uncertainty
        );
    }
    out("table1_sources.csv", &csv);
}

// --------------------------------------------------------------- TXT claims

/// §1 cost claim: 250 low-cost units for the price of one station.
fn cost() {
    println!("TXT1 — cost model (§1)");
    let c = CostModel::default();
    println!(
        "  station ${:.0} / unit ${:.0} → {:.0} units per station",
        c.station_cost_usd,
        c.unit_cost_usd,
        c.units_per_station()
    );
    println!(
        "  a city with 1 station gains {:.0}× measurement points for one station's budget",
        c.density_multiplier(1, 1)
    );
    let mut csv = String::from("station_usd,unit_usd,units_per_station,density_multiplier\n");
    let _ = writeln!(
        csv,
        "{},{},{},{}",
        c.station_cost_usd,
        c.unit_cost_usd,
        c.units_per_station(),
        c.density_multiplier(1, 1)
    );
    out("cost_model.csv", &csv);
}

/// §2.3 failure-detection claims under injected faults (TXT3): measured
/// detection latency and false-alarm rate from a deterministic chaos run,
/// plus the loss ledger's conservation verdict.
fn txt3() {
    println!("TXT3 — failure detection under injected faults (Vejle, 2 days)");
    let d = Deployment::vejle();
    let start = d.started;
    let dead = d.nodes[0].eui;
    let gw = d.gateways[0].id;
    let death_from = start + Span::hours(6);
    let death_until = start + Span::hours(12);
    let outage_from = start + Span::days(1) + Span::hours(6);
    let outage_until = outage_from + Span::minutes(45);
    let plan = FaultPlan::new()
        .with(
            FaultKind::NodeDeath { device: dead },
            death_from,
            death_until,
        )
        .with(
            FaultKind::GatewayOutage { gateway: gw },
            outage_from,
            outage_until,
        );
    let mut p = ctt::Pipeline::with_chaos(d, SEED, plan);
    p.run_until(start + Span::days(2));

    let log = p.dataport.alarm_log();
    let offline_latency = log
        .iter()
        .find(|a| {
            a.kind == AlarmKind::SensorOffline
                && a.time >= death_from
                && a.source.contains(&dead.to_string())
        })
        .map(|a| (a.time - death_from).as_seconds());
    let outage_latency = log
        .iter()
        .find(|a| a.kind == AlarmKind::GatewayOutage && a.time >= outage_from)
        .map(|a| (a.time - outage_from).as_seconds());
    // A raise is justified if its underlying fault window (plus the twin's
    // own detection lag) covers it; anything else is a false alarm.
    let grace = Span::minutes(15);
    let covered = |t: Timestamp, from: Timestamp, until: Timestamp| from <= t && t < until + grace;
    let mut raises = 0u64;
    let mut false_alarms = 0u64;
    for a in log {
        match a.kind {
            AlarmKind::SensorOffline => {
                raises += 1;
                let justified = (a.source.contains(&dead.to_string())
                    && covered(a.time, death_from, death_until))
                    || covered(a.time, outage_from, outage_until);
                if !justified {
                    false_alarms += 1;
                }
            }
            AlarmKind::GatewayOutage => {
                raises += 1;
                if !covered(a.time, outage_from, outage_until) {
                    false_alarms += 1;
                }
            }
            _ => {}
        }
    }
    let rate = false_alarms as f64 / raises.max(1) as f64;
    let suppressed = p.dataport.snapshot(p.now()).suppressed_alarms;
    let verdict = p.ledger().verify();
    println!(
        "  detection latency: sensor-offline {} s after death, gateway-outage {} s after cut",
        offline_latency.unwrap_or(-1),
        outage_latency.unwrap_or(-1)
    );
    println!(
        "  false alarms: {false_alarms} of {raises} offline/outage raises (rate {rate:.3}); {suppressed} suppressed by correlation"
    );
    println!(
        "  loss ledger: produced={} stored={} attributed={} unattributed={}",
        verdict.produced,
        verdict.stored,
        verdict.attributed,
        verdict.unattributed.len()
    );
    let mut csv = String::from("metric,value\n");
    let _ = writeln!(
        csv,
        "sensor_offline_detection_latency_s,{}",
        offline_latency.unwrap_or(-1)
    );
    let _ = writeln!(
        csv,
        "gateway_outage_detection_latency_s,{}",
        outage_latency.unwrap_or(-1)
    );
    let _ = writeln!(csv, "offline_outage_raises,{raises}");
    let _ = writeln!(csv, "false_alarms,{false_alarms}");
    let _ = writeln!(csv, "false_alarm_rate,{rate:.4}");
    let _ = writeln!(csv, "suppressed_alarms,{suppressed}");
    let _ = writeln!(csv, "uplinks_produced,{}", verdict.produced);
    let _ = writeln!(csv, "uplinks_stored,{}", verdict.stored);
    let _ = writeln!(csv, "losses_attributed,{}", verdict.attributed);
    let _ = writeln!(csv, "losses_unattributed,{}", verdict.unattributed.len());
    out("txt3_chaos.csv", &csv);
}

/// §2.4 co-located calibration (TXT4): absolute + relative accuracy
/// before/after.
fn calibration() {
    println!("TXT4 — co-located calibration (Trondheim, 7 days)");
    let mut p = ctt_bench::run_pipeline(Deployment::trondheim(), 7 * 24);
    let start = p.deployment.started;
    let end = start + Span::days(7);
    let spec = p.deployment.reference_station.clone().expect("station");
    let station = NiluStation::new(spec.name.clone(), Site::kerbside(spec.position), 7);
    let reference = station.hourly_series(p.emission(), Pollutant::Co2, start, end);
    let dev = spec.colocated_node.expect("co-located");
    let raw = p.device_series(dev, Quantity::Pollutant(Pollutant::Co2), start, end);
    let hourly = resample(&raw, start, end, Span::hours(1), ResampleMethod::BucketMean);
    let report = analytics::calibrate_and_evaluate(&hourly, &reference, 0.5).expect("enough pairs");
    println!(
        "  absolute: RMSE {:.2} → {:.2} ppm | bias {:+.2} → {:+.2} ppm",
        report.before.rmse, report.after.rmse, report.before.bias, report.after.bias
    );
    println!(
        "  relative: r {:.3} → {:.3} | model: sensor = {:.3}·ref {:+.1}",
        report.before.r,
        report.after.r,
        report.calibration.fit.slope,
        report.calibration.fit.intercept
    );
    let mut csv = "metric,before,after\nrmse_ppm,{b_rmse},{a_rmse}\n".replace("{b_rmse}", "");
    csv.clear();
    csv.push_str("metric,before,after\n");
    let _ = writeln!(
        csv,
        "rmse_ppm,{:.3},{:.3}",
        report.before.rmse, report.after.rmse
    );
    let _ = writeln!(
        csv,
        "mae_ppm,{:.3},{:.3}",
        report.before.mae, report.after.mae
    );
    let _ = writeln!(
        csv,
        "bias_ppm,{:.3},{:.3}",
        report.before.bias, report.after.bias
    );
    let _ = writeln!(
        csv,
        "pearson_r,{:.4},{:.4}",
        report.before.r, report.after.r
    );
    out("calibration.csv", &csv);
}

// ------------------------------------------------------------- EXTENSION

/// Extension (paper §4 future work): city-wide pollution surface from the
/// point sensor network (IDW) rendered as a heatmap, plus the predicted
/// footprint of a planned factory via the Gaussian plume model.
fn surface() {
    use ctt_analytics::{idw_surface, GaussianPlume, SpatialSample, Stability};
    use ctt_viz::Heatmap;
    println!("EXT — pollution surface + dispersion (paper §4 future work)");
    let mut p = ctt_bench::run_pipeline(Deployment::trondheim(), 24);
    let end = p.now();
    // Last-hour NO2 mean per sensor → spatial samples.
    let samples: Vec<SpatialSample> = p
        .deployment
        .nodes
        .clone()
        .into_iter()
        .map(|n| {
            let s = p.device_series(
                n.eui,
                Quantity::Pollutant(Pollutant::No2),
                end - Span::hours(1),
                end,
            );
            SpatialSample {
                position: n.site.position,
                value: mean(&s),
            }
        })
        .filter(|s| s.value.is_finite() && s.value > 0.0)
        .collect();
    // 60×60 grid of 150 m cells anchored SW of the city centre.
    let origin = p.deployment.center.offset(225.0, 6_500.0);
    let grid = idw_surface(&samples, origin, 150.0, 60, 60, 4_000.0);
    let defined = grid.values.iter().flatten().count();
    let (lo, hi) = grid.range().expect("sensors present");
    println!(
        "  IDW surface: {}/{} cells covered, NO2 {lo:.1}..{hi:.1} ppb",
        defined,
        grid.values.len()
    );
    let hm = Heatmap::new(
        "Trondheim NO2 surface — IDW over the sensor network (last hour)",
        "NO2 [ppb]",
        grid.cols,
        grid.rows,
        grid.values.clone(),
    );
    out("ext_surface.svg", &hm.render());
    // Dispersion: a planned 5 g/s factory stack in D-stability wind.
    let wx = p.emission().weather().sample(end);
    let stability = Stability::from_conditions(
        wx.wind_ms,
        wx.cloud_cover,
        ctt_core::solar::is_sunlit(p.deployment.center, end),
    );
    let plume = GaussianPlume {
        emission_g_s: 5.0,
        stack_height_m: 25.0,
        wind_ms: wx.wind_ms,
        stability,
    };
    let (cmax, xmax) = plume.max_ground_level(8_000.0);
    println!(
        "  planned-factory plume ({stability:?}, wind {:.1} m/s): max ground NO2 {cmax:.1} ug/m3 at {xmax:.0} m downwind",
        wx.wind_ms
    );
    let mut csv = String::from("downwind_m,centerline_ug_m3\n");
    let mut x = 100.0;
    while x <= 8_000.0 {
        let _ = writeln!(csv, "{x},{:.3}", plume.concentration_ug_m3(x, 0.0));
        x += 100.0;
    }
    out("ext_plume.csv", &csv);
}

/// `--profile`: the observability capture. One instrumented 24 h run per
/// pilot, exporting the metrics snapshot as `profile_<city>.csv` + `.json`
/// and the scheduler's dispatch profile as `profile_<city>_sched.txt`.
/// Replay-deterministic: regenerating with the same seed must be a no-op
/// diff (this is the property `tests/obs_profile.rs` pins).
fn profile() {
    println!("PROFILE — observability capture (both pilots, 24 h)");
    for d in Deployment::all_pilots() {
        let mut p = ctt::Pipeline::new(d, SEED);
        p.enable_dispatch_trace(128);
        let start = p.deployment.started;
        p.run_until(start + Span::days(1));
        let slug = p.deployment.city.to_lowercase();
        let snap = p.metrics_snapshot();
        out(&format!("profile_{slug}.csv"), &snap.to_csv());
        out(&format!("profile_{slug}.json"), &snap.to_json());
        out(
            &format!("profile_{slug}_sched.txt"),
            &p.scheduling_profile(),
        );
        println!(
            "  {}: {} metrics, {} dispatches",
            p.deployment.city,
            snap.len(),
            snap.value("sim.dispatch.total").unwrap_or(0)
        );
    }
}

/// `--profile-diff a.json b.json`: compare two exported metrics snapshots
/// (e.g. `profile_vejle.json` from two builds) and print per-metric deltas
/// plus percentile shifts for exported histograms. Exits non-zero on
/// unreadable input; a clean diff ("changed=0") still exits zero.
fn profile_diff(a_path: &str, b_path: &str) -> Result<(), String> {
    let read = |path: &str| -> Result<ctt::obs::Snapshot, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        ctt::obs::Snapshot::from_json(&text).map_err(|e| format!("{path}: {e}"))
    };
    let a = read(a_path)?;
    let b = read(b_path)?;
    println!("PROFILE DIFF — {a_path} vs {b_path}");
    print!("{}", a.diff(&b).render());
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `--profile-diff <a.json> <b.json>` is a standalone mode, never part
    // of `--all`: it reads two existing exports and regenerates nothing.
    if let Some(i) = args.iter().position(|a| a == "--profile-diff") {
        let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
            eprintln!("usage: figures --profile-diff <a.json> <b.json>");
            std::process::exit(2);
        };
        if let Err(e) = profile_diff(a, b) {
            eprintln!("figures: {e}");
            std::process::exit(1);
        }
        return;
    }
    let all = args.is_empty() || args.iter().any(|a| a == "--all");
    let want = |flag: &str| all || args.iter().any(|a| a == flag);
    println!("CTT figure regeneration (seed {SEED})\n");
    if want("--fig1") {
        fig1();
    }
    if want("--fig2") {
        fig2();
    }
    if want("--fig3") {
        fig3();
    }
    if want("--fig4") {
        fig4();
    }
    if want("--fig5") {
        fig5();
    }
    if want("--fig6") {
        fig6();
    }
    if want("--fig7") {
        fig7();
    }
    if want("--fig8") {
        fig8();
    }
    if want("--table1") {
        table1();
    }
    if want("--cost") {
        cost();
    }
    if want("--txt3") {
        txt3();
    }
    if want("--calibration") {
        calibration();
    }
    if want("--surface") {
        surface();
    }
    if want("--profile") {
        profile();
    }
    println!("\ndone.");
}
