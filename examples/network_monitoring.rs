//! Network monitoring under injected faults (§2.3, Figs. 3 and 8).
//!
//! Runs the Trondheim pilot with a chaos plan that kills one node and then
//! takes a gateway down while the node is still dead — the overlap case.
//! The digital twins must disambiguate: the dead node is a real failure,
//! the silent nodes behind the downed gateway are not. Prints the twins'
//! verdict, the hierarchical alarm suppression, and the loss ledger's
//! conservation accounting. Writes the Fig. 3-style network SVG to
//! `results/example_network.svg`.
//!
//! ```sh
//! cargo run --release --example network_monitoring
//! ```

use ctt::chaos::{FaultKind, FaultPlan};
use ctt::dataport::{AlarmKind, GatewayState, TwinState};
use ctt::prelude::*;
use ctt::viz::{Link, MapView, Marker, MarkerKind};

fn state_color(s: TwinState) -> &'static str {
    match s {
        TwinState::Online => "#2ca02c",
        TwinState::Late => "#f0a202",
        TwinState::Offline => "#d7191c",
        TwinState::NeverSeen => "#888888",
    }
}

fn print_alarms(pipeline: &Pipeline, when: &str) {
    let alarms = pipeline.dataport.active_alarms();
    println!("\n— alarms {when}: {} active", alarms.len());
    for a in &alarms {
        println!(
            "  [{}] {:?} {} — {}",
            a.severity, a.kind, a.source, a.message
        );
    }
}

fn main() {
    let deployment = Deployment::trondheim();
    let start = deployment.started;
    let dead_node = deployment.nodes[3].eui;
    let downed_gw = deployment.gateways[0].id;

    // The fault schedule: node 4 dies at +2 h and stays dead; gateway 1
    // goes dark from +2 h 30 m to +3 h 30 m, overlapping the death.
    let plan = FaultPlan::new()
        .with(
            FaultKind::NodeDeath { device: dead_node },
            start + Span::hours(2),
            start + Span::hours(5),
        )
        .with(
            FaultKind::GatewayOutage { gateway: downed_gw },
            start + Span::hours(2) + Span::minutes(30),
            start + Span::hours(3) + Span::minutes(30),
        );
    let mut pipeline = Pipeline::with_chaos(deployment, 42, plan);

    // Phase 1: healthy operation.
    pipeline.run_until(start + Span::hours(2));
    let snap = pipeline.dataport.snapshot(pipeline.now());
    println!(
        "phase 1: {} sensors online, {} gateways up",
        snap.sensors
            .iter()
            .filter(|s| s.state == TwinState::Online)
            .count(),
        snap.gateways
            .iter()
            .filter(|g| g.state == GatewayState::Up)
            .count(),
    );
    print_alarms(&pipeline, "after 2 h healthy");

    // Phase 2: the node death fires; the gateway is still up, so the
    // offline alarm is a genuine detection.
    println!("\n>>> chaos plan: node {dead_node} dies at +2 h");
    pipeline.run_until(start + Span::hours(2) + Span::minutes(25));
    print_alarms(&pipeline, "after node death");

    // Phase 3: mid-outage, the overlap case. The twins must not flag the
    // healthy-but-silent nodes behind the downed gateway.
    println!("\n>>> chaos plan: gateway {downed_gw} dark from +2 h 30 m");
    pipeline.run_until(start + Span::hours(3) + Span::minutes(25));
    print_alarms(&pipeline, "mid gateway outage");
    let snap = pipeline.dataport.snapshot(pipeline.now());
    let active = pipeline.dataport.active_alarms();
    let false_offline = active
        .iter()
        .filter(|a| {
            a.kind == AlarmKind::SensorOffline && !a.source.contains(&dead_node.to_string())
        })
        .count();
    println!("\ntwin disambiguation verdict (mid-outage):");
    println!(
        "  gateway outage alarm active: {}",
        active.iter().any(|a| a.kind == AlarmKind::GatewayOutage)
    );
    println!("  sensor-offline false alarms behind downed gateway: {false_offline}");
    println!(
        "  alarms suppressed by hierarchical correlation: {}",
        snap.suppressed_alarms
    );

    // Phase 4: the gateway recovers; only the genuinely dead node is dark.
    pipeline.run_until(start + Span::hours(4) + Span::minutes(30));
    print_alarms(&pipeline, "after gateway recovery");
    let snap = pipeline.dataport.snapshot(pipeline.now());
    for s in &snap.sensors {
        if s.state != TwinState::Online {
            let verdict = if s.device == dead_node {
                "real hardware failure"
            } else {
                "misattributed!"
            };
            println!("  {} is {:?} — {verdict}", s.device, s.state);
        }
    }

    // Conservation: every produced uplink is stored or attributed.
    let verdict = pipeline.ledger().verify();
    println!(
        "\nloss ledger: produced={} stored={} attributed={} unattributed={}",
        verdict.produced,
        verdict.stored,
        verdict.attributed,
        verdict.unattributed.len()
    );
    for (cause, n) in pipeline.ledger().cause_counts() {
        println!("  {} = {n}", cause.label());
    }

    // Render the Fig. 3 network view: sensors, gateways, links.
    let snap = pipeline.dataport.snapshot(pipeline.now());
    let deployment = pipeline.deployment.clone();
    let mut map = MapView::new("CTT network — sensors, gateways, links");
    let gw_pos: std::collections::HashMap<_, _> = deployment
        .gateways
        .iter()
        .map(|g| (g.id, g.position))
        .collect();
    for s in &snap.sensors {
        let spec = deployment.node(s.device).expect("known node");
        if let Some(&to) = s.last_gateway.and_then(|g| gw_pos.get(&g)) {
            map.links.push(Link {
                from: spec.site.position,
                to,
                color: "#9aa7b0".to_string(),
                width: 1.0 + (s.uplinks as f64).log10(),
                dashed: s.state != TwinState::Online,
            });
        }
        map.markers.push(Marker {
            position: spec.site.position,
            kind: MarkerKind::Sensor,
            color: state_color(s.state).to_string(),
            label: spec.name.clone(),
            value: s.last_rssi_dbm.map(|r| format!("{r:.0} dBm")),
        });
    }
    for g in &snap.gateways {
        map.markers.push(Marker {
            position: gw_pos[&g.gateway],
            kind: MarkerKind::Gateway,
            color: if g.state == GatewayState::Up {
                "#2ca02c"
            } else {
                "#d7191c"
            }
            .to_string(),
            label: format!("gw {}", g.gateway.seq()),
            value: Some(format!("{} frames", g.frames)),
        });
    }
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/example_network.svg", map.render()).expect("write network SVG");
    println!("\nwrote results/example_network.svg");

    // Actor-system introspection: the supervision hierarchy of §2.3.
    println!("\nactor paths (first three sensors):");
    for n in deployment.nodes.iter().take(3) {
        println!(
            "  {}",
            pipeline.dataport.sensor_path(n.eui).expect("registered")
        );
    }
}
