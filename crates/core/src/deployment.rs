//! Pilot deployments: Trondheim and Vejle.
//!
//! "We use two use cases of deploying our systems in Vejle, Denmark and
//! Trondheim, Norway, where two and twelve sensors were deployed
//! respectively" (§3). Data is "collected at a five-minute interval ...
//! since January 2017". This module captures those pilot configurations and
//! the §1 cost argument (250 low-cost units for the price of one official
//! station).

use crate::emission::{EmissionModel, Site};
use crate::geo::LatLon;
use crate::ids::{DevEui, GatewayId};
use crate::node::SensorNode;
use crate::time::Timestamp;
use crate::traffic::{RoadClass, TrafficModel};
use crate::units::Degrees;
use crate::weather::{Climate, WeatherModel};

/// Static description of one deployed node.
#[derive(Debug, Clone)]
pub struct NodeSpecEntry {
    /// Device EUI.
    pub eui: DevEui,
    /// Human-readable location name.
    pub name: String,
    /// Site environment.
    pub site: Site,
}

/// Static description of one LoRaWAN gateway.
#[derive(Debug, Clone)]
pub struct GatewaySpecEntry {
    /// Gateway identifier.
    pub id: GatewayId,
    /// Position.
    pub position: LatLon,
    /// Antenna height above ground, metres.
    pub antenna_m: f64,
    /// Human-readable name.
    pub name: String,
}

/// A reference-grade official measurement station (NILU-style).
#[derive(Debug, Clone)]
pub struct ReferenceStationSpec {
    /// Position of the station.
    pub position: LatLon,
    /// The CTT node co-located with it for calibration, if any.
    pub colocated_node: Option<DevEui>,
    /// Station name.
    pub name: String,
}

/// One city pilot.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// City name.
    pub city: String,
    /// City centre (projection origin, map anchor).
    pub center: LatLon,
    /// Climate parameters for the weather model.
    pub climate: Climate,
    /// Deployed sensor nodes.
    pub nodes: Vec<NodeSpecEntry>,
    /// Deployed gateways.
    pub gateways: Vec<GatewaySpecEntry>,
    /// Official reference station, if the city has one in the pilot area.
    pub reference_station: Option<ReferenceStationSpec>,
    /// Start of data collection.
    pub started: Timestamp,
}

/// (name, bearing deg from centre, distance m, site kind) — one pilot node.
type PlaceSpec = (&'static str, f64, f64, fn(LatLon) -> Site);

impl Deployment {
    /// The Trondheim pilot: twelve sensors, two gateways, one official
    /// station ("there are very few official stations; ... we have
    /// co-located one of our sensor units to the only station in the pilot
    /// area", §2.4).
    pub fn trondheim() -> Deployment {
        let center = LatLon::new(63.4305, 10.3951);
        // Spread nodes over the city: kerbside along the main arterials,
        // urban background in the centre, suburban on the edges.
        let places: [PlaceSpec; 12] = [
            ("Elgeseter gate", 180.0, 1200.0, Site::kerbside),
            ("Innherredsveien", 75.0, 1500.0, Site::kerbside),
            ("Midtbyen torg", 20.0, 300.0, Site::urban_background),
            ("Bakklandet", 95.0, 800.0, Site::urban_background),
            ("Ila park", 265.0, 1400.0, Site::urban_background),
            ("Lade allé", 55.0, 2600.0, Site::kerbside),
            ("Moholt", 140.0, 2900.0, Site::suburban),
            ("Byåsen", 230.0, 3100.0, Site::suburban),
            ("Heimdal", 200.0, 7500.0, Site::suburban),
            ("Ranheim", 70.0, 6100.0, Site::suburban),
            ("Sluppen bru", 175.0, 2800.0, Site::kerbside),
            ("Gløshaugen NTNU", 160.0, 1100.0, Site::urban_background),
        ];
        let nodes = places
            .iter()
            .enumerate()
            .map(|(i, (name, bearing, dist, mk))| NodeSpecEntry {
                eui: DevEui::ctt(i as u32 + 1),
                name: (*name).to_string(),
                site: mk(center.offset(*bearing, *dist)),
            })
            .collect();
        let gateways = vec![
            GatewaySpecEntry {
                id: GatewayId::ctt(1),
                position: center.offset(150.0, 900.0),
                antenna_m: 45.0,
                name: "Gløshaugen main building".to_string(),
            },
            GatewaySpecEntry {
                id: GatewayId::ctt(2),
                position: center.offset(330.0, 1800.0),
                antenna_m: 30.0,
                name: "Tyholt tower".to_string(),
            },
        ];
        // The official station sits on Elgeseter gate; node 1 is co-located.
        let reference_station = Some(ReferenceStationSpec {
            position: center.offset(180.0, 1205.0),
            colocated_node: Some(DevEui::ctt(1)),
            name: "Elgeseter (NILU)".to_string(),
        });
        Deployment {
            city: "Trondheim".to_string(),
            center,
            climate: Climate::trondheim(),
            nodes,
            gateways,
            reference_station,
            started: Timestamp::from_civil(2017, 1, 1, 0, 0, 0),
        }
    }

    /// The Vejle pilot: two sensors, one gateway, no official station in the
    /// pilot area.
    pub fn vejle() -> Deployment {
        let center = LatLon::new(55.7113, 9.5365);
        let nodes = vec![
            NodeSpecEntry {
                eui: DevEui::ctt(101),
                name: "Vejle midtby".to_string(),
                site: Site::urban_background(center.offset(45.0, 350.0)),
            },
            NodeSpecEntry {
                eui: DevEui::ctt(102),
                name: "Horsensvej".to_string(),
                site: Site::kerbside(center.offset(10.0, 1800.0)),
            },
        ];
        let gateways = vec![GatewaySpecEntry {
            id: GatewayId::ctt(101),
            position: center.offset(90.0, 500.0),
            antenna_m: 35.0,
            name: "Vejle rådhus".to_string(),
        }];
        Deployment {
            city: "Vejle".to_string(),
            center,
            climate: Climate::vejle(),
            nodes,
            gateways,
            reference_station: None,
            started: Timestamp::from_civil(2017, 1, 1, 0, 0, 0),
        }
    }

    /// Both pilot cities.
    pub fn all_pilots() -> Vec<Deployment> {
        vec![Deployment::trondheim(), Deployment::vejle()]
    }

    /// The weather model for this city.
    pub fn weather_model(&self, seed: u64) -> WeatherModel {
        WeatherModel::new(seed, self.climate, self.center)
    }

    /// The traffic model for the city's main arterial.
    pub fn traffic_model(&self, seed: u64) -> TrafficModel {
        TrafficModel::new(seed, RoadClass::Arterial, Degrees(self.center.lon_deg))
    }

    /// The coupled emission model.
    pub fn emission_model(&self, seed: u64) -> EmissionModel {
        EmissionModel::new(self.weather_model(seed), self.traffic_model(seed))
    }

    /// Instantiate live [`SensorNode`]s for every deployed node.
    pub fn spawn_nodes(&self, seed: u64) -> Vec<SensorNode> {
        self.nodes
            .iter()
            .map(|spec| SensorNode::standard(spec.eui, spec.site, self.started, seed))
            .collect()
    }

    /// Find a node spec by EUI.
    pub fn node(&self, eui: DevEui) -> Option<&NodeSpecEntry> {
        self.nodes.iter().find(|n| n.eui == eui)
    }
}

/// The §1 cost argument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of one official high-quality station, USD.
    pub station_cost_usd: f64,
    /// Cost of one CTT low-cost unit, USD.
    pub unit_cost_usd: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // "high-quality sensors that cost up to $500,000 ... sensor units of
        // around $2,000 each" (§1).
        CostModel {
            station_cost_usd: 500_000.0,
            unit_cost_usd: 2_000.0,
        }
    }
}

impl CostModel {
    /// How many low-cost units one station buys.
    pub fn units_per_station(&self) -> f64 {
        self.station_cost_usd / self.unit_cost_usd
    }

    /// Sensor-density multiplier achieved for the price of `stations`
    /// official stations, given a city currently served by `existing`
    /// stations.
    pub fn density_multiplier(&self, stations: usize, existing: usize) -> f64 {
        let units = self.units_per_station() * stations as f64;
        (existing as f64 + units) / (existing as f64).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trondheim_has_twelve_nodes_two_gateways() {
        let d = Deployment::trondheim();
        assert_eq!(d.nodes.len(), 12);
        assert_eq!(d.gateways.len(), 2);
        assert!(d.reference_station.is_some());
        assert_eq!(d.city, "Trondheim");
    }

    #[test]
    fn vejle_has_two_nodes_one_gateway() {
        let d = Deployment::vejle();
        assert_eq!(d.nodes.len(), 2);
        assert_eq!(d.gateways.len(), 1);
        assert!(d.reference_station.is_none());
    }

    #[test]
    fn data_collection_started_january_2017() {
        for d in Deployment::all_pilots() {
            let c = d.started.civil();
            assert_eq!((c.year, c.month), (2017, 1));
        }
    }

    #[test]
    fn euis_are_unique_within_and_across_pilots() {
        let mut all: Vec<DevEui> = Deployment::all_pilots()
            .iter()
            .flat_map(|d| d.nodes.iter().map(|n| n.eui))
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn nodes_lie_within_city_extent() {
        let d = Deployment::trondheim();
        for n in &d.nodes {
            let dist = d.center.distance_m(n.site.position);
            assert!(dist < 10_000.0, "{} is {dist} m out", n.name);
        }
    }

    #[test]
    fn reference_station_colocated_with_node_one() {
        let d = Deployment::trondheim();
        let station = d.reference_station.as_ref().unwrap();
        let node = d.node(station.colocated_node.unwrap()).unwrap();
        let dist = station.position.distance_m(node.site.position);
        assert!(dist < 50.0, "co-located pair separated by {dist} m");
    }

    #[test]
    fn spawn_nodes_matches_specs_and_default_interval_is_five_minutes() {
        let d = Deployment::trondheim();
        let nodes = d.spawn_nodes(42);
        assert_eq!(nodes.len(), 12);
        for (spawned, spec) in nodes.iter().zip(&d.nodes) {
            assert_eq!(spawned.eui(), spec.eui);
            // Phase-jittered within the first interval.
            assert!(spawned.next_due() >= d.started);
            assert!(spawned.next_due() < d.started + crate::time::Span::minutes(5));
        }
        // §3: "sensor data is collected at a five-minute interval".
        let em = d.emission_model(42);
        let mut n = d.spawn_nodes(42).remove(0);
        let t0 = n.next_due();
        n.step(&em, t0);
        assert_eq!(n.next_due() - t0, crate::time::Span::minutes(5));
    }

    #[test]
    fn cost_model_reproduces_the_250x_claim() {
        let c = CostModel::default();
        assert_eq!(c.units_per_station(), 250.0);
        // A city with one station gets 251 measurement points for the price
        // of a second station: 251× densification.
        assert_eq!(c.density_multiplier(1, 1), 251.0);
    }

    #[test]
    fn node_lookup() {
        let d = Deployment::trondheim();
        assert!(d.node(DevEui::ctt(1)).is_some());
        assert!(d.node(DevEui::ctt(9999)).is_none());
    }
}
