//! The LOD1 city model: buildings as extruded footprints.
//!
//! CityGML LOD1 represents each building as a footprint polygon extruded
//! to a flat roof height — exactly what the Vejle municipal model provides
//! and what Fig. 7 renders with sensor data on top.

use crate::geometry::{Polygon, P2};
use ctt_core::geo::{LatLon, LocalProjection};

/// Building function class (CityGML `class`/`function` attribute subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BuildingClass {
    /// Dwellings.
    Residential,
    /// Offices, retail.
    Commercial,
    /// Factories, warehouses.
    Industrial,
    /// Schools, hospitals, administration.
    Public,
}

impl BuildingClass {
    /// GML token.
    pub fn token(self) -> &'static str {
        match self {
            BuildingClass::Residential => "residential",
            BuildingClass::Commercial => "commercial",
            BuildingClass::Industrial => "industrial",
            BuildingClass::Public => "public",
        }
    }

    /// Parse a GML token.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "residential" => BuildingClass::Residential,
            "commercial" => BuildingClass::Commercial,
            "industrial" => BuildingClass::Industrial,
            "public" => BuildingClass::Public,
            _ => return None,
        })
    }
}

/// One LOD1 building.
#[derive(Debug, Clone, PartialEq)]
pub struct Building {
    /// Stable id (`bldg-17`).
    pub id: String,
    /// Footprint in local ENU metres.
    pub footprint: Polygon,
    /// Roof height above ground, metres.
    pub height_m: f64,
    /// Function class.
    pub class: BuildingClass,
}

impl Building {
    /// Gross volume (footprint × height), m³.
    pub fn volume_m3(&self) -> f64 {
        self.footprint.area() * self.height_m
    }

    /// Footprint centroid.
    pub fn centroid(&self) -> P2 {
        self.footprint.centroid()
    }
}

/// The city model: a named set of buildings anchored at a geographic origin.
#[derive(Debug, Clone, PartialEq)]
pub struct CityModel {
    /// Model name (e.g. "Vejle LOD1").
    pub name: String,
    /// Geographic anchor of the local frame.
    pub origin: LatLon,
    /// Buildings.
    pub buildings: Vec<Building>,
}

impl CityModel {
    /// Empty model.
    pub fn new(name: impl Into<String>, origin: LatLon) -> Self {
        CityModel {
            name: name.into(),
            origin,
            buildings: Vec::new(),
        }
    }

    /// The local projection for converting geographic positions.
    pub fn projection(&self) -> LocalProjection {
        LocalProjection::new(self.origin)
    }

    /// Convert a geographic position into the model frame.
    pub fn to_local(&self, p: LatLon) -> P2 {
        let enu = self.projection().to_enu(p);
        P2::new(enu.east_m, enu.north_m)
    }

    /// Buildings with centroids within `radius_m` of `p`.
    pub fn buildings_near(&self, p: P2, radius_m: f64) -> Vec<&Building> {
        self.buildings
            .iter()
            .filter(|b| b.centroid().distance(p) <= radius_m)
            .collect()
    }

    /// Building-density statistics used in site-selection discussions
    /// (§3: "choosing the sites of air quality monitoring ... according to
    /// the road network and building density"): built volume per km² within
    /// `radius_m` of `p`.
    pub fn density_m3_per_km2(&self, p: P2, radius_m: f64) -> f64 {
        let volume: f64 = self
            .buildings_near(p, radius_m)
            .iter()
            .map(|b| b.volume_m3())
            .sum();
        let area_km2 = std::f64::consts::PI * (radius_m / 1000.0).powi(2);
        volume / area_km2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> CityModel {
        let mut m = CityModel::new("test", LatLon::new(55.7113, 9.5365));
        m.buildings.push(Building {
            id: "a".to_string(),
            footprint: Polygon::rect(P2::new(0.0, 0.0), P2::new(10.0, 10.0)),
            height_m: 10.0,
            class: BuildingClass::Residential,
        });
        m.buildings.push(Building {
            id: "b".to_string(),
            footprint: Polygon::rect(P2::new(100.0, 0.0), P2::new(130.0, 20.0)),
            height_m: 5.0,
            class: BuildingClass::Industrial,
        });
        m
    }

    #[test]
    fn volumes() {
        let m = sample_model();
        assert_eq!(m.buildings[0].volume_m3(), 1000.0);
        assert_eq!(m.buildings[1].volume_m3(), 3000.0);
    }

    #[test]
    fn buildings_near_radius() {
        let m = sample_model();
        assert_eq!(m.buildings_near(P2::new(5.0, 5.0), 50.0).len(), 1);
        assert_eq!(m.buildings_near(P2::new(5.0, 5.0), 200.0).len(), 2);
        assert!(m.buildings_near(P2::new(500.0, 500.0), 50.0).is_empty());
    }

    #[test]
    fn geographic_anchoring() {
        let m = sample_model();
        let p = m.to_local(m.origin);
        assert!(p.x.abs() < 1e-6 && p.y.abs() < 1e-6);
        let north = m.to_local(m.origin.offset(0.0, 100.0));
        assert!((north.y - 100.0).abs() < 1.0);
    }

    #[test]
    fn density_positive_near_buildings() {
        let m = sample_model();
        let dense = m.density_m3_per_km2(P2::new(5.0, 5.0), 100.0);
        let empty = m.density_m3_per_km2(P2::new(5000.0, 5000.0), 100.0);
        assert!(dense > 0.0);
        assert_eq!(empty, 0.0);
    }

    #[test]
    fn class_tokens_roundtrip() {
        for c in [
            BuildingClass::Residential,
            BuildingClass::Commercial,
            BuildingClass::Industrial,
            BuildingClass::Public,
        ] {
            assert_eq!(BuildingClass::parse(c.token()), Some(c));
        }
        assert_eq!(BuildingClass::parse("castle"), None);
    }
}
