//! Sensor-data overlay on the 3D model (the substance of Fig. 7).
//!
//! "This was further integrated into a 3D CityGML model" (§2.4) — sensor
//! measuring points are placed in the model, each building is attributed to
//! its nearest sensor, and buildings are coloured by that sensor's air
//! quality index. Synthetic scenario data can be overlaid the same way for
//! the urban-planning discussions of §3.

use crate::geometry::P2;
use crate::model::CityModel;
use ctt_core::aqi::{caqi, AqiBand};
use ctt_core::ids::DevEui;
use ctt_core::measurement::SensorReading;
use ctt_core::quantity::Pollutant;

/// A sensor placed in the model frame with its latest reading.
#[derive(Debug, Clone)]
pub struct PlacedSensor {
    /// Device identity.
    pub device: DevEui,
    /// Position in the model's local frame.
    pub position: P2,
    /// Latest reading.
    pub reading: SensorReading,
}

impl PlacedSensor {
    /// CAQI of this sensor's latest reading (from NO2/PM; CO2 excluded).
    pub fn caqi(&self) -> Option<ctt_core::aqi::Caqi> {
        caqi(&[
            (Pollutant::No2, self.reading.no2_ppb * 1.9125),
            (Pollutant::Pm25, self.reading.pm25_ug_m3),
            (Pollutant::Pm10, self.reading.pm10_ug_m3),
        ])
    }
}

/// A building attributed to a sensor and coloured by its AQI band.
#[derive(Debug, Clone)]
pub struct AttributedBuilding {
    /// Index into `CityModel::buildings`.
    pub building_index: usize,
    /// The sensor this building was attributed to.
    pub sensor: DevEui,
    /// Distance to that sensor, metres.
    pub distance_m: f64,
    /// The AQI band colouring the building.
    pub band: AqiBand,
}

/// The Fig. 7 overlay: every building attributed to its nearest sensor.
#[derive(Debug, Clone)]
pub struct Overlay {
    /// Sensors placed in the model.
    pub sensors: Vec<PlacedSensor>,
    /// Building attributions (same order as the model's buildings).
    pub buildings: Vec<AttributedBuilding>,
}

/// Attribute every building to its nearest placed sensor.
/// Returns `None` when no sensors are given.
pub fn overlay(model: &CityModel, sensors: Vec<PlacedSensor>) -> Option<Overlay> {
    if sensors.is_empty() {
        return None;
    }
    let buildings = model
        .buildings
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let c = b.centroid();
            let (nearest, d) = sensors
                .iter()
                .map(|s| (s, s.position.distance(c)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty sensors");
            let band = nearest.caqi().map(|q| q.band()).unwrap_or(AqiBand::VeryLow);
            AttributedBuilding {
                building_index: i,
                sensor: nearest.device,
                distance_m: d,
                band,
            }
        })
        .collect();
    Some(Overlay { sensors, buildings })
}

impl Overlay {
    /// Number of buildings per AQI band (the Fig. 7 legend counts).
    pub fn band_histogram(&self) -> Vec<(AqiBand, usize)> {
        let bands = [
            AqiBand::VeryLow,
            AqiBand::Low,
            AqiBand::Medium,
            AqiBand::High,
            AqiBand::VeryHigh,
        ];
        bands
            .iter()
            .map(|&b| (b, self.buildings.iter().filter(|a| a.band == b).count()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procedural::generate_district;
    use ctt_core::geo::LatLon;
    use ctt_core::time::Timestamp;

    fn model() -> CityModel {
        generate_district("Vejle LOD1", LatLon::new(55.7113, 9.5365), 6, 5)
    }

    fn sensor(seq: u32, pos: P2, no2: f64, pm10: f64) -> PlacedSensor {
        let mut reading = SensorReading::background(DevEui::ctt(seq), Timestamp(0));
        reading.no2_ppb = no2;
        reading.pm10_ug_m3 = pm10;
        PlacedSensor {
            device: DevEui::ctt(seq),
            position: pos,
            reading,
        }
    }

    #[test]
    fn every_building_attributed_to_nearest() {
        let m = model();
        let s1 = sensor(1, P2::new(-150.0, 0.0), 5.0, 10.0);
        let s2 = sensor(2, P2::new(150.0, 0.0), 5.0, 10.0);
        let ov = overlay(&m, vec![s1, s2]).unwrap();
        assert_eq!(ov.buildings.len(), m.buildings.len());
        for a in &ov.buildings {
            let c = m.buildings[a.building_index].centroid();
            let expect = if c.x < 0.0 {
                DevEui::ctt(1)
            } else {
                DevEui::ctt(2)
            };
            // Buildings very close to the midline can go either way; only
            // check clear cases.
            if c.x.abs() > 30.0 {
                assert_eq!(a.sensor, expect, "building at {c:?}");
            }
        }
        let of = |d: DevEui| ov.buildings.iter().filter(|a| a.sensor == d).count();
        let (left, right) = (of(DevEui::ctt(1)), of(DevEui::ctt(2)));
        assert_eq!(left + right, ov.buildings.len());
        assert!(left > 0 && right > 0);
    }

    #[test]
    fn bands_reflect_pollution_levels() {
        let m = model();
        // Clean sensor west, dirty sensor east.
        let clean = sensor(1, P2::new(-150.0, 0.0), 4.0, 8.0);
        let dirty = sensor(2, P2::new(150.0, 0.0), 150.0, 160.0);
        let ov = overlay(&m, vec![clean, dirty]).unwrap();
        for a in &ov.buildings {
            let c = m.buildings[a.building_index].centroid();
            if c.x < -30.0 {
                assert_eq!(a.band, AqiBand::VeryLow, "west building at {c:?}");
            } else if c.x > 30.0 {
                assert!(
                    a.band >= AqiBand::High,
                    "east building at {c:?}: {:?}",
                    a.band
                );
            }
        }
        let hist = ov.band_histogram();
        let total: usize = hist.iter().map(|(_, n)| n).sum();
        assert_eq!(total, ov.buildings.len());
        assert!(hist.iter().any(|&(b, n)| b == AqiBand::VeryLow && n > 0));
    }

    #[test]
    fn no_sensors_no_overlay() {
        assert!(overlay(&model(), vec![]).is_none());
    }

    #[test]
    fn placed_sensor_caqi() {
        let s = sensor(1, P2::new(0.0, 0.0), 60.0, 20.0);
        let q = s.caqi().unwrap();
        // NO2 60 ppb ≈ 114.75 µg/m³ → sub-index between 50 and 75.
        assert!(q.index > 50.0 && q.index < 75.0, "index {}", q.index);
    }
}
