//! Procedural district generator.
//!
//! The real Vejle model is proprietary; this generator produces a district
//! with the same statistical character — a street grid of blocks, each
//! holding a few buildings whose class and height follow a centre-to-edge
//! gradient (commercial cores, residential rings, industrial fringe), with
//! some blocks left open as parks.

use crate::geometry::{Polygon, P2};
use crate::model::{Building, BuildingClass, CityModel};
use ctt_core::geo::LatLon;
use ctt_core::rng::{mix64, unit};

/// Block size (street grid pitch) in metres.
const BLOCK_M: f64 = 90.0;
/// Street width in metres.
const STREET_M: f64 = 14.0;

/// Generate a `cols × rows` block district centred on `origin`.
/// Deterministic in `(name, origin, cols, rows)` via a hash of the name.
pub fn generate_district(name: &str, origin: LatLon, cols: u32, rows: u32) -> CityModel {
    let seed = name
        .bytes()
        .fold(0xD157u64, |acc, b| mix64(acc ^ u64::from(b)));
    let mut model = CityModel::new(name, origin);
    let total_w = f64::from(cols) * BLOCK_M;
    let total_h = f64::from(rows) * BLOCK_M;
    let center = P2::new(0.0, 0.0);
    let mut next_id = 1u32;
    for cx in 0..cols {
        for cy in 0..rows {
            let block_key = seed ^ mix64(u64::from(cx) << 32 | u64::from(cy));
            let block_min = P2::new(
                f64::from(cx) * BLOCK_M - total_w / 2.0 + STREET_M / 2.0,
                f64::from(cy) * BLOCK_M - total_h / 2.0 + STREET_M / 2.0,
            );
            let block_max = P2::new(
                block_min.x + BLOCK_M - STREET_M,
                block_min.y + BLOCK_M - STREET_M,
            );
            // ~12% of blocks are parks.
            if unit(block_key ^ 0x9A2) < 0.12 {
                continue;
            }
            let block_center = P2::new(
                (block_min.x + block_max.x) / 2.0,
                (block_min.y + block_max.y) / 2.0,
            );
            let dist = block_center.distance(center);
            let max_dist = (total_w.powi(2) + total_h.powi(2)).sqrt() / 2.0;
            let centrality = 1.0 - (dist / max_dist).min(1.0);
            // Class by centrality band, with noise.
            let r = unit(block_key ^ 0x7C1);
            let class = if centrality > 0.65 {
                if r < 0.7 {
                    BuildingClass::Commercial
                } else {
                    BuildingClass::Public
                }
            } else if centrality > 0.3 {
                if r < 0.75 {
                    BuildingClass::Residential
                } else {
                    BuildingClass::Commercial
                }
            } else if r < 0.3 {
                BuildingClass::Industrial
            } else {
                BuildingClass::Residential
            };
            // 1–4 buildings per block, splitting the block into strips.
            let n = 1 + (unit(block_key ^ 0x3B) * 3.4) as u32;
            let strip_w = (block_max.x - block_min.x) / f64::from(n);
            for k in 0..n {
                let b_key = block_key ^ mix64(u64::from(k) ^ 0xB17D);
                let inset = 2.0 + unit(b_key ^ 0x11) * 6.0;
                let min = P2::new(
                    block_min.x + f64::from(k) * strip_w + inset / 2.0,
                    block_min.y + inset,
                );
                let max = P2::new(
                    block_min.x + f64::from(k + 1) * strip_w - inset / 2.0,
                    block_max.y - inset,
                );
                if max.x - min.x < 6.0 || max.y - min.y < 6.0 {
                    continue;
                }
                // Heights: tall cores, low fringe.
                let base_height = 6.0 + 22.0 * centrality;
                let height = (base_height * (0.7 + 0.6 * unit(b_key ^ 0x77))).max(3.0);
                model.buildings.push(Building {
                    id: format!("bldg-{next_id}"),
                    footprint: Polygon::rect(min, max),
                    height_m: (height * 10.0).round() / 10.0,
                    class,
                });
                next_id += 1;
            }
        }
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vejle() -> CityModel {
        generate_district("Vejle LOD1", LatLon::new(55.7113, 9.5365), 8, 6)
    }

    #[test]
    fn deterministic() {
        let a = vejle();
        let b = vejle();
        assert_eq!(a, b);
    }

    #[test]
    fn different_names_differ() {
        let a = generate_district("A", LatLon::new(55.0, 9.0), 5, 5);
        let b = generate_district("B", LatLon::new(55.0, 9.0), 5, 5);
        assert_ne!(a.buildings.len(), 0);
        assert_ne!(a.buildings, b.buildings);
    }

    #[test]
    fn plausible_district() {
        let m = vejle();
        // 8×6 blocks minus parks, 1–4 buildings each.
        assert!(m.buildings.len() > 40, "{} buildings", m.buildings.len());
        assert!(m.buildings.len() < 200);
        for b in &m.buildings {
            assert!(
                b.height_m >= 3.0 && b.height_m < 40.0,
                "height {}",
                b.height_m
            );
            assert!(b.footprint.area() > 30.0, "area {}", b.footprint.area());
            assert!(b.footprint.area() < BLOCK_M * BLOCK_M);
        }
        // All four classes appear in a reasonably-sized district.
        let classes: std::collections::HashSet<_> = m.buildings.iter().map(|b| b.class).collect();
        assert!(classes.len() >= 3, "classes {classes:?}");
    }

    #[test]
    fn centre_is_taller_than_fringe() {
        let m = vejle();
        let center = P2::new(0.0, 0.0);
        let mut core_heights = Vec::new();
        let mut fringe_heights = Vec::new();
        for b in &m.buildings {
            let d = b.centroid().distance(center);
            if d < 120.0 {
                core_heights.push(b.height_m);
            } else if d > 280.0 {
                fringe_heights.push(b.height_m);
            }
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(!core_heights.is_empty() && !fringe_heights.is_empty());
        assert!(
            avg(&core_heights) > avg(&fringe_heights),
            "core {} vs fringe {}",
            avg(&core_heights),
            avg(&fringe_heights)
        );
    }

    #[test]
    fn ids_unique() {
        let m = vejle();
        let mut ids: Vec<&String> = m.buildings.iter().map(|b| &b.id).collect();
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn buildings_do_not_cross_blocks() {
        // Footprints stay within the district extent.
        let m = vejle();
        let half_w = 8.0 * BLOCK_M / 2.0;
        let half_h = 6.0 * BLOCK_M / 2.0;
        for v in m.buildings.iter().flat_map(|b| &b.footprint.vertices) {
            assert!(v.x >= -half_w && v.x <= half_w);
            assert!(v.y >= -half_h && v.y <= half_h);
        }
    }
}
