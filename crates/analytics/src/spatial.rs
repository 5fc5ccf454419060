//! Spatial analysis: pollution-surface interpolation and plume dispersion.
//!
//! The paper's future work (§4): "with more data collected, we will be able
//! to tune models for emission distribution and dispersion". This module
//! implements that extension:
//!
//! * [`idw_surface`] — inverse-distance-weighted interpolation of the point
//!   sensor network onto a regular grid: the "high spatial granularity"
//!   payoff of the dense low-cost deployment (§1), and the input to
//!   city-wide heatmaps.
//! * [`GaussianPlume`] — the standard Gaussian plume dispersion model for a
//!   point source (factory/construction scenarios), with Pasquill–Gifford
//!   stability classes, used to *predict* the footprint of a planned source
//!   before building it.

use ctt_core::geo::{LatLon, LocalProjection};

/// A sensor observation pinned to a position (one pollutant, one instant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpatialSample {
    /// Where.
    pub position: LatLon,
    /// Observed concentration (any consistent unit).
    pub value: f64,
}

/// A regular interpolated grid over a geographic window.
#[derive(Debug, Clone)]
pub struct Surface {
    /// Grid origin (south-west corner).
    pub origin: LatLon,
    /// Cell size in metres.
    pub cell_m: f64,
    /// Columns (east) and rows (north).
    pub cols: usize,
    /// Rows.
    pub rows: usize,
    /// Row-major values; `None` where no sensor is within `max_range_m`.
    pub values: Vec<Option<f64>>,
}

impl Surface {
    /// Value at `(col, row)`.
    pub fn at(&self, col: usize, row: usize) -> Option<f64> {
        assert!(col < self.cols && row < self.rows);
        self.values[row * self.cols + col]
    }

    /// Min/max over defined cells.
    pub fn range(&self) -> Option<(f64, f64)> {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut any = false;
        for v in self.values.iter().flatten() {
            any = true;
            min = min.min(*v);
            max = max.max(*v);
        }
        any.then_some((min, max))
    }
}

/// Inverse-distance-weighted (power 2) interpolation of `samples` onto a
/// `cols × rows` grid of `cell_m` cells anchored at `origin` (SW corner).
/// Cells farther than `max_range_m` from every sensor stay undefined —
/// interpolation must not invent coverage the network does not have.
pub fn idw_surface(
    samples: &[SpatialSample],
    origin: LatLon,
    cell_m: f64,
    cols: usize,
    rows: usize,
    max_range_m: f64,
) -> Surface {
    assert!(cell_m > 0.0 && cols > 0 && rows > 0);
    let proj = LocalProjection::new(origin);
    let pts: Vec<(f64, f64, f64)> = samples
        .iter()
        .map(|s| {
            let e = proj.to_enu(s.position);
            (e.east_m, e.north_m, s.value)
        })
        .collect();
    let mut values = Vec::with_capacity(cols * rows);
    for row in 0..rows {
        for col in 0..cols {
            let x = (col as f64 + 0.5) * cell_m;
            let y = (row as f64 + 0.5) * cell_m;
            let mut wsum = 0.0;
            let mut vsum = 0.0;
            let mut nearest = f64::INFINITY;
            let mut exact = None;
            for &(px, py, v) in &pts {
                let d2 = (px - x).powi(2) + (py - y).powi(2);
                let d = d2.sqrt();
                nearest = nearest.min(d);
                if d < 1.0 {
                    exact = Some(v);
                    break;
                }
                let w = 1.0 / d2;
                wsum += w;
                vsum += w * v;
            }
            let value = match exact {
                Some(v) => Some(v),
                None if nearest <= max_range_m && wsum > 0.0 => Some(vsum / wsum),
                _ => None,
            };
            values.push(value);
        }
    }
    Surface {
        origin,
        cell_m,
        cols,
        rows,
        values,
    }
}

/// Pasquill–Gifford atmospheric stability class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stability {
    /// Very unstable (strong sun, light wind).
    A,
    /// Unstable.
    B,
    /// Slightly unstable.
    C,
    /// Neutral (overcast/windy — the Nordic default).
    D,
    /// Stable (clear night).
    E,
    /// Very stable (inversion).
    F,
}

impl Stability {
    /// Briggs open-country dispersion coefficients `(σy, σz)` at downwind
    /// distance `x` metres.
    fn sigmas(self, x: f64) -> (f64, f64) {
        let x = x.max(1.0);
        match self {
            Stability::A => (0.22 * x / (1.0 + 0.0001 * x).sqrt(), 0.20 * x),
            Stability::B => (0.16 * x / (1.0 + 0.0001 * x).sqrt(), 0.12 * x),
            Stability::C => (
                0.11 * x / (1.0 + 0.0001 * x).sqrt(),
                0.08 * x / (1.0 + 0.0002 * x).sqrt(),
            ),
            Stability::D => (
                0.08 * x / (1.0 + 0.0001 * x).sqrt(),
                0.06 * x / (1.0 + 0.0015 * x).sqrt(),
            ),
            Stability::E => (
                0.06 * x / (1.0 + 0.0001 * x).sqrt(),
                0.03 * x / (1.0 + 0.0003 * x),
            ),
            Stability::F => (
                0.04 * x / (1.0 + 0.0001 * x).sqrt(),
                0.016 * x / (1.0 + 0.0003 * x),
            ),
        }
    }

    /// Rough class from weather: daytime sun → unstable, strong wind →
    /// neutral, clear night → stable.
    pub fn from_conditions(wind_ms: f64, cloud_cover: f64, sun_up: bool) -> Stability {
        if wind_ms >= 6.0 {
            Stability::D
        } else if sun_up {
            if cloud_cover < 0.4 && wind_ms < 3.0 {
                Stability::B
            } else {
                Stability::C
            }
        } else if cloud_cover < 0.4 && wind_ms < 3.0 {
            Stability::F
        } else {
            Stability::E
        }
    }
}

/// A continuous point source (the planned factory of the §3 discussion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianPlume {
    /// Emission rate, g/s.
    pub emission_g_s: f64,
    /// Effective release height, m.
    pub stack_height_m: f64,
    /// Wind speed at stack height, m/s.
    pub wind_ms: f64,
    /// Stability class.
    pub stability: Stability,
}

impl GaussianPlume {
    /// Ground-level concentration (µg/m³) at `downwind_m` along the wind and
    /// `crosswind_m` across it. Zero upwind.
    pub fn concentration_ug_m3(&self, downwind_m: f64, crosswind_m: f64) -> f64 {
        if downwind_m <= 0.0 {
            return 0.0;
        }
        let (sy, sz) = self.stability.sigmas(downwind_m);
        let u = self.wind_ms.max(0.5);
        let q = self.emission_g_s * 1e6; // µg/s
        let a = q / (2.0 * std::f64::consts::PI * u * sy * sz);
        let cross = (-0.5 * (crosswind_m / sy).powi(2)).exp();
        // Ground-level with total reflection: 2 × the elevated-source term.
        let vert = 2.0 * (-0.5 * (self.stack_height_m / sz).powi(2)).exp();
        a * cross * vert
    }

    /// Maximum ground-level concentration along the plume centreline within
    /// `max_m`, with the distance where it occurs (sampled every 25 m).
    pub fn max_ground_level(&self, max_m: f64) -> (f64, f64) {
        let mut best = (0.0, 0.0);
        let mut x = 25.0;
        while x <= max_m {
            let c = self.concentration_ug_m3(x, 0.0);
            if c > best.0 {
                best = (c, x);
            }
            x += 25.0;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ORIGIN: LatLon = LatLon::new(63.42, 10.38);

    fn samples() -> Vec<SpatialSample> {
        vec![
            SpatialSample {
                position: ORIGIN.offset(45.0, 700.0),
                value: 10.0,
            },
            SpatialSample {
                position: ORIGIN.offset(60.0, 2_000.0),
                value: 50.0,
            },
        ]
    }

    #[test]
    fn idw_interpolates_between_sensors() {
        let s = idw_surface(&samples(), ORIGIN, 100.0, 30, 30, 5_000.0);
        let (min, max) = s.range().unwrap();
        assert!(
            min >= 10.0 - 1e-9 && max <= 50.0 + 1e-9,
            "IDW must not extrapolate beyond data range: {min}..{max}"
        );
        // Cells near sensor 1 are closer to 10, near sensor 2 closer to 50.
        let proj = LocalProjection::new(ORIGIN);
        let near1 = proj.to_enu(samples()[0].position);
        let c1 = s
            .at(
                (near1.east_m / 100.0) as usize,
                (near1.north_m / 100.0) as usize,
            )
            .unwrap();
        assert!(c1 < 25.0, "near sensor 1: {c1}");
    }

    #[test]
    fn idw_leaves_uncovered_cells_undefined() {
        let s = idw_surface(&samples(), ORIGIN, 100.0, 30, 30, 800.0);
        // Far corner is beyond 800 m of both sensors.
        assert!(s.at(29, 0).is_none());
        // But some cells are defined.
        assert!(s.values.iter().any(Option::is_some));
    }

    #[test]
    fn idw_exact_at_sensor_location() {
        let one = vec![SpatialSample {
            position: ORIGIN.offset(0.0, 50.0),
            value: 42.0,
        }];
        let s = idw_surface(&one, ORIGIN, 100.0, 2, 2, 10_000.0);
        // The cell containing the sensor is (0,0): centre (50,50), sensor at
        // (0,50)... distance 50 m — not exact, but single-sample IDW returns
        // the sample value everywhere.
        assert_eq!(s.at(0, 0), Some(42.0));
        assert_eq!(s.at(1, 1), Some(42.0));
    }

    #[test]
    fn empty_samples_all_undefined() {
        let s = idw_surface(&[], ORIGIN, 100.0, 3, 3, 1_000.0);
        assert!(s.values.iter().all(Option::is_none));
        assert!(s.range().is_none());
    }

    #[test]
    fn plume_zero_upwind_peaks_downwind() {
        let p = GaussianPlume {
            emission_g_s: 10.0,
            stack_height_m: 20.0,
            wind_ms: 4.0,
            stability: Stability::D,
        };
        assert_eq!(p.concentration_ug_m3(-100.0, 0.0), 0.0);
        let (cmax, xmax) = p.max_ground_level(5_000.0);
        assert!(cmax > 0.0);
        assert!(xmax > 50.0 && xmax < 3_000.0, "peak at {xmax} m");
        // Beyond the peak the centreline concentration decays.
        let far = p.concentration_ug_m3(5_000.0, 0.0);
        assert!(far < cmax);
        // Off-axis is lower than on-axis.
        assert!(p.concentration_ug_m3(xmax, 200.0) < cmax);
    }

    #[test]
    fn stable_air_concentrates_a_ground_level_plume() {
        // For a ground-level source C ∝ 1/(σy·σz): stable air (smaller
        // sigmas) keeps concentrations higher at every distance. (For
        // *elevated* stacks the relation inverts near the source — unstable
        // air mixes the plume down — which is why the test pins h ≈ 0.)
        let mk = |stability| GaussianPlume {
            emission_g_s: 5.0,
            stack_height_m: 0.5,
            wind_ms: 2.0,
            stability,
        };
        for x in [200.0, 1_000.0, 5_000.0] {
            let c_stable = mk(Stability::F).concentration_ug_m3(x, 0.0);
            let c_unstable = mk(Stability::B).concentration_ug_m3(x, 0.0);
            assert!(
                c_stable > c_unstable,
                "at {x} m: stable {c_stable} vs unstable {c_unstable}"
            );
        }
    }

    #[test]
    fn stability_classification() {
        assert_eq!(Stability::from_conditions(8.0, 0.2, true), Stability::D);
        assert_eq!(Stability::from_conditions(2.0, 0.1, true), Stability::B);
        assert_eq!(Stability::from_conditions(4.0, 0.8, true), Stability::C);
        assert_eq!(Stability::from_conditions(1.5, 0.1, false), Stability::F);
        assert_eq!(Stability::from_conditions(4.0, 0.9, false), Stability::E);
    }

    #[test]
    fn plume_mass_conservation_heuristic() {
        // Doubling the emission rate doubles every concentration.
        let base = GaussianPlume {
            emission_g_s: 1.0,
            stack_height_m: 15.0,
            wind_ms: 3.0,
            stability: Stability::C,
        };
        let double = GaussianPlume {
            emission_g_s: 2.0,
            ..base
        };
        for x in [100.0, 500.0, 2_000.0] {
            let a = base.concentration_ug_m3(x, 30.0);
            let b = double.concentration_ug_m3(x, 30.0);
            assert!((b / a - 2.0).abs() < 1e-9);
        }
        // Stronger wind dilutes.
        let windy = GaussianPlume {
            wind_ms: 6.0,
            ..base
        };
        assert!(windy.concentration_ug_m3(500.0, 0.0) < base.concentration_ug_m3(500.0, 0.0));
    }
}
