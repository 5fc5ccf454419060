//! Harmonization of heterogeneous sources.
//!
//! §2.2: "The sources contain highly heterogeneous data, with different
//! timescales, measurement frequencies, spatial distributions and
//! granularities ... and a complex set of related uncertainties." Before
//! any joint analysis the series must be brought onto a common time grid
//! and measurement points joined to the sensors that represent them.

use ctt_core::geo::LatLon;
use ctt_core::measurement::Series;
use ctt_core::time::{Span, Timestamp};

/// How to produce a grid value from the points near a grid instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResampleMethod {
    /// Mean of points inside the bucket `[t, t+step)`.
    BucketMean,
    /// Linear interpolation between the bracketing points.
    Linear,
    /// Last observation carried forward.
    Locf,
}

/// Resample a series onto the aligned grid `[start, end)` with `step`.
/// Grid instants with no defined value are omitted (never invented).
pub fn resample(
    series: &Series,
    start: Timestamp,
    end: Timestamp,
    step: Span,
    method: ResampleMethod,
) -> Series {
    assert!(step.as_seconds() > 0);
    let mut out = Vec::new();
    let grid_start = start.align_down(step);
    let pts = &series.points;
    let mut t = grid_start;
    while t < end {
        let value = match method {
            ResampleMethod::BucketMean => {
                let bucket_end = t + step;
                let vals: Vec<f64> = pts
                    .iter()
                    .filter(|&&(pt, _)| pt >= t && pt < bucket_end)
                    .map(|&(_, v)| v)
                    .collect();
                if vals.is_empty() {
                    None
                } else {
                    Some(vals.iter().sum::<f64>() / vals.len() as f64)
                }
            }
            ResampleMethod::Linear => {
                let after = pts.iter().position(|&(pt, _)| pt >= t);
                match after {
                    Some(0) => (pts[0].0 == t).then_some(pts[0].1),
                    Some(i) => {
                        let (t0, v0) = pts[i - 1];
                        let (t1, v1) = pts[i];
                        if t1 == t0 {
                            Some(v1)
                        } else {
                            let frac = (t - t0).as_seconds() as f64 / (t1 - t0).as_seconds() as f64;
                            Some(v0 + (v1 - v0) * frac)
                        }
                    }
                    None => None, // past the last point: undefined
                }
            }
            ResampleMethod::Locf => pts.iter().rev().find(|&&(pt, _)| pt <= t).map(|&(_, v)| v),
        };
        if let Some(v) = value {
            out.push((t, v));
        }
        t += step;
    }
    Series { points: out }
}

/// Spatial join: index of the nearest candidate to `target`, with the
/// distance in metres. `None` when `candidates` is empty or the nearest is
/// farther than `max_distance_m`.
pub fn nearest(target: LatLon, candidates: &[LatLon], max_distance_m: f64) -> Option<(usize, f64)> {
    candidates
        .iter()
        .enumerate()
        .map(|(i, &c)| (i, target.distance_m(c)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .filter(|&(_, d)| d <= max_distance_m)
}

/// A value with propagated 1σ uncertainty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uncertain {
    /// Central value.
    pub value: f64,
    /// One standard deviation.
    pub sigma: f64,
}

impl Uncertain {
    /// Exact value.
    pub fn exact(value: f64) -> Self {
        Uncertain { value, sigma: 0.0 }
    }

    /// Sum with independent-error propagation (σ² adds).
    #[allow(clippy::should_implement_trait)] // domain verb, not operator overloading
    pub fn add(self, other: Uncertain) -> Uncertain {
        Uncertain {
            value: self.value + other.value,
            sigma: (self.sigma.powi(2) + other.sigma.powi(2)).sqrt(),
        }
    }

    /// Difference with independent-error propagation.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Uncertain) -> Uncertain {
        Uncertain {
            value: self.value - other.value,
            sigma: (self.sigma.powi(2) + other.sigma.powi(2)).sqrt(),
        }
    }

    /// Scale by a constant.
    pub fn scale(self, k: f64) -> Uncertain {
        Uncertain {
            value: self.value * k,
            sigma: self.sigma * k.abs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(pts: &[(i64, f64)]) -> Series {
        Series::from_points(pts.iter().map(|&(t, v)| (Timestamp(t), v)).collect())
    }

    #[test]
    fn bucket_mean_resampling() {
        let s = series(&[(0, 1.0), (100, 3.0), (700, 10.0)]);
        let r = resample(
            &s,
            Timestamp(0),
            Timestamp(1200),
            Span::seconds(600),
            ResampleMethod::BucketMean,
        );
        assert_eq!(r.points, vec![(Timestamp(0), 2.0), (Timestamp(600), 10.0)]);
    }

    #[test]
    fn bucket_mean_skips_empty() {
        let s = series(&[(0, 1.0), (1900, 5.0)]);
        let r = resample(
            &s,
            Timestamp(0),
            Timestamp(2400),
            Span::seconds(600),
            ResampleMethod::BucketMean,
        );
        let times: Vec<i64> = r.points.iter().map(|(t, _)| t.as_seconds()).collect();
        assert_eq!(times, vec![0, 1800]);
    }

    #[test]
    fn linear_interpolation() {
        let s = series(&[(0, 0.0), (1000, 10.0)]);
        let r = resample(
            &s,
            Timestamp(0),
            Timestamp(1001),
            Span::seconds(250),
            ResampleMethod::Linear,
        );
        assert_eq!(
            r.points,
            vec![
                (Timestamp(0), 0.0),
                (Timestamp(250), 2.5),
                (Timestamp(500), 5.0),
                (Timestamp(750), 7.5),
                (Timestamp(1000), 10.0),
            ]
        );
    }

    #[test]
    fn linear_undefined_outside_support() {
        let s = series(&[(500, 1.0), (1000, 2.0)]);
        let r = resample(
            &s,
            Timestamp(0),
            Timestamp(2000),
            Span::seconds(500),
            ResampleMethod::Linear,
        );
        // t=0 before first point: undefined; t=1500 after last: undefined.
        let times: Vec<i64> = r.points.iter().map(|(t, _)| t.as_seconds()).collect();
        assert_eq!(times, vec![500, 1000]);
    }

    #[test]
    fn locf_carries_forward() {
        let s = series(&[(100, 1.0), (1100, 2.0)]);
        let r = resample(
            &s,
            Timestamp(0),
            Timestamp(2000),
            Span::seconds(500),
            ResampleMethod::Locf,
        );
        assert_eq!(
            r.points,
            vec![
                (Timestamp(500), 1.0),
                (Timestamp(1000), 1.0),
                (Timestamp(1500), 2.0),
            ]
        );
    }

    #[test]
    fn grid_alignment() {
        let s = series(&[(0, 1.0), (3600, 2.0)]);
        // Unaligned start aligns down to the step grid.
        let r = resample(
            &s,
            Timestamp(17),
            Timestamp(7200),
            Span::seconds(3600),
            ResampleMethod::BucketMean,
        );
        assert_eq!(r.points[0].0, Timestamp(0));
    }

    #[test]
    fn nearest_join() {
        let origin = LatLon::new(63.43, 10.39);
        let candidates = [
            origin.offset(0.0, 500.0),
            origin.offset(90.0, 100.0),
            origin.offset(180.0, 2000.0),
        ];
        let (idx, d) = nearest(origin, &candidates, 10_000.0).unwrap();
        assert_eq!(idx, 1);
        assert!((d - 100.0).abs() < 2.0);
        // Max-distance cutoff.
        assert!(nearest(origin, &candidates, 50.0).is_none());
        assert!(nearest(origin, &[], 1e9).is_none());
    }

    #[test]
    fn uncertainty_propagation() {
        let a = Uncertain {
            value: 10.0,
            sigma: 3.0,
        };
        let b = Uncertain {
            value: 20.0,
            sigma: 4.0,
        };
        let sum = a.add(b);
        assert_eq!(sum.value, 30.0);
        assert!((sum.sigma - 5.0).abs() < 1e-12);
        let diff = b.sub(a);
        assert_eq!(diff.value, 10.0);
        assert!((diff.sigma - 5.0).abs() < 1e-12);
        let scaled = a.scale(-2.0);
        assert_eq!(scaled.value, -20.0);
        assert_eq!(scaled.sigma, 6.0);
    }
}
