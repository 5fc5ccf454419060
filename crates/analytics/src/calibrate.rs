//! Sensor calibration against a co-located reference station.
//!
//! §2.4: "we have co-located one of our sensor units to the only station
//! in the pilot area. This allows to compare both absolute and relative
//! accuracy and calibrate the local sensor." The calibration model is the
//! standard low-cost-sensor form: fit `sensor = intercept + slope·reference`
//! on co-located pairs, then invert it to map raw sensor values onto the
//! reference scale.

use crate::correlate::pearson;
use crate::regression::{bias, linear_fit, mae, rmse, LinearFit};
use ctt_core::measurement::Series;
use ctt_core::time::Timestamp;

/// Accuracy metrics of a sensor series against a reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyMetrics {
    /// Root mean squared error (absolute accuracy).
    pub rmse: f64,
    /// Mean absolute error.
    pub mae: f64,
    /// Mean bias (sensor − reference).
    pub bias: f64,
    /// Pearson correlation (relative accuracy: does it track the truth?).
    pub r: f64,
    /// Number of co-located pairs.
    pub n: usize,
}

/// A fitted calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// The forward model `sensor = intercept + slope·reference`.
    pub fit: LinearFit,
}

impl Calibration {
    /// Correct one raw sensor value onto the reference scale.
    pub fn correct(&self, raw: f64) -> f64 {
        self.fit.invert(raw).unwrap_or(raw)
    }

    /// Correct a whole series.
    pub fn correct_series(&self, raw: &Series) -> Series {
        Series {
            points: raw
                .points
                .iter()
                .map(|&(t, v)| (t, self.correct(v)))
                .collect(),
        }
    }
}

/// Inner-join two series on equal timestamps.
pub fn paired(sensor: &Series, reference: &Series) -> Vec<(Timestamp, f64, f64)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < sensor.points.len() && j < reference.points.len() {
        let (ts, vs) = sensor.points[i];
        let (tr, vr) = reference.points[j];
        match ts.cmp(&tr) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push((ts, vs, vr));
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Accuracy of `sensor` vs `reference` on their common timestamps.
pub fn accuracy(sensor: &Series, reference: &Series) -> Option<AccuracyMetrics> {
    let pairs = paired(sensor, reference);
    if pairs.len() < 2 {
        return None;
    }
    let s: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let r: Vec<f64> = pairs.iter().map(|p| p.2).collect();
    Some(AccuracyMetrics {
        rmse: rmse(&s, &r)?,
        mae: mae(&s, &r)?,
        bias: bias(&s, &r)?,
        r: pearson(&s, &r).unwrap_or(0.0),
        n: pairs.len(),
    })
}

/// Fit a calibration from co-located pairs. `None` with < 10 pairs (a
/// calibration from too little data is worse than none).
pub fn fit_calibration(sensor: &Series, reference: &Series) -> Option<Calibration> {
    let pairs = paired(sensor, reference);
    if pairs.len() < 10 {
        return None;
    }
    let refs: Vec<f64> = pairs.iter().map(|p| p.2).collect();
    let sens: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let fit = linear_fit(&refs, &sens)?;
    if fit.slope.abs() < 1e-9 {
        return None;
    }
    Some(Calibration { fit })
}

/// Before/after calibration report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationReport {
    /// The fitted model.
    pub calibration: Calibration,
    /// Accuracy of the raw sensor.
    pub before: AccuracyMetrics,
    /// Accuracy after correction.
    pub after: AccuracyMetrics,
}

/// Fit on the first `train_frac` of the co-location period and report
/// held-out accuracy before/after on the remainder.
pub fn calibrate_and_evaluate(
    sensor: &Series,
    reference: &Series,
    train_frac: f64,
) -> Option<CalibrationReport> {
    let pairs = paired(sensor, reference);
    if pairs.len() < 20 {
        return None;
    }
    let split = ((pairs.len() as f64) * train_frac.clamp(0.1, 0.9)) as usize;
    let train = &pairs[..split];
    let test = &pairs[split..];
    let train_sensor = Series {
        points: train.iter().map(|&(t, s, _)| (t, s)).collect(),
    };
    let train_ref = Series {
        points: train.iter().map(|&(t, _, r)| (t, r)).collect(),
    };
    let calibration = fit_calibration(&train_sensor, &train_ref)?;
    let test_sensor = Series {
        points: test.iter().map(|&(t, s, _)| (t, s)).collect(),
    };
    let test_ref = Series {
        points: test.iter().map(|&(t, _, r)| (t, r)).collect(),
    };
    let corrected = calibration.correct_series(&test_sensor);
    Some(CalibrationReport {
        calibration,
        before: accuracy(&test_sensor, &test_ref)?,
        after: accuracy(&corrected, &test_ref)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference signal + a biased, gained, noisy sensor observing it.
    fn fixture(n: usize) -> (Series, Series) {
        let truth: Vec<f64> = (0..n)
            .map(|i| 400.0 + 30.0 * ((i as f64) * 0.13).sin() + 10.0 * ((i as f64) * 0.029).cos())
            .collect();
        let reference = Series {
            points: truth
                .iter()
                .enumerate()
                .map(|(i, &v)| (Timestamp(i as i64 * 3600), v))
                .collect(),
        };
        let sensor = Series {
            points: truth
                .iter()
                .enumerate()
                .map(|(i, &v)| {
                    let noise = (((i * 2654435761) % 1000) as f64 / 500.0 - 1.0) * 2.0;
                    (Timestamp(i as i64 * 3600), 25.0 + 1.08 * v + noise)
                })
                .collect(),
        };
        (sensor, reference)
    }

    #[test]
    fn pairing_joins_common_timestamps() {
        let a = Series {
            points: vec![(Timestamp(0), 1.0), (Timestamp(10), 2.0)],
        };
        let b = Series {
            points: vec![(Timestamp(10), 5.0), (Timestamp(20), 6.0)],
        };
        assert_eq!(paired(&a, &b), vec![(Timestamp(10), 2.0, 5.0)]);
    }

    #[test]
    fn raw_sensor_has_bias_but_high_correlation() {
        let (sensor, reference) = fixture(200);
        let m = accuracy(&sensor, &reference).unwrap();
        // Absolute accuracy poor (bias ≈ 25 + 8% gain error)...
        assert!(m.bias > 30.0, "bias {}", m.bias);
        assert!(m.rmse > 30.0);
        // ...but relative accuracy excellent — the premise of the low-cost
        // approach (§1: high density compensates lower accuracy, after
        // calibration).
        assert!(m.r > 0.99, "correlation {}", m.r);
    }

    #[test]
    fn calibration_removes_bias_and_gain() {
        let (sensor, reference) = fixture(200);
        let report = calibrate_and_evaluate(&sensor, &reference, 0.5).unwrap();
        assert!((report.calibration.fit.slope - 1.08).abs() < 0.02);
        assert!((report.calibration.fit.intercept - 25.0).abs() < 8.0);
        assert!(
            report.after.rmse < report.before.rmse / 5.0,
            "rmse before {} after {}",
            report.before.rmse,
            report.after.rmse
        );
        assert!(
            report.after.bias.abs() < 1.0,
            "residual bias {}",
            report.after.bias
        );
        assert!(report.after.r > 0.99);
    }

    #[test]
    fn correct_is_inverse_of_forward_model() {
        let (sensor, reference) = fixture(100);
        let cal = fit_calibration(&sensor, &reference).unwrap();
        // forward(correct(x)) ≈ x
        let x = 450.0;
        let forward = cal.fit.intercept + cal.fit.slope * cal.correct(x);
        assert!((forward - x).abs() < 1e-9);
    }

    #[test]
    fn too_few_pairs_refused() {
        let (sensor, reference) = fixture(5);
        assert!(fit_calibration(&sensor, &reference).is_none());
        assert!(calibrate_and_evaluate(&sensor, &reference, 0.5).is_none());
        assert!(accuracy(&Series::new(), &reference).is_none());
    }

    #[test]
    fn disjoint_series_unpairable() {
        let a = Series {
            points: (0..50).map(|i| (Timestamp(i * 2), 1.0)).collect(),
        };
        let b = Series {
            points: (0..50).map(|i| (Timestamp(i * 2 + 1), 1.0)).collect(),
        };
        assert!(paired(&a, &b).is_empty());
        assert!(accuracy(&a, &b).is_none());
    }
}
