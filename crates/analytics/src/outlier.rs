//! Outlier detection.
//!
//! §2.4: co-location "allows the identification of outliers and
//! malfunctioning sensors". Two detectors with different locality, plus
//! drift detection against a reference.

use crate::stats::{mad, median};
use ctt_core::measurement::Series;
use ctt_core::time::Timestamp;

/// Robust MAD detector: |x − median| > k·MAD. Standard choice k = 3.5.
pub fn mad_outliers(xs: &[f64], k: f64) -> Vec<usize> {
    let (Some(med), Some(m)) = (median(xs), mad(xs)) else {
        return Vec::new();
    };
    if m == 0.0 {
        return Vec::new();
    }
    xs.iter()
        .enumerate()
        .filter(|(_, &x)| ((x - med) / m).abs() > k)
        .map(|(i, _)| i)
        .collect()
}

/// Hampel filter: rolling-window MAD detector for time series; flags points
/// deviating more than `k`·MAD from their window median. `half_window` is
/// the number of neighbours on each side.
pub fn hampel_outliers(series: &Series, half_window: usize, k: f64) -> Vec<usize> {
    let pts = &series.points;
    let mut out = Vec::new();
    for i in 0..pts.len() {
        let lo = i.saturating_sub(half_window);
        let hi = (i + half_window + 1).min(pts.len());
        let window: Vec<f64> = pts[lo..hi].iter().map(|&(_, v)| v).collect();
        let (Some(med), Some(m)) = (median(&window), mad(&window)) else {
            continue;
        };
        let scale = m.max(1e-9);
        if ((pts[i].1 - med) / scale).abs() > k {
            out.push(i);
        }
    }
    out
}

/// Detect a malfunctioning (decaying) sensor by comparing its recent mean
/// offset against a reference series: returns the drift in units/day if the
/// offset trend is significant.
pub fn drift_per_day(sensor: &Series, reference: &Series) -> Option<f64> {
    // Offset series at matching timestamps.
    let offsets: Vec<(Timestamp, f64)> = sensor
        .points
        .iter()
        .filter_map(|&(t, v)| {
            reference
                .points
                .binary_search_by_key(&t, |&(rt, _)| rt)
                .ok()
                .map(|idx| (t, v - reference.points[idx].1))
        })
        .collect();
    if offsets.len() < 3 {
        return None;
    }
    let s = Series { points: offsets };
    crate::stats::slope_per_second(&s).map(|per_s| per_s * 86_400.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mad_finds_every_spike_under_contamination() {
        // 20% contamination would inflate a standard deviation; MAD holds.
        let mut xs: Vec<f64> = (0..40).map(|i| 10.0 + (i % 5) as f64 * 0.1).collect();
        for i in 0..8 {
            xs[i * 5] = 500.0;
        }
        let m = mad_outliers(&xs, 3.5);
        assert_eq!(m.len(), 8, "MAD finds all spikes");
    }

    #[test]
    fn hampel_is_local() {
        // A slow trend plus one local spike: global detectors would flag the
        // trend ends; Hampel flags only the spike.
        let pts: Vec<(Timestamp, f64)> = (0..100)
            .map(|i| {
                let v = if i == 50 { 200.0 } else { f64::from(i) };
                (Timestamp(i64::from(i) * 300), v)
            })
            .collect();
        let s = Series { points: pts };
        let out = hampel_outliers(&s, 5, 3.5);
        assert_eq!(out, vec![50]);
    }

    #[test]
    fn hampel_clean_series_unflagged() {
        let pts: Vec<(Timestamp, f64)> = (0..50)
            .map(|i| {
                (
                    Timestamp(i64::from(i) * 300),
                    10.0 + (f64::from(i) * 0.5).sin(),
                )
            })
            .collect();
        let s = Series { points: pts };
        assert!(hampel_outliers(&s, 5, 3.5).is_empty());
    }

    #[test]
    fn drift_detection() {
        // Sensor drifts +2 units/day relative to reference.
        let day = 86_400i64;
        let reference = Series {
            points: (0..20).map(|i| (Timestamp(i * day / 4), 100.0)).collect(),
        };
        let sensor = Series {
            points: (0..20)
                .map(|i| {
                    let t = i * day / 4;
                    (Timestamp(t), 100.0 + 2.0 * t as f64 / day as f64)
                })
                .collect(),
        };
        let drift = drift_per_day(&sensor, &reference).unwrap();
        assert!((drift - 2.0).abs() < 1e-9, "drift {drift}");
        // Too few overlapping points → None.
        let short = Series {
            points: vec![(Timestamp(0), 1.0)],
        };
        assert!(drift_per_day(&short, &reference).is_none());
    }
}
