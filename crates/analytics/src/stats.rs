//! Descriptive statistics.

use ctt_core::measurement::Series;
pub use ctt_core::stats::quantile;
use ctt_core::time::Span;

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub sd: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median.
    pub median: f64,
}

/// Arithmetic mean; `None` on empty input.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Sample variance (n−1); `None` when n < 2.
pub fn variance(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64)
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Median.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Median absolute deviation (consistency-scaled ×1.4826 to estimate σ).
pub fn mad(xs: &[f64]) -> Option<f64> {
    let med = median(xs)?;
    let devs: Vec<f64> = xs.iter().map(|x| (x - med).abs()).collect();
    median(&devs).map(|m| m * 1.4826)
}

/// Full summary.
pub fn summary(xs: &[f64]) -> Option<Summary> {
    Some(Summary {
        n: xs.len(),
        mean: mean(xs)?,
        sd: std_dev(xs).unwrap_or(0.0),
        min: xs.iter().copied().fold(f64::INFINITY, f64::min),
        max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        median: median(xs)?,
    })
}

/// First difference of a series: `(t_i, v_i − v_{i−1})` for i ≥ 1.
pub fn diff(series: &Series) -> Series {
    Series {
        points: series
            .points
            .windows(2)
            .map(|w| (w[1].0, w[1].1 - w[0].1))
            .collect(),
    }
}

/// Simple least-squares slope of value against time (units: value/second).
pub fn slope_per_second(series: &Series) -> Option<f64> {
    if series.len() < 2 {
        return None;
    }
    let t0 = series.points[0].0;
    let xs: Vec<f64> = series
        .points
        .iter()
        .map(|&(t, _)| (t - t0).as_seconds() as f64)
        .collect();
    let ys: Vec<f64> = series.values().collect();
    let mx = mean(&xs)?;
    let my = mean(&ys)?;
    let sxx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    Some(sxy / sxx)
}

/// Mean cadence (time between consecutive points).
pub fn mean_cadence(series: &Series) -> Option<Span> {
    if series.len() < 2 {
        return None;
    }
    let total = (series.points.last()?.0 - series.points.first()?.0).as_seconds();
    Some(Span::seconds(total / (series.len() as i64 - 1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctt_core::time::Timestamp;

    #[test]
    fn basic_moments() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), Some(5.0));
        assert!((variance(&xs).unwrap() - 4.571428).abs() < 1e-5);
        assert!((std_dev(&xs).unwrap() - 2.13809).abs() < 1e-4);
        assert_eq!(mean(&[]), None);
        assert_eq!(variance(&[1.0]), None);
    }

    #[test]
    fn quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(quantile(&xs, 0.25), Some(1.75));
        assert_eq!(quantile(&xs, 1.5), None);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn mad_robust_to_outlier() {
        let clean = [10.0, 11.0, 9.0, 10.5, 9.5];
        let dirty = [10.0, 11.0, 9.0, 10.5, 1000.0];
        let mad_clean = mad(&clean).unwrap();
        let mad_dirty = mad(&dirty).unwrap();
        // MAD barely moves; SD explodes.
        assert!(mad_dirty < 3.0 * mad_clean);
        assert!(std_dev(&dirty).unwrap() > 100.0 * std_dev(&clean).unwrap());
    }

    #[test]
    fn summary_fields() {
        let s = summary(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.n, 3);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.median, 2.0);
        assert!(summary(&[]).is_none());
    }

    fn series(pts: &[(i64, f64)]) -> Series {
        Series::from_points(pts.iter().map(|&(t, v)| (Timestamp(t), v)).collect())
    }

    #[test]
    fn diff_and_slope() {
        let s = series(&[(0, 1.0), (10, 3.0), (20, 5.0)]);
        let d = diff(&s);
        assert_eq!(d.points, vec![(Timestamp(10), 2.0), (Timestamp(20), 2.0)]);
        let slope = slope_per_second(&s).unwrap();
        assert!((slope - 0.2).abs() < 1e-12);
        assert!(slope_per_second(&series(&[(0, 1.0)])).is_none());
    }

    #[test]
    fn cadence() {
        let s = series(&[(0, 0.0), (300, 0.0), (600, 0.0)]);
        assert_eq!(mean_cadence(&s), Some(Span::seconds(300)));
        assert_eq!(mean_cadence(&series(&[(0, 0.0)])), None);
    }
}
