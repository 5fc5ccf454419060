//! Temporal pattern analysis and anomaly browsing.
//!
//! §2.4 names "understanding of patterns" and "daily and seasonal
//! patterns" among the running analyses, and §3 lets citizens "browse
//! historic data in the system to investigate anomalous emission levels".

use crate::stats::{mean, std_dev};
use ctt_core::measurement::Series;
use ctt_core::time::Timestamp;

/// Mean by calendar month (1..=12); `None` for unobserved months.
pub fn monthly_means(series: &Series) -> [Option<f64>; 12] {
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); 12];
    for &(t, v) in &series.points {
        buckets[(t.civil().month - 1) as usize].push(v);
    }
    let mut out = [None; 12];
    for (m, b) in buckets.iter().enumerate() {
        out[m] = mean(b);
    }
    out
}

/// One day's aggregate with its anomaly score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayScore {
    /// Midnight of the day.
    pub day: Timestamp,
    /// Daily mean value.
    pub mean: f64,
    /// Standard score against the whole-period daily-mean distribution.
    pub z: f64,
}

/// Daily means of a series.
pub fn daily_means(series: &Series) -> Vec<(Timestamp, f64)> {
    let mut out: Vec<(Timestamp, f64)> = Vec::new();
    let mut cur_day: Option<Timestamp> = None;
    let mut acc: Vec<f64> = Vec::new();
    for &(t, v) in &series.points {
        let day = t.midnight();
        if Some(day) != cur_day {
            if let (Some(d), Some(m)) = (cur_day, mean(&acc)) {
                out.push((d, m));
            }
            cur_day = Some(day);
            acc.clear();
        }
        acc.push(v);
    }
    if let (Some(d), Some(m)) = (cur_day, mean(&acc)) {
        out.push((d, m));
    }
    out
}

/// Find anomalous days: daily means with |z| above `threshold` relative to
/// the distribution of all daily means. This is the citizens' "investigate
/// anomalous emission levels" browser.
pub fn anomalous_days(series: &Series, threshold: f64) -> Vec<DayScore> {
    let daily = daily_means(series);
    let values: Vec<f64> = daily.iter().map(|&(_, v)| v).collect();
    let (Some(m), Some(sd)) = (mean(&values), std_dev(&values)) else {
        return Vec::new();
    };
    if sd == 0.0 {
        return Vec::new();
    }
    daily
        .into_iter()
        .map(|(day, v)| DayScore {
            day,
            mean: v,
            z: (v - m) / sd,
        })
        .filter(|d| d.z.abs() > threshold)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctt_core::time::Span;

    /// Hourly series over `days` days starting Monday 2017-05-01, with a
    /// value function of (day index, hour).
    fn hourly(days: i64, f: impl Fn(i64, i64) -> f64) -> Series {
        let start = Timestamp::from_civil(2017, 5, 1, 0, 0, 0); // a Monday
        let mut s = Series::new();
        for d in 0..days {
            for h in 0..24 {
                s.push(start + Span::days(d) + Span::hours(h), f(d, h));
            }
        }
        s
    }

    #[test]
    fn monthly_means_bucket_by_month() {
        let mut s = Series::new();
        s.push(Timestamp::from_civil(2017, 1, 5, 12, 0, 0), 10.0);
        s.push(Timestamp::from_civil(2017, 1, 6, 12, 0, 0), 20.0);
        s.push(Timestamp::from_civil(2017, 7, 5, 12, 0, 0), 40.0);
        let m = monthly_means(&s);
        assert_eq!(m[0], Some(15.0));
        assert_eq!(m[6], Some(40.0));
        assert!(m[1].is_none());
    }

    #[test]
    fn daily_means_aggregate_days() {
        let s = hourly(3, |d, _| d as f64);
        let daily = daily_means(&s);
        assert_eq!(daily.len(), 3);
        assert_eq!(daily[0].1, 0.0);
        assert_eq!(daily[2].1, 2.0);
        for (day, _) in &daily {
            assert_eq!(day.seconds_of_day(), 0);
        }
        assert!(daily_means(&Series::new()).is_empty());
    }

    #[test]
    fn anomalous_day_detected() {
        // 30 ordinary days plus one pollution-episode day.
        let s = hourly(30, |d, h| {
            let base = 20.0 + (h as f64 - 12.0).abs() * 0.1;
            if d == 17 {
                base + 30.0
            } else {
                base
            }
        });
        let anomalies = anomalous_days(&s, 3.0);
        assert_eq!(anomalies.len(), 1);
        let a = anomalies[0];
        assert_eq!(a.day, Timestamp::from_civil(2017, 5, 18, 0, 0, 0));
        assert!(a.z > 3.0);
        assert!((a.mean - 51.2).abs() < 1.0);
    }

    #[test]
    fn clean_period_has_no_anomalies() {
        let s = hourly(30, |_, h| 20.0 + (h as f64).sin());
        assert!(anomalous_days(&s, 3.0).is_empty());
        // Degenerate inputs.
        assert!(anomalous_days(&Series::new(), 3.0).is_empty());
    }
}
