//! Synthetic urban traffic intensity model.
//!
//! Traffic enters the system twice: as a driver of local NO2/PM/CO2
//! emissions, and as the external here.com "traffic jam factor" data source
//! the paper correlates CO2 dynamics against (Fig. 5, Table 1). Both views
//! are derived from this shared intensity model so that the relationships
//! (and their *absence* — the paper's Fig. 5 conclusion) are physically
//! consistent.
//!
//! Like the weather model, the generator is stateless and random-access.

use crate::rng::{channel_hash, value_noise};
use crate::time::{Timestamp, Weekday, DAY};
use crate::units::Degrees;

/// Road class, setting the scale of flow and congestion behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoadClass {
    /// Urban arterial / ring road.
    Arterial,
    /// Collector street.
    Collector,
    /// Residential street.
    Residential,
}

impl RoadClass {
    /// Vehicles per hour at intensity 1.0.
    pub fn capacity_vph(self) -> f64 {
        match self {
            RoadClass::Arterial => 2800.0,
            RoadClass::Collector => 1100.0,
            RoadClass::Residential => 250.0,
        }
    }
}

/// Synthetic traffic generator for one road segment.
#[derive(Debug, Clone, Copy)]
pub struct TrafficModel {
    seed: u64,
    class: RoadClass,
    /// Eastern-longitude-based local time offset in hours (coarse).
    utc_offset_h: f64,
}

/// Gaussian bump centred at `mu` hours with width `sigma` hours, handling
/// wrap-around at midnight.
fn rush_bump(hour: f64, mu: f64, sigma: f64) -> f64 {
    let mut d = (hour - mu).abs();
    if d > 12.0 {
        d = 24.0 - d;
    }
    (-0.5 * (d / sigma).powi(2)).exp()
}

impl TrafficModel {
    /// Create a model. `lon_deg` sets the coarse local-time offset so rush
    /// hours land at local 08:00/16:30 rather than UTC.
    pub fn new(seed: u64, class: RoadClass, lon_deg: Degrees) -> Self {
        TrafficModel {
            seed,
            class,
            utc_offset_h: lon_deg.0 / 15.0,
        }
    }

    /// The road class.
    pub fn class(&self) -> RoadClass {
        self.class
    }

    /// Relative traffic intensity in `[0, 1]` at `ts`.
    ///
    /// Weekdays show AM (08:00) and PM (16:30) rush peaks; weekends a single
    /// mild midday hump. Short-period noise adds realistic flutter, and rare
    /// incident spikes push intensity toward saturation.
    pub fn intensity(&self, ts: Timestamp) -> f64 {
        let local_hour = (ts.seconds_of_day() as f64 / 3600.0 + self.utc_offset_h).rem_euclid(24.0);
        let weekday = ts.weekday();
        let base = if weekday.is_weekend() {
            0.08 + 0.35 * rush_bump(local_hour, 13.0, 3.5)
        } else {
            let am = rush_bump(local_hour, 8.0, 1.2);
            let pm = rush_bump(local_hour, 16.5, 1.6);
            // Fridays have a stronger, earlier PM peak.
            let pm_gain = if weekday == Weekday::Friday {
                1.15
            } else {
                1.0
            };
            0.07 + 0.65 * am.max(pm * pm_gain) + 0.18 * rush_bump(local_hour, 12.5, 3.0)
        };
        let flutter = 0.08 * value_noise(self.seed, 11, ts.0, 900);
        let incident = self.incident_boost(ts);
        (base + flutter + incident).clamp(0.0, 1.0)
    }

    /// Occasional incidents (accidents, roadworks) saturating the segment.
    fn incident_boost(&self, ts: Timestamp) -> f64 {
        // One ~45-minute window is considered per 6-hour block; ~4% of
        // blocks contain an incident.
        let block = ts.0.div_euclid(6 * 3600);
        let r = channel_hash(self.seed, 23, block);
        if r > 0.92 {
            let start_frac = (channel_hash(self.seed, 29, block) + 1.0) / 2.0; // 0..1
            let start = block * 6 * 3600 + (start_frac * 5.0 * 3600.0) as i64;
            let end = start + 45 * 60;
            if ts.0 >= start && ts.0 < end {
                return 0.5;
            }
        }
        0.0
    }

    /// Vehicle flow in vehicles/hour at `ts`.
    pub fn flow_vph(&self, ts: Timestamp) -> f64 {
        self.intensity(ts) * self.class.capacity_vph()
    }

    /// here.com-style jam factor in `[0, 10]`.
    ///
    /// Jam factor measures *congestion*, not flow: it stays near zero until
    /// the volume/capacity ratio approaches saturation, then rises steeply
    /// (a BPR-like convex curve). This is why jam factor and emission-driving
    /// flow have different shapes — the mechanism behind the paper's
    /// "no apparent correlation" observation.
    pub fn jam_factor(&self, ts: Timestamp) -> f64 {
        let v_over_c = self.intensity(ts);
        let congestion = v_over_c.powi(4); // BPR exponent
        (10.0 * congestion).clamp(0.0, 10.0)
    }

    /// Average daily traffic (vehicles/day) over the day containing `ts`,
    /// sampled every 15 minutes — what a municipal tube counter reports.
    pub fn daily_count(&self, ts: Timestamp) -> f64 {
        let midnight = ts.midnight();
        let mut total = 0.0;
        let step = 900i64;
        let mut t = midnight.0;
        while t < midnight.0 + DAY {
            total += self.flow_vph(Timestamp(t)) * step as f64 / 3600.0;
            t += step;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Span;

    fn model() -> TrafficModel {
        TrafficModel::new(7, RoadClass::Arterial, Degrees(10.4))
    }

    #[test]
    fn deterministic() {
        let t = Timestamp::from_civil(2017, 5, 2, 8, 0, 0);
        assert_eq!(model().intensity(t), model().intensity(t));
    }

    #[test]
    fn rush_hour_beats_night() {
        let m = model();
        // Tuesday 2017-05-02. Local 08:00 is ~07:18 UTC at 10.4°E.
        let rush = Timestamp::from_civil(2017, 5, 2, 7, 20, 0);
        let night = Timestamp::from_civil(2017, 5, 2, 2, 30, 0);
        assert!(
            m.intensity(rush) > 2.0 * m.intensity(night),
            "rush {} vs night {}",
            m.intensity(rush),
            m.intensity(night)
        );
    }

    #[test]
    fn weekday_rush_beats_weekend() {
        let m = model();
        let tue = Timestamp::from_civil(2017, 5, 2, 7, 20, 0);
        let sun = Timestamp::from_civil(2017, 5, 7, 7, 20, 0);
        assert!(m.intensity(tue) > m.intensity(sun));
    }

    #[test]
    fn intensity_bounded() {
        let m = model();
        let start = Timestamp::from_civil(2017, 1, 1, 0, 0, 0);
        for i in 0..5000 {
            let v = m.intensity(start + Span::minutes(17 * i));
            assert!((0.0..=1.0).contains(&v), "intensity {v}");
        }
    }

    #[test]
    fn jam_factor_bounded_and_convex() {
        let m = model();
        let start = Timestamp::from_civil(2017, 1, 1, 0, 0, 0);
        for i in 0..5000 {
            let t = start + Span::minutes(17 * i);
            let jf = m.jam_factor(t);
            assert!((0.0..=10.0).contains(&jf));
        }
        // Convexity: at half intensity, jam factor is far below half of max.
        // Find a moment with moderate intensity.
        let mut moderate = None;
        for i in 0..2000 {
            let t = start + Span::minutes(13 * i);
            let v = m.intensity(t);
            if (0.45..0.55).contains(&v) {
                moderate = Some(t);
                break;
            }
        }
        let t = moderate.expect("no moderate-intensity moment found");
        assert!(
            m.jam_factor(t) < 1.5,
            "jam factor {} too high at moderate load",
            m.jam_factor(t)
        );
    }

    #[test]
    fn flow_scales_with_road_class() {
        let t = Timestamp::from_civil(2017, 5, 2, 7, 20, 0);
        let arterial = TrafficModel::new(7, RoadClass::Arterial, Degrees(10.4)).flow_vph(t);
        let residential = TrafficModel::new(7, RoadClass::Residential, Degrees(10.4)).flow_vph(t);
        assert!(arterial > 5.0 * residential);
    }

    #[test]
    fn daily_count_plausible_for_arterial() {
        let m = model();
        let tue = Timestamp::from_civil(2017, 5, 2, 12, 0, 0);
        let count = m.daily_count(tue);
        // A busy arterial carries 5k–30k vehicles/day.
        assert!((3_000.0..40_000.0).contains(&count), "daily count {count}");
    }

    #[test]
    fn incidents_occur_but_rarely() {
        let m = model();
        let start = Timestamp::from_civil(2017, 1, 1, 0, 0, 0);
        let mut incident_minutes = 0usize;
        let total = 60 * 24 * 60; // 60 days of minutes
        for i in 0..total {
            if m.incident_boost(start + Span::minutes(i as i64)) > 0.0 {
                incident_minutes += 1;
            }
        }
        let frac = incident_minutes as f64 / total as f64;
        assert!(frac > 0.0005, "incidents never fire ({frac})");
        assert!(frac < 0.02, "incidents too common ({frac})");
    }

    #[test]
    fn local_time_offset_moves_rush() {
        // At 150°E local 08:00 is 22:00 UTC the previous day.
        let east = TrafficModel::new(7, RoadClass::Arterial, Degrees(150.0));
        let utc_22 = Timestamp::from_civil(2017, 5, 1, 22, 0, 0); // Monday 22:00 UTC = Tue 08:00 local
        let utc_08 = Timestamp::from_civil(2017, 5, 2, 8, 0, 0); // Tue 08:00 UTC = Tue 18:00 local
        assert!(east.intensity(utc_22) > 0.4, "shifted AM rush missing");
        let _ = utc_08;
    }
}
