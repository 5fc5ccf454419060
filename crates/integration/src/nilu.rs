//! NILU-style official reference station.
//!
//! The paper co-locates one CTT unit with "the only station in the pilot
//! area" (§2.4) to ground and calibrate the network. The station measures
//! the same ground truth as the sensors but with reference-grade accuracy
//! and hourly averaging (official stations report validated hourly means).

use ctt_core::emission::{EmissionModel, Site};
use ctt_core::measurement::Series;
use ctt_core::quantity::Pollutant;
use ctt_core::rng::{mix64, unit};
use ctt_core::time::{Span, TimeRange, Timestamp};

/// A reference station bound to a site.
#[derive(Debug, Clone)]
pub struct NiluStation {
    /// Station name (e.g. "Elgeseter").
    pub name: String,
    site: Site,
    /// Instrument noise, relative (reference-grade: 0.5%).
    noise_rel: f64,
    seed: u64,
}

impl NiluStation {
    /// Create a station at `site`.
    pub fn new(name: impl Into<String>, site: Site, seed: u64) -> Self {
        NiluStation {
            name: name.into(),
            site,
            noise_rel: 0.005,
            seed,
        }
    }

    /// The station's site.
    pub fn site(&self) -> &Site {
        &self.site
    }

    /// Validated hourly mean for one pollutant at the hour starting `hour`
    /// (averages the truth at 10-minute sub-samples).
    pub fn hourly_mean(
        &self,
        emission: &EmissionModel,
        pollutant: Pollutant,
        hour: Timestamp,
    ) -> f64 {
        let hour = hour.align_down(Span::hours(1));
        let mut sum = 0.0;
        let mut n = 0;
        for t in TimeRange::new(hour, hour + Span::hours(1), Span::minutes(10)) {
            let p = emission.sample(&self.site, t);
            sum += match pollutant {
                Pollutant::Co2 => p.co2_ppm,
                Pollutant::No2 => p.no2_ppb,
                Pollutant::Pm25 => p.pm25_ug_m3,
                Pollutant::Pm10 => p.pm10_ug_m3,
            };
            n += 1;
        }
        let mean = sum / f64::from(n);
        // Tiny instrument noise, deterministic per (seed, hour, pollutant).
        let key = self.seed
            ^ hour.as_seconds() as u64
            ^ (pollutant.code().len() as u64) << 32
            ^ mix64(pollutant.code().as_bytes()[0] as u64);
        mean * (1.0 + self.noise_rel * (unit(key) * 2.0 - 1.0))
    }

    /// Hourly series over `[from, to)`.
    pub fn hourly_series(
        &self,
        emission: &EmissionModel,
        pollutant: Pollutant,
        from: Timestamp,
        to: Timestamp,
    ) -> Series {
        TimeRange::new(from.align_down(Span::hours(1)), to, Span::hours(1))
            .map(|h| (h, self.hourly_mean(emission, pollutant, h)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctt_core::geo::LatLon;
    use ctt_core::traffic::{RoadClass, TrafficModel};
    use ctt_core::units::Degrees;
    use ctt_core::weather::{Climate, WeatherModel};

    const TRONDHEIM: LatLon = LatLon::new(63.4305, 10.3951);

    fn emission() -> EmissionModel {
        EmissionModel::new(
            WeatherModel::new(42, Climate::trondheim(), TRONDHEIM),
            TrafficModel::new(42, RoadClass::Arterial, Degrees(TRONDHEIM.lon_deg)),
        )
    }

    fn station() -> NiluStation {
        NiluStation::new("Elgeseter", Site::kerbside(TRONDHEIM), 7)
    }

    #[test]
    fn hourly_mean_is_deterministic() {
        let em = emission();
        let s = station();
        let h = Timestamp::from_civil(2017, 5, 2, 8, 0, 0);
        assert_eq!(
            s.hourly_mean(&em, Pollutant::Co2, h),
            s.hourly_mean(&em, Pollutant::Co2, h)
        );
    }

    #[test]
    fn hourly_mean_close_to_truth() {
        let em = emission();
        let s = station();
        let h = Timestamp::from_civil(2017, 5, 2, 8, 0, 0);
        let measured = s.hourly_mean(&em, Pollutant::No2, h);
        // Direct mean of truth at the same sub-samples.
        let mut sum = 0.0;
        for t in TimeRange::new(h, h + Span::hours(1), Span::minutes(10)) {
            sum += em.sample(s.site(), t).no2_ppb;
        }
        let truth = sum / 6.0;
        assert!(
            (measured - truth).abs() / truth < 0.01,
            "measured {measured} vs truth {truth}"
        );
    }

    #[test]
    fn series_covers_range_hourly() {
        let em = emission();
        let s = station();
        let from = Timestamp::from_civil(2017, 5, 1, 0, 0, 0);
        let to = from + Span::days(2);
        let series = s.hourly_series(&em, Pollutant::Co2, from, to);
        assert_eq!(series.len(), 48);
        assert_eq!(series.points[0].0, from);
        assert_eq!(series.points[1].0 - series.points[0].0, Span::hours(1));
        assert!(series.values().all(|v| (350.0..700.0).contains(&v)));
    }

    #[test]
    fn unaligned_hour_is_aligned_down() {
        let em = emission();
        let s = station();
        let h = Timestamp::from_civil(2017, 5, 2, 8, 17, 3);
        let aligned = Timestamp::from_civil(2017, 5, 2, 8, 0, 0);
        assert_eq!(
            s.hourly_mean(&em, Pollutant::Pm10, h),
            s.hourly_mean(&em, Pollutant::Pm10, aligned)
        );
    }
}
