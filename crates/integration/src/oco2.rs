//! NASA OCO-2 style satellite CO2 column measurements.
//!
//! Table 1: "Ground truth top-down measurements for certain emission
//! types, large-scale coverage, low spatial resolution, coupling to
//! large-scale modeling and validation." The substitute models the
//! sampling geometry that makes satellite grounding hard: a
//! sun-synchronous orbit with a 16-day repeat cycle and ~13:30 local
//! overpass time, a narrow swath of coarse (~2 km) footprints, frequent
//! cloud dropouts, and column-averaged values (XCO2) that dilute surface
//! enhancements by roughly an order of magnitude.

use ctt_core::emission::{co2_background_ppm, EmissionModel, Site};
use ctt_core::geo::LatLon;
use ctt_core::rng::{gauss, mix64, unit};
use ctt_core::time::{Span, Timestamp, DAY};

/// One XCO2 sounding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sounding {
    /// Footprint centre.
    pub position: LatLon,
    /// Observation time.
    pub time: Timestamp,
    /// Column-averaged CO2 dry-air mole fraction, ppm.
    pub xco2_ppm: f64,
    /// Retrieval uncertainty (1σ), ppm.
    pub sigma_ppm: f64,
}

/// The satellite instrument model.
#[derive(Debug, Clone, Copy)]
pub struct Oco2 {
    /// Repeat cycle, days (16 for OCO-2).
    pub repeat_days: u16,
    /// Footprint spacing along the swath, metres.
    pub footprint_m: f64,
    /// Swath half-length simulated around the city, metres.
    pub swath_half_m: f64,
    /// Fraction of soundings lost to clouds (Nordic coasts: high).
    pub cloud_loss: f64,
    seed: u64,
}

impl Default for Oco2 {
    fn default() -> Self {
        Oco2 {
            repeat_days: 16,
            footprint_m: 2_000.0,
            swath_half_m: 20_000.0,
            cloud_loss: 0.55,
            seed: 0xC02,
        }
    }
}

impl Oco2 {
    /// Overpass times of the repeat cycle over `city` within `[from, to)`.
    /// One overpass every `repeat_days` at ~13:30 local solar time.
    pub fn overpasses(&self, city: LatLon, from: Timestamp, to: Timestamp) -> Vec<Timestamp> {
        // Local solar 13:30 => UTC 13.5 - lon/15 hours.
        let utc_hour = 13.5 - city.lon_deg / 15.0;
        let utc_secs = (utc_hour * 3600.0).rem_euclid(DAY as f64) as i64;
        // Phase of the repeat cycle anchored to the epoch.
        let mut out = Vec::new();
        let mut day = from.midnight();
        while day < to {
            let day_index = day.as_seconds().div_euclid(DAY);
            if day_index.rem_euclid(i64::from(self.repeat_days)) == 0 {
                let t = Timestamp(day.as_seconds() + utc_secs);
                if t >= from && t < to {
                    out.push(t);
                }
            }
            day += Span::days(1);
        }
        out
    }

    /// Soundings of one overpass at `time` across `city`. Returns the swath
    /// after cloud screening (may be empty under overcast).
    pub fn overpass_soundings(
        &self,
        emission: &EmissionModel,
        city: LatLon,
        time: Timestamp,
    ) -> Vec<Sounding> {
        let mut out = Vec::new();
        let background = co2_background_ppm(time);
        let n = (2.0 * self.swath_half_m / self.footprint_m) as i64;
        for i in 0..n {
            let offset = -self.swath_half_m + (i as f64 + 0.5) * self.footprint_m;
            // Ground track runs roughly north-south (descending node).
            let pos = city.offset(if offset >= 0.0 { 0.0 } else { 180.0 }, offset.abs());
            let key = self.seed ^ mix64(time.as_seconds() as u64) ^ mix64(i as u64);
            if unit(key ^ 0xC10) < self.cloud_loss {
                continue; // cloud-screened
            }
            // Column dilution: a surface enhancement of X ppm raises the
            // total column by ~X/10 (boundary layer is ~1/10 of the column).
            let site = Site::urban_background(pos);
            let surface = emission.sample(&site, time).co2_ppm;
            let enhancement = (surface - background) / 10.0;
            let sigma = 0.5 + 0.3 * unit(key ^ 0x51);
            let xco2 = background + enhancement + sigma * gauss(key ^ 0x60, 0x5555_AAAA);
            out.push(Sounding {
                position: pos,
                time,
                xco2_ppm: xco2,
                sigma_ppm: sigma,
            });
        }
        out
    }

    /// All soundings over a period: the concatenation of every overpass.
    pub fn collect(
        &self,
        emission: &EmissionModel,
        city: LatLon,
        from: Timestamp,
        to: Timestamp,
    ) -> Vec<Sounding> {
        self.overpasses(city, from, to)
            .into_iter()
            .flat_map(|t| self.overpass_soundings(emission, city, t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn overpass_cadence_matches_repeat_cycle() {
        let sat = Oco2::default();
        let from = Timestamp::from_civil(2017, 1, 1, 0, 0, 0);
        let to = from + Span::days(64);
        let passes = sat.overpasses(TRONDHEIM, from, to);
        assert_eq!(passes.len(), 4, "64 days / 16-day cycle");
        for w in passes.windows(2) {
            assert_eq!(w[1] - w[0], Span::days(16));
        }
    }

    #[test]
    fn overpass_is_early_afternoon_local() {
        let sat = Oco2::default();
        let from = Timestamp::from_civil(2017, 1, 1, 0, 0, 0);
        let passes = sat.overpasses(TRONDHEIM, from, from + Span::days(20));
        let local_hour = passes[0].hour_of_day_f64() + TRONDHEIM.lon_deg / 15.0;
        assert!((local_hour - 13.5).abs() < 0.1, "local hour {local_hour}");
    }

    #[test]
    fn soundings_are_sparse_and_coarse() {
        let sat = Oco2::default();
        let em = emission();
        let from = Timestamp::from_civil(2017, 6, 1, 0, 0, 0);
        let passes = sat.overpasses(TRONDHEIM, from, from + Span::days(40));
        let s = sat.overpass_soundings(&em, TRONDHEIM, passes[0]);
        let full_swath = (2.0 * sat.swath_half_m / sat.footprint_m) as usize;
        assert!(s.len() < full_swath, "cloud screening must drop some");
        // Footprints are at least footprint_m apart.
        for w in s.windows(2) {
            assert!(w[0].position.distance_m(w[1].position) >= sat.footprint_m * 0.99);
        }
    }

    #[test]
    fn xco2_near_background_with_small_enhancement() {
        let sat = Oco2 {
            cloud_loss: 0.0,
            ..Oco2::default()
        };
        let em = emission();
        let t = Timestamp::from_civil(2017, 6, 17, 12, 30, 0);
        let s = sat.overpass_soundings(&em, TRONDHEIM, t);
        let bg = co2_background_ppm(t);
        for snd in &s {
            assert!(
                (snd.xco2_ppm - bg).abs() < 8.0,
                "XCO2 {} far from background {bg}",
                snd.xco2_ppm
            );
            assert!(snd.sigma_ppm > 0.0 && snd.sigma_ppm < 1.5);
        }
    }

    #[test]
    fn deterministic() {
        let sat = Oco2::default();
        let em = emission();
        let t = Timestamp::from_civil(2017, 6, 17, 12, 30, 0);
        assert_eq!(
            sat.overpass_soundings(&em, TRONDHEIM, t),
            sat.overpass_soundings(&em, TRONDHEIM, t)
        );
    }

    #[test]
    fn collect_spans_multiple_overpasses() {
        let sat = Oco2::default();
        let em = emission();
        let from = Timestamp::from_civil(2017, 5, 1, 0, 0, 0);
        let all = sat.collect(&em, TRONDHEIM, from, from + Span::days(48));
        let times: std::collections::BTreeSet<i64> =
            all.iter().map(|s| s.time.as_seconds()).collect();
        assert!(times.len() >= 2, "expected ≥2 distinct overpasses");
    }
}
