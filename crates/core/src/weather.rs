//! Synthetic weather model.
//!
//! Weather enters the pipeline in three places: it modulates solar charging
//! (cloud cover), it is co-measured by the nodes (temperature, pressure,
//! humidity), and the paper names "wind speed, temperature, humidity and
//! other weather conditions" as confounders of CO2 dynamics (§2.4, Fig. 5).
//!
//! The model is *stateless and random-access*: any timestamp can be sampled
//! in O(1) with deterministic results for a given seed, which lets nodes,
//! reference stations, and analytics query consistent weather without a
//! shared stepping simulation. Smooth stochastic structure comes from
//! seeded value-noise (hash → interpolate) at several octaves, layered on
//! deterministic diurnal and seasonal cycles.

use crate::geo::LatLon;
use crate::rng::value_noise;
use crate::solar;
use crate::time::{Timestamp, DAY};

/// Climate parameters for a pilot city.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Climate {
    /// Annual mean temperature, °C.
    pub mean_temp_c: f64,
    /// Half the summer–winter swing of the daily mean, °C.
    pub seasonal_amplitude_c: f64,
    /// Half the day–night swing, °C.
    pub diurnal_amplitude_c: f64,
    /// Mean sea-level pressure, hPa.
    pub mean_pressure_hpa: f64,
    /// Mean relative humidity, %.
    pub mean_humidity_pct: f64,
    /// Mean cloud cover fraction, 0..1 (Nordic coasts are cloudy).
    pub mean_cloud: f64,
    /// Mean wind speed, m/s.
    pub mean_wind_ms: f64,
}

impl Climate {
    /// Trondheim, Norway (63.4°N, maritime subarctic).
    pub fn trondheim() -> Self {
        Climate {
            mean_temp_c: 5.5,
            seasonal_amplitude_c: 9.0,
            diurnal_amplitude_c: 3.5,
            mean_pressure_hpa: 1010.0,
            mean_humidity_pct: 78.0,
            mean_cloud: 0.62,
            mean_wind_ms: 3.8,
        }
    }

    /// Vejle, Denmark (55.7°N, temperate oceanic).
    pub fn vejle() -> Self {
        Climate {
            mean_temp_c: 8.5,
            seasonal_amplitude_c: 8.0,
            diurnal_amplitude_c: 4.0,
            mean_pressure_hpa: 1012.0,
            mean_humidity_pct: 80.0,
            mean_cloud: 0.58,
            mean_wind_ms: 4.5,
        }
    }
}

/// A complete weather sample at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeatherSample {
    /// Air temperature, °C.
    pub temperature_c: f64,
    /// Sea-level pressure, hPa.
    pub pressure_hpa: f64,
    /// Relative humidity, %.
    pub humidity_pct: f64,
    /// Cloud cover fraction, 0..1.
    pub cloud_cover: f64,
    /// Wind speed, m/s.
    pub wind_ms: f64,
    /// Wind direction, degrees from north.
    pub wind_dir_deg: f64,
}

impl WeatherSample {
    /// Sky transmissivity factor for solar harvesting, 0..1.
    pub fn sky_factor(&self) -> f64 {
        // Fully overcast skies still pass ~15% diffuse light.
        1.0 - 0.85 * self.cloud_cover
    }
}

/// Multi-octave noise in roughly [-1, 1].
fn fbm(seed: u64, channel: u64, t: i64, base_period_s: i64, octaves: u32) -> f64 {
    let mut sum = 0.0;
    let mut amp = 0.5;
    let mut period = base_period_s;
    let mut total = 0.0;
    for o in 0..octaves {
        sum += amp * value_noise(seed, channel * 31 + u64::from(o), t, period.max(1));
        total += amp;
        amp *= 0.5;
        period /= 3;
    }
    sum / total
}

/// The synthetic weather generator for one site.
#[derive(Debug, Clone, Copy)]
pub struct WeatherModel {
    seed: u64,
    climate: Climate,
    position: LatLon,
}

// Channel ids for the noise fields.
const CH_TEMP: u64 = 1;
const CH_PRESSURE: u64 = 2;
const CH_HUMIDITY: u64 = 3;
const CH_CLOUD: u64 = 4;
const CH_WIND: u64 = 5;
const CH_WIND_DIR: u64 = 6;

impl WeatherModel {
    /// Create a model for `position` with the given `climate` and `seed`.
    pub fn new(seed: u64, climate: Climate, position: LatLon) -> Self {
        WeatherModel {
            seed,
            climate,
            position,
        }
    }

    /// The site position.
    pub fn position(&self) -> LatLon {
        self.position
    }

    /// Sample the weather at `ts`. Deterministic in `(seed, ts)`.
    pub fn sample(&self, ts: Timestamp) -> WeatherSample {
        let c = &self.climate;
        let t = ts.0;
        let doy = f64::from(ts.day_of_year());
        // Seasonal cycle peaking ~July 20 (day 201) in the northern hemisphere.
        let season = (2.0 * std::f64::consts::PI * (doy - 201.0 + 91.25) / 365.25).sin();
        // Diurnal cycle peaking mid-afternoon local solar time.
        let solar_hour = ts.seconds_of_day() as f64 / 3600.0 + self.position.lon_deg / 15.0;
        let diurnal = (2.0 * std::f64::consts::PI * (solar_hour - 9.0) / 24.0).sin();
        // Cloud cover: persistent synoptic noise (period ~1.5 days).
        let cloud_noise = fbm(self.seed, CH_CLOUD, t, (1.5 * DAY as f64) as i64, 3);
        let cloud_cover = (c.mean_cloud + 0.45 * cloud_noise).clamp(0.0, 1.0);
        // Clouds damp the diurnal swing.
        let diurnal_damp = 1.0 - 0.6 * cloud_cover;
        let temp_noise = fbm(self.seed, CH_TEMP, t, 2 * DAY, 4);
        let temperature_c = c.mean_temp_c
            + c.seasonal_amplitude_c * season
            + c.diurnal_amplitude_c * diurnal * diurnal_damp
            + 4.0 * temp_noise;
        // Pressure: slow synoptic systems, ±25 hPa.
        let pressure_hpa = c.mean_pressure_hpa + 18.0 * fbm(self.seed, CH_PRESSURE, t, 4 * DAY, 3);
        // Humidity: anti-correlated with diurnal temperature, plus noise.
        let humidity_pct = (c.mean_humidity_pct - 10.0 * diurnal * diurnal_damp
            + 12.0 * fbm(self.seed, CH_HUMIDITY, t, DAY, 3))
        .clamp(5.0, 100.0);
        // Wind: gusty noise around the climate mean, never negative.
        let wind_ms =
            (c.mean_wind_ms * (1.0 + 0.8 * fbm(self.seed, CH_WIND, t, DAY / 2, 4))).max(0.0);
        let wind_dir_deg =
            (200.0 + 120.0 * fbm(self.seed, CH_WIND_DIR, t, 2 * DAY, 2)).rem_euclid(360.0);
        WeatherSample {
            temperature_c,
            pressure_hpa,
            humidity_pct,
            cloud_cover,
            wind_ms,
            wind_dir_deg,
        }
    }

    /// Solar irradiance at `ts` after cloud attenuation, W/m².
    pub fn irradiance_w_m2(&self, ts: Timestamp) -> f64 {
        let clear = solar::clear_sky_irradiance_w_m2(self.position, ts);
        clear * self.sample(ts).sky_factor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Span;

    const TRONDHEIM: LatLon = LatLon::new(63.4305, 10.3951);

    fn model() -> WeatherModel {
        WeatherModel::new(42, Climate::trondheim(), TRONDHEIM)
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = model().sample(Timestamp::from_civil(2017, 5, 3, 14, 0, 0));
        let b = model().sample(Timestamp::from_civil(2017, 5, 3, 14, 0, 0));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let t = Timestamp::from_civil(2017, 5, 3, 14, 0, 0);
        let a = WeatherModel::new(1, Climate::trondheim(), TRONDHEIM).sample(t);
        let b = WeatherModel::new(2, Climate::trondheim(), TRONDHEIM).sample(t);
        assert_ne!(a, b);
    }

    #[test]
    fn summer_warmer_than_winter() {
        let m = model();
        let avg = |month: u8| {
            let start = Timestamp::from_civil(2017, month, 1, 0, 0, 0);
            (0..28 * 4)
                .map(|i| m.sample(start + Span::hours(6 * i)).temperature_c)
                .sum::<f64>()
                / (28.0 * 4.0)
        };
        let july = avg(7);
        let january = avg(1);
        assert!(
            july > january + 8.0,
            "July {july:.1}°C should be much warmer than January {january:.1}°C"
        );
    }

    #[test]
    fn afternoon_warmer_than_night_on_average() {
        let m = model();
        let mut noon_sum = 0.0;
        let mut night_sum = 0.0;
        for d in 0..30 {
            let day = Timestamp::from_civil(2017, 6, 1, 0, 0, 0) + Span::days(d);
            noon_sum += m.sample(day + Span::hours(13)).temperature_c;
            night_sum += m.sample(day + Span::hours(2)).temperature_c;
        }
        assert!(
            noon_sum > night_sum,
            "afternoons should be warmer on average"
        );
    }

    #[test]
    fn all_fields_in_physical_ranges() {
        let m = model();
        let start = Timestamp::from_civil(2017, 1, 1, 0, 0, 0);
        for i in 0..2000 {
            let s = m.sample(start + Span::hours(7 * i));
            assert!(
                (-40.0..=40.0).contains(&s.temperature_c),
                "temp {}",
                s.temperature_c
            );
            assert!(
                (950.0..=1070.0).contains(&s.pressure_hpa),
                "pressure {}",
                s.pressure_hpa
            );
            assert!((0.0..=100.0).contains(&s.humidity_pct));
            assert!((0.0..=1.0).contains(&s.cloud_cover));
            assert!(s.wind_ms >= 0.0 && s.wind_ms < 40.0);
            assert!((0.0..360.0).contains(&s.wind_dir_deg));
        }
    }

    #[test]
    fn sky_factor_bounds() {
        let clear = WeatherSample {
            temperature_c: 10.0,
            pressure_hpa: 1013.0,
            humidity_pct: 70.0,
            cloud_cover: 0.0,
            wind_ms: 3.0,
            wind_dir_deg: 180.0,
        };
        assert_eq!(clear.sky_factor(), 1.0);
        let overcast = WeatherSample {
            cloud_cover: 1.0,
            ..clear
        };
        assert!((overcast.sky_factor() - 0.15).abs() < 1e-9);
    }

    #[test]
    fn irradiance_zero_at_night_and_attenuated_by_day() {
        let m = model();
        let night = Timestamp::from_civil(2017, 1, 10, 1, 0, 0);
        assert_eq!(m.irradiance_w_m2(night), 0.0);
        let noon = Timestamp::from_civil(2017, 6, 21, 11, 0, 0);
        let attenuated = m.irradiance_w_m2(noon);
        let clear = solar::clear_sky_irradiance_w_m2(TRONDHEIM, noon);
        assert!(attenuated > 0.0 && attenuated <= clear);
    }

    #[test]
    fn noise_is_continuous() {
        // Consecutive minutes should never jump absurdly.
        let m = model();
        let start = Timestamp::from_civil(2017, 3, 15, 0, 0, 0);
        let mut prev = m.sample(start);
        for i in 1..(48 * 60) {
            let s = m.sample(start + Span::minutes(i));
            assert!(
                (s.temperature_c - prev.temperature_c).abs() < 0.6,
                "temperature jump at minute {i}"
            );
            assert!((s.pressure_hpa - prev.pressure_hpa).abs() < 1.0);
            prev = s;
        }
    }

    #[test]
    fn climates_differ() {
        let t = Timestamp::from_civil(2017, 1, 15, 12, 0, 0);
        let trd = WeatherModel::new(9, Climate::trondheim(), TRONDHEIM);
        let vejle_pos = LatLon::new(55.7113, 9.5365);
        let vej = WeatherModel::new(9, Climate::vejle(), vejle_pos);
        // Same seed, but different climate normals: on average Vejle winters
        // are milder.
        let mut trd_sum = 0.0;
        let mut vej_sum = 0.0;
        for d in 0..30 {
            trd_sum += trd.sample(t + Span::days(d)).temperature_c;
            vej_sum += vej.sample(t + Span::days(d)).temperature_c;
        }
        assert!(vej_sum > trd_sum);
    }
}
