//! Ground-truth urban emission field.
//!
//! This is the physical "reality" that sensors observe with noise and that
//! the analytics try to recover. It couples the weather and traffic models:
//!
//! * **CO2**: global background (~405 ppm in 2017) + seasonal biospheric
//!   cycle + an urban dome that accumulates under a shallow nocturnal
//!   boundary layer and ventilates with wind + traffic and heating plumes.
//! * **NO2**: dominated by traffic, diluted by wind, worse in cold stagnant
//!   episodes (classic Nordic winter inversions).
//! * **PM2.5/PM10**: traffic (incl. road dust for PM10) + residential wood
//!   burning on cold evenings + regional background.
//!
//! Crucially — this is the mechanism behind the paper's Fig. 5 finding —
//! CO2 at a sensor is *not* a simple function of the jam factor: boundary
//! layer depth, wind, temperature and the biosphere all modulate it, so the
//! CO2 series and the jam-factor series "exhibit different patterns, and
//! have no apparent correlation".

use crate::geo::LatLon;
use crate::time::Timestamp;
use crate::traffic::TrafficModel;
use crate::weather::{WeatherModel, WeatherSample};

/// Description of a measurement site's local environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Site {
    /// Geographic position.
    pub position: LatLon,
    /// Distance to the nearest significant road, metres.
    pub road_distance_m: f64,
    /// Density of residential heating around the site, 0..1.
    pub heating_density: f64,
    /// Urban-ness of the site, 0 (rural edge) .. 1 (dense centre).
    pub urban_density: f64,
}

impl Site {
    /// A typical kerbside urban site.
    pub fn kerbside(position: LatLon) -> Self {
        Site {
            position,
            road_distance_m: 8.0,
            heating_density: 0.5,
            urban_density: 0.8,
        }
    }

    /// An urban background site (courtyard, park edge).
    pub fn urban_background(position: LatLon) -> Self {
        Site {
            position,
            road_distance_m: 120.0,
            heating_density: 0.5,
            urban_density: 0.6,
        }
    }

    /// A suburban residential site.
    pub fn suburban(position: LatLon) -> Self {
        Site {
            position,
            road_distance_m: 60.0,
            heating_density: 0.8,
            urban_density: 0.3,
        }
    }
}

/// True pollutant concentrations at one site and instant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pollution {
    /// CO2 in ppm.
    pub co2_ppm: f64,
    /// NO2 in ppb.
    pub no2_ppb: f64,
    /// PM2.5 in µg/m³.
    pub pm25_ug_m3: f64,
    /// PM10 in µg/m³.
    pub pm10_ug_m3: f64,
}

impl Pollution {
    /// Element-wise addition.
    pub fn add(&self, other: &Pollution) -> Pollution {
        Pollution {
            co2_ppm: self.co2_ppm + other.co2_ppm,
            no2_ppb: self.no2_ppb + other.no2_ppb,
            pm25_ug_m3: self.pm25_ug_m3 + other.pm25_ug_m3,
            pm10_ug_m3: self.pm10_ug_m3 + other.pm10_ug_m3,
        }
    }

    /// Clamp all components to be non-negative (CO2 to its background floor).
    pub fn clamped(&self) -> Pollution {
        Pollution {
            co2_ppm: self.co2_ppm.max(350.0),
            no2_ppb: self.no2_ppb.max(0.0),
            pm25_ug_m3: self.pm25_ug_m3.max(0.0),
            pm10_ug_m3: self.pm10_ug_m3.max(0.0),
        }
    }
}

/// Global CO2 background for a given time (ppm): NOAA-like trend + seasonal
/// cycle (northern-hemisphere drawdown in summer).
pub fn co2_background_ppm(ts: Timestamp) -> f64 {
    let year_frac = ts.0 as f64 / (365.25 * 86_400.0) + 1970.0;
    let trend = 338.0 + 1.8 * (year_frac - 1980.0); // ≈ 405 ppm mid-2017
    let season = -3.0 * (2.0 * std::f64::consts::PI * (year_frac.fract() - 0.37)).cos();
    trend + season
}

/// The emission field for one city.
#[derive(Debug, Clone, Copy)]
pub struct EmissionModel {
    weather: WeatherModel,
    traffic: TrafficModel,
}

impl EmissionModel {
    /// Couple a weather and a traffic model into an emission field.
    pub fn new(weather: WeatherModel, traffic: TrafficModel) -> Self {
        EmissionModel { weather, traffic }
    }

    /// The underlying weather model.
    pub fn weather(&self) -> &WeatherModel {
        &self.weather
    }

    /// The underlying traffic model.
    pub fn traffic(&self) -> &TrafficModel {
        &self.traffic
    }

    /// Ventilation factor in (0, 1]: how efficiently the boundary layer
    /// disperses local emissions. Low at night and in calm cold weather.
    fn ventilation(&self, ts: Timestamp, wx: &WeatherSample) -> f64 {
        // Boundary layer: deep in the afternoon, shallow at night.
        let solar_hour = (ts.seconds_of_day() as f64 / 3600.0
            + self.weather.position().lon_deg / 15.0)
            .rem_euclid(24.0);
        let daytime = (2.0 * std::f64::consts::PI * (solar_hour - 9.0) / 24.0)
            .sin()
            .max(0.0);
        let mixing = 0.25 + 0.75 * daytime;
        // Wind: each m/s of wind increases dilution.
        let wind = 0.3 + 0.7 * (wx.wind_ms / 6.0).min(1.0);
        // Cold stagnation (inversion): suppresses mixing below ~-5 °C.
        let inversion = if wx.temperature_c < -5.0 { 0.55 } else { 1.0 };
        (mixing * wind * inversion).clamp(0.05, 1.0)
    }

    /// Heating demand 0..1, driven by how far the temperature is below 15 °C
    /// with morning/evening peaks.
    fn heating_demand(&self, ts: Timestamp, wx: &WeatherSample) -> f64 {
        let deficit = ((15.0 - wx.temperature_c) / 25.0).clamp(0.0, 1.0);
        let hour = (ts.seconds_of_day() as f64 / 3600.0 + self.weather.position().lon_deg / 15.0)
            .rem_euclid(24.0);
        let evening = (-0.5 * ((hour - 20.0) / 2.5).powi(2)).exp();
        let morning = (-0.5 * ((hour - 7.0) / 2.0).powi(2)).exp();
        deficit * (0.4 + 0.6 * evening.max(morning))
    }

    /// Road proximity attenuation: 1 at the kerb, ~0.15 at 300 m.
    fn road_factor(site: &Site) -> f64 {
        (1.0 / (1.0 + site.road_distance_m / 50.0)).max(0.1)
    }

    /// True pollution at `site` at time `ts`.
    pub fn sample(&self, site: &Site, ts: Timestamp) -> Pollution {
        self.sample_in(site, ts, &self.weather.sample(ts))
    }

    /// True pollution at `site` at time `ts` under `wx`, which must be this
    /// model's weather at `ts` (a node that has already sampled it passes
    /// it down rather than paying for the 19 noise octaves again).
    pub fn sample_in(&self, site: &Site, ts: Timestamp, wx: &WeatherSample) -> Pollution {
        let vent = self.ventilation(ts, wx);
        let traffic = self.traffic.intensity(ts);
        let heating = self.heating_demand(ts, wx);
        let road = Self::road_factor(site);

        // CO2: background + urban dome + local plumes (all ppm).
        let dome = 18.0 * site.urban_density / vent;
        let traffic_co2 = 30.0 * traffic * road / vent;
        let heating_co2 = 22.0 * heating * site.heating_density / vent;
        // Urban vegetation photosynthesis drawdown on summer days.
        let biosphere = if wx.temperature_c > 12.0 {
            -4.0 * (1.0 - site.urban_density)
                * ((ts.seconds_of_day() as f64 / 3600.0 - 6.0) / 12.0 * std::f64::consts::PI)
                    .sin()
                    .max(0.0)
        } else {
            0.0
        };
        let co2_ppm = co2_background_ppm(ts) + dome + traffic_co2 + heating_co2 + biosphere;

        // NO2 (ppb): traffic-dominated, with a small heating share.
        let no2_ppb =
            (2.0 + 55.0 * traffic * road / vent + 6.0 * heating * site.heating_density / vent)
                .min(400.0);

        // PM (µg/m³): regional background + traffic + wood smoke; PM10 adds
        // road dust (studded-tyre season when cold and dry).
        let background_pm = 4.0;
        let wood_smoke = 14.0 * heating * site.heating_density / vent;
        let traffic_pm = 9.0 * traffic * road / vent;
        let road_dust = if wx.temperature_c < 5.0 && wx.humidity_pct < 75.0 {
            12.0 * traffic * road / vent
        } else {
            2.0 * traffic * road / vent
        };
        let pm25_ug_m3 = background_pm + 0.7 * traffic_pm + wood_smoke;
        let pm10_ug_m3 = pm25_ug_m3 + traffic_pm * 0.5 + road_dust;

        Pollution {
            co2_ppm,
            no2_ppb,
            pm25_ug_m3,
            pm10_ug_m3,
        }
        .clamped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Span;
    use crate::traffic::RoadClass;
    use crate::units::Degrees;
    use crate::weather::Climate;

    const TRONDHEIM: LatLon = LatLon::new(63.4305, 10.3951);

    fn model() -> EmissionModel {
        let wx = WeatherModel::new(42, Climate::trondheim(), TRONDHEIM);
        let tr = TrafficModel::new(42, RoadClass::Arterial, Degrees(TRONDHEIM.lon_deg));
        EmissionModel::new(wx, tr)
    }

    #[test]
    fn co2_background_matches_2017() {
        let v = co2_background_ppm(Timestamp::from_civil(2017, 7, 1, 0, 0, 0));
        assert!((395.0..415.0).contains(&v), "background {v}");
        // Rising trend.
        let v2000 = co2_background_ppm(Timestamp::from_civil(2000, 7, 1, 0, 0, 0));
        assert!(v > v2000 + 25.0);
    }

    #[test]
    fn co2_always_above_floor() {
        let m = model();
        let site = Site::urban_background(TRONDHEIM);
        let start = Timestamp::from_civil(2017, 1, 1, 0, 0, 0);
        for i in 0..2000 {
            let p = m.sample(&site, start + Span::hours(5 * i));
            assert!(p.co2_ppm >= 350.0);
            assert!(p.co2_ppm < 900.0, "implausible CO2 {}", p.co2_ppm);
            assert!(p.no2_ppb >= 0.0 && p.no2_ppb <= 400.0);
            assert!(p.pm25_ug_m3 >= 0.0 && p.pm10_ug_m3 >= p.pm25_ug_m3);
        }
    }

    #[test]
    fn kerbside_dirtier_than_background() {
        let m = model();
        let kerb = Site::kerbside(TRONDHEIM);
        let bg = Site::urban_background(TRONDHEIM);
        // Average over a week of rush hours.
        let mut kerb_no2 = 0.0;
        let mut bg_no2 = 0.0;
        for d in 0..5 {
            let t = Timestamp::from_civil(2017, 5, 1, 7, 20, 0) + Span::days(d);
            kerb_no2 += m.sample(&kerb, t).no2_ppb;
            bg_no2 += m.sample(&bg, t).no2_ppb;
        }
        assert!(
            kerb_no2 > 1.5 * bg_no2,
            "kerb {kerb_no2} vs background {bg_no2}"
        );
    }

    #[test]
    fn night_co2_dome_exceeds_afternoon() {
        // Shallow nocturnal boundary layer accumulates CO2.
        let m = model();
        let site = Site::urban_background(TRONDHEIM);
        let mut night = 0.0;
        let mut afternoon = 0.0;
        for d in 0..14 {
            let day = Timestamp::from_civil(2017, 6, 1, 0, 0, 0) + Span::days(d);
            night += m.sample(&site, day + Span::hours(3)).co2_ppm;
            afternoon += m.sample(&site, day + Span::hours(13)).co2_ppm;
        }
        assert!(night > afternoon, "night {night} vs afternoon {afternoon}");
    }

    #[test]
    fn winter_pm_exceeds_summer_pm() {
        // Wood smoke + road dust season.
        let m = model();
        let site = Site::suburban(TRONDHEIM);
        let mut winter = 0.0;
        let mut summer = 0.0;
        for d in 0..14 {
            winter += m
                .sample(
                    &site,
                    Timestamp::from_civil(2017, 1, 5, 20, 0, 0) + Span::days(d),
                )
                .pm25_ug_m3;
            summer += m
                .sample(
                    &site,
                    Timestamp::from_civil(2017, 7, 5, 20, 0, 0) + Span::days(d),
                )
                .pm25_ug_m3;
        }
        assert!(winter > 1.3 * summer, "winter {winter} vs summer {summer}");
    }

    #[test]
    fn no2_tracks_traffic_more_than_co2_does() {
        // The statistical heart of Fig. 5: correlation(NO2, traffic) should
        // clearly exceed correlation(CO2, traffic).
        let m = model();
        let site = Site::kerbside(TRONDHEIM);
        let start = Timestamp::from_civil(2017, 5, 1, 0, 0, 0);
        let mut xs = Vec::new(); // traffic
        let mut no2 = Vec::new();
        let mut co2 = Vec::new();
        for i in 0..(7 * 24 * 4) {
            let t = start + Span::minutes(15 * i);
            xs.push(m.traffic().intensity(t));
            let p = m.sample(&site, t);
            no2.push(p.no2_ppb);
            co2.push(p.co2_ppm);
        }
        let corr = |a: &[f64], b: &[f64]| {
            let n = a.len() as f64;
            let ma = a.iter().sum::<f64>() / n;
            let mb = b.iter().sum::<f64>() / n;
            let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
            let va: f64 = a.iter().map(|x| (x - ma).powi(2)).sum();
            let vb: f64 = b.iter().map(|y| (y - mb).powi(2)).sum();
            cov / (va.sqrt() * vb.sqrt())
        };
        let c_no2 = corr(&xs, &no2);
        let c_co2 = corr(&xs, &co2);
        assert!(c_no2 > 0.6, "NO2-traffic correlation too weak: {c_no2}");
        assert!(c_co2 < c_no2 - 0.2, "CO2 {c_co2} vs NO2 {c_no2}");
    }

    #[test]
    fn sample_in_the_sampled_weather_is_sample_bit_for_bit() {
        let m = model();
        let sites = [
            Site::kerbside(TRONDHEIM),
            Site::urban_background(TRONDHEIM),
            Site::suburban(TRONDHEIM),
        ];
        let start = Timestamp::from_civil(2017, 1, 1, 0, 0, 0);
        // A year at a 37-minute stride: every hour of day, every season.
        for i in 0..(365 * 24 * 60 / 37) {
            let ts = start + Span::minutes(37 * i);
            let wx = m.weather().sample(ts);
            for site in &sites {
                let (a, b) = (m.sample_in(site, ts, &wx), m.sample(site, ts));
                let bits = |p: Pollution| {
                    [p.co2_ppm, p.no2_ppb, p.pm25_ug_m3, p.pm10_ug_m3].map(f64::to_bits)
                };
                assert_eq!(bits(a), bits(b), "{site:?} at {ts:?}");
            }
        }
    }

    #[test]
    fn pollution_add_and_clamp() {
        let a = Pollution {
            co2_ppm: 400.0,
            no2_ppb: 10.0,
            pm25_ug_m3: 5.0,
            pm10_ug_m3: 8.0,
        };
        let b = Pollution {
            co2_ppm: 20.0,
            no2_ppb: -50.0,
            pm25_ug_m3: 1.0,
            pm10_ug_m3: 2.0,
        };
        let sum = a.add(&b).clamped();
        assert_eq!(sum.co2_ppm, 420.0);
        assert_eq!(sum.no2_ppb, 0.0);
        assert_eq!(sum.pm10_ug_m3, 10.0);
    }

    #[test]
    fn site_presets_have_expected_structure() {
        let k = Site::kerbside(TRONDHEIM);
        let b = Site::urban_background(TRONDHEIM);
        let s = Site::suburban(TRONDHEIM);
        assert!(k.road_distance_m < b.road_distance_m);
        assert!(s.heating_density > k.heating_density);
    }
}
