//! Measurement records flowing through the pipeline.
//!
//! A [`SensorReading`] is one complete uplink from a node: all eight
//! quantities sampled at the same instant. A [`Series`] is one quantity's
//! time-ordered points, the exchange format between the time-series
//! database and analytics.

use crate::ids::DevEui;
use crate::quantity::{Pollutant, Quantity};
use crate::time::Timestamp;

/// One full multi-quantity reading from a node (payload of one uplink).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorReading {
    /// Originating device.
    pub device: DevEui,
    /// Observation time (UTC).
    pub time: Timestamp,
    /// CO2 in ppm.
    pub co2_ppm: f64,
    /// NO2 in ppb.
    pub no2_ppb: f64,
    /// PM2.5 in µg/m³.
    pub pm25_ug_m3: f64,
    /// PM10 in µg/m³.
    pub pm10_ug_m3: f64,
    /// Temperature in °C.
    pub temperature_c: f64,
    /// Pressure in hPa.
    pub pressure_hpa: f64,
    /// Relative humidity in %.
    pub humidity_pct: f64,
    /// Battery level in % of capacity.
    pub battery_pct: f64,
}

impl SensorReading {
    /// Value of a given quantity.
    pub fn value(&self, q: Quantity) -> f64 {
        match q {
            Quantity::Pollutant(Pollutant::Co2) => self.co2_ppm,
            Quantity::Pollutant(Pollutant::No2) => self.no2_ppb,
            Quantity::Pollutant(Pollutant::Pm25) => self.pm25_ug_m3,
            Quantity::Pollutant(Pollutant::Pm10) => self.pm10_ug_m3,
            Quantity::Temperature => self.temperature_c,
            Quantity::Pressure => self.pressure_hpa,
            Quantity::Humidity => self.humidity_pct,
            Quantity::Battery => self.battery_pct,
        }
    }

    /// True if every quantity is plausible.
    pub fn is_plausible(&self) -> bool {
        Quantity::ALL.iter().all(|&q| q.is_plausible(self.value(q)))
    }

    /// A neutral reading with background values, useful as a test fixture.
    pub fn background(device: DevEui, time: Timestamp) -> Self {
        SensorReading {
            device,
            time,
            co2_ppm: 405.0,
            no2_ppb: 8.0,
            pm25_ug_m3: 6.0,
            pm10_ug_m3: 12.0,
            temperature_c: 10.0,
            pressure_hpa: 1013.0,
            humidity_pct: 70.0,
            battery_pct: 90.0,
        }
    }
}

/// A time-ordered series of `(time, value)` points for one device+quantity.
///
/// This is the exchange format between the TSDB query layer and analytics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Series {
    /// Data points, ascending in time.
    pub points: Vec<(Timestamp, f64)>,
}

impl Series {
    /// Empty series.
    pub fn new() -> Self {
        Series::default()
    }

    /// From raw points; sorts by time.
    pub fn from_points(mut points: Vec<(Timestamp, f64)>) -> Self {
        points.sort_by_key(|(t, _)| *t);
        Series { points }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Push a point; must be at or after the last time (panics otherwise —
    /// out-of-order appends indicate a pipeline bug).
    pub fn push(&mut self, t: Timestamp, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "out-of-order append: {t} < {last}");
        }
        self.points.push((t, v));
    }

    /// Values only.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|&(_, v)| v)
    }

    /// Times only.
    pub fn times(&self) -> impl Iterator<Item = Timestamp> + '_ {
        self.points.iter().map(|&(t, _)| t)
    }

    /// First and last timestamps, if any.
    pub fn time_span(&self) -> Option<(Timestamp, Timestamp)> {
        Some((self.points.first()?.0, self.points.last()?.0))
    }
}

impl FromIterator<(Timestamp, f64)> for Series {
    fn from_iter<I: IntoIterator<Item = (Timestamp, f64)>>(iter: I) -> Self {
        Series::from_points(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Span;

    fn reading() -> SensorReading {
        SensorReading::background(DevEui::ctt(1), Timestamp::from_civil(2017, 5, 1, 12, 0, 0))
    }

    #[test]
    fn background_reading_is_plausible() {
        assert!(reading().is_plausible());
        let mut bad = reading();
        bad.co2_ppm = -5.0;
        assert!(!bad.is_plausible());
    }

    #[test]
    fn series_from_points_sorts() {
        let t0 = Timestamp(100);
        let s = Series::from_points(vec![
            (Timestamp(300), 3.0),
            (t0, 1.0),
            (Timestamp(200), 2.0),
        ]);
        let times: Vec<_> = s.times().collect();
        assert_eq!(times, vec![Timestamp(100), Timestamp(200), Timestamp(300)]);
        assert_eq!(s.time_span(), Some((Timestamp(100), Timestamp(300))));
    }

    #[test]
    #[should_panic(expected = "out-of-order append")]
    fn series_push_rejects_out_of_order() {
        let mut s = Series::new();
        s.push(Timestamp(100), 1.0);
        s.push(Timestamp(50), 2.0);
    }

    #[test]
    fn series_push_accepts_equal_times() {
        let mut s = Series::new();
        s.push(Timestamp(100), 1.0);
        s.push(Timestamp(100), 2.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn series_collect_and_iterators() {
        let start = Timestamp::from_civil(2017, 1, 1, 0, 0, 0);
        let s: Series = (0..5)
            .map(|i| (start + Span::minutes(5 * i), i as f64))
            .collect();
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        let sum: f64 = s.values().sum();
        assert_eq!(sum, 10.0);
        assert!(Series::new().time_span().is_none());
    }
}
