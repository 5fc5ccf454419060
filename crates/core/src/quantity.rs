//! The physical quantities measured by the CTT system.
//!
//! The paper's sensor nodes "measure emissions and air parameters: CO2, NO2,
//! PMx (particulate matter); temperature, pressure, and humidity" (§2.1),
//! plus the battery level that the network monitoring and Fig. 4 rely on.

use crate::units::Unit;
use std::fmt;

/// Gaseous and particulate pollutants measured by the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pollutant {
    /// Carbon dioxide (greenhouse gas; the project's headline target).
    Co2,
    /// Nitrogen dioxide (traffic-related air pollutant).
    No2,
    /// Fine particulate matter with diameter ≤ 2.5 µm.
    Pm25,
    /// Particulate matter with diameter ≤ 10 µm.
    Pm10,
}

impl Pollutant {
    /// All pollutants, in canonical order.
    pub const ALL: [Pollutant; 4] = [
        Pollutant::Co2,
        Pollutant::No2,
        Pollutant::Pm25,
        Pollutant::Pm10,
    ];

    /// The unit the CTT sensors natively report.
    pub fn native_unit(self) -> Unit {
        match self {
            Pollutant::Co2 => Unit::Ppm,
            Pollutant::No2 => Unit::Ppb,
            Pollutant::Pm25 | Pollutant::Pm10 => Unit::MicrogramPerM3,
        }
    }

    /// Short ASCII code used in metric names and CSV headers.
    pub fn code(self) -> &'static str {
        match self {
            Pollutant::Co2 => "co2",
            Pollutant::No2 => "no2",
            Pollutant::Pm25 => "pm25",
            Pollutant::Pm10 => "pm10",
        }
    }

    /// Human-readable name with subscripts.
    pub fn display_name(self) -> &'static str {
        match self {
            Pollutant::Co2 => "CO₂",
            Pollutant::No2 => "NO₂",
            Pollutant::Pm25 => "PM2.5",
            Pollutant::Pm10 => "PM10",
        }
    }
}

impl fmt::Display for Pollutant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.display_name())
    }
}

/// Every quantity a CTT sensor node reports in an uplink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Quantity {
    /// A pollutant concentration.
    Pollutant(Pollutant),
    /// Air temperature.
    Temperature,
    /// Barometric pressure.
    Pressure,
    /// Relative humidity.
    Humidity,
    /// Node battery level.
    Battery,
}

impl Quantity {
    /// All quantities in uplink payload order.
    pub const ALL: [Quantity; 8] = [
        Quantity::Pollutant(Pollutant::Co2),
        Quantity::Pollutant(Pollutant::No2),
        Quantity::Pollutant(Pollutant::Pm25),
        Quantity::Pollutant(Pollutant::Pm10),
        Quantity::Temperature,
        Quantity::Pressure,
        Quantity::Humidity,
        Quantity::Battery,
    ];

    /// Unit the quantity is reported in.
    pub fn unit(self) -> Unit {
        match self {
            Quantity::Pollutant(p) => p.native_unit(),
            Quantity::Temperature => Unit::Celsius,
            Quantity::Pressure => Unit::HectoPascal,
            Quantity::Humidity => Unit::Percent,
            Quantity::Battery => Unit::BatteryPercent,
        }
    }

    /// Short ASCII code used in metric names (`ctt.air.co2`, `ctt.node.battery`).
    pub fn code(self) -> &'static str {
        match self {
            Quantity::Pollutant(p) => p.code(),
            Quantity::Temperature => "temperature",
            Quantity::Pressure => "pressure",
            Quantity::Humidity => "humidity",
            Quantity::Battery => "battery",
        }
    }

    /// OpenTSDB-style metric name for this quantity.
    pub fn metric_name(self) -> String {
        match self {
            Quantity::Pollutant(_) => format!("ctt.air.{}", self.code()),
            Quantity::Battery => "ctt.node.battery".to_string(),
            _ => format!("ctt.weather.{}", self.code()),
        }
    }

    /// Plausible physical range `(min, max)` used for validation.
    pub fn plausible_range(self) -> (f64, f64) {
        match self {
            Quantity::Pollutant(Pollutant::Co2) => (300.0, 10_000.0),
            Quantity::Pollutant(Pollutant::No2) => (0.0, 1_000.0),
            Quantity::Pollutant(Pollutant::Pm25) => (0.0, 1_000.0),
            Quantity::Pollutant(Pollutant::Pm10) => (0.0, 2_000.0),
            Quantity::Temperature => (-60.0, 60.0),
            Quantity::Pressure => (850.0, 1100.0),
            Quantity::Humidity => (0.0, 100.0),
            Quantity::Battery => (0.0, 100.0),
        }
    }

    /// True if `value` is physically plausible for this quantity.
    pub fn is_plausible(self, value: f64) -> bool {
        let (lo, hi) = self.plausible_range();
        value.is_finite() && value >= lo && value <= hi
    }
}

impl fmt::Display for Quantity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Quantity::Pollutant(p) => write!(f, "{p}"),
            Quantity::Temperature => f.write_str("Temperature"),
            Quantity::Pressure => f.write_str("Pressure"),
            Quantity::Humidity => f.write_str("Humidity"),
            Quantity::Battery => f.write_str("Battery"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_namespaced() {
        assert_eq!(
            Quantity::Pollutant(Pollutant::Co2).metric_name(),
            "ctt.air.co2"
        );
        assert_eq!(
            Quantity::Temperature.metric_name(),
            "ctt.weather.temperature"
        );
        assert_eq!(Quantity::Battery.metric_name(), "ctt.node.battery");
    }

    #[test]
    fn codes_are_unique() {
        let mut codes: Vec<_> = Quantity::ALL.iter().map(|q| q.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Quantity::ALL.len());
    }

    #[test]
    fn plausibility_bounds() {
        let co2 = Quantity::Pollutant(Pollutant::Co2);
        assert!(co2.is_plausible(410.0));
        assert!(!co2.is_plausible(50.0)); // below pre-industrial background: impossible
        assert!(!co2.is_plausible(f64::NAN));
        assert!(!co2.is_plausible(f64::INFINITY));
        assert!(Quantity::Humidity.is_plausible(0.0));
        assert!(Quantity::Humidity.is_plausible(100.0));
        assert!(!Quantity::Humidity.is_plausible(100.1));
    }

    #[test]
    fn display_names() {
        assert_eq!(Pollutant::Co2.to_string(), "CO₂");
        assert_eq!(Quantity::Pollutant(Pollutant::Pm25).to_string(), "PM2.5");
        assert_eq!(Quantity::Battery.to_string(), "Battery");
    }

    #[test]
    fn payload_order_is_stable() {
        // The binary payload codec relies on this exact order; changing it is
        // a wire-format break.
        assert_eq!(Quantity::ALL[0], Quantity::Pollutant(Pollutant::Co2));
        assert_eq!(Quantity::ALL[7], Quantity::Battery);
    }
}
