//! Measurement units: the units a value can carry, and newtypes that put
//! the unit in a public signature's type.

use std::fmt;

/// Units a CTT measurement value can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unit {
    /// Parts per million by volume (gases).
    Ppm,
    /// Parts per billion by volume (gases).
    Ppb,
    /// Micrograms per cubic metre (gases at reference conditions, PM always).
    MicrogramPerM3,
    /// Degrees Celsius.
    Celsius,
    /// Hectopascal.
    HectoPascal,
    /// Relative humidity, percent.
    Percent,
    /// Battery level, percent of capacity.
    BatteryPercent,
    /// Dimensionless index (AQI, jam factor).
    Index,
}

impl Unit {
    /// Canonical unit symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            Unit::Ppm => "ppm",
            Unit::Ppb => "ppb",
            Unit::MicrogramPerM3 => "µg/m³",
            Unit::Celsius => "°C",
            Unit::HectoPascal => "hPa",
            Unit::Percent => "%RH",
            Unit::BatteryPercent => "%",
            Unit::Index => "",
        }
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

macro_rules! unit_newtype {
    ($(#[$doc:meta])* $name:ident, $symbol:expr) => {
        $(#[$doc])*
        ///
        /// A transparent `f64` wrapper: construct with the tuple constructor,
        /// read with `.0`. Exists so public signatures state their unit in
        /// the type rather than the parameter name (rule R2 of `ctt-lint`).
        #[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
        pub struct $name(pub f64);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", self.0, $symbol)
            }
        }
    };
}

unit_newtype!(
    /// Gas concentration in parts per million by volume.
    Ppm,
    " ppm"
);
unit_newtype!(
    /// Gas concentration in parts per billion by volume.
    Ppb,
    " ppb"
);
unit_newtype!(
    /// Mass concentration in micrograms per cubic metre.
    UgPerM3,
    " µg/m³"
);
unit_newtype!(
    /// Temperature in degrees Celsius.
    Celsius,
    " °C"
);
unit_newtype!(
    /// Pressure in hectopascal.
    HectoPascal,
    " hPa"
);
unit_newtype!(
    /// RF power or signal strength in dBm.
    Dbm,
    " dBm"
);
unit_newtype!(
    /// Angle in decimal degrees (latitude/longitude components).
    Degrees,
    "°"
);

impl From<Ppm> for Ppb {
    fn from(ppm: Ppm) -> Ppb {
        Ppb(ppm.0 * 1000.0)
    }
}

impl From<Ppb> for Ppm {
    fn from(ppb: Ppb) -> Ppm {
        Ppm(ppb.0 / 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newtype_display_carries_the_symbol() {
        assert_eq!(Ppm(412.5).to_string(), "412.5 ppm");
        assert_eq!(Dbm(-103.0).to_string(), "-103 dBm");
        assert_eq!(Degrees(10.4).to_string(), "10.4°");
    }

    #[test]
    fn unit_symbols() {
        assert_eq!(Unit::Ppm.symbol(), "ppm");
        assert_eq!(Unit::MicrogramPerM3.to_string(), "µg/m³");
        assert_eq!(Unit::Index.symbol(), "");
    }
}
