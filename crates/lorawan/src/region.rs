//! EU868 regional parameters: spreading factors, data rates, channels,
//! duty-cycle limits, and receiver sensitivity.
//!
//! The CTT pilots ran on The Things Network in Norway and Denmark, i.e. the
//! EU863-870 band: three mandatory 125 kHz channels, 1% duty cycle in the
//! g1 sub-band, 14 dBm max EIRP, DR0–DR5 (SF12–SF7).

use std::fmt;

/// LoRa spreading factor (chips per symbol = 2^SF).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpreadingFactor {
    /// SF7: fastest, shortest range.
    Sf7,
    /// SF8.
    Sf8,
    /// SF9.
    Sf9,
    /// SF10.
    Sf10,
    /// SF11.
    Sf11,
    /// SF12: slowest, longest range.
    Sf12,
}

impl SpreadingFactor {
    /// All SFs from fastest to slowest.
    pub const ALL: [SpreadingFactor; 6] = [
        SpreadingFactor::Sf7,
        SpreadingFactor::Sf8,
        SpreadingFactor::Sf9,
        SpreadingFactor::Sf10,
        SpreadingFactor::Sf11,
        SpreadingFactor::Sf12,
    ];

    /// The numeric spreading factor (7..=12).
    pub fn value(self) -> u32 {
        match self {
            SpreadingFactor::Sf7 => 7,
            SpreadingFactor::Sf8 => 8,
            SpreadingFactor::Sf9 => 9,
            SpreadingFactor::Sf10 => 10,
            SpreadingFactor::Sf11 => 11,
            SpreadingFactor::Sf12 => 12,
        }
    }

    /// From numeric value.
    pub fn from_value(v: u32) -> Option<Self> {
        Self::ALL.iter().copied().find(|sf| sf.value() == v)
    }

    /// Minimum SNR (dB) required to demodulate this SF (SX1276 datasheet).
    pub fn required_snr_db(self) -> f64 {
        match self {
            SpreadingFactor::Sf7 => -7.5,
            SpreadingFactor::Sf8 => -10.0,
            SpreadingFactor::Sf9 => -12.5,
            SpreadingFactor::Sf10 => -15.0,
            SpreadingFactor::Sf11 => -17.5,
            SpreadingFactor::Sf12 => -20.0,
        }
    }

    /// Gateway receiver sensitivity (dBm) at 125 kHz bandwidth.
    pub fn sensitivity_dbm(self) -> f64 {
        match self {
            SpreadingFactor::Sf7 => -123.0,
            SpreadingFactor::Sf8 => -126.0,
            SpreadingFactor::Sf9 => -129.0,
            SpreadingFactor::Sf10 => -132.0,
            SpreadingFactor::Sf11 => -134.5,
            SpreadingFactor::Sf12 => -137.0,
        }
    }

    /// One step slower (SF7→SF8 ... SF12→SF12).
    pub fn slower(self) -> SpreadingFactor {
        SpreadingFactor::from_value((self.value() + 1).min(12)).unwrap()
    }
}

impl fmt::Display for SpreadingFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SF{}", self.value())
    }
}

/// EU868 uplink data rate (DR0..DR5 for 125 kHz LoRa).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataRate(pub u8);

impl DataRate {
    /// Slowest EU868 LoRa data rate (SF12).
    pub const DR0: DataRate = DataRate(0);
    /// Fastest 125 kHz EU868 LoRa data rate (SF7).
    pub const DR5: DataRate = DataRate(5);

    /// The spreading factor for this data rate.
    pub fn spreading_factor(self) -> SpreadingFactor {
        match self.0 {
            0 => SpreadingFactor::Sf12,
            1 => SpreadingFactor::Sf11,
            2 => SpreadingFactor::Sf10,
            3 => SpreadingFactor::Sf9,
            4 => SpreadingFactor::Sf8,
            _ => SpreadingFactor::Sf7,
        }
    }

    /// Data rate for a spreading factor.
    pub fn from_sf(sf: SpreadingFactor) -> DataRate {
        DataRate(12 - sf.value() as u8)
    }

    /// Maximum application payload (bytes) at this DR (EU868, repeater-safe).
    pub fn max_payload(self) -> usize {
        match self.0 {
            0..=2 => 51,
            3 => 115,
            _ => 222,
        }
    }
}

/// One uplink channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Channel {
    /// Centre frequency in Hz.
    pub frequency_hz: u32,
    /// Index within the region plan.
    pub index: u8,
}

/// EU863-870 regional plan.
#[derive(Debug, Clone)]
pub struct Region {
    /// Uplink channels (the three mandatory EU868 channels).
    pub channels: Vec<Channel>,
    /// Maximum transmit power, dBm EIRP.
    pub max_tx_power_dbm: f64,
    /// Duty cycle limit as a fraction (0.01 = 1%).
    pub duty_cycle: f64,
    /// LoRa bandwidth in Hz.
    pub bandwidth_hz: u32,
}

impl Region {
    /// The EU868 plan used by both pilots.
    pub fn eu868() -> Region {
        Region {
            channels: vec![
                Channel {
                    frequency_hz: 868_100_000,
                    index: 0,
                },
                Channel {
                    frequency_hz: 868_300_000,
                    index: 1,
                },
                Channel {
                    frequency_hz: 868_500_000,
                    index: 2,
                },
            ],
            max_tx_power_dbm: 14.0,
            duty_cycle: 0.01,
            bandwidth_hz: 125_000,
        }
    }

    /// Channel for an index, wrapping (nodes hop pseudo-randomly).
    pub fn channel(&self, index: usize) -> Channel {
        self.channels[index % self.channels.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sf_value_roundtrip() {
        for sf in SpreadingFactor::ALL {
            assert_eq!(SpreadingFactor::from_value(sf.value()), Some(sf));
        }
        assert_eq!(SpreadingFactor::from_value(6), None);
        assert_eq!(SpreadingFactor::from_value(13), None);
    }

    #[test]
    fn slower_sf_more_sensitive() {
        for w in SpreadingFactor::ALL.windows(2) {
            assert!(w[1].sensitivity_dbm() < w[0].sensitivity_dbm());
            assert!(w[1].required_snr_db() < w[0].required_snr_db());
        }
    }

    #[test]
    fn slower_navigation() {
        assert_eq!(SpreadingFactor::Sf7.slower(), SpreadingFactor::Sf8);
        assert_eq!(SpreadingFactor::Sf12.slower(), SpreadingFactor::Sf12);
    }

    #[test]
    fn datarate_sf_mapping() {
        assert_eq!(DataRate::DR0.spreading_factor(), SpreadingFactor::Sf12);
        assert_eq!(DataRate::DR5.spreading_factor(), SpreadingFactor::Sf7);
        for sf in SpreadingFactor::ALL {
            assert_eq!(DataRate::from_sf(sf).spreading_factor(), sf);
        }
    }

    #[test]
    fn max_payload_grows_with_dr() {
        assert_eq!(DataRate(0).max_payload(), 51);
        assert_eq!(DataRate(3).max_payload(), 115);
        assert_eq!(DataRate(5).max_payload(), 222);
    }

    #[test]
    fn eu868_plan() {
        let r = Region::eu868();
        assert_eq!(r.channels.len(), 3);
        assert_eq!(r.duty_cycle, 0.01);
        assert_eq!(r.max_tx_power_dbm, 14.0);
        // Channel wrap-around.
        assert_eq!(r.channel(0).frequency_hz, 868_100_000);
        assert_eq!(r.channel(3).frequency_hz, 868_100_000);
        assert_eq!(r.channel(5).frequency_hz, 868_500_000);
    }

    #[test]
    fn display() {
        assert_eq!(SpreadingFactor::Sf9.to_string(), "SF9");
    }
}
