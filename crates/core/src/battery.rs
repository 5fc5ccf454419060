//! Battery and solar-charging model for autonomous sensor units.
//!
//! The paper (§2.4): "Battery levels depend on the charging of the
//! autonomous sensor units through their solar panels. Charge occurs during
//! daytime, and is affected by weather conditions." This module models a
//! LiPo pack charged by a small panel, drained by idle electronics, sensor
//! sampling, and LoRa transmissions. It produces exactly the signal shapes
//! Fig. 4 analyses: a sawtooth rising in daylight and sagging at night, with
//! the depletion slope steepening in overcast weather and Nordic winters.

use crate::geo::LatLon;
use crate::solar;
use crate::time::{Span, Timestamp};

/// Static electrical parameters of a sensor unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatteryConfig {
    /// Pack capacity in mAh.
    pub capacity_mah: f64,
    /// Nominal pack voltage in volts.
    pub voltage_v: f64,
    /// Solar panel peak power in watts (at 1000 W/m²).
    pub panel_w: f64,
    /// Overall harvest efficiency (MPPT + charge losses), 0..1.
    pub harvest_efficiency: f64,
    /// Continuous idle draw in mA (MCU sleep + sensor standby).
    pub idle_ma: f64,
    /// Charge consumed by one measurement cycle, in mAh.
    pub sample_cost_mah: f64,
    /// Charge consumed by one LoRa uplink, in mAh.
    pub uplink_cost_mah: f64,
}

impl Default for BatteryConfig {
    fn default() -> Self {
        // Sized after the CTT prototype units: a 6.6 Ah pack and a 2 W panel.
        BatteryConfig {
            capacity_mah: 6600.0,
            voltage_v: 3.7,
            panel_w: 2.0,
            harvest_efficiency: 0.75,
            idle_ma: 2.0,
            sample_cost_mah: 0.18,
            uplink_cost_mah: 0.45,
        }
    }
}

/// Mutable battery state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    config: BatteryConfig,
    charge_mah: f64,
}

impl Battery {
    /// A battery at `level_pct` percent of capacity.
    pub fn new(config: BatteryConfig, level_pct: f64) -> Self {
        let level = level_pct.clamp(0.0, 100.0);
        Battery {
            config,
            charge_mah: config.capacity_mah * level / 100.0,
        }
    }

    /// Battery level in percent of capacity.
    pub fn level_pct(&self) -> f64 {
        self.charge_mah / self.config.capacity_mah * 100.0
    }

    /// Remaining charge in mAh.
    pub fn charge_mah(&self) -> f64 {
        self.charge_mah
    }

    /// The static configuration.
    pub fn config(&self) -> &BatteryConfig {
        &self.config
    }

    /// True if the pack is too depleted to operate the radio (< 2%).
    pub fn is_critical(&self) -> bool {
        self.level_pct() < 2.0
    }

    /// Panel charging current in mA at `irradiance_w_m2` scaled by
    /// `sky_factor` (1.0 = clear sky, 0.0 = fully overcast blackout).
    pub fn charge_current_ma(&self, irradiance_w_m2: f64, sky_factor: f64) -> f64 {
        let power_w = self.config.panel_w
            * (irradiance_w_m2 / 1000.0).clamp(0.0, 1.2)
            * sky_factor.clamp(0.0, 1.0);
        power_w * self.config.harvest_efficiency / self.config.voltage_v * 1000.0
    }

    /// Advance the battery over `dt` of idle operation at position `pos`
    /// starting at `now`, with `sky_factor` cloud attenuation. Integrates the
    /// solar input in 5-minute steps; a negative `dt` integrates nothing.
    pub fn idle_step(&mut self, pos: LatLon, now: Timestamp, dt: Span, sky_factor: f64) {
        let step = 300i64;
        let mut t = now.0;
        let end = now.0 + dt.as_seconds();
        while t < end {
            let slice = step.min(end - t) as f64 / 3600.0; // hours
            let irr = solar::clear_sky_irradiance_w_m2(pos, Timestamp(t));
            let in_ma = self.charge_current_ma(irr, sky_factor);
            let delta = (in_ma - self.config.idle_ma) * slice;
            self.charge_mah = (self.charge_mah + delta).clamp(0.0, self.config.capacity_mah);
            t += step;
        }
    }

    /// Deduct the cost of one measurement cycle.
    pub fn pay_sample(&mut self) {
        self.charge_mah = (self.charge_mah - self.config.sample_cost_mah).max(0.0);
    }

    /// Deduct the cost of one LoRa uplink.
    pub fn pay_uplink(&mut self) {
        self.charge_mah = (self.charge_mah - self.config.uplink_cost_mah).max(0.0);
    }
}

/// Adaptive sampling policy: the paper notes nodes "can adapt their
/// frequency based on battery levels". This maps level to uplink interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePolicy {
    /// Interval when battery is healthy.
    pub normal: Span,
    /// Interval when battery is getting low.
    pub reduced: Span,
    /// Interval in survival mode.
    pub survival: Span,
    /// Level above which the normal interval applies (percent).
    pub normal_above_pct: f64,
    /// Level above which the reduced interval applies (percent).
    pub reduced_above_pct: f64,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        // The paper's pilot collected at a 5-minute interval (§3).
        AdaptivePolicy {
            normal: Span::minutes(5),
            reduced: Span::minutes(15),
            survival: Span::minutes(60),
            normal_above_pct: 50.0,
            reduced_above_pct: 20.0,
        }
    }
}

impl AdaptivePolicy {
    /// A fixed-interval policy (no adaptation).
    pub fn fixed(interval: Span) -> Self {
        AdaptivePolicy {
            normal: interval,
            reduced: interval,
            survival: interval,
            normal_above_pct: 0.0,
            reduced_above_pct: 0.0,
        }
    }

    /// The uplink interval at a given battery level.
    pub fn interval_at(&self, level_pct: f64) -> Span {
        if level_pct >= self.normal_above_pct {
            self.normal
        } else if level_pct >= self.reduced_above_pct {
            self.reduced
        } else {
            self.survival
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRONDHEIM: LatLon = LatLon::new(63.4305, 10.3951);

    #[test]
    fn level_accessors() {
        let b = Battery::new(BatteryConfig::default(), 75.0);
        assert!((b.level_pct() - 75.0).abs() < 1e-9);
        assert!((b.charge_mah() - 4950.0).abs() < 1e-6);
        assert!(!b.is_critical());
        assert!(Battery::new(BatteryConfig::default(), 1.0).is_critical());
    }

    #[test]
    fn new_clamps_level() {
        assert_eq!(
            Battery::new(BatteryConfig::default(), 150.0).level_pct(),
            100.0
        );
        assert_eq!(
            Battery::new(BatteryConfig::default(), -5.0).level_pct(),
            0.0
        );
    }

    #[test]
    fn drains_at_night() {
        let mut b = Battery::new(BatteryConfig::default(), 50.0);
        let midnight = Timestamp::from_civil(2017, 1, 10, 0, 0, 0);
        let before = b.level_pct();
        b.idle_step(TRONDHEIM, midnight, Span::hours(4), 1.0);
        assert!(b.level_pct() < before, "no drain at night");
    }

    #[test]
    fn charges_on_clear_summer_day() {
        let mut b = Battery::new(BatteryConfig::default(), 50.0);
        let morning = Timestamp::from_civil(2017, 6, 21, 9, 0, 0);
        let before = b.level_pct();
        b.idle_step(TRONDHEIM, morning, Span::hours(4), 1.0);
        assert!(b.level_pct() > before, "no charge on clear summer day");
    }

    #[test]
    fn overcast_charges_less_than_clear() {
        let morning = Timestamp::from_civil(2017, 6, 21, 9, 0, 0);
        let mut clear = Battery::new(BatteryConfig::default(), 50.0);
        let mut cloudy = Battery::new(BatteryConfig::default(), 50.0);
        clear.idle_step(TRONDHEIM, morning, Span::hours(4), 1.0);
        cloudy.idle_step(TRONDHEIM, morning, Span::hours(4), 0.2);
        assert!(clear.level_pct() > cloudy.level_pct());
    }

    #[test]
    fn winter_day_nets_negative_in_trondheim() {
        // ~4.5 h of weak daylight cannot offset 24 h of idle drain.
        let mut b = Battery::new(BatteryConfig::default(), 80.0);
        let day = Timestamp::from_civil(2017, 12, 21, 0, 0, 0);
        let before = b.level_pct();
        b.idle_step(TRONDHEIM, day, Span::days(1), 0.5);
        assert!(b.level_pct() < before, "winter day should net-drain");
    }

    #[test]
    fn charge_clamps_at_capacity_and_zero() {
        let mut full = Battery::new(BatteryConfig::default(), 100.0);
        let noon = Timestamp::from_civil(2017, 6, 21, 10, 0, 0);
        full.idle_step(TRONDHEIM, noon, Span::hours(3), 1.0);
        assert!(full.level_pct() <= 100.0);
        let cfg = BatteryConfig {
            capacity_mah: 10.0,
            ..BatteryConfig::default()
        };
        let mut tiny = Battery::new(cfg, 5.0);
        tiny.idle_step(
            TRONDHEIM,
            Timestamp::from_civil(2017, 1, 10, 0, 0, 0),
            Span::days(2),
            0.0,
        );
        assert_eq!(tiny.level_pct(), 0.0);
    }

    #[test]
    fn sample_and_uplink_costs() {
        let mut b = Battery::new(BatteryConfig::default(), 50.0);
        let before = b.charge_mah();
        b.pay_sample();
        b.pay_uplink();
        let spent = before - b.charge_mah();
        let cfg = BatteryConfig::default();
        assert!((spent - (cfg.sample_cost_mah + cfg.uplink_cost_mah)).abs() < 1e-9);
    }

    #[test]
    fn adaptive_policy_thresholds() {
        let p = AdaptivePolicy::default();
        assert_eq!(p.interval_at(90.0), Span::minutes(5));
        assert_eq!(p.interval_at(50.0), Span::minutes(5));
        assert_eq!(p.interval_at(49.9), Span::minutes(15));
        assert_eq!(p.interval_at(20.0), Span::minutes(15));
        assert_eq!(p.interval_at(10.0), Span::minutes(60));
    }

    #[test]
    fn fixed_policy_never_adapts() {
        let p = AdaptivePolicy::fixed(Span::minutes(7));
        for level in [0.0, 10.0, 50.0, 100.0] {
            assert_eq!(p.interval_at(level), Span::minutes(7));
        }
    }

    #[test]
    fn charge_current_scales_with_irradiance() {
        let b = Battery::new(BatteryConfig::default(), 50.0);
        assert_eq!(b.charge_current_ma(0.0, 1.0), 0.0);
        let half = b.charge_current_ma(500.0, 1.0);
        let full = b.charge_current_ma(1000.0, 1.0);
        assert!((full / half - 2.0).abs() < 1e-9);
        // Sky factor attenuates linearly.
        assert!((b.charge_current_ma(1000.0, 0.5) - full / 2.0).abs() < 1e-9);
    }
}
