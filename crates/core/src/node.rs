//! The low-cost sensor node: sampling, error models, energy, scheduling.
//!
//! A node couples the ground-truth [`EmissionModel`] and [`WeatherModel`]
//! with per-sensor error models (noise, bias, drift, glitches), the solar
//! [`Battery`], and the battery-adaptive uplink schedule. It is stepped by
//! the simulation: call [`SensorNode::next_due`] to learn when it wants to
//! transmit and [`SensorNode::step`] at (or after) that time to obtain the
//! reading it uplinks.
//!
//! Low-cost sensors have "relatively lower accuracy" (§1) — the error
//! models here are what the calibration analytics (§2.4) later estimate and
//! remove, and the glitch/drift models are what the outlier and decay
//! detection look for.

use crate::battery::{AdaptivePolicy, Battery, BatteryConfig};
use crate::emission::{EmissionModel, Pollution, Site};
use crate::ids::DevEui;
use crate::measurement::SensorReading;
use crate::quantity::{Pollutant, Quantity};
use crate::rng::SplitMix64;
use crate::time::{Span, Timestamp};

/// Gaussian error model for one sensor channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelError {
    /// Constant additive bias in native units.
    pub bias: f64,
    /// Multiplicative gain error (1.0 = perfect).
    pub gain: f64,
    /// Standard deviation of white noise, native units.
    pub noise_sd: f64,
    /// Additive drift per day of operation, native units (sensor decay).
    pub drift_per_day: f64,
}

impl ChannelError {
    /// A perfect channel (for tests).
    pub fn perfect() -> Self {
        ChannelError {
            bias: 0.0,
            gain: 1.0,
            noise_sd: 0.0,
            drift_per_day: 0.0,
        }
    }
}

/// Error models for all channels of a low-cost unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorSpec {
    /// CO2 channel (NDIR sensors: noticeable bias + drift).
    pub co2: ChannelError,
    /// NO2 channel (electrochemical: noisy, drifts).
    pub no2: ChannelError,
    /// PM2.5 channel (optical).
    pub pm25: ChannelError,
    /// PM10 channel (optical).
    pub pm10: ChannelError,
    /// Temperature channel.
    pub temperature: ChannelError,
    /// Pressure channel.
    pub pressure: ChannelError,
    /// Humidity channel.
    pub humidity: ChannelError,
    /// Probability that any given reading contains a glitch spike.
    pub glitch_prob: f64,
}

impl SensorSpec {
    /// Typical low-cost unit of the CTT class, with per-unit variation drawn
    /// from a stream seeded with `seed` (each physical unit has its own
    /// bias/gain).
    pub fn low_cost(seed: u64) -> Self {
        let rng = &mut SplitMix64::seed_from_u64(seed);
        let vary = |rng: &mut SplitMix64, sd: f64| rng.range_f64(-sd..sd);
        SensorSpec {
            co2: ChannelError {
                bias: 10.0 + vary(rng, 15.0),
                gain: 1.0 + vary(rng, 0.05),
                noise_sd: 6.0,
                drift_per_day: vary(rng, 0.08),
            },
            no2: ChannelError {
                bias: 1.5 + vary(rng, 2.0),
                gain: 1.0 + vary(rng, 0.08),
                noise_sd: 2.5,
                drift_per_day: vary(rng, 0.02),
            },
            pm25: ChannelError {
                bias: vary(rng, 1.5),
                gain: 1.0 + vary(rng, 0.1),
                noise_sd: 1.2,
                drift_per_day: 0.0,
            },
            pm10: ChannelError {
                bias: vary(rng, 2.0),
                gain: 1.0 + vary(rng, 0.1),
                noise_sd: 2.0,
                drift_per_day: 0.0,
            },
            temperature: ChannelError {
                bias: vary(rng, 0.3),
                gain: 1.0,
                noise_sd: 0.1,
                drift_per_day: 0.0,
            },
            pressure: ChannelError {
                bias: vary(rng, 0.5),
                gain: 1.0,
                noise_sd: 0.2,
                drift_per_day: 0.0,
            },
            humidity: ChannelError {
                bias: vary(rng, 2.0),
                gain: 1.0,
                noise_sd: 1.0,
                drift_per_day: 0.0,
            },
            glitch_prob: 0.002,
        }
    }

    /// A perfect unit (reference-grade, used for the NILU-style station).
    pub fn reference_grade() -> Self {
        SensorSpec {
            co2: ChannelError {
                noise_sd: 0.5,
                ..ChannelError::perfect()
            },
            no2: ChannelError {
                noise_sd: 0.3,
                ..ChannelError::perfect()
            },
            pm25: ChannelError {
                noise_sd: 0.3,
                ..ChannelError::perfect()
            },
            pm10: ChannelError {
                noise_sd: 0.5,
                ..ChannelError::perfect()
            },
            temperature: ChannelError::perfect(),
            pressure: ChannelError::perfect(),
            humidity: ChannelError::perfect(),
            glitch_prob: 0.0,
        }
    }

    fn channel(&self, q: Quantity) -> Option<&ChannelError> {
        match q {
            Quantity::Pollutant(Pollutant::Co2) => Some(&self.co2),
            Quantity::Pollutant(Pollutant::No2) => Some(&self.no2),
            Quantity::Pollutant(Pollutant::Pm25) => Some(&self.pm25),
            Quantity::Pollutant(Pollutant::Pm10) => Some(&self.pm10),
            Quantity::Temperature => Some(&self.temperature),
            Quantity::Pressure => Some(&self.pressure),
            Quantity::Humidity => Some(&self.humidity),
            Quantity::Battery => None,
        }
    }
}

/// Health status of a node, settable for fault-injection experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeHealth {
    /// Operating normally.
    #[default]
    Healthy,
    /// Sensor decaying: drift accelerated by the given integer factor.
    Decaying,
    /// Dead: never transmits again (hardware failure).
    Dead,
}

/// A simulated CTT sensor node.
#[derive(Debug, Clone)]
pub struct SensorNode {
    eui: DevEui,
    site: Site,
    spec: SensorSpec,
    battery: Battery,
    policy: AdaptivePolicy,
    rng: SplitMix64,
    installed_at: Timestamp,
    last_step: Timestamp,
    next_uplink: Timestamp,
    health: NodeHealth,
    uplinks_sent: u64,
}

impl SensorNode {
    /// Create a node installed at `installed_at`. First uplink is due
    /// immediately.
    pub fn new(
        eui: DevEui,
        site: Site,
        spec: SensorSpec,
        battery: Battery,
        policy: AdaptivePolicy,
        installed_at: Timestamp,
        seed: u64,
    ) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed ^ eui.0);
        // Real deployments power nodes on at different moments; a random
        // phase offset within the first interval prevents the pathological
        // lockstep where every node transmits simultaneously forever.
        let phase = Span::seconds(rng.range_i64(0..policy.normal.as_seconds().max(1)));
        SensorNode {
            eui,
            site,
            spec,
            battery,
            policy,
            rng,
            installed_at,
            last_step: installed_at,
            next_uplink: installed_at + phase,
            health: NodeHealth::Healthy,
            uplinks_sent: 0,
        }
    }

    /// A node with default battery/policy and per-unit low-cost spec.
    pub fn standard(eui: DevEui, site: Site, installed_at: Timestamp, seed: u64) -> Self {
        SensorNode::new(
            eui,
            site,
            SensorSpec::low_cost(seed ^ eui.0 ^ 0xCAFE),
            Battery::new(BatteryConfig::default(), 95.0),
            AdaptivePolicy::default(),
            installed_at,
            seed,
        )
    }

    /// Device EUI.
    pub fn eui(&self) -> DevEui {
        self.eui
    }

    /// Site description.
    pub fn site(&self) -> &Site {
        &self.site
    }

    /// Battery state.
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// Current health.
    pub fn health(&self) -> NodeHealth {
        self.health
    }

    /// Number of uplinks produced so far.
    pub fn uplinks_sent(&self) -> u64 {
        self.uplinks_sent
    }

    /// Inject a health state (fault injection for dataport experiments).
    pub fn set_health(&mut self, health: NodeHealth) {
        self.health = health;
    }

    /// The sensor error spec.
    pub fn spec(&self) -> &SensorSpec {
        &self.spec
    }

    /// When the node next wants to transmit.
    ///
    /// This is the node's event-(re)scheduling hook: a driving event loop
    /// schedules one transmission event per node at this instant, and after
    /// each [`SensorNode::step`] re-reads it to schedule the next — `step`
    /// is the only mutation, so exactly one event per node is outstanding
    /// and it can never go stale.
    pub fn next_due(&self) -> Timestamp {
        self.next_uplink
    }

    /// Apply the channel error model to a true value.
    fn observe(&mut self, q: Quantity, truth: f64, age_days: f64) -> f64 {
        let Some(ch) = self.spec.channel(q).copied() else {
            return truth;
        };
        let drift_mult = if self.health == NodeHealth::Decaying {
            8.0
        } else {
            1.0
        };
        let mut v = truth * ch.gain
            + ch.bias
            + ch.drift_per_day * drift_mult * age_days
            + ch.noise_sd * self.rng.gauss();
        if self.rng.gen_bool(self.spec.glitch_prob) {
            // A glitch: a large spike or dropout, as real low-cost optical
            // and electrochemical sensors produce.
            v = if self.rng.gen_bool(0.5) {
                v * 3.0 + 50.0
            } else {
                0.0
            };
        }
        v
    }

    /// Advance the node to `now` (≥ `next_due()`), producing the uplinked
    /// reading, or `None` if the node is dead or its battery is critical.
    ///
    /// The battery is integrated over the elapsed interval using the cloud
    /// cover from the emission model's weather; the next uplink time is
    /// scheduled from the adaptive policy.
    pub fn step(&mut self, emission: &EmissionModel, now: Timestamp) -> Option<SensorReading> {
        // lint:allow(panic): the event calendar pops a node no earlier than its next_due()
        assert!(now >= self.next_uplink, "stepped before due time");
        // Idle energy between steps (weather-dependent solar input).
        let wx = emission.weather().sample(now);
        let dt = now - self.last_step;
        self.battery
            .idle_step(self.site.position, self.last_step, dt, wx.sky_factor());
        self.last_step = now;

        if self.health == NodeHealth::Dead {
            // Keep the schedule advancing so a driving simulation does not
            // spin on a dead node, and so a repaired node resumes promptly.
            self.next_uplink = now + self.policy.survival;
            return None;
        }
        if self.battery.is_critical() {
            // Radio brown-out: skip the uplink, try again after the survival
            // interval (the unit may have recharged by then).
            self.next_uplink = now + self.policy.survival;
            return None;
        }

        self.battery.pay_sample();
        let truth: Pollution = emission.sample(&self.site, now);
        let age_days = (now - self.installed_at).as_seconds() as f64 / 86_400.0;
        let reading = SensorReading {
            device: self.eui,
            time: now,
            co2_ppm: self
                .observe(Quantity::Pollutant(Pollutant::Co2), truth.co2_ppm, age_days)
                .max(0.0),
            no2_ppb: self
                .observe(Quantity::Pollutant(Pollutant::No2), truth.no2_ppb, age_days)
                .max(0.0),
            pm25_ug_m3: self
                .observe(
                    Quantity::Pollutant(Pollutant::Pm25),
                    truth.pm25_ug_m3,
                    age_days,
                )
                .max(0.0),
            pm10_ug_m3: self
                .observe(
                    Quantity::Pollutant(Pollutant::Pm10),
                    truth.pm10_ug_m3,
                    age_days,
                )
                .max(0.0),
            temperature_c: self.observe(Quantity::Temperature, wx.temperature_c, age_days),
            pressure_hpa: self.observe(Quantity::Pressure, wx.pressure_hpa, age_days),
            humidity_pct: self
                .observe(Quantity::Humidity, wx.humidity_pct, age_days)
                .clamp(0.0, 100.0),
            battery_pct: self.battery.level_pct(),
        };
        self.battery.pay_uplink();
        self.uplinks_sent += 1;
        self.next_uplink = now + self.policy.interval_at(self.battery.level_pct());
        Some(reading)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::LatLon;
    use crate::traffic::{RoadClass, TrafficModel};
    use crate::units::Degrees;
    use crate::weather::{Climate, WeatherModel};

    const TRONDHEIM: LatLon = LatLon::new(63.4305, 10.3951);

    fn emission() -> EmissionModel {
        EmissionModel::new(
            WeatherModel::new(42, Climate::trondheim(), TRONDHEIM),
            TrafficModel::new(42, RoadClass::Arterial, Degrees(TRONDHEIM.lon_deg)),
        )
    }

    fn node(seed: u64) -> SensorNode {
        SensorNode::standard(
            DevEui::ctt(1),
            Site::urban_background(TRONDHEIM),
            Timestamp::from_civil(2017, 6, 1, 0, 0, 0),
            seed,
        )
    }

    #[test]
    fn first_uplink_within_first_interval() {
        let n = node(1);
        let install = Timestamp::from_civil(2017, 6, 1, 0, 0, 0);
        assert!(n.next_due() >= install);
        assert!(n.next_due() < install + Span::minutes(5));
    }

    #[test]
    fn step_produces_reading_and_advances_schedule() {
        let em = emission();
        let mut n = node(1);
        let t0 = n.next_due();
        let r = n.step(&em, t0).expect("healthy node must report");
        assert_eq!(r.device, n.eui());
        assert_eq!(r.time, t0);
        assert!(r.is_plausible(), "implausible reading {r:?}");
        assert_eq!(n.next_due(), t0 + Span::minutes(5));
        // Distinct nodes start phase-shifted.
        let other = SensorNode::standard(
            DevEui::ctt(2),
            Site::urban_background(TRONDHEIM),
            Timestamp::from_civil(2017, 6, 1, 0, 0, 0),
            1,
        );
        let _ = other;
        assert_eq!(n.uplinks_sent(), 1);
    }

    #[test]
    fn deterministic_across_identical_nodes() {
        let em = emission();
        let mut a = node(9);
        let mut b = node(9);
        let t = a.next_due();
        assert_eq!(a.step(&em, t), b.step(&em, t));
    }

    #[test]
    fn different_units_have_different_biases() {
        let s1 = SensorSpec::low_cost(1);
        let s2 = SensorSpec::low_cost(2);
        assert_ne!(s1.co2.bias, s2.co2.bias);
    }

    #[test]
    fn dead_node_stops_reporting() {
        let em = emission();
        let mut n = node(1);
        let t0 = n.next_due();
        n.step(&em, t0);
        n.set_health(NodeHealth::Dead);
        assert_eq!(n.step(&em, n.next_due()), None);
        assert_eq!(n.uplinks_sent(), 1);
    }

    #[test]
    fn decaying_node_drifts_fast() {
        let em = emission();
        // Use a noise-free spec to isolate drift.
        let mut spec = SensorSpec::reference_grade();
        spec.co2.drift_per_day = 1.0;
        let t0 = Timestamp::from_civil(2017, 6, 1, 12, 0, 0);
        let mk = |health| {
            let mut n = SensorNode::new(
                DevEui::ctt(2),
                Site::urban_background(TRONDHEIM),
                spec,
                Battery::new(BatteryConfig::default(), 95.0),
                AdaptivePolicy::default(),
                t0,
                5,
            );
            n.set_health(health);
            // Step 10 days in.
            let due = t0 + Span::days(10);
            n.step(&em, n.next_due());
            while n.next_due() < due {
                let t = n.next_due();
                n.step(&em, t);
            }
            n.step(&em, n.next_due()).unwrap().co2_ppm
        };
        let healthy = mk(NodeHealth::Healthy);
        let decaying = mk(NodeHealth::Decaying);
        assert!(
            decaying > healthy + 30.0,
            "decaying {decaying} vs healthy {healthy}"
        );
    }

    #[test]
    fn reference_grade_tracks_truth_closely() {
        let em = emission();
        let site = Site::urban_background(TRONDHEIM);
        let t0 = Timestamp::from_civil(2017, 6, 15, 12, 0, 0);
        let mut n = SensorNode::new(
            DevEui::ctt(3),
            site,
            SensorSpec::reference_grade(),
            Battery::new(BatteryConfig::default(), 95.0),
            AdaptivePolicy::default(),
            t0,
            5,
        );
        let due = n.next_due();
        let r = n.step(&em, due).unwrap();
        let truth = em.sample(&site, due);
        assert!((r.co2_ppm - truth.co2_ppm).abs() < 3.0);
        assert!((r.no2_ppb - truth.no2_ppb).abs() < 2.0);
    }

    #[test]
    fn battery_declines_through_dark_winter_and_interval_adapts() {
        let em = emission();
        // Start in early December with a modest battery: polar-night
        // Trondheim cannot recharge, so the level falls and the adaptive
        // policy stretches the interval.
        let t0 = Timestamp::from_civil(2017, 12, 1, 0, 0, 0);
        let mut n = SensorNode::new(
            DevEui::ctt(4),
            Site::urban_background(TRONDHEIM),
            SensorSpec::reference_grade(),
            Battery::new(BatteryConfig::default(), 60.0),
            AdaptivePolicy::default(),
            t0,
            5,
        );
        let mut saw_reduced_interval = false;
        let end = t0 + Span::days(21);
        while n.next_due() < end {
            let t = n.next_due();
            n.step(&em, t);
            let interval = n.next_due() - t;
            if interval > Span::minutes(5) {
                saw_reduced_interval = true;
            }
        }
        assert!(
            n.battery().level_pct() < 60.0,
            "battery should deplete in polar winter: {}",
            n.battery().level_pct()
        );
        assert!(saw_reduced_interval, "adaptive policy never kicked in");
    }

    #[test]
    #[should_panic(expected = "stepped before due time")]
    fn step_before_due_panics() {
        let em = emission();
        let mut n = node(1);
        let t0 = n.next_due();
        n.step(&em, t0);
        n.step(&em, t0); // next due is t0+5min
    }

    #[test]
    fn glitches_occur_at_configured_rate() {
        let em = emission();
        let mut n = node(33);
        // Raise glitch rate to measure it quickly.
        n.spec.glitch_prob = 0.2;
        let mut glitchy = 0;
        let mut total = 0;
        for _ in 0..400 {
            let t = n.next_due();
            if let Some(r) = n.step(&em, t) {
                total += 1;
                // Glitches are zero dropouts or huge spikes.
                if r.co2_ppm == 0.0 || r.co2_ppm > 900.0 {
                    glitchy += 1;
                }
            }
        }
        assert!(total > 0);
        let rate = f64::from(glitchy) / f64::from(total);
        // Each reading makes 7 glitch draws (one per channel); CO2-visible
        // glitches alone should appear well above the per-channel rate floor.
        assert!(rate > 0.05, "glitch rate {rate}");
    }
}
