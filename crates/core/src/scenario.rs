//! Synthetic pollution-injection scenarios.
//!
//! The demonstration (§3) "can inject synthetic data showing different
//! pollution levels" to discuss urban-planning questions — construction
//! sites, road closures, factories — with policymakers and citizens. An
//! [`Injection`] adds a localized, time-windowed plume on top of the
//! ground-truth field; a [`ScenarioSet`] composes several and is applied to
//! readings or truth samples.

use crate::emission::Pollution;
use crate::geo::LatLon;
use crate::measurement::SensorReading;
use crate::time::Timestamp;

/// What kind of planning scenario the injection represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// A construction site: heavy PM10/PM2.5 dust, diesel NO2/CO2.
    ConstructionSite,
    /// A new factory: steady CO2/NO2 plume.
    Factory,
    /// A road closure: *reduces* traffic pollutants locally (negative plume),
    /// with spillover onto surrounding streets handled by separate positive
    /// injections.
    RoadClosure,
    /// A major event (concert, match): short CO2/PM spike.
    Event,
}

impl ScenarioKind {
    /// Peak plume added at the centre of the injection.
    pub fn peak(self) -> Pollution {
        match self {
            ScenarioKind::ConstructionSite => Pollution {
                co2_ppm: 25.0,
                no2_ppb: 30.0,
                pm25_ug_m3: 35.0,
                pm10_ug_m3: 80.0,
            },
            ScenarioKind::Factory => Pollution {
                co2_ppm: 60.0,
                no2_ppb: 25.0,
                pm25_ug_m3: 10.0,
                pm10_ug_m3: 15.0,
            },
            ScenarioKind::RoadClosure => Pollution {
                co2_ppm: -20.0,
                no2_ppb: -35.0,
                pm25_ug_m3: -5.0,
                pm10_ug_m3: -12.0,
            },
            ScenarioKind::Event => Pollution {
                co2_ppm: 40.0,
                no2_ppb: 10.0,
                pm25_ug_m3: 15.0,
                pm10_ug_m3: 20.0,
            },
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioKind::ConstructionSite => "Construction site",
            ScenarioKind::Factory => "Factory",
            ScenarioKind::RoadClosure => "Road closure",
            ScenarioKind::Event => "Event",
        }
    }
}

/// A localized, time-windowed synthetic pollution plume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Injection {
    /// Scenario type (sets the plume composition).
    pub kind: ScenarioKind,
    /// Plume centre.
    pub center: LatLon,
    /// e-folding radius of the plume, metres.
    pub radius_m: f64,
    /// Start of the active window.
    pub from: Timestamp,
    /// End of the active window (exclusive).
    pub until: Timestamp,
    /// Overall intensity multiplier (1.0 = the kind's nominal peak).
    pub intensity: f64,
}

impl Injection {
    /// The plume contribution at `pos` and `ts` (zero outside the window).
    pub fn contribution(&self, pos: LatLon, ts: Timestamp) -> Pollution {
        if ts < self.from || ts >= self.until {
            return Pollution::default();
        }
        let d = self.center.distance_m(pos);
        let w = (-d / self.radius_m.max(1.0)).exp() * self.intensity;
        let p = self.kind.peak();
        Pollution {
            co2_ppm: p.co2_ppm * w,
            no2_ppb: p.no2_ppb * w,
            pm25_ug_m3: p.pm25_ug_m3 * w,
            pm10_ug_m3: p.pm10_ug_m3 * w,
        }
    }
}

/// A composition of injections forming one planning scenario.
#[derive(Debug, Clone, Default)]
pub struct ScenarioSet {
    injections: Vec<Injection>,
}

impl ScenarioSet {
    /// Empty scenario (reality as-is).
    pub fn new() -> Self {
        ScenarioSet::default()
    }

    /// Add an injection.
    pub fn add(&mut self, inj: Injection) -> &mut Self {
        self.injections.push(inj);
        self
    }

    /// All injections.
    pub fn injections(&self) -> &[Injection] {
        &self.injections
    }

    /// Total synthetic contribution at `pos`, `ts`.
    pub fn contribution(&self, pos: LatLon, ts: Timestamp) -> Pollution {
        self.injections
            .iter()
            .fold(Pollution::default(), |acc, inj| {
                acc.add(&inj.contribution(pos, ts))
            })
    }

    /// Apply the scenario to truth pollution at a position.
    pub fn apply(&self, truth: &Pollution, pos: LatLon, ts: Timestamp) -> Pollution {
        truth.add(&self.contribution(pos, ts)).clamped()
    }

    /// Apply the scenario to an observed reading at a known position
    /// (used to overlay "what-if" data on live dashboards).
    pub fn apply_reading(&self, reading: &SensorReading, pos: LatLon) -> SensorReading {
        let c = self.contribution(pos, reading.time);
        let mut r = *reading;
        r.co2_ppm = (r.co2_ppm + c.co2_ppm).max(0.0);
        r.no2_ppb = (r.no2_ppb + c.no2_ppb).max(0.0);
        r.pm25_ug_m3 = (r.pm25_ug_m3 + c.pm25_ug_m3).max(0.0);
        r.pm10_ug_m3 = (r.pm10_ug_m3 + c.pm10_ug_m3).max(0.0);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::DevEui;
    use crate::time::Span;

    const CENTER: LatLon = LatLon::new(63.43, 10.40);

    fn window() -> (Timestamp, Timestamp) {
        let t0 = Timestamp::from_civil(2017, 6, 1, 0, 0, 0);
        (t0, t0 + Span::days(30))
    }

    fn construction() -> Injection {
        let (from, until) = window();
        Injection {
            kind: ScenarioKind::ConstructionSite,
            center: CENTER,
            radius_m: 200.0,
            from,
            until,
            intensity: 1.0,
        }
    }

    #[test]
    fn contribution_peaks_at_center_and_decays() {
        let inj = construction();
        let (from, _) = window();
        let t = from + Span::hours(1);
        let at_center = inj.contribution(CENTER, t);
        let at_500m = inj.contribution(CENTER.offset(90.0, 500.0), t);
        assert!(at_center.pm10_ug_m3 > 70.0);
        assert!(at_500m.pm10_ug_m3 < at_center.pm10_ug_m3 / 5.0);
    }

    #[test]
    fn contribution_zero_outside_window() {
        let inj = construction();
        let (from, until) = window();
        assert_eq!(
            inj.contribution(CENTER, from - Span::seconds(1)),
            Pollution::default()
        );
        assert_eq!(inj.contribution(CENTER, until), Pollution::default());
    }

    #[test]
    fn road_closure_reduces_pollution() {
        let (from, until) = window();
        let inj = Injection {
            kind: ScenarioKind::RoadClosure,
            center: CENTER,
            radius_m: 150.0,
            from,
            until,
            intensity: 1.0,
        };
        let truth = Pollution {
            co2_ppm: 450.0,
            no2_ppb: 40.0,
            pm25_ug_m3: 12.0,
            pm10_ug_m3: 25.0,
        };
        let mut set = ScenarioSet::new();
        set.add(inj);
        let after = set.apply(&truth, CENTER, from + Span::hours(1));
        assert!(after.no2_ppb < truth.no2_ppb);
        assert!(after.co2_ppm < truth.co2_ppm);
        // Clamping keeps it physical.
        assert!(after.no2_ppb >= 0.0 && after.co2_ppm >= 350.0);
    }

    #[test]
    fn scenario_set_composes() {
        let (from, until) = window();
        let mut set = ScenarioSet::new();
        set.add(construction());
        set.add(Injection {
            kind: ScenarioKind::Factory,
            center: CENTER.offset(0.0, 100.0),
            radius_m: 300.0,
            from,
            until,
            intensity: 0.5,
        });
        assert_eq!(set.injections().len(), 2);
        let t = from + Span::hours(2);
        let both = set.contribution(CENTER, t);
        let single = construction().contribution(CENTER, t);
        assert!(both.co2_ppm > single.co2_ppm);
    }

    #[test]
    fn apply_reading_overlays_plume() {
        let (from, _) = window();
        let mut set = ScenarioSet::new();
        set.add(construction());
        let mut r = SensorReading::background(DevEui::ctt(1), from + Span::hours(1));
        r.pm10_ug_m3 = 10.0;
        let overlaid = set.apply_reading(&r, CENTER);
        assert!(overlaid.pm10_ug_m3 > 70.0);
        // Weather channels untouched.
        assert_eq!(overlaid.temperature_c, r.temperature_c);
        assert_eq!(overlaid.battery_pct, r.battery_pct);
    }

    #[test]
    fn intensity_scales_linearly() {
        let (from, until) = window();
        let mk = |intensity| Injection {
            intensity,
            ..Injection {
                kind: ScenarioKind::Event,
                center: CENTER,
                radius_m: 100.0,
                from,
                until,
                intensity: 1.0,
            }
        };
        let t = from + Span::hours(1);
        let x1 = mk(1.0).contribution(CENTER, t).co2_ppm;
        let x2 = mk(2.0).contribution(CENTER, t).co2_ppm;
        assert!((x2 - 2.0 * x1).abs() < 1e-9);
    }

    #[test]
    fn labels() {
        assert_eq!(ScenarioKind::ConstructionSite.label(), "Construction site");
        assert_eq!(ScenarioKind::RoadClosure.label(), "Road closure");
    }
}
