//! Municipal traffic counts and national GHG statistics.
//!
//! Two Table 1 rows with opposite failure modes: tube counters are
//! accurate but "only available for short periods" (campaigns), while the
//! national GHG inventory covers everything but is an annual, downscaled
//! estimate "often with high uncertainties".

use ctt_core::time::{Span, Timestamp};
use ctt_core::traffic::TrafficModel;

/// A short municipal counting campaign at one site.
#[derive(Debug, Clone, Copy)]
pub struct CountingCampaign {
    /// First day (midnight) of the campaign.
    pub start: Timestamp,
    /// Number of days counted.
    pub days: u16,
}

impl CountingCampaign {
    /// Daily total counts for each campaign day: `(midnight, vehicles)`.
    /// Tube counters are accurate to ~2% (deterministic truncation error
    /// here, to keep it reproducible).
    pub fn daily_counts(&self, model: &TrafficModel) -> Vec<(Timestamp, f64)> {
        (0..self.days)
            .map(|d| {
                let day = self.start.midnight() + Span::days(i64::from(d));
                let count = model.daily_count(day + Span::hours(12));
                (day, (count / 10.0).round() * 10.0) // counter reports in tens
            })
            .collect()
    }

    /// Whether a timestamp falls inside the campaign.
    pub fn covers(&self, t: Timestamp) -> bool {
        let start = self.start.midnight();
        t >= start && t < start + Span::days(i64::from(self.days))
    }
}

/// GHG emission sectors of a national inventory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sector {
    /// Road transport.
    Transport,
    /// Residential/commercial heating.
    Heating,
    /// Industry.
    Industry,
    /// Agriculture.
    Agriculture,
    /// Waste.
    Waste,
}

impl Sector {
    /// All sectors.
    pub const ALL: [Sector; 5] = [
        Sector::Transport,
        Sector::Heating,
        Sector::Industry,
        Sector::Agriculture,
        Sector::Waste,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Sector::Transport => "Transport",
            Sector::Heating => "Heating",
            Sector::Industry => "Industry",
            Sector::Agriculture => "Agriculture",
            Sector::Waste => "Waste",
        }
    }
}

/// An annual national inventory entry downscaled to a city.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DownscaledEmission {
    /// Sector.
    pub sector: Sector,
    /// Year.
    pub year: i32,
    /// Central estimate, kilotonnes CO2-equivalent per year for the city.
    pub ktco2e: f64,
    /// Relative uncertainty (1σ / central), e.g. 0.35.
    pub rel_uncertainty: f64,
}

/// The national statistics office inventory, downscaled by population.
#[derive(Debug, Clone, Copy)]
pub struct NationalInventory {
    /// National total per sector, ktCO2e/yr (rough Norway-like numbers).
    national: [(Sector, f64); 5],
    /// City share of national population.
    pub population_share: f64,
}

impl NationalInventory {
    /// Inventory for a city holding `population_share` of the nation.
    pub fn new(population_share: f64) -> Self {
        assert!((0.0..=1.0).contains(&population_share));
        NationalInventory {
            national: [
                (Sector::Transport, 16_000.0),
                (Sector::Heating, 4_500.0),
                (Sector::Industry, 24_000.0),
                (Sector::Agriculture, 4_800.0),
                (Sector::Waste, 1_300.0),
            ],
            population_share,
        }
    }

    /// Downscaled estimates for a year. Downscaling by population share is
    /// exactly the crude method the paper flags: uncertainty is high and
    /// differs per sector (industry does not follow population at all).
    pub fn downscale(&self, year: i32) -> Vec<DownscaledEmission> {
        self.national
            .iter()
            .map(|&(sector, national_kt)| {
                let rel_uncertainty = match sector {
                    Sector::Transport => 0.25,
                    Sector::Heating => 0.35,
                    Sector::Industry => 0.60,
                    Sector::Agriculture => 0.50,
                    Sector::Waste => 0.40,
                };
                // Mild national trend: −1%/yr decarbonisation after 2015.
                let trend = 1.0 - 0.01 * f64::from(year - 2015);
                DownscaledEmission {
                    sector,
                    year,
                    ktco2e: national_kt * self.population_share * trend,
                    rel_uncertainty,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctt_core::traffic::RoadClass;
    use ctt_core::units::Degrees;

    fn model() -> TrafficModel {
        TrafficModel::new(7, RoadClass::Arterial, Degrees(10.4))
    }

    #[test]
    fn campaign_produces_one_count_per_day() {
        let c = CountingCampaign {
            start: Timestamp::from_civil(2017, 5, 1, 9, 0, 0),
            days: 7,
        };
        let counts = c.daily_counts(&model());
        assert_eq!(counts.len(), 7);
        // Counts are rounded to tens and plausible for an arterial.
        for (day, n) in &counts {
            assert_eq!(day.seconds_of_day(), 0, "not midnight: {day}");
            assert_eq!(*n % 10.0, 0.0);
            assert!((3_000.0..40_000.0).contains(n), "count {n}");
        }
    }

    #[test]
    fn campaign_coverage_window() {
        let c = CountingCampaign {
            start: Timestamp::from_civil(2017, 5, 1, 0, 0, 0),
            days: 3,
        };
        assert!(c.covers(Timestamp::from_civil(2017, 5, 1, 12, 0, 0)));
        assert!(c.covers(Timestamp::from_civil(2017, 5, 3, 23, 59, 59)));
        assert!(!c.covers(Timestamp::from_civil(2017, 5, 4, 0, 0, 0)));
        assert!(!c.covers(Timestamp::from_civil(2017, 4, 30, 23, 0, 0)));
    }

    #[test]
    fn downscaling_by_population_share() {
        let inv = NationalInventory::new(0.035); // Trondheim ≈ 3.5% of Norway
        let d = inv.downscale(2017);
        assert_eq!(d.len(), 5);
        let total: f64 = d.iter().map(|e| e.ktco2e).sum();
        // 3.5% of ~50,000 kt ≈ 1,700 kt, minus the small trend.
        assert!((1_500.0..2_000.0).contains(&total), "total {total}");
        // Industry is the most uncertain.
        let industry = d.iter().find(|e| e.sector == Sector::Industry).unwrap();
        assert!(d
            .iter()
            .all(|e| e.rel_uncertainty <= industry.rel_uncertainty));
    }

    #[test]
    fn trend_declines() {
        let inv = NationalInventory::new(0.035);
        let total = |year| inv.downscale(year).iter().map(|e| e.ktco2e).sum::<f64>();
        assert!(total(2020) < total(2016));
    }
}
