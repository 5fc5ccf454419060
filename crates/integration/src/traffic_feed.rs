//! here.com-style commercial traffic feed.
//!
//! Streams the jam factor (0–10 congestion index) for monitored road
//! segments at a 5-minute cadence, with realistic API outages. Fig. 5 and
//! the Fig. 6 traffic dashboard consume this feed.

use ctt_core::measurement::Series;
use ctt_core::rng::unit;
use ctt_core::time::{Span, TimeRange, Timestamp};
use ctt_core::traffic::TrafficModel;

/// One jam-factor observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JamObservation {
    /// Observation time.
    pub time: Timestamp,
    /// Jam factor in [0, 10].
    pub jam_factor: f64,
    /// Relative speed (free-flow fraction), derived from the jam factor.
    pub speed_ratio: f64,
}

/// The traffic feed for one road segment.
#[derive(Debug, Clone, Copy)]
pub struct TrafficFeed {
    model: TrafficModel,
    /// Feed polling interval.
    pub interval: Span,
    /// Fraction of polls lost to API outages.
    pub outage_rate: f64,
    seed: u64,
}

impl TrafficFeed {
    /// Standard 5-minute feed over a traffic model.
    pub fn new(model: TrafficModel, seed: u64) -> Self {
        TrafficFeed {
            model,
            interval: Span::minutes(5),
            outage_rate: 0.01,
            seed,
        }
    }

    /// The underlying traffic model.
    pub fn model(&self) -> &TrafficModel {
        &self.model
    }

    /// Poll the feed at `t`; `None` during API outages. Outages cluster in
    /// ~30-minute windows like real service incidents.
    pub fn poll(&self, t: Timestamp) -> Option<JamObservation> {
        let window = t.as_seconds().div_euclid(1800);
        let r = unit(self.seed ^ window as u64);
        if r < self.outage_rate * 4.0 {
            // This half-hour window is an outage (rate×4 windows ≈ rate of
            // samples since a window holds several polls).
            return None;
        }
        let jam_factor = self.model.jam_factor(t);
        Some(JamObservation {
            time: t,
            jam_factor,
            speed_ratio: 1.0 - jam_factor / 10.0 * 0.85,
        })
    }

    /// Poll over a range, skipping outages; returns a [`Series`] of jam
    /// factors.
    pub fn series(&self, from: Timestamp, to: Timestamp) -> Series {
        TimeRange::new(from.align_up(self.interval), to, self.interval)
            .filter_map(|t| self.poll(t).map(|o| (t, o.jam_factor)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctt_core::traffic::RoadClass;
    use ctt_core::units::Degrees;

    fn feed() -> TrafficFeed {
        TrafficFeed::new(TrafficModel::new(7, RoadClass::Arterial, Degrees(10.4)), 99)
    }

    #[test]
    fn poll_values_in_range() {
        let f = feed();
        let start = Timestamp::from_civil(2017, 5, 1, 0, 0, 0);
        for i in 0..1000 {
            if let Some(o) = f.poll(start + Span::minutes(5 * i)) {
                assert!((0.0..=10.0).contains(&o.jam_factor));
                assert!((0.0..=1.0).contains(&o.speed_ratio));
            }
        }
    }

    #[test]
    fn series_has_gaps_from_outages() {
        let f = TrafficFeed {
            outage_rate: 0.05,
            ..feed()
        };
        let from = Timestamp::from_civil(2017, 5, 1, 0, 0, 0);
        let to = from + Span::days(14);
        let s = f.series(from, to);
        let expected = 14 * 24 * 12;
        assert!(s.len() < expected, "outages should drop polls");
        assert!(s.len() > expected * 7 / 10, "but not too many: {}", s.len());
    }

    #[test]
    fn series_time_aligned_to_interval() {
        let f = feed();
        let from = Timestamp::from_civil(2017, 5, 1, 0, 2, 13);
        let s = f.series(from, from + Span::hours(2));
        for (t, _) in &s.points {
            assert_eq!(t.as_seconds() % 300, 0, "unaligned poll at {t}");
        }
    }

    #[test]
    fn speed_drops_with_congestion() {
        let f = feed();
        // Find a congested and a free-flowing observation.
        let from = Timestamp::from_civil(2017, 5, 1, 0, 0, 0);
        let obs: Vec<JamObservation> = TimeRange::new(from, from + Span::days(7), Span::minutes(5))
            .filter_map(|t| f.poll(t))
            .collect();
        let max = obs
            .iter()
            .max_by(|a, b| a.jam_factor.total_cmp(&b.jam_factor))
            .unwrap();
        let min = obs
            .iter()
            .min_by(|a, b| a.jam_factor.total_cmp(&b.jam_factor))
            .unwrap();
        assert!(max.speed_ratio < min.speed_ratio);
    }

    #[test]
    fn deterministic() {
        let f = feed();
        let t = Timestamp::from_civil(2017, 5, 1, 8, 0, 0);
        assert_eq!(f.poll(t), f.poll(t));
    }
}
