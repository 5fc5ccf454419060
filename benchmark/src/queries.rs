//! The two ad-hoc query mixes, generated at set-up from the harness RNG.
//!
//! Both target a sealed archive `[start, start + archive)` of one
//! Trondheim-shaped city. They differ in exactly one property, the working
//! set relative to the query cache (`DEFAULT_CACHE_CAPACITY` = 256 entries):
//! the hot mix has 16 signatures and so lives in the cache, the cold mix has
//! 4 096 and so almost never finds its answer there.

use crate::dashboard::Class;
use crate::rng::{SplitMix64, Zipf};
use ctt::prelude::*;
use ctt::tsdb::{Aggregator, Downsample, FillPolicy, Query};
use std::collections::BTreeSet;

/// Signatures in the hot mix.
pub const HOT_SHAPES: usize = 16;
/// Signatures in the cold mix: 16× the query cache's capacity.
pub const COLD_SIGNATURES: usize = 4096;

/// A generated query set and the rule for drawing from it.
#[derive(Debug, Clone)]
pub struct QuerySet {
    queries: Vec<(Query, Class)>,
    /// `Some` draws zipfian by rank; `None` draws uniformly.
    zipf: Option<Zipf>,
}

impl QuerySet {
    /// Draw the next query.
    pub fn draw(&self, rng: &mut SplitMix64) -> &(Query, Class) {
        let i = match &self.zipf {
            Some(z) => z.pick(rng),
            None => rng.below(self.queries.len() as u64) as usize,
        };
        &self.queries[i.min(self.queries.len() - 1)]
    }

    /// Every query of the set, in rank order.
    #[cfg(test)]
    pub fn all(&self) -> &[(Query, Class)] {
        &self.queries
    }
}

fn ds(interval: Span, aggregator: Aggregator, fill: FillPolicy) -> Downsample {
    Downsample {
        interval,
        aggregator,
        fill,
    }
}

/// The hot mix: the 16 dashboard shapes of the repo's `query_multiuser`
/// bench — always-open overview panels first, drill-downs, then an ad-hoc
/// tail of rate panels, odd intervals and order-sensitive aggregators —
/// retargeted to the last week of the archive and drawn zipfian (1/rank).
pub fn hot(archive_end: Timestamp) -> QuerySet {
    let co2 = || Quantity::Pollutant(Pollutant::Co2).metric_name();
    let start = archive_end - Span::days(7);
    let end = archive_end;
    let hour = |h: i64| start + Span::hours(h);
    let h1 = Span::hours(1);
    use Aggregator::{Avg, Count, Dev, Last, Max, Min, Sum, P95};
    use FillPolicy::{None as NoFill, Previous, Zero};
    let queries = vec![
        // Rank 1-4: the always-open city overview panels.
        (
            Query::range(co2(), start, end)
                .aggregate(Avg)
                .downsample(ds(h1, Avg, NoFill)),
            Class::Rollup,
        ),
        (
            Query::range(co2(), start, end)
                .group_by("device")
                .downsample(ds(h1, Avg, NoFill)),
            Class::Rollup,
        ),
        (
            Query::range(co2(), start, end)
                .aggregate(Max)
                .downsample(ds(h1, Max, NoFill)),
            Class::Rollup,
        ),
        (
            Query::range(co2(), hour(24), hour(48)).group_by("device"),
            Class::Point,
        ),
        // Rank 5-10: drill-downs on sub-windows.
        (
            Query::range(co2(), hour(0), hour(24)).downsample(ds(h1, Min, Previous)),
            Class::Rollup,
        ),
        (
            Query::range(co2(), hour(48), hour(96))
                .aggregate(Sum)
                .downsample(ds(h1, Sum, Zero)),
            Class::Rollup,
        ),
        (
            Query::range(co2(), hour(96), hour(120)).aggregate(Avg),
            Class::Point,
        ),
        (
            Query::range(co2(), hour(12), hour(36))
                .group_by("device")
                .downsample(ds(h1, Count, Zero)),
            Class::Rollup,
        ),
        (
            Query::range(co2(), hour(100), hour(166)).downsample(ds(h1, Last, NoFill)),
            Class::Rollup,
        ),
        (
            Query::range(co2(), hour(6), hour(30)).aggregate(Min),
            Class::Point,
        ),
        // Rank 11-16: the ad-hoc tail.
        (Query::range(co2(), start, end).aggregate(P95), Class::Point),
        (
            Query::range(co2(), hour(24), hour(72))
                .as_rate()
                .downsample(ds(h1, Avg, NoFill)),
            Class::Rollup,
        ),
        (
            Query::range(co2(), hour(0), hour(48)).downsample(ds(Span::minutes(37), Avg, NoFill)),
            Class::Raw,
        ),
        (
            Query::range(co2(), hour(150), hour(166)).group_by("device"),
            Class::Point,
        ),
        (
            Query::range(co2(), start, end)
                .aggregate(Dev)
                .downsample(ds(h1, Avg, NoFill)),
            Class::Rollup,
        ),
        (Query::range(co2(), hour(90), hour(91)), Class::Point),
    ];
    debug_assert_eq!(queries.len(), HOT_SHAPES);
    QuerySet {
        zipf: Some(Zipf::new(queries.len())),
        queries,
    }
}

/// The cold mix: `COLD_SIGNATURES` distinct signatures drawn uniformly —
/// 1–7-day windows sliding hour by hour over the archive, one device, any
/// of the eight quantities, {stored points, 1 h, 37 min} resolution,
/// {Avg, Max, P95, rate} reduction.
pub fn cold(
    rng: &mut SplitMix64,
    archive_start: Timestamp,
    archive_days: i64,
    devices: &[String],
) -> QuerySet {
    let mut seen = BTreeSet::new();
    let mut queries = Vec::with_capacity(COLD_SIGNATURES);
    while queries.len() < COLD_SIGNATURES {
        let window_days = 1 + rng.below(7.min(archive_days.max(1)) as u64) as i64;
        let slack_hours = ((archive_days - window_days).max(0) * 24 + 1) as u64;
        let offset_hours = rng.below(slack_hours) as i64;
        let device = rng.below(devices.len().max(1) as u64) as usize;
        let quantity = rng.below(Quantity::ALL.len() as u64) as usize;
        let resolution = rng.below(3);
        let reduction = rng.below(4);
        if !seen.insert((
            window_days,
            offset_hours,
            device,
            quantity,
            resolution,
            reduction,
        )) {
            continue;
        }
        let from = archive_start + Span::hours(offset_hours);
        let mut q = Query::range(
            Quantity::ALL[quantity].metric_name(),
            from,
            from + Span::days(window_days),
        );
        if let Some(d) = devices.get(device) {
            q = q.with_tag("device", d.clone());
        }
        let (aggregator, rate) = match reduction {
            0 => (Aggregator::Avg, false),
            1 => (Aggregator::Max, false),
            2 => (Aggregator::P95, false),
            _ => (Aggregator::Avg, true),
        };
        q = q.aggregate(aggregator);
        if rate {
            q = q.as_rate();
        }
        let class = match resolution {
            0 => Class::Point,
            1 => {
                q = q.downsample(ds(Span::hours(1), aggregator, FillPolicy::None));
                if aggregator == Aggregator::P95 {
                    Class::Raw
                } else {
                    Class::Rollup
                }
            }
            _ => {
                q = q.downsample(ds(Span::minutes(37), aggregator, FillPolicy::None));
                Class::Raw
            }
        };
        queries.push((q, class));
    }
    QuerySet {
        queries,
        zipf: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctt::tsdb::cache::{query_signature, DEFAULT_CACHE_CAPACITY};

    fn start() -> Timestamp {
        Deployment::trondheim().started
    }

    fn devices() -> Vec<String> {
        (0..12).map(|i| format!("{i:016x}")).collect()
    }

    #[test]
    fn hot_fits_the_cache_and_cold_does_not() {
        let hot = hot(start() + Span::days(30));
        let cold = cold(&mut SplitMix64::new(1), start(), 30, &devices());
        let distinct = |s: &QuerySet| {
            s.all()
                .iter()
                .map(|(q, _)| query_signature(q))
                .collect::<BTreeSet<_>>()
                .len()
        };
        assert_eq!(distinct(&hot), HOT_SHAPES);
        assert_eq!(distinct(&cold), COLD_SIGNATURES);
        const { assert!(HOT_SHAPES * 4 < DEFAULT_CACHE_CAPACITY) };
        const { assert!(COLD_SIGNATURES >= 16 * DEFAULT_CACHE_CAPACITY) };
    }

    #[test]
    fn cold_windows_stay_inside_the_archive() {
        let cold = cold(&mut SplitMix64::new(9), start(), 30, &devices());
        let end = start() + Span::days(30);
        for (q, _) in cold.all() {
            assert!(q.start >= start() && q.end <= end, "{q:?}");
            assert!(q.end - q.start >= Span::days(1) && q.end - q.start <= Span::days(7));
        }
    }

    #[test]
    fn generation_and_draws_repeat_for_a_seed() {
        let make = |seed| {
            let mut rng = SplitMix64::new(seed);
            let set = cold(&mut rng, start(), 30, &devices());
            let drawn: Vec<String> = (0..32)
                .map(|_| query_signature(&set.draw(&mut rng).0))
                .collect();
            drawn
        };
        assert_eq!(make(5), make(5));
        assert_ne!(make(5), make(6));
    }
}
