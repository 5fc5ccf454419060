//! Rollup sums stored on the payload's grid answer every served bucket as
//! the raw path does, bit for bit, on pipeline data. A block keeps each
//! `sum` as a grid integer and an ulp residual: a decoder that dropped the
//! residual or misread a prediction would move `Sum` and `Avg` buckets by
//! an ulp, which value equality on a merged series can hide.

use ctt::prelude::*;
use ctt::tsdb::{Aggregator, Downsample, FillPolicy, Query, QueryResult};

/// Every point of every group, its value as bits.
fn bits(results: &[QueryResult]) -> Vec<(String, Timestamp, u64)> {
    results
        .iter()
        .flat_map(|r| {
            let group = format!("{:?}", r.group);
            r.series
                .points
                .iter()
                .map(move |&(t, v)| (group.clone(), t, v.to_bits()))
        })
        .collect()
}

#[test]
fn grid_sums_serve_as_the_raw_oracle_bit_for_bit() {
    let d = Deployment::vejle();
    let start = d.started;
    let mut p = Pipeline::new(d, 42);
    // Vejle's series seal their first chunks after about 43 h.
    p.run_until(start + Span::hours(48));
    let grid_blocks = p.rollup_column_bytes().blocks[0][2];
    assert!(grid_blocks > 0, "sealed chunks keep their sums on the grid");
    let served_from_rollups = |p: &Pipeline| {
        p.metrics_snapshot()
            .value("tsdb.shard0.rollup_buckets")
            .unwrap_or(0)
    };
    let co2 = Quantity::Pollutant(Pollutant::Co2).metric_name();
    for aggregator in [Aggregator::Sum, Aggregator::Avg] {
        let q = Query::range(co2.clone(), start, start + Span::hours(48))
            .group_by("device")
            .downsample(Downsample {
                interval: Span::hours(1),
                aggregator,
                fill: FillPolicy::None,
            });
        let before = served_from_rollups(&p);
        let served = p.query(&q);
        assert!(
            served_from_rollups(&p) > before,
            "{aggregator} is rollup-served"
        );
        let (served, raw) = (bits(&served), bits(&p.query_raw(&q)));
        assert_eq!(served.len(), raw.len(), "{aggregator}");
        let differ = served.iter().zip(&raw).filter(|(s, r)| s != r).count();
        assert_eq!(differ, 0, "{aggregator}: {differ} of {} buckets", raw.len());
    }
}
