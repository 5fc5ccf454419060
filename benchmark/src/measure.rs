//! What a run accumulates: timing samples, operation counts, and the
//! correctness verdict.

use crate::stats::{median, percentile, sorted};
use ctt::chaos::LedgerVerdict;
use ctt::tsdb::{Query, QueryResult, TsdbError};
use ctt::PipelineStats;

/// Timing samples and operation counts of one run.
///
/// Everything reported is a median, so a disturbed stretch of the run moves
/// the result little: the uplink rate is the median over all `run_until`
/// segments, query percentiles are taken per epoch and the median over
/// epochs reported, and the far fewer dashboard refreshes are pooled over
/// the whole run.
#[derive(Debug, Default)]
pub struct Meas {
    epoch_query_ns: Vec<f64>,
    /// Per `run_until` segment: uplinks produced ÷ wall time of the call.
    pub uplink_rates: Vec<f64>,
    /// Per epoch: median `execute` latency, µs.
    pub query_p50_us: Vec<f64>,
    /// Per epoch: p99 `execute` latency, µs.
    pub query_p99_us: Vec<f64>,
    /// Per epoch: queries ÷ summed `execute` latency.
    pub query_rates: Vec<f64>,
    /// Every dashboard refresh of the run, ms.
    pub refresh_ms: Vec<f64>,
    /// Every set-up of the run, s.
    pub setup_s: Vec<f64>,
    /// Wall time spent in timed regions so far (counts toward `--seconds`).
    pub timed_ns: u64,
    /// Uplinks produced over the run.
    pub uplinks: u64,
    /// Queries issued over the run.
    pub queries: u64,
    /// Operations attempted: uplinks + queries + refreshes.
    pub attempted: u64,
    /// Operations that failed (see [`Checks`] for what counts).
    pub failed: u64,
}

impl Meas {
    /// One `run_until` call: `uplinks` readings produced in `ns`.
    pub fn ingest(&mut self, uplinks: u64, ns: u64) {
        if uplinks > 0 && ns > 0 {
            self.uplink_rates.push(uplinks as f64 / (ns as f64 / 1e9));
        }
        self.uplinks += uplinks;
        self.attempted += uplinks;
    }

    /// One `execute` call that took `ns`.
    pub fn query(&mut self, ns: u64) {
        self.epoch_query_ns.push(ns as f64);
        self.queries += 1;
        self.attempted += 1;
    }

    /// One dashboard refresh that took `ns`.
    pub fn refresh(&mut self, ns: u64) {
        self.refresh_ms.push(ns as f64 / 1e6);
        self.attempted += 1;
    }

    /// Fold the epoch's query samples into the per-epoch series.
    pub fn end_epoch(&mut self) {
        let lat = sorted(std::mem::take(&mut self.epoch_query_ns));
        let busy_ns: f64 = lat.iter().sum();
        if busy_ns > 0.0 {
            self.query_p50_us.push(percentile(&lat, 0.50) / 1e3);
            self.query_p99_us.push(percentile(&lat, 0.99) / 1e3);
            self.query_rates.push(lat.len() as f64 / (busy_ns / 1e9));
        }
        // Keep the allocation for the next epoch.
        self.epoch_query_ns = lat;
        self.epoch_query_ns.clear();
    }

    /// The end-to-end values by metric name (`setup_s` … `refresh_p50_ms`;
    /// the caller adds the two that do not come from timing samples).
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let refresh = sorted(self.refresh_ms.clone());
        vec![
            ("setup_s", median(&self.setup_s)),
            ("uplinks_per_s", median(&self.uplink_rates)),
            ("query_p50_us", median(&self.query_p50_us)),
            ("query_p99_us", median(&self.query_p99_us)),
            ("queries_per_s", median(&self.query_rates)),
            ("refresh_p50_ms", percentile(&refresh, 0.50)),
        ]
    }
}

/// The run's correctness verdict: every failed check leaves one line here,
/// and any line makes the run report `correct: false` and exit non-zero.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// No failed check so far.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// One line per failed check.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    fn fail(&mut self, line: String) {
        // The first few lines say what broke; thousands more say nothing new.
        if self.failures.len() < 32 {
            self.failures.push(line);
        }
    }

    /// `left == right`, or a failure line naming `what`.
    pub fn equal<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, left: T, right: T) {
        if left != right {
            self.fail(format!("{what}: {left:?} != {right:?}"));
        }
    }

    /// A city's loss ledger must balance against its pipeline counters.
    /// Returns how many of its uplinks count as failed operations: entries
    /// the ledger cannot account for, plus payloads that did not decode. A
    /// radio loss is the simulated channel's outcome, owned by the ledger
    /// with a cause, and is reported as `lorawan.lost`, not as a failure.
    pub fn ledger(&mut self, city: &str, verdict: &LedgerVerdict, stats: PipelineStats) -> u64 {
        if !verdict.is_balanced() {
            self.fail(format!(
                "{city}: ledger unbalanced, {} of {} uplinks unaccounted (first: {:?})",
                verdict.unattributed.len(),
                verdict.produced,
                verdict.unattributed.first()
            ));
        }
        self.equal(
            &format!("{city}: ledger produced vs readings"),
            verdict.produced,
            stats.readings,
        );
        self.equal(
            &format!("{city}: ledger stored vs delivered"),
            verdict.stored,
            stats.delivered,
        );
        self.equal(&format!("{city}: decode errors"), stats.decode_errors, 0);
        verdict.unattributed.len() as u64 + stats.decode_errors
    }

    /// The served answer must equal the raw-decode reference answer.
    /// Returns whether it did.
    pub fn served_equals_raw(
        &mut self,
        q: &Query,
        served: &Result<Vec<QueryResult>, TsdbError>,
        raw: &Result<Vec<QueryResult>, TsdbError>,
    ) -> bool {
        let same = matches!((served, raw), (Ok(a), Ok(b)) if a == b);
        if !same {
            self.fail(format!(
                "served answer differs from ServePolicy::raw() for {} [{} .. {})",
                q.metric,
                q.start.as_seconds(),
                q.end.as_seconds()
            ));
        }
        same
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctt::chaos::UplinkOutcome;
    use ctt::prelude::*;
    use ctt::tsdb::TagSet;

    fn stats(readings: u64, delivered: u64) -> PipelineStats {
        PipelineStats {
            readings,
            delivered,
            radio_lost: readings - delivered,
            points_stored: delivered * 9,
            ..PipelineStats::default()
        }
    }

    #[test]
    fn balanced_ledger_passes_and_unbalanced_fails() {
        let good = LedgerVerdict {
            produced: 10,
            accepted: 9,
            stored: 9,
            attributed: 1,
            unattributed: Vec::new(),
        };
        let mut c = Checks::default();
        assert_eq!(c.ledger("trondheim", &good, stats(10, 9)), 0);
        assert!(c.ok(), "{:?}", c.failures());

        let bad = LedgerVerdict {
            unattributed: vec![(DevEui::ctt(1), Timestamp(5), UplinkOutcome::Accepted)],
            attributed: 0,
            ..good
        };
        let mut c = Checks::default();
        assert_eq!(c.ledger("trondheim", &bad, stats(10, 9)), 1);
        assert!(!c.ok());
        assert!(c.failures()[0].contains("unbalanced"), "{:?}", c.failures());
    }

    #[test]
    fn served_answer_must_equal_the_raw_reference() {
        let q = Query::range("ctt.air.co2", Timestamp(0), Timestamp(3600));
        let answer = |v: f64| {
            Ok(vec![QueryResult {
                group: TagSet::new(),
                series: Series::from_points(vec![(Timestamp(0), v)]),
                source_series: 1,
                quarantined_chunks: 0,
                quarantined_points: 0,
            }])
        };
        let mut c = Checks::default();
        assert!(c.served_equals_raw(&q, &answer(400.0), &answer(400.0)));
        assert!(c.ok());
        assert!(!c.served_equals_raw(&q, &answer(400.0), &answer(400.5)));
        assert!(!c.ok());
        // An error on either side is a difference too.
        let mut c = Checks::default();
        let err = Err(TsdbError::NoSuchMetric("ctt.air.co2".to_string()));
        assert!(!c.served_equals_raw(&q, &err, &answer(1.0)));
        assert!(!c.ok());
    }

    #[test]
    fn epochs_fold_into_medians() {
        let mut m = Meas::default();
        for rate in [100u64, 300, 200] {
            m.ingest(rate, 1_000_000_000);
            m.ingest(rate * 2, 2_000_000_000);
            for ns in 1..=100u64 {
                m.query(ns * 1_000);
            }
            m.end_epoch();
        }
        let e2e: std::collections::BTreeMap<_, _> = m.end_to_end().into_iter().collect();
        assert_eq!(e2e["uplinks_per_s"], 200.0);
        assert_eq!(e2e["query_p50_us"], 50.0);
        assert_eq!(e2e["query_p99_us"], 99.0);
        assert_eq!(m.attempted, 3 * 600 + 300);
    }
}
