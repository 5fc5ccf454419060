//! Dispatch-tracing building blocks: a fixed-bucket integer histogram and
//! a bounded trace sink.
//!
//! Both are plain (non-atomic) structs: the event-dispatch loop that feeds
//! them is single-threaded by construction, and plain integer increments
//! keep the instrumented pop path within the bench-gated overhead budget.

use ctt_core::time::Timestamp;
use std::fmt::Write as _;

/// A histogram over `i64` observations with fixed upper bounds, chosen at
/// construction. Observation is a short linear scan (the bound lists used
/// on the dispatch path have ≤ 10 entries), one add, and two updates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedHistogram {
    bounds: Vec<i64>,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: i64,
}

impl FixedHistogram {
    /// A histogram with the given inclusive upper bounds. Bounds are
    /// sorted and deduplicated, so any order is accepted.
    pub fn new(bounds: &[i64]) -> Self {
        let mut bounds = bounds.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let buckets = vec![0; bounds.len()];
        FixedHistogram {
            bounds,
            buckets,
            overflow: 0,
            count: 0,
            sum: 0,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: i64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        for (bound, bucket) in self.bounds.iter().zip(self.buckets.iter_mut()) {
            if v <= *bound {
                *bucket += 1;
                return;
            }
        }
        self.overflow += 1;
    }

    /// `(upper bound, non-cumulative count)` per bucket, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (i64, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .zip(self.buckets.iter().copied())
    }

    /// Observations above the last bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (wrapping).
    pub fn sum(&self) -> i64 {
        self.sum
    }

    /// Percentile estimate from the bucket counts, as the inclusive upper
    /// bound of the bucket where the requested rank lands. `permille` is
    /// the percentile × 10 (p50 → 500, p99 → 990). Integer-only, so
    /// renders stay byte-identical across replays.
    ///
    /// Returns [`PercentileEstimate::Overflow`] when the rank falls above
    /// the last bound, and `None` when the histogram is empty or the
    /// permille is out of range.
    pub fn percentile(&self, permille: u32) -> Option<PercentileEstimate> {
        let cumulative = self.buckets().scan(0u64, |seen, (bound, n)| {
            *seen += n;
            Some((bound, *seen))
        });
        PercentileEstimate::nearest_rank(self.count, u64::from(permille), cumulative)
    }
}

/// Where a nearest-rank percentile lands in a [`FixedHistogram`] or in a
/// histogram expanded into a snapshot's `le_*` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PercentileEstimate {
    /// At or below this bucket bound.
    Le(i64),
    /// Above the last bound (in the overflow region).
    Overflow,
}

impl PercentileEstimate {
    /// The nearest-rank walk: the first bucket whose cumulative count
    /// reaches the smallest rank r with r ≥ permille/1000 of `count`.
    /// `cumulative` yields `(inclusive upper bound, cumulative count)` in
    /// ascending bound order. `None` when `count` is 0 or `permille` is
    /// outside `1..=1000`.
    pub(crate) fn nearest_rank(
        count: u64,
        permille: u64,
        cumulative: impl IntoIterator<Item = (i64, u64)>,
    ) -> Option<PercentileEstimate> {
        if count == 0 || permille == 0 || permille > 1000 {
            return None;
        }
        let rank = (count * permille).div_ceil(1000);
        Some(
            cumulative
                .into_iter()
                .find(|&(_, seen)| seen >= rank)
                .map_or(PercentileEstimate::Overflow, |(bound, _)| {
                    PercentileEstimate::Le(bound)
                }),
        )
    }
}

impl std::fmt::Display for PercentileEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PercentileEstimate::Le(bound) => write!(f, "{bound}"),
            PercentileEstimate::Overflow => write!(f, "overflow"),
        }
    }
}

/// One traced dispatch: the event's total-order key plus the payload's
/// discriminant label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Logical dispatch time.
    pub time: Timestamp,
    /// Priority class of the event key.
    pub priority: u8,
    /// Monotonic schedule sequence of the event key.
    pub seq: u64,
    /// Payload discriminant (e.g. `"node-tx"`).
    pub label: &'static str,
}

/// A bounded sink of [`TraceEvent`]s: the first `capacity` dispatches are
/// kept verbatim, the rest are counted. Bounded-by-construction so a
/// week-long soak cannot balloon memory; the drop count keeps the record
/// honest about truncation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSink {
    capacity: usize,
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl TraceSink {
    /// A sink keeping at most `capacity` events (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceSink {
            capacity,
            events: Vec::with_capacity(capacity.min(4096)),
            dropped: 0,
        }
    }

    /// Record one dispatch.
    pub fn record(&mut self, time: Timestamp, priority: u8, seq: u64, label: &'static str) {
        if self.events.len() < self.capacity {
            self.events.push(TraceEvent {
                time,
                priority,
                seq,
                label,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events, in dispatch order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Dispatches that arrived after the sink was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Canonical rendering: one line per event in dispatch order, then the
    /// drop count. Byte-identical across replays.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let _ = writeln!(
                out,
                "t={} p{} seq={} {}",
                e.time.as_seconds(),
                e.priority,
                e.seq,
                e.label
            );
        }
        let _ = writeln!(
            out,
            "trace kept={} dropped={}",
            self.events.len(),
            self.dropped
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_inclusive_upper_bounds() {
        let mut h = FixedHistogram::new(&[10, 1, 5, 5]); // unsorted + dup
        for v in [0, 1, 2, 5, 6, 10, 11, 100] {
            h.observe(v);
        }
        let got: Vec<(i64, u64)> = h.buckets().collect();
        assert_eq!(got, vec![(1, 2), (5, 2), (10, 2)]);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 135);
    }

    #[test]
    fn percentiles_walk_cumulative_buckets() {
        let mut h = FixedHistogram::new(&[1, 5, 10]);
        // 90 in the ≤1 bucket, 5 in ≤5, 4 in ≤10, 1 overflow.
        for _ in 0..90 {
            h.observe(0);
        }
        for _ in 0..5 {
            h.observe(3);
        }
        for _ in 0..4 {
            h.observe(9);
        }
        h.observe(1000);
        assert_eq!(h.percentile(500), Some(PercentileEstimate::Le(1)));
        assert_eq!(h.percentile(900), Some(PercentileEstimate::Le(1)));
        assert_eq!(h.percentile(950), Some(PercentileEstimate::Le(5)));
        assert_eq!(h.percentile(990), Some(PercentileEstimate::Le(10)));
        assert_eq!(h.percentile(1000), Some(PercentileEstimate::Overflow));
        assert_eq!(format!("{}", h.percentile(990).unwrap()), "10");
        assert_eq!(format!("{}", h.percentile(1000).unwrap()), "overflow");
    }

    #[test]
    fn percentile_edge_cases() {
        let empty = FixedHistogram::new(&[1]);
        assert_eq!(empty.percentile(500), None, "empty histogram");
        let mut h = FixedHistogram::new(&[1]);
        h.observe(0);
        assert_eq!(h.percentile(0), None, "p0 is out of range");
        assert_eq!(h.percentile(1001), None, "beyond p100");
        assert_eq!(h.percentile(1), Some(PercentileEstimate::Le(1)));
        assert_eq!(h.percentile(1000), Some(PercentileEstimate::Le(1)));
        // All observations above every bound.
        let mut o = FixedHistogram::new(&[1]);
        o.observe(99);
        assert_eq!(o.percentile(500), Some(PercentileEstimate::Overflow));
    }

    #[test]
    fn trace_sink_keeps_head_and_counts_tail() {
        let mut t = TraceSink::new(2);
        t.record(Timestamp(1), 0, 0, "a");
        t.record(Timestamp(2), 1, 1, "b");
        t.record(Timestamp(3), 2, 2, "c");
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 1);
        assert_eq!(
            t.render(),
            "t=1 p0 seq=0 a\nt=2 p1 seq=1 b\ntrace kept=2 dropped=1\n"
        );
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut t = TraceSink::new(0);
        t.record(Timestamp(0), 0, 0, "x");
        t.record(Timestamp(1), 0, 1, "y");
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.dropped(), 1);
    }
}
