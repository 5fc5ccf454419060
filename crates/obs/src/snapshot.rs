//! The metrics export: a point-in-time [`Snapshot`] of named integer
//! counters and gauges, rendered in sorted name order.
//!
//! Each layer counts its events in plain integers it owns and writes them
//! into a snapshot on request (`publish`/`export(&self, &mut Snapshot)`),
//! so a count has one increment and one exporter. All values are
//! integers: float formatting is platform-honest but invites accidental
//! nondeterminism the moment someone averages, so ratios are left to the
//! consumers of the export.

use crate::trace::PercentileEstimate;
use ctt_core::time::Timestamp;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One exported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    Counter(u64),
    Gauge(i64),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
        }
    }
}

/// A point-in-time export of metrics, keyed and rendered in sorted name
/// order. Byte-identical across replays of a deterministic run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    at: Timestamp,
    entries: BTreeMap<String, Value>,
}

impl Snapshot {
    /// An empty snapshot stamped with logical time `at`.
    pub fn new(at: Timestamp) -> Self {
        Snapshot {
            at,
            entries: BTreeMap::new(),
        }
    }

    /// The logical capture time.
    pub fn at(&self) -> Timestamp {
        self.at
    }

    /// Add (or overwrite) a counter-valued entry.
    pub fn push_counter(&mut self, name: &str, value: u64) {
        self.entries.insert(name.to_string(), Value::Counter(value));
    }

    /// Add (or overwrite) a gauge-valued entry.
    pub fn push_gauge(&mut self, name: &str, value: i64) {
        self.entries.insert(name.to_string(), Value::Gauge(value));
    }

    /// Expand a fixed-bucket histogram into `name.le_<bound>` cumulative
    /// bucket counters plus `name.count` and `name.sum`.
    pub fn push_histogram(&mut self, name: &str, h: &crate::FixedHistogram) {
        let mut cumulative = 0u64;
        for (bound, count) in h.buckets() {
            cumulative += count;
            self.push_counter(&format!("{name}.le_{bound}"), cumulative);
        }
        cumulative += h.overflow();
        self.push_counter(&format!("{name}.le_inf"), cumulative);
        self.push_counter(&format!("{name}.count"), h.count());
        self.push_gauge(&format!("{name}.sum"), h.sum());
    }

    /// The value of `name`, as a widened integer, if present.
    pub fn value(&self, name: &str) -> Option<i128> {
        self.entries.get(name).map(|v| match v {
            Value::Counter(c) => i128::from(*c),
            Value::Gauge(g) => i128::from(*g),
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Canonical CSV rendering: header then one sorted row per metric.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("name,kind,value\n");
        for (name, value) in &self.entries {
            let _ = match value {
                Value::Counter(c) => writeln!(out, "{name},counter,{c}"),
                Value::Gauge(g) => writeln!(out, "{name},gauge,{g}"),
            };
        }
        out
    }

    /// Parse the canonical [`Snapshot::to_json`] format back into a
    /// snapshot. Line-oriented by construction (one metric object per
    /// line), so no general JSON machinery is needed; anything else is
    /// rejected with a description of the first offending line.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        fn str_field(line: &str, key: &str) -> Option<String> {
            let pat = format!("\"{key}\": \"");
            let start = line.find(&pat)? + pat.len();
            let rest = line.get(start..)?;
            Some(rest.get(..rest.find('"')?)?.to_string())
        }
        fn num_field(line: &str, key: &str) -> Option<i128> {
            let pat = format!("\"{key}\": ");
            let start = line.find(&pat)? + pat.len();
            let rest = line.get(start..)?;
            let end = rest
                .find(|c: char| !c.is_ascii_digit() && c != '-')
                .unwrap_or(rest.len());
            rest.get(..end)?.parse().ok()
        }

        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| "empty input".to_string())?;
        let at = num_field(header, "at_s").ok_or_else(|| format!("bad header: {header:?}"))?;
        let at = i64::try_from(at).map_err(|_| format!("at_s out of range: {at}"))?;
        let mut snap = Snapshot::new(Timestamp(at));
        for line in lines {
            let line = line.trim();
            if !line.contains("\"name\"") {
                continue; // structural lines: "metrics": [ … ]}
            }
            let err = || format!("bad metric line: {line:?}");
            let name = str_field(line, "name").ok_or_else(err)?;
            let kind = str_field(line, "kind").ok_or_else(err)?;
            let value = num_field(line, "value").ok_or_else(err)?;
            match kind.as_str() {
                "counter" => {
                    let v = u64::try_from(value).map_err(|_| err())?;
                    snap.push_counter(&name, v);
                }
                "gauge" => {
                    let v = i64::try_from(value).map_err(|_| err())?;
                    snap.push_gauge(&name, v);
                }
                _ => return Err(err()),
            }
        }
        Ok(snap)
    }

    /// Compare this snapshot (the baseline) against a `newer` one:
    /// counter/gauge deltas, added and removed metrics, and a percentile
    /// shift summary for every expanded histogram. The rendering is
    /// canonical — sorted names, stable format — so diffs diff.
    pub fn diff(&self, newer: &Snapshot) -> SnapshotDiff {
        use std::collections::BTreeSet;
        let names: BTreeSet<&String> = self.entries.keys().chain(newer.entries.keys()).collect();
        let (mut added, mut removed, mut changed, mut unchanged) = (0usize, 0usize, 0usize, 0usize);
        let mut body = String::new();
        let widen = |v: &Value| match v {
            Value::Counter(c) => i128::from(*c),
            Value::Gauge(g) => i128::from(*g),
        };
        for name in &names {
            match (self.entries.get(*name), newer.entries.get(*name)) {
                (Some(a), Some(b)) if widen(a) == widen(b) => unchanged += 1,
                (Some(a), Some(b)) => {
                    changed += 1;
                    let (va, vb) = (widen(a), widen(b));
                    let _ = writeln!(
                        body,
                        "~ {name} [{}] {va} -> {vb} (delta {:+})",
                        b.kind(),
                        vb - va
                    );
                }
                (Some(a), None) => {
                    removed += 1;
                    let _ = writeln!(body, "- {name} = {}", widen(a));
                }
                (None, Some(b)) => {
                    added += 1;
                    let _ = writeln!(body, "+ {name} = {}", widen(b));
                }
                (None, None) => {}
            }
        }
        // Histogram shift: every `<prefix>.le_inf` marks an expanded
        // histogram; recover nearest-rank percentiles from the cumulative
        // bucket counters on both sides.
        let prefixes: BTreeSet<&str> = names
            .iter()
            .filter_map(|n| n.strip_suffix(".le_inf"))
            .collect();
        for prefix in prefixes {
            let render = |snap: &Snapshot, permille: u64| {
                snap.percentile_from_buckets(prefix, permille)
                    .map_or_else(|| "none".to_string(), |p| p.to_string())
            };
            let _ = writeln!(
                body,
                "histogram {prefix}: p50 {} -> {}, p95 {} -> {}, p99 {} -> {}",
                render(self, 500),
                render(newer, 500),
                render(self, 950),
                render(newer, 950),
                render(self, 990),
                render(newer, 990),
            );
        }
        let text = format!(
            "profile diff a_t={} b_t={} changed={changed} added={added} removed={removed} \
             unchanged={unchanged}\n{body}",
            self.at.as_seconds(),
            newer.at.as_seconds(),
        );
        SnapshotDiff {
            text,
            changed,
            added,
            removed,
            unchanged,
        }
    }

    /// Nearest-rank percentile of an expanded histogram (`prefix.le_*`
    /// cumulative counters), or `None` when the histogram is empty or
    /// absent.
    fn percentile_from_buckets(&self, prefix: &str, permille: u64) -> Option<PercentileEstimate> {
        let count = u64::try_from(self.value(&format!("{prefix}.count"))?).ok()?;
        let le = format!("{prefix}.le_");
        let mut buckets: Vec<(i64, u64)> = Vec::new();
        for (name, value) in self.entries.range(le.clone()..) {
            let Some(suffix) = name.strip_prefix(&le) else {
                break;
            };
            let Ok(bound) = suffix.parse::<i64>() else {
                continue; // le_inf (or a foreign name sharing the prefix)
            };
            if let Value::Counter(cumulative) = value {
                buckets.push((bound, *cumulative));
            }
        }
        // Lexicographic map order is not numeric bound order (le_10 < le_5).
        buckets.sort_unstable();
        PercentileEstimate::nearest_rank(count, permille, buckets)
    }

    /// Canonical JSON rendering: one metric object per line, sorted.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{\"at_s\": {},", self.at.as_seconds());
        let _ = writeln!(out, "\"metrics\": [");
        let last = self.entries.len().saturating_sub(1);
        for (i, (name, value)) in self.entries.iter().enumerate() {
            let v = match value {
                Value::Counter(c) => i128::from(*c),
                Value::Gauge(g) => i128::from(*g),
            };
            let comma = if i == last { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\": \"{name}\", \"kind\": \"{}\", \"value\": {v}}}{comma}",
                value.kind()
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// The result of [`Snapshot::diff`]: summary counts plus a canonical text
/// rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDiff {
    text: String,
    /// Metrics present in both snapshots with different values.
    pub changed: usize,
    /// Metrics only in the newer snapshot.
    pub added: usize,
    /// Metrics only in the baseline snapshot.
    pub removed: usize,
    /// Metrics with identical values on both sides.
    pub unchanged: usize,
}

impl SnapshotDiff {
    /// The canonical text rendering: a summary header, one line per
    /// difference in sorted name order, then histogram percentile shifts.
    pub fn render(&self) -> &str {
        &self.text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushed out of order, rendered sorted.
    fn unsorted(at: i64) -> Snapshot {
        let mut snap = Snapshot::new(Timestamp(at));
        snap.push_counter("z.last", 1);
        snap.push_counter("a.first", 2);
        snap.push_gauge("m.mid", -3);
        snap
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let snap = unsorted(60);
        assert_eq!(
            snap.to_csv(),
            "name,kind,value\na.first,counter,2\nm.mid,gauge,-3\nz.last,counter,1\n"
        );
        // Two captures of the same state are byte-identical.
        assert_eq!(snap.to_csv(), unsorted(60).to_csv());
        assert_eq!(snap.to_json(), unsorted(60).to_json());
        assert!(snap.to_json().starts_with("{\"at_s\": 60,\n"));
    }

    #[test]
    fn json_roundtrips_through_from_json() {
        let mut snap = unsorted(120);
        let mut h = crate::FixedHistogram::new(&[1, 5]);
        h.observe(0);
        h.observe(9);
        snap.push_histogram("lat", &h);
        let parsed = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap, "parse(render(s)) == s");
        assert_eq!(parsed.to_json(), snap.to_json());
        // Garbage is rejected, not mis-parsed.
        assert!(Snapshot::from_json("").is_err());
        assert!(Snapshot::from_json("not json").is_err());
        let bad = "{\"at_s\": 0,\n\"metrics\": [\n{\"name\": \"x\", \"kind\": \"blob\", \
                   \"value\": 1}\n]}\n";
        assert!(Snapshot::from_json(bad).is_err());
    }

    #[test]
    fn diff_reports_deltas_adds_removes_and_histogram_shift() {
        let mut a = Snapshot::new(Timestamp(100));
        a.push_counter("events", 10);
        a.push_counter("gone", 1);
        a.push_gauge("depth", 4);
        let mut ha = crate::FixedHistogram::new(&[1, 10]);
        for _ in 0..99 {
            ha.observe(0);
        }
        ha.observe(8);
        a.push_histogram("gap", &ha);

        let mut b = Snapshot::new(Timestamp(200));
        b.push_counter("events", 25);
        b.push_gauge("depth", 4);
        b.push_counter("fresh", 2);
        let mut hb = crate::FixedHistogram::new(&[1, 10]);
        for _ in 0..50 {
            hb.observe(0);
        }
        for _ in 0..50 {
            hb.observe(100);
        }
        b.push_histogram("gap", &hb);

        let d = a.diff(&b);
        assert_eq!((d.added, d.removed), (1, 1));
        assert!(d.changed >= 2, "events plus shifted histogram buckets");
        let text = d.render();
        assert!(text.starts_with("profile diff a_t=100 b_t=200 "));
        assert!(text.contains("~ events [counter] 10 -> 25 (delta +15)"));
        assert!(text.contains("+ fresh = 2"));
        assert!(text.contains("- gone = 1"));
        assert!(!text.contains("~ depth"), "unchanged gauge stays silent");
        // The tail percentiles moved from the ≤1 bucket into overflow.
        assert!(
            text.contains("histogram gap: p50 1 -> 1, p95 1 -> overflow, p99 1 -> overflow"),
            "histogram shift line missing or wrong:\n{text}"
        );
        // Diffing identical snapshots is all-quiet.
        let same = a.diff(&a);
        assert_eq!((same.changed, same.added, same.removed), (0, 0, 0));
    }

    #[test]
    fn histogram_expands_cumulatively() {
        let mut h = crate::FixedHistogram::new(&[1, 5]);
        for v in [0, 1, 2, 7] {
            h.observe(v);
        }
        let mut snap = Snapshot::new(Timestamp(0));
        snap.push_histogram("lat", &h);
        assert_eq!(snap.value("lat.le_1"), Some(2));
        assert_eq!(snap.value("lat.le_5"), Some(3));
        assert_eq!(snap.value("lat.le_inf"), Some(4));
        assert_eq!(snap.value("lat.count"), Some(4));
        assert_eq!(snap.value("lat.sum"), Some(10));
    }
}
