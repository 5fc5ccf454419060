//! Property: interning a series as a pair of ids into the store's two
//! identity tables (metric names, tag sets) names series exactly as keying
//! them by their canonical `series_key` string does. For any interleaving
//! of `intern`, `put` and `series_id`, the ids equal those of a reference
//! model keyed by `series_key` strings (first sight assigns the next id),
//! and `metric`, `tags`, `series_for_metric` and `metrics` read back what
//! went in.
//!
//! The name pools are small, so tag sets that differ in one value, tag
//! sets that share their last entry, empty tag sets, and names containing
//! `-`, `.` and `/` all occur in short workloads.

use ctt_core::time::Timestamp;
use ctt_tsdb::model::series_key;
use ctt_tsdb::{DataPoint, SeriesId, TagSet, Tsdb};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

const METRICS: [&str; 6] = [
    "m",
    "ctt.air.co2",
    "ctt.air.co2-raw",
    "a/b",
    "x.y/z-w",
    "m2",
];
const KEYS: [&str; 3] = ["city", "device", "k-1/x.y"];
const VALUES: [&str; 5] = ["trondheim", "n1", "n2", "a.b-c/d", "n1/"];

/// A tag set as one optional value index per key (`>= VALUES.len()` means
/// the key is absent), so about one set in twenty is empty.
type TagSpec = [u8; 3];

#[derive(Debug, Clone)]
enum Op {
    Intern(u8, TagSpec),
    Put(u8, TagSpec, i64, f64),
    Lookup(u8, TagSpec),
}

fn tag_spec() -> impl Strategy<Value = TagSpec> {
    (0u8..8, 0u8..8, 0u8..8).prop_map(|(a, b, c)| [a, b, c])
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (0u8..6, tag_spec()).prop_map(|(m, t)| Op::Intern(m, t)),
        3 => (0u8..6, tag_spec(), 0i64..100_000, -1e3f64..1e3)
            .prop_map(|(m, t, ts, v)| Op::Put(m, t, ts, v)),
        2 => (0u8..6, tag_spec()).prop_map(|(m, t)| Op::Lookup(m, t)),
    ]
}

fn metric(m: u8) -> &'static str {
    METRICS.get(usize::from(m)).copied().unwrap_or("m")
}

fn tags(spec: TagSpec) -> TagSet {
    KEYS.iter()
        .zip(spec)
        .filter_map(|(k, v)| Some((k.to_string(), VALUES.get(usize::from(v))?.to_string())))
        .collect()
}

/// Today's design, kept as the oracle: series keyed by their canonical key
/// string, ids in first-sight order.
#[derive(Debug, Default)]
struct Model {
    by_key: HashMap<String, SeriesId>,
    series: Vec<(String, TagSet)>,
    points: u64,
}

impl Model {
    fn intern(&mut self, metric: &str, tags: &TagSet) -> SeriesId {
        let next = SeriesId(self.series.len() as u32);
        let id = *self.by_key.entry(series_key(metric, tags)).or_insert(next);
        if id == next {
            self.series.push((metric.to_string(), tags.clone()));
        }
        id
    }
}

proptest! {
    #[test]
    fn pair_ids_match_string_keyed_ids(ops in proptest::collection::vec(op_strategy(), 1..64)) {
        let mut db = Tsdb::new();
        let mut model = Model::default();
        for op in &ops {
            match *op {
                Op::Intern(m, t) => {
                    let (metric, tags) = (metric(m), tags(t));
                    prop_assert_eq!(db.intern(metric, &tags), model.intern(metric, &tags), "{:?}", op);
                }
                Op::Put(m, t, ts, v) => {
                    let (metric, tags) = (metric(m), tags(t));
                    let p = DataPoint::new(metric, tags.clone(), Timestamp(ts), v)
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                    let id = model.intern(metric, &tags);
                    model.points += 1;
                    prop_assert_eq!(db.put(&p), id, "{:?}", op);
                }
                Op::Lookup(m, t) => {
                    let (metric, tags) = (metric(m), tags(t));
                    let want = model.by_key.get(&series_key(metric, &tags)).copied();
                    prop_assert_eq!(db.series_id(metric, &tags), want, "{:?}", op);
                }
            }
        }
        // The store holds every point written, and every series reads back
        // its own names and is found again by them.
        prop_assert_eq!(db.stats().series, model.series.len());
        prop_assert_eq!(db.stats().points, model.points);
        let mut by_metric: BTreeMap<&str, Vec<SeriesId>> = BTreeMap::new();
        for (i, (metric, tags)) in model.series.iter().enumerate() {
            let id = SeriesId(i as u32);
            prop_assert_eq!(db.metric(id), Some(metric.as_str()));
            prop_assert_eq!(db.tags(id), Some(tags));
            prop_assert_eq!(db.series_id(metric, tags), Some(id));
            by_metric.entry(metric.as_str()).or_default().push(id);
        }
        let unknown = SeriesId(model.series.len() as u32);
        prop_assert_eq!(db.metric(unknown), None);
        prop_assert_eq!(db.tags(unknown), None);
        for m in METRICS {
            let want = by_metric.get(m).map_or(&[][..], Vec::as_slice);
            prop_assert_eq!(db.series_for_metric(m), want, "{}", m);
        }
        prop_assert_eq!(db.metrics(), by_metric.keys().copied().collect::<Vec<_>>());
    }
}
