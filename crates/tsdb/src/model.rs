//! Data model: metrics, tags, data points (OpenTSDB-style).
//!
//! A series is identified by a metric name plus a set of tag key/value
//! pairs, e.g. `ctt.air.co2 {city=trondheim, device=70b3...}`. Names are
//! restricted to the OpenTSDB character set, so a series key renders
//! unambiguously.

use ctt_core::time::Timestamp;
use std::collections::BTreeMap;
use std::fmt;

/// Validates an OpenTSDB-style name (metric, tag key, tag value): a
/// non-empty run of name characters (ASCII alphanumerics plus `-`, `_`,
/// `.`, `/`).
pub fn is_valid_name(s: &str) -> bool {
    !s.is_empty() && s.chars().all(is_name_char)
}

/// The OpenTSDB name set: ASCII alphanumerics plus `-`, `_`, `.`, `/`. The
/// query cache escapes every other character, so its signatures stay
/// injective only while the two agree.
#[inline]
pub(crate) fn is_name_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | '/')
}

/// The naming rule of a series, shared by [`DataPoint::new`] and
/// [`crate::Tsdb::register`]: the metric, then every tag key and value in
/// the order given, must be a valid name. The first that is not is the
/// error.
pub(crate) fn check_series_names<'a>(
    metric: &str,
    tags: impl IntoIterator<Item = (&'a String, &'a String)>,
) -> Result<(), ModelError> {
    if !is_valid_name(metric) {
        return Err(ModelError::BadMetric(metric.to_string()));
    }
    match tags
        .into_iter()
        .find(|(k, v)| !is_valid_name(k) || !is_valid_name(v))
    {
        Some((k, v)) => Err(ModelError::BadTag(k.clone(), v.clone())),
        None => Ok(()),
    }
}

/// A sorted tag set. `BTreeMap` so the canonical form is deterministic.
pub type TagSet = BTreeMap<String, String>;

/// Errors constructing points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// Invalid metric name.
    BadMetric(String),
    /// Invalid tag key or value.
    BadTag(String, String),
    /// Non-finite value.
    BadValue,
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::BadMetric(m) => write!(f, "invalid metric name {m:?}"),
            ModelError::BadTag(k, v) => write!(f, "invalid tag {k:?}={v:?}"),
            ModelError::BadValue => f.write_str("value must be finite"),
        }
    }
}

impl std::error::Error for ModelError {}

/// One incoming data point.
#[derive(Debug, Clone, PartialEq)]
pub struct DataPoint {
    /// Metric name.
    pub metric: String,
    /// Tags (sorted).
    pub tags: TagSet,
    /// Observation time.
    pub time: Timestamp,
    /// Value (finite).
    pub value: f64,
}

impl DataPoint {
    /// Validated constructor.
    pub fn new(
        metric: impl Into<String>,
        tags: impl IntoIterator<Item = (String, String)>,
        time: Timestamp,
        value: f64,
    ) -> Result<DataPoint, ModelError> {
        let metric = metric.into();
        let tags: Vec<(String, String)> = tags.into_iter().collect();
        check_series_names(&metric, tags.iter().map(|(k, v)| (k, v)))?;
        if !value.is_finite() {
            return Err(ModelError::BadValue);
        }
        Ok(DataPoint {
            metric,
            tags: tags.into_iter().collect(),
            time,
            value,
        })
    }

    /// Canonical series key string: `metric{k1=v1,k2=v2}`.
    pub fn series_key(&self) -> String {
        series_key(&self.metric, &self.tags)
    }
}

/// Canonical series key for a metric + tag set.
pub fn series_key(metric: &str, tags: &TagSet) -> String {
    let mut s = String::with_capacity(metric.len() + 16 * tags.len() + 2);
    s.push_str(metric);
    s.push('{');
    for (i, (k, v)) in tags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(k);
        s.push('=');
        s.push_str(v);
    }
    s.push('}');
    s
}

/// A tag predicate in a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TagFilter {
    /// Tag must equal this value.
    Equals(String),
    /// Tag must be present with any value (OpenTSDB `*`) — also the
    /// group-by marker.
    Wildcard,
    /// Tag must equal one of these values (`v1|v2`).
    OneOf(Vec<String>),
}

impl TagFilter {
    /// Does a tag value satisfy the filter?
    pub fn matches(&self, value: &str) -> bool {
        match self {
            TagFilter::Equals(v) => v == value,
            TagFilter::Wildcard => true,
            TagFilter::OneOf(vs) => vs.iter().any(|v| v == value),
        }
    }

    /// Parse the OpenTSDB query syntax: `*`, `a|b|c`, or a literal.
    pub fn parse(s: &str) -> TagFilter {
        if s == "*" {
            TagFilter::Wildcard
        } else if s.contains('|') {
            TagFilter::OneOf(s.split('|').map(str::to_string).collect())
        } else {
            TagFilter::Equals(s.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tags(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn name_validation() {
        assert!(is_valid_name("ctt.air.co2"));
        assert!(is_valid_name("a-b_c/d.e2"));
        assert!(!is_valid_name(""));
        assert!(!is_valid_name("has space"));
        assert!(!is_valid_name("has{brace"));
        assert!(!is_valid_name("ünïcode"));
    }

    #[test]
    fn datapoint_construction() {
        let p = DataPoint::new(
            "ctt.air.co2",
            tags(&[("city", "trondheim"), ("device", "node1")]),
            Timestamp(100),
            412.5,
        )
        .unwrap();
        assert_eq!(p.series_key(), "ctt.air.co2{city=trondheim,device=node1}");
    }

    #[test]
    fn tag_order_is_canonical() {
        let a = DataPoint::new("m", tags(&[("b", "2"), ("a", "1")]), Timestamp(0), 1.0).unwrap();
        let b = DataPoint::new("m", tags(&[("a", "1"), ("b", "2")]), Timestamp(0), 1.0).unwrap();
        assert_eq!(a.series_key(), b.series_key());
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            DataPoint::new("bad metric", vec![], Timestamp(0), 1.0),
            Err(ModelError::BadMetric(_))
        ));
        assert!(matches!(
            DataPoint::new("m", tags(&[("k", "bad value")]), Timestamp(0), 1.0),
            Err(ModelError::BadTag(_, _))
        ));
        assert!(matches!(
            DataPoint::new("m", vec![], Timestamp(0), f64::NAN),
            Err(ModelError::BadValue)
        ));
        assert!(matches!(
            DataPoint::new("m", vec![], Timestamp(0), f64::INFINITY),
            Err(ModelError::BadValue)
        ));
    }

    #[test]
    fn empty_tagset_key() {
        let p = DataPoint::new("m", vec![], Timestamp(0), 1.0).unwrap();
        assert_eq!(p.series_key(), "m{}");
    }

    #[test]
    fn tag_filters() {
        assert!(TagFilter::Equals("a".into()).matches("a"));
        assert!(!TagFilter::Equals("a".into()).matches("b"));
        assert!(TagFilter::Wildcard.matches("anything"));
        let one_of = TagFilter::OneOf(vec!["a".into(), "b".into()]);
        assert!(one_of.matches("a") && one_of.matches("b") && !one_of.matches("c"));
    }

    #[test]
    fn tag_filter_parse() {
        assert_eq!(TagFilter::parse("*"), TagFilter::Wildcard);
        assert_eq!(TagFilter::parse("x"), TagFilter::Equals("x".into()));
        assert_eq!(
            TagFilter::parse("a|b"),
            TagFilter::OneOf(vec!["a".into(), "b".into()])
        );
    }

    #[test]
    fn error_display() {
        assert!(ModelError::BadMetric("x y".into())
            .to_string()
            .contains("x y"));
        assert!(ModelError::BadTag("k".into(), "v v".into())
            .to_string()
            .contains('k'));
        assert!(ModelError::BadValue.to_string().contains("finite"));
    }
}
