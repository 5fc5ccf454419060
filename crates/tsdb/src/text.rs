//! Text import/export in the OpenTSDB telnet `put` format:
//!
//! ```text
//! put ctt.air.co2 1483228800 412.5 device=70b3d50000000001 city=trondheim
//! ```
//!
//! Used for seeding test fixtures, dumping the store for inspection, and
//! the demo's "browse historic data" flows.

use crate::model::{DataPoint, ModelError};
use crate::query::execute;
use crate::query::Query;
use crate::store::Tsdb;
use ctt_core::time::Timestamp;
use std::fmt;
use std::fmt::Write as _;

/// Errors from [`parse_line`].
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Line does not start with `put`.
    NotPut,
    /// Missing one of metric/timestamp/value.
    MissingField(&'static str),
    /// Unparseable timestamp or value.
    BadNumber(String),
    /// Tag without `=`.
    BadTag(String),
    /// Rejected by the data model.
    Model(ModelError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::NotPut => f.write_str("line must start with 'put'"),
            ParseError::MissingField(w) => write!(f, "missing {w}"),
            ParseError::BadNumber(w) => write!(f, "unparseable {w}"),
            ParseError::BadTag(t) => write!(f, "tag without '=': {t:?}"),
            ParseError::Model(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parse one `put` line.
pub fn parse_line(line: &str) -> Result<DataPoint, ParseError> {
    let mut parts = line.split_whitespace();
    if parts.next() != Some("put") {
        return Err(ParseError::NotPut);
    }
    let metric = parts.next().ok_or(ParseError::MissingField("metric"))?;
    let ts: i64 = parts
        .next()
        .ok_or(ParseError::MissingField("timestamp"))?
        .parse()
        .map_err(|_| ParseError::BadNumber("timestamp".to_string()))?;
    let value: f64 = parts
        .next()
        .ok_or(ParseError::MissingField("value"))?
        .parse()
        .map_err(|_| ParseError::BadNumber("value".to_string()))?;
    let mut tags = Vec::new();
    for kv in parts {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| ParseError::BadTag(kv.to_string()))?;
        tags.push((k.to_string(), v.to_string()));
    }
    DataPoint::new(metric, tags, Timestamp(ts), value).map_err(ParseError::Model)
}

/// Format one point as a `put` line.
pub fn format_line(p: &DataPoint) -> String {
    let mut s = format!("put {} {} {}", p.metric, p.time.as_seconds(), p.value);
    for (k, v) in &p.tags {
        let _ = write!(s, " {k}={v}");
    }
    s
}

/// Import a multi-line text dump; returns (imported, errors).
pub fn import(db: &mut Tsdb, text: &str) -> (usize, Vec<(usize, ParseError)>) {
    let mut ok = 0;
    let mut errors = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_line(line) {
            Ok(p) => {
                db.put(&p);
                ok += 1;
            }
            Err(e) => errors.push((i + 1, e)),
        }
    }
    (ok, errors)
}

/// Export every point of a metric within a range as `put` lines. Series
/// whose chunks fail to decode are skipped (partial export over no export).
pub fn export(db: &Tsdb, metric: &str, start: Timestamp, end: Timestamp) -> String {
    let mut out = String::new();
    for &id in db.series_for_metric(metric) {
        let Some(tags) = db.tags(id).cloned() else {
            continue;
        };
        for (t, v) in db.read(id, start, end).unwrap_or_default() {
            let p = DataPoint {
                metric: metric.to_string(),
                tags: tags.clone(),
                time: t,
                value: v,
            };
            out.push_str(&format_line(&p));
            out.push('\n');
        }
    }
    out
}

/// Render a query result as an aligned text table (for terminal demos).
pub fn render_table(db: &Tsdb, q: &Query) -> String {
    let mut out = String::new();
    let results = match execute(db, q) {
        Ok(results) => results,
        Err(e) => {
            let _ = writeln!(out, "query failed: {e}");
            return out;
        }
    };
    let _ = writeln!(out, "metric: {}  [{} .. {})", q.metric, q.start, q.end);
    for r in results {
        let group: Vec<String> = r.group.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(
            out,
            "-- group {{{}}} ({} series)",
            group.join(","),
            r.source_series
        );
        for (t, v) in &r.series.points {
            let _ = writeln!(out, "{t}  {v:.3}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::SeriesId;

    #[test]
    fn parse_basic_line() {
        let p = parse_line("put ctt.air.co2 1483228800 412.5 device=n1 city=trd").unwrap();
        assert_eq!(p.metric, "ctt.air.co2");
        assert_eq!(p.time, Timestamp(1_483_228_800));
        assert_eq!(p.value, 412.5);
        assert_eq!(p.tags.len(), 2);
    }

    #[test]
    fn parse_no_tags() {
        let p = parse_line("put m 0 1.0").unwrap();
        assert!(p.tags.is_empty());
    }

    #[test]
    fn parse_errors() {
        assert_eq!(parse_line("get m 0 1"), Err(ParseError::NotPut));
        assert_eq!(parse_line("put"), Err(ParseError::MissingField("metric")));
        assert_eq!(
            parse_line("put m"),
            Err(ParseError::MissingField("timestamp"))
        );
        assert_eq!(
            parse_line("put m 0"),
            Err(ParseError::MissingField("value"))
        );
        assert!(matches!(
            parse_line("put m x 1"),
            Err(ParseError::BadNumber(_))
        ));
        assert!(matches!(
            parse_line("put m 0 y"),
            Err(ParseError::BadNumber(_))
        ));
        assert!(matches!(
            parse_line("put m 0 1 notag"),
            Err(ParseError::BadTag(_))
        ));
        assert!(matches!(
            parse_line("put bad&metric 0 1"),
            Err(ParseError::Model(_))
        ));
    }

    #[test]
    fn format_parse_roundtrip() {
        let p = parse_line("put m 100 2.25 a=1 b=2").unwrap();
        let line = format_line(&p);
        let back = parse_line(&line).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn import_counts_and_reports_errors() {
        let mut db = Tsdb::new();
        let text =
            "\n# comment\nput m 0 1.0 d=a\nput m 300 2.0 d=a\nbogus line\nput m 600 3.0 d=a\n";
        let (ok, errs) = import(&mut db, text);
        assert_eq!(ok, 3);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].0, 5); // 1-based line number of "bogus line"
        assert_eq!(db.stats().points, 3);
    }

    #[test]
    fn export_import_roundtrip() {
        let mut db = Tsdb::new();
        let text = "put m 0 1.5 d=a\nput m 300 2.5 d=a\nput m 0 9.5 d=b\n";
        import(&mut db, text);
        let dump = export(&db, "m", Timestamp(0), Timestamp(10_000));
        let mut db2 = Tsdb::new();
        let (ok, errs) = import(&mut db2, &dump);
        assert_eq!(ok, 3);
        assert!(errs.is_empty());
        assert_eq!(db2.stats().points, 3);
        assert_eq!(
            db2.read(SeriesId(0), Timestamp(0), Timestamp(301))
                .unwrap()
                .len(),
            2
        );
    }

    /// Import one series' lines, seal, and read every point back. The three
    /// tests below put neighbours ≥ 2²⁶ s apart, which one Gorilla chunk
    /// cannot hold (27-bit first delta, `i32` delta-of-delta escape): the
    /// store must cut the buffer between them.
    fn import_seal_read(times: &[i64]) -> Vec<(Timestamp, f64)> {
        let mut db = Tsdb::new();
        let text: String = times
            .iter()
            .enumerate()
            .map(|(i, t)| format!("put m {t} {}\n", i + 1))
            .collect();
        assert_eq!(import(&mut db, &text), (times.len(), Vec::new()));
        db.seal_all();
        db.read(SeriesId(0), Timestamp(i64::MIN), Timestamp(i64::MAX))
            .unwrap()
    }

    fn numbered(times: &[i64]) -> Vec<(Timestamp, f64)> {
        (1..)
            .zip(times)
            .map(|(i, &t)| (Timestamp(t), f64::from(i)))
            .collect()
    }

    #[test]
    fn a_three_year_gap_after_the_first_point_round_trips() {
        let times = [0, 100_000_000, 100_000_300];
        assert_eq!(import_seal_read(&times), numbered(&times));
    }

    #[test]
    fn a_gap_wider_than_i32_after_a_steady_cadence_round_trips() {
        let times = [0, 300, 5_000_000_000];
        assert_eq!(import_seal_read(&times), numbered(&times));
    }

    #[test]
    fn the_first_delta_boundary_is_exact() {
        for gap in [(1 << 26) - 1, 1 << 26] {
            let times = [0, gap];
            assert_eq!(import_seal_read(&times), numbered(&times), "gap {gap}");
        }
    }

    #[test]
    fn render_table_smoke() {
        let mut db = Tsdb::new();
        import(&mut db, "put m 0 1.0 d=a\nput m 300 2.0 d=a\n");
        let q = Query::range("m", Timestamp(0), Timestamp(600)).group_by("d");
        let table = render_table(&db, &q);
        assert!(table.contains("metric: m"));
        assert!(table.contains("group {d=a}"));
        assert!(table.contains("1.000"));
    }
}
