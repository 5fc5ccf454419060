//! CI gate for the criterion JSON reports: one table, one evaluator.
//!
//! `bench_check [DIR]` reads every report [`GATES`] names from `DIR`
//! (default `.`), prints each gate with its measured value, and exits 1 if
//! any fails. A missing or empty report, a non-finite or non-positive value
//! and an absent row (a renamed one, say) all fail the gates that read
//! them. The reader is hand-rolled (std-only) for the shim's two row shapes,
//! one object per line: `{"name", "mean_ns_per_iter", ..}` and, from
//! `bench_pair`, `{"name": A, "versus": B, "median_ratio", "pairs"}`.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// How a gate reads its value from the report.
#[derive(Debug, Clone, Copy)]
enum Statistic {
    /// The paired row A vs B: the median over pairs of A's time ÷ B's time.
    PairedMedian,
    /// One figure the bench computed itself: A ÷ B, or A alone when the
    /// gate names no B.
    Reported,
}

/// The bound a gate's value must meet.
#[derive(Debug, Clone, Copy)]
enum Bound {
    AtLeast(f64),
    AtMost(f64),
    Below(f64),
}

impl Bound {
    fn holds(self, value: f64) -> bool {
        match self {
            Bound::AtLeast(b) => value >= b,
            Bound::AtMost(b) => value <= b,
            Bound::Below(b) => value < b,
        }
    }
}

/// One row of the gate table.
struct Gate {
    report: &'static str,
    a: &'static str,
    b: Option<&'static str>,
    statistic: Statistic,
    bound: Bound,
    noise: &'static str,
    rationale: &'static str,
}

const PAIRED: &str = "median of interleaved A/B pairs, order alternating per pair";
const ONE_REPLAY: &str = "one replay's percentile, not resampled: the bound carries the margin";

use Bound::{AtLeast, AtMost, Below};
use Statistic::{PairedMedian, Reported};

/// Every gate, one row each. Values are times in ns, so a throughput gate
/// reads "slow side ÷ fast side".
#[rustfmt::skip]
const GATES: &[Gate] = &[
    Gate { report: "BENCH_ingest.json", a: "ingest_uplinks/put_batch", b: Some("ingest_uplinks/handles"),
        statistic: PairedMedian, bound: AtLeast(2.0), noise: PAIRED,
        rationale: "appending by the store's own SeriesId keeps 2x string-keyed put_batch on uplink-shaped input" },
    Gate { report: "BENCH_query.json", a: "query_downsample_aggregate/raw",
        b: Some("query_downsample_aggregate/rollup"), statistic: PairedMedian, bound: AtLeast(2.5), noise: PAIRED,
        rationale: "cache off on both; 3x until byte-gulp BitReader reads cut raw decode ~25 %" },
    Gate { report: "BENCH_obs.json", a: "obs/off/2000", b: Some("obs/on/2000"),
        statistic: PairedMedian, bound: AtLeast(0.80), noise: PAIRED,
        rationale: "90 %, then 85 %, until packed heap keys cut the bare pop ~40 % (same record cost)" },
    Gate { report: "BENCH_overload.json", a: "overload/spike_bounded", b: Some("overload/healthy"),
        statistic: PairedMedian, bound: AtMost(30.0), noise: PAIRED,
        rationale: "surviving a x100 spike with backpressure costs a bounded multiple of healthy" },
    Gate { report: "BENCH_query_multiuser.json", a: "multiuser/served_p95", b: Some("multiuser/raw_p95"),
        statistic: Reported, bound: Below(1.0), noise: ONE_REPLAY,
        rationale: "the serving stack wins where dashboard users live" },
    Gate { report: "BENCH_query_multiuser.json", a: "multiuser/served_p99", b: Some("multiuser/raw_p99"),
        statistic: Reported, bound: AtMost(1.5), noise: ONE_REPLAY,
        rationale: "full scans rollups cannot serve rule the tail; cache bookkeeping may add half" },
    Gate { report: "BENCH_query_multiuser.json", a: "multiuser/served_p99", b: None,
        statistic: Reported, bound: AtMost(100e6), noise: ONE_REPLAY,
        rationale: "an absolute 100 ms cap on an interactive dashboard's tail" },
];

/// One report row: its name, the B row of a paired row, and its value
/// (`median_ratio` for a pair, `mean_ns_per_iter` otherwise).
struct Row(String, Option<String>, f64);

/// A string field of one JSON object line.
fn str_field(obj: &str, key: &str) -> Option<String> {
    let rest = &obj[obj.find(&format!("\"{key}\": \""))? + key.len() + 5..];
    Some(rest[..rest.find('"')?].to_string())
}

/// A numeric field of one JSON object line (`NaN` and `inf` parse, so
/// the caller can refuse them).
fn num_field(obj: &str, key: &str) -> Option<f64> {
    let rest = &obj[obj.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn parse_report(text: &str) -> Result<Vec<Row>, String> {
    if !text.contains("\"benchmarks\"") {
        return Err("missing \"benchmarks\" key".into());
    }
    let mut rows = Vec::new();
    for line in text.lines().map(str::trim) {
        if !line.starts_with('{') || !line.contains("\"name\"") {
            continue;
        }
        let name = str_field(line, "name").ok_or_else(|| format!("object without name: {line}"))?;
        let versus = str_field(line, "versus");
        let value = num_field(line, "median_ratio").or_else(|| num_field(line, "mean_ns_per_iter"));
        match value {
            Some(v) if v.is_finite() && v > 0.0 => rows.push(Row(name, versus, v)),
            _ => return Err(format!("'{name}' has no finite positive value: {line}")),
        }
    }
    if rows.is_empty() {
        return Err("report contains zero benchmarks".into());
    }
    Ok(rows)
}

/// The gate's value from its report's rows.
fn measure(gate: &Gate, rows: &[Row]) -> Result<f64, String> {
    let find = |name: &str, versus: Option<&str>| {
        rows.iter()
            .find(|r| r.0 == name && r.1.as_deref() == versus)
            .map(|r| r.2)
            .ok_or_else(|| match versus {
                Some(b) => format!("no paired row {name} vs {b}"),
                None => format!("no row {name}"),
            })
    };
    match (gate.statistic, gate.b) {
        (PairedMedian, b) => find(gate.a, b),
        (Reported, Some(b)) => Ok(find(gate.a, None)? / find(b, None)?),
        (Reported, None) => find(gate.a, None),
    }
}

/// Evaluate every gate against the reports `load` returns by file name:
/// one printable line per gate, with whether it passed.
fn check(gates: &[Gate], load: impl Fn(&str) -> Result<String, String>) -> Vec<(bool, String)> {
    let mut reports = BTreeMap::new();
    let mut out = Vec::new();
    for g in gates {
        let rows = reports
            .entry(g.report)
            .or_insert_with(|| load(g.report).and_then(|text| parse_report(&text)));
        let value = match rows {
            Ok(rows) => measure(g, rows),
            Err(e) => Err(format!("{}: {e}", g.report)),
        };
        let pass = value.as_ref().is_ok_and(|&v| g.bound.holds(v));
        let shown = value.map_or_else(|e| e, |v| format!("{v:.3}"));
        #[rustfmt::skip]
        let Gate { a, b, statistic, bound, noise, rationale, .. } = g;
        let b = b.map(|b| format!(" / {b}")).unwrap_or_default();
        let verdict = if pass { "ok  " } else { "FAIL" };
        out.push((
            pass,
            format!("{verdict} {a}{b} ({statistic:?}) = {shown}, bound {bound:?}\n    noise: {noise}\n    why: {rationale}"),
        ));
    }
    out
}

fn main() -> ExitCode {
    let dir = std::env::args().nth(1).unwrap_or_else(|| ".".into());
    let load = |name: &str| {
        let path = std::path::Path::new(&dir).join(name);
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let lines = check(GATES, load);
    for (_, line) in &lines {
        println!("bench_check: {line}");
    }
    let failed = lines.iter().filter(|(pass, _)| !pass).count();
    println!("bench_check: {failed} of {} gates fail", lines.len());
    ExitCode::from(u8::from(failed > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(name: &str, ns: &str) -> String {
        format!("{{\"name\": \"{name}\", \"mean_ns_per_iter\": {ns}, \"samples\": 1}}")
    }

    fn pair(a: &str, b: &str, ratio: &str) -> String {
        format!(
            "{{\"name\": \"{a}\", \"versus\": \"{b}\", \"median_ratio\": {ratio}, \"pairs\": 10}}"
        )
    }

    fn report(rows: &[String]) -> String {
        format!(
            "{{\n  \"benchmarks\": [\n    {}\n  ]\n}}\n",
            rows.join(",\n    ")
        )
    }

    /// Reports on which every gate passes, shaped as the shim writes them.
    fn passing() -> BTreeMap<&'static str, String> {
        let multiuser = [
            ("served_p50", "500000.0"),
            ("served_p95", "800000.0"),
            ("served_p99", "1050000.0"),
            ("raw_p50", "2100000.0"),
            ("raw_p95", "2300000.0"),
            ("raw_p99", "2400000.0"),
        ]
        .map(|(n, v)| plain(&format!("multiuser/{n}"), v));
        BTreeMap::from([
            (
                "BENCH_ingest.json",
                report(&[pair(
                    "ingest_uplinks/put_batch",
                    "ingest_uplinks/handles",
                    "2.54",
                )]),
            ),
            (
                "BENCH_query.json",
                report(&[pair(
                    "query_downsample_aggregate/raw",
                    "query_downsample_aggregate/rollup",
                    "3.81",
                )]),
            ),
            (
                "BENCH_obs.json",
                report(&[
                    pair("obs/off/200", "obs/on/200", "0.88"),
                    pair("obs/off/2000", "obs/on/2000", "0.86"),
                ]),
            ),
            (
                "BENCH_overload.json",
                report(&[pair("overload/spike_bounded", "overload/healthy", "15.0")]),
            ),
            ("BENCH_query_multiuser.json", report(&multiuser)),
        ])
    }

    /// Run the table over `reports`; return the failing lines.
    fn failures(reports: &BTreeMap<&'static str, String>) -> Vec<String> {
        let load = |name: &str| {
            reports
                .get(name)
                .cloned()
                .ok_or_else(|| format!("no report {name}"))
        };
        check(GATES, load)
            .into_iter()
            .filter(|(pass, _)| !pass)
            .map(|(_, line)| line)
            .collect()
    }

    fn edit(report: &'static str, from: &str, to: &str) -> BTreeMap<&'static str, String> {
        let mut reports = passing();
        let text = reports.get_mut(report).expect("known report");
        assert!(text.contains(from), "{from} not in {report}");
        *text = text.replace(from, to);
        reports
    }

    #[test]
    fn every_gate_passes_on_good_reports() {
        assert_eq!(failures(&passing()), Vec::<String>::new());
        assert!(GATES
            .iter()
            .all(|g| matches!(g.statistic, Reported) || g.b.is_some()));
    }

    #[test]
    fn each_kind_of_bound_fails() {
        for (report, from, to, gate) in [
            (
                "BENCH_ingest.json",
                "\"median_ratio\": 2.54",
                "\"median_ratio\": 1.99",
                "ingest_uplinks/put_batch /",
            ),
            (
                "BENCH_overload.json",
                "\"median_ratio\": 15.0",
                "\"median_ratio\": 30.5",
                "overload/spike_bounded /",
            ),
            (
                "BENCH_query_multiuser.json",
                "800000.0",
                "2300000.0",
                "multiuser/served_p95 /",
            ),
            (
                "BENCH_query_multiuser.json",
                "1050000.0",
                "3700000.0",
                "multiuser/served_p99 /",
            ),
        ] {
            let failed = failures(&edit(report, from, to));
            assert_eq!(failed.len(), 1, "{failed:?}");
            assert!(failed[0].contains(gate), "{failed:?}");
        }
        // Past the absolute cap, but within 1.5x of a slow raw p99.
        let mut reports = edit("BENCH_query_multiuser.json", "1050000.0", "101000000.0");
        let text = reports
            .get_mut("BENCH_query_multiuser.json")
            .expect("known report");
        *text = text.replace("2400000.0", "90000000.0");
        let failed = failures(&reports);
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].contains(
            "multiuser/served_p99 (Reported) = 101000000.000, bound AtMost(100000000.0)"
        ));
    }

    #[test]
    fn a_renamed_row_fails() {
        let failed = failures(&edit(
            "BENCH_obs.json",
            "\"obs/on/2000\"",
            "\"obs/on_fast/2000\"",
        ));
        assert_eq!(failed.len(), 1);
        assert!(
            failed[0].contains("no paired row obs/off/2000 vs obs/on/2000"),
            "{failed:?}"
        );
        // A plain row where the gate reads a pair does not count either.
        let failed = failures(&edit(
            "BENCH_query.json",
            &pair(
                "query_downsample_aggregate/raw",
                "query_downsample_aggregate/rollup",
                "3.81",
            ),
            &plain("query_downsample_aggregate/raw", "3.81"),
        ));
        assert_eq!(failed.len(), 1, "{failed:?}");
    }

    #[test]
    fn a_missing_or_empty_report_fails_its_gates() {
        let mut reports = passing();
        reports.remove("BENCH_query_multiuser.json");
        let failed = failures(&reports);
        assert_eq!(failed.len(), 3);
        assert!(failed
            .iter()
            .all(|l| l.contains("no report BENCH_query_multiuser.json")));
        reports = passing();
        reports.insert("BENCH_overload.json", report(&[]));
        let failed = failures(&reports);
        assert_eq!(failed.len(), 1);
        assert!(failed[0].contains("zero benchmarks"), "{failed:?}");
    }

    #[test]
    fn a_non_finite_value_fails_the_whole_report() {
        for bad in ["NaN", "inf", "0.0"] {
            let failed = failures(&edit("BENCH_query_multiuser.json", "500000.0", bad));
            assert_eq!(failed.len(), 3, "{bad}: {failed:?}");
            assert!(failed
                .iter()
                .all(|l| l.contains("no finite positive value")));
        }
    }
}
