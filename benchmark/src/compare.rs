//! `--compare a.json b.json`: the second result file against the first,
//! metric by metric and workload by workload.
//!
//! The rule, per end-to-end metric: the second median may be worse than the
//! first by at most the metric's bound, as a share of the first. Metrics
//! marked exact (pure functions of seed and sizes) must be equal when both
//! files used the same seed. Per-layer metrics have no bound: exact ones are
//! checked for equality, timings are printed for reading only.

use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};
use std::path::Path;

/// Outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Worse by this share (negative: better), within the bound.
    Within(f64),
    /// Worse by this share, beyond the bound.
    Regressed(f64),
    /// An exact metric that differs.
    Differs,
    /// A per-layer timing: the relative change, for reading only.
    Info(f64),
}

impl Verdict {
    /// Whether this outcome fails the comparison.
    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regressed(_) | Verdict::Differs)
    }
}

/// By what share of `base` the value `new` is worse (positive) or better
/// (negative), given the metric's direction.
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return if new == base { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// Compare one metric. `same_seed` enables the equality rule for exact
/// metrics; `bounded` says the metric is end-to-end.
pub fn judge(def: &MetricDef, bounded: bool, same_seed: bool, base: f64, new: f64) -> Verdict {
    if def.exact && same_seed {
        return if base == new {
            Verdict::Within(0.0)
        } else {
            Verdict::Differs
        };
    }
    let worse = worse_by(def.better, base, new);
    match (bounded, worse > def.bound) {
        (false, _) => Verdict::Info(worse),
        (true, true) => Verdict::Regressed(worse),
        (true, false) => Verdict::Within(worse),
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric_value(workload: &Json, section: &str, name: &str) -> Option<f64> {
    let m = workload.get(section)?.get(name)?;
    m.get("median").or_else(|| m.get("value"))?.as_f64()
}

/// Compare two result files; print one line per metric × workload; return
/// whether nothing failed.
pub fn run(a: &Path, b: &Path) -> bool {
    let (base, new) = match (load(a), load(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (x, y) => {
            for e in [x.err(), y.err()].into_iter().flatten() {
                eprintln!("{e}");
            }
            return false;
        }
    };
    let seed = |f: &Json| {
        f.get("env")
            .and_then(|e| e.get("seed"))
            .and_then(Json::as_f64)
    };
    let same_seed = seed(&base).is_some() && seed(&base) == seed(&new);
    if !same_seed {
        println!("seeds differ: exact metrics are compared by bound, not for equality");
    }
    println!(
        "{:<11} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    let mut failed = 0usize;
    let mut compared = 0usize;
    let empty: [(String, Json); 0] = [];
    let workloads = base
        .get("workloads")
        .and_then(Json::as_obj)
        .unwrap_or(&empty);
    for (name, wa) in workloads {
        let Some(wb) = new.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name:<11} missing from the second file");
            failed += 1;
            continue;
        };
        let sections = [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ];
        for (section, table, bounded) in sections {
            for def in table {
                let (Some(x), Some(y)) = (
                    metric_value(wa, section, def.name),
                    metric_value(wb, section, def.name),
                ) else {
                    continue;
                };
                let verdict = judge(def, bounded, same_seed, x, y);
                compared += 1;
                if verdict.fails() {
                    failed += 1;
                }
                let (worse, word) = match verdict {
                    Verdict::Within(w) => (w, "ok"),
                    Verdict::Regressed(w) => (w, "REGRESSED"),
                    Verdict::Differs => (worse_by(def.better, x, y), "DIFFERS (exact)"),
                    Verdict::Info(w) => (w, "-"),
                };
                let bound = if bounded {
                    format!("{:.0}%", def.bound * 100.0)
                } else {
                    String::new()
                };
                println!(
                    "{name:<11} {:<24} {x:>14.4} {y:>14.4} {:>+8.2}% {bound:>7}  {word}",
                    def.name,
                    worse * 100.0
                );
            }
        }
    }
    println!("{compared} comparisons, {failed} failed");
    failed == 0 && compared > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    #[test]
    fn direction_decides_what_worse_means() {
        assert!((worse_by(Better::Lower, 100.0, 108.0) - 0.08).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 120.0) + 0.20).abs() < 1e-12);
        assert_eq!(worse_by(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worse_by(Better::Lower, 0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn bounded_metrics_fail_only_beyond_their_bound() {
        let rate = find("uplinks_per_s").expect("listed");
        assert_eq!(rate.bound, 0.25);
        assert!(!judge(rate, true, true, 1000.0, 755.0).fails());
        assert!(judge(rate, true, true, 1000.0, 745.0).fails());
        // Getting better never fails, by any margin.
        assert!(!judge(rate, true, true, 1000.0, 5000.0).fails());
        let p50 = find("query_p50_us").expect("listed");
        assert!(judge(p50, true, true, 10.0, 12.6).fails());
        assert!(!judge(p50, true, true, 10.0, 12.4).fails());
    }

    #[test]
    fn exact_metrics_must_repeat_for_the_same_seed() {
        let bpp = find("bytes_per_point").expect("listed");
        assert!(bpp.exact);
        assert!(!judge(bpp, true, true, 13.275, 13.275).fails());
        assert_eq!(judge(bpp, true, true, 13.275, 13.276), Verdict::Differs);
        // Different seeds: the bound applies instead.
        assert!(!judge(bpp, true, false, 13.275, 13.3).fails());
        assert!(judge(bpp, true, false, 13.275, 14.0).fails());
        let count = find("core.readings").expect("listed");
        assert_eq!(judge(count, false, true, 100.0, 101.0), Verdict::Differs);
    }

    #[test]
    fn per_layer_timings_never_fail() {
        let t = find("pipeline.run_ns").expect("listed");
        assert_eq!(judge(t, false, true, 10.0, 30.0), Verdict::Info(2.0));
        assert!(!judge(t, false, true, 10.0, 30.0).fails());
    }
}
