//! `ctt-benchmark`: the repo's end-to-end benchmark.
//!
//! Three ways to call it (see `README.md` beside this package):
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints, as the last line of standard
//!   output, one JSON object with `correct`, `attempted`, `failed` and
//!   `metrics` — the end-to-end metrics untraced, the per-layer metrics
//!   traced. This is the form `BENCHMARK.json` names.
//! * `--seed <n> [--seconds <s>] [--trace] [--repeat <N>] [--smoke]` runs
//!   every workload, each in a fresh child process of this binary, checks
//!   the runs against each other, prints every metric and writes a result
//!   file with the environment record.
//! * `--compare <a.json> <b.json>` compares two result files metric by
//!   metric against the bounds and fails on a regression.
//!
//! All layer numbers are taken from outside the program under test: by
//! timing calls into public functions and reading public stats.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod compare;
mod dashboard;
mod json;
mod layers;
mod measure;
mod metrics;
mod queries;
mod rng;
mod stations;
mod stats;
mod suite;
mod trace;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Workload;

/// Seconds of timed work per run when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;
/// Epochs whose sealed stores `bytes_per_point` is taken over: one city's
/// compression ratio moves a few percent with its seed, four average it.
const BYTES_PER_POINT_EPOCHS: usize = 4;
/// Simulated days the station ladder and its reference pipeline cover.
const LADDER_DAYS: i64 = 30;
/// Spans written to a trace file; the totals always cover every span.
const TRACE_FILE_SPANS: usize = 50_000;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--workload`: run just this one, in this process.
    pub workload: Option<String>,
    /// `--seed`: the only source of randomness.
    pub seed: u64,
    /// `--seconds`: timed work per run.
    pub seconds: f64,
    /// `--trace`: the traced run (per-layer metrics).
    pub trace: bool,
    /// `--repeat`: untraced runs per workload in suite mode.
    pub repeat: usize,
    /// `--smoke`: sizes ÷ 20, one epoch, checks only.
    pub smoke: bool,
    /// `--out`: result file of suite mode.
    pub out: Option<PathBuf>,
    /// `--compare a b`.
    pub compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str = "usage:
  ctt-benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>
  ctt-benchmark --seed <u64> [--seconds <s>] [--trace] [--repeat <N>] [--smoke] [--out <file>]
  ctt-benchmark --compare <a.json> <b.json>
workloads: city_solo fleet_100 dash_hot dash_cold live_mixed";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        smoke: false,
        out: None,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                let v = value(&mut it, flag)?;
                args.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value(&mut it, flag)?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                // `--trace 0|1` (the driver's form) or a bare `--trace`.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--repeat" => {
                let v = value(&mut it, flag)?;
                args.repeat = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| (1..=100).contains(&n))
                    .ok_or_else(|| format!("bad --repeat {v:?}"))?;
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--compare" => {
                let a = PathBuf::from(value(&mut it, flag)?);
                let b = PathBuf::from(value(&mut it, flag)?);
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Where result and trace files go: `out/` beside this package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A field of `/proc/self/status`, in the kernel's unit (kB for memory).
pub(crate) fn proc_status(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// One workload, in this process. Prints the info line and the result line;
/// returns whether every check passed.
fn run_one(workload: Workload, args: &Args) -> bool {
    let wall = Instant::now();
    let sizes = workload.sizes(args.smoke);
    let mut tracer = trace::Tracer::new(false);
    let mut out = workloads::run(&sizes, args.seed, args.seconds, args.trace, &mut tracer);

    let values: Vec<(&'static str, f64)> = if args.trace {
        let days = if args.smoke { 2 } else { LADDER_DAYS };
        let city = workloads::deployments(sizes.cities).swap_remove(0);
        let (ladder, reference) = stations::ladder(
            &city,
            stations::ladder_seed(args.seed),
            days,
            &mut tracer,
            &mut out.checks,
        );
        let probe_queries = stations::class_probe(&reference, days, &mut tracer, &mut out.checks);
        out.meas.failed += probe_queries.failed;
        drop(reference);
        let probe = stations::runner_probe(&sizes, args.seed, &mut tracer, &mut out.checks);
        let untraced = stats::median(&out.rate_untraced);
        let run = layers::TracedRun {
            counts: out.layer_counts.take().unwrap_or_default(),
            probe,
            ladder,
            overhead_pct: if untraced > 0.0 {
                (untraced - stats::median(&out.rate_traced)) / untraced * 100.0
            } else {
                0.0
            },
            svg_bytes: out.svg_bytes,
        };
        let path = out_dir().join(format!("trace-{}.json", workload.name()));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, tracer.to_json(TRACE_FILE_SPANS).render()));
        if let Err(e) = written {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        layers::per_layer(&tracer, &run)
    } else {
        let mut values = out.meas.end_to_end();
        // A fixed prefix of epochs, so the value is a pure function of the
        // seed however many epochs the machine fits into `--seconds`.
        let prefix = out.digests.len().min(BYTES_PER_POINT_EPOCHS);
        values.push((
            "bytes_per_point",
            workloads::Digest::bytes_per_point(&out.digests[..prefix]),
        ));
        values.push(("peak_rss_mb", proc_status("VmHWM").unwrap_or(0.0) / 1024.0));
        values
    };

    for failure in out.checks.failures() {
        eprintln!("check failed: {failure}");
    }
    let correct = out.checks.ok() && out.meas.failed == 0;
    let nums = |v: &mut dyn Iterator<Item = f64>| Json::Arr(v.map(Json::Num).collect());
    let info = Json::obj([
        ("workload", Json::str(workload.name())),
        ("seed", Json::Num(args.seed as f64)),
        ("epochs", Json::Num(out.digests.len() as f64)),
        ("timed_s", Json::Num(out.meas.timed_ns as f64 / 1e9)),
        ("wall_s", Json::Num(wall.elapsed().as_secs_f64())),
        ("uplinks", Json::Num(out.meas.uplinks as f64)),
        ("queries", Json::Num(out.meas.queries as f64)),
        ("refreshes", Json::Num(out.meas.refresh_ms.len() as f64)),
        ("setup_s", nums(&mut out.meas.setup_s.iter().copied())),
        (
            "digests",
            Json::Arr(
                out.digests
                    .iter()
                    .take(2)
                    .map(|d| nums(&mut d.to_vec().into_iter().map(|n| n as f64)))
                    .collect(),
            ),
        ),
    ]);
    println!("info: {}", info.render());
    let metrics = values.iter().map(|&(name, value)| {
        let unit = metrics::find(name).map_or("", |m| m.unit);
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    });
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.meas.attempted.max(1) as f64)),
        ("failed", Json::Num(out.meas.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.render());
    correct
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some((a, b)) = &args.compare {
        compare::run(a, b)
    } else if let Some(name) = &args.workload {
        match Workload::parse(name) {
            Some(w) => run_one(w, &args),
            None => {
                eprintln!("unknown workload {name:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    } else {
        suite::run(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    #[test]
    fn parses_the_drivers_form() {
        let a = parse("--workload dash_hot --seed 7 --seconds 10 --trace 0").expect("valid");
        assert_eq!(a.workload.as_deref(), Some("dash_hot"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, false));
        let a = parse("--workload dash_hot --seed 7 --seconds 10 --trace 1").expect("valid");
        assert!(a.trace);
    }

    #[test]
    fn parses_the_suite_form_and_rejects_nonsense() {
        let a = parse("--seed 43 --trace --repeat 3 --smoke").expect("valid");
        assert!(a.trace && a.smoke && a.workload.is_none());
        assert_eq!((a.seed, a.repeat), (43, 3));
        for bad in [
            "--seed x",
            "--seconds -1",
            "--repeat 0",
            "--frobnicate",
            "--seed",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn default_seconds_is_the_manifests_run_seconds() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let manifest =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses");
        assert_eq!(
            manifest.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
