//! Suite mode: every workload, each run in a fresh child process of this
//! binary, checked against each other, printed, and written to a result
//! file that carries the environment record.

use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, spread};
use crate::workloads::Workload;
use crate::{out_dir, Args};
use std::process::Command;
use std::time::Instant;

/// One child run, parsed.
#[derive(Debug)]
struct ChildRun {
    info: Json,
    result: Json,
    exit_ok: bool,
}

fn run_child(workload: Workload, args: &Args, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end; its stderr goes to ours.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut info = None;
    let mut result = None;
    for line in stdout.lines() {
        match line.strip_prefix("info: ") {
            Some(rest) => info = Json::parse(rest).ok(),
            None if line.starts_with('{') => result = Json::parse(line).ok(),
            None => {}
        }
    }
    match (info, result) {
        (Some(info), Some(result)) => Ok(ChildRun {
            info,
            result,
            exit_ok: out.status.success(),
        }),
        _ => Err(format!(
            "{}: child printed no result (exit {:?})",
            workload.name(),
            out.status.code()
        )),
    }
}

fn metric_of(run: &ChildRun, name: &str) -> Option<f64> {
    run.result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every listed metric is present with the listed unit; returns complaints.
fn missing_metrics(run: &ChildRun, table: &[MetricDef]) -> Vec<String> {
    let mut missing: Vec<String> = table
        .iter()
        .filter(|def| {
            let unit = run
                .result
                .get("metrics")
                .and_then(|m| m.get(def.name))
                .and_then(|m| m.get("unit"))
                .and_then(Json::as_str);
            metric_of(run, def.name).is_none() || unit != Some(def.unit)
        })
        .map(|def| def.name.to_string())
        .collect();
    let listed = run
        .result
        .get("metrics")
        .and_then(Json::as_obj)
        .map_or(0, <[_]>::len);
    if listed != table.len() {
        missing.push(format!("{listed} metrics printed, {} listed", table.len()));
    }
    missing
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn sizes_json(workload: Workload, smoke: bool) -> Json {
    let s = workload.sizes(smoke);
    Json::obj([
        ("cities", Json::Num(s.cities as f64)),
        (
            "runner",
            Json::str(match s.fleet {
                None => "solo Pipeline::run_until".to_string(),
                Some(c) => format!("Fleet shards={} parallel={}", c.shards, c.parallel),
            }),
        ),
        ("segment_s", Json::Num(s.segment.as_seconds() as f64)),
        ("segments_per_epoch", Json::Num(s.segments as f64)),
        ("refreshes_per_segment", Json::Num(s.refresh_cities as f64)),
        ("archive_days", Json::Num(s.archive_days as f64)),
        ("queries_per_epoch", Json::Num(s.queries as f64)),
        ("refreshes_per_epoch", Json::Num(s.refreshes as f64)),
        ("loop", Json::str("closed, 1 client")),
    ])
}

/// Run the suite. Returns whether every run was correct, every metric was
/// present, and the runs agreed with each other.
pub fn run(args: &Args) -> bool {
    let started = Instant::now();
    let mut complaints: Vec<String> = Vec::new();
    let mut workloads_json: Vec<(String, Json)> = Vec::new();
    let mut fleet_threads = 0.0f64;
    // A smoke pass checks; it does not time.
    let args = &Args {
        seconds: if args.smoke { 0.0 } else { args.seconds },
        trace: args.trace || args.smoke,
        ..args.clone()
    };

    for workload in Workload::ALL {
        let name = workload.name();
        let workload_started = Instant::now();
        let mut runs: Vec<ChildRun> = Vec::new();
        for _ in 0..args.repeat {
            match run_child(workload, args, false) {
                Ok(r) => runs.push(r),
                Err(e) => complaints.push(e),
            }
        }
        let traced = if args.trace {
            run_child(workload, args, true)
                .map_err(|e| complaints.push(e))
                .ok()
        } else {
            None
        };

        for (run, table) in runs
            .iter()
            .map(|r| (r, END_TO_END))
            .chain(traced.iter().map(|r| (r, PER_LAYER)))
        {
            if !run.exit_ok || run.result.get("correct") != Some(&Json::Bool(true)) {
                complaints.push(format!("{name}: a run reported incorrect outputs"));
            }
            for m in missing_metrics(run, table) {
                complaints.push(format!("{name}: metric {m} missing or mis-labelled"));
            }
        }
        // Counts must repeat exactly: across repeats and between the
        // untraced and the traced run, epoch by epoch.
        let digests = |r: &ChildRun| -> Vec<String> {
            r.info
                .get("digests")
                .and_then(Json::as_arr)
                .map(|a| a.iter().map(Json::render).collect())
                .unwrap_or_default()
        };
        if let Some(first) = runs.first().map(digests) {
            for other in runs.iter().skip(1).chain(traced.iter()).map(digests) {
                if first.iter().zip(&other).any(|(a, b)| a != b) {
                    complaints.push(format!(
                        "{name}: epoch counts differ between runs of one seed: {first:?} vs {other:?}"
                    ));
                }
            }
        }

        println!(
            "== {name} ({:.1} s)",
            workload_started.elapsed().as_secs_f64()
        );
        let mut e2e_json = Vec::new();
        for def in END_TO_END {
            let values: Vec<f64> = runs.iter().filter_map(|r| metric_of(r, def.name)).collect();
            if values.is_empty() {
                continue;
            }
            let mut entry = vec![
                ("median", Json::Num(median(&values))),
                ("unit", Json::str(def.unit)),
                (
                    "runs",
                    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                ),
            ];
            let mut line = format!("  {:<24} {:>16.4} {}", def.name, median(&values), def.unit);
            if let (Some((q1, q3)), Some(s)) = (quartiles(&values), spread(&values)) {
                entry.push(("q1", Json::Num(q1)));
                entry.push(("q3", Json::Num(q3)));
                line += &format!(
                    "   [q1 {q1:.4}, q3 {q3:.4}, spread {:.1}% of bound {:.0}%]",
                    s * 100.0,
                    def.bound * 100.0
                );
            }
            println!("{line}");
            e2e_json.push((def.name, Json::obj(entry)));
        }
        let mut layer_json = Vec::new();
        if let Some(t) = &traced {
            for def in PER_LAYER {
                if let Some(v) = metric_of(t, def.name) {
                    println!("  {:<24} {v:>16.4} {}", def.name, def.unit);
                    layer_json.push((
                        def.name,
                        Json::obj([("value", Json::Num(v)), ("unit", Json::str(def.unit))]),
                    ));
                }
            }
            fleet_threads = fleet_threads.max(metric_of(t, "fleet.threads").unwrap_or(0.0));
        }
        let sum = |key: &str| -> f64 {
            runs.iter()
                .filter_map(|r| r.result.get(key).and_then(Json::as_f64))
                .sum()
        };
        let infos = |key: &str| -> Json {
            Json::Arr(
                runs.iter()
                    .chain(traced.iter())
                    .filter_map(|r| r.info.get(key).cloned())
                    .collect(),
            )
        };
        workloads_json.push((
            name.to_string(),
            Json::obj([
                ("sizes", sizes_json(workload, args.smoke)),
                ("attempted", Json::Num(sum("attempted"))),
                ("failed", Json::Num(sum("failed"))),
                ("wall_s", infos("wall_s")),
                ("timed_s", infos("timed_s")),
                ("epochs", infos("epochs")),
                ("end_to_end", Json::obj(e2e_json)),
                ("per_layer", Json::obj(layer_json)),
            ]),
        ));
    }

    let env = Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("fleet.threads", Json::Num(fleet_threads)),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("repeat", Json::Num(args.repeat as f64)),
        ("smoke", Json::Bool(args.smoke)),
        ("total_wall_s", Json::Num(started.elapsed().as_secs_f64())),
    ]);
    let file = Json::obj([("env", env), ("workloads", Json::Obj(workloads_json))]);
    let path = args.out.clone().unwrap_or_else(|| {
        let stem = if args.smoke { "smoke" } else { "result" };
        out_dir().join(format!("{stem}-{}.json", args.seed))
    });
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, file.render_pretty()));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => complaints.push(format!("cannot write {}: {e}", path.display())),
    }
    for c in &complaints {
        eprintln!("FAILED: {c}");
    }
    println!(
        "{} in {:.1} s",
        if complaints.is_empty() {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        },
        started.elapsed().as_secs_f64()
    );
    complaints.is_empty()
}
