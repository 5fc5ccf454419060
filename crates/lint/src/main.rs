//! `ctt-lint` binary: walk the workspace, lint every Rust source file with
//! the line rules (R1–R4) and the workspace semantic rules (R5, R7, R8), and
//! exit non-zero on violations. The rules, hot paths and entry points are
//! those of `LintConfig::default()`.
//!
//! Usage:
//!   cargo run -p ctt-lint [-- <workspace-root>] [--json-out <file>]
//!                         [--baseline <file>] [--budget-ms <ms>]
//!
//! * `--json-out <file>` — write the canonical JSON report there.
//! * `--baseline <file>` — diff findings against a committed baseline:
//!   exit non-zero only on findings *not* in the baseline ("new"); print a
//!   warning for baseline entries no longer produced ("stale").
//! * `--budget-ms <ms>` — fail if the whole run (walk + lint + report)
//!   exceeds the wall-clock budget; keeps the CI lint step honest.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ctt_lint::report::{baseline_key, diff_baseline, to_json};
use ctt_lint::{lint_workspace, LintConfig, SourceFile};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "node_modules"];

#[derive(Debug, Default)]
struct Args {
    root: PathBuf,
    json_out: Option<PathBuf>,
    baseline: Option<PathBuf>,
    budget_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json-out" => {
                args.json_out = Some(PathBuf::from(
                    it.next().ok_or("--json-out needs a file argument")?,
                ));
            }
            "--baseline" => {
                args.baseline = Some(PathBuf::from(
                    it.next().ok_or("--baseline needs a file argument")?,
                ));
            }
            "--budget-ms" => {
                let raw = it.next().ok_or("--budget-ms needs a number argument")?;
                args.budget_ms = Some(raw.parse().map_err(|_| format!("bad --budget-ms: {raw}"))?);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            root => args.root = PathBuf::from(root),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ctt-lint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let config = LintConfig::default();

    let mut paths = Vec::new();
    collect_rust_files(&args.root, &mut paths);
    paths.sort();

    let mut files = Vec::new();
    for path in &paths {
        let rel = relative_display(&args.root, path);
        match std::fs::read_to_string(path) {
            Ok(src) => files.push(SourceFile { relpath: rel, src }),
            Err(e) => eprintln!("ctt-lint: warning: cannot read {rel}: {e}"),
        }
    }
    let scanned = files.len();

    let findings = lint_workspace(&files, &config);

    if let Some(json_path) = &args.json_out {
        let json = to_json(&findings, scanned);
        if let Err(e) = std::fs::write(json_path, json) {
            eprintln!("ctt-lint: cannot write {}: {e}", json_path.display());
            return ExitCode::FAILURE;
        }
    }

    // Without a baseline every finding fails the run; with one, only new
    // findings do.
    let mut fail = false;
    match &args.baseline {
        Some(baseline_path) => {
            let baseline = std::fs::read_to_string(baseline_path).unwrap_or_default();
            let diff = diff_baseline(&findings, &baseline);
            for f in &diff.new {
                println!("NEW {}", f.render());
            }
            for entry in &diff.stale {
                println!("ctt-lint: warning: stale baseline entry: {entry}");
            }
            if diff.new.is_empty() {
                println!(
                    "ctt-lint: clean vs baseline ({} carried, {} stale, {scanned} files scanned)",
                    diff.carried,
                    diff.stale.len()
                );
            } else {
                println!(
                    "ctt-lint: {} new finding(s) not in {} — fix, lint:allow with a rationale, \
                     or append the line above:",
                    diff.new.len(),
                    baseline_path.display()
                );
                for f in &diff.new {
                    println!("    {}", baseline_key(f));
                }
                fail = true;
            }
        }
        None => {
            for f in &findings {
                println!("{}", f.render());
            }
            if findings.is_empty() {
                println!("ctt-lint: clean ({scanned} files scanned)");
            } else {
                let mut files_hit: Vec<&str> = findings.iter().map(|f| f.path.as_str()).collect();
                files_hit.sort_unstable();
                files_hit.dedup();
                println!(
                    "ctt-lint: {} violation(s) across {} file(s) ({scanned} files scanned)",
                    findings.len(),
                    files_hit.len()
                );
                fail = true;
            }
        }
    }

    let elapsed = start.elapsed();
    if let Some(budget) = args.budget_ms {
        let ms = elapsed.as_millis() as u64;
        if ms > budget {
            eprintln!("ctt-lint: wall clock {ms}ms exceeded budget {budget}ms");
            fail = true;
        } else {
            println!("ctt-lint: {ms}ms (budget {budget}ms)");
        }
    }

    if fail {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rust_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn relative_display(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
