//! Fixture-driven tests for the six ctt-lint rules: each violating fixture
//! must produce exactly the expected rule IDs at the expected lines (and for
//! R7 the expected call paths), the clean fixture must produce nothing,
//! and `ctt-lint` itself must pass every rule it enforces.

use ctt_lint::{lint_file, lint_workspace, Finding, LintConfig, SourceFile};

/// Everything under `crates/fixture/src/` counts as hot-path.
fn fixture_config() -> LintConfig {
    LintConfig {
        hot_paths: vec!["crates/fixture/src/".to_string()],
        ..LintConfig::default()
    }
}

/// `(rule id, line)` pairs, in reporting order.
fn ids_and_lines(findings: &[Finding]) -> Vec<(&str, usize)> {
    findings.iter().map(|f| (f.rule.id(), f.line)).collect()
}

fn one_file_workspace(relpath: &str, src: &str) -> Vec<SourceFile> {
    vec![SourceFile {
        relpath: relpath.to_string(),
        src: src.to_string(),
    }]
}

#[test]
fn clean_fixture_is_clean() {
    let src = include_str!("fixtures/clean.rs");
    let findings = lint_file("crates/fixture/src/lib.rs", src, &fixture_config());
    assert!(findings.is_empty(), "unexpected findings: {findings:?}");
}

#[test]
fn r1_panic_fixture_reports_each_construct() {
    let src = include_str!("fixtures/r1_panic.rs");
    let findings = lint_file("crates/fixture/src/hot.rs", src, &fixture_config());
    assert_eq!(
        ids_and_lines(&findings),
        vec![("R1", 5), ("R1", 10), ("R1", 15), ("R1", 20)],
        "findings: {findings:?}"
    );
    // The four messages name the specific construct.
    assert!(findings[0].message.contains(".unwrap()"));
    assert!(findings[1].message.contains(".expect()"));
    assert!(findings[2].message.contains("index"));
    assert!(findings[3].message.contains("panic!"));
    // The justified allow at line 25 suppressed the indexing at line 26,
    // and the `#[cfg(test)]` module produced nothing.
    assert!(findings.iter().all(|f| f.line < 25));
}

#[test]
fn r2_units_fixture_flags_public_raw_f64_params() {
    let src = include_str!("fixtures/r2_units.rs");
    // R2 applies workspace-wide, not only to hot paths.
    let findings = lint_file("crates/fixture/src/units.rs", src, &LintConfig::default());
    assert_eq!(
        ids_and_lines(&findings),
        vec![("R2", 4), ("R2", 9)],
        "findings: {findings:?}"
    );
    assert!(findings[0].message.contains("co2_ppm"));
    assert!(findings[1].message.contains("rssi_dbm"));
}

#[test]
fn r3_shared_fixture_flags_shared_state_and_spawn() {
    let src = include_str!("fixtures/r3_shared.rs");
    // R3 applies workspace-wide, not only to hot paths.
    let findings = lint_file("crates/fixture/src/shared.rs", src, &LintConfig::default());
    assert_eq!(
        ids_and_lines(&findings),
        vec![("R3", 3), ("R3", 8), ("R3", 9), ("R3", 17), ("R3", 21)],
        "findings: {findings:?}"
    );
    // The brace-group import flags `Mutex`, not `Arc`.
    assert!(findings[0].message.contains("`Mutex`"));
    // The unjustified allow is itself a finding and suppresses nothing.
    assert!(findings[1]
        .message
        .contains("requires a written justification"));
    assert!(findings[2].message.contains("`AtomicU64`"));
    assert!(findings[3].message.contains("`AtomicBool`"));
    assert!(findings[4].message.contains("thread::spawn"));
    // The justified allow at line 5 covered line 6, and the
    // `#[cfg(test)]` watchdog produced nothing.
    assert!(findings.iter().all(|f| f.line != 6 && f.line < 24));
}

/// The real pipeline source, probed by the R3 tests below.
const PIPELINE: &str = include_str!("../../../src/pipeline.rs");

fn lint_pipeline(src: &str) -> Vec<Finding> {
    lint_file("src/pipeline.rs", src, &LintConfig::default())
}

/// [`PIPELINE`] with `line` inserted after the first line equal to `anchor`,
/// and the 1-based line number it landed on.
fn pipeline_with(anchor: &str, line: &str) -> (String, usize) {
    let mut out = String::new();
    let mut at = None;
    for (i, l) in PIPELINE.lines().enumerate() {
        out.push_str(l);
        out.push('\n');
        if at.is_none() && l == anchor {
            out.push_str(line);
            out.push('\n');
            at = Some(i + 2);
        }
    }
    (out, at.expect("anchor line in src/pipeline.rs"))
}

#[test]
fn r3_probe_flags_each_injection_into_the_pipeline() {
    for (anchor, line) in [
        ("use std::fmt::Write as _;", "use parking_lot::Mutex;"),
        (
            "pub struct Pipeline {",
            "    probe: std::sync::atomic::AtomicU64,",
        ),
        (
            "    pub fn stats(&self) -> PipelineStats {",
            "        std::thread::spawn(|| ());",
        ),
    ] {
        let (src, at) = pipeline_with(anchor, line);
        let findings = lint_pipeline(&src);
        assert_eq!(
            ids_and_lines(&findings),
            vec![("R3", at)],
            "injected `{line}`: {findings:?}"
        );
    }
}

#[test]
fn r3_probe_spares_the_pipeline_and_its_test_watchdogs() {
    let findings = lint_pipeline(PIPELINE);
    assert!(findings.is_empty(), "findings: {findings:?}");
    let watchdog = "#[cfg(test)] mod watchdog { use std::sync::mpsc; #[test] fn w() { \
                    let (tx, rx) = mpsc::channel(); std::thread::spawn(move || tx.send(())); \
                    rx.recv().ok(); } }";
    let findings = lint_pipeline(&format!("{PIPELINE}{watchdog}\n"));
    assert!(findings.is_empty(), "findings: {findings:?}");
}

#[test]
fn r4_hygiene_fixture_flags_missing_crate_attributes() {
    let src = include_str!("fixtures/r4_hygiene.rs");
    let findings = lint_file("crates/fixture/src/lib.rs", src, &LintConfig::default());
    assert_eq!(
        ids_and_lines(&findings),
        vec![("R4", 1), ("R4", 1)],
        "findings: {findings:?}"
    );
    assert!(findings[0].message.contains("forbid(unsafe_code)"));
    assert!(findings[1]
        .message
        .contains("deny(missing_debug_implementations)"));
}

#[test]
fn findings_render_as_rule_path_line() {
    let src = include_str!("fixtures/r1_panic.rs");
    let findings = lint_file("crates/fixture/src/hot.rs", src, &fixture_config());
    let rendered = findings[0].to_string();
    assert!(
        rendered.starts_with("R1 crates/fixture/src/hot.rs:5 "),
        "rendered: {rendered}"
    );
}

#[test]
fn r5_determinism_fixture_flags_hazards_and_spares_ordered_shapes() {
    let src = include_str!("fixtures/r5_det.rs");
    // Placed in a replay-affecting crate; no hot paths so R1 stays quiet.
    let config = LintConfig {
        hot_paths: vec![],
        replay_paths: vec!["crates/sim/src/".to_string()],
        entry_points: vec![],
    };
    let files = one_file_workspace("crates/sim/src/r5_det.rs", src);
    let findings = lint_workspace(&files, &config);
    assert_eq!(
        ids_and_lines(&findings),
        vec![("R5", 13), ("R5", 18), ("R5", 25), ("R5", 29)],
        "findings: {findings:?}"
    );
    assert!(findings[0].message.contains(".values() on `counts`"));
    assert!(findings[1].message.contains("for-loop on `seen`"));
    assert!(findings[2].message.contains("SystemTime"));
    assert!(findings[3].message.contains("thread::current()"));
    // ok_sum / ok_sorted / ok_allowed produced nothing (all findings are
    // in the `bad_*` functions, which end before line 31).
    assert!(findings.iter().all(|f| f.line < 31));
}

#[test]
fn r5_silent_outside_replay_paths() {
    let src = include_str!("fixtures/r5_det.rs");
    let config = LintConfig {
        hot_paths: vec![],
        replay_paths: vec!["crates/sim/src/".to_string()],
        entry_points: vec![],
    };
    let files = one_file_workspace("crates/tools/src/r5_det.rs", src);
    assert!(lint_workspace(&files, &config).is_empty());
}

#[test]
fn r7_reachability_fixture_pins_paths_to_each_panic() {
    let src = include_str!("fixtures/r7_reach.rs");
    let config = LintConfig {
        hot_paths: vec![],
        replay_paths: vec![],
        entry_points: vec![("Engine".to_string(), "run".to_string())],
    };
    let files = one_file_workspace("crates/fixture/src/r7_reach.rs", src);
    let findings = lint_workspace(&files, &config);
    assert_eq!(
        ids_and_lines(&findings),
        vec![("R7", 16), ("R7", 22), ("R7", 24)],
        "findings: {findings:?}"
    );
    assert!(findings[0].message.contains(".unwrap()"));
    assert!(findings[0].message.contains("`r7_reach::step_two`"));
    assert!(findings[1].message.contains("panic!"));
    assert!(findings[2].message.contains(".expect()"));
    // Every finding names the entry point and carries the full chain.
    for f in &findings {
        assert!(f.message.contains("`Engine::run`"), "finding: {f:?}");
        assert!(
            f.call_path[0].starts_with("Engine::run ("),
            "path: {:?}",
            f.call_path
        );
    }
    let deep = &findings[1].call_path;
    assert_eq!(
        deep.len(),
        4,
        "Engine::run -> step_one -> step_two -> deeper: {deep:?}"
    );
    assert!(deep[1].contains("Engine::step_one"));
    assert!(deep[2].contains("r7_reach::step_two"));
    assert!(deep[3].contains("r7_reach::deeper"));
    // `unreached` is never linked from the entry: no finding at its unwrap.
    assert!(findings.iter().all(|f| f.line < 28));
}

#[test]
fn r7_allow_panic_or_reach_suppresses_the_path() {
    let src = "struct E;\n\
               impl E {\n\
               \x20   pub fn go(&self) -> u8 {\n\
               \x20       // lint:allow(reach): fixture demonstrates suppression\n\
               \x20       helper()\n\
               \x20   }\n\
               }\n\
               fn helper() -> u8 {\n\
               \x20   // lint:allow(panic): constant is in range, proven by test\n\
               \x20   u8::try_from(7u32).unwrap()\n\
               }\n";
    let config = LintConfig {
        hot_paths: vec![],
        replay_paths: vec![],
        entry_points: vec![("E".to_string(), "go".to_string())],
    };
    let files = one_file_workspace("crates/fixture/src/allow.rs", src);
    let findings = lint_workspace(&files, &config);
    assert!(findings.is_empty(), "findings: {findings:?}");
}

/// The linter holds itself to its own standard: every rule, default config.
#[test]
fn lint_crate_passes_its_own_rules() {
    let src_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(src_dir).expect("read src dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            files.push(SourceFile {
                relpath: format!("crates/lint/src/{name}"),
                src: std::fs::read_to_string(&path).expect("read source"),
            });
        }
    }
    files.sort_by(|a, b| a.relpath.cmp(&b.relpath));
    assert!(files.len() >= 6, "expected the full module set: {files:?}");
    let findings = lint_workspace(&files, &LintConfig::default());
    assert!(
        findings.is_empty(),
        "ctt-lint violates its own rules: {findings:?}"
    );
}
