//! Fixture-driven tests for the seven ctt-lint rules: each violating fixture
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

/// A root file for R8 whose one function evaluates `body`.
fn root(relpath: &str, body: &str) -> SourceFile {
    SourceFile {
        relpath: relpath.to_string(),
        src: format!("fn main() {{\n    let _ = {body};\n}}\n"),
    }
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
    let mut files = one_file_workspace("crates/tools/src/r5_det.rs", src);
    // A clean file under the replay prefix, so the prefix matches a file.
    files.push(SourceFile {
        relpath: "crates/sim/src/clock.rs".to_string(),
        src: String::new(),
    });
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
    let mut files = one_file_workspace("crates/fixture/src/r7_reach.rs", src);
    files.push(root("crates/fixture/tests/drive.rs", "Engine.run(&[])"));
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
fn r7_reports_an_entry_point_that_resolves_to_nothing() {
    let src = include_str!("fixtures/r7_reach.rs");
    let config = LintConfig {
        hot_paths: vec![],
        replay_paths: vec![],
        entry_points: vec![
            ("Engine".to_string(), "run".to_string()),
            ("Engine".to_string(), "renamed".to_string()),
            ("r7_reach".to_string(), "gone".to_string()),
        ],
    };
    let mut files = one_file_workspace("crates/fixture/src/r7_reach.rs", src);
    files.push(root("crates/fixture/tests/drive.rs", "Engine.run(&[])"));
    let findings = lint_workspace(&files, &config);
    let config_findings: Vec<String> = findings
        .iter()
        .filter(|f| f.path == "LintConfig")
        .map(|f| f.to_string())
        .collect();
    assert_eq!(
        config_findings,
        [
            "R7 LintConfig:0 entry point `Engine::renamed` resolves to no function — R7 would \
             skip it without a word; fix the configuration",
            "R7 LintConfig:0 entry point `r7_reach::gone` resolves to no function — R7 would \
             skip it without a word; fix the configuration",
        ]
    );
    // The resolved entry still reports its three paths.
    assert_eq!(
        ids_and_lines(&findings),
        vec![("R7", 0), ("R7", 0), ("R7", 16), ("R7", 22), ("R7", 24)]
    );
}

#[test]
fn r1_and_r5_report_a_prefix_that_matches_no_file() {
    let config = LintConfig {
        hot_paths: vec![
            "crates/fixture/src/".to_string(),
            "crates/gone/".to_string(),
        ],
        replay_paths: vec!["src/pipline.rs".to_string()],
        entry_points: vec![],
    };
    let files = one_file_workspace("crates/fixture/src/empty.rs", "");
    let rendered: Vec<String> = lint_workspace(&files, &config)
        .iter()
        .map(|f| f.to_string())
        .collect();
    assert_eq!(
        rendered,
        [
            "R1 LintConfig:0 hot_paths prefix `crates/gone/` matches no scanned file — R1 would \
             skip it without a word; fix the configuration",
            "R5 LintConfig:0 replay_paths prefix `src/pipline.rs` matches no scanned file — R5 \
             would skip it without a word; fix the configuration",
        ]
    );
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
    let mut files = one_file_workspace("crates/fixture/src/allow.rs", src);
    files.push(root("crates/fixture/tests/drive.rs", "E.go()"));
    let findings = lint_workspace(&files, &config);
    assert!(findings.is_empty(), "findings: {findings:?}");
}

/// The linter holds itself to its own standard: every rule, with its binary
/// and its tests as R8's roots. The crate is in none of the default hot,
/// replay or entry-point scopes, so the config names none of them: the
/// default's would each be a finding against a workspace of one crate.
#[test]
fn lint_crate_passes_its_own_rules() {
    let mut files = Vec::new();
    for dir in ["src", "tests"] {
        let full = format!("{}/{dir}", env!("CARGO_MANIFEST_DIR"));
        for entry in std::fs::read_dir(full).expect("read dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "rs") {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                files.push(SourceFile {
                    relpath: format!("crates/lint/{dir}/{name}"),
                    src: std::fs::read_to_string(&path).expect("read source"),
                });
            }
        }
    }
    files.sort_by(|a, b| a.relpath.cmp(&b.relpath));
    assert!(files.len() >= 7, "expected the full module set: {files:?}");
    let config = LintConfig {
        hot_paths: vec![],
        replay_paths: vec![],
        entry_points: vec![],
    };
    let findings = lint_workspace(&files, &config);
    assert!(
        findings.is_empty(),
        "ctt-lint violates its own rules: {findings:?}"
    );
}

/// The R8 fixture plus one root of each kind: an example, a bench, a crate
/// integration test and the benchmark harness.
fn r8_workspace() -> Vec<SourceFile> {
    let mut files = one_file_workspace(
        "crates/fixture/src/dead.rs",
        include_str!("fixtures/r8_dead.rs"),
    );
    files.push(root(
        "examples/demo.rs",
        "(from_example(), Registry.len(), [1u8].map(as_fn_pointer))",
    ));
    files.push(root("crates/fixture/benches/b.rs", "from_bench()"));
    files.push(root("crates/fixture/tests/t.rs", "from_crate_test()"));
    files.push(root("benchmark/src/main.rs", "from_benchmark()"));
    files
}

#[test]
fn r8_flags_each_unreached_pub_fn() {
    let config = LintConfig {
        hot_paths: vec![],
        replay_paths: vec![],
        entry_points: vec![],
    };
    let findings = lint_workspace(&r8_workspace(), &config);
    assert_eq!(
        ids_and_lines(&findings),
        vec![("R8", 3), ("R8", 7), ("R8", 12), ("R8", 18), ("R8", 19)],
        "findings: {findings:?}"
    );
    // Called only from its own `#[cfg(test)]` module, and only from that.
    assert!(findings[0].message.contains("`dead::only_its_own_tests`"));
    assert!(findings[1].message.contains("`dead::only_from_dead`"));
    // A `pub use` re-export is not a use.
    assert!(findings[2].message.contains("`dead::only_reexported`"));
    // An allow without a justification is a finding and suppresses nothing.
    assert!(findings[3]
        .message
        .contains("lint:allow(dead) requires a written justification"));
    assert!(findings[4].message.contains("`dead::allow_without_reason`"));
}

#[test]
fn r8_spares_what_a_root_reaches() {
    let config = LintConfig {
        hot_paths: vec![],
        replay_paths: vec![],
        entry_points: vec![],
    };
    // Without the roots, everything public but the allowed function and the
    // one the trait impl calls is flagged.
    let lib_only = &r8_workspace()[..1];
    let flagged: Vec<usize> = lint_workspace(lib_only, &config)
        .iter()
        .filter(|f| f.message.starts_with("pub fn"))
        .map(|f| f.line)
        .collect();
    assert_eq!(flagged, [3, 7, 12, 19, 28, 32, 36, 40, 44, 48, 67]);
    // Each root spares its own: the example's call, its chain, its
    // function pointer and its `len` (a name std shares), the bench, the
    // crate test and the benchmark harness.
    let reached: Vec<usize> = lint_workspace(&r8_workspace(), &config)
        .iter()
        .map(|f| f.line)
        .collect();
    for line in [28, 32, 36, 40, 44, 48, 52, 67] {
        assert!(!reached.contains(&line), "line {line} flagged: {reached:?}");
    }
}
