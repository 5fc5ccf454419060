//! Machine-readable output and the baseline workflow.
//!
//! The JSON report is canonical: findings sorted `(path, line, rule,
//! message)`, fixed key order, deterministic escaping — two runs over the
//! same tree render byte-identical reports, so the file can be committed and
//! diffed.
//!
//! The baseline is a plain text file of rendered finding lines (`R5
//! path:line message`). `diff_baseline` classifies current findings as *new*
//! (not in the baseline → CI fails) and baseline entries as *stale* (no
//! longer produced → CI warns so the file gets re-trimmed). Carrying a
//! finding in the baseline is the "known, explained, not yet fixed" state;
//! fixing it or `lint:allow`-ing it with a rationale are the other two.

use crate::Finding;

/// Minimal JSON string escaping (the report contains no exotic content).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render the canonical JSON report.
pub fn to_json(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"tool\": \"ctt-lint\",\n");
    out.push_str("  \"rules\": [\"R1\", \"R2\", \"R3\", \"R4\", \"R5\", \"R7\", \"R8\"],\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str(&format!(
        "  \"findings\": [{}\n",
        if findings.is_empty() { "]" } else { "" }
    ));
    for (i, f) in findings.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"rule\": \"{}\",\n", f.rule.id()));
        out.push_str(&format!("      \"path\": \"{}\",\n", esc(&f.path)));
        out.push_str(&format!("      \"line\": {},\n", f.line));
        out.push_str(&format!("      \"message\": \"{}\",\n", esc(&f.message)));
        out.push_str("      \"call_path\": [");
        for (j, step) in f.call_path.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", esc(step)));
        }
        out.push_str("]\n");
        out.push_str(if i + 1 == findings.len() {
            "    }\n  ]"
        } else {
            "    },\n"
        });
    }
    out.push_str(",\n");
    out.push_str(&format!("  \"total\": {}\n", findings.len()));
    out.push_str("}\n");
    out
}

/// Baseline keys for a set of findings: the stable rendered line, without
/// call paths (which shift when unrelated code moves).
pub fn baseline_key(f: &Finding) -> String {
    format!("{} {}:{} {}", f.rule.id(), f.path, f.line, f.message)
}

/// Outcome of diffing findings against a baseline file.
#[derive(Debug, Default)]
pub struct BaselineDiff {
    /// Findings not covered by the baseline (CI fails on any).
    pub new: Vec<Finding>,
    /// Baseline lines no longer produced (CI warns: trim the file).
    pub stale: Vec<String>,
    /// Findings matched by the baseline (carried, known).
    pub carried: usize,
}

/// Split current findings into new/carried and report stale baseline lines.
pub fn diff_baseline(findings: &[Finding], baseline: &str) -> BaselineDiff {
    let entries: Vec<&str> = baseline
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let mut diff = BaselineDiff::default();
    let mut matched = vec![false; entries.len()];
    for f in findings {
        let key = baseline_key(f);
        match entries.iter().position(|e| **e == key) {
            Some(idx) => {
                matched[idx] = true;
                diff.carried += 1;
            }
            None => diff.new.push(f.clone()),
        }
    }
    for (idx, entry) in entries.iter().enumerate() {
        if !matched[idx] {
            diff.stale.push((*entry).to_string());
        }
    }
    diff
}
