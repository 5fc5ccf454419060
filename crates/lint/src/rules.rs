//! The semantic rule families: R5 determinism, R7 transitive panic
//! reachability and R8 unreached public functions. Each consumes the
//! extracted [`crate::facts`] (R7 also the call graph in [`crate::graph`])
//! and yields ordinary [`Finding`]s.

use std::collections::{BTreeMap, BTreeSet};

use crate::facts::{DetKind, FileFacts, FnFacts};
use crate::graph::{CallGraph, FnId};
use crate::{Finding, LintConfig, Rule};

/// R5: flag determinism hazards in replay-affecting files.
pub(crate) fn check_determinism(files: &[FileFacts], config: &LintConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in files {
        if !config.is_replay(&file.relpath) {
            continue;
        }
        for f in &file.functions {
            for site in &f.det_sites {
                let message = match &site.kind {
                    DetKind::HashIter { recv, via } => format!(
                        "unordered HashMap/HashSet iteration ({via} on `{recv}`) in a \
                         replay-affecting crate — iterate id-sorted, use BTreeMap, or \
                         lint:allow(det) with a rationale"
                    ),
                    DetKind::WallClock(what) => format!(
                        "wall-clock `{what}` in a replay-affecting crate — use SimClock \
                         logical time"
                    ),
                    DetKind::ThreadId => "thread::current() identity in a replay-affecting \
                                          crate — thread ids differ across runs"
                        .to_string(),
                    DetKind::RandomState => "explicit RandomState (seeded hash order) in a \
                                             replay-affecting crate — use a deterministic \
                                             hasher or ordered map"
                        .to_string(),
                };
                out.push(Finding {
                    rule: Rule::Determinism,
                    path: file.relpath.clone(),
                    line: site.line,
                    message,
                    call_path: Vec::new(),
                });
            }
        }
    }
    // One finding per (path, line, message): imports + uses on one line
    // collapse.
    out.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    out.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.message == b.message);
    out
}

/// R7: hot entry points must not reach a panicking construct through any
/// callee chain. One finding per reachable panic site, carrying the shortest
/// call path from the first entry point that reaches it.
pub(crate) fn check_panic_reachability(graph: &CallGraph<'_>, config: &LintConfig) -> Vec<Finding> {
    // Resolve entry points: `Type::fn` against impl types, `stem::fn`
    // against free functions per file. One that resolves to nothing is a
    // finding: R7 would otherwise stop guarding that path without a word.
    let mut entries: Vec<(String, FnId)> = Vec::new();
    let mut unresolved = Vec::new();
    for (scope, name) in &config.entry_points {
        let before = entries.len();
        for (fi, file) in graph.files.iter().enumerate() {
            for (gi, f) in file.functions.iter().enumerate() {
                let scope_match = match &f.impl_type {
                    Some(ty) => ty == scope,
                    None => &file.file_stem == scope,
                };
                if scope_match && &f.name == name {
                    entries.push((format!("{scope}::{name}"), (fi, gi)));
                }
            }
        }
        if entries.len() == before {
            unresolved.push(config_finding(
                Rule::PanicReachability,
                format!("entry point `{scope}::{name}` resolves to no function"),
            ));
        }
    }
    entries.sort();

    // site key → finding; first (sorted) entry wins, shortest path kept.
    let mut findings: BTreeMap<(String, usize, String), Finding> = BTreeMap::new();
    for (entry_label, entry_id) in &entries {
        let pred = graph.reachable_from(*entry_id);
        for (&id, _) in pred.iter() {
            let file = &graph.files[id.0];
            let f = &file.functions[id.1];
            if f.panics.is_empty() {
                continue;
            }
            let path = graph.path_to(&pred, id);
            for p in &f.panics {
                let key = (file.relpath.clone(), p.line, p.what.clone());
                let shorter = findings
                    .get(&key)
                    .is_none_or(|existing| path.len() < existing.call_path.len());
                if !shorter {
                    continue;
                }
                findings.insert(
                    key,
                    Finding {
                        rule: Rule::PanicReachability,
                        path: file.relpath.clone(),
                        line: p.line,
                        message: format!(
                            "{} in `{}` is reachable from hot entry `{entry_label}` — \
                             return a typed error or lint:allow(reach) with a rationale",
                            p.what,
                            graph.label(id)
                        ),
                        call_path: path.clone(),
                    },
                );
            }
        }
    }
    unresolved.extend(findings.into_values());
    unresolved
}

/// A finding against [`LintConfig`] itself rather than a source line.
fn config_finding(rule: Rule, what: String) -> Finding {
    Finding {
        rule,
        path: "LintConfig".to_string(),
        line: 0,
        message: format!("{what} — {rule} would skip it without a word; fix the configuration"),
        call_path: Vec::new(),
    }
}

/// R1 and R5: every hot-path and replay prefix must match a scanned file.
pub(crate) fn check_prefixes(files: &[crate::SourceFile], config: &LintConfig) -> Vec<Finding> {
    let mut out = Vec::new();
    for (rule, field, prefixes) in [
        (Rule::PanicFreedom, "hot_paths", &config.hot_paths),
        (Rule::Determinism, "replay_paths", &config.replay_paths),
    ] {
        for p in prefixes {
            if !files.iter().any(|f| f.relpath.starts_with(p.as_str())) {
                out.push(config_finding(
                    rule,
                    format!("{field} prefix `{p}` matches no scanned file"),
                ));
            }
        }
    }
    out
}

/// Whether a workspace-relative path is a root of R8's reachability: an
/// integration test, example or bench, a binary, or the benchmark harness.
pub(crate) fn is_root_path(relpath: &str) -> bool {
    crate::is_test_path(relpath)
        || relpath.contains("src/bin/")
        || relpath == "src/main.rs"
        || relpath.ends_with("/src/main.rs")
        || relpath.starts_with("benchmark/src/")
}

/// R8: every bare-`pub` free or inherent function must be reached from a
/// root. Reachability is by name and over-approximates: any identifier that
/// reached code mentions (a call, a path, a function pointer, a macro
/// argument) reaches every function of that name. `root_mentions` holds the
/// identifiers of the root files that carry no facts (tests, examples,
/// benches); the item-level code of every file and the bodies of trait
/// methods are roots too, since dispatch through them is invisible here.
pub(crate) fn check_unreached(files: &[FileFacts], root_mentions: &[String]) -> Vec<Finding> {
    let mut by_name: BTreeMap<&str, Vec<&FnFacts>> = BTreeMap::new();
    let mut queue: Vec<&str> = root_mentions.iter().map(String::as_str).collect();
    for file in files {
        let root = is_root_path(&file.relpath);
        queue.extend(file.item_mentions.iter().map(String::as_str));
        for f in &file.functions {
            if root || f.in_trait {
                queue.extend(f.mentions.iter().map(String::as_str));
            } else {
                by_name.entry(&f.name).or_default().push(f);
            }
        }
    }
    let mut reached: BTreeSet<&str> = BTreeSet::new();
    while let Some(name) = queue.pop() {
        if reached.insert(name) {
            for f in by_name.get(name).into_iter().flatten() {
                queue.extend(f.mentions.iter().map(String::as_str));
            }
        }
    }

    let mut out = Vec::new();
    for file in files.iter().filter(|f| !is_root_path(&f.relpath)) {
        for f in &file.functions {
            if !f.is_pub || f.in_trait || reached.contains(f.name.as_str()) {
                continue;
            }
            let scope = f.impl_type.as_deref().unwrap_or(&file.file_stem);
            out.push(Finding {
                rule: Rule::Unreached,
                path: file.relpath.clone(),
                line: f.line,
                message: format!(
                    "pub fn `{scope}::{}` is reached from no binary, example, benchmark or \
                     test — delete it, or lint:allow(dead) naming the figure, § or oracle \
                     it serves",
                    f.name
                ),
                call_path: Vec::new(),
            });
        }
    }
    out
}
