//! The semantic rule families: R5 determinism and R7 transitive panic
//! reachability. Each consumes the extracted [`crate::facts`] (R7 also the
//! call graph in [`crate::graph`]) and yields ordinary [`Finding`]s.

use std::collections::BTreeMap;

use crate::facts::{DetKind, FileFacts};
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
    // against free functions per file.
    let mut entries: Vec<(String, FnId)> = Vec::new();
    for (scope, name) in &config.entry_points {
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
    findings.into_values().collect()
}
