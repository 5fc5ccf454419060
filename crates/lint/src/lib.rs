//! `ctt-lint`: workspace-local static analysis for the CTT pipeline.
//!
//! Seven rules, tuned to this codebase's invariants rather than general Rust
//! style (that is clippy's job). R1–R4 are line-level pattern rules; R5, R7
//! and R8 are semantic rules over the whole workspace, built by a
//! lightweight item/function parser (see [`facts`] and [`graph`]) on top of
//! the same handwritten lexer — still no `syn`, still std-only. R6 (lock
//! order) is retired and its id is not reused.
//!
//! * **R1 panic-freedom** — on the hot paths of [`LintConfig::default`] no
//!   `.unwrap()`, `.expect()`, `panic!`/`unreachable!`/`todo!`/
//!   `unimplemented!` or panicking indexing (`x[i]` — use `.get()`). Test
//!   code is exempt.
//! * **R2 unit-safety** — public signatures must not take raw `f64`
//!   parameters whose names claim a physical unit (`co2`, `ppm`, `ppb`,
//!   `celsius`, `pa`, `rssi`, `dbm`, `lat`, `lon`); use the
//!   `ctt-core::units` newtypes instead.
//! * **R3 single thread of control** — outside test code, no `Mutex*`,
//!   `RwLock*`, `Condvar*` or `Atomic*` named in a `use` item or after `::`,
//!   and no `thread::spawn`. `Arc` is fine.
//! * **R4 crate hygiene** — every `src/lib.rs` carries
//!   `#![forbid(unsafe_code)]` and `#![deny(missing_debug_implementations)]`.
//! * **R5 determinism** — in replay-affecting crates, no unordered
//!   `HashMap`/`HashSet` iteration (unless the chain ends order-insensitive
//!   or the collected result is sorted), no `SystemTime`/`Instant::now`, no
//!   `thread::current()` identity, no explicit `RandomState`.
//! * **R7 transitive panic reachability** — the entry points of
//!   [`LintConfig::default`] must not reach a panicking construct through
//!   *any* callee chain; the offending call path is reported.
//! * **R8 no unreached public function** — every bare-`pub` free or
//!   inherent `fn` must be reached, by name, from a root: a file under
//!   `tests/`, `examples/`, `benches/` or `benchmark/src/`, a binary
//!   (`src/bin/`, `src/main.rs`), a trait method body, or item-level code.
//!   A `use` re-export and `#[cfg(test)]` code do not count as uses.
//!
//! A hot-path or replay prefix that matches no scanned file, and an entry
//! point that resolves to no function, are findings too (R1, R5, R7): a
//! renamed file or function must not switch a rule off without a word.
//!
//! Escape hatch: a `lint:allow` line comment — key in parens, then a
//! justification — on the same or the preceding line suppresses one rule
//! (`panic`, `units`, `shared`, `hygiene`, `det`, `reach`, `dead`). The
//! justification text is mandatory — an allow without one is itself a
//! violation. A `lint:allow(panic)` at a panic site also covers R7 paths
//! that end there (the rationale explains the panic, not the route).
//!
//! Machine-readable output and the baseline workflow live in [`report`]:
//! `ctt-lint --json-out` writes a canonical JSON report, `--baseline` diffs
//! findings against a committed baseline (fail on new, warn on stale).

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

use std::collections::HashMap;
use std::fmt;

mod facts;
mod graph;
mod lexer;
pub mod report;
mod rules;

pub use facts::SourceFile;

use lexer::{
    in_regions, is_non_index_keyword, is_panic_macro, scan, skip_delimited, test_regions, Tok,
    TokKind,
};

/// Which lint rule a [`Finding`] belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// R1: no panicking constructs on the hot path.
    PanicFreedom,
    /// R2: unit-bearing public parameters must use newtypes.
    UnitSafety,
    /// R3: no shared-state primitive and no `thread::spawn` outside tests.
    SingleThread,
    /// R4: required crate-level attributes in every `lib.rs`.
    CrateHygiene,
    /// R5: no unordered iteration / wall-clock / thread identity in
    /// replay-affecting crates.
    Determinism,
    /// R7: hot entry points must not transitively reach a panic.
    PanicReachability,
    /// R8: every bare-`pub` function is reached from a root.
    Unreached,
}

impl Rule {
    /// Stable rule identifier used in reports and fixture tests.
    pub fn id(self) -> &'static str {
        match self {
            Rule::PanicFreedom => "R1",
            Rule::UnitSafety => "R2",
            Rule::SingleThread => "R3",
            Rule::CrateHygiene => "R4",
            Rule::Determinism => "R5",
            Rule::PanicReachability => "R7",
            Rule::Unreached => "R8",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// For R7: the call path that produces the finding, rendered as
    /// `label (path:line)` steps. Empty for the other rules.
    pub call_path: Vec<String>,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} {}",
            self.rule.id(),
            self.path,
            self.line,
            self.message
        )
    }
}

impl Finding {
    /// Multi-line rendering: the finding plus its call path, if any.
    pub fn render(&self) -> String {
        let mut out = self.to_string();
        if !self.call_path.is_empty() {
            out.push_str("\n    via ");
            out.push_str(&self.call_path.join("\n     -> "));
        }
        out
    }
}

/// Where the path-scoped rules apply and which entry points R7 guards.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Workspace-relative path prefixes considered hot-path (R1).
    pub hot_paths: Vec<String>,
    /// Workspace-relative path prefixes whose behavior feeds replay goldens
    /// (R5).
    pub replay_paths: Vec<String>,
    /// `(TypeOrModule, fn)` pairs R7 treats as hot entry points.
    pub entry_points: Vec<(String, String)>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            hot_paths: vec![
                "crates/broker/src/".into(),
                "crates/chaos/src/".into(),
                "crates/tsdb/src/gorilla.rs".into(),
                "crates/tsdb/src/store.rs".into(),
                "crates/tsdb/src/query.rs".into(),
                "crates/tsdb/src/shard.rs".into(),
                "crates/tsdb/src/bits.rs".into(),
                "crates/tsdb/src/rollup.rs".into(),
                "crates/tsdb/src/cache.rs".into(),
                "crates/lorawan/src/server.rs".into(),
                "crates/lorawan/src/sim.rs".into(),
                "crates/sim/src/".into(),
                "crates/obs/src/".into(),
                "crates/dataport/src/".into(),
                "src/pipeline.rs".into(),
                "src/fleet.rs".into(),
            ],
            replay_paths: vec![
                "crates/broker/src/".into(),
                "crates/chaos/src/".into(),
                "crates/dataport/src/".into(),
                "crates/lorawan/src/".into(),
                "crates/obs/src/".into(),
                "crates/sim/src/".into(),
                "crates/tsdb/src/".into(),
                "src/".into(),
            ],
            entry_points: vec![
                ("Broker".into(), "publish_with_outcome".into()),
                ("ShardedTsdb".into(), "put_batch".into()),
                ("ShardedTsdb".into(), "execute".into()),
                ("ShardedTsdb".into(), "execute_with".into()),
                // Query-serving layer: the cache sits on every dashboard
                // query; rollup serving runs per bucket.
                ("QueryCache".into(), "get_results".into()),
                ("QueryCache".into(), "put_results".into()),
                ("EventQueue".into(), "pop".into()),
                ("UplinkEvent".into(), "decode".into()),
                // The rest of the broker hop, each once per uplink: the
                // bridge's encode + publish, the consumer's receive + ack.
                ("UplinkEvent".into(), "encode".into()),
                ("UplinkEvent".into(), "publish_with_retry".into()),
                ("Subscriber".into(), "try_recv".into()),
                ("Broker".into(), "ack".into()),
                // Backpressure paths: drain dispatch and bridge admission
                // run on every overloaded tick.
                ("Broker".into(), "redeliver_deferred".into()),
                ("AdmissionControl".into(), "admit".into()),
                ("AdmissionControl".into(), "retry".into()),
                ("Pipeline".into(), "consume_storage".into()),
                // The fleet hot loop: every city's own `run_until`, so the
                // call graph reaches `Pipeline::dispatch_event` from here.
                ("Fleet".into(), "run_until".into()),
                // The pipeline's write path: a series is registered once,
                // at its device's first uplink, then every drain pass
                // appends by id, so from here the call graph reaches
                // `Tsdb::intern`/`Tsdb::append` and the Gorilla encoder.
                ("ShardedTsdb".into(), "register".into()),
                ("ShardedTsdb".into(), "append".into()),
            ],
        }
    }
}

impl LintConfig {
    /// Whether `relpath` falls under a hot-path prefix.
    pub fn is_hot(&self, relpath: &str) -> bool {
        self.hot_paths
            .iter()
            .any(|p| relpath.starts_with(p.as_str()))
    }

    /// Whether `relpath` falls under a replay-affecting prefix.
    pub fn is_replay(&self, relpath: &str) -> bool {
        self.replay_paths
            .iter()
            .any(|p| relpath.starts_with(p.as_str()))
    }
}

/// Whether a workspace-relative path is test/bench scaffolding (exempt from
/// the source-code rules).
pub fn is_test_path(relpath: &str) -> bool {
    relpath
        .split('/')
        .any(|c| c == "tests" || c == "benches" || c == "examples")
}

// ---------------------------------------------------------------------------
// lint:allow escape hatch
// ---------------------------------------------------------------------------

fn allow_key_rule(key: &str) -> Option<Rule> {
    match key {
        "panic" => Some(Rule::PanicFreedom),
        "units" => Some(Rule::UnitSafety),
        "shared" => Some(Rule::SingleThread),
        "hygiene" => Some(Rule::CrateHygiene),
        "det" => Some(Rule::Determinism),
        "reach" => Some(Rule::PanicReachability),
        "dead" => Some(Rule::Unreached),
        _ => None,
    }
}

/// Parse `lint:allow` escape-hatch comments. Returns the map of
/// line → allowed rules plus findings for malformed allows.
fn parse_allows(relpath: &str, src: &str) -> (HashMap<usize, Vec<Rule>>, Vec<Finding>) {
    let mut allows: HashMap<usize, Vec<Rule>> = HashMap::new();
    let mut findings = Vec::new();
    for (idx, raw_line) in src.lines().enumerate() {
        let line = idx + 1;
        let Some(pos) = raw_line.find("lint:allow(") else {
            continue;
        };
        // Must live in a line comment, not in code or a string.
        let Some(comment) = raw_line.find("//") else {
            continue;
        };
        if comment > pos {
            continue;
        }
        let rest = &raw_line[pos + "lint:allow(".len()..];
        let Some(close) = rest.find(')') else {
            continue;
        };
        let key = rest[..close].trim();
        let Some(rule) = allow_key_rule(key) else {
            findings.push(Finding {
                rule: Rule::PanicFreedom,
                path: relpath.to_string(),
                line,
                message: format!("unknown lint:allow key `{key}`"),
                call_path: Vec::new(),
            });
            continue;
        };
        // Justification: non-trivial text after the closing paren
        // (separators `:` / `--` stripped).
        let justification = rest[close + 1..].trim_start_matches([':', '-', ' ']).trim();
        if justification.len() < 8 {
            findings.push(Finding {
                rule,
                path: relpath.to_string(),
                line,
                message: format!(
                    "lint:allow({key}) requires a written justification after the key"
                ),
                call_path: Vec::new(),
            });
            continue;
        }
        allows.entry(line).or_default().push(rule);
    }
    (allows, findings)
}

// ---------------------------------------------------------------------------
// R1: panic-freedom
// ---------------------------------------------------------------------------

fn check_panic_freedom(relpath: &str, toks: &[Tok], skip: &[(usize, usize)]) -> Vec<Finding> {
    let mut out = Vec::new();
    let finding = |line: usize, message: String| Finding {
        rule: Rule::PanicFreedom,
        path: relpath.to_string(),
        line,
        message,
        call_path: Vec::new(),
    };
    for i in 0..toks.len() {
        if in_regions(skip, i) {
            continue;
        }
        let t = &toks[i];
        match t.kind {
            TokKind::Ident => {
                let prev_dot = i > 0 && toks[i - 1].kind == TokKind::Punct('.');
                let next_paren = toks
                    .get(i + 1)
                    .is_some_and(|t| t.kind == TokKind::Punct('('));
                let next_bang = toks
                    .get(i + 1)
                    .is_some_and(|t| t.kind == TokKind::Punct('!'));
                if prev_dot && next_paren && (t.text == "unwrap" || t.text == "expect") {
                    out.push(finding(
                        t.line,
                        format!(".{}() on hot path — return a typed error instead", t.text),
                    ));
                } else if next_bang && is_panic_macro(&t.text) {
                    out.push(finding(
                        t.line,
                        format!("{}! on hot path — return a typed error instead", t.text),
                    ));
                }
            }
            TokKind::Punct('[') if i > 0 => {
                let indexable = match toks[i - 1].kind {
                    // A keyword before `[` means a slice/array *type* or an
                    // expression position (`&mut [T]`, `return [..]`), never
                    // an indexing operation.
                    TokKind::Ident => !is_non_index_keyword(&toks[i - 1].text),
                    TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('?') => true,
                    _ => false,
                };
                // `x[..]` after an ident could still be a macro pattern arm,
                // but macros use `!` before the bracket, which is excluded.
                if indexable {
                    out.push(finding(
                        t.line,
                        "panicking index on hot path — use .get()/.get_mut()".to_string(),
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R2: unit-safety
// ---------------------------------------------------------------------------

const UNIT_KEYWORDS: &[&str] = &[
    "co2", "ppm", "ppb", "celsius", "pa", "rssi", "dbm", "lat", "lon",
];

fn check_unit_safety(relpath: &str, toks: &[Tok], skip: &[(usize, usize)]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if in_regions(skip, i) || !(toks[i].kind == TokKind::Ident && toks[i].text == "pub") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // `pub(crate)` / `pub(super)` etc. are not public API — skip them.
        if toks.get(j).is_some_and(|t| t.kind == TokKind::Punct('(')) {
            i = skip_delimited(toks, j, '(', ')') + 1;
            continue;
        }
        if !toks
            .get(j)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == "fn")
        {
            i += 1;
            continue;
        }
        j += 2; // past `fn name`
                // Skip generic parameters, minding `->` inside bounds.
        if toks.get(j).is_some_and(|t| t.kind == TokKind::Punct('<')) {
            let mut depth = 0i32;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct('<') => depth += 1,
                    TokKind::Punct('>')
                        // Ignore the `>` of a `->` arrow.
                        if !(j > 0 && toks[j - 1].kind == TokKind::Punct('-')) => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                    _ => {}
                }
                j += 1;
            }
        }
        if !toks.get(j).is_some_and(|t| t.kind == TokKind::Punct('(')) {
            i = j;
            continue;
        }
        let close = skip_delimited(toks, j, '(', ')');
        for finding in check_param_list(relpath, &toks[j + 1..close]) {
            out.push(finding);
        }
        i = close + 1;
    }
    out
}

fn check_param_list(relpath: &str, params: &[Tok]) -> Vec<Finding> {
    let mut out = Vec::new();
    // Split on top-level commas (any bracket nests one level of depth).
    let mut depth = 0i32;
    let mut start = 0usize;
    let mut slices = Vec::new();
    for (k, t) in params.iter().enumerate() {
        match t.kind {
            TokKind::Punct('(')
            | TokKind::Punct('[')
            | TokKind::Punct('{')
            | TokKind::Punct('<') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => depth -= 1,
            TokKind::Punct('>') if !(k > 0 && params[k - 1].kind == TokKind::Punct('-')) => {
                depth -= 1;
            }
            TokKind::Punct(',') if depth == 0 => {
                slices.push(&params[start..k]);
                start = k + 1;
            }
            _ => {}
        }
    }
    if start < params.len() {
        slices.push(&params[start..]);
    }

    for param in slices {
        // Receiver params (`self`, `&self`, `&mut self`) have no `:` before
        // `self`; skip anything containing a bare `self` ident.
        if param
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "self")
        {
            continue;
        }
        let Some(colon) = param.iter().position(|t| t.kind == TokKind::Punct(':')) else {
            continue;
        };
        let (pat, ty) = param.split_at(colon);
        let ty = &ty[1..];
        // Only simple `name: f64` / `mut name: f64` bindings.
        let name = match pat {
            [t] if t.kind == TokKind::Ident => &t.text,
            [m, t] if m.text == "mut" && t.kind == TokKind::Ident => &t.text,
            _ => continue,
        };
        let is_raw_f64 = matches!(ty, [t] if t.kind == TokKind::Ident && t.text == "f64");
        if !is_raw_f64 {
            continue;
        }
        let claims_unit = name
            .split('_')
            .any(|component| UNIT_KEYWORDS.contains(&component));
        if claims_unit {
            out.push(Finding {
                rule: Rule::UnitSafety,
                path: relpath.to_string(),
                line: param[0].line,
                message: format!(
                    "public param `{name}: f64` claims a unit — use a ctt-core::units newtype"
                ),
                call_path: Vec::new(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R3: single thread of control
// ---------------------------------------------------------------------------

/// Name prefixes of the shared-state primitives R3 keeps out of the system.
const SHARED_PREFIXES: &[&str] = &["Mutex", "RwLock", "Condvar", "Atomic"];

/// R3: flag every place that brings a shared-state primitive into scope (a
/// `Mutex*`/`RwLock*`/`Condvar*`/`Atomic*` ident inside a `use` item or after
/// `::`) or starts a thread (`thread::spawn`). A bare `Mutex<T>` or
/// `RwLock::new` needs one of those first, so it is not flagged again.
fn check_single_thread(relpath: &str, toks: &[Tok], skip: &[(usize, usize)]) -> Vec<Finding> {
    let mut out = Vec::new();
    let colons_before = |k: usize| {
        k >= 2 && toks[k - 1].kind == TokKind::Punct(':') && toks[k - 2].kind == TokKind::Punct(':')
    };
    let mut in_use = false;
    for (i, t) in toks.iter().enumerate() {
        if in_regions(skip, i) {
            continue;
        }
        match t.kind {
            TokKind::Punct(';') => in_use = false,
            TokKind::Ident if t.text == "use" => in_use = true,
            TokKind::Ident => {
                let what = if (in_use || colons_before(i))
                    && SHARED_PREFIXES.iter().any(|p| t.text.starts_with(p))
                {
                    format!("`{}` is shared state", t.text)
                } else if t.text == "spawn"
                    && colons_before(i)
                    && toks
                        .get(i.wrapping_sub(3))
                        .is_some_and(|q| q.text == "thread")
                {
                    "`thread::spawn` starts a thread".to_string()
                } else {
                    continue;
                };
                out.push(Finding {
                    rule: Rule::SingleThread,
                    path: relpath.to_string(),
                    line: t.line,
                    message: format!(
                        "{what} — the system runs on one thread of control; own the data, \
                         or lint:allow(shared) with a rationale"
                    ),
                    call_path: Vec::new(),
                });
            }
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R4: crate hygiene
// ---------------------------------------------------------------------------

fn check_crate_hygiene(relpath: &str, src: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let normalized: String = src.chars().filter(|c| !c.is_whitespace()).collect();
    for attr in [
        "#![forbid(unsafe_code)]",
        "#![deny(missing_debug_implementations)]",
    ] {
        let needle: String = attr.chars().filter(|c| !c.is_whitespace()).collect();
        if !normalized.contains(&needle) {
            out.push(Finding {
                rule: Rule::CrateHygiene,
                path: relpath.to_string(),
                line: 1,
                message: format!("lib.rs missing crate attribute {attr}"),
                call_path: Vec::new(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Line-level findings for one file, before allow filtering.
fn line_findings(relpath: &str, src: &str, config: &LintConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    let is_test_file = is_test_path(relpath);

    if relpath.ends_with("src/lib.rs") && !is_test_file {
        findings.extend(check_crate_hygiene(relpath, src));
    }

    if !is_test_file {
        let toks = scan(src);
        let regions = test_regions(&toks);
        if config.is_hot(relpath) {
            findings.extend(check_panic_freedom(relpath, &toks, &regions));
        }
        findings.extend(check_unit_safety(relpath, &toks, &regions));
        findings.extend(check_single_thread(relpath, &toks, &regions));
    }
    findings
}

/// Apply the `lint:allow` escape hatch: an allow on the finding's line or
/// the line directly above suppresses it. A `lint:allow(panic)` also covers
/// R7 findings anchored at the same site.
fn apply_allows(findings: &mut Vec<Finding>, allows: &HashMap<String, HashMap<usize, Vec<Rule>>>) {
    findings.retain(|f| {
        let Some(file_allows) = allows.get(&f.path) else {
            return true;
        };
        let allowed = |line: usize| {
            file_allows.get(&line).is_some_and(|rules| {
                rules.contains(&f.rule)
                    || (f.rule == Rule::PanicReachability && rules.contains(&Rule::PanicFreedom))
            })
        };
        // Findings *about* a malformed allow are never themselves allowable.
        let is_allow_misuse = f.message.starts_with("unknown lint:allow key")
            || f.message.contains("requires a written justification");
        is_allow_misuse || !(allowed(f.line) || (f.line > 1 && allowed(f.line - 1)))
    });
}

/// Lint one file with the line-level rules (R1–R4). `relpath` must be
/// workspace-relative with `/` separators — it selects which rules apply
/// (hot-path, lib.rs, test scaffolding). The semantic rules (R5, R7, R8)
/// need the whole workspace: use [`lint_workspace`].
pub fn lint_file(relpath: &str, src: &str, config: &LintConfig) -> Vec<Finding> {
    let (file_allows, mut findings) = parse_allows(relpath, src);
    findings.extend(line_findings(relpath, src, config));
    let mut allows = HashMap::new();
    allows.insert(relpath.to_string(), file_allows);
    apply_allows(&mut findings, &allows);
    findings.sort_by(|a, b| (a.line, a.rule.id()).cmp(&(b.line, b.rule.id())));
    findings
}

/// Lint a whole workspace: line rules per file plus the semantic rules
/// (R5 determinism, R7 transitive panic reachability over the cross-crate
/// call graph, R8 unreached public functions) and the check that every
/// configured prefix and entry point names something. Findings are sorted
/// `(path, line, rule)`.
pub fn lint_workspace(files: &[SourceFile], config: &LintConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut allows: HashMap<String, HashMap<usize, Vec<Rule>>> = HashMap::new();
    let mut all_facts = Vec::new();
    let mut root_mentions = Vec::new();

    for file in files {
        let (file_allows, allow_findings) = parse_allows(&file.relpath, &file.src);
        allows.insert(file.relpath.clone(), file_allows);
        findings.extend(allow_findings);
        findings.extend(line_findings(&file.relpath, &file.src, config));
        let toks = scan(&file.src);
        if is_test_path(&file.relpath) {
            root_mentions.extend(facts::mentions(&toks, None));
        } else {
            all_facts.push(facts::extract(&file.relpath, &toks));
        }
    }

    findings.extend(rules::check_prefixes(files, config));
    findings.extend(rules::check_determinism(&all_facts, config));
    let call_graph = graph::CallGraph::build(&all_facts);
    findings.extend(rules::check_panic_reachability(&call_graph, config));
    findings.extend(rules::check_unreached(&all_facts, &root_mentions));

    apply_allows(&mut findings, &allows);
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.rule.id(), &a.message).cmp(&(&b.path, b.line, b.rule.id(), &b.message))
    });
    findings.dedup();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot_config() -> LintConfig {
        LintConfig {
            hot_paths: vec![String::new()], // everything is hot
            ..LintConfig::default()
        }
    }

    #[test]
    fn scanner_strips_comments_and_strings() {
        let toks = scan("let x = \"a.unwrap()\"; // .unwrap()\n/* panic! */ y");
        let idents: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["let", "x", "y"]);
    }

    #[test]
    fn r1_flags_unwrap_and_indexing() {
        let src = "fn f(v: Vec<u8>) -> u8 { let a = v.first().unwrap(); v[0] + a }\n";
        let f = lint_file("crates/x/src/a.rs", src, &hot_config());
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.rule == Rule::PanicFreedom));
        assert!(f.iter().all(|x| x.line == 1));
    }

    #[test]
    fn r1_ignores_test_mods_and_macro_brackets() {
        let src = "fn ok() { let v = vec![1, 2]; }\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
        let f = lint_file("crates/x/src/a.rs", src, &hot_config());
        assert!(f.is_empty(), "unexpected: {f:?}");
    }

    #[test]
    fn r1_allow_with_justification() {
        let src = "fn f() {\n    // lint:allow(panic): startup path, config proven present\n    \
                   let x = OPT.unwrap();\n}\n";
        assert!(lint_file("crates/x/src/a.rs", src, &hot_config()).is_empty());
        let bare = "fn f() {\n    // lint:allow(panic)\n    let x = OPT.unwrap();\n}\n";
        let f = lint_file("crates/x/src/a.rs", bare, &hot_config());
        assert_eq!(
            f.len(),
            2,
            "missing justification keeps both findings: {f:?}"
        );
    }

    #[test]
    fn r2_flags_unit_named_f64() {
        let src = "pub fn ingest(co2_ppm: f64, label: &str, pressure_hpa: f64) {}\n";
        let f = lint_file("crates/x/src/a.rs", src, &LintConfig::default());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::UnitSafety);
        assert!(f[0].message.contains("co2_ppm"));
    }

    #[test]
    fn r2_ignores_private_and_newtyped() {
        let src = "fn helper(lat: f64) {}\npub(crate) fn mid(lon: f64) {}\n\
                   pub fn good(lat: Degrees, rssi: Dbm) {}\n";
        assert!(lint_file("crates/x/src/a.rs", src, &LintConfig::default()).is_empty());
    }

    #[test]
    fn r1_and_r7_flag_unreachable() {
        let unreachable = "pub fn f(x: u8) -> u8 {\n    match x {\n        0 => 1,\n        \
                           _ => unreachable!(\"never\"),\n    }\n}\n";
        // `debug_assert!` compiles out of release builds; `assert!` does not.
        let assert = "pub fn f(x: u8) -> u8 {\n    debug_assert!(x < 9);\n    \
                      assert!(x > 0, \"zero\");\n    x\n}\n";
        for (src, line, what) in [(unreachable, 4, "unreachable!"), (assert, 3, "assert!")] {
            let f = lint_file("crates/x/src/a.rs", src, &hot_config());
            assert_eq!(f.len(), 1, "{f:?}");
            assert_eq!((f[0].rule, f[0].line), (Rule::PanicFreedom, line));
            assert!(f[0].message.contains(what));

            let config = LintConfig {
                hot_paths: vec![],
                replay_paths: vec![],
                entry_points: vec![("a".into(), "f".into())],
            };
            let files = [
                SourceFile {
                    relpath: "crates/x/src/a.rs".into(),
                    src: src.into(),
                },
                SourceFile {
                    relpath: "crates/x/tests/t.rs".into(),
                    src: "fn t() { f(1); }".into(),
                },
            ];
            let f = lint_workspace(&files, &config);
            assert_eq!(f.len(), 1, "{f:?}");
            assert_eq!((f[0].rule, f[0].line), (Rule::PanicReachability, line));
        }
    }

    #[test]
    fn r3_flags_shared_state_and_spawn_outside_tests() {
        let src = "use std::sync::{Arc, Mutex};\n\
                   struct S { n: std::sync::atomic::AtomicU64, m: Mutex<u8> }\n\
                   fn f() { std::thread::spawn(|| ()); let _ = RwLock::new(0); }\n\
                   #[cfg(test)]\nmod tests { use std::sync::Condvar; }\n";
        let f = lint_file("crates/x/src/a.rs", src, &LintConfig::default());
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::SingleThread));
        assert_eq!((f[0].line, f[1].line, f[2].line), (1, 2, 3));
    }

    #[test]
    fn r4_requires_headers() {
        let f = lint_file(
            "crates/x/src/lib.rs",
            "pub mod a;\n",
            &LintConfig::default(),
        );
        assert_eq!(f.len(), 2);
        assert!(f
            .iter()
            .all(|x| x.rule == Rule::CrateHygiene && x.line == 1));
        let good = "#![forbid(unsafe_code)]\n#![deny(missing_debug_implementations)]\npub mod a;\n";
        assert!(lint_file("crates/x/src/lib.rs", good, &LintConfig::default()).is_empty());
    }

    #[test]
    fn test_paths_are_exempt() {
        let src = "pub fn f(lat: f64) { X.unwrap(); }\n";
        assert!(lint_file("crates/x/tests/t.rs", src, &hot_config()).is_empty());
    }
}
