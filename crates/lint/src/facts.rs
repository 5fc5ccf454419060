//! Per-function fact extraction: the lightweight item/function parser behind
//! the semantic rules (R5, R7, R8).
//!
//! One pass over the token stream of each file recognizes `impl` blocks,
//! `struct` bodies, and `fn` items, then walks every non-test function body
//! collecting:
//!
//! * **calls** — free (`helper(..)`), method (`recv.helper(..)`), and
//!   qualified (`Type::helper(..)` / `module::helper(..)`) call sites, each
//!   marked when it chains directly off a `.lock()`/`.read()`/`.write()`;
//! * **panic sites** — `.unwrap()`, `.expect()`, `panic!`/`unreachable!`/
//!   `todo!`/`unimplemented!`, and panicking indexing, same heuristics as R1;
//! * **determinism hazards** — iteration over bindings/fields known to be
//!   `HashMap`/`HashSet` typed (unless the chain ends in an order-insensitive
//!   fold or the collected result is sorted afterwards), plus wall-clock
//!   (`SystemTime`, `Instant::now`), thread-identity (`thread::current`), and
//!   `RandomState` usage.
//!
//! Every identifier a body mentions (outside `use` items) is kept too, and
//! so is every identifier of the file's item-level code outside function
//! bodies: R8 reaches functions by name through them.
//!
//! `HashMap`/`HashSet`-typed names are discovered from struct field
//! declarations, `let` bindings, and parameters in the same file — a
//! deliberately local approximation that avoids whole-program type inference
//! while catching the patterns this workspace actually writes.

use crate::lexer::{
    is_non_index_keyword, is_panic_macro, matching_brace, skip_delimited, test_regions, Tok,
    TokKind,
};

/// A source file handed to [`crate::lint_workspace`].
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub relpath: String,
    /// File contents.
    pub src: String,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Callee {
    /// `helper(..)`.
    Free(String),
    /// `recv.helper(..)`.
    Method(String),
    /// `Qual::helper(..)` — `Qual` is a type or module segment.
    Qualified(String, String),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub(crate) struct CallSite {
    pub(crate) callee: Callee,
    /// The call chains directly off a `.lock()/.read()/.write()` guard
    /// (`s.read().stats()`): the callee is a method of the *inner* guarded
    /// type, never of the wrapper that owns the lock.
    pub(crate) via_guard: bool,
}

/// One panicking construct inside a function body.
#[derive(Debug, Clone)]
pub(crate) struct PanicSite {
    pub(crate) line: usize,
    pub(crate) what: String,
}

/// Kind of determinism hazard (R5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DetKind {
    /// Iterating a `HashMap`/`HashSet` in hash order.
    HashIter { recv: String, via: String },
    /// Wall-clock reads (`SystemTime`, `Instant::now`).
    WallClock(String),
    /// `thread::current()` identity.
    ThreadId,
    /// Explicit `RandomState` (seeded hash order).
    RandomState,
}

/// One determinism hazard site.
#[derive(Debug, Clone)]
pub(crate) struct DetSite {
    pub(crate) line: usize,
    pub(crate) kind: DetKind,
}

/// Facts about one function.
#[derive(Debug, Clone)]
pub(crate) struct FnFacts {
    pub(crate) name: String,
    /// Enclosing `impl` type, if any.
    pub(crate) impl_type: Option<String>,
    pub(crate) line: usize,
    pub(crate) has_self: bool,
    /// Declared bare `pub` (not `pub(crate)` and the like).
    pub(crate) is_pub: bool,
    /// Inside an `impl Trait for Type` block or a `trait` body: reached by
    /// trait dispatch, which a name-level analysis cannot follow.
    pub(crate) in_trait: bool,
    /// Identifiers the body mentions outside `use` items, sorted, unique.
    pub(crate) mentions: Vec<String>,
    pub(crate) calls: Vec<CallSite>,
    pub(crate) panics: Vec<PanicSite>,
    pub(crate) det_sites: Vec<DetSite>,
}

/// Facts about one file.
#[derive(Debug, Clone)]
pub(crate) struct FileFacts {
    pub(crate) relpath: String,
    /// Crate name derived from the path (`crates/<name>/…` → `<name>`,
    /// `src/…` → the root crate).
    pub(crate) crate_name: String,
    /// File stem (`store` for `store.rs`) — module-qualified calls
    /// (`store::put`) resolve against it.
    pub(crate) file_stem: String,
    pub(crate) functions: Vec<FnFacts>,
    /// Identifiers of the item-level code outside every function, test
    /// region and `use` item (consts, statics, macro bodies, …).
    pub(crate) item_mentions: Vec<String>,
}

/// Derive the crate name a workspace-relative path belongs to.
pub(crate) fn crate_of(relpath: &str) -> String {
    let mut parts = relpath.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("unknown").to_string(),
        Some("src") => "ctt".to_string(),
        Some(other) => other.to_string(),
        None => "unknown".to_string(),
    }
}

fn file_stem_of(relpath: &str) -> String {
    relpath
        .rsplit('/')
        .next()
        .unwrap_or(relpath)
        .trim_end_matches(".rs")
        .to_string()
}

/// Map-iteration adapters that expose hash order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Iterator terminals whose result does not depend on visit order
/// (assuming side-effect-free closures, which this workspace's style keeps).
const ORDER_INSENSITIVE: &[&str] = &[
    "sum", "count", "min", "max", "any", "all", "is_empty", "len",
];

/// Extract facts for every non-test function in a file.
pub(crate) fn extract(relpath: &str, toks: &[Tok]) -> FileFacts {
    let skip = test_regions(toks);
    let mut facts = FileFacts {
        relpath: relpath.to_string(),
        crate_name: crate_of(relpath),
        file_stem: file_stem_of(relpath),
        functions: Vec::new(),
        item_mentions: Vec::new(),
    };
    // Tokens outside item-level code: test regions and function items.
    let mut masked = vec![false; toks.len()];
    for &(s, e) in &skip {
        masked[s..=e].fill(true);
    }

    // Struct fields with HashMap/HashSet types, collected file-wide.
    let hashy_fields = collect_hashy_fields(toks);

    // impl contexts: (body start, body end, type name, trait impl).
    let impls = collect_impl_ranges(toks);
    let traits = collect_trait_ranges(toks);

    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "fn")
            || crate::lexer::in_regions(&skip, i)
        {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        let name = name_tok.text.clone();
        let fn_line = name_tok.line;
        // Signature: generics, then parameter list.
        let mut j = i + 2;
        if toks.get(j).is_some_and(|t| t.kind == TokKind::Punct('<')) {
            j = skip_generics(toks, j);
        }
        if !toks.get(j).is_some_and(|t| t.kind == TokKind::Punct('(')) {
            i = j;
            continue;
        }
        let params_close = skip_delimited(toks, j, '(', ')');
        let params = &toks[j + 1..params_close];
        let has_self = params
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "self");
        let mut local_hashy = hashy_param_names(params);

        // Body: first `{` before a `;` (trait method decls have none).
        let mut k = params_close + 1;
        let mut body_open = None;
        while k < toks.len() {
            match toks[k].kind {
                TokKind::Punct('{') => {
                    body_open = Some(k);
                    break;
                }
                TokKind::Punct(';') => break,
                _ => k += 1,
            }
        }
        let Some(open) = body_open else {
            masked[i..=k.min(toks.len() - 1)].fill(true);
            i = k + 1;
            continue;
        };
        let close = matching_brace(toks, open);
        masked[i..=close].fill(true);
        let enclosing = impls.iter().find(|&&(s, e, _, _)| i >= s && i <= e);
        let in_trait = enclosing.is_some_and(|&(_, _, _, for_trait)| for_trait)
            || traits.iter().any(|&(s, e)| i >= s && i <= e);

        let mut f = FnFacts {
            name,
            impl_type: enclosing.map(|(_, _, ty, _)| ty.clone()),
            line: fn_line,
            has_self,
            is_pub: is_bare_pub(toks, i),
            in_trait,
            mentions: mentions(&toks[open..=close], None),
            calls: Vec::new(),
            panics: Vec::new(),
            det_sites: Vec::new(),
        };
        analyze_body(toks, open, close, &hashy_fields, &mut local_hashy, &mut f);
        facts.functions.push(f);
        i = close + 1;
    }
    facts.item_mentions = mentions(toks, Some(&masked));
    facts
}

/// Whether the `fn` at `fn_idx` is declared bare `pub`, past any
/// `const`/`async`/`unsafe`/`extern "abi"` qualifiers.
fn is_bare_pub(toks: &[Tok], fn_idx: usize) -> bool {
    let mut k = fn_idx;
    while k > 0 {
        k -= 1;
        match (&toks[k].kind, toks[k].text.as_str()) {
            (TokKind::Ident, "const" | "async" | "unsafe" | "extern") | (TokKind::Literal, _) => {}
            (TokKind::Ident, "pub") => return true,
            _ => return false,
        }
    }
    false
}

/// The identifiers of `toks` outside `use` items and `masked` tokens,
/// sorted and unique. The name a `fn` declares is not a mention of it.
pub(crate) fn mentions(toks: &[Tok], masked: Option<&[bool]>) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_use = false;
    for (k, t) in toks.iter().enumerate() {
        if masked.is_some_and(|m| m[k]) {
            continue;
        }
        let declared = k > 0 && toks[k - 1].text == "fn";
        match t.kind {
            TokKind::Punct(';') => in_use = false,
            TokKind::Ident if t.text == "use" => in_use = true,
            TokKind::Ident if !in_use && !declared => out.push(t.text.clone()),
            _ => {}
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Skip a `<…>` generics list, minding `->` arrows inside bounds.
fn skip_generics(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        match toks[j].kind {
            TokKind::Punct('<') => depth += 1,
            TokKind::Punct('>') if !(j > 0 && toks[j - 1].kind == TokKind::Punct('-')) => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// `(body start, body end, type, trait impl)` for every `impl` block. The
/// type is the last path segment before the body (after `for` when present).
fn collect_impl_ranges(toks: &[Tok]) -> Vec<(usize, usize, String, bool)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.kind == TokKind::Punct('<')) {
            j = skip_generics(toks, j);
        }
        // Scan to the body `{`, remembering the last plain ident seen at
        // angle-depth 0 (and restarting after `for`, so `impl Trait for Type`
        // yields `Type`).
        let mut ty: Option<String> = None;
        let mut for_trait = false;
        let mut angle = 0i32;
        while j < toks.len() {
            match &toks[j].kind {
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') if !(j > 0 && toks[j - 1].kind == TokKind::Punct('-')) => {
                    angle -= 1
                }
                TokKind::Punct('{') if angle <= 0 => break,
                TokKind::Punct(';') => break,
                TokKind::Ident if angle <= 0 => {
                    if toks[j].text == "for" {
                        ty = None;
                        for_trait = true;
                    } else if toks[j].text != "where" && toks[j].text != "dyn" {
                        ty = Some(toks[j].text.clone());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if toks.get(j).is_some_and(|t| t.kind == TokKind::Punct('{')) {
            let close = matching_brace(toks, j);
            if let Some(ty) = ty {
                out.push((j, close, ty, for_trait));
            }
            // Nested impls don't occur; continue after the header so the
            // functions inside are still visited by the main loop.
        }
        i = j + 1;
    }
    out
}

/// `(body start, body end)` of every `trait` definition.
fn collect_trait_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.kind == TokKind::Ident && t.text == "trait") {
            continue;
        }
        let body = toks[i..]
            .iter()
            .position(|t| matches!(t.kind, TokKind::Punct('{') | TokKind::Punct(';')))
            .map(|p| i + p)
            .filter(|&p| toks[p].kind == TokKind::Punct('{'));
        if let Some(open) = body {
            out.push((open, matching_brace(toks, open)));
        }
    }
    out
}

/// Struct field names whose declared type mentions `HashMap`/`HashSet`.
fn collect_hashy_fields(toks: &[Tok]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "struct") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Name, then optional generics.
        if toks.get(j).is_some_and(|t| t.kind == TokKind::Ident) {
            j += 1;
        }
        if toks.get(j).is_some_and(|t| t.kind == TokKind::Punct('<')) {
            j = skip_generics(toks, j);
        }
        if !toks.get(j).is_some_and(|t| t.kind == TokKind::Punct('{')) {
            // Tuple/unit struct: nothing named to record.
            i = j;
            continue;
        }
        let close = matching_brace(toks, j);
        // Fields: `name : Type ,` — record `name` when Type mentions
        // HashMap/HashSet at any nesting.
        let mut k = j + 1;
        while k < close {
            if toks[k].kind == TokKind::Ident
                && toks
                    .get(k + 1)
                    .is_some_and(|t| t.kind == TokKind::Punct(':'))
                && !toks
                    .get(k + 2)
                    .is_some_and(|t| t.kind == TokKind::Punct(':'))
            {
                let field = toks[k].text.clone();
                // Type runs to the next comma at angle/paren depth 0.
                let mut depth = 0i32;
                let mut m = k + 2;
                let mut hashy = false;
                while m < close {
                    match &toks[m].kind {
                        TokKind::Punct('<') | TokKind::Punct('(') | TokKind::Punct('[') => {
                            depth += 1
                        }
                        TokKind::Punct('>') | TokKind::Punct(')') | TokKind::Punct(']') => {
                            depth -= 1
                        }
                        TokKind::Punct(',') if depth <= 0 => break,
                        TokKind::Ident
                            if toks[m].text == "HashMap" || toks[m].text == "HashSet" =>
                        {
                            hashy = true
                        }
                        _ => {}
                    }
                    m += 1;
                }
                if hashy {
                    out.push(field);
                }
                k = m;
            }
            k += 1;
        }
        i = close + 1;
    }
    out
}

/// Parameter names typed as (references to) `HashMap`/`HashSet`.
fn hashy_param_names(params: &[Tok]) -> Vec<String> {
    let mut out = Vec::new();
    let mut k = 0usize;
    while k < params.len() {
        if params[k].kind == TokKind::Ident
            && params
                .get(k + 1)
                .is_some_and(|t| t.kind == TokKind::Punct(':'))
        {
            let name = params[k].text.clone();
            let mut m = k + 2;
            let mut depth = 0i32;
            let mut hashy = false;
            while m < params.len() {
                match &params[m].kind {
                    TokKind::Punct('<') | TokKind::Punct('(') => depth += 1,
                    TokKind::Punct('>') | TokKind::Punct(')') => depth -= 1,
                    TokKind::Punct(',') if depth <= 0 => break,
                    TokKind::Ident
                        if params[m].text == "HashMap" || params[m].text == "HashSet" =>
                    {
                        hashy = true
                    }
                    _ => {}
                }
                m += 1;
            }
            if hashy {
                out.push(name);
            }
            k = m;
        }
        k += 1;
    }
    out
}

/// Rust keywords that can be followed by `(` without being a call.
fn is_call_excluded_keyword(word: &str) -> bool {
    matches!(
        word,
        "if" | "while"
            | "match"
            | "return"
            | "for"
            | "in"
            | "loop"
            | "fn"
            | "move"
            | "as"
            | "where"
            | "impl"
            | "dyn"
            | "let"
            | "else"
            | "break"
            | "continue"
            | "pub"
            | "crate"
            | "super"
            | "self"
            | "Self"
            | "mut"
            | "ref"
            | "use"
            | "mod"
    )
}

/// Walk one function body collecting calls, panics, and determinism hazards.
fn analyze_body(
    toks: &[Tok],
    open: usize,
    close: usize,
    hashy_fields: &[String],
    local_hashy: &mut Vec<String>,
    f: &mut FnFacts,
) {
    let mut stmt_has_let = false;
    let mut stmt_let_name: Option<String> = None;
    // (binding, det-site index) for collected iterations whose order is
    // forgiven if the binding is sorted later in this body.
    let mut sort_pending: Vec<(String, usize)> = Vec::new();
    let mut sorted_names: Vec<String> = Vec::new();

    let is_hashy = |name: &str, locals: &[String]| {
        hashy_fields.iter().any(|h| h == name) || locals.iter().any(|h| h == name)
    };

    let mut i = open;
    while i <= close {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct('{') | TokKind::Punct('}') | TokKind::Punct(';') => {
                stmt_has_let = false;
                stmt_let_name = None;
            }
            TokKind::Punct('[') if i > open => {
                let indexable = match toks[i - 1].kind {
                    TokKind::Ident => !is_non_index_keyword(&toks[i - 1].text),
                    TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('?') => true,
                    _ => false,
                };
                if indexable {
                    f.panics.push(PanicSite {
                        line: t.line,
                        what: "panicking index".to_string(),
                    });
                }
            }
            TokKind::Ident => {
                let prev_dot = i > open && toks[i - 1].kind == TokKind::Punct('.');
                let prev_colons = i >= 2
                    && toks[i - 1].kind == TokKind::Punct(':')
                    && toks[i - 2].kind == TokKind::Punct(':');
                let next_paren = toks
                    .get(i + 1)
                    .is_some_and(|t| t.kind == TokKind::Punct('('));
                let next_bang = toks
                    .get(i + 1)
                    .is_some_and(|t| t.kind == TokKind::Punct('!'));
                let word = t.text.as_str();

                // --- let-binding tracking ---------------------------------
                if word == "let" {
                    stmt_has_let = true;
                    let mut k = i + 1;
                    if toks.get(k).is_some_and(|t| t.text == "mut") {
                        k += 1;
                    }
                    stmt_let_name = toks
                        .get(k)
                        .filter(|t| t.kind == TokKind::Ident)
                        .map(|t| t.text.clone());
                    // `let x : …HashMap…=` / `let x = HashMap::new()` marks a
                    // hashy local.
                    if let Some(name) = &stmt_let_name {
                        let mut m = k + 1;
                        let mut hashy = false;
                        let mut guard_depth = 0i32;
                        while m < close {
                            match &toks[m].kind {
                                TokKind::Punct(';') if guard_depth <= 0 => break,
                                TokKind::Punct('(') | TokKind::Punct('{') | TokKind::Punct('[') => {
                                    guard_depth += 1
                                }
                                TokKind::Punct(')') | TokKind::Punct('}') | TokKind::Punct(']') => {
                                    guard_depth -= 1
                                }
                                TokKind::Ident
                                    if toks[m].text == "HashMap" || toks[m].text == "HashSet" =>
                                {
                                    hashy = true;
                                    break;
                                }
                                _ => {}
                            }
                            m += 1;
                        }
                        if hashy {
                            local_hashy.push(name.clone());
                        }
                    }
                }

                // --- determinism: wall clock / thread id / RandomState -----
                match word {
                    "SystemTime" => f.det_sites.push(DetSite {
                        line: t.line,
                        kind: DetKind::WallClock("SystemTime".to_string()),
                    }),
                    "RandomState" => f.det_sites.push(DetSite {
                        line: t.line,
                        kind: DetKind::RandomState,
                    }),
                    "Instant"
                        if toks
                            .get(i + 1)
                            .is_some_and(|t| t.kind == TokKind::Punct(':'))
                            && toks.get(i + 3).is_some_and(|t| t.text == "now") =>
                    {
                        f.det_sites.push(DetSite {
                            line: t.line,
                            kind: DetKind::WallClock("Instant::now".to_string()),
                        })
                    }
                    "thread"
                        if toks
                            .get(i + 1)
                            .is_some_and(|t| t.kind == TokKind::Punct(':'))
                            && toks.get(i + 3).is_some_and(|t| t.text == "current") =>
                    {
                        f.det_sites.push(DetSite {
                            line: t.line,
                            kind: DetKind::ThreadId,
                        })
                    }
                    _ => {}
                }

                // --- determinism: hash iteration via adapters --------------
                if prev_dot && next_paren && ITER_METHODS.contains(&word) {
                    if let Some(recv) = toks
                        .get(i.wrapping_sub(2))
                        .filter(|r| r.kind == TokKind::Ident)
                    {
                        if is_hashy(&recv.text, local_hashy) {
                            let (suppressed, collected) =
                                chain_suppression(toks, i + 1, close, stmt_has_let);
                            if !suppressed {
                                f.det_sites.push(DetSite {
                                    line: t.line,
                                    kind: DetKind::HashIter {
                                        recv: recv.text.clone(),
                                        via: format!(".{word}()"),
                                    },
                                });
                                if collected {
                                    if let Some(name) = &stmt_let_name {
                                        sort_pending.push((name.clone(), f.det_sites.len() - 1));
                                    }
                                }
                            }
                        }
                    }
                }

                // --- determinism: `for pat in <hashy>` ---------------------
                if word == "in" && !prev_dot && !prev_colons && is_for_in(toks, open, i) {
                    let mut m = i + 1;
                    while m < close && toks[m].kind != TokKind::Punct('{') {
                        if toks[m].kind == TokKind::Ident
                            && is_hashy(&toks[m].text, local_hashy)
                            // Direct iteration only: `map` / `&map` / `&mut
                            // map`, not `map.keys()` (the adapter rule above
                            // owns dotted chains).
                            && !toks
                                .get(m + 1)
                                .is_some_and(|t| t.kind == TokKind::Punct('.'))
                        {
                            f.det_sites.push(DetSite {
                                line: toks[m].line,
                                kind: DetKind::HashIter {
                                    recv: toks[m].text.clone(),
                                    via: "for-loop".to_string(),
                                },
                            });
                            break;
                        }
                        m += 1;
                    }
                }

                // --- sorted-afterwards bookkeeping -------------------------
                if prev_dot && word.starts_with("sort") {
                    if let Some(recv) = toks
                        .get(i.wrapping_sub(2))
                        .filter(|r| r.kind == TokKind::Ident)
                    {
                        sorted_names.push(recv.text.clone());
                    }
                }

                // --- panics ------------------------------------------------
                if prev_dot && next_paren && (word == "unwrap" || word == "expect") {
                    f.panics.push(PanicSite {
                        line: t.line,
                        what: format!(".{word}()"),
                    });
                } else if next_bang && is_panic_macro(word) {
                    f.panics.push(PanicSite {
                        line: t.line,
                        what: format!("{word}!"),
                    });
                }

                // --- calls -------------------------------------------------
                if next_paren && !is_call_excluded_keyword(word) {
                    // `recv.read().name(` — tokens behind `name` are
                    // `. read ( ) .` (or lock/write).
                    let via_guard = prev_dot
                        && i >= 5
                        && toks[i - 2].kind == TokKind::Punct(')')
                        && toks[i - 3].kind == TokKind::Punct('(')
                        && toks[i - 4].kind == TokKind::Ident
                        && matches!(toks[i - 4].text.as_str(), "lock" | "read" | "write")
                        && toks[i - 5].kind == TokKind::Punct('.');
                    let callee = if prev_dot {
                        Some(Callee::Method(word.to_string()))
                    } else if prev_colons {
                        toks.get(i.wrapping_sub(3))
                            .filter(|q| q.kind == TokKind::Ident)
                            .map(|q| Callee::Qualified(q.text.clone(), word.to_string()))
                    } else if i > open
                        && toks[i - 1].kind == TokKind::Ident
                        && toks[i - 1].text == "fn"
                    {
                        None // definition, not a call
                    } else {
                        Some(Callee::Free(word.to_string()))
                    };
                    if let Some(callee) = callee {
                        f.calls.push(CallSite { callee, via_guard });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }

    // Forgive collected iterations whose binding was sorted later.
    let mut forgiven: Vec<usize> = Vec::new();
    for (name, site) in &sort_pending {
        if sorted_names.iter().any(|s| s == name) {
            forgiven.push(*site);
        }
    }
    forgiven.sort_unstable();
    for idx in forgiven.into_iter().rev() {
        f.det_sites.remove(idx);
    }
}

/// Whether the `in` at token `i` belongs to a `for … in` header (rather than
/// e.g. a turbofish or pattern). Scans a few tokens back for the `for`.
fn is_for_in(toks: &[Tok], open: usize, i: usize) -> bool {
    let lo = i.saturating_sub(12).max(open);
    toks[lo..i]
        .iter()
        .rev()
        .any(|t| t.kind == TokKind::Ident && t.text == "for")
}

/// Follow the method chain starting at the argument list `args_open` of an
/// iteration adapter. Returns `(suppressed, collected)`:
/// `suppressed` when the chain ends in an order-insensitive terminal,
/// `collected` when the chain ends in `.collect()` bound by a `let` (the
/// caller then forgives the site if the binding is sorted afterwards).
fn chain_suppression(
    toks: &[Tok],
    args_open: usize,
    close: usize,
    stmt_has_let: bool,
) -> (bool, bool) {
    let mut j = skip_delimited(toks, args_open, '(', ')');
    let mut saw_collect = false;
    loop {
        // Next link must be `.ident(`.
        if !(toks
            .get(j + 1)
            .is_some_and(|t| t.kind == TokKind::Punct('.'))
            && toks.get(j + 2).is_some_and(|t| t.kind == TokKind::Ident))
        {
            break;
        }
        let m = &toks[j + 2];
        // Turbofish (`collect::<…>`) or plain call.
        let mut after = j + 3;
        if toks
            .get(after)
            .is_some_and(|t| t.kind == TokKind::Punct(':'))
            && toks
                .get(after + 1)
                .is_some_and(|t| t.kind == TokKind::Punct(':'))
        {
            after = skip_generics(toks, after + 2);
        }
        if !toks
            .get(after)
            .is_some_and(|t| t.kind == TokKind::Punct('('))
        {
            break;
        }
        if ORDER_INSENSITIVE.contains(&m.text.as_str()) {
            return (true, false);
        }
        if m.text == "collect" {
            saw_collect = true;
        }
        j = skip_delimited(toks, after, '(', ')');
        if j >= close {
            break;
        }
    }
    (false, saw_collect && stmt_has_let)
}
