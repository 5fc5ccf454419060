//! Workspace call graph, the substrate of panic reachability (R7).
//!
//! Call resolution is name-based and deliberately conservative:
//!
//! * `Type::name(..)` resolves to functions named `name` inside
//!   `impl Type` blocks; failing that, `module::name(..)` resolves to free
//!   functions in the file `module.rs`.
//! * `recv.name(..)` and `name(..)` resolve by bare name — but only when the
//!   name is not on the common-`std`-method deny list, and only when the
//!   candidate set is small (same-crate candidates first, then workspace-wide
//!   if few). Ambiguous names stay unlinked rather than fabricating paths.
//!
//! This trades soundness for signal: the rules over these graphs never have
//! to wade through `Vec::push` lookalike edges, and the documented escape
//! hatches cover what slips through.

use std::collections::BTreeMap;

use crate::facts::{Callee, FileFacts};

/// Method names too generic to link by name: shadowing a `std` container or
/// iterator method of the same name would fabricate call-graph edges.
const COMMON_METHODS: &[&str] = &[
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_deref",
    "as_mut",
    "as_ref",
    "as_str",
    "bytes",
    "chain",
    "chars",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "copied",
    "count",
    "default",
    "drain",
    "entry",
    "enumerate",
    "eq",
    "extend",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "fold",
    "fmt",
    "from",
    "get",
    "get_mut",
    "get_or_insert",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lock",
    "map",
    "max",
    "min",
    "new",
    "next",
    "ok_or",
    "ok_or_else",
    "parse",
    "peek",
    "pop",
    "position",
    "push",
    "read",
    "recv",
    "remove",
    "replace",
    "retain",
    "rev",
    "send",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "split",
    "starts_with",
    "sum",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "try_send",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "write",
    "zip",
];

/// Index of one function in the workspace (file index, function index).
pub(crate) type FnId = (usize, usize);

/// The cross-crate call graph over extracted facts.
#[derive(Debug)]
pub(crate) struct CallGraph<'a> {
    pub(crate) files: &'a [FileFacts],
    /// Resolved call edges: caller → callees, one per resolved call site.
    pub(crate) edges: BTreeMap<FnId, Vec<FnId>>,
}

impl<'a> CallGraph<'a> {
    /// Build the graph: index every function, then resolve every call site.
    pub(crate) fn build(files: &'a [FileFacts]) -> Self {
        // Name indexes. impl-qualified: (type, name) → ids. Free-by-file:
        // (file stem, name) → ids. Bare: name → ids (split by method/free).
        let mut by_impl: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new();
        let mut by_file_free: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new();
        let mut methods: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        let mut frees: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.functions.iter().enumerate() {
                let id = (fi, gi);
                if let Some(ty) = &f.impl_type {
                    by_impl.entry((ty, &f.name)).or_default().push(id);
                } else {
                    by_file_free
                        .entry((&file.file_stem, &f.name))
                        .or_default()
                        .push(id);
                }
                if f.has_self {
                    methods.entry(&f.name).or_default().push(id);
                } else {
                    frees.entry(&f.name).or_default().push(id);
                }
            }
        }

        let crate_of_id = |id: FnId| files[id.0].crate_name.as_str();
        // Bare-name resolution: same-crate candidates when few, else
        // workspace-wide when nearly unique, else unlinked.
        let resolve_bare = |cands: Option<&Vec<FnId>>, caller_crate: &str| -> Vec<FnId> {
            let Some(cands) = cands else {
                return Vec::new();
            };
            let same: Vec<FnId> = cands
                .iter()
                .copied()
                .filter(|&id| crate_of_id(id) == caller_crate)
                .collect();
            if (1..=3).contains(&same.len()) {
                return same;
            }
            if same.is_empty() && (1..=2).contains(&cands.len()) {
                return cands.clone();
            }
            Vec::new()
        };

        let mut edges: BTreeMap<FnId, Vec<FnId>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.functions.iter().enumerate() {
                let caller = (fi, gi);
                let caller_crate = file.crate_name.as_str();
                for call in &f.calls {
                    let targets: Vec<FnId> = match &call.callee {
                        Callee::Qualified(q, n) => {
                            if let Some(ids) = by_impl.get(&(q.as_str(), n.as_str())) {
                                let same: Vec<FnId> = ids
                                    .iter()
                                    .copied()
                                    .filter(|&id| crate_of_id(id) == caller_crate)
                                    .collect();
                                if same.is_empty() {
                                    ids.clone()
                                } else {
                                    same
                                }
                            } else if let Some(ids) = by_file_free.get(&(q.as_str(), n.as_str())) {
                                ids.clone()
                            } else {
                                Vec::new()
                            }
                        }
                        Callee::Method(n) => {
                            if COMMON_METHODS.contains(&n.as_str()) {
                                Vec::new()
                            } else {
                                resolve_bare(methods.get(n.as_str()), caller_crate)
                            }
                        }
                        Callee::Free(n) => {
                            if COMMON_METHODS.contains(&n.as_str()) {
                                Vec::new()
                            } else {
                                resolve_bare(frees.get(n.as_str()), caller_crate)
                            }
                        }
                    };
                    // Bare-name self-links are almost always a shared method
                    // name on a different receiver (`db.put_batch(points)`
                    // inside `ShardedTsdb::put_batch`), not recursion — and
                    // recursion adds no reachability anyway. Drop them. A
                    // call chained on a lock guard runs on the *inner*
                    // guarded type, so candidates on the caller's own type
                    // (the lock wrapper) are type confusion — drop those too.
                    let caller_ty = f.impl_type.as_deref();
                    let via_guard = call.via_guard;
                    let targets = targets.into_iter().filter(|&t| {
                        t != caller
                            && !(via_guard
                                && caller_ty.is_some()
                                && files[t.0].functions[t.1].impl_type.as_deref() == caller_ty)
                    });
                    edges.entry(caller).or_default().extend(targets);
                }
            }
        }
        CallGraph { files, edges }
    }

    /// Human label for a function: `Type::name` or `stem::name`.
    pub(crate) fn label(&self, id: FnId) -> String {
        let file = &self.files[id.0];
        let f = &file.functions[id.1];
        match &f.impl_type {
            Some(ty) => format!("{ty}::{}", f.name),
            None => format!("{}::{}", file.file_stem, f.name),
        }
    }

    /// `path:line` of a function's declaration.
    pub(crate) fn site(&self, id: FnId) -> String {
        let file = &self.files[id.0];
        format!("{}:{}", file.relpath, file.functions[id.1].line)
    }

    /// Shortest call paths from `entry` to every reachable function
    /// (including `entry` itself), as predecessor links.
    pub(crate) fn reachable_from(&self, entry: FnId) -> BTreeMap<FnId, Option<FnId>> {
        let mut pred: BTreeMap<FnId, Option<FnId>> = BTreeMap::new();
        pred.insert(entry, None);
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(entry);
        while let Some(cur) = queue.pop_front() {
            if let Some(nexts) = self.edges.get(&cur) {
                for &next in nexts {
                    if let std::collections::btree_map::Entry::Vacant(e) = pred.entry(next) {
                        e.insert(Some(cur));
                        queue.push_back(next);
                    }
                }
            }
        }
        pred
    }

    /// Reconstruct the entry → … → `target` label path from predecessors.
    pub(crate) fn path_to(&self, pred: &BTreeMap<FnId, Option<FnId>>, target: FnId) -> Vec<String> {
        let mut chain = vec![target];
        let mut cur = target;
        while let Some(Some(p)) = pred.get(&cur) {
            chain.push(*p);
            cur = *p;
        }
        chain.reverse();
        chain
            .into_iter()
            .map(|id| format!("{} ({})", self.label(id), self.site(id)))
            .collect()
    }
}
