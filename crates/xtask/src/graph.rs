//! Workspace call graph over [`FileTokens`](crate::tree::FileTokens).
//!
//! Resolution is *name-based with path sharpening*: a call site's
//! candidate targets are every workspace `fn` with the called name,
//! filtered by the caller's `use` imports and explicit path segments
//! when those are present. Two policies serve the two rule families:
//!
//! * [`Resolve::Aggressive`] (unsafe-provenance) resolves every call
//!   form, method calls included — over-approximating reachability is
//!   the safe direction when the question is "can a raw pointer escape
//!   here".
//! * [`Resolve::Conservative`] (lock-order closure) resolves free
//!   calls, path calls and `self.`-rooted method calls only. Method
//!   calls on arbitrary receivers are overwhelmingly std container
//!   methods (`guard.pop()`, `shelf.is_empty()`); resolving those by
//!   bare name would invent lock edges out of `VecDeque::pop` and
//!   manufacture spurious deadlock cycles. The cost is a documented
//!   under-approximation: lock acquisitions behind non-`self` method
//!   calls are not closed over.
//!
//! Explicit paths that resolve to nothing in the workspace (e.g.
//! `std::mem::take`, `PoisonError::into_inner`) produce *no* edges —
//! an explicitly qualified external name is not evidence of a
//! workspace call.

use std::collections::{BTreeMap, BTreeSet};

use crate::tree::{calls_in, extract_items, CallSite, FileTokens, FnItem, Items};

/// Call-resolution policy; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolve {
    /// Resolve every call form by name (provenance-style reachability).
    Aggressive,
    /// Resolve free/path/`self.`-rooted calls only (lock-order closure).
    Conservative,
}

/// A function node: indices into the graph's file and item tables.
#[derive(Debug, Clone, Copy)]
pub struct FnRef {
    /// Index into the `files`/`items` slices.
    pub file: usize,
    /// Index into that file's `Items::fns`.
    pub item: usize,
}

/// The workspace call graph.
pub struct CallGraph<'a> {
    /// The parsed files, in the caller's (sorted) order.
    pub files: &'a [FileTokens],
    /// Extracted items, parallel to `files`.
    pub items: Vec<Items>,
    /// Every function node, in (file, source) order.
    pub fns: Vec<FnRef>,
    /// Bare name → function-node ids, deterministic order.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Call sites per function node (body order).
    pub calls: Vec<Vec<CallSite>>,
}

impl<'a> CallGraph<'a> {
    /// Extract items and call sites from every file and index them.
    pub fn build(files: &'a [FileTokens]) -> CallGraph<'a> {
        let items: Vec<Items> = files.iter().map(extract_items).collect();
        let mut fns = Vec::new();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (fi, it) in items.iter().enumerate() {
            for (ii, f) in it.fns.iter().enumerate() {
                let id = fns.len();
                fns.push(FnRef { file: fi, item: ii });
                by_name.entry(f.name.clone()).or_default().push(id);
            }
        }
        let calls = fns
            .iter()
            .map(|r| {
                let f = &files[r.file];
                match items[r.file].fns[r.item].body {
                    Some((open, close)) => calls_in(f, (open + 1, close)),
                    None => Vec::new(),
                }
            })
            .collect();
        CallGraph { files, items, fns, by_name, calls }
    }

    /// The [`FnItem`] behind a node id.
    pub fn item(&self, id: usize) -> &FnItem {
        let r = self.fns[id];
        &self.items[r.file].fns[r.item]
    }

    /// Full path of a node: module path + bare name.
    pub fn full_path(&self, id: usize) -> Vec<String> {
        let it = self.item(id);
        let mut p = it.mod_path.clone();
        p.push(it.name.clone());
        p
    }

    /// Total call sites across all functions (summary statistic).
    pub fn call_count(&self) -> usize {
        self.calls.iter().map(Vec::len).sum()
    }

    /// Resolve one call site from `caller` under `policy` into node ids.
    pub fn resolve(&self, caller: usize, site: &CallSite, policy: Resolve) -> Vec<usize> {
        if site.method && policy == Resolve::Conservative && !site.self_rooted {
            return Vec::new();
        }
        let Some(candidates) = self.by_name.get(&site.name) else {
            return Vec::new();
        };
        if site.method {
            // No path information on a method call: all candidates.
            return candidates.clone();
        }
        // Free/path call: substitute the caller's imports, then require
        // the candidate's full path to end with the resolved segments.
        let caller_file = self.fns[caller].file;
        let segs = self.resolve_path_segments(caller_file, &site.path);
        let Some(segs) = segs else {
            return Vec::new(); // explicitly external (std/core/alloc)
        };
        let matched: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&id| {
                let full = self.full_path(id);
                full.len() >= segs.len() && full[full.len() - segs.len()..] == segs[..]
            })
            .collect();
        if matched.is_empty() && segs.len() > 1 {
            // A multi-segment path matching no workspace item is an
            // external call, not an over-approximation opportunity.
            return Vec::new();
        }
        if matched.is_empty() {
            return candidates.clone();
        }
        matched
    }

    /// Expand a call path against the caller file's `use` imports and
    /// `crate`/`super`/`self`/`Self` prefixes. `None` means the path is
    /// explicitly external.
    fn resolve_path_segments(&self, file: usize, path: &[String]) -> Option<Vec<String>> {
        let mut segs: Vec<String> =
            path.iter().filter(|s| *s != "Self" && *s != "self").cloned().collect();
        if segs.is_empty() {
            return Some(path.to_vec());
        }
        let file_path = crate::tree::file_mod_path(&self.files[file].rel);
        if segs[0] == "crate" {
            segs.splice(0..1, file_path.first().cloned());
        } else if segs[0] == "super" {
            let mut parent = file_path.clone();
            parent.pop();
            segs.splice(0..1, parent);
        } else if let Some(u) =
            self.items[file].uses.iter().find(|u| u.name == segs[0])
        {
            segs.splice(0..1, u.path.iter().cloned());
        }
        if matches!(segs.first().map(String::as_str), Some("std" | "core" | "alloc")) {
            return None;
        }
        Some(segs)
    }

    /// Transitive closure of `seed` values over resolved call edges:
    /// `out[f] = seed[f] ∪ ⋃ out[callee]`, computed to a fixpoint (so
    /// recursion and call cycles converge instead of recursing).
    pub fn close_over_calls(
        &self,
        seed: &BTreeMap<usize, BTreeSet<String>>,
        policy: Resolve,
    ) -> BTreeMap<usize, BTreeSet<String>> {
        // Precompute resolved callees once.
        let callees: Vec<BTreeSet<usize>> = (0..self.fns.len())
            .map(|id| {
                self.calls[id]
                    .iter()
                    .flat_map(|site| self.resolve(id, site, policy))
                    .collect()
            })
            .collect();
        let mut out: BTreeMap<usize, BTreeSet<String>> = seed.clone();
        loop {
            let mut changed = false;
            for (id, called) in callees.iter().enumerate() {
                let mut add: BTreeSet<String> = BTreeSet::new();
                for &callee in called {
                    if let Some(vals) = out.get(&callee) {
                        add.extend(vals.iter().cloned());
                    }
                }
                if add.is_empty() {
                    continue;
                }
                let entry = out.entry(id).or_default();
                let before = entry.len();
                entry.extend(add);
                changed |= entry.len() != before;
            }
            if !changed {
                return out;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::FileTokens;

    fn graph(files: &[FileTokens]) -> CallGraph<'_> {
        CallGraph::build(files)
    }

    #[test]
    fn free_calls_resolve_within_the_workspace() {
        let files = vec![
            FileTokens::parse("crates/a/src/lib.rs", "pub fn helper() {}"),
            FileTokens::parse("crates/a/src/m.rs", "use crate::helper;\nfn go() { helper(); }"),
        ];
        let g = graph(&files);
        let go = g.by_name["go"][0];
        let targets = g.resolve(go, &g.calls[go][0], Resolve::Conservative);
        assert_eq!(targets, g.by_name["helper"]);
    }

    #[test]
    fn explicit_std_paths_resolve_to_nothing() {
        let files = vec![FileTokens::parse(
            "crates/a/src/m.rs",
            "fn take() {}\nfn go() { std::mem::take(&mut 1); }",
        )];
        let g = graph(&files);
        let go = g.by_name["go"][0];
        assert!(g.resolve(go, &g.calls[go][0], Resolve::Aggressive).is_empty());
    }

    #[test]
    fn conservative_skips_foreign_method_calls() {
        let files = vec![FileTokens::parse(
            "crates/a/src/m.rs",
            "fn pop() {}\nfn go(q: &mut Q) { q.pop(); self.pop(); }",
        )];
        let g = graph(&files);
        let go = g.by_name["go"][0];
        let foreign = &g.calls[go][0];
        let selfish = &g.calls[go][1];
        assert!(g.resolve(go, foreign, Resolve::Conservative).is_empty());
        assert_eq!(g.resolve(go, selfish, Resolve::Conservative), g.by_name["pop"]);
        assert_eq!(g.resolve(go, foreign, Resolve::Aggressive), g.by_name["pop"]);
    }

    #[test]
    fn closure_reaches_through_helpers_and_cycles() {
        let files = vec![FileTokens::parse(
            "crates/a/src/m.rs",
            "fn a() { b(); }\nfn b() { c(); b(); }\nfn c() {}",
        )];
        let g = graph(&files);
        let (a, c) = (g.by_name["a"][0], g.by_name["c"][0]);
        let mut seed = BTreeMap::new();
        seed.insert(c, BTreeSet::from(["L".to_string()]));
        let closed = g.close_over_calls(&seed, Resolve::Conservative);
        assert!(closed[&a].contains("L"));
    }
}
