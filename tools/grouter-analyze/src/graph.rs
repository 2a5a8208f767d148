//! Call-site extraction and name resolution over the item model, plus the
//! reachability closures the passes consume.
//!
//! Resolution strategy (documented with its caveats in DESIGN.md §5.8):
//!
//! * `recv.method(...)` — if `recv` is `self` and the enclosing impl type
//!   defines `method`, bind exactly those; otherwise bind **all** workspace
//!   methods named `method` (trait objects and generic receivers are
//!   conservatively treated as calling every candidate). No workspace
//!   candidate ⇒ external (a std/vendor method).
//! * `Type::func(...)` — bound via the (type, name) table; `Self::` uses
//!   the enclosing impl type. Unknown type ⇒ external.
//! * `free_fn(...)` / `path::to::fn(...)` — resolved against the local
//!   module, `use` imports, glob imports, and absolute module paths. A
//!   plain name that binds nowhere but collides with a workspace definition
//!   is counted **unresolved** (reported, never silently dropped); a name
//!   with no workspace collision is external.
//! * Uppercase-initial call heads (`Some(`, `Event::Arrival(`) are tuple
//!   constructors, not calls.
//! * `<T as Trait>::f(...)` binds all workspace methods named `f`.
//!
//! Closure bodies are token ranges inside their defining function, so calls
//! made from a closure are attributed to the defining function — which is
//! exactly the conservative attribution reachability needs.

use crate::lexer::{ident_at, punct_at, Sp, Tok};
use crate::model::{is_keyword, FnDef, Workspace};

#[derive(Debug, Clone)]
pub enum Callee {
    /// `a::b::f(...)` or plain `f(...)` — path segments as written.
    Path(Vec<String>),
    /// `.name(...)` with the receiver ident directly before the dot, if any.
    Method { name: String, recv: Option<String> },
}

#[derive(Debug, Clone)]
pub struct CallSite {
    /// Token index of the callee name (ordering key for the taint pass).
    pub tok: usize,
    pub line: usize,
    pub col: usize,
    pub callee: Callee,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolution {
    /// ≥1 workspace target.
    Internal(Vec<usize>),
    /// Confidently outside the workspace (std/vendor).
    External,
    /// Could not bind, but the name collides with a workspace definition.
    Unresolved,
}

#[derive(Debug, Default, Clone)]
pub struct GraphStats {
    pub call_sites: usize,
    pub internal: usize,
    pub external: usize,
    pub unresolved: usize,
}

impl GraphStats {
    /// Fraction of call sites bound to a workspace target or confidently
    /// classified external.
    pub fn resolution_rate(&self) -> f64 {
        if self.call_sites == 0 {
            return 1.0;
        }
        1.0 - self.unresolved as f64 / self.call_sites as f64
    }
}

pub struct CallGraph {
    /// Per-fn resolved call sites (site, resolution).
    pub sites: Vec<Vec<(CallSite, Resolution)>>,
    /// Forward edges fn → callee fns (deduped).
    pub edges: Vec<Vec<usize>>,
    /// Reverse edges.
    pub redges: Vec<Vec<usize>>,
    pub stats: GraphStats,
}

fn is_upper(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

fn is_numeric(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_digit())
}

/// Extract the call sites in `body` (a token range of `toks`).
pub fn extract_call_sites(toks: &[Sp], body: (usize, usize)) -> Vec<CallSite> {
    let (lo, hi) = body;
    let mut out = Vec::new();
    for k in lo..hi {
        if !punct_at(toks, k, '(') || k == 0 {
            continue;
        }
        let mut p = k - 1;
        // Turbofish `f::<T>(` — hop back over the generic args.
        if punct_at(toks, p, '>') && p > lo {
            let mut depth = 1i32;
            let mut m = p;
            while m > lo && depth > 0 {
                m -= 1;
                match toks[m].tok {
                    Tok::Punct('>') => depth += 1,
                    Tok::Punct('<') => depth -= 1,
                    _ => {}
                }
            }
            if depth == 0 && m >= 2 && punct_at(toks, m - 1, ':') && punct_at(toks, m - 2, ':') {
                p = m - 3;
            } else {
                continue;
            }
        }
        let Some(name) = ident_at(toks, p) else {
            continue;
        };
        // `#[expect(`, `#[cfg(`: an attribute, not a call.
        let attribute = p >= 2 && punct_at(toks, p - 1, '[') && punct_at(toks, p - 2, '#');
        if attribute || is_keyword(name) || is_numeric(name) {
            continue;
        }
        let sp = &toks[p];
        if p >= 1 && punct_at(toks, p - 1, '.') {
            // `.name(` — method call; `.0(` tuple-field calls skipped above.
            let recv = if p >= 2 {
                ident_at(toks, p - 2).map(|s| s.to_string())
            } else {
                None
            };
            out.push(CallSite {
                tok: p,
                line: sp.line,
                col: sp.col,
                callee: Callee::Method {
                    name: name.to_string(),
                    recv,
                },
            });
            continue;
        }
        // Walk a `::`-separated path backwards.
        let mut segs = vec![name.to_string()];
        let mut q = p;
        let mut qualified_head = false;
        while q >= 2 && punct_at(toks, q - 1, ':') && punct_at(toks, q - 2, ':') {
            if q >= 3 {
                if let Some(seg) = ident_at(toks, q - 3) {
                    segs.insert(0, seg.to_string());
                    q -= 3;
                    continue;
                }
            }
            // `<T as Trait>::f(` — qualified path head.
            if q >= 3 && punct_at(toks, q - 3, '>') {
                qualified_head = true;
            }
            break;
        }
        if qualified_head {
            out.push(CallSite {
                tok: p,
                line: sp.line,
                col: sp.col,
                callee: Callee::Method {
                    name: name.to_string(),
                    recv: None,
                },
            });
            continue;
        }
        if is_upper(segs.last().unwrap()) {
            // `Some(`, `Event::Arrival(` — tuple constructors, not calls.
            continue;
        }
        // A macro head would have `!` between the name and `(`; the `(`'s
        // predecessor is then `!`, so we never get here for macros.
        out.push(CallSite {
            tok: p,
            line: sp.line,
            col: sp.col,
            callee: Callee::Path(segs),
        });
    }
    out
}

/// Resolve one call site made from `f`.
fn resolve(ws: &Workspace, f: &FnDef, site: &CallSite) -> Resolution {
    let ctx = &ws.files[f.file];
    match &site.callee {
        Callee::Method { name, recv } => {
            if recv.as_deref() == Some("self") {
                if let Some(ty) = &f.type_name {
                    if let Some(targets) = ws.methods_by_type.get(&(ty.clone(), name.clone())) {
                        return Resolution::Internal(targets.clone());
                    }
                }
            }
            match ws.methods_by_name.get(name) {
                Some(targets) => Resolution::Internal(targets.clone()),
                None => Resolution::External,
            }
        }
        Callee::Path(segs) => resolve_path(ws, f, ctx, segs),
    }
}

fn resolve_path(
    ws: &Workspace,
    f: &FnDef,
    ctx: &crate::model::FileCtx,
    segs: &[String],
) -> Resolution {
    let name = segs.last().cloned().unwrap_or_default();
    if segs.len() == 1 {
        // Plain call: local module, then imports, then globs.
        if let Some(&idx) = ws.free_by_module.get(&(f.module.clone(), name.clone())) {
            return Resolution::Internal(vec![idx]);
        }
        if let Some(path) = ctx.imports.get(&name) {
            if let Some(r) = lookup_abs(ws, ctx, path) {
                return r;
            }
        }
        for g in &ctx.globs {
            let mut path = g.clone();
            path.push(name.clone());
            if let Some(r) = lookup_abs(ws, ctx, &path) {
                return r;
            }
        }
        if ws.free_by_name.contains_key(&name) || ws.methods_by_name.contains_key(&name) {
            return Resolution::Unresolved;
        }
        return Resolution::External;
    }

    let qualifier = &segs[segs.len() - 2];
    if is_upper(qualifier) {
        // `Type::func(` (or `Self::func(`).
        let ty = if qualifier == "Self" {
            match &f.type_name {
                Some(t) => t.clone(),
                None => return Resolution::External,
            }
        } else {
            qualifier.clone()
        };
        if let Some(targets) = ws.methods_by_type.get(&(ty, name.clone())) {
            return Resolution::Internal(targets.clone());
        }
        // A workspace type whose assoc fn we don't model (derived impls),
        // or a std type: external either way.
        return Resolution::External;
    }

    // Module-qualified free fn. Try absolute, crate/self/super-relative,
    // file-module-relative, and import-expanded prefixes.
    let prefix = &segs[..segs.len() - 1];
    let mut candidates: Vec<Vec<String>> = Vec::new();
    candidates.push(prefix.to_vec());
    if let Some(expanded) = expand_head(ctx, prefix) {
        candidates.push(expanded);
    }
    let mut rel = ctx.module.clone();
    rel.extend(prefix.iter().cloned());
    candidates.push(rel);
    if let Some(base) = ctx.imports.get(&prefix[0]) {
        let mut path = base.clone();
        path.extend(prefix[1..].iter().cloned());
        candidates.push(path);
    }
    for cand in candidates {
        let cand = normalize(ctx, &cand);
        let joined = cand.join("::");
        if let Some(&idx) = ws.free_by_module.get(&(joined, name.clone())) {
            return Resolution::Internal(vec![idx]);
        }
    }
    if segs[0] == "std" || segs[0] == "core" || segs[0] == "alloc" {
        return Resolution::External;
    }
    if ws.free_by_name.contains_key(&name) {
        return Resolution::Unresolved;
    }
    Resolution::External
}

/// Expand a `crate`/`self`/`super` head against the file's module path.
fn expand_head(ctx: &crate::model::FileCtx, path: &[String]) -> Option<Vec<String>> {
    let head = path.first()?;
    let mut out = match head.as_str() {
        "crate" => vec![ctx.module.first()?.clone()],
        "self" => ctx.module.clone(),
        "super" => {
            let mut m = ctx.module.clone();
            m.pop();
            m
        }
        _ => return None,
    };
    out.extend(path[1..].iter().cloned());
    Some(out)
}

fn normalize(ctx: &crate::model::FileCtx, path: &[String]) -> Vec<String> {
    expand_head(ctx, path).unwrap_or_else(|| path.to_vec())
}

/// Look up an absolute-ish path (typically from a `use`) as a free fn, or
/// as `Type::method` when the second-to-last segment is a type.
fn lookup_abs(ws: &Workspace, ctx: &crate::model::FileCtx, path: &[String]) -> Option<Resolution> {
    if path.is_empty() {
        return None;
    }
    let path = normalize(ctx, path);
    let name = path.last().cloned().unwrap_or_default();
    if path.len() >= 2 {
        let qual = &path[path.len() - 2];
        if is_upper(qual) {
            if let Some(t) = ws.methods_by_type.get(&(qual.clone(), name.clone())) {
                return Some(Resolution::Internal(t.clone()));
            }
            return None;
        }
    }
    let module = path[..path.len() - 1].join("::");
    ws.free_by_module
        .get(&(module, name))
        .map(|&idx| Resolution::Internal(vec![idx]))
}

/// Build the resolved call graph for the workspace.
pub fn build(ws: &Workspace) -> CallGraph {
    let n = ws.fns.len();
    let mut sites = Vec::with_capacity(n);
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut stats = GraphStats::default();
    for (idx, f) in ws.fns.iter().enumerate() {
        let toks = &ws.files[f.file].toks;
        let raw = extract_call_sites(toks, f.body);
        let mut resolved = Vec::with_capacity(raw.len());
        for site in raw {
            let r = resolve(ws, f, &site);
            stats.call_sites += 1;
            match &r {
                Resolution::Internal(targets) => {
                    stats.internal += 1;
                    for &t in targets {
                        edges[idx].push(t);
                    }
                }
                Resolution::External => stats.external += 1,
                Resolution::Unresolved => stats.unresolved += 1,
            }
            resolved.push((site, r));
        }
        edges[idx].sort_unstable();
        edges[idx].dedup();
        sites.push(resolved);
    }
    let mut redges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (src, outs) in edges.iter().enumerate() {
        for &dst in outs {
            redges[dst].push(src);
        }
    }
    CallGraph {
        sites,
        edges,
        redges,
        stats,
    }
}

impl CallGraph {
    /// Forward BFS from `roots`; returns (reached, parent) where `parent`
    /// lets callers reconstruct one example call chain.
    pub fn reach_forward(&self, roots: &[usize]) -> (Vec<bool>, Vec<Option<usize>>) {
        let n = self.edges.len();
        let mut seen = vec![false; n];
        let mut parent = vec![None; n];
        let mut queue: std::collections::VecDeque<usize> = Default::default();
        for &r in roots {
            if !seen[r] {
                seen[r] = true;
                queue.push_back(r);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in &self.edges[u] {
                if !seen[v] {
                    seen[v] = true;
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        (seen, parent)
    }

    /// Reverse BFS: every fn from which some fn in `sinks` is reachable
    /// (sinks included).
    pub fn reach_backward(&self, sinks: &[usize]) -> Vec<bool> {
        let n = self.redges.len();
        let mut seen = vec![false; n];
        let mut queue: std::collections::VecDeque<usize> = Default::default();
        for &s in sinks {
            if !seen[s] {
                seen[s] = true;
                queue.push_back(s);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in &self.redges[u] {
                if !seen[v] {
                    seen[v] = true;
                    queue.push_back(v);
                }
            }
        }
        seen
    }

    /// One example call chain root→…→`to` as fqn strings, following the
    /// BFS parents produced by [`reach_forward`].
    pub fn chain(&self, ws: &Workspace, parent: &[Option<usize>], to: usize) -> Vec<String> {
        let mut chain = vec![ws.fns[to].fqn.clone()];
        let mut cur = to;
        let mut guard = 0;
        while let Some(p) = parent[cur] {
            chain.push(ws.fns[p].fqn.clone());
            cur = p;
            guard += 1;
            if guard > 64 {
                break;
            }
        }
        chain.reverse();
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{parse_workspace, FileInput};
    use std::collections::BTreeMap;

    fn ws_of(files: &[(&str, &str)]) -> Workspace {
        let inputs: Vec<FileInput> = files
            .iter()
            .map(|(p, s)| FileInput {
                path: p.to_string(),
                src: s.to_string(),
            })
            .collect();
        parse_workspace(&inputs, &BTreeMap::new())
    }

    fn fqn_edges(ws: &Workspace, g: &CallGraph) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (i, outs) in g.edges.iter().enumerate() {
            for &j in outs {
                out.push((ws.fns[i].fqn.clone(), ws.fns[j].fqn.clone()));
            }
        }
        out
    }

    #[test]
    fn local_and_method_calls_resolve() {
        let ws = ws_of(&[(
            "crates/sim/src/x.rs",
            "fn helper() {}\nstruct S;\nimpl S {\n    fn go(&self) { helper(); self.aux(); }\n    fn aux(&self) {}\n}\n",
        )]);
        let g = build(&ws);
        let edges = fqn_edges(&ws, &g);
        assert!(edges.contains(&("sim::x::S::go".into(), "sim::x::helper".into())));
        assert!(edges.contains(&("sim::x::S::go".into(), "sim::x::S::aux".into())));
        assert_eq!(g.stats.unresolved, 0);
    }

    #[test]
    fn cross_module_calls_resolve_via_use() {
        let ws = ws_of(&[
            ("crates/sim/src/a.rs", "pub fn leaf() {}\n"),
            (
                "crates/sim/src/b.rs",
                "use crate::a::leaf;\nfn caller() { leaf(); }\n",
            ),
            (
                "crates/sim/src/c.rs",
                "fn caller2() { crate::a::leaf(); }\n",
            ),
        ]);
        let g = build(&ws);
        let edges = fqn_edges(&ws, &g);
        assert!(
            edges.contains(&("sim::b::caller".into(), "sim::a::leaf".into())),
            "{edges:?}"
        );
        assert!(
            edges.contains(&("sim::c::caller2".into(), "sim::a::leaf".into())),
            "{edges:?}"
        );
    }

    #[test]
    fn type_qualified_and_constructor_heads() {
        let ws = ws_of(&[(
            "crates/sim/src/x.rs",
            "struct S;\nimpl S { fn new() -> S { S } fn go() { let _ = S::new(); let _ = Some(1); } }\n",
        )]);
        let g = build(&ws);
        let edges = fqn_edges(&ws, &g);
        assert!(edges.contains(&("sim::x::S::go".into(), "sim::x::S::new".into())));
        // `Some(1)` is not a call site at all.
        assert_eq!(g.stats.call_sites, 1);
    }

    #[test]
    fn method_calls_bind_all_candidates() {
        let ws = ws_of(&[(
            "crates/sim/src/x.rs",
            "struct A; struct B;\nimpl A { fn poke(&self) {} }\nimpl B { fn poke(&self) {} }\nfn go(v: &A) { v.poke(); }\n",
        )]);
        let g = build(&ws);
        let edges = fqn_edges(&ws, &g);
        assert!(edges.contains(&("sim::x::go".into(), "sim::x::A::poke".into())));
        assert!(edges.contains(&("sim::x::go".into(), "sim::x::B::poke".into())));
    }

    #[test]
    fn unknown_names_split_external_vs_unresolved() {
        let ws = ws_of(&[(
            "crates/sim/src/x.rs",
            "fn twin() {}\nmod inner { fn go(f: fn()) { twin(); format_args(); } }\n",
        )]);
        // `twin` exists in the workspace but not in `inner`'s scope →
        // unresolved; `format_args` collides with nothing → external.
        let g = build(&ws);
        assert_eq!(g.stats.unresolved, 1);
        assert_eq!(g.stats.external, 1);
    }

    #[test]
    fn reachability_closures() {
        let ws = ws_of(&[(
            "crates/sim/src/x.rs",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn lonely() {}\n",
        )]);
        let g = build(&ws);
        let (seen, parent) = g.reach_forward(&[0]);
        assert_eq!(seen, vec![true, true, true, false]);
        assert_eq!(
            g.chain(&ws, &parent, 2),
            vec!["sim::x::a", "sim::x::b", "sim::x::c"]
        );
        let back = g.reach_backward(&[2]);
        assert_eq!(back, vec![true, true, true, false]);
    }
}
