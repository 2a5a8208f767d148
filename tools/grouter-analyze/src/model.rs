//! The lightweight item model: every workspace source file parsed into
//! functions (free, inherent-impl, trait-impl, trait-default), module
//! paths, `use` imports, and hash-container-typed names.
//!
//! This is deliberately NOT a Rust parser — it is a cursor over the
//! [`crate::lexer`] token stream that understands exactly the item grammar the
//! workspace uses: `fn`, `impl [Trait for] Type`, `trait`, inline `mod`,
//! `use` trees, `struct`/`enum` field lists, and `const`/`static`/
//! `macro_rules!` skipping. Everything it punts on is listed in
//! DESIGN.md §5.8 (soundness caveats).

use crate::lexer::{
    cfg_test_mask, close_of, expectations, ident_at, parse_pragmas, punct_at, tokenize,
    Expectation, Pragma, Sp, Tok,
};
use std::collections::{BTreeMap, BTreeSet};

/// One source file to analyze. `path` is the path the model sees (fixtures
/// impersonate in-tree locations via `//@ path:` headers).
pub struct FileInput {
    pub path: String,
    pub src: String,
}

/// Per-file context retained for resolution and the passes.
pub struct FileCtx {
    pub path: String,
    /// Module path of the file root, e.g. `["grouter_sim", "flownet"]`.
    pub module: Vec<String>,
    /// Under a `tests/` or `benches/` directory: never an entry point and
    /// never a finding source.
    pub masked_file: bool,
    pub toks: Vec<Sp>,
    pub cfg_mask: Vec<bool>,
    /// `use` imports: leaf (or `as` alias) → full path segments.
    pub imports: BTreeMap<String, Vec<String>>,
    /// `use path::*` glob targets.
    pub globs: Vec<Vec<String>>,
    /// Identifiers declared anywhere in the file with a hash-container
    /// type (`HashMap`/`HashSet`/`FxHashMap`/`FxHashSet`), via `name: Type`
    /// ascription (params, fields, lets) or `name = FxHashMap::default()`.
    pub hashy: BTreeSet<String>,
    /// `grouter-analyze:` pragmas in this file.
    pub pragmas: Vec<Pragma>,
    /// `#[expect(clippy::…)]` attributes: clippy already holds each one to
    /// a justified site, so the passes do not report that site again.
    pub expects: Vec<Expectation>,
}

/// A function definition in the item model.
pub struct FnDef {
    pub file: usize,
    /// `module::Type::name` or `module::name`; `#N` appended on collision
    /// (e.g. `fmt` from two trait impls on one type).
    pub fqn: String,
    pub name: String,
    /// Impl-block type (or trait, for default methods) this fn belongs to.
    pub type_name: Option<String>,
    /// Trait being implemented, when inside `impl Trait for Type`.
    pub trait_name: Option<String>,
    pub module: String,
    pub line: usize,
    pub col: usize,
    /// Token-index range of the body, exclusive of the braces.
    pub body: (usize, usize),
    /// In a `#[cfg(test)]` region or a tests/benches file.
    pub masked: bool,
}

/// The parsed workspace: all functions plus the lookup tables resolution
/// uses. All tables are ordered so analysis output is deterministic.
pub struct Workspace {
    pub files: Vec<FileCtx>,
    pub fns: Vec<FnDef>,
    /// (type name, method name) → fn indices (all impls, all modules).
    pub methods_by_type: BTreeMap<(String, String), Vec<usize>>,
    /// Method name → fn indices across every impl/trait block.
    pub methods_by_name: BTreeMap<String, Vec<usize>>,
    /// (module path joined with `::`, fn name) → fn index, free fns only.
    pub free_by_module: BTreeMap<(String, String), usize>,
    /// Free-fn name → fn indices.
    pub free_by_name: BTreeMap<String, Vec<usize>>,
}

const HASH_TYPES: [&str; 4] = ["HashMap", "HashSet", "FxHashMap", "FxHashSet"];

/// Keywords that look like call heads or bindings but are not.
pub const KEYWORDS: [&str; 22] = [
    "fn", "if", "else", "while", "for", "in", "match", "return", "loop", "let", "mut", "ref",
    "move", "as", "use", "pub", "where", "impl", "dyn", "box", "unsafe", "await",
];

pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Derive the module path for a file. `crates/<dir>/src/a/b.rs` becomes
/// `[crate_ident(dir), "a", "b"]`; `lib.rs` and `mod.rs` terminate at their
/// directory; `main.rs` and `src/bin/x.rs` get a `__main`/`__bin_x` leaf so
/// binary-crate items never collide with the library's.
fn module_path(path: &str, crate_names: &BTreeMap<String, String>) -> (Vec<String>, bool) {
    let norm = path.replace('\\', "/");
    let segs: Vec<&str> = norm.split('/').filter(|s| !s.is_empty()).collect();
    let masked = segs.iter().any(|&s| s == "tests" || s == "benches");
    let Some(cpos) = segs.iter().position(|&s| s == "crates") else {
        // Not under crates/: treat the stem as a standalone module.
        let stem = segs
            .last()
            .map(|s| s.trim_end_matches(".rs"))
            .unwrap_or("unknown");
        return (vec![stem.replace('-', "_")], masked);
    };
    let dir = segs.get(cpos + 1).copied().unwrap_or("unknown");
    let ident = crate_names
        .get(dir)
        .cloned()
        .unwrap_or_else(|| dir.replace('-', "_"));
    let mut out = vec![ident];
    let rest: Vec<&str> = segs[cpos + 2..].to_vec();
    // Everything after `src/`; tests/benches files get their own leaf.
    let body: Vec<&str> = match rest.iter().position(|&s| s == "src") {
        Some(spos) => rest[spos + 1..].to_vec(),
        None => rest,
    };
    for (i, seg) in body.iter().enumerate() {
        let last = i + 1 == body.len();
        if last {
            let stem = seg.trim_end_matches(".rs");
            match stem {
                "lib" | "mod" => {}
                "main" => out.push("__main".into()),
                _ => out.push(stem.replace('-', "_")),
            }
        } else if *seg == "bin" {
            out.push("__bin".into());
        } else {
            out.push(seg.replace('-', "_"));
        }
    }
    (out, masked)
}

struct Parser<'a> {
    toks: &'a [Sp],
    cfg_mask: &'a [bool],
    file: usize,
    masked_file: bool,
    fns: Vec<FnDef>,
    imports: BTreeMap<String, Vec<String>>,
    globs: Vec<Vec<String>>,
}

impl<'a> Parser<'a> {
    fn ident(&self, i: usize) -> Option<&str> {
        ident_at(self.toks, i)
    }

    fn punct(&self, i: usize, c: char) -> bool {
        punct_at(self.toks, i, c)
    }

    /// Index of the matching close brace for the open brace at `open`.
    fn match_brace(&self, open: usize, end: usize) -> usize {
        close_of(self.toks, open).min(end.saturating_sub(1))
    }

    /// Scan from `i` for the first `{` (returning its index) or `;`
    /// (returning `Err(index)`), within `end`.
    fn find_body(&self, i: usize, end: usize) -> Result<usize, usize> {
        let mut j = i;
        while j < end {
            match self.toks[j].tok {
                Tok::Punct('{') => return Ok(j),
                Tok::Punct(';') => return Err(j),
                _ => j += 1,
            }
        }
        Err(end.saturating_sub(1))
    }

    /// Skip a balanced `(...)`/`[...]`/`{...}`-aware region until a `;` at
    /// depth 0 (used for const/static initializers, which may contain
    /// struct literals). Returns the index one past the `;`.
    fn skip_to_semi(&self, mut i: usize, end: usize) -> usize {
        let mut depth = 0i32;
        while i < end {
            match self.toks[i].tok {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
                Tok::Punct(';') if depth <= 0 => return i + 1,
                _ => {}
            }
            i += 1;
        }
        end
    }

    /// Parse a `use` tree starting after the `use` keyword; returns the
    /// index one past the terminating `;`.
    fn parse_use(&mut self, mut i: usize, end: usize) -> usize {
        let mut prefix: Vec<String> = Vec::new();
        i = self.parse_use_tree(i, end, &mut prefix);
        while i < end && !self.punct(i, ';') {
            i += 1;
        }
        i + 1
    }

    /// Recursive use-tree walk; `prefix` is the path accumulated so far.
    fn parse_use_tree(&mut self, mut i: usize, end: usize, prefix: &mut Vec<String>) -> usize {
        let depth0 = prefix.len();
        loop {
            if i >= end {
                return i;
            }
            if let Some(seg) = self.ident(i) {
                if seg == "as" {
                    // `path as alias`
                    if let Some(alias) = self.ident(i + 1) {
                        self.imports.insert(alias.to_string(), prefix.clone());
                        i += 2;
                    } else {
                        i += 1;
                    }
                    continue;
                }
                prefix.push(seg.to_string());
                i += 1;
                if self.punct(i, ':') && self.punct(i + 1, ':') {
                    i += 2;
                    continue;
                }
                // Leaf (unless an `as` alias follows and replaces it).
                if !matches!(self.ident(i), Some("as")) {
                    let leaf = prefix.last().cloned().unwrap_or_default();
                    let leaf = if leaf == "self" {
                        prefix.pop();
                        prefix.last().cloned().unwrap_or_default()
                    } else {
                        leaf
                    };
                    if !leaf.is_empty() {
                        self.imports.insert(leaf, prefix.clone());
                    }
                }
                continue;
            }
            if self.punct(i, '*') {
                self.globs.push(prefix.clone());
                i += 1;
                continue;
            }
            if self.punct(i, '{') {
                i += 1;
                loop {
                    if i >= end || self.punct(i, '}') {
                        i += 1;
                        break;
                    }
                    if self.punct(i, ',') {
                        i += 1;
                        continue;
                    }
                    let mut sub = prefix.clone();
                    i = self.parse_use_tree(i, end, &mut sub);
                }
                prefix.truncate(depth0);
                return i;
            }
            // `,`, `}`, `;` — end of this subtree.
            prefix.truncate(depth0);
            return i;
        }
    }

    /// Read a type path like `fmt::Display` or `ShardedEngine<W>` starting
    /// at `i`; returns (last type ident, index after the path incl. its
    /// generic args). Skips leading `&`/`mut`/`dyn` and lifetimes.
    fn read_type_path(&self, mut i: usize, end: usize) -> (Option<String>, usize) {
        while i < end && (self.punct(i, '&') || matches!(self.ident(i), Some("mut") | Some("dyn")))
        {
            i += 1;
        }
        let mut last: Option<String> = None;
        while i < end {
            if let Some(seg) = self.ident(i) {
                if seg == "for" || seg == "where" {
                    break;
                }
                last = Some(seg.to_string());
                i += 1;
                if self.punct(i, ':') && self.punct(i + 1, ':') {
                    i += 2;
                    continue;
                }
                if self.punct(i, '<') {
                    i = self.skip_angles(i, end);
                }
                break;
            }
            break;
        }
        (last, i)
    }

    /// At a `<`: skip to one past its matching `>`, treating `->` as inert.
    fn skip_angles(&self, open: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut i = open;
        while i < end {
            match self.toks[i].tok {
                Tok::Punct('<') => depth += 1,
                Tok::Punct('>') => {
                    // `->` inside Fn() sugar: `-` directly before.
                    let arrow = i > 0 && matches!(self.toks[i - 1].tok, Tok::Punct('-'));
                    if !arrow {
                        depth -= 1;
                        if depth == 0 {
                            return i + 1;
                        }
                    }
                }
                _ => {}
            }
            i += 1;
        }
        end
    }

    /// Parse items in `[i, end)`; `owner` is the impl/trait context.
    fn items(
        &mut self,
        mut i: usize,
        end: usize,
        module: &mut Vec<String>,
        owner: Option<(String, Option<String>)>,
    ) {
        while i < end {
            let Some(name) = self.ident(i) else {
                // Attributes: skip the bracketed group so `#[cfg(feature =
                // "x")]` contents are never mistaken for items.
                if self.punct(i, '#') && self.punct(i + 1, '[') {
                    i = close_of(self.toks, i + 1) + 1;
                } else {
                    i += 1;
                }
                continue;
            };
            match name {
                "fn" => {
                    let Some(fname) = self.ident(i + 1) else {
                        i += 1;
                        continue;
                    };
                    let fname = fname.to_string();
                    let sp = &self.toks[i];
                    match self.find_body(i + 2, end) {
                        Ok(open) => {
                            let close = self.match_brace(open, end);
                            let module_s = module.join("::");
                            let fqn_base = match &owner {
                                Some((ty, _)) => format!("{module_s}::{ty}::{fname}"),
                                None => format!("{module_s}::{fname}"),
                            };
                            self.fns.push(FnDef {
                                file: self.file,
                                fqn: fqn_base,
                                name: fname,
                                type_name: owner.as_ref().map(|(t, _)| t.clone()),
                                trait_name: owner.as_ref().and_then(|(_, tr)| tr.clone()),
                                module: module_s,
                                line: sp.line,
                                col: sp.col,
                                body: (open + 1, close),
                                masked: self.masked_file || self.cfg_mask[i],
                            });
                            i = close + 1;
                        }
                        Err(semi) => i = semi + 1, // trait method decl / extern
                    }
                }
                "impl" => {
                    let mut j = i + 1;
                    if self.punct(j, '<') {
                        j = self.skip_angles(j, end);
                    }
                    let (first, after) = self.read_type_path(j, end);
                    let (ty, tr);
                    let mut k = after;
                    if matches!(self.ident(k), Some("for")) {
                        let (second, after2) = self.read_type_path(k + 1, end);
                        ty = second;
                        tr = first;
                        k = after2;
                    } else {
                        ty = first;
                        tr = None;
                    }
                    match self.find_body(k, end) {
                        Ok(open) => {
                            let close = self.match_brace(open, end);
                            let owner = Some((ty.unwrap_or_else(|| "_".into()), tr));
                            self.items(open + 1, close, module, owner);
                            i = close + 1;
                        }
                        Err(semi) => i = semi + 1,
                    }
                }
                "trait" => {
                    let tname = self.ident(i + 1).unwrap_or("_").to_string();
                    match self.find_body(i + 2, end) {
                        Ok(open) => {
                            let close = self.match_brace(open, end);
                            let owner = Some((tname.clone(), Some(tname)));
                            self.items(open + 1, close, module, owner);
                            i = close + 1;
                        }
                        Err(semi) => i = semi + 1,
                    }
                }
                "mod" => {
                    let mname = self.ident(i + 1).map(|s| s.to_string());
                    match self.find_body(i + 2, end) {
                        Ok(open) => {
                            let close = self.match_brace(open, end);
                            if let Some(m) = mname {
                                module.push(m);
                                self.items(open + 1, close, module, owner.clone());
                                module.pop();
                            }
                            i = close + 1;
                        }
                        Err(semi) => i = semi + 1,
                    }
                }
                "use" => i = self.parse_use(i + 1, end),
                "struct" | "enum" | "union" => {
                    // Skip the definition; field types are collected by the
                    // whole-file `name: Type` scan.
                    match self.find_body(i + 1, end) {
                        Ok(open) => i = self.match_brace(open, end) + 1,
                        Err(semi) => i = semi + 1,
                    }
                }
                // `const fn` / `const unsafe fn`: a qualifier, not an item.
                "const" if matches!(self.ident(i + 1), Some("fn" | "unsafe")) => i += 1,
                "const" | "static" | "type" => i = self.skip_to_semi(i + 1, end),
                "macro_rules" => match self.find_body(i + 1, end) {
                    Ok(open) => i = self.match_brace(open, end) + 1,
                    Err(semi) => i = semi + 1,
                },
                _ => i += 1,
            }
        }
    }
}

/// Scan the whole file for `name: <type containing a hash container>` and
/// `name = FxHashMap::default()`-style bindings.
fn collect_hashy(toks: &[Sp]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let ident = |i: usize| ident_at(toks, i);
    let punct = |i: usize, c: char| punct_at(toks, i, c);
    for i in 0..toks.len() {
        let Some(name) = ident(i) else { continue };
        if is_keyword(name) || name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            continue;
        }
        // `name: Type`, not a `::` path segment on either side.
        if punct(i + 1, ':') && !punct(i + 2, ':') && (i == 0 || !punct(i - 1, ':')) {
            let mut j = i + 2;
            let mut depth = 0i32;
            while j < toks.len() {
                match &toks[j].tok {
                    Tok::Punct('<') | Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                    Tok::Punct('>') | Tok::Punct(')') | Tok::Punct(']') => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    Tok::Punct(',')
                    | Tok::Punct(';')
                    | Tok::Punct('=')
                    | Tok::Punct('{')
                    | Tok::Punct('}')
                        if depth == 0 =>
                    {
                        break;
                    }
                    Tok::Ident(t) if HASH_TYPES.contains(&t.as_str()) => {
                        out.insert(name.to_string());
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // `name = FxHashMap::default()` / `HashMap::new()`.
        if punct(i + 1, '=') {
            if let Some(t) = ident(i + 2) {
                if HASH_TYPES.contains(&t) {
                    out.insert(name.to_string());
                }
            }
        }
    }
    out
}

/// Parse every file into the workspace model. `crate_names` maps a
/// directory under `crates/` to its crate identifier (e.g. `core` →
/// `grouter`); unknown directories fall back to `dir` with `-` → `_`.
pub fn parse_workspace(files: &[FileInput], crate_names: &BTreeMap<String, String>) -> Workspace {
    let mut ctxs = Vec::new();
    let mut fns: Vec<FnDef> = Vec::new();
    for (file_idx, f) in files.iter().enumerate() {
        let (toks, comments) = tokenize(&f.src);
        let cfg_mask = cfg_test_mask(&toks);
        let (module, masked_file) = module_path(&f.path, crate_names);
        let pragmas = parse_pragmas(&comments, &crate::PASSES);
        let expects = expectations(&toks);
        let hashy = collect_hashy(&toks);
        let mut p = Parser {
            toks: &toks,
            cfg_mask: &cfg_mask,
            file: file_idx,
            masked_file,
            fns: Vec::new(),
            imports: BTreeMap::new(),
            globs: Vec::new(),
        };
        let end = toks.len();
        let mut mpath = module.clone();
        p.items(0, end, &mut mpath, None);
        let Parser {
            fns: file_fns,
            imports,
            globs,
            ..
        } = p;
        fns.extend(file_fns);
        ctxs.push(FileCtx {
            path: f.path.clone(),
            module,
            masked_file,
            toks,
            cfg_mask,
            imports,
            globs,
            hashy,
            pragmas,
            expects,
        });
    }

    // Disambiguate fqn collisions deterministically (`Type::fmt#2`).
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    for f in fns.iter_mut() {
        let n = seen.entry(f.fqn.clone()).or_insert(0);
        *n += 1;
        if *n > 1 {
            f.fqn = format!("{}#{}", f.fqn, n);
        }
    }

    let mut methods_by_type: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut free_by_module: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut free_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (idx, f) in fns.iter().enumerate() {
        match &f.type_name {
            Some(ty) => {
                methods_by_type
                    .entry((ty.clone(), f.name.clone()))
                    .or_default()
                    .push(idx);
                methods_by_name.entry(f.name.clone()).or_default().push(idx);
            }
            None => {
                free_by_module.insert((f.module.clone(), f.name.clone()), idx);
                free_by_name.entry(f.name.clone()).or_default().push(idx);
            }
        }
    }

    Workspace {
        files: ctxs,
        fns,
        methods_by_type,
        methods_by_name,
        free_by_module,
        free_by_name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(path: &str, src: &str) -> Workspace {
        parse_workspace(
            &[FileInput {
                path: path.into(),
                src: src.into(),
            }],
            &BTreeMap::new(),
        )
    }

    #[test]
    fn free_and_impl_fns_get_qualified_names() {
        let w = ws(
            "crates/sim/src/flownet.rs",
            "pub fn helper() {}\npub struct FlowNet;\nimpl FlowNet {\n    pub fn recompute(&mut self) { helper(); }\n}\n",
        );
        let names: Vec<&str> = w.fns.iter().map(|f| f.fqn.as_str()).collect();
        assert_eq!(
            names,
            vec!["sim::flownet::helper", "sim::flownet::FlowNet::recompute"]
        );
        assert!(w
            .methods_by_type
            .contains_key(&("FlowNet".into(), "recompute".into())));
    }

    #[test]
    fn trait_impls_and_defaults_are_methods() {
        let w = ws(
            "crates/sim/src/x.rs",
            "trait T { fn a(&self) { } fn b(&self); }\nstruct S;\nimpl T for S { fn b(&self) {} }\n",
        );
        let names: Vec<&str> = w.fns.iter().map(|f| f.fqn.as_str()).collect();
        assert_eq!(names, vec!["sim::x::T::a", "sim::x::S::b"]);
        assert_eq!(w.fns[1].trait_name.as_deref(), Some("T"));
    }

    #[test]
    fn inline_mods_extend_the_module_path() {
        let w = ws(
            "crates/sim/src/lib.rs",
            "mod inner {\n    pub fn f() {}\n}\n",
        );
        assert_eq!(w.fns[0].fqn, "sim::inner::f");
    }

    #[test]
    fn use_trees_feed_imports_and_globs() {
        let w = ws(
            "crates/sim/src/x.rs",
            "use crate::flownet::{FlowNet, recompute as rc};\nuse std::collections::HashMap;\nuse crate::prelude::*;\n",
        );
        let ctx = &w.files[0];
        assert_eq!(
            ctx.imports.get("rc"),
            Some(&vec!["crate".into(), "flownet".into(), "recompute".into()])
        );
        assert_eq!(
            ctx.imports.get("FlowNet"),
            Some(&vec!["crate".into(), "flownet".into(), "FlowNet".into()])
        );
        assert_eq!(ctx.globs, vec![vec!["crate".to_string(), "prelude".into()]]);
    }

    #[test]
    fn hashy_names_cover_fields_params_and_lets() {
        let w = ws(
            "crates/sim/src/x.rs",
            "struct S { pending: FxHashMap<u64, u32>, done: Vec<u32> }\nfn f(live: &HashMap<u32, u32>) { let fresh = FxHashSet::default(); let plain: Vec<u32> = vec![]; }\n",
        );
        let h = &w.files[0].hashy;
        assert!(h.contains("pending") && h.contains("live") && h.contains("fresh"));
        assert!(!h.contains("done") && !h.contains("plain"));
    }

    #[test]
    fn cfg_test_fns_are_masked() {
        let w = ws(
            "crates/sim/src/x.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n",
        );
        assert!(!w.fns[0].masked);
        assert!(w.fns[1].masked);
    }

    #[test]
    fn tests_dir_files_are_fully_masked() {
        let w = ws("crates/sim/tests/oracle.rs", "fn f() {}\n");
        assert!(w.fns[0].masked);
    }
}
