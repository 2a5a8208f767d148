//! grouter-lint: a zero-dependency lexical linter for the GROUTER workspace.
//!
//! The linter tokenizes Rust sources with a small hand-rolled lexer (no
//! `syn`, no registry dependencies — the build environment is offline) and
//! enforces seven project rules with `path:line:col` diagnostics:
//!
//! * `no-panic-in-dataplane` — `unwrap`/`expect`/`panic!`/`unreachable!` are
//!   banned in the data-plane crates (`sim`, `topology`, `transfer`, `store`,
//!   `mem`, `core`, `runtime`) outside `#[cfg(test)]` regions, `tests/` and
//!   `benches/` directories. Silent throughput loss beats a crash in a data
//!   plane; recoverable paths must carry typed errors, unavoidable
//!   invariants a justified pragma.
//! * `no-wallclock-in-sim` — `Instant::now` / `SystemTime` are banned in
//!   `sim`, `topology`, `transfer`: the simulation is virtual-time only and
//!   any wall-clock read breaks determinism.
//! * `no-unordered-emit` — `HashMap`/`HashSet` are banned in
//!   `crates/bench/src/experiments`: experiment output must be byte-stable
//!   across runs, so only ordered containers may feed formatted output.
//! * `no-silent-truncation` — `as u8/u16/u32/usize` narrowing casts applied
//!   to byte/rate-named quantities in data-plane crates must use `try_from`
//!   or carry an allow pragma.
//! * `no-stray-print` — `println!`/`eprintln!`/`print!`/`eprint!` are banned
//!   in data-plane crates outside `#[cfg(test)]`: diagnostics belong in the
//!   observability trace (`grouter-obs`), not on stdout, where they would
//!   corrupt byte-compared experiment output.
//! * `no-hot-string-clone` — owned-`String` production (`.to_string()`,
//!   `.to_owned()`, `String::from`, and `.clone()` of `name`-like fields) is
//!   banned in the runtime dispatch path (`crates/runtime/src/exec.rs`):
//!   workflow and function names are interned to dense ids at spec-load
//!   time, and a per-event allocation there regresses the macro benchmark.
//!   Cold setup paths (spec-cache misses) carry a justified allow pragma.
//! * `no-shared-mut-across-shards` — `static mut`, `lazy_static!`/
//!   `thread_local!`-style globals and shared-mutability cells
//!   (`Mutex`/`RwLock`/`Condvar`/`Atomic*`/`RefCell`/`UnsafeCell`/
//!   `OnceLock`/`OnceCell`) are banned in the sharded-engine modules
//!   (`crates/sim/src/shard.rs`, `crates/runtime/src/cluster.rs`): shards
//!   may exchange state only through timestamped envelopes drained at
//!   epoch barriers, because any other cross-shard channel is invisible to
//!   the (timestamp, shard, sequence) ordering that makes runs
//!   thread-count independent.
//!
//! Suppression pragma syntax (same line or the line directly above):
//!
//! ```text
//! // grouter-lint: allow(no-panic-in-dataplane): slot id handed out by this fn
//! ```
//!
//! The justification after `):` is mandatory; a pragma without one (or
//! naming an unknown rule) is itself reported as `bad-pragma` and does not
//! suppress anything.
//!
//! The lexer, pragma parser, diagnostic type and file walker live in
//! [`common`], shared with `grouter-analyze` so the two tools cannot drift.

pub mod common;

pub use common::Diagnostic;
use common::{cfg_test_mask, is_ident, is_punct, parse_pragmas, tokenize, Sp, Tok};

/// Every rule the linter knows about.
pub const RULES: [&str; 7] = [
    "no-panic-in-dataplane",
    "no-wallclock-in-sim",
    "no-unordered-emit",
    "no-silent-truncation",
    "no-stray-print",
    "no-hot-string-clone",
    "no-shared-mut-across-shards",
];

/// The pragma prefix this tool answers to.
pub const PRAGMA_PREFIX: &str = "grouter-lint:";

/// Modules that make up the sharded engine (`no-shared-mut-across-shards`
/// scope): cross-shard state must flow through envelopes, not shared cells.
const SHARD_MODULES: [&str; 3] = [
    "crates/sim/src/shard.rs",
    "crates/runtime/src/cluster.rs",
    "crates/llm/src/world.rs",
];

/// Shared-mutability type names banned across shards.
const SHARED_MUT_TYPES: [&str; 8] = [
    "Mutex",
    "RwLock",
    "Condvar",
    "RefCell",
    "UnsafeCell",
    "OnceLock",
    "OnceCell",
    "Cell",
];

/// Crates whose `src/` is considered data-plane code.
const DATAPLANE_CRATES: [&str; 9] = [
    "sim", "topology", "transfer", "store", "mem", "core", "runtime", "ctl", "llm",
];

/// Crates that must run on virtual time only.
const SIM_TIME_CRATES: [&str; 5] = ["sim", "topology", "transfer", "ctl", "llm"];

/// Identifier segments that mark a quantity as bytes/rate-like for
/// `no-silent-truncation`.
const QUANTITY_SEGMENTS: [&str; 8] = [
    "bytes", "byte", "rate", "rates", "bw", "cap", "capacity", "size",
];

// ---------------------------------------------------------------------------
// Path classification
// ---------------------------------------------------------------------------

struct PathInfo {
    crate_name: Option<String>,
    /// Under a `tests/` or `benches/` directory.
    test_dir: bool,
    /// Under `crates/bench/src/experiments`.
    experiments: bool,
    /// The runtime dispatch path (`no-hot-string-clone` scope).
    hot_dispatch: bool,
    /// A sharded-engine module (`no-shared-mut-across-shards` scope).
    shard_module: bool,
}

fn classify(path: &str) -> PathInfo {
    let norm = path.replace('\\', "/");
    let segs: Vec<&str> = norm.split('/').filter(|s| !s.is_empty()).collect();
    let crate_name = segs
        .iter()
        .position(|&s| s == "crates")
        .and_then(|p| segs.get(p + 1))
        .map(|s| s.to_string());
    let test_dir = segs.iter().any(|&s| s == "tests" || s == "benches");
    let experiments = norm.contains("crates/bench/src/experiments");
    let hot_dispatch = norm.ends_with("crates/runtime/src/exec.rs");
    let shard_module = SHARD_MODULES.iter().any(|m| norm.ends_with(m));
    PathInfo {
        crate_name,
        test_dir,
        experiments,
        hot_dispatch,
        shard_module,
    }
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// Lint one source file. `path` is the path the rules see (fixtures use a
/// `//@ path:` directive to impersonate in-tree locations).
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let info = classify(path);
    let (toks, comments) = tokenize(src);
    let excluded = cfg_test_mask(&toks);
    let pragmas = parse_pragmas(&comments, PRAGMA_PREFIX, &RULES);

    let mut raw: Vec<Diagnostic> = Vec::new();

    let dataplane = info
        .crate_name
        .as_deref()
        .is_some_and(|c| DATAPLANE_CRATES.contains(&c))
        && !info.test_dir;
    let sim_time = info
        .crate_name
        .as_deref()
        .is_some_and(|c| SIM_TIME_CRATES.contains(&c));

    for (i, sp) in toks.iter().enumerate() {
        if excluded[i] {
            continue;
        }
        let Tok::Ident(name) = &sp.tok else { continue };

        if dataplane {
            match name.as_str() {
                "unwrap" | "expect"
                    if is_punct(toks.get(i.wrapping_sub(1)), '.')
                        && is_punct(toks.get(i + 1), '(') =>
                {
                    raw.push(Diagnostic {
                        line: sp.line,
                        col: sp.col,
                        rule: "no-panic-in-dataplane".into(),
                        message: format!(
                            "`.{name}()` in data-plane code; return a typed error or add a justified allow pragma"
                        ),
                    });
                }
                "println" | "eprintln" | "print" | "eprint" if is_punct(toks.get(i + 1), '!') => {
                    raw.push(Diagnostic {
                        line: sp.line,
                        col: sp.col,
                        rule: "no-stray-print".into(),
                        message: format!(
                            "`{name}!` in data-plane code; emit a trace event through grouter-obs or add a justified allow pragma"
                        ),
                    });
                }
                "panic" | "unreachable" if is_punct(toks.get(i + 1), '!') => {
                    raw.push(Diagnostic {
                        line: sp.line,
                        col: sp.col,
                        rule: "no-panic-in-dataplane".into(),
                        message: format!(
                            "`{name}!` in data-plane code; return a typed error or add a justified allow pragma"
                        ),
                    });
                }
                _ => {}
            }

            if name == "as" {
                if let Some(Sp {
                    tok: Tok::Ident(ty),
                    ..
                }) = toks.get(i + 1)
                {
                    if matches!(ty.as_str(), "u8" | "u16" | "u32" | "usize") {
                        if let Some(src_ident) = cast_source_ident(&toks, i) {
                            if is_quantity_ident(&src_ident) {
                                raw.push(Diagnostic {
                                    line: sp.line,
                                    col: sp.col,
                                    rule: "no-silent-truncation".into(),
                                    message: format!(
                                        "narrowing cast `{src_ident} as {ty}` on a byte/rate quantity; use try_from or add a justified allow pragma"
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }

        if sim_time {
            if name == "SystemTime" {
                raw.push(Diagnostic {
                    line: sp.line,
                    col: sp.col,
                    rule: "no-wallclock-in-sim".into(),
                    message: "`SystemTime` in a virtual-time crate".into(),
                });
            }
            if name == "Instant"
                && is_punct(toks.get(i + 1), ':')
                && is_punct(toks.get(i + 2), ':')
                && is_ident(toks.get(i + 3), "now")
            {
                raw.push(Diagnostic {
                    line: sp.line,
                    col: sp.col,
                    rule: "no-wallclock-in-sim".into(),
                    message: "`Instant::now` in a virtual-time crate".into(),
                });
            }
        }

        if info.hot_dispatch {
            let string_maker = matches!(name.as_str(), "to_string" | "to_owned")
                && is_punct(toks.get(i.wrapping_sub(1)), '.')
                && is_punct(toks.get(i + 1), '(');
            let string_from = name == "String"
                && is_punct(toks.get(i + 1), ':')
                && is_punct(toks.get(i + 2), ':')
                && is_ident(toks.get(i + 3), "from");
            let name_clone = name == "clone"
                && is_punct(toks.get(i.wrapping_sub(1)), '.')
                && is_punct(toks.get(i + 1), '(')
                && matches!(
                    toks.get(i.wrapping_sub(2)).map(|sp| &sp.tok),
                    Some(Tok::Ident(recv)) if recv.split('_').any(|seg| seg == "name")
                );
            if string_maker || string_from || name_clone {
                raw.push(Diagnostic {
                    line: sp.line,
                    col: sp.col,
                    rule: "no-hot-string-clone".into(),
                    message: format!(
                        "`{name}` builds an owned String in the runtime dispatch path; use the interned ids (or add a justified allow pragma on a cold setup path)"
                    ),
                });
            }
        }

        if info.shard_module {
            let static_mut = name == "static" && is_ident(toks.get(i + 1), "mut");
            let global_macro = matches!(name.as_str(), "lazy_static" | "thread_local")
                && is_punct(toks.get(i + 1), '!');
            let shared_cell = SHARED_MUT_TYPES.contains(&name.as_str())
                || (name.starts_with("Atomic") && name.len() > "Atomic".len());
            if static_mut || global_macro || shared_cell {
                raw.push(Diagnostic {
                    line: sp.line,
                    col: sp.col,
                    rule: "no-shared-mut-across-shards".into(),
                    message: format!(
                        "`{}` is shared mutable state in a sharded-engine module; cross-shard \
state must travel in timestamped envelopes (or add a justified allow pragma)",
                        if static_mut { "static mut" } else { name }
                    ),
                });
            }
        }

        if info.experiments && (name == "HashMap" || name == "HashSet") {
            raw.push(Diagnostic {
                line: sp.line,
                col: sp.col,
                rule: "no-unordered-emit".into(),
                message: format!(
                    "`{name}` in an experiment module; iteration order is unordered — use BTreeMap/BTreeSet"
                ),
            });
        }
    }

    // Apply pragmas: a justified pragma on the same line or the line
    // directly above suppresses that rule there.
    let mut out: Vec<Diagnostic> = Vec::new();
    for d in raw {
        let suppressed = pragmas.iter().any(|p| {
            p.justified
                && p.parse_error.is_none()
                && (p.line == d.line || p.line + 1 == d.line)
                && p.rules.iter().any(|r| r == &d.rule)
        });
        if !suppressed {
            out.push(d);
        }
    }
    for p in &pragmas {
        if let Some(err) = &p.parse_error {
            out.push(Diagnostic {
                line: p.line,
                col: 1,
                rule: "bad-pragma".into(),
                message: err.clone(),
            });
        } else if !p.justified {
            out.push(Diagnostic {
                line: p.line,
                col: 1,
                rule: "bad-pragma".into(),
                message: "allow pragma without a justification (`allow(<rule>): <why>`)".into(),
            });
        }
    }
    out.sort_by(|a, b| (a.line, a.col, &a.rule).cmp(&(b.line, b.col, &b.rule)));
    out
}

/// For a cast at token index `as_idx`, find the identifier naming the value
/// being cast: either the ident directly before `as`, or — for a call like
/// `self.total_bytes() as u32` — the ident before the matching `(`.
fn cast_source_ident(toks: &[Sp], as_idx: usize) -> Option<String> {
    if as_idx == 0 {
        return None;
    }
    match &toks[as_idx - 1].tok {
        Tok::Ident(name) => Some(name.clone()),
        Tok::Punct(')') => {
            let mut depth = 0i32;
            let mut j = as_idx - 1;
            loop {
                match toks[j].tok {
                    Tok::Punct(')') => depth += 1,
                    Tok::Punct('(') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if j == 0 {
                    return None;
                }
                j -= 1;
            }
            if j == 0 {
                return None;
            }
            match &toks[j - 1].tok {
                Tok::Ident(name) => Some(name.clone()),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Does the identifier look like a bytes/rate quantity? Matches whole
/// snake_case segments, so `escape` does not match `cap`.
fn is_quantity_ident(name: &str) -> bool {
    name.split('_')
        .any(|seg| QUANTITY_SEGMENTS.contains(&seg.to_ascii_lowercase().as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_skips_strings_and_comments() {
        let src = format!(
            "// panic! in a comment\n\
             /* .unwrap() in a block comment */\n\
             let s = \"panic!() .unwrap()\";\n\
             let r = r{h}\"unreachable!()\"{h};\n",
            h = "#"
        );
        let d = lint_source("crates/sim/src/x.rs", &src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x.unwrap() }\n";
        // Not a real unwrap receiver pattern without `.`? It has `.unwrap(`.
        let d = lint_source("crates/sim/src/x.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-panic-in-dataplane");
    }

    #[test]
    fn diagnostics_carry_columns() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let d = lint_source("crates/sim/src/x.rs", src);
        assert_eq!(d.len(), 1);
        // `unwrap` starts at 1-based column 33.
        assert_eq!((d[0].line, d[0].col), (1, 33));
        assert_eq!(
            format!("crates/sim/src/x.rs:{}", d[0]),
            format!(
                "crates/sim/src/x.rs:1:33: [no-panic-in-dataplane] {}",
                d[0].message
            )
        );
    }

    #[test]
    fn unwrap_or_variants_are_allowed() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0).max(x.unwrap_or_default()) }\n";
        assert!(lint_source("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_region_is_excluded() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g(x: Option<u32>) { x.unwrap(); panic!(); }\n}\n";
        assert!(lint_source("crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn pragma_requires_justification() {
        let with = "// grouter-lint: allow(no-panic-in-dataplane): invariant by construction\nfn f(x: Option<u32>) { x.unwrap(); }\n";
        assert!(lint_source("crates/sim/src/x.rs", with).is_empty());
        let without =
            "// grouter-lint: allow(no-panic-in-dataplane)\nfn f(x: Option<u32>) { x.unwrap(); }\n";
        let d = lint_source("crates/sim/src/x.rs", without);
        assert_eq!(d.len(), 2, "{d:?}"); // bad-pragma + unsuppressed unwrap
    }

    #[test]
    fn truncation_segments_not_substrings() {
        let src = "fn f(escape: u64, total_bytes: u64) { let _ = escape as u32; let _ = total_bytes as u64; }\n";
        assert!(lint_source("crates/sim/src/x.rs", src).is_empty());
        let bad = "fn f(total_bytes: u64) { let _ = total_bytes as u32; }\n";
        let d = lint_source("crates/sim/src/x.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-silent-truncation");
    }

    #[test]
    fn shared_mut_is_banned_in_shard_modules_only() {
        let src = "use std::sync::Mutex;\nstatic mut SEQ: u64 = 0;\nthread_local! { static T: u32 = 0; }\nfn f(x: &std::sync::atomic::AtomicU64) { let _ = x; }\n";
        let d = lint_source("crates/sim/src/shard.rs", src);
        let rules: Vec<_> = d.iter().map(|d| (d.line, d.rule.as_str())).collect();
        assert_eq!(
            rules,
            vec![
                (1, "no-shared-mut-across-shards"),
                (2, "no-shared-mut-across-shards"),
                (3, "no-shared-mut-across-shards"),
                (4, "no-shared-mut-across-shards"),
            ],
            "{d:?}"
        );
        // Same source outside the sharded engine: only dataplane rules apply.
        assert!(lint_source("crates/runtime/src/world.rs", src).is_empty());
        // A justified pragma suppresses the barrier plumbing.
        let ok = "// grouter-lint: allow(no-shared-mut-across-shards): epoch barrier plumbing\nuse std::sync::Mutex;\n";
        assert!(lint_source("crates/runtime/src/cluster.rs", ok).is_empty());
    }

    #[test]
    fn non_dataplane_paths_are_ignored() {
        let src = "fn f(x: Option<u32>) { x.unwrap(); }\n";
        assert!(lint_source("crates/bench/src/x.rs", src).is_empty());
        assert!(lint_source("crates/sim/tests/x.rs", src).is_empty());
    }
}
