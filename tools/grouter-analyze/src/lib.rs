//! grouter-analyze: interprocedural call-graph + determinism-taint
//! analysis for the GROUTER workspace.
//!
//! Zero dependencies. The analyzer tokenizes every workspace source file
//! ([`lexer`]), parses it into a lightweight item model ([`model`]), builds
//! a name-resolved call graph ([`graph`]), and runs its passes
//! ([`passes`]): panic-reachability and wallclock-reachability from the
//! data-plane entry types, function-local determinism taint from
//! unordered sources to metric/obs/schedule/envelope sinks, and a lexical
//! check for narrowing casts of byte/rate quantities. The source rules
//! clippy can enforce live in the crates as lint levels (DESIGN §5.3);
//! these are the checks it cannot make.
//!
//! Known findings live in `analyze-baseline.txt` at the repo root; every
//! entry carries a justification. The CLI exits non-zero on any
//! unbaselined finding, stale baseline entry, bad pragma, or a call-site
//! resolution rate below the configured floor.

pub mod baseline;
pub mod graph;
pub mod json;
pub mod lexer;
pub mod model;
pub mod passes;

pub use model::FileInput;

use std::collections::BTreeMap;
use std::fmt;

/// The analysis passes, in report order. Pragmas
/// (`// grouter-analyze: allow(<pass>): why`) must name one of these.
pub const PASSES: [&str; 4] = [
    "panic-reachable",
    "wallclock-reachable",
    "determinism-taint",
    "silent-truncation",
];

/// Data-plane entry types: every unmasked method of these types seeds the
/// forward reachability used by the panic/wallclock passes.
pub const ENTRY_TYPES: [&str; 6] = [
    "TransferEngine",
    "FlowNet",
    "GrouterPlane",
    "Runtime",
    "World",
    "ShardedEngine",
];

/// One finding from one pass, anchored to a source location.
#[derive(Debug, Clone)]
pub struct Finding {
    pub pass: &'static str,
    /// Fully-qualified name of the containing function.
    pub func: String,
    pub file: String,
    pub line: usize,
    pub col: usize,
    /// Pass-specific kind, e.g. `unwrap` or `hash-iter->metrics`.
    pub kind: String,
    pub message: String,
}

impl Finding {
    /// Baseline key: stable across line churn, one entry covers all sites
    /// of the same kind in the same function.
    pub fn baseline_key(&self) -> String {
        format!("{} {} {}", self.pass, self.func, self.kind)
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}/{}] {}: {}",
            self.file, self.line, self.col, self.pass, self.kind, self.func, self.message
        )
    }
}

/// Full analysis output.
pub struct Report {
    pub findings: Vec<Finding>,
    pub stats: graph::GraphStats,
    pub files: usize,
    pub functions: usize,
    pub entry_points: usize,
    /// Malformed or unjustified `grouter-analyze:` pragmas, pre-formatted
    /// as `path:line: message`. Always fatal: a suppression that does not
    /// parse must not silently suppress nothing.
    pub pragma_errors: Vec<String>,
}

/// Run the full analysis over `files`. `crate_names` maps directories
/// under `crates/` to crate identifiers (e.g. `core` → `grouter`).
pub fn analyze(files: &[FileInput], crate_names: &BTreeMap<String, String>) -> Report {
    let ws = model::parse_workspace(files, crate_names);
    let g = graph::build(&ws);
    let scans: Vec<passes::BodyScan> = ws
        .fns
        .iter()
        .map(|f| {
            let ctx = &ws.files[f.file];
            passes::scan_body(&ctx.toks, f.body, &ctx.hashy)
        })
        .collect();
    let (findings, entry_points) = passes::run(&ws, &g, &scans);

    let mut pragma_errors = Vec::new();
    for ctx in &ws.files {
        for p in &ctx.pragmas {
            if let Some(err) = &p.parse_error {
                pragma_errors.push(format!("{}:{}: {}", ctx.path, p.line, err));
            } else if !p.justified {
                pragma_errors.push(format!(
                    "{}:{}: grouter-analyze pragma needs a justification (`allow(<pass>): why`)",
                    ctx.path, p.line
                ));
            }
        }
    }

    Report {
        findings,
        stats: g.stats.clone(),
        files: ws.files.len(),
        functions: ws.fns.len(),
        entry_points,
        pragma_errors,
    }
}

/// Single-source convenience used by the fixture harness.
pub fn analyze_source(path: &str, src: &str) -> Report {
    analyze(
        &[FileInput {
            path: path.to_string(),
            src: src.to_string(),
        }],
        &BTreeMap::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_reachable_fires_through_a_call_chain() {
        let r = analyze_source(
            "crates/transfer/src/engine.rs",
            "pub struct TransferEngine;\nimpl TransferEngine {\n    pub fn admit(&mut self) { stage(); }\n}\nfn stage() { finish(); }\nfn finish(x: Option<u32>) { let _ = x.unwrap(); }\n",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        let f = &r.findings[0];
        assert_eq!(f.pass, "panic-reachable");
        assert_eq!(f.kind, "unwrap");
        assert_eq!(f.func, "transfer::engine::finish");
        assert!(f.message.contains("TransferEngine::admit"), "{}", f.message);
    }

    #[test]
    fn unreached_panics_are_quiet() {
        let r = analyze_source(
            "crates/transfer/src/engine.rs",
            "pub struct TransferEngine;\nimpl TransferEngine {\n    pub fn admit(&mut self) {}\n}\nfn lonely(x: Option<u32>) { let _ = x.unwrap(); }\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn taint_fires_on_hash_iteration_into_metrics() {
        let r = analyze_source(
            "crates/obs/src/rec.rs",
            "struct M { pending: FxHashMap<u64, u32> }\nimpl M {\n    fn flush(&self, table: &mut Table) {\n        for (k, v) in self.pending.iter() {\n            table.record(*k, *v);\n        }\n    }\n}\n",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].pass, "determinism-taint");
        assert_eq!(r.findings[0].kind, "hash-iter->metrics");
    }

    #[test]
    fn taint_is_quiet_after_a_sort() {
        let r = analyze_source(
            "crates/obs/src/rec.rs",
            "struct M { pending: FxHashMap<u64, u32> }\nimpl M {\n    fn flush(&self, table: &mut Table) {\n        let mut rows: Vec<_> = self.pending.iter().collect();\n        rows.sort();\n        for (k, v) in rows {\n            table.record(*k, *v);\n        }\n    }\n}\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn bad_pragmas_are_fatal() {
        let r = analyze_source(
            "crates/sim/src/x.rs",
            "// grouter-analyze: allow(panic-reachable)\nfn f() {}\n",
        );
        assert_eq!(r.pragma_errors.len(), 1, "{:?}", r.pragma_errors);
    }

    #[test]
    fn baseline_key_is_line_independent() {
        let f = Finding {
            pass: "determinism-taint",
            func: "sim::x::f".into(),
            file: "crates/sim/src/x.rs".into(),
            line: 10,
            col: 3,
            kind: "hash-iter->obs".into(),
            message: String::new(),
        };
        assert_eq!(
            f.baseline_key(),
            "determinism-taint sim::x::f hash-iter->obs"
        );
    }
}
