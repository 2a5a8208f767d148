//! End-to-end run over the real workspace sources: the acceptance floor
//! for call-site resolution, the no-bad-pragma invariant, and the entry
//! point set must all hold on the tree as committed.

use grouter_analyze::lexer::{crate_names, walk_rs_files};
use grouter_analyze::FileInput;
use std::fs;
use std::path::Path;

fn workspace_report() -> grouter_analyze::Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let roots = [root.join("crates").display().to_string()];
    let paths = walk_rs_files(&roots).expect("crates/ exists");
    assert!(paths.len() > 50, "workspace walk looks truncated");
    let files: Vec<FileInput> = paths
        .iter()
        .map(|p| {
            // Model paths relative to the repo root so module paths and the
            // committed baseline agree regardless of test cwd.
            let rel = p.strip_prefix(&root).unwrap_or(p);
            FileInput {
                path: rel.display().to_string().replace('\\', "/"),
                src: fs::read_to_string(p).expect("source is readable"),
            }
        })
        .collect();
    grouter_analyze::analyze(&files, &crate_names(&roots))
}

#[test]
fn workspace_resolution_rate_meets_the_floor() {
    let r = workspace_report();
    let rate = r.stats.resolution_rate();
    assert!(
        rate >= 0.90,
        "call-site resolution {:.3} fell below the 0.90 floor ({} unresolved of {})",
        rate,
        r.stats.unresolved,
        r.stats.call_sites
    );
    // Unresolved sites are counted, never silently dropped.
    assert_eq!(
        r.stats.call_sites,
        r.stats.internal + r.stats.external + r.stats.unresolved
    );
}

#[test]
fn workspace_has_entry_points_and_no_bad_pragmas() {
    let r = workspace_report();
    assert!(
        r.entry_points >= 20,
        "expected dozens of data-plane entry methods, found {}",
        r.entry_points
    );
    assert!(r.pragma_errors.is_empty(), "{:?}", r.pragma_errors);
}

#[test]
fn workspace_findings_are_covered_by_the_committed_baseline() {
    let r = workspace_report();
    let baseline_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../analyze-baseline.txt");
    let text = fs::read_to_string(&baseline_path).expect("committed baseline exists");
    let b = grouter_analyze::baseline::parse(&text).expect("baseline parses");
    let rec = grouter_analyze::baseline::reconcile(&b, &r.findings);
    let new: Vec<String> = rec
        .unbaselined
        .iter()
        .map(|&i| r.findings[i].to_string())
        .collect();
    assert!(new.is_empty(), "unbaselined findings: {new:#?}");
    let stale: Vec<&str> = rec.stale.iter().map(|e| e.key.as_str()).collect();
    assert!(stale.is_empty(), "stale baseline entries: {stale:?}");
}
