//! Fixture harness: each `tests/fixtures/*.rs`
//! starts with a `//@ path: <virtual path>` header naming the in-tree
//! location the analyzer should see, and the sibling `.expected` file
//! lists findings as `<line> <pass>` pairs (empty for a clean fixture).
//! Bad `grouter-analyze:` pragmas surface as the pseudo-pass `bad-pragma`.

use std::fs;
use std::path::Path;

fn parse_expected(src: &str, from: &Path) -> Vec<(usize, String)> {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (line, pass) = l
                .split_once(' ')
                .unwrap_or_else(|| panic!("{from:?}: expected `<line> <pass>`, got `{l}`"));
            let line = line
                .parse()
                .unwrap_or_else(|_| panic!("{from:?}: bad line number in `{l}`"));
            (line, pass.trim().to_string())
        })
        .collect()
}

/// Findings plus pragma errors, as comparable (line, pass) pairs.
fn analyze_fixture(virtual_path: &str, src: &str) -> Vec<(usize, String)> {
    let report = grouter_analyze::analyze_source(virtual_path, src);
    let mut got: Vec<(usize, String)> = report
        .findings
        .iter()
        .map(|f| (f.line, f.pass.to_string()))
        .collect();
    for e in &report.pragma_errors {
        // Formatted as `path:line: message`.
        let line = e
            .split(':')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("unparseable pragma error `{e}`"));
        got.push((line, "bad-pragma".to_string()));
    }
    got
}

#[test]
fn fixtures_match_expected_findings() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut checked = 0usize;
    let mut entries: Vec<_> = fs::read_dir(&dir)
        .expect("fixtures directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let src = fs::read_to_string(&path).expect("fixture is readable");
        let virtual_path = src
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("//@ path:"))
            .unwrap_or_else(|| panic!("{path:?} is missing its `//@ path:` header"))
            .trim();

        let mut got = analyze_fixture(virtual_path, &src);
        let expected_path = path.with_extension("expected");
        let expected_src = fs::read_to_string(&expected_path)
            .unwrap_or_else(|_| panic!("missing expectations file {expected_path:?}"));
        let mut want = parse_expected(&expected_src, &expected_path);

        got.sort();
        want.sort();
        assert_eq!(
            got, want,
            "findings mismatch for fixture {path:?} (as `{virtual_path}`)"
        );
        checked += 1;
    }
    assert!(
        checked >= 9,
        "expected at least 9 fixtures, found {checked}"
    );
}
