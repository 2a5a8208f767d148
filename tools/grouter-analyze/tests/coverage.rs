//! Meta-test over the fixture corpus: every grouter-analyze pass (plus its
//! `bad-pragma` pseudo-pass) must have at least one fixture in which it
//! actually fires. A pass nobody can demonstrate with a fixture is either
//! dead or untested — both are failures here.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

#[test]
fn every_analyze_pass_has_a_firing_fixture() {
    // The second column of every non-comment line of the `.expected` files.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut firing = BTreeSet::new();
    for entry in fs::read_dir(&dir).expect("fixture dir is readable") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_some_and(|e| e == "expected") {
            let src = fs::read_to_string(&path).expect("expected file is readable");
            firing.extend(
                src.lines()
                    .map(str::trim)
                    .filter(|l| !l.starts_with('#'))
                    .filter_map(|l| l.split_once(' '))
                    .map(|(_, name)| name.trim().to_string()),
            );
        }
    }
    let missing: Vec<&str> = grouter_analyze::PASSES
        .iter()
        .chain(&["bad-pragma"])
        .filter(|p| !firing.contains(**p))
        .copied()
        .collect();
    assert!(
        missing.is_empty(),
        "analyze passes with no firing fixture: {missing:?}"
    );
}
