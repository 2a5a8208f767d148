//! Golden stdout for `grouter-cli`: one pinned invocation per run mode.
//!
//! Each golden test runs the built binary and compares everything it
//! prints with a committed file under `tests/golden/`, so a change to flag
//! parsing, defaults, banners or report formatting shows up as a byte diff.
//! The remaining tests pin how flags reach the run: the seed drives the
//! world RNG, and bad names are refused before anything is printed.
//!
//! Regenerate (only when an intentional behaviour change is being made):
//! `GROUTER_GOLDEN_WRITE=1 cargo test -p grouter-cli --test cli_golden`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn golden_dir() -> PathBuf {
    manifest_dir().join("tests/golden")
}

fn spawn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_grouter-cli"))
        .args(args)
        .current_dir(manifest_dir().join("../.."))
        .output()
        .expect("spawn grouter-cli")
}

/// Run `grouter-cli` from the workspace root and return its stdout.
fn run(args: &[&str]) -> String {
    let out = spawn(args);
    assert!(
        out.status.success(),
        "grouter-cli {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

/// Compare `got` against the committed golden file, or rewrite it when
/// `GROUTER_GOLDEN_WRITE=1`.
fn check(name: &str, got: &str) {
    let path = golden_dir().join(name);
    if std::env::var("GROUTER_GOLDEN_WRITE").is_ok() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        got,
        want,
        "grouter-cli output diverged from golden {}",
        path.display()
    );
}

const TRAFFIC: &str = "examples/workflows/traffic_lite.wf";

#[test]
fn workflow_run_matches_golden() {
    let got = run(&[TRAFFIC, "--nodes", "2", "--seconds", "3", "--seed", "42"]);
    check("workflow_traffic_lite.txt", &got);
}

#[test]
fn workflow_compare_matches_golden() {
    let got = run(&[
        TRAFFIC,
        "--nodes",
        "2",
        "--seconds",
        "3",
        "--seed",
        "42",
        "--compare",
    ]);
    check("workflow_traffic_lite_compare.txt", &got);
}

#[test]
fn serve_run_matches_golden() {
    let got = run(&[
        "serve", "--groups", "4", "--total", "2000", "--faults", "--seed", "42",
    ]);
    check("serve_groups4_faults.txt", &got);
}

#[test]
fn llm_run_matches_golden() {
    let got = run(&["llm", "--requests", "300", "--rps", "40"]);
    check("llm_requests300.txt", &got);
}

/// The branch each request took, in arrival order: `S` for the 80 ms
/// branch of `branches.wf`, `f` for the 5 ms one.
fn branch_sequence(seed: u64) -> String {
    let csv = std::env::temp_dir().join(format!(
        "grouter-cli-branches-{}-{seed}.csv",
        std::process::id()
    ));
    let seed = seed.to_string();
    run(&[
        "crates/cli/tests/branches.wf",
        "--pattern",
        "periodic",
        "--rps",
        "20",
        "--seconds",
        "2",
        "--seed",
        &seed,
        "--csv",
        csv.to_str().expect("UTF-8 temp path"),
    ]);
    let text = std::fs::read_to_string(&csv).expect("read --csv output");
    std::fs::remove_file(&csv).expect("remove --csv output");
    let mut rows: Vec<(f64, f64)> = text
        .lines()
        .skip(1)
        .map(|line| {
            let cols: Vec<&str> = line.split(',').collect();
            (
                cols[1].parse().expect("arrived_s"),
                cols[2].parse().expect("latency_ms"),
            )
        })
        .collect();
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    rows.iter()
        .map(|&(_, ms)| if ms > 40.0 { 'S' } else { 'f' })
        .collect()
}

#[test]
fn seed_drives_the_branch_draws() {
    let runs: Vec<String> = (1..=3).map(branch_sequence).collect();
    for run in &runs {
        assert!(
            run.contains('S') && run.contains('f'),
            "both branches are taken: {run}"
        );
    }
    // Arrival counts differ per seed; compare the common prefix.
    let n = runs.iter().map(String::len).min().expect("three runs");
    for (i, a) in runs.iter().enumerate() {
        for b in &runs[i + 1..] {
            assert_ne!(a[..n], b[..n], "two seeds drew the same branch sequence");
        }
    }
}

#[test]
fn bad_names_fail_before_the_banner() {
    for args in [
        &[TRAFFIC, "--plane", "bogus"][..],
        &[TRAFFIC, "--topology", "bogus"],
        &["serve", "--preset", "bogus"],
        &["serve", "--groups", "100"],
        &["llm", "--plane", "bogus"],
    ] {
        let out = spawn(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(args[args.len() - 2]), "{args:?}: {err}");
    }
}
