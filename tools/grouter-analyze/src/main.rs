//! CLI driver for grouter-analyze.
//!
//! Usage:
//!
//! ```text
//! grouter-analyze [--baseline FILE] [--json FILE] [--min-resolution R]
//!                 [--emit-baseline] [ROOT...]
//! ```
//!
//! Roots default to `crates`. Exit codes: 0 clean (all findings baselined,
//! resolution at or above the floor), 1 findings/stale entries/bad pragmas/
//! low resolution, 2 usage or I/O error.

use grouter_analyze::lexer::{crate_names, walk_rs_files};
use grouter_analyze::{analyze, baseline, json, FileInput};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    roots: Vec<String>,
    baseline: Option<String>,
    json: Option<String>,
    min_resolution: Option<f64>,
    emit_baseline: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        roots: Vec::new(),
        baseline: None,
        json: None,
        min_resolution: None,
        emit_baseline: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => {
                out.baseline = Some(it.next().ok_or("--baseline needs a file argument")?)
            }
            "--json" => out.json = Some(it.next().ok_or("--json needs a file argument")?),
            "--min-resolution" => {
                let v = it.next().ok_or("--min-resolution needs a value")?;
                let r: f64 = v
                    .parse()
                    .map_err(|_| format!("--min-resolution: not a number: {v}"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("--min-resolution out of range [0,1]: {v}"));
                }
                out.min_resolution = Some(r);
            }
            "--emit-baseline" => out.emit_baseline = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag: {flag}")),
            root => out.roots.push(root.to_string()),
        }
    }
    if out.roots.is_empty() {
        out.roots.push("crates".to_string());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("grouter-analyze: {e}");
            return ExitCode::from(2);
        }
    };

    let paths = match walk_rs_files(&args.roots) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("grouter-analyze: {e}");
            return ExitCode::from(2);
        }
    };
    let mut files = Vec::with_capacity(paths.len());
    for p in &paths {
        match std::fs::read_to_string(p) {
            Ok(src) => files.push(FileInput {
                path: p.display().to_string().replace('\\', "/"),
                src,
            }),
            Err(e) => {
                eprintln!("grouter-analyze: read {}: {e}", p.display());
                return ExitCode::from(2);
            }
        }
    }

    let report = analyze(&files, &crate_names(&args.roots));

    if args.emit_baseline {
        print!("{}", baseline::emit(&report.findings));
        return ExitCode::SUCCESS;
    }

    let mut failed = false;
    for e in &report.pragma_errors {
        eprintln!("{e}");
        failed = true;
    }

    let (unbaselined, stale, baselined) = match &args.baseline {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("grouter-analyze: read baseline {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match baseline::parse(&text) {
                Ok(b) => {
                    let r = baseline::reconcile(&b, &report.findings);
                    (r.unbaselined, r.stale, r.baselined)
                }
                Err(errs) => {
                    for e in errs {
                        eprintln!("{path}: {e}");
                    }
                    return ExitCode::from(2);
                }
            }
        }
        None => ((0..report.findings.len()).collect(), Vec::new(), 0),
    };

    for &i in &unbaselined {
        eprintln!("{}", report.findings[i]);
        failed = true;
    }
    for e in &stale {
        eprintln!(
            "{}:{}: stale baseline entry (no matching finding): {}",
            args.baseline.as_deref().unwrap_or("baseline"),
            e.line,
            e.key
        );
        failed = true;
    }

    let rate = report.stats.resolution_rate();
    if let Some(min) = args.min_resolution {
        if rate < min {
            eprintln!(
                "grouter-analyze: call-site resolution rate {:.1}% below floor {:.1}%",
                rate * 100.0,
                min * 100.0
            );
            failed = true;
        }
    }

    if let Some(path) = &args.json {
        let doc = json::render(&report);
        let res = if path == "-" {
            print!("{doc}");
            Ok(())
        } else {
            std::fs::write(Path::new(path), doc)
        };
        if let Err(e) = res {
            eprintln!("grouter-analyze: write {path}: {e}");
            return ExitCode::from(2);
        }
    }

    eprintln!(
        "grouter-analyze: {} files, {} fns, {} entry points, {} call sites ({} unresolved, resolution {:.1}%), {} finding(s) ({} baselined, {} new, {} stale)",
        report.files,
        report.functions,
        report.entry_points,
        report.stats.call_sites,
        report.stats.unresolved,
        rate * 100.0,
        report.findings.len(),
        baselined,
        unbaselined.len(),
        stale.len()
    );

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
