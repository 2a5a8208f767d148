//! Runs the full experiment suite (every table and figure of the paper's
//! evaluation) and prints each report, separated by rulers.
//!
//! This is the only experiments binary. Every experiment is a pure
//! `fn() -> String` over its own deterministic simulator state, so the
//! sections run on scoped worker threads. Each worker claims the next
//! unclaimed section off a shared counter, buffers its report, and the main
//! thread emits the reports in the fixed suite order — the output is
//! byte-identical to a serial run (`--serial` forces one).
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use grouter_bench::experiments as e;

/// One figure/table section: display name plus its report generator.
type Run = (&'static str, fn() -> String);

fn main() {
    let serial = std::env::args().any(|a| a == "--serial");
    let runs: Vec<Run> = vec![
        ("Fig. 3", e::fig03::run),
        ("Table 1", e::table1::run),
        ("Fig. 5", e::fig05::run),
        ("Fig. 6", e::fig06::run),
        ("Fig. 7", e::fig07::run),
        ("Fig. 13", e::fig13::run),
        ("Fig. 14", e::fig14::run),
        ("Fig. 15", e::fig15::run),
        ("Fig. 16", e::fig16::run),
        ("Fig. 17", e::fig17::run),
        ("Fig. 18", e::fig18::run),
        ("Fig. 19", e::fig19::run),
        ("Fig. 20", e::fig20::run),
        ("LLM serving (§6 dynamic)", e::llm_serve::run),
        ("Scalability (§1 claim)", e::scalability::run),
        ("Design-constant sweeps", e::sweeps::run),
        (
            "Uplink utilisation (Fig. 5a mechanism)",
            e::utilization::run,
        ),
    ];
    let reports = if serial {
        runs.iter().map(|&(_, run)| run()).collect()
    } else {
        run_parallel(&runs)
    };
    for ((name, _), report) in runs.iter().zip(reports) {
        println!("{}", "=".repeat(78));
        println!("{name}");
        println!("{}", "=".repeat(78));
        println!("{report}");
    }
}

/// Run every section across `min(sections, parallelism)` scoped threads.
/// Work is claimed dynamically (the sections' costs are wildly uneven),
/// results land in a slot table indexed by section, so completion order
/// never affects output order.
fn run_parallel(runs: &[Run]) -> Vec<String> {
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(runs.len())
        .max(1);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<String>>> = runs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(_, run)) = runs.get(i) else { break };
                *slots[i].lock().expect("poisoned slot") = Some(run());
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("poisoned slot")
                .expect("all sections ran")
        })
        .collect()
}
