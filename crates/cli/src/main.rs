//! `grouter-cli` — simulate a `.wf` workflow on any testbed / data plane,
//! or run the `serve` cluster or the `llm` serving experiment.
//!
//! ```text
//! grouter-cli <workflow.wf> [--plane grouter|infless|nvshmem|deepplan]
//!             [--topology v100|a100|a10|h800] [--nodes N]
//!             [--pattern bursty|sporadic|periodic] [--rps R]
//!             [--seconds S] [--seed N]
//! grouter-cli serve [...]
//! grouter-cli llm [...]
//! ```

use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::Arc;

use grouter::runtime::spec::WorkflowSpec;
use grouter::runtime::Runtime;
use grouter::sim::rng::DetRng;
use grouter::sim::time::SimDuration;
use grouter_cli::args::{parse_command, Command, LlmRun, PlaneFn, ServeRun, WorkflowRun, PLANES};
use grouter_cli::parse_workflow;
use grouter_ctl::ServiceSim;
use grouter_llm::{Fnv64, LlmServeConfig, PlaneKind};
use grouter_workloads::azure::generate_trace;

/// Why a run ended before its last line.
enum Stop {
    /// The reader closed stdout (`grouter-cli … | head`): nothing is left
    /// to say, and nothing went wrong.
    Closed,
    /// The run failed; the message goes to stderr.
    Failed(String),
}

impl From<io::Error> for Stop {
    fn from(e: io::Error) -> Stop {
        if e.kind() == io::ErrorKind::BrokenPipe {
            Stop::Closed
        } else {
            Stop::Failed(format!("cannot write to stdout: {e}"))
        }
    }
}

impl From<String> for Stop {
    fn from(message: String) -> Stop {
        Stop::Failed(message)
    }
}

fn write(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// The `serve` subcommand: a service-mode cluster run with the
/// heartbeat-view router at the gateway.
fn cmd_serve(out: &mut impl Write, run: &ServeRun) -> Result<(), Stop> {
    let cfg = &run.config;
    writeln!(
        out,
        "serve: {} preset, {} groups, {} pattern at {} req/s, {} invocations, \
         hb {}ms, seed {}, {} threads, faults {}",
        run.preset.name,
        run.preset.groups.len(),
        cfg.pattern.name(),
        cfg.rps,
        cfg.total,
        cfg.hb_interval.as_millis_f64(),
        cfg.seed,
        run.threads,
        if cfg.ctl_faults { "on" } else { "off" }
    )?;
    let mut svc = ServiceSim::build(&run.preset, cfg);
    svc.run(run.threads);
    let lat = svc.latency_ms();
    let (hb_sent, hb_recv, hb_drop) = svc.cluster().heartbeat_stats();
    writeln!(
        out,
        "requests: {} submitted, {} completed, {} failed",
        svc.arrivals(),
        svc.completed(),
        svc.failed()
    )?;
    writeln!(
        out,
        "latency (ms): mean {:.1}  p50 {:.1}  p99 {:.1}  max {:.1}",
        lat.mean(),
        lat.p50(),
        lat.p99(),
        lat.max()
    )?;
    writeln!(
        out,
        "heartbeats: {hb_sent} sent, {hb_recv} delivered, {hb_drop} dropped"
    )?;
    // Each digest hashes its text as the rows are formatted; none of the
    // three is built whole (a 1M-request run's CSV is about 50 MB).
    let cluster = svc.cluster();
    let (mut csv, mut admission, mut recovery) = (Fnv64::new(), Fnv64::new(), Fnv64::new());
    cluster
        .write_merged_csv(&mut csv)
        .and_then(|()| cluster.write_admission_log(&mut admission))
        .and_then(|()| cluster.write_merged_recovery_log(&mut recovery))
        .map_err(|e| format!("cannot digest the run's outputs: {e}"))?;
    // Thread-count independence is checkable from the digests alone.
    writeln!(
        out,
        "digests: csv={:016x} admission={:016x} recovery={:016x}",
        csv.finish(),
        admission.finish(),
        recovery.finish()
    )?;
    if let Some(path) = &run.csv {
        write(path, &svc.merged_csv())?;
        writeln!(out, "merged per-request records written to {path}")?;
    }
    Ok(())
}

/// The `llm` subcommand: disaggregated prefill/decode serving over the GPU
/// store, GROUTER vs the Mooncake+ baseline.
fn cmd_llm(out: &mut impl Write, run: &LlmRun) -> Result<(), Stop> {
    let cfg = &run.config;
    writeln!(
        out,
        "llm: {} groups x h800 ({} prefill + {} decode GPUs), {} pattern at {} req/s, \
         {} requests, seed {}, {} threads",
        cfg.groups,
        cfg.prefill_gpus(),
        cfg.decode_gpus,
        cfg.pattern.name(),
        cfg.rps,
        cfg.requests,
        cfg.seed,
        cfg.threads
    )?;
    writeln!(
        out,
        "{:<10} {:>9} {:>9} {:>7} {:>12} {:>12} {:>11} {:>10} {:>9} {:>8}",
        "plane",
        "completed",
        "failed",
        "remat",
        "ttft p50(ms)",
        "ttft p99(ms)",
        "tbt mean(ms)",
        "migrations",
        "restores",
        "stalls"
    )?;
    let mut csv = String::new();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for &plane in run.planes {
        let report = grouter_llm::run_llm_serve(&LlmServeConfig {
            plane,
            ..cfg.clone()
        });
        writeln!(
            out,
            "{:<10} {:>9} {:>9} {:>7} {:>12.1} {:>12.1} {:>11.2} {:>10} {:>9} {:>8}",
            match plane {
                PlaneKind::Grouter => "grouter",
                PlaneKind::Mooncake => "mooncake+",
            },
            report.completed,
            report.failed,
            report.metrics.rematerialized,
            report.metrics.ttft.p50() * 1e3,
            report.metrics.ttft.p99() * 1e3,
            report.metrics.tbt.mean() * 1e3,
            report.migrations,
            report.restores,
            report.metrics.restore_stalls,
        )?;
        csv.push_str(&report.csv);
        digest ^= report.digest;
    }
    // Thread-count independence is checkable from the digest alone.
    writeln!(out, "digests: csv={digest:016x}")?;
    if let Some(path) = &run.csv {
        write(path, &csv)?;
        writeln!(out, "metrics written to {path}")?;
    }
    Ok(())
}

/// One single-world run of `spec` on `plane`.
fn run_workflow(run: &WorkflowRun, spec: &Arc<WorkflowSpec>, plane: PlaneFn) -> Runtime {
    let seed = run.config.seed;
    let mut rt = Runtime::new(
        (run.topology.1)(),
        run.nodes,
        plane(seed),
        run.config.clone(),
    );
    let mut rng = DetRng::new(seed);
    for t in generate_trace(
        run.pattern,
        run.rps,
        SimDuration::from_secs(run.seconds),
        &mut rng,
    ) {
        rt.submit(spec.clone(), t);
    }
    rt.run();
    rt
}

/// The default mode: a `.wf` workflow on one plane, or `--compare` across
/// every plane.
fn cmd_run(out: &mut impl Write, run: &WorkflowRun) -> Result<(), Stop> {
    let text =
        std::fs::read_to_string(&run.file).map_err(|e| format!("cannot read {}: {e}", run.file))?;
    let spec = Arc::new(parse_workflow(&text).map_err(|e| format!("{}: {e}", run.file))?);
    writeln!(
        out,
        "workflow '{}' on {} x {}, {} pattern at {} req/s for {}s",
        spec.name,
        run.nodes,
        run.topology.0,
        run.pattern.name(),
        run.rps,
        run.seconds
    )?;
    if run.compare {
        writeln!(
            out,
            "{:<12} {:>10} {:>10} {:>10} {:>16}",
            "plane", "mean (ms)", "p50 (ms)", "p99 (ms)", "data pass (ms)"
        )?;
        for (name, plane) in PLANES {
            let rt = run_workflow(run, &spec, plane);
            let lat = rt.metrics().latency_ms(None);
            let (_, gg, gh, hh) = rt.metrics().breakdown_ms(None);
            writeln!(
                out,
                "{:<12} {:>10.1} {:>10.1} {:>10.1} {:>16.1}",
                name,
                lat.mean(),
                lat.p50(),
                lat.p99(),
                gg + gh + hh
            )?;
        }
        return Ok(());
    }
    let rt = run_workflow(run, &spec, run.plane.1);
    let m = rt.metrics();
    let lat = m.latency_ms(None);
    let (comp, gg, gh, hh) = m.breakdown_ms(None);
    writeln!(out, "plane: {}", run.plane.0)?;
    writeln!(
        out,
        "requests: {} submitted, {} completed",
        m.arrivals,
        m.completed()
    )?;
    writeln!(
        out,
        "latency (ms): mean {:.1}  p50 {:.1}  p99 {:.1}  max {:.1}",
        lat.mean(),
        lat.p50(),
        lat.p99(),
        lat.max()
    )?;
    writeln!(
        out,
        "mean breakdown (ms): compute {comp:.1}  gFn-gFn {gg:.1}  gFn-host {gh:.1}  cFn-cFn {hh:.1}"
    )?;
    if spec.slo > SimDuration::ZERO {
        writeln!(
            out,
            "SLO {:.0} ms: {:.0}% of requests met it",
            spec.slo.as_millis_f64(),
            m.slo_compliance(None, spec.slo) * 100.0
        )?;
    }
    if let Some(path) = &run.csv {
        write(path, &m.to_csv())?;
        writeln!(out, "per-request records written to {path}")?;
    }
    if let Some(path) = &run.trace_out {
        let trace = rt.recorder().snapshot();
        write(path, &trace.chrome_json())?;
        writeln!(
            out,
            "trace written to {path} ({} events, {} dropped)",
            trace.events.len(),
            trace.dropped
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    let result = parse_command(&argv)
        .map_err(Stop::Failed)
        .and_then(|command| match command {
            Command::Run(run) => cmd_run(&mut out, &run),
            Command::Serve(run) => cmd_serve(&mut out, &run),
            Command::Llm(run) => cmd_llm(&mut out, &run),
        })
        .and_then(|()| Ok(out.flush()?));
    match result {
        Ok(()) | Err(Stop::Closed) => ExitCode::SUCCESS,
        Err(Stop::Failed(m)) => {
            eprintln!("{m}");
            ExitCode::FAILURE
        }
    }
}
