//! `grouter-cli` — simulate a `.wf` workflow on any testbed / data plane.
//!
//! ```text
//! grouter-cli <workflow.wf> [--plane grouter|infless|nvshmem|deepplan]
//!             [--topology v100|a100|a10|h800] [--nodes N]
//!             [--pattern bursty|sporadic|periodic] [--rps R]
//!             [--seconds S] [--seed N]
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use grouter::runtime::dataplane::DataPlane;
use grouter::runtime::world::RuntimeConfig;
use grouter::runtime::Runtime;
use grouter::sim::rng::DetRng;
use grouter::sim::time::SimDuration;
use grouter::topology::graph::TopologySpec;
use grouter::topology::presets;
use grouter::{GrouterConfig, GrouterPlane};
use grouter_baselines::{deepplan_plane, InflessPlane, NvshmemPlane};
use grouter_cli::args::{parse_command, Command, LlmArgs, ServeArgs};
use grouter_cli::parse_workflow;
use grouter_ctl::{ServiceConfig, ServiceSim};
use grouter_sim::fault::CtlFaultConfig;
use grouter_workloads::azure::generate_trace;
use grouter_workloads::cluster::ClusterPreset;

fn topology_of(name: &str) -> Result<TopologySpec, String> {
    Ok(match name {
        "v100" => presets::dgx_v100(),
        "a100" => presets::dgx_a100(),
        "a10" => presets::a10x4(),
        "h800" => presets::h800x8(),
        other => return Err(format!("unknown topology '{other}'")),
    })
}

fn plane_of(name: &str, seed: u64) -> Result<Box<dyn DataPlane>, String> {
    Ok(match name {
        "grouter" => Box::new(GrouterPlane::new(GrouterConfig::full())),
        "infless" => Box::new(InflessPlane::new()),
        "nvshmem" => Box::new(NvshmemPlane::new(seed)),
        "deepplan" => deepplan_plane(seed),
        other => return Err(format!("unknown plane '{other}'")),
    })
}

fn preset_of(name: &str) -> Result<ClusterPreset, String> {
    Ok(match name {
        "uniform64" => ClusterPreset::uniform_64(),
        "uniform128" => ClusterPreset::uniform_128(),
        "hetero64" => ClusterPreset::hetero_64(),
        "hetero128" => ClusterPreset::hetero_128(),
        other => return Err(format!("unknown preset '{other}'")),
    })
}

/// The `serve` subcommand: a service-mode cluster run with the
/// heartbeat-view router at the gateway.
fn cmd_serve(args: &ServeArgs) -> Result<(), String> {
    let mut preset = preset_of(&args.preset)?;
    if args.groups > 0 && args.groups < preset.groups.len() {
        preset.groups.truncate(args.groups);
    }
    let cfg = ServiceConfig {
        pattern: args.pattern,
        rps: args.rps,
        total: args.total,
        seed: args.seed,
        hb_interval: SimDuration::from_millis(args.hb_ms),
        ctl_faults: args.faults.then(CtlFaultConfig::default),
    };
    println!(
        "serve: {} preset, {} groups, {} pattern at {} req/s, {} invocations, \
         hb {}ms, seed {}, {} threads, faults {}",
        args.preset,
        preset.groups.len(),
        args.pattern.name(),
        args.rps,
        args.total,
        args.hb_ms,
        args.seed,
        args.threads,
        if args.faults { "on" } else { "off" }
    );
    let mut svc = ServiceSim::build(&preset, &cfg);
    svc.run(args.threads);
    let lat = svc.latency_ms();
    let (hb_sent, hb_recv, hb_drop) = svc.cluster().heartbeat_stats();
    println!(
        "requests: {} submitted, {} completed, {} failed",
        svc.arrivals(),
        svc.completed(),
        svc.failed()
    );
    println!(
        "latency (ms): mean {:.1}  p50 {:.1}  p99 {:.1}  max {:.1}",
        lat.mean(),
        lat.p50(),
        lat.p99(),
        lat.max()
    );
    println!("heartbeats: {hb_sent} sent, {hb_recv} delivered, {hb_drop} dropped");
    let csv = svc.merged_csv();
    let admission = svc.admission_log();
    let recovery = svc.merged_recovery_log();
    // Thread-count independence is checkable from the digests alone.
    println!(
        "digests: csv={:016x} admission={:016x} recovery={:016x}",
        grouter_llm::fnv64(csv.as_bytes()),
        grouter_llm::fnv64(admission.as_bytes()),
        grouter_llm::fnv64(recovery.as_bytes())
    );
    if let Some(path) = &args.csv {
        std::fs::write(path, &csv).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("merged per-request records written to {path}");
    }
    Ok(())
}

/// One LLM serving run on one plane; returns the report for comparison.
fn llm_run_one(args: &LlmArgs, plane: grouter_llm::PlaneKind) -> grouter_llm::LlmReport {
    let cfg = grouter_llm::LlmServeConfig {
        groups: args.groups,
        seed: args.seed,
        requests: args.requests,
        rps: args.rps,
        pattern: args.pattern,
        decode_gpus: args.decode_gpus,
        prefill_gpus: 8 - args.decode_gpus,
        threads: args.threads,
        ..grouter_llm::LlmServeConfig::reference(plane)
    };
    let report = grouter_llm::run_llm_serve(&cfg);
    println!(
        "{:<10} {:>9} {:>9} {:>7} {:>12.1} {:>12.1} {:>11.2} {:>10} {:>9} {:>8}",
        match plane {
            grouter_llm::PlaneKind::Grouter => "grouter",
            grouter_llm::PlaneKind::Mooncake => "mooncake+",
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
    );
    report
}

/// The `llm` subcommand: disaggregated prefill/decode serving over the GPU
/// store, GROUTER vs the Mooncake+ baseline.
fn cmd_llm(args: &LlmArgs) -> Result<(), String> {
    println!(
        "llm: {} groups x h800 ({} prefill + {} decode GPUs), {} pattern at {} req/s, \
         {} requests, seed {}, {} threads",
        args.groups,
        8 - args.decode_gpus,
        args.decode_gpus,
        args.pattern.name(),
        args.rps,
        args.requests,
        args.seed,
        args.threads
    );
    println!(
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
    );
    let planes: &[grouter_llm::PlaneKind] = match args.plane.as_str() {
        "grouter" => &[grouter_llm::PlaneKind::Grouter],
        "mooncake" => &[grouter_llm::PlaneKind::Mooncake],
        _ => &[
            grouter_llm::PlaneKind::Grouter,
            grouter_llm::PlaneKind::Mooncake,
        ],
    };
    let mut csv = String::new();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for &plane in planes {
        let report = llm_run_one(args, plane);
        csv.push_str(&report.csv);
        digest ^= report.digest;
    }
    // Thread-count independence is checkable from the digest alone.
    println!("digests: csv={digest:016x}");
    if let Some(path) = &args.csv {
        std::fs::write(path, &csv).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("metrics written to {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_command(&argv) {
        Ok(Command::Run(a)) => a,
        Ok(Command::Serve(a)) => {
            return match cmd_serve(&a) {
                Ok(()) => ExitCode::SUCCESS,
                Err(m) => {
                    eprintln!("{m}");
                    ExitCode::FAILURE
                }
            };
        }
        Ok(Command::Llm(a)) => {
            return match cmd_llm(&a) {
                Ok(()) => ExitCode::SUCCESS,
                Err(m) => {
                    eprintln!("{m}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(m) => {
            eprintln!("{m}");
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(&args.file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };
    let spec = match parse_workflow(&text) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("{}: {e}", args.file);
            return ExitCode::FAILURE;
        }
    };
    let run_one = |plane_name: &str| -> Result<Runtime, String> {
        let topo = topology_of(&args.topology)?;
        let plane = plane_of(plane_name, args.seed)?;
        let config = RuntimeConfig {
            trace: args.trace_out.is_some(),
            trace_buffer: args.trace_buffer,
            ..RuntimeConfig::default()
        };
        let mut rt = Runtime::new(topo, args.nodes, plane, config);
        let mut rng = DetRng::new(args.seed);
        for t in generate_trace(
            args.pattern,
            args.rps,
            SimDuration::from_secs(args.seconds),
            &mut rng,
        ) {
            rt.submit(spec.clone(), t);
        }
        rt.run();
        Ok(rt)
    };
    let run = || -> Result<(), String> {
        println!(
            "workflow '{}' on {} x {}, {} pattern at {} req/s for {}s",
            spec.name,
            args.nodes,
            args.topology,
            args.pattern.name(),
            args.rps,
            args.seconds
        );
        if args.compare {
            println!(
                "{:<12} {:>10} {:>10} {:>10} {:>16}",
                "plane", "mean (ms)", "p50 (ms)", "p99 (ms)", "data pass (ms)"
            );
            for plane_name in ["infless", "nvshmem", "deepplan", "grouter"] {
                let m = run_one(plane_name)?.metrics().clone();
                let lat = m.latency_ms(None);
                let (_, gg, gh, hh) = m.breakdown_ms(None);
                println!(
                    "{:<12} {:>10.1} {:>10.1} {:>10.1} {:>16.1}",
                    plane_name,
                    lat.mean(),
                    lat.p50(),
                    lat.p99(),
                    gg + gh + hh
                );
            }
            return Ok(());
        }
        let rt = run_one(&args.plane)?;
        let m = rt.metrics().clone();
        let lat = m.latency_ms(None);
        let (comp, gg, gh, hh) = m.breakdown_ms(None);
        println!("plane: {}", args.plane);
        println!(
            "requests: {} submitted, {} completed",
            m.arrivals,
            m.completed()
        );
        println!(
            "latency (ms): mean {:.1}  p50 {:.1}  p99 {:.1}  max {:.1}",
            lat.mean(),
            lat.p50(),
            lat.p99(),
            lat.max()
        );
        println!(
            "mean breakdown (ms): compute {comp:.1}  gFn-gFn {gg:.1}  gFn-host {gh:.1}  cFn-cFn {hh:.1}"
        );
        if spec.slo > SimDuration::ZERO {
            println!(
                "SLO {:.0} ms: {:.0}% of requests met it",
                spec.slo.as_millis_f64(),
                m.slo_compliance(None, spec.slo) * 100.0
            );
        }
        if let Some(path) = &args.csv {
            std::fs::write(path, m.to_csv()).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("per-request records written to {path}");
        }
        if let Some(path) = &args.trace_out {
            let trace = rt.recorder().snapshot();
            std::fs::write(path, trace.chrome_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!(
                "trace written to {path} ({} events, {} dropped)",
                trace.events.len(),
                trace.dropped
            );
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(m) => {
            eprintln!("{m}");
            ExitCode::FAILURE
        }
    }
}
