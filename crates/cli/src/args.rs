//! Command-line argument handling for `grouter-cli`.
//!
//! Each subcommand writes its flags straight into the library's run
//! config ([`RuntimeConfig`], [`ServiceConfig`], [`LlmServeConfig`]), so a
//! flag left out takes the library default. Plane, topology and preset
//! names are resolved here, before a run prints anything.

use std::str::FromStr;

use grouter::runtime::dataplane::DataPlane;
use grouter::runtime::world::RuntimeConfig;
use grouter::sim::time::SimDuration;
use grouter::topology::graph::TopologySpec;
use grouter::topology::presets;
use grouter::{GrouterConfig, GrouterPlane};
use grouter_baselines::{deepplan_plane, nvshmem_plane, InflessPlane};
use grouter_ctl::ServiceConfig;
use grouter_llm::{LlmServeConfig, PlaneKind, NODE_GPUS};
use grouter_workloads::azure::ArrivalPattern;
use grouter_workloads::cluster::ClusterPreset;

/// Builds a workflow-mode data plane from the run seed.
pub type PlaneFn = fn(u64) -> Box<dyn DataPlane>;
/// Builds a testbed node spec.
pub type TopologyFn = fn() -> TopologySpec;
type PresetFn = fn() -> ClusterPreset;

/// Workflow-mode `--plane` choices, in `--compare` table order.
pub const PLANES: [(&str, PlaneFn); 4] = [
    ("infless", |_| Box::new(InflessPlane::new())),
    ("nvshmem", |seed| Box::new(nvshmem_plane(seed))),
    ("deepplan", |seed| Box::new(deepplan_plane(seed))),
    ("grouter", |_| {
        Box::new(GrouterPlane::new(GrouterConfig::full()))
    }),
];

const TOPOLOGIES: [(&str, TopologyFn); 4] = [
    ("v100", presets::dgx_v100),
    ("a100", presets::dgx_a100),
    ("a10", presets::a10x4),
    ("h800", presets::h800x8),
];

const PRESETS: [(&str, PresetFn); 4] = [
    ("uniform64", ClusterPreset::uniform_64),
    ("uniform128", ClusterPreset::uniform_128),
    ("hetero64", ClusterPreset::hetero_64),
    ("hetero128", ClusterPreset::hetero_128),
];

const LLM_PLANES: [(&str, &[PlaneKind]); 3] = [
    ("grouter", &[PlaneKind::Grouter]),
    ("mooncake", &[PlaneKind::Mooncake]),
    ("both", &[PlaneKind::Grouter, PlaneKind::Mooncake]),
];

/// A `.wf` workflow run on one single-world runtime.
pub struct WorkflowRun {
    pub file: String,
    /// `--plane`: name and constructor.
    pub plane: (&'static str, PlaneFn),
    /// `--topology`: name and testbed.
    pub topology: (&'static str, TopologyFn),
    pub nodes: usize,
    pub pattern: ArrivalPattern,
    pub rps: f64,
    pub seconds: u64,
    /// Run every plane in [`PLANES`] and print one table row each.
    pub compare: bool,
    pub csv: Option<String>,
    /// Write a Chrome trace_event JSON of the run here.
    pub trace_out: Option<String>,
    /// `--seed` (arrivals, branches, random placement) and `--trace-buffer`.
    pub config: RuntimeConfig,
}

/// A `serve` run: the heartbeat-view router admitting an open-loop stream
/// over the sharded fabric.
pub struct ServeRun {
    /// `--preset`, truncated to `--groups` when given.
    pub preset: ClusterPreset,
    /// Shard threads, the calling thread included (outputs are identical
    /// for any value).
    pub threads: usize,
    pub csv: Option<String>,
    pub config: ServiceConfig,
}

/// An `llm` run: disaggregated prefill/decode serving over the GPU store.
pub struct LlmRun {
    /// `--plane`: the planes to run, side by side.
    pub planes: &'static [PlaneKind],
    pub csv: Option<String>,
    /// Every other flag; `plane` is set per run from `planes`.
    pub config: LlmServeConfig,
}

/// The classic single-runtime run, the service-mode cluster, or the
/// disaggregated LLM serving experiment.
pub enum Command {
    Run(WorkflowRun),
    Serve(ServeRun),
    Llm(LlmRun),
}

/// The usage string printed on `--help` or bad invocations.
pub fn usage() -> String {
    "usage: grouter-cli <workflow.wf> [--plane grouter|infless|nvshmem|deepplan] \
     [--topology v100|a100|a10|h800] [--nodes N] \
     [--pattern bursty|sporadic|periodic] [--rps R] [--seconds S] [--seed N] \
     [--compare] [--csv <file>] [--trace-out <file>] [--trace-buffer <events>]\n\
     \n\
     grouter-cli serve [--preset uniform64|uniform128|hetero64|hetero128] \
     [--groups N] [--pattern bursty|sporadic|periodic] [--rps R] [--total N] \
     [--seed N] [--threads T] [--hb-ms M] [--faults] [--csv <file>]\n\
     \n\
     grouter-cli llm [--plane grouter|mooncake|both] [--groups N] \
     [--requests N] [--rps R] [--pattern bursty|sporadic|periodic] [--seed N] \
     [--threads T] [--decode-gpus N] [--csv <file>]"
        .to_string()
}

/// Reads one subcommand's words in order; every subcommand shares these
/// value readers, so a flag means the same thing wherever it appears.
struct Flags<'a>(std::slice::Iter<'a, String>);

impl<'a> Flags<'a> {
    /// The next word; `--help` ends parsing with the usage text.
    fn next(&mut self) -> Result<Option<&'a str>, String> {
        match self.0.next().map(String::as_str) {
            Some("--help" | "-h") => Err(usage()),
            word => Ok(word),
        }
    }

    /// The value after `flag`.
    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.0
            .next()
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    fn int<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        self.value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be an integer"))
    }

    /// Arrival generators need a positive finite mean rate: zero or
    /// negative rates have no inter-arrival time, and an infinite one never
    /// advances the clock.
    fn rps(&mut self) -> Result<f64, String> {
        let value = self.value("--rps")?;
        crate::parse::parse_finite(value)
            .filter(|&r| r > 0.0)
            .ok_or_else(|| format!("--rps must be a positive finite number, got '{value}'"))
    }

    fn pattern(&mut self) -> Result<ArrivalPattern, String> {
        let value = self.value("--pattern")?;
        ArrivalPattern::ALL
            .into_iter()
            .find(|p| p.name() == value)
            .ok_or_else(|| {
                format!("unknown pattern '{value}' (expected bursty, sporadic or periodic)")
            })
    }

    /// Resolve the value after `flag` against `choices` by name.
    fn name<T: Copy>(
        &mut self,
        flag: &str,
        choices: &[(&'static str, T)],
    ) -> Result<(&'static str, T), String> {
        let value = self.value(flag)?;
        choices
            .iter()
            .find(|(name, _)| *name == value)
            .copied()
            .ok_or_else(|| {
                let names: Vec<&str> = choices.iter().map(|(name, _)| *name).collect();
                format!("unknown {flag} '{value}' (expected {})", names.join(", "))
            })
    }
}

/// Arrivals may span at most 1e7 s (about 116 days), on average when a
/// count and a rate set the span. That keeps them well inside the simulated
/// clock, which ends at about 1.8e10 s (an arrival stamped past its end
/// could never be reached), and bounds generation time: the bursty process
/// draws one on/off phase per ~2.25 simulated seconds, arrival or not. A
/// heartbeat interval is held to the same span, so the next beat's instant
/// fits the clock too.
const MAX_SPAN_S: f64 = 1e7;

/// `count` arrivals at `rps` may span at most [`MAX_SPAN_S`] on average.
fn arrival_span(count_flag: &str, count: u64, rps: f64) -> Result<(), String> {
    let span = count as f64 / rps;
    if span > MAX_SPAN_S {
        return Err(format!(
            "--rps {rps:e} spreads {count_flag} {count} over {span:.3e} s; \
             the mean arrival span may be at most {MAX_SPAN_S:e} s"
        ));
    }
    Ok(())
}

/// Parse `argv` (without the program name) into a [`Command`]; `serve`
/// selects service mode, `llm` the disaggregated LLM serving experiment.
pub fn parse_command(argv: &[String]) -> Result<Command, String> {
    match argv.first().map(String::as_str) {
        Some("serve") => parse_serve(Flags(argv[1..].iter())).map(Command::Serve),
        Some("llm") => parse_llm(Flags(argv[1..].iter())).map(Command::Llm),
        _ => parse_workflow_run(Flags(argv.iter())).map(Command::Run),
    }
}

fn parse_workflow_run(mut f: Flags) -> Result<WorkflowRun, String> {
    let mut run = WorkflowRun {
        file: String::new(),
        plane: PLANES[3], // grouter
        topology: TOPOLOGIES[0],
        nodes: 1,
        pattern: ArrivalPattern::Bursty,
        rps: 5.0,
        seconds: 10,
        compare: false,
        csv: None,
        trace_out: None,
        config: RuntimeConfig::default(),
    };
    while let Some(word) = f.next()? {
        match word {
            "--plane" => run.plane = f.name("--plane", &PLANES)?,
            "--topology" => run.topology = f.name("--topology", &TOPOLOGIES)?,
            "--nodes" => run.nodes = f.int("--nodes")?,
            "--pattern" => run.pattern = f.pattern()?,
            "--rps" => run.rps = f.rps()?,
            "--seconds" => run.seconds = f.int("--seconds")?,
            "--seed" => run.config.seed = f.int("--seed")?,
            "--compare" => run.compare = true,
            "--csv" => run.csv = Some(f.value("--csv")?.to_string()),
            "--trace-out" => run.trace_out = Some(f.value("--trace-out")?.to_string()),
            "--trace-buffer" => run.config.trace_buffer = f.int("--trace-buffer")?,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path => {
                if !run.file.is_empty() {
                    return Err("only one workflow file is accepted".to_string());
                }
                run.file = path.to_string();
            }
        }
    }
    if run.file.is_empty() {
        return Err(usage());
    }
    if run.nodes == 0 {
        return Err("--nodes must be at least 1".to_string());
    }
    if run.seconds as f64 > MAX_SPAN_S {
        return Err(format!(
            "--seconds {} exceeds the longest arrival span, {MAX_SPAN_S:e} s",
            run.seconds
        ));
    }
    run.config.trace = run.trace_out.is_some();
    Ok(run)
}

fn parse_serve(mut f: Flags) -> Result<ServeRun, String> {
    let (mut preset, mut groups, mut threads, mut csv) = (PRESETS[0], 0, 1, None);
    let mut config = ServiceConfig::default();
    while let Some(word) = f.next()? {
        match word {
            "--preset" => preset = f.name("--preset", &PRESETS)?,
            "--groups" => groups = f.int("--groups")?,
            "--pattern" => config.pattern = f.pattern()?,
            "--rps" => config.rps = f.rps()?,
            "--total" => config.total = f.int("--total")?,
            "--seed" => config.seed = f.int("--seed")?,
            "--threads" => threads = f.int("--threads")?,
            "--hb-ms" => {
                let ms: u64 = f.int("--hb-ms")?;
                if ms as f64 > MAX_SPAN_S * 1e3 {
                    return Err(format!(
                        "--hb-ms {ms} exceeds the longest arrival span, {MAX_SPAN_S:e} s"
                    ));
                }
                config.hb_interval = SimDuration::from_millis(ms);
            }
            "--faults" => config.ctl_faults = true,
            "--csv" => csv = Some(f.value("--csv")?.to_string()),
            flag => return Err(format!("unknown serve flag {flag}")),
        }
    }
    if threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    if config.hb_interval == SimDuration::ZERO {
        return Err("--hb-ms must be at least 1".to_string());
    }
    arrival_span("--total", config.total, config.rps)?;
    let mut preset = (preset.1)();
    if groups > preset.groups.len() {
        return Err(format!(
            "--groups {groups} exceeds the {} groups of preset {}",
            preset.groups.len(),
            preset.name
        ));
    }
    if groups > 0 {
        preset.groups.truncate(groups);
    }
    Ok(ServeRun {
        preset,
        threads,
        csv,
        config,
    })
}

fn parse_llm(mut f: Flags) -> Result<LlmRun, String> {
    let mut run = LlmRun {
        planes: LLM_PLANES[2].1, // both
        csv: None,
        config: LlmServeConfig::reference(PlaneKind::Grouter),
    };
    while let Some(word) = f.next()? {
        match word {
            "--plane" => run.planes = f.name("--plane", &LLM_PLANES)?.1,
            "--groups" => run.config.groups = f.int("--groups")?,
            "--requests" => run.config.requests = f.int("--requests")?,
            "--rps" => run.config.rps = f.rps()?,
            "--pattern" => run.config.pattern = f.pattern()?,
            "--seed" => run.config.seed = f.int("--seed")?,
            "--threads" => run.config.threads = f.int("--threads")?,
            "--decode-gpus" => run.config.decode_gpus = f.int("--decode-gpus")?,
            "--csv" => run.csv = Some(f.value("--csv")?.to_string()),
            flag => return Err(format!("unknown llm flag {flag}")),
        }
    }
    if run.config.threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    if run.config.groups == 0 {
        return Err("--groups must be at least 1".to_string());
    }
    arrival_span("--requests", run.config.requests, run.config.rps)?;
    // One H800 node per group: the GPUs decode does not take run prefill.
    if !(1..NODE_GPUS).contains(&run.config.decode_gpus) {
        return Err(format!(
            "--decode-gpus must be in 1..={} (one node is {NODE_GPUS} GPUs)",
            NODE_GPUS - 1
        ));
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    fn parse(words: &[&str]) -> Result<WorkflowRun, String> {
        match parse_command(&argv(words))? {
            Command::Run(run) => Ok(run),
            _ => panic!("{words:?} must select workflow mode"),
        }
    }

    fn serve(words: &[&str]) -> Result<ServeRun, String> {
        match parse_command(&argv(&[&["serve"], words].concat()))? {
            Command::Serve(run) => Ok(run),
            _ => panic!("serve must select service mode"),
        }
    }

    fn llm(words: &[&str]) -> Result<LlmRun, String> {
        match parse_command(&argv(&[&["llm"], words].concat()))? {
            Command::Llm(run) => Ok(run),
            _ => panic!("llm must select serving mode"),
        }
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["wf.wf"]).expect("valid");
        assert_eq!(a.file, "wf.wf");
        assert_eq!(a.plane.0, "grouter");
        assert_eq!(a.topology.0, "v100");
        assert_eq!(a.nodes, 1);
        assert!(!a.compare);
        assert!(a.csv.is_none());
        assert!(a.trace_out.is_none());
        let lib = RuntimeConfig::default();
        assert_eq!(a.config.seed, lib.seed);
        assert_eq!(a.config.trace_buffer, lib.trace_buffer);
        assert!(!a.config.trace);
    }

    #[test]
    fn all_flags_parse() {
        let a = parse(&[
            "wf.wf",
            "--plane",
            "infless",
            "--topology",
            "a100",
            "--nodes",
            "2",
            "--pattern",
            "sporadic",
            "--rps",
            "12.5",
            "--seconds",
            "30",
            "--seed",
            "7",
            "--compare",
            "--csv",
            "out.csv",
            "--trace-out",
            "run.trace.json",
            "--trace-buffer",
            "1024",
        ])
        .expect("valid");
        assert_eq!(a.plane.0, "infless");
        assert_eq!(a.topology.0, "a100");
        assert_eq!(a.nodes, 2);
        assert_eq!(a.pattern, ArrivalPattern::Sporadic);
        assert_eq!(a.rps, 12.5);
        assert_eq!(a.seconds, 30);
        assert!(a.compare);
        assert_eq!(a.csv.as_deref(), Some("out.csv"));
        assert_eq!(a.trace_out.as_deref(), Some("run.trace.json"));
        // The seed reaches the world RNG (branch draws, random placement),
        // not just the arrival trace.
        assert_eq!(a.config.seed, 7);
        assert!(a.config.trace);
        assert_eq!(a.config.trace_buffer, 1024);
    }

    #[test]
    fn serve_defaults_and_flags_parse() {
        let a = serve(&[]).expect("bare serve is valid");
        assert_eq!(a.preset.name, "uniform64");
        assert_eq!(a.preset.groups.len(), 8);
        assert_eq!(a.threads, 1);
        let lib = ServiceConfig::default();
        assert_eq!(a.config.seed, 42);
        assert_eq!(a.config.seed, lib.seed);
        assert_eq!(a.config.hb_interval, SimDuration::from_millis(50));
        assert!(!a.config.ctl_faults);
        let a = serve(&[
            "--preset",
            "hetero64",
            "--groups",
            "4",
            "--pattern",
            "bursty",
            "--rps",
            "900",
            "--total",
            "50000",
            "--seed",
            "9",
            "--threads",
            "8",
            "--hb-ms",
            "25",
            "--faults",
            "--csv",
            "m.csv",
        ])
        .expect("valid");
        assert_eq!(a.preset.name, "hetero64");
        assert_eq!(a.preset.groups.len(), 4);
        assert_eq!(a.config.pattern, ArrivalPattern::Bursty);
        assert_eq!(a.config.rps, 900.0);
        assert_eq!(a.config.total, 50_000);
        assert_eq!(a.config.seed, 9);
        assert_eq!(a.threads, 8);
        assert_eq!(a.config.hb_interval, SimDuration::from_millis(25));
        assert!(a.config.ctl_faults);
        assert_eq!(a.csv.as_deref(), Some("m.csv"));
        // The whole preset may be asked for by size.
        assert_eq!(
            serve(&["--groups", "8"])
                .expect("valid")
                .preset
                .groups
                .len(),
            8
        );
    }

    #[test]
    fn serve_errors_are_reported() {
        assert!(serve(&["--threads", "0"]).is_err(), "zero threads");
        assert!(serve(&["--hb-ms", "0"]).is_err(), "zero interval");
        assert!(serve(&["--bogus"]).is_err(), "unknown flag");
        assert!(serve(&["--pattern", "steady"]).is_err(), "unknown pattern");
        assert!(serve(&["--preset", "bogus"]).is_err(), "unknown preset");
        assert!(serve(&["--rps"]).is_err(), "missing value");
        assert!(serve(&["extra.wf"]).is_err(), "serve takes no file");
        // More groups than the preset has is refused, not capped.
        let e = serve(&["--groups", "100"])
            .err()
            .expect("uniform64 has 8 groups");
        assert!(e.contains("--groups"), "{e}");
        assert!(serve(&["--preset", "uniform128", "--groups", "17"]).is_err());
        assert!(serve(&["--preset", "uniform128", "--groups", "16"]).is_ok());
        // 18446744073710 ms is the first interval whose nanoseconds
        // overflow the clock; 1e10 ms + 1 the first past the 1e7 s span.
        for ms in ["18446744073710", "10000000001"] {
            let e = serve(&["--hb-ms", ms]).err().expect("interval refused");
            assert!(e.contains("--hb-ms") && e.contains("1e7 s"), "{e}");
        }
        let a = serve(&["--hb-ms", "10000000000"]).expect("a 1e7 s interval");
        assert_eq!(a.config.hb_interval, SimDuration::from_secs(10_000_000));
        assert!(matches!(
            parse_command(&argv(&["plain.wf"])),
            Ok(Command::Run(_))
        ));
    }

    #[test]
    fn llm_defaults_and_flags_parse() {
        let a = llm(&[]).expect("bare llm is valid");
        assert_eq!(a.planes, &[PlaneKind::Grouter, PlaneKind::Mooncake]);
        assert_eq!(a.config.groups, 2);
        assert_eq!(a.config.requests, 10_000);
        assert_eq!(a.config.rps, 20.0);
        assert_eq!(a.config.pattern, ArrivalPattern::Sporadic);
        assert_eq!(a.config.seed, 7);
        assert_eq!(a.config.threads, 1);
        assert_eq!(a.config.decode_gpus, 4);
        assert_eq!(a.config.prefill_gpus(), 4);
        assert!(a.csv.is_none());
        let a = llm(&[
            "--plane",
            "mooncake",
            "--groups",
            "4",
            "--requests",
            "500",
            "--rps",
            "32.5",
            "--pattern",
            "periodic",
            "--seed",
            "11",
            "--threads",
            "8",
            "--decode-gpus",
            "6",
            "--csv",
            "llm.csv",
        ])
        .expect("valid");
        assert_eq!(a.planes, &[PlaneKind::Mooncake]);
        assert_eq!(a.config.groups, 4);
        assert_eq!(a.config.requests, 500);
        assert_eq!(a.config.rps, 32.5);
        assert_eq!(a.config.pattern, ArrivalPattern::Periodic);
        assert_eq!(a.config.seed, 11);
        assert_eq!(a.config.threads, 8);
        assert_eq!(a.config.decode_gpus, 6);
        assert_eq!(a.config.prefill_gpus(), 2);
        assert_eq!(a.csv.as_deref(), Some("llm.csv"));
    }

    #[test]
    fn llm_errors_are_reported() {
        assert!(llm(&["--threads", "0"]).is_err(), "zero threads");
        assert!(llm(&["--groups", "0"]).is_err(), "zero groups");
        assert!(llm(&["--decode-gpus", "0"]).is_err(), "no decode GPUs");
        assert!(
            llm(&["--decode-gpus", "8"]).is_err(),
            "no prefill GPUs left"
        );
        assert!(llm(&["--plane", "bogus"]).is_err(), "unknown plane");
        assert!(llm(&["--bogus"]).is_err(), "unknown flag");
        assert!(llm(&["--pattern", "steady"]).is_err(), "unknown pattern");
        assert!(llm(&["--rps"]).is_err(), "missing value");
        assert!(llm(&["extra.wf"]).is_err(), "llm takes no file");
    }

    #[test]
    fn bad_rates_are_refused_by_every_subcommand() {
        for sub in [&["a.wf"][..], &["serve"], &["llm"]] {
            for rate in ["0", "-5", "nan", "inf", "-inf", "x"] {
                let e = parse_command(&argv(&[sub, &["--rps", rate]].concat()))
                    .err()
                    .expect("bad rate");
                assert!(e.contains("--rps"), "{sub:?} --rps {rate}: {e}");
            }
        }
        // A rate so low that the arrivals would run past the end of the
        // simulated clock, or take seconds just to generate (their mean
        // span is capped at 1e7 s).
        for args in [
            &["serve", "--rps", "1e-10", "--total", "3", "--groups", "2"][..],
            &["serve", "--total", "3", "--rps", "1e-9"],
            &["llm", "--rps", "1e-12", "--requests", "3"],
            &[
                "serve",
                "--pattern",
                "bursty",
                "--rps",
                "1e-9",
                "--total",
                "1",
                "--groups",
                "2",
            ],
        ] {
            let e = parse_command(&argv(args)).err().expect("span refused");
            assert!(e.contains("--rps") && e.contains("1e7 s"), "{args:?}: {e}");
        }
        assert!(serve(&["--rps", "1e-4", "--total", "1000"]).is_ok());
        assert!(llm(&["--rps", "1e-4", "--requests", "1000"]).is_ok());
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&[]).is_err(), "missing file");
        assert!(parse(&["a.wf", "--nodes", "x"]).is_err(), "bad integer");
        let e = parse(&["a.wf", "--nodes", "0"]).err().expect("zero nodes");
        assert!(e.contains("--nodes"), "a cluster needs a node: {e}");
        assert!(parse(&["a.wf", "--rps"]).is_err(), "missing value");
        assert!(parse(&["a.wf", "--bogus"]).is_err(), "unknown flag");
        assert!(
            parse(&["a.wf", "--pattern", "steady"]).is_err(),
            "unknown pattern"
        );
        assert!(parse(&["a.wf", "b.wf"]).is_err(), "two files");
        assert!(
            parse(&["a.wf", "--trace-buffer", "x"]).is_err(),
            "bad trace buffer"
        );
        assert!(parse(&["a.wf", "--help"]).is_err(), "help prints usage");
        // The horizon may span 1e7 s, like serve's and llm's arrivals;
        // 18446744074 s is the first whose nanoseconds overflow the clock.
        for secs in ["18446744074", "10000001"] {
            let e = parse(&["a.wf", "--seconds", secs])
                .err()
                .expect("span refused");
            assert!(e.contains("--seconds") && e.contains("1e7 s"), "{e}");
        }
        assert!(parse(&["a.wf", "--seconds", "10000000"]).is_ok());
        for (flag, value) in [("--plane", "bogus"), ("--topology", "bogus")] {
            let e = parse(&["a.wf", flag, value]).err().expect("unknown name");
            assert!(e.contains(flag) && e.contains(value), "{e}");
        }
    }

    /// Each mode's flags: the workflow run's, `serve`'s and `llm`'s.
    const FLAGS: [&[&str]; 3] = [
        &[
            "--plane",
            "--topology",
            "--nodes",
            "--pattern",
            "--rps",
            "--seconds",
            "--seed",
            "--compare",
            "--csv",
            "--trace-out",
            "--trace-buffer",
        ],
        &[
            "--preset",
            "--groups",
            "--pattern",
            "--rps",
            "--total",
            "--seed",
            "--threads",
            "--hb-ms",
            "--faults",
            "--csv",
        ],
        &[
            "--plane",
            "--groups",
            "--requests",
            "--rps",
            "--pattern",
            "--seed",
            "--threads",
            "--decode-gpus",
            "--csv",
        ],
    ];

    /// Numbers at, inside and past every bound.
    const NUMBERS: [&str; 20] = [
        "0",
        "1",
        "2",
        "7",
        "8",
        "100",
        "10000000",
        "10000001",
        "10000000001",
        "18446744073710",
        "18446744074",
        "18446744073709551615",
        "1e-12",
        "1e300",
        "nan",
        "inf",
        "-1",
        "-inf",
        "0.5",
        "1e-9",
    ];

    /// Names the flags take, words no flag takes, and junk.
    const WORDS: [&str; 16] = [
        "grouter",
        "mooncake",
        "both",
        "infless",
        "deepplan",
        "h800",
        "a10",
        "uniform128",
        "hetero64",
        "bursty",
        "periodic",
        "a.wf",
        "--help",
        "--bogus",
        "x",
        "",
    ];

    /// The argv a generated case spells: the workflow file, `serve`, `llm`
    /// or nothing (`mode` 3, read as a workflow run), then each item as a
    /// flag of the mode's with a number, a flag with a word, a flag alone,
    /// or a word alone.
    fn soup(mode: usize, items: &[(usize, usize, u8)]) -> Vec<String> {
        let mut words: Vec<&str> = ["a.wf", "serve", "llm"]
            .get(mode)
            .copied()
            .into_iter()
            .collect();
        let flags = FLAGS[mode % 3];
        for &(flag, value, shape) in items {
            let flag = flags[flag % flags.len()];
            match shape {
                0..=2 => words.extend([flag, NUMBERS[value % NUMBERS.len()]]),
                3 => words.extend([flag, WORDS[value % WORDS.len()]]),
                4 => words.push(flag),
                _ => words.push(WORDS[value % WORDS.len()]),
            }
        }
        argv(&words)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]
        /// `parse_command` never panics on token soup, and whatever it
        /// accepts is inside the bounds the parsers document.
        #[test]
        fn token_soup_parses_to_an_error_or_a_bounded_run(
            mode in 0usize..4,
            items in proptest::collection::vec((0usize..64, 0usize..64, 0u8..6), 0..6),
        ) {
            let words = soup(mode, &items);
            let span_ok = |count: u64, rps: f64| {
                rps.is_finite() && rps > 0.0 && count as f64 / rps <= MAX_SPAN_S
            };
            match parse_command(&words) {
                Err(_) => {}
                Ok(Command::Run(r)) => {
                    proptest::prop_assert!(r.nodes >= 1, "{:?}", words);
                    proptest::prop_assert!(r.seconds as f64 <= MAX_SPAN_S, "{:?}", words);
                    proptest::prop_assert!(r.rps.is_finite() && r.rps > 0.0, "{:?}", words);
                }
                Ok(Command::Serve(r)) => {
                    let hb = r.config.hb_interval;
                    let groups = PRESETS
                        .iter()
                        .find(|(name, _)| *name == r.preset.name)
                        .map(|(_, preset)| preset().groups.len());
                    proptest::prop_assert!(r.threads >= 1, "{:?}", words);
                    proptest::prop_assert!(hb > SimDuration::ZERO, "{:?}", words);
                    proptest::prop_assert!(hb.as_secs_f64() <= MAX_SPAN_S, "{:?}", words);
                    proptest::prop_assert!(span_ok(r.config.total, r.config.rps), "{:?}", words);
                    proptest::prop_assert!(
                        groups.is_some_and(|g| (1..=g).contains(&r.preset.groups.len())),
                        "{:?}",
                        words
                    );
                }
                Ok(Command::Llm(r)) => {
                    let c = &r.config;
                    proptest::prop_assert!(c.threads >= 1 && c.groups >= 1, "{:?}", words);
                    proptest::prop_assert!(span_ok(c.requests, c.rps), "{:?}", words);
                    proptest::prop_assert!((1..NODE_GPUS).contains(&c.decode_gpus), "{:?}", words);
                }
            }
        }
    }
}
