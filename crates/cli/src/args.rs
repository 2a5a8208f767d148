//! Command-line argument handling for `grouter-cli`.

use grouter_workloads::azure::ArrivalPattern;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub file: String,
    pub plane: String,
    pub topology: String,
    pub nodes: usize,
    pub pattern: ArrivalPattern,
    pub rps: f64,
    pub seconds: u64,
    pub seed: u64,
    pub compare: bool,
    pub csv: Option<String>,
    /// Write a Chrome trace_event JSON of the run here.
    pub trace_out: Option<String>,
    /// Flight-recorder capacity in events.
    pub trace_buffer: usize,
}

/// Parsed `serve` subcommand: a service-mode cluster run (heartbeat-view
/// router admitting an open-loop stream over the sharded fabric).
#[derive(Clone, Debug)]
pub struct ServeArgs {
    pub preset: String,
    /// Truncate the preset to this many groups (0 = all).
    pub groups: usize,
    pub pattern: ArrivalPattern,
    pub rps: f64,
    /// Total invocations in the trace.
    pub total: u64,
    pub seed: u64,
    /// Shard worker threads (outputs are identical for any value).
    pub threads: usize,
    /// Heartbeat interval in milliseconds.
    pub hb_ms: u64,
    /// Inject the randomized control-plane fault plan.
    pub faults: bool,
    pub csv: Option<String>,
}

/// Parsed `llm` subcommand: a disaggregated LLM serving run (prefill/decode
/// split over the GPU store, TTFT/TBT report).
#[derive(Clone, Debug)]
pub struct LlmArgs {
    /// `grouter`, `mooncake`, or `both` (side-by-side comparison).
    pub plane: String,
    /// Serving groups (one H800 node each).
    pub groups: usize,
    /// Total requests injected by the open-loop source.
    pub requests: u64,
    pub rps: f64,
    pub pattern: ArrivalPattern,
    pub seed: u64,
    pub threads: usize,
    /// Decode GPUs per group (the rest of the node runs prefill).
    pub decode_gpus: usize,
    pub csv: Option<String>,
}

/// Either the classic single-runtime run, the service-mode cluster, or the
/// disaggregated LLM serving experiment.
#[derive(Clone, Debug)]
pub enum Command {
    Run(Args),
    Serve(ServeArgs),
    Llm(LlmArgs),
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

/// Parse a `--pattern` value; shared by every subcommand.
fn parse_pattern(name: &str) -> Result<ArrivalPattern, String> {
    ArrivalPattern::ALL
        .into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| format!("unknown pattern '{name}' (expected bursty, sporadic or periodic)"))
}

/// Parse a `--rps` value; shared by every subcommand. Arrival generators
/// need a positive finite mean rate: zero or negative rates have no
/// inter-arrival time, and an infinite one never advances the clock.
fn parse_rps(value: &str) -> Result<f64, String> {
    crate::parse::parse_finite(value)
        .filter(|&r| r > 0.0)
        .ok_or_else(|| format!("--rps must be a positive finite number, got '{value}'"))
}

/// Parse `argv` into a [`Command`]; `serve` selects service mode, `llm` the
/// disaggregated LLM serving experiment.
pub fn parse_command(argv: &[String]) -> Result<Command, String> {
    if argv.first().map(String::as_str) == Some("serve") {
        return parse_serve_args(&argv[1..]).map(Command::Serve);
    }
    if argv.first().map(String::as_str) == Some("llm") {
        return parse_llm_args(&argv[1..]).map(Command::Llm);
    }
    parse_args(argv).map(Command::Run)
}

/// Parse the `llm` subcommand's flags (after the literal `llm`).
pub fn parse_llm_args(argv: &[String]) -> Result<LlmArgs, String> {
    let mut args = LlmArgs {
        plane: "both".into(),
        groups: 2,
        requests: 10_000,
        rps: 20.0,
        pattern: ArrivalPattern::Sporadic,
        seed: 7,
        threads: 1,
        decode_gpus: 4,
        csv: None,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--plane" => args.plane = take("--plane")?,
            "--groups" => {
                args.groups = take("--groups")?
                    .parse()
                    .map_err(|_| "--groups must be an integer".to_string())?
            }
            "--requests" => {
                args.requests = take("--requests")?
                    .parse()
                    .map_err(|_| "--requests must be an integer".to_string())?
            }
            "--rps" => args.rps = parse_rps(&take("--rps")?)?,
            "--pattern" => args.pattern = parse_pattern(&take("--pattern")?)?,
            "--seed" => {
                args.seed = take("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?
            }
            "--threads" => {
                args.threads = take("--threads")?
                    .parse()
                    .map_err(|_| "--threads must be an integer".to_string())?
            }
            "--decode-gpus" => {
                args.decode_gpus = take("--decode-gpus")?
                    .parse()
                    .map_err(|_| "--decode-gpus must be an integer".to_string())?
            }
            "--csv" => args.csv = Some(take("--csv")?),
            "--help" | "-h" => return Err(usage()),
            flag => return Err(format!("unknown llm flag {flag}")),
        }
    }
    if args.threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    if args.groups == 0 {
        return Err("--groups must be at least 1".to_string());
    }
    if args.decode_gpus == 0 || args.decode_gpus > 7 {
        return Err("--decode-gpus must be in 1..=7 (one node is 8 GPUs)".to_string());
    }
    match args.plane.as_str() {
        "grouter" | "mooncake" | "both" => {}
        other => return Err(format!("unknown llm plane '{other}'")),
    }
    Ok(args)
}

/// Parse the `serve` subcommand's flags (after the literal `serve`).
pub fn parse_serve_args(argv: &[String]) -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        preset: "uniform64".into(),
        groups: 0,
        pattern: ArrivalPattern::Sporadic,
        rps: 400.0,
        total: 10_000,
        seed: 42,
        threads: 1,
        hb_ms: 50,
        faults: false,
        csv: None,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--preset" => args.preset = take("--preset")?,
            "--groups" => {
                args.groups = take("--groups")?
                    .parse()
                    .map_err(|_| "--groups must be an integer".to_string())?
            }
            "--pattern" => args.pattern = parse_pattern(&take("--pattern")?)?,
            "--rps" => args.rps = parse_rps(&take("--rps")?)?,
            "--total" => {
                args.total = take("--total")?
                    .parse()
                    .map_err(|_| "--total must be an integer".to_string())?
            }
            "--seed" => {
                args.seed = take("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?
            }
            "--threads" => {
                args.threads = take("--threads")?
                    .parse()
                    .map_err(|_| "--threads must be an integer".to_string())?
            }
            "--hb-ms" => {
                args.hb_ms = take("--hb-ms")?
                    .parse()
                    .map_err(|_| "--hb-ms must be an integer".to_string())?
            }
            "--faults" => args.faults = true,
            "--csv" => args.csv = Some(take("--csv")?),
            "--help" | "-h" => return Err(usage()),
            flag => return Err(format!("unknown serve flag {flag}")),
        }
    }
    if args.threads == 0 {
        return Err("--threads must be at least 1".to_string());
    }
    if args.hb_ms == 0 {
        return Err("--hb-ms must be at least 1".to_string());
    }
    Ok(args)
}

/// Parse `argv` (without the program name).
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        file: String::new(),
        plane: "grouter".into(),
        topology: "v100".into(),
        nodes: 1,
        pattern: ArrivalPattern::Bursty,
        rps: 5.0,
        seconds: 10,
        seed: 42,
        compare: false,
        csv: None,
        trace_out: None,
        trace_buffer: 65_536,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--plane" => args.plane = take("--plane")?,
            "--topology" => args.topology = take("--topology")?,
            "--nodes" => {
                args.nodes = take("--nodes")?
                    .parse()
                    .map_err(|_| "--nodes must be an integer".to_string())?
            }
            "--pattern" => args.pattern = parse_pattern(&take("--pattern")?)?,
            "--rps" => args.rps = parse_rps(&take("--rps")?)?,
            "--seconds" => {
                args.seconds = take("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds must be an integer".to_string())?
            }
            "--seed" => {
                args.seed = take("--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?
            }
            "--compare" => args.compare = true,
            "--csv" => args.csv = Some(take("--csv")?),
            "--trace-out" => args.trace_out = Some(take("--trace-out")?),
            "--trace-buffer" => {
                args.trace_buffer = take("--trace-buffer")?
                    .parse()
                    .map_err(|_| "--trace-buffer must be an integer".to_string())?
            }
            "--help" | "-h" => return Err(usage()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path => {
                if !args.file.is_empty() {
                    return Err("only one workflow file is accepted".to_string());
                }
                args.file = path.to_string();
            }
        }
    }
    if args.file.is_empty() {
        return Err(usage());
    }
    if args.nodes == 0 {
        return Err("--nodes must be at least 1".to_string());
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        parse_args(&argv)
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["wf.wf"]).expect("valid");
        assert_eq!(a.file, "wf.wf");
        assert_eq!(a.plane, "grouter");
        assert_eq!(a.topology, "v100");
        assert_eq!(a.nodes, 1);
        assert!(!a.compare);
        assert!(a.csv.is_none());
        assert!(a.trace_out.is_none());
        assert_eq!(a.trace_buffer, 65_536);
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
        assert_eq!(a.plane, "infless");
        assert_eq!(a.topology, "a100");
        assert_eq!(a.nodes, 2);
        assert_eq!(a.pattern, ArrivalPattern::Sporadic);
        assert_eq!(a.rps, 12.5);
        assert_eq!(a.seconds, 30);
        assert_eq!(a.seed, 7);
        assert!(a.compare);
        assert_eq!(a.csv.as_deref(), Some("out.csv"));
        assert_eq!(a.trace_out.as_deref(), Some("run.trace.json"));
        assert_eq!(a.trace_buffer, 1024);
    }

    #[test]
    fn serve_defaults_and_flags_parse() {
        let c = parse_command(&["serve".to_string()]).expect("bare serve is valid");
        let Command::Serve(a) = c else {
            panic!("serve must select service mode");
        };
        assert_eq!(a.preset, "uniform64");
        assert_eq!(a.groups, 0);
        assert_eq!(a.threads, 1);
        assert_eq!(a.hb_ms, 50);
        assert!(!a.faults);
        let argv: Vec<String> = [
            "serve",
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
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let Command::Serve(a) = parse_command(&argv).expect("valid") else {
            panic!("serve must select service mode");
        };
        assert_eq!(a.preset, "hetero64");
        assert_eq!(a.groups, 4);
        assert_eq!(a.pattern, ArrivalPattern::Bursty);
        assert_eq!(a.rps, 900.0);
        assert_eq!(a.total, 50_000);
        assert_eq!(a.seed, 9);
        assert_eq!(a.threads, 8);
        assert_eq!(a.hb_ms, 25);
        assert!(a.faults);
        assert_eq!(a.csv.as_deref(), Some("m.csv"));
    }

    #[test]
    fn serve_errors_are_reported() {
        let parse = |words: &[&str]| {
            let argv: Vec<String> = words.iter().map(|s| s.to_string()).collect();
            parse_command(&argv)
        };
        assert!(parse(&["serve", "--threads", "0"]).is_err(), "zero threads");
        assert!(parse(&["serve", "--hb-ms", "0"]).is_err(), "zero interval");
        assert!(parse(&["serve", "--bogus"]).is_err(), "unknown flag");
        assert!(
            parse(&["serve", "--pattern", "steady"]).is_err(),
            "unknown pattern"
        );
        assert!(parse(&["serve", "--rps"]).is_err(), "missing value");
        assert!(
            parse(&["serve", "extra.wf"]).is_err(),
            "serve takes no file"
        );
        let c = parse(&["plain.wf"]).expect("non-serve argv still parses");
        assert!(matches!(c, Command::Run(_)));
    }

    #[test]
    fn llm_defaults_and_flags_parse() {
        let c = parse_command(&["llm".to_string()]).expect("bare llm is valid");
        let Command::Llm(a) = c else {
            panic!("llm must select serving mode");
        };
        assert_eq!(a.plane, "both");
        assert_eq!(a.groups, 2);
        assert_eq!(a.requests, 10_000);
        assert_eq!(a.rps, 20.0);
        assert_eq!(a.pattern, ArrivalPattern::Sporadic);
        assert_eq!(a.seed, 7);
        assert_eq!(a.threads, 1);
        assert_eq!(a.decode_gpus, 4);
        assert!(a.csv.is_none());
        let argv: Vec<String> = [
            "llm",
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
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let Command::Llm(a) = parse_command(&argv).expect("valid") else {
            panic!("llm must select serving mode");
        };
        assert_eq!(a.plane, "mooncake");
        assert_eq!(a.groups, 4);
        assert_eq!(a.requests, 500);
        assert_eq!(a.rps, 32.5);
        assert_eq!(a.pattern, ArrivalPattern::Periodic);
        assert_eq!(a.seed, 11);
        assert_eq!(a.threads, 8);
        assert_eq!(a.decode_gpus, 6);
        assert_eq!(a.csv.as_deref(), Some("llm.csv"));
    }

    #[test]
    fn llm_errors_are_reported() {
        let parse = |words: &[&str]| {
            let argv: Vec<String> = words.iter().map(|s| s.to_string()).collect();
            parse_command(&argv)
        };
        assert!(parse(&["llm", "--threads", "0"]).is_err(), "zero threads");
        assert!(parse(&["llm", "--groups", "0"]).is_err(), "zero groups");
        assert!(
            parse(&["llm", "--decode-gpus", "0"]).is_err(),
            "no decode GPUs"
        );
        assert!(
            parse(&["llm", "--decode-gpus", "8"]).is_err(),
            "no prefill GPUs left"
        );
        assert!(
            parse(&["llm", "--plane", "bogus"]).is_err(),
            "unknown plane"
        );
        assert!(parse(&["llm", "--bogus"]).is_err(), "unknown flag");
        assert!(
            parse(&["llm", "--pattern", "steady"]).is_err(),
            "unknown pattern"
        );
        assert!(parse(&["llm", "--rps"]).is_err(), "missing value");
        assert!(parse(&["llm", "extra.wf"]).is_err(), "llm takes no file");
    }

    #[test]
    fn bad_rates_are_refused_by_every_subcommand() {
        for sub in [&["a.wf"][..], &["serve"], &["llm"]] {
            for rate in ["0", "-5", "nan", "inf", "-inf", "x"] {
                let argv: Vec<String> = sub
                    .iter()
                    .chain(&["--rps", rate])
                    .map(|s| s.to_string())
                    .collect();
                let e = parse_command(&argv).unwrap_err();
                assert!(e.contains("--rps"), "{sub:?} --rps {rate}: {e}");
            }
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&[]).is_err(), "missing file");
        assert!(parse(&["a.wf", "--nodes", "x"]).is_err(), "bad integer");
        let e = parse(&["a.wf", "--nodes", "0"]).unwrap_err();
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
    }
}
