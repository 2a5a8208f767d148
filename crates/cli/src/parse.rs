//! The `.wf` workflow definition format.
//!
//! Line-oriented; `#` starts a comment. Directives:
//!
//! * `workflow <name>` — required, first non-comment line;
//! * `input <size>` — request payload registered in host memory;
//! * `slo <duration>` — optional latency objective (enables `Rate_least`);
//! * `stage <name> <cpu|gpu> compute=<duration> out=<size>
//!   [mem=<size>] [deps=<a,b,…>] [cond=<group>:<weight>]` — one per stage,
//!   dependencies referenced by stage name and defined earlier.
//!
//! Sizes accept `B`, `KB`, `MB`, `GB` (decimal); durations accept `us`,
//! `ms`, `s`.

use std::collections::HashMap;

use grouter_runtime::spec::{StageSpec, WorkflowSpec};
use grouter_sim::time::SimDuration;

/// A parse failure with its 1-based line number.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parse a finite decimal number. `nan` and `inf` parse as `f64` but mean
/// nothing as a size, duration, weight or rate, so they are refused here.
pub(crate) fn parse_finite(s: &str) -> Option<f64> {
    s.trim().parse::<f64>().ok().filter(|v| v.is_finite())
}

/// Parse a size like `48MB`, `1.5GB`, `300KB`, `512B` into bytes.
pub fn parse_size(s: &str) -> Result<f64, String> {
    let lower = s.trim().to_ascii_uppercase();
    let (digits, factor) = if let Some(v) = lower.strip_suffix("GB") {
        (v, 1e9)
    } else if let Some(v) = lower.strip_suffix("MB") {
        (v, 1e6)
    } else if let Some(v) = lower.strip_suffix("KB") {
        (v, 1e3)
    } else if let Some(v) = lower.strip_suffix('B') {
        (v, 1.0)
    } else {
        return Err(format!("size '{s}' needs a B/KB/MB/GB suffix"));
    };
    let value = parse_finite(digits).ok_or_else(|| format!("bad number in size '{s}'"))?;
    if value < 0.0 {
        return Err(format!("size '{s}' is negative"));
    }
    Ok(value * factor)
}

/// Parse a duration like `22ms`, `150us`, `1.5s`.
pub fn parse_duration(s: &str) -> Result<SimDuration, String> {
    let lower = s.trim().to_ascii_lowercase();
    let (digits, nanos_per_unit) = if let Some(v) = lower.strip_suffix("us") {
        (v, 1e3)
    } else if let Some(v) = lower.strip_suffix("ms") {
        (v, 1e6)
    } else if let Some(v) = lower.strip_suffix('s') {
        (v, 1e9)
    } else {
        return Err(format!("duration '{s}' needs a us/ms/s suffix"));
    };
    let value = parse_finite(digits).ok_or_else(|| format!("bad number in duration '{s}'"))?;
    if value < 0.0 {
        return Err(format!("duration '{s}' is negative"));
    }
    Ok(SimDuration::from_secs_f64(value * nanos_per_unit / 1e9))
}

/// Parse a full `.wf` document into a validated [`WorkflowSpec`].
pub fn parse_workflow(text: &str) -> Result<WorkflowSpec, ParseError> {
    let mut name: Option<String> = None;
    let mut input_bytes = 1e6;
    let mut slo = SimDuration::ZERO;
    let mut stage_index: HashMap<String, usize> = HashMap::new();
    let mut stages: Vec<StageSpec> = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        let keyword = words.next().expect("non-empty line");
        match keyword {
            "workflow" => {
                let n = words
                    .next()
                    .ok_or_else(|| err(lineno, "workflow needs a name"))?;
                if name.is_some() {
                    return Err(err(lineno, "duplicate 'workflow' directive"));
                }
                name = Some(n.to_string());
            }
            "input" => {
                let v = words
                    .next()
                    .ok_or_else(|| err(lineno, "input needs a size"))?;
                input_bytes = parse_size(v).map_err(|m| err(lineno, m))?;
            }
            "slo" => {
                let v = words
                    .next()
                    .ok_or_else(|| err(lineno, "slo needs a duration"))?;
                slo = parse_duration(v).map_err(|m| err(lineno, m))?;
            }
            "stage" => {
                let stage_name = words
                    .next()
                    .ok_or_else(|| err(lineno, "stage needs a name"))?
                    .to_string();
                if stage_index.contains_key(&stage_name) {
                    return Err(err(lineno, format!("duplicate stage '{stage_name}'")));
                }
                let kind = words
                    .next()
                    .ok_or_else(|| err(lineno, "stage needs a kind (cpu|gpu)"))?;
                let is_gpu = match kind {
                    "gpu" => true,
                    "cpu" => false,
                    other => return Err(err(lineno, format!("unknown stage kind '{other}'"))),
                };
                let mut compute: Option<SimDuration> = None;
                let mut out_bytes: Option<f64> = None;
                let mut mem_bytes = 1e9;
                let mut deps: Vec<usize> = Vec::new();
                let mut cond: Option<(u32, f64)> = None;
                for kv in words {
                    let (key, value) = kv
                        .split_once('=')
                        .ok_or_else(|| err(lineno, format!("expected key=value, got '{kv}'")))?;
                    match key {
                        "compute" => {
                            compute = Some(parse_duration(value).map_err(|m| err(lineno, m))?)
                        }
                        "out" => out_bytes = Some(parse_size(value).map_err(|m| err(lineno, m))?),
                        "mem" => mem_bytes = parse_size(value).map_err(|m| err(lineno, m))?,
                        "deps" => {
                            for dep in value.split(',') {
                                let idx = stage_index.get(dep).ok_or_else(|| {
                                    err(lineno, format!("unknown dependency '{dep}'"))
                                })?;
                                deps.push(*idx);
                            }
                        }
                        "cond" => {
                            let (group, weight) = value
                                .split_once(':')
                                .ok_or_else(|| err(lineno, "cond expects <group>:<weight>"))?;
                            let g: u32 = group
                                .parse()
                                .map_err(|_| err(lineno, "cond group must be an integer"))?;
                            let w = parse_finite(weight).ok_or_else(|| {
                                err(lineno, "cond weight must be a finite number")
                            })?;
                            cond = Some((g, w));
                        }
                        other => {
                            return Err(err(lineno, format!("unknown stage attribute '{other}'")))
                        }
                    }
                }
                let compute =
                    compute.ok_or_else(|| err(lineno, "stage needs compute=<duration>"))?;
                let out_bytes = out_bytes.ok_or_else(|| err(lineno, "stage needs out=<size>"))?;
                let mut stage = if is_gpu {
                    StageSpec::gpu(stage_name.clone(), deps, compute, out_bytes, mem_bytes)
                } else {
                    StageSpec::cpu(stage_name.clone(), deps, compute, out_bytes)
                };
                if let Some((g, w)) = cond {
                    stage = stage.with_cond(g, w);
                }
                stage_index.insert(stage_name, stages.len());
                stages.push(stage);
            }
            other => return Err(err(lineno, format!("unknown directive '{other}'"))),
        }
    }

    let name = name.ok_or_else(|| err(1, "missing 'workflow <name>' directive"))?;
    let mut wf = WorkflowSpec::new(name, input_bytes);
    wf.slo = slo;
    for stage in stages {
        wf.push(stage);
    }
    wf.validate()
        .map_err(|m| err(0, format!("invalid workflow: {m}")))?;
    Ok(wf)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# a three-stage pipeline
workflow traffic-lite
input 4MB
slo 150ms
stage decode   cpu compute=5ms  out=48MB
stage detect   gpu compute=22ms out=24MB mem=1.9GB deps=decode
stage classify gpu compute=9ms  out=1MB  mem=0.8GB deps=detect
"#;

    #[test]
    fn parses_the_sample() {
        let wf = parse_workflow(SAMPLE).expect("valid");
        assert_eq!(wf.name, "traffic-lite");
        assert_eq!(wf.input_bytes, 4e6);
        assert_eq!(wf.slo, SimDuration::from_millis(150));
        assert_eq!(wf.stages.len(), 3);
        assert!(!wf.stages[0].is_gpu());
        assert!(wf.stages[1].is_gpu());
        assert_eq!(wf.stages[1].deps, vec![0]);
        assert_eq!(wf.stages[1].output_bytes, 24e6);
        assert_eq!(wf.stages[2].deps, vec![1]);
        assert_eq!(wf.critical_path_compute(), SimDuration::from_millis(36));
    }

    #[test]
    fn sizes_and_durations_parse() {
        assert_eq!(parse_size("512B").unwrap(), 512.0);
        assert_eq!(parse_size("300KB").unwrap(), 300e3);
        assert_eq!(parse_size("1.5GB").unwrap(), 1.5e9);
        assert_eq!(parse_size("  2mb ").unwrap(), 2e6);
        assert!(parse_size("12").is_err());
        assert!(parse_size("-1MB").is_err());
        assert_eq!(
            parse_duration("150us").unwrap(),
            SimDuration::from_micros(150)
        );
        assert_eq!(
            parse_duration("1.5s").unwrap(),
            SimDuration::from_millis(1500)
        );
        assert!(parse_duration("5").is_err());
        // Non-finite numbers parse as f64 but are refused.
        for bad in ["nanMB", "NaNB", "infGB", "infinityKB"] {
            assert!(parse_size(bad).is_err(), "{bad}");
        }
        for bad in ["infms", "nanus", "NaNs", "-infs"] {
            assert!(parse_duration(bad).is_err(), "{bad}");
        }
        for stage in ["compute=infms out=1MB", "compute=1ms out=nanMB"] {
            let text = format!("workflow x\nstage a gpu {stage}\n");
            assert_eq!(parse_workflow(&text).unwrap_err().line, 2, "{stage}");
        }
        for weight in ["nan", "inf"] {
            let text = format!("workflow x\nstage a gpu compute=1ms out=1MB cond=0:{weight}\n");
            let e = parse_workflow(&text).unwrap_err();
            assert!(e.message.contains("cond weight"), "{}", e.message);
        }
    }

    #[test]
    fn multi_deps_and_cond() {
        let text = r#"
workflow fan
input 1MB
stage a gpu compute=1ms out=1MB
stage b1 gpu compute=1ms out=1MB deps=a cond=0:0.7
stage b2 gpu compute=1ms out=1MB deps=a cond=0:0.3
stage join gpu compute=1ms out=1MB deps=b1,b2
"#;
        let wf = parse_workflow(text).expect("valid");
        assert_eq!(wf.stages[1].cond_group, Some((0, 0.7)));
        assert_eq!(wf.stages[3].deps, vec![1, 2]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "workflow x\nstage a gpu compute=1ms\n";
        let e = parse_workflow(bad).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("out="));

        let unknown_dep = "workflow x\nstage a gpu compute=1ms out=1MB deps=ghost\n";
        let e = parse_workflow(unknown_dep).unwrap_err();
        assert!(e.message.contains("ghost"));

        let dup = "workflow x\nstage a cpu compute=1ms out=1B\nstage a cpu compute=1ms out=1B\n";
        let e = parse_workflow(dup).unwrap_err();
        assert_eq!(e.line, 3);

        let no_name = "input 1MB\n";
        assert!(parse_workflow(no_name).is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# top comment\nworkflow c # trailing\ninput 1MB\nstage s cpu compute=1ms out=1B # tail\n";
        let wf = parse_workflow(text).expect("valid");
        assert_eq!(wf.name, "c");
        assert_eq!(wf.stages.len(), 1);
    }

    #[test]
    fn forward_deps_rejected_via_validation() {
        // deps must reference earlier stages by construction (unknown name),
        // so the only way to cycle is impossible; validate() still guards.
        let text = "workflow x\nstage a cpu compute=1ms out=1B deps=a\n";
        assert!(parse_workflow(text).is_err());
    }
}
