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
//! `ms`, `s`. The stages' computes must also sum to less than
//! [`SimDuration::MAX`], so no sum along any path of stages can pass the
//! clock.

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

/// A size or duration the format refuses, with the text as written.
#[derive(Clone, Debug, PartialEq)]
pub struct ValueError {
    /// `"size"` or `"duration"`.
    pub what: &'static str,
    pub text: String,
    pub fault: ValueFault,
}

/// Why a size or duration was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueFault {
    /// No unit suffix; the payload lists the accepted ones.
    NoUnit(&'static str),
    /// Not a finite decimal number.
    BadNumber,
    Negative,
    /// Scales past what the simulator holds: an infinite byte count, or a
    /// duration of 2^64 nanoseconds or more.
    Overflow,
}

impl ValueError {
    fn new(what: &'static str, text: &str, fault: ValueFault) -> ValueError {
        ValueError {
            what,
            text: text.to_string(),
            fault,
        }
    }
}

impl std::fmt::Display for ValueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (what, text) = (self.what, &self.text);
        match self.fault {
            ValueFault::NoUnit(units) => write!(f, "{what} '{text}' needs a {units} suffix"),
            ValueFault::BadNumber => write!(f, "bad number in {what} '{text}'"),
            ValueFault::Negative => write!(f, "{what} '{text}' is negative"),
            ValueFault::Overflow => write!(f, "{what} '{text}' overflows the simulator"),
        }
    }
}

impl std::error::Error for ValueError {}

/// Parse a size like `48MB`, `1.5GB`, `300KB`, `512B` into bytes.
pub fn parse_size(s: &str) -> Result<f64, ValueError> {
    let fail = |fault| ValueError::new("size", s, fault);
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
        return Err(fail(ValueFault::NoUnit("B/KB/MB/GB")));
    };
    let value = parse_finite(digits).ok_or_else(|| fail(ValueFault::BadNumber))?;
    if value < 0.0 {
        return Err(fail(ValueFault::Negative));
    }
    let bytes = value * factor;
    if !bytes.is_finite() {
        return Err(fail(ValueFault::Overflow));
    }
    Ok(bytes)
}

/// Parse a duration like `22ms`, `150us`, `1.5s`.
pub fn parse_duration(s: &str) -> Result<SimDuration, ValueError> {
    let fail = |fault| ValueError::new("duration", s, fault);
    let lower = s.trim().to_ascii_lowercase();
    let (digits, nanos_per_unit) = if let Some(v) = lower.strip_suffix("us") {
        (v, 1e3)
    } else if let Some(v) = lower.strip_suffix("ms") {
        (v, 1e6)
    } else if let Some(v) = lower.strip_suffix('s') {
        (v, 1e9)
    } else {
        return Err(fail(ValueFault::NoUnit("us/ms/s")));
    };
    let value = parse_finite(digits).ok_or_else(|| fail(ValueFault::BadNumber))?;
    if value < 0.0 {
        return Err(fail(ValueFault::Negative));
    }
    // `from_secs_f64` saturates at `SimDuration::MAX` exactly when the
    // count does not fit in u64 nanoseconds.
    let d = SimDuration::from_secs_f64(value * nanos_per_unit / 1e9);
    if d == SimDuration::MAX {
        return Err(fail(ValueFault::Overflow));
    }
    Ok(d)
}

/// Parse a full `.wf` document into a validated [`WorkflowSpec`].
pub fn parse_workflow(text: &str) -> Result<WorkflowSpec, ParseError> {
    let mut name: Option<String> = None;
    let mut input_bytes = 1e6;
    let mut slo = SimDuration::ZERO;
    let mut stage_index: HashMap<String, usize> = HashMap::new();
    let mut stages: Vec<StageSpec> = Vec::new();
    // Nanoseconds of compute over the stages so far.
    let mut compute_sum: u64 = 0;

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
                input_bytes = parse_size(v).map_err(|e| err(lineno, e.to_string()))?;
            }
            "slo" => {
                let v = words
                    .next()
                    .ok_or_else(|| err(lineno, "slo needs a duration"))?;
                slo = parse_duration(v).map_err(|e| err(lineno, e.to_string()))?;
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
                            compute = Some(
                                parse_duration(value).map_err(|e| err(lineno, e.to_string()))?,
                            )
                        }
                        "out" => {
                            out_bytes =
                                Some(parse_size(value).map_err(|e| err(lineno, e.to_string()))?)
                        }
                        "mem" => {
                            mem_bytes = parse_size(value).map_err(|e| err(lineno, e.to_string()))?
                        }
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
                compute_sum = compute_sum
                    .checked_add(compute.as_nanos())
                    .filter(|&ns| ns < SimDuration::MAX.as_nanos())
                    .ok_or_else(|| {
                        err(
                            lineno,
                            "summed stage compute overflows the simulator's clock",
                        )
                    })?;
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
    fn overflowing_sizes_and_durations_are_refused_with_their_line() {
        assert_eq!(
            parse_size("1e300GB").unwrap_err().fault,
            ValueFault::Overflow
        );
        assert_eq!(
            parse_duration("1e300s").unwrap_err().fault,
            ValueFault::Overflow
        );
        // 2^64 ns is about 18,446,744,073.7 s: the last whole second below
        // it fits, the next one does not.
        assert!(parse_duration("18446744073s").unwrap() < SimDuration::MAX);
        assert_eq!(
            parse_duration("18446744074s").unwrap_err().fault,
            ValueFault::Overflow
        );
        assert_eq!(parse_size("1e300B").unwrap(), 1e300);
        let stage = "stage a gpu compute=1ms out=1MB";
        for (text, line) in [
            (format!("workflow x\ninput 1e300GB\n{stage}\n"), 2),
            (format!("workflow x\nslo 1e300s\n{stage}\n"), 2),
            (
                format!("workflow x\n{stage}\nstage b gpu compute=1e300s out=1MB\n"),
                3,
            ),
            (
                format!("workflow x\n{stage}\nstage b gpu compute=1ms out=1e300GB\n"),
                3,
            ),
            (
                format!("workflow x\n{stage}\nstage b gpu compute=1ms out=1MB mem=1e300GB\n"),
                3,
            ),
        ] {
            let e = parse_workflow(&text).unwrap_err();
            assert_eq!(e.line, line, "{text}");
            assert!(e.message.contains("overflows"), "{}", e.message);
        }
    }

    #[test]
    fn summed_stage_computes_past_the_clock_are_refused_with_their_line() {
        // Each 1e19 ns compute fits the clock; two of them do not, chained
        // or side by side, and the stage that overflows the sum is named.
        let stage = "gpu compute=10000000000s out=1MB";
        assert!(parse_workflow(&format!("workflow w\nstage a {stage}\n")).is_ok());
        for deps in [" deps=a", ""] {
            let text = format!("workflow w\nstage a {stage}\n\nstage b {stage}{deps}\n");
            let e = parse_workflow(&text).unwrap_err();
            assert_eq!(e.line, 4, "{text}");
            assert!(e.message.contains("overflows"), "{}", e.message);
        }
    }

    /// Pieces of `.wf` text: directives and stage attributes, names,
    /// numbers (mostly sane, some overflowing or non-finite), units and
    /// separators.
    const WORDS: &[&str] = &[
        "workflow", "input", "slo", "stage", "cpu", "gpu", "compute=", "out=", "mem=", "deps=",
        "cond=", "a", "b", "c", " ", "  ", "=", ",", ":", "#", "\t", "\n",
    ];
    const NUMBERS: &[&str] = &[
        "1",
        "1.5",
        "0",
        "2",
        "0.25",
        "1e-300",
        "18446744073",
        "99999999999999999999",
        "1e300",
        "1e19",
        "-1",
        "nan",
        "inf",
    ];
    const UNITS: &[&str] = &["B", "KB", "MB", "GB", "us", "ms", "s"];

    /// A `.wf` text from `lines` of (kind, draws): directives filled from
    /// the pools, or token soup. A clean text (`dirty` false) has no soup,
    /// no second `workflow`, unique stage names, deps on earlier stages
    /// and well-formed numbers (huge ones among them), so it parses about
    /// one time in five; a dirty one draws from everything.
    fn render(dirty: bool, lines: &[(u8, Vec<usize>)]) -> String {
        let mut out = String::new();
        let mut stages = 0;
        for (kind, t) in lines {
            let at = |k: usize| t.get(k).copied().unwrap_or(k);
            let pick = |k: usize, pool: &[&'static str]| pool[at(k) % pool.len()];
            let num = |k: usize| pick(k, if dirty { NUMBERS } else { &NUMBERS[..9] });
            let size = |k: usize| format!("{}{}", num(k), pick(k + 1, &UNITS[..4]));
            let dur = |k: usize| {
                let units = if dirty { UNITS } else { &UNITS[4..] };
                format!("{}{}", num(k), pick(k + 1, units))
            };
            let name = |k: usize| match (dirty, stages) {
                (true, _) => pick(k, &WORDS[11..14]).to_string(),
                (false, 0) => String::new(),
                (false, n) => format!("s{}", at(k) % n),
            };
            let kind = match (dirty, kind % 8) {
                (true, _) => kind % 20,
                (false, 0) => 1,
                (false, 1) => 2,
                (false, _) => 4,
            };
            let line = match kind {
                0 => format!("workflow {}", name(0)),
                1 => format!("input {}", size(0)),
                2 => format!("slo {}", dur(0)),
                3 => t
                    .iter()
                    .map(|&i| match i % 3 {
                        0 => WORDS[i % WORDS.len()],
                        1 => NUMBERS[i % NUMBERS.len()],
                        _ => UNITS[i % UNITS.len()],
                    })
                    .collect(),
                _ => {
                    let own = if dirty { name(0) } else { format!("s{stages}") };
                    let deps = name(8);
                    let mut words = vec![
                        format!("stage {own}"),
                        pick(1, &WORDS[4..6]).to_string(),
                        format!("compute={}", dur(2)),
                        format!("out={}", size(4)),
                        format!("mem={}", size(6)),
                        format!("deps={deps}"),
                        format!("cond={}:{}", at(9) % 3, num(10)),
                    ];
                    // Optional attributes come and go; in a dirty text a
                    // required one goes missing now and then.
                    let mut k = 0;
                    words.retain(|_| {
                        k += 1;
                        k <= 2
                            || (k <= 4 && (!dirty || at(k) % 16 != 0))
                            || (k > 4 && at(k) % 2 == 0 && (dirty || k != 6 || !deps.is_empty()))
                    });
                    stages += 1;
                    words.join(" ")
                }
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]
        /// `parse_workflow` never panics on token soup, and whatever it
        /// accepts has finite sizes and stage computes whose sum the clock
        /// can hold.
        #[test]
        fn token_soup_parses_to_a_typed_error_or_a_sane_spec(
            header in 0u8..8,
            dirty in 0u8..2,
            lines in proptest::collection::vec(
                (0u8..20, proptest::collection::vec(0usize..1000, 12)),
                0..8,
            ),
        ) {
            let head = if header == 0 { "" } else { "workflow w\n" };
            let text = format!("{head}{}", render(dirty == 1, &lines));
            if let Ok(wf) = parse_workflow(&text) {
                proptest::prop_assert!(wf.input_bytes.is_finite(), "{}", text);
                let summed: u128 = wf.stages.iter().map(|st| u128::from(st.compute.as_nanos())).sum();
                proptest::prop_assert!(summed < u128::from(SimDuration::MAX.as_nanos()), "{}", text);
                for st in &wf.stages {
                    proptest::prop_assert!(st.output_bytes.is_finite(), "{}", text);
                    if let grouter_runtime::spec::StageKind::Gpu { mem_bytes } = st.kind {
                        proptest::prop_assert!(mem_bytes.is_finite(), "{}", text);
                    }
                }
            }
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
