//! Metric names, units and the two JSON lines a run prints.
//!
//! The last stdout line is the result: `correct`, `attempted`, `failed`
//! and `metrics` (every end-to-end metric with `--trace 0`, every
//! per-layer metric with `--trace 1`). The line before it is a detail
//! object with digests, checks, virtual-time model outputs and the names
//! a workload cannot observe (`absent`).

use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("requests_per_sec", "1/s"),
    ("sim_sec_per_wall_sec", "s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("setup.world_s", "s"),
    ("setup.trace_gen_s", "s"),
    ("setup.submit_s", "s"),
    ("engine.events", "count"),
    ("engine.events_per_request", "count"),
    ("engine.step_ns_p50", "ns"),
    ("engine.step_ns_p99", "ns"),
    ("runtime.dispatch_self_share", "ratio"),
    ("runtime.data_ops_per_request", "count"),
    ("runtime.rebalances", "count"),
    ("plane.share", "ratio"),
    ("plane.put_calls", "count"),
    ("plane.get_calls", "count"),
    ("plane.put_ns_mean", "ns"),
    ("plane.get_ns_mean", "ns"),
    ("plane.get_ns_p99", "ns"),
    ("plane.bg_ns_total", "ns"),
    ("plane.bytes_per_op", "bytes"),
    ("plane.migrations", "count"),
    ("plane.restores", "count"),
    ("plane.degraded_legs", "count"),
    ("plane.rate_clamps", "count"),
    ("plane.route_gpu_selections", "count"),
    ("topology.path_cache_hit_ratio", "ratio"),
    ("topology.path_cache_misses", "count"),
    ("topology.invalidations", "count"),
    ("flownet.realloc_waves", "count"),
    ("flownet.realloc_waves_per_op", "count"),
    ("store.puts", "count"),
    ("store.gets", "count"),
    ("store.grows", "count"),
    ("store.migrations", "count"),
    ("store.local_lookup_ratio", "ratio"),
    ("mem.native_allocs", "count"),
    ("mem.native_allocs_per_put", "count"),
    ("shard.epochs", "count"),
    ("shard.messages", "count"),
    ("shard.requests_per_epoch", "count"),
    ("shard.wall_us_per_epoch", "us"),
    ("shard.w2_over_w1", "ratio"),
    ("cluster.remote_share", "ratio"),
    ("ctl.heartbeats_per_request", "count"),
    ("llm.tokens", "count"),
    ("llm.migrations", "count"),
    ("llm.restores", "count"),
    ("llm.restore_stalls", "count"),
    ("llm.rematerialized", "count"),
    ("host.allocs_per_request", "count"),
    ("host.alloc_bytes_per_request", "bytes"),
    ("trace.overhead_ratio", "ratio"),
    ("model.latency_p50_ms", "ms"),
    ("model.latency_p99_ms", "ms"),
    ("model.passing_ms_mean", "ms"),
    ("model.ttft_p50_ms", "ms"),
    ("model.ttft_p99_ms", "ms"),
    ("model.tbt_mean_ms", "ms"),
    ("model.sim_horizon_s", "s"),
    ("model.drain_lag_s", "s"),
    ("model.p99_first_half_ms", "ms"),
    ("model.p99_second_half_ms", "ms"),
];

/// Unit of a known metric name.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared in report.rs"))
}

/// Named values a run measured; `None` marks a metric the workload cannot
/// observe (its layer is bypassed or its counters are not recorded).
#[derive(Debug, Default)]
pub struct Values(pub Vec<(&'static str, Option<f64>)>);

impl Values {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.put(name, Some(v));
    }

    pub fn absent(&mut self, name: &'static str) {
        self.put(name, None);
    }

    pub fn put(&mut self, name: &'static str, v: Option<f64>) {
        unit_of(name);
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = v,
            None => self.0.push((name, v)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| *v)
    }

    pub fn extend(&mut self, other: Values) {
        for (n, v) in other.0 {
            self.put(n, v);
        }
    }
}

/// One named self-check and whether it held.
#[derive(Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
}

/// Everything one benchmark process reports.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    /// Simulated requests offered, summed over every simulation the run made.
    pub attempted: u64,
    /// Of those, requests that did not complete (a run whose checks fail
    /// counts all its requests as failed).
    pub failed: u64,
    /// Scored metrics: end-to-end with `--trace 0`, per-layer with
    /// `--trace 1`.
    pub scored: Values,
    /// Unscored detail: virtual-time model outputs and stationarity.
    pub model: Values,
    pub checks: Vec<Check>,
    /// `(label, digest)` of every simulation the run made.
    pub digests: Vec<(String, u64)>,
    /// Number of timed repetitions (timed mode).
    pub reps: usize,
    /// Raw (not speed-normalised) requests per host second of each timed
    /// repetition, in run order.
    pub rep_rates: Vec<f64>,
    /// Calibration-kernel times before the first repetition and after each
    /// one, ms (timed mode).
    pub calibration_ms: Vec<f64>,
}

impl Report {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push(Check {
            name: name.into(),
            ok,
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
            && self
                .scored
                .0
                .iter()
                .chain(&self.model.0)
                .all(|(_, v)| v.is_none_or(f64::is_finite))
    }

    /// Requests counted as failed: all of them when a check failed.
    pub fn failed_count(&self) -> u64 {
        if self.correct() {
            self.failed
        } else {
            self.attempted
        }
    }

    /// Names the result line must carry in this mode.
    fn scored_names(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The result line. Absent metrics are written as 0 (the line needs a
    /// number for every declared name); the detail line lists them.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed_count()
        )
        .expect("write to String");
        for (i, (name, unit)) in self.scored_names().iter().enumerate() {
            let v = self
                .scored
                .get(name)
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }

    /// The detail line printed just before the result line.
    pub fn detail_line(&self) -> String {
        let mut out = String::new();
        let attempted = self.attempted.max(1) as f64;
        write!(
            out,
            "{{\"detail\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"reps\": {}, \
             \"failed_frac\": {}, \"checks\": {{",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.reps,
            num(self.failed_count() as f64 / attempted)
        )
        .expect("write to String");
        for (i, c) in self.checks.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(out, "\"{}\": {}", c.name, c.ok).expect("write to String");
        }
        out.push_str("}, \"calibration_ms\": [");
        let cal: Vec<String> = self.calibration_ms.iter().map(|v| num(*v)).collect();
        out.push_str(&cal.join(", "));
        out.push_str("], \"raw_rep_requests_per_sec\": [");
        let rates: Vec<String> = self.rep_rates.iter().map(|v| num(*v)).collect();
        out.push_str(&rates.join(", "));
        out.push_str("], \"digests\": {");
        for (i, (label, d)) in self.digests.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(out, "\"{label}\": \"{d:016x}\"").expect("write to String");
        }
        out.push_str("}, \"model\": {");
        let present: Vec<_> = self
            .model
            .0
            .iter()
            .filter_map(|(n, v)| v.map(|v| (n, v)))
            .collect();
        for (i, (n, v)) in present.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(out, "\"{n}\": {}", num(*v)).expect("write to String");
        }
        out.push_str("}, \"absent\": [");
        let absent: Vec<&str> = self
            .scored_names()
            .iter()
            .map(|(n, _)| *n)
            .chain(self.model.0.iter().map(|(n, _)| *n))
            .filter(|n| self.scored.get(n).is_none() && self.model.get(n).is_none())
            .collect();
        for (i, n) in absent.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(out, "\"{n}\"").expect("write to String");
        }
        out.push_str("]}}");
        out
    }
}

/// A JSON number with every digit the measurement has (`{}` on `f64` is
/// the shortest string that parses back to the same value).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Mean of the middle half of a sample (a quarter dropped at each end,
/// rounded down): robust to a stray slow repetition like a median, but
/// steadier over the 10–20 repetitions of a long-running workload.
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Median of a sample (mean of the middle two for even counts); `NaN` for
/// an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; `NaN` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// p99 of the first and the second half of `(arrival, latency)` samples,
/// split in arrival order: a backlog that grows over the trace shows as a
/// second half far above the first.
pub fn half_p99s(mut samples: Vec<(f64, f64)>) -> (f64, f64) {
    samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mid = samples.len() / 2;
    let lat = |s: &[(f64, f64)]| quantile(&s.iter().map(|x| x.1).collect::<Vec<_>>(), 0.99);
    (lat(&samples[..mid]), lat(&samples[mid..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal JSON reader, enough to round-trip the lines this module
    /// writes.
    #[derive(Debug, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.s[self.i], c, "expected {} at {}", c as char, self.i);
            self.i += 1;
        }

        fn peek(&mut self) -> u8 {
            self.ws();
            self.s[self.i]
        }

        fn string(&mut self) -> String {
            self.eat(b'"');
            let start = self.i;
            while self.s[self.i] != b'"' {
                assert_ne!(self.s[self.i], b'\\', "writer never escapes");
                self.i += 1;
            }
            self.i += 1;
            String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8")
        }

        fn value(&mut self) -> Json {
            match self.peek() {
                b'{' => {
                    self.eat(b'{');
                    let mut kv = Vec::new();
                    if self.peek() == b'}' {
                        self.eat(b'}');
                        return Json::Obj(kv);
                    }
                    loop {
                        let k = self.string();
                        self.eat(b':');
                        kv.push((k, self.value()));
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            self.eat(b'}');
                            return Json::Obj(kv);
                        }
                    }
                }
                b'[' => {
                    self.eat(b'[');
                    let mut xs = Vec::new();
                    if self.peek() == b']' {
                        self.eat(b']');
                        return Json::Arr(xs);
                    }
                    loop {
                        xs.push(self.value());
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            self.eat(b']');
                            return Json::Arr(xs);
                        }
                    }
                }
                b'"' => Json::Str(self.string()),
                _ => {
                    let start = self.i;
                    while self.i < self.s.len() && !b",}] ".contains(&self.s[self.i]) {
                        self.i += 1;
                    }
                    let tok = std::str::from_utf8(&self.s[start..self.i]).expect("utf-8");
                    match tok {
                        "true" => Json::Bool(true),
                        "false" => Json::Bool(false),
                        "null" => Json::Null,
                        t => Json::Num(t.parse().unwrap_or_else(|_| panic!("bad number {t}"))),
                    }
                }
            }
        }
    }

    fn parse(s: &str) -> Json {
        let mut p = Parser {
            s: s.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, s.len(), "trailing bytes in {s}");
        v
    }

    fn write(j: &Json) -> String {
        match j {
            Json::Null => "null".into(),
            Json::Bool(b) => b.to_string(),
            Json::Num(n) => num(*n),
            Json::Str(s) => format!("\"{s}\""),
            Json::Arr(xs) => format!("[{}]", xs.iter().map(write).collect::<Vec<_>>().join(", ")),
            Json::Obj(kv) => format!(
                "{{{}}}",
                kv.iter()
                    .map(|(k, v)| format!("\"{k}\": {}", write(v)))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        }
    }

    fn sample(trace: bool) -> Report {
        let mut r = Report {
            workload: "wf_v100_contended",
            seed: 3,
            trace,
            attempted: 1234,
            failed: 0,
            reps: 7,
            ..Report::default()
        };
        r.scored.set("requests_per_sec", 12345.678901234);
        r.scored.set("setup_s", 0.000123456789);
        r.scored.set("peak_rss_mb", 45.5);
        r.scored.set("plane.share", 0.25);
        r.scored.absent("store.grows");
        r.model.set("model.drain_lag_s", 1.5e-7);
        r.model.absent("model.ttft_p50_ms");
        r.check("drained", true);
        r.digests.push(("timed".into(), 0xdead_beef));
        r
    }

    #[test]
    fn output_lines_round_trip() {
        for trace in [false, true] {
            let r = sample(trace);
            for line in [r.result_line(), r.detail_line()] {
                let parsed = parse(&line);
                assert_eq!(write(&parsed), line, "round trip changed the line");
                assert_eq!(parse(&write(&parsed)), parsed);
            }
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_all_digits() {
        let r = sample(false);
        let Json::Obj(top) = parse(&r.result_line()) else {
            panic!("result is not an object");
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Json::Obj(metrics) = &top[3].1 else {
            panic!("metrics is not an object");
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
        assert!(r.result_line().contains("12345.678901234"));
        assert!(r.result_line().contains("0.000123456789"));
    }

    #[test]
    fn failed_check_fails_every_request() {
        let mut r = sample(false);
        r.check("digest_repeats", false);
        assert!(!r.correct());
        assert_eq!(r.failed_count(), 1234);
        assert!(r.result_line().starts_with("{\"correct\": false"));
    }

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.as_bytes()[0].is_ascii_alphanumeric()
            && n.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    /// `BENCHMARK.json` at the repository root, parsed.
    fn benchmark_json() -> Vec<(String, Json)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        match parse(text.trim()) {
            Json::Obj(kv) => kv,
            other => panic!("BENCHMARK.json is not an object: {other:?}"),
        }
    }

    fn declared(top: &[(String, Json)], key: &str, field: &str) -> Vec<String> {
        let Some((_, Json::Arr(items))) = top.iter().find(|(k, _)| k == key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|it| match it {
                Json::Obj(kv) => match kv.iter().find(|(k, _)| k == field) {
                    Some((_, Json::Str(s))) => s.clone(),
                    _ => panic!("{key} entry without {field}"),
                },
                _ => panic!("{key} entry is not an object"),
            })
            .collect()
    }

    #[test]
    fn every_emitted_name_is_valid_and_declared_in_benchmark_json() {
        let top = benchmark_json();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let names = declared(&top, key, "name");
            let units = declared(&top, key, "unit");
            let ours: Vec<String> = table.iter().map(|(n, _)| n.to_string()).collect();
            assert_eq!(names, ours, "{key} names differ from BENCHMARK.json");
            let our_units: Vec<String> = table.iter().map(|(_, u)| u.to_string()).collect();
            assert_eq!(units, our_units, "{key} units differ from BENCHMARK.json");
            for n in &ours {
                assert!(valid_name(n), "bad metric name {n}");
            }
        }
        let workloads = declared(&top, "workloads", "name");
        let ours: Vec<String> = crate::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
        // Names in the detail line are per-layer names too.
        let r = sample(true);
        for (n, _) in r.model.0.iter().chain(&r.scored.0) {
            assert!(valid_name(n) && PER_LAYER.iter().chain(END_TO_END).any(|(p, _)| p == n));
        }
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, 1.0, 4.0]), 3.0);
        assert_eq!(interquartile_mean(&[5.0, 7.0]), 6.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let (a, b) = half_p99s(vec![(2.0, 10.0), (1.0, 1.0), (3.0, 20.0), (0.0, 2.0)]);
        assert!(a < 2.0 && b > 10.0, "{a} {b}");
    }
}
