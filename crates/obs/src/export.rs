//! The exporter for a drained [`Trace`]: Chrome `trace_event` JSON (async
//! begin/end + instant events, loadable in `chrome://tracing` / Perfetto)
//! — plus a tiny recursive-descent JSON well-formedness validator used by
//! CI's trace-smoke step (the container has no guaranteed Python/jq).
//!
//! Everything here is byte-deterministic: events are written in `(t_ns,
//! seq)` ring order, floats use shortest round-trip formatting, and
//! virtual-time microsecond timestamps are fixed three-decimal renderings
//! of integer nanoseconds.

use crate::{format_f64, Phase, Trace, Val};

/// Escape a string for a JSON string literal (quotes not included).
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn push_val(v: &Val, out: &mut String) {
    match v {
        Val::U64(x) => out.push_str(&x.to_string()),
        Val::I64(x) => out.push_str(&x.to_string()),
        Val::F64(x) => out.push_str(&format_f64(*x)),
        Val::Bool(x) => out.push_str(if *x { "true" } else { "false" }),
        Val::Str(s) => {
            out.push('"');
            escape_json(s, out);
            out.push('"');
        }
    }
}

/// Virtual-time `ts` field: microseconds with exactly three decimals
/// (nanosecond precision), rendered from the integer clock so it is
/// byte-stable.
fn push_ts(t_ns: u64, out: &mut String) {
    out.push_str(&format!("{}.{:03}", t_ns / 1_000, t_ns % 1_000));
}

impl Trace {
    /// Render the trace as Chrome `trace_event` JSON. Spans become async
    /// `"b"`/`"e"` pairs keyed by span id (they overlap freely, unlike
    /// synchronous `B`/`E` which must nest per track); instants become
    /// `"i"` with thread scope. `tid` is the component track, `pid` is 0.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        for (k, e) in self.events.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str("\n{\"name\":\"");
            escape_json(e.name, &mut out);
            out.push_str("\",\"cat\":\"");
            out.push_str(e.comp.label());
            out.push_str("\",\"ph\":\"");
            out.push_str(match e.phase {
                Phase::Begin => "b",
                Phase::End => "e",
                Phase::Instant => "i",
            });
            out.push_str("\",\"ts\":");
            push_ts(e.t_ns, &mut out);
            out.push_str(",\"pid\":0,\"tid\":");
            out.push_str(&(e.comp as u8).to_string());
            if e.phase != Phase::Instant {
                out.push_str(",\"id\":\"0x");
                out.push_str(&format!("{:x}", e.span));
                out.push('"');
            } else {
                out.push_str(",\"s\":\"t\"");
            }
            out.push_str(",\"args\":{");
            let mut first = true;
            let mut arg = |key: &str, out: &mut String| {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push('"');
                escape_json(key, out);
                out.push_str("\":");
            };
            arg("seq", &mut out);
            out.push_str(&e.seq.to_string());
            if let Some(op) = e.ids.op {
                arg("op", &mut out);
                out.push_str(&op.to_string());
            }
            if let Some(flow) = e.ids.flow {
                arg("flow", &mut out);
                out.push_str(&flow.to_string());
            }
            if let Some(inst) = e.ids.inst {
                arg("inst", &mut out);
                out.push_str(&inst.to_string());
            }
            for (k, v) in &e.args {
                arg(k, &mut out);
                push_val(v, &mut out);
            }
            out.push_str("}}");
        }
        out.push_str(
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\"virtual\",\"dropped\":",
        );
        out.push_str(&self.dropped.to_string());
        out.push_str("}}\n");
        out
    }
}

/// Minimal JSON well-formedness validator (RFC 8259 grammar, no semantic
/// checks). Returns the byte offset and a message on the first error.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut p = Parser { b, at: 0 };
    p.ws();
    p.value()?;
    p.ws();
    if p.at != b.len() {
        return Err(format!("trailing bytes at offset {}", p.at));
    }
    Ok(())
}

struct Parser<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("offset {}: {msg}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.at).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected byte 0x{c:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(());
        }
        loop {
            self.ws();
            self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            self.value()?;
            self.ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(());
        }
        loop {
            self.ws();
            self.value()?;
            self.ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.at += 1;
                        }
                        Some(b'u') => {
                            self.at += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.at += 1,
                                    _ => return Err(self.err("bad \\u escape")),
                                }
                            }
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => self.at += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let mut digits = 0;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.at += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            let mut frac = 0;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.at += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            let mut exp = 0;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.at += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(self.err("expected exponent digits"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Comp, Ids, Recorder};

    fn sample_trace() -> Trace {
        let r = Recorder::enabled(64);
        r.set_now(1_234);
        let sp = r.begin(
            Comp::Transfer,
            "leg",
            Ids::flow(3).with_inst(1),
            vec![("bytes", 2_000_000u64.into()), ("route", "nvlink".into())],
        );
        r.set_now(5_234);
        r.instant(
            Comp::Net,
            "realloc_wave",
            Ids::NONE,
            vec![("flows", 4u64.into()), ("share", 0.25f64.into())],
        );
        r.set_now(9_999);
        r.end(sp, vec![("ok", true.into())]);
        r.drain()
    }

    #[test]
    fn chrome_json_is_well_formed_and_stable() {
        let a = sample_trace().chrome_json();
        let b = sample_trace().chrome_json();
        assert_eq!(a, b, "same emit sequence must render byte-identically");
        validate_json(&a).expect("exporter output must be valid JSON");
        assert!(a.contains("\"ph\":\"b\""));
        assert!(a.contains("\"ph\":\"e\""));
        assert!(a.contains("\"ph\":\"i\""));
        assert!(a.contains("\"ts\":1.234"));
        assert!(a.contains("\"cat\":\"transfer\""));
        assert!(a.contains("\"flow\":3"));
    }

    #[test]
    fn escaping_survives_validation() {
        let r = Recorder::enabled(8);
        r.instant(
            Comp::Store,
            "put",
            Ids::NONE,
            vec![("key", "we\"ird\\\n\tname\u{1}".into())],
        );
        let json = r.drain().chrome_json();
        validate_json(&json).unwrap();
    }

    #[test]
    fn validator_accepts_and_rejects() {
        validate_json("{}").unwrap();
        validate_json(" [1, 2.5, -3e+4, \"x\\u00e9\", true, null] ").unwrap();
        validate_json("{\"a\":{\"b\":[{}]}}").unwrap();
        assert!(validate_json("").is_err());
        assert!(validate_json("{").is_err());
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json("{\"a\":1,}").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("01").is_ok()); // lenient: leading zero accepted
        assert!(validate_json("{} garbage").is_err());
        assert!(validate_json("1.").is_err());
        assert!(validate_json("nul").is_err());
    }
}
