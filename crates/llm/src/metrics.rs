//! TTFT/TBT accounting and the deterministic run report.

use grouter_sim::stats::Summary;

/// Per-group serving metrics, merged across groups at the end of a run.
#[derive(Debug, Default)]
pub struct LlmMetrics {
    /// Time-to-first-token per completed request, seconds.
    pub ttft: Summary,
    /// Mean time-between-tokens per completed request, seconds (requests
    /// emitting at least two tokens).
    pub tbt: Summary,
    pub admitted: u64,
    pub completed: u64,
    pub failed: u64,
    /// Tokens emitted across all streams.
    pub tokens: u64,
    /// KV touches that had to fetch a non-resident block (remote relay or
    /// host restore) and stalled the stream.
    pub restore_stalls: u64,
    /// Lineage re-materializations after a decode-GPU failure.
    pub rematerialized: u64,
}

impl LlmMetrics {
    /// Fold `other` into `self` (groups merged in fixed group order, so the
    /// merged sample sequence is deterministic).
    pub fn merge(&mut self, other: &LlmMetrics) {
        for &s in other.ttft.samples() {
            self.ttft.record(s);
        }
        for &s in other.tbt.samples() {
            self.tbt.record(s);
        }
        self.admitted += other.admitted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.tokens += other.tokens;
        self.restore_stalls += other.restore_stalls;
        self.rematerialized += other.rematerialized;
    }
}

/// FNV-1a over a byte string — the digest the CLI prints and CI compares
/// across worker-thread counts.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

/// [`fnv64`] as a `fmt::Write` sink: text hashed as it is formatted
/// digests to the same value as the whole text would, without being
/// built.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

impl std::fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_samples_and_counters() {
        let mut a = LlmMetrics::default();
        a.ttft.record(0.1);
        a.completed = 1;
        let mut b = LlmMetrics::default();
        b.ttft.record(0.2);
        b.tbt.record(0.01);
        b.completed = 2;
        b.tokens = 64;
        a.merge(&b);
        assert_eq!(a.ttft.len(), 2);
        assert_eq!(a.tbt.len(), 1);
        assert_eq!(a.completed, 3);
        assert_eq!(a.tokens, 64);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
        // Hashing text piecewise as it is formatted equals hashing it whole.
        let mut sink = Fnv64::new();
        std::fmt::Write::write_fmt(&mut sink, format_args!("{}-{:.2}\n", "x", 1.5)).unwrap();
        sink.write_bytes(b"tail");
        assert_eq!(sink.finish(), fnv64(b"x-1.50\ntail"));
    }
}
