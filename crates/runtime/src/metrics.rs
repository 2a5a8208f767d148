//! Latency accounting.
//!
//! The paper's headline analysis (Fig. 3) splits end-to-end latency into
//! computation, gFn–gFn data passing, and gFn–host data passing; the
//! elastic-storage experiments (Fig. 18) additionally need the mean latency
//! of one data-passing operation. [`Metrics`] keeps a fixed-size record per
//! finished workflow instance and folds its operations into per-category
//! counts and sums.

use grouter_sim::stats::Summary;
use grouter_sim::time::{SimDuration, SimTime};

/// Which kind of data passing an operation was (paper Fig. 3's breakdown).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PassCategory {
    /// gFn–gFn (intra- or cross-node GPU to GPU).
    GpuGpu,
    /// gFn–host in either direction (PCIe staging, response egress, input
    /// ingest into a GPU).
    GpuHost,
    /// cFn–cFn via host shared memory (negligible in the paper).
    HostHost,
    /// Data passing re-issued by failure recovery (retried/replanned
    /// operations); kept out of the paper-figure categories so the
    /// failure-free breakdowns are unchanged.
    Recovery,
}

impl PassCategory {
    /// Number of categories: the length of [`InstanceRecord::passing`].
    pub const COUNT: usize = 4;

    /// Index into [`InstanceRecord::passing`] (declaration order).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Finished-instance record. The workflow name is an interned id into the
/// owning [`Metrics`]' name table ([`Metrics::intern`] /
/// [`Metrics::workflow_name`]) so recording an instance never clones a
/// `String` on the hot path, and the record owns no heap memory.
#[derive(Clone, Debug)]
pub struct InstanceRecord {
    pub workflow: u32,
    pub arrived: SimTime,
    pub completed: SimTime,
    /// Total busy compute time across stages (not the critical path).
    pub compute: SimDuration,
    /// Data-passing wall time by category, summed over operations and
    /// indexed by [`PassCategory::index`].
    pub passing: [SimDuration; PassCategory::COUNT],
}

// A serve run keeps one record per finished request: keep it small.
const _: () = assert!(std::mem::size_of::<InstanceRecord>() <= 64);

impl InstanceRecord {
    pub fn latency(&self) -> SimDuration {
        self.completed - self.arrived
    }

    pub fn passing_total(&self) -> SimDuration {
        self.passing.iter().fold(SimDuration::ZERO, |a, &b| a + b)
    }

    pub fn passing_of(&self, cat: PassCategory) -> SimDuration {
        self.passing[cat.index()]
    }
}

/// Aggregate metrics over a run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    records: Vec<InstanceRecord>,
    /// Requests that arrived (some may still be in flight at harvest time).
    pub arrivals: u64,
    /// Requests terminated with a typed failure by the recovery engine
    /// (unplaceable after GPU loss, or retry budget exhausted). Every
    /// arrival ends as exactly one completion or one failure.
    pub failed: u64,
    /// Interned workflow names, indexed by the ids in
    /// [`InstanceRecord::workflow`].
    names: Vec<String>,
    name_ids: grouter_sim::FxHashMap<String, u32>,
    /// Data-passing operations of the recorded instances by category
    /// ([`PassCategory::index`]): how many, and their durations in ms
    /// summed in record order.
    op_stats: [(u64, f64); PassCategory::COUNT],
}

impl Metrics {
    pub fn new() -> Metrics {
        Self::default()
    }

    /// Intern a workflow name, returning its dense id. Idempotent: the same
    /// name always maps to the same id within one `Metrics`.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.name_ids.insert(name.to_string(), id);
        id
    }

    /// The name behind an interned workflow id.
    pub fn workflow_name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// The interned id of a workflow name, if any instance of it was
    /// submitted.
    pub fn name_id(&self, name: &str) -> Option<u32> {
        self.name_ids.get(name).copied()
    }

    /// Record a finished instance and fold its data-passing operations
    /// (`ops`, in completion order) into the per-category statistics.
    pub fn record(&mut self, rec: InstanceRecord, ops: &[(PassCategory, SimDuration)]) {
        for &(cat, d) in ops {
            if let Some((n, ms)) = self.op_stats.get_mut(cat.index()) {
                *n += 1;
                *ms += d.as_millis_f64();
            }
        }
        self.records.push(rec);
    }

    pub fn completed(&self) -> usize {
        self.records.len()
    }

    pub fn records(&self) -> &[InstanceRecord] {
        &self.records
    }

    /// End-to-end latency distribution in milliseconds (optionally filtered
    /// by workflow name).
    pub fn latency_ms(&self, workflow: Option<&str>) -> Summary {
        let mut s = Summary::new();
        for r in self.filtered(workflow) {
            s.record(r.latency().as_millis_f64());
        }
        s
    }

    /// Data-passing operations of the finished instances in `cat`.
    pub fn op_count(&self, cat: PassCategory) -> u64 {
        self.op_stats[cat.index()].0
    }

    /// Data-passing operations of the finished instances, every category.
    pub fn op_count_total(&self) -> u64 {
        self.op_stats.iter().map(|&(n, _)| n).sum()
    }

    /// Mean latency (ms) of one data-passing operation in `cat`, 0 when
    /// there is none. The sum runs in record order, so this equals the
    /// [`Summary::mean`] of the per-operation latencies bit for bit.
    pub fn op_mean_ms(&self, cat: PassCategory) -> f64 {
        match self.op_stats[cat.index()] {
            (0, _) => 0.0,
            (n, ms) => ms / n as f64,
        }
    }

    /// Distribution of per-instance total data-passing latencies (ms).
    pub fn passing_ms(&self, workflow: Option<&str>) -> Summary {
        let mut s = Summary::new();
        for r in self.filtered(workflow) {
            s.record(r.passing_total().as_millis_f64());
        }
        s
    }

    /// Mean latency breakdown `(compute, gfn_gfn, gfn_host, cfn_cfn)` in ms
    /// — the stacked bars of Fig. 3.
    pub fn breakdown_ms(&self, workflow: Option<&str>) -> (f64, f64, f64, f64) {
        let mut n = 0u64;
        let (mut comp, mut gg, mut gh, mut hh) = (0.0, 0.0, 0.0, 0.0);
        for r in self.filtered(workflow) {
            n += 1;
            comp += r.compute.as_millis_f64();
            gg += r.passing_of(PassCategory::GpuGpu).as_millis_f64();
            gh += r.passing_of(PassCategory::GpuHost).as_millis_f64();
            hh += r.passing_of(PassCategory::HostHost).as_millis_f64();
        }
        if n == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let n = n as f64;
        (comp / n, gg / n, gh / n, hh / n)
    }

    /// Completed requests per second over the span of the run.
    pub fn throughput(&self, until: SimTime) -> f64 {
        if until == SimTime::ZERO {
            return 0.0;
        }
        self.records.len() as f64 / until.as_secs_f64()
    }

    /// Fraction of completed instances whose latency met `slo`.
    pub fn slo_compliance(&self, workflow: Option<&str>, slo: SimDuration) -> f64 {
        let mut total = 0u64;
        let mut ok = 0u64;
        for r in self.filtered(workflow) {
            total += 1;
            if r.latency() <= slo {
                ok += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            ok as f64 / total as f64
        }
    }

    /// Per-request records as CSV (for external plotting):
    /// `workflow,arrived_s,latency_ms,compute_ms,gfn_gfn_ms,gfn_host_ms,cfn_cfn_ms`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(Self::CSV_HEADER);
        // Writing into a `String` cannot fail.
        let _ = self.write_csv_rows(&mut out, None);
        out
    }

    /// The header line of [`Metrics::to_csv`], newline included.
    pub(crate) const CSV_HEADER: &'static str =
        "workflow,arrived_s,latency_ms,compute_ms,gfn_gfn_ms,gfn_host_ms,cfn_cfn_ms\n";

    /// Write one [`Metrics::to_csv`] row per record to `out`, each line
    /// led by a `group` column when `group` is given.
    pub(crate) fn write_csv_rows(
        &self,
        out: &mut impl std::fmt::Write,
        group: Option<usize>,
    ) -> std::fmt::Result {
        for r in &self.records {
            if let Some(g) = group {
                write!(out, "{g},")?;
            }
            writeln!(
                out,
                "{},{},{},{},{},{},{}",
                self.workflow_name(r.workflow),
                r.arrived.as_secs_f64(),
                r.latency().as_millis_f64(),
                r.compute.as_millis_f64(),
                r.passing_of(PassCategory::GpuGpu).as_millis_f64(),
                r.passing_of(PassCategory::GpuHost).as_millis_f64(),
                r.passing_of(PassCategory::HostHost).as_millis_f64(),
            )?;
        }
        Ok(())
    }

    fn filtered<'a>(
        &'a self,
        workflow: Option<&'a str>,
    ) -> impl Iterator<Item = &'a InstanceRecord> {
        // A name no instance was ever submitted under matches nothing.
        let want = workflow.map(|w| self.name_id(w));
        self.records.iter().filter(move |r| match want {
            None => true,
            Some(Some(id)) => r.workflow == id,
            Some(None) => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(m: &mut Metrics, name: &str, arrive_ms: u64, done_ms: u64, gg_ms: u64, gh_ms: u64) {
        let workflow = m.intern(name);
        let mut passing = [SimDuration::ZERO; PassCategory::COUNT];
        passing[PassCategory::GpuGpu.index()] = SimDuration::from_millis(gg_ms);
        passing[PassCategory::GpuHost.index()] = SimDuration::from_millis(gh_ms);
        let record = InstanceRecord {
            workflow,
            arrived: SimTime(arrive_ms * 1_000_000),
            completed: SimTime(done_ms * 1_000_000),
            compute: SimDuration::from_millis(done_ms - arrive_ms - gg_ms - gh_ms),
            passing,
        };
        let ops = [
            (PassCategory::GpuGpu, SimDuration::from_millis(gg_ms)),
            (PassCategory::GpuHost, SimDuration::from_millis(gh_ms)),
        ];
        m.record(record, &ops);
    }

    #[test]
    fn latency_and_breakdown() {
        let mut m = Metrics::new();
        rec(&mut m, "t", 0, 100, 60, 30);
        rec(&mut m, "t", 0, 200, 120, 60);
        let lat = m.latency_ms(Some("t"));
        assert_eq!(lat.len(), 2);
        assert_eq!(lat.max(), 200.0);
        let (comp, gg, gh, hh) = m.breakdown_ms(Some("t"));
        assert_eq!(comp, 15.0);
        assert_eq!(gg, 90.0);
        assert_eq!(gh, 45.0);
        assert_eq!(hh, 0.0);
        // Data passing dominates, as in Fig. 3.
        assert!((gg + gh) / (comp + gg + gh) >= 0.9);
    }

    #[test]
    fn filters_by_workflow() {
        let mut m = Metrics::new();
        rec(&mut m, "a", 0, 100, 10, 10);
        rec(&mut m, "b", 0, 300, 10, 10);
        assert_eq!(m.latency_ms(Some("a")).len(), 1);
        assert_eq!(m.latency_ms(None).len(), 2);
        assert_eq!(m.breakdown_ms(Some("zzz")), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn slo_compliance_counts_fractions() {
        let mut m = Metrics::new();
        rec(&mut m, "a", 0, 100, 10, 10);
        rec(&mut m, "a", 0, 300, 10, 10);
        assert_eq!(
            m.slo_compliance(Some("a"), SimDuration::from_millis(150)),
            0.5
        );
        assert_eq!(
            m.slo_compliance(Some("none"), SimDuration::from_millis(1)),
            0.0
        );
    }

    #[test]
    fn throughput_is_completions_over_time() {
        let mut m = Metrics::new();
        rec(&mut m, "a", 0, 100, 10, 10);
        rec(&mut m, "a", 0, 100, 10, 10);
        assert_eq!(m.throughput(SimTime(2_000_000_000)), 1.0);
        assert_eq!(m.throughput(SimTime::ZERO), 0.0);
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let mut m = Metrics::new();
        rec(&mut m, "a", 0, 100, 40, 20);
        let csv = m.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("workflow,arrived_s"));
        assert!(lines[1].starts_with("a,0,100,"));
    }

    const CATEGORIES: [PassCategory; PassCategory::COUNT] = [
        PassCategory::GpuGpu,
        PassCategory::GpuHost,
        PassCategory::HostHost,
        PassCategory::Recovery,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]
        /// Over many records with mixed categories, the folded count and
        /// mean of each category equal those of a flat per-operation list
        /// (one `Summary` sample per op, in record order) bit for bit.
        #[test]
        fn op_stats_match_a_flat_op_list(
            instances in proptest::collection::vec(
                proptest::collection::vec((0..PassCategory::COUNT, 0u64..5_000_000_000), 0..12),
                0..40,
            ),
        ) {
            let mut m = Metrics::new();
            let workflow = m.intern("w");
            let mut flat = Vec::new();
            for ops in &instances {
                let ops: Vec<(PassCategory, SimDuration)> = ops
                    .iter()
                    .map(|&(c, ns)| (CATEGORIES[c], SimDuration::from_nanos(ns)))
                    .collect();
                let record = InstanceRecord {
                    workflow,
                    arrived: SimTime::ZERO,
                    completed: SimTime::ZERO,
                    compute: SimDuration::ZERO,
                    passing: [SimDuration::ZERO; PassCategory::COUNT],
                };
                m.record(record, &ops);
                flat.extend(ops);
            }
            for cat in CATEGORIES {
                let mut s = Summary::new();
                for &(c, d) in &flat {
                    if c == cat {
                        s.record(d.as_millis_f64());
                    }
                }
                proptest::prop_assert_eq!(m.op_count(cat), s.len() as u64);
                proptest::prop_assert_eq!(m.op_mean_ms(cat).to_bits(), s.mean().to_bits());
            }
            proptest::prop_assert_eq!(m.op_count_total(), flat.len() as u64);
        }
    }
}
