//! Workflow and stage descriptions.
//!
//! A [`WorkflowSpec`] is a DAG of [`StageSpec`]s covering the four patterns
//! of the paper's Fig. 12 — sequence, condition, fan-out, fan-in. Compute
//! latencies and data sizes are fixed per spec (inference latency is highly
//! predictable, §4.3.2); batch-size sweeps build one spec per batch via the
//! workload crate's profiles.

use grouter_sim::time::SimDuration;

/// What a stage runs on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StageKind {
    /// GPU function: occupies its GPU for the compute duration and
    /// `mem_bytes` of GPU memory while running.
    Gpu { mem_bytes: f64 },
    /// CPU function: occupies a host CPU slot.
    Cpu,
}

/// One node of the workflow DAG.
#[derive(Clone, Debug)]
pub struct StageSpec {
    /// Human-readable name (model name, operation).
    pub name: String,
    pub kind: StageKind,
    /// Indices of upstream stages whose outputs this stage consumes.
    /// Empty ⇒ the stage reads the workflow input (from host memory).
    pub deps: Vec<usize>,
    /// Predicted compute latency (offline profile).
    pub compute: SimDuration,
    /// Output (intermediate) data size in bytes.
    pub output_bytes: f64,
    /// Conditional-branch group: at request time exactly one stage of each
    /// group is chosen (weighted by the `f64`); the others are skipped.
    pub cond_group: Option<(u32, f64)>,
}

impl StageSpec {
    /// A GPU stage with the given profile.
    pub fn gpu(
        name: impl Into<String>,
        deps: Vec<usize>,
        compute: SimDuration,
        output_bytes: f64,
        mem_bytes: f64,
    ) -> StageSpec {
        StageSpec {
            name: name.into(),
            kind: StageKind::Gpu { mem_bytes },
            deps,
            compute,
            output_bytes,
            cond_group: None,
        }
    }

    /// A CPU stage with the given profile.
    pub fn cpu(
        name: impl Into<String>,
        deps: Vec<usize>,
        compute: SimDuration,
        output_bytes: f64,
    ) -> StageSpec {
        StageSpec {
            name: name.into(),
            kind: StageKind::Cpu,
            deps,
            compute,
            output_bytes,
            cond_group: None,
        }
    }

    /// Mark the stage as a conditional alternative.
    pub fn with_cond(mut self, group: u32, weight: f64) -> StageSpec {
        self.cond_group = Some((group, weight));
        self
    }

    pub fn is_gpu(&self) -> bool {
        matches!(self.kind, StageKind::Gpu { .. })
    }
}

/// Most dependencies one stage may have: the executor records which inputs
/// a stage has fetched in one `u64` bitmask.
pub const MAX_DEPS: usize = 64;

/// A full inference workflow.
#[derive(Clone, Debug)]
pub struct WorkflowSpec {
    pub name: String,
    pub stages: Vec<StageSpec>,
    /// Request payload registered in host memory on arrival.
    pub input_bytes: f64,
    /// Latency SLO for the whole workflow (e.g. 1.5 × solo latency). Zero
    /// means "not yet calibrated"; the runtime then skips rate guarantees.
    pub slo: SimDuration,
}

impl WorkflowSpec {
    pub fn new(name: impl Into<String>, input_bytes: f64) -> WorkflowSpec {
        WorkflowSpec {
            name: name.into(),
            stages: Vec::new(),
            input_bytes,
            slo: SimDuration::ZERO,
        }
    }

    /// Append a stage, returning its index for dependency wiring.
    pub fn push(&mut self, stage: StageSpec) -> usize {
        self.stages.push(stage);
        self.stages.len() - 1
    }

    pub fn with_slo(mut self, slo: SimDuration) -> WorkflowSpec {
        self.slo = slo;
        self
    }

    /// Validate DAG shape: deps in range, acyclic by construction (deps must
    /// point backwards), at most [`MAX_DEPS`] deps per stage, conditional
    /// groups have positive total weight.
    pub fn validate(&self) -> Result<(), String> {
        if self.stages.is_empty() {
            return Err(format!("workflow '{}' has no stages", self.name));
        }
        for (i, s) in self.stages.iter().enumerate() {
            if s.deps.len() > MAX_DEPS {
                return Err(format!(
                    "stage {i} ('{}') has {} dependencies; at most {MAX_DEPS} are supported",
                    s.name,
                    s.deps.len()
                ));
            }
            for &d in &s.deps {
                if d >= i {
                    return Err(format!(
                        "stage {i} ('{}') depends on {d}, which is not an earlier stage",
                        s.name
                    ));
                }
            }
        }
        let mut group_weight = std::collections::BTreeMap::new();
        for s in &self.stages {
            if let Some((g, w)) = s.cond_group {
                if w < 0.0 {
                    return Err(format!("stage '{}' has negative branch weight", s.name));
                }
                *group_weight.entry(g).or_insert(0.0) += w;
            }
        }
        for (g, w) in group_weight {
            if w <= 0.0 {
                return Err(format!("conditional group {g} has zero total weight"));
            }
        }
        Ok(())
    }

    /// Sum of stage compute times along the critical path (ignoring data
    /// passing) — the "computation" floor of the latency breakdowns.
    pub fn critical_path_compute(&self) -> SimDuration {
        let mut finish = vec![SimDuration::ZERO; self.stages.len()];
        for (i, s) in self.stages.iter().enumerate() {
            let dep_max = s
                .deps
                .iter()
                .map(|&d| finish[d])
                .max()
                .unwrap_or(SimDuration::ZERO);
            finish[i] = dep_max + s.compute;
        }
        finish.into_iter().max().unwrap_or(SimDuration::ZERO)
    }

    /// Whether `stage` is terminal (no stage depends on it) — the
    /// allocation-free membership test hot paths use instead of
    /// [`WorkflowSpec::terminals`]. Dependency lists are a handful of
    /// entries, so the scan beats building the terminal set.
    pub fn is_terminal(&self, stage: usize) -> bool {
        !self.stages.iter().any(|s| s.deps.contains(&stage))
    }

    /// Terminal stages (no stage depends on them); their outputs form the
    /// workflow response.
    pub fn terminals(&self) -> Vec<usize> {
        let mut has_consumer = vec![false; self.stages.len()];
        for s in &self.stages {
            for &d in &s.deps {
                has_consumer[d] = true;
            }
        }
        (0..self.stages.len())
            .filter(|&i| !has_consumer[i])
            .collect()
    }

    /// Number of downstream consumers of each stage's output (terminals get
    /// one extra: the response egress to host).
    pub fn consumer_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.stages.len()];
        for s in &self.stages {
            for &d in &s.deps {
                counts[d] += 1;
            }
        }
        for t in self.terminals() {
            counts[t] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn linear3() -> WorkflowSpec {
        let mut wf = WorkflowSpec::new("lin", 1e6);
        let a = wf.push(StageSpec::cpu("decode", vec![], ms(5), 2e6));
        let b = wf.push(StageSpec::gpu("det", vec![a], ms(20), 3e6, 1e9));
        wf.push(StageSpec::gpu("rec", vec![b], ms(10), 1e6, 1e9));
        wf
    }

    #[test]
    fn valid_linear_workflow() {
        let wf = linear3();
        assert!(wf.validate().is_ok());
        assert_eq!(wf.terminals(), vec![2]);
        assert_eq!(wf.consumer_counts(), vec![1, 1, 1]);
        assert_eq!(wf.critical_path_compute(), ms(35));
    }

    #[test]
    fn forward_dependency_rejected() {
        let mut wf = WorkflowSpec::new("bad", 1e6);
        wf.push(StageSpec::cpu("a", vec![1], ms(1), 1.0));
        wf.push(StageSpec::cpu("b", vec![], ms(1), 1.0));
        assert!(wf.validate().is_err());
    }

    #[test]
    fn self_dependency_rejected() {
        let mut wf = WorkflowSpec::new("bad", 1e6);
        wf.push(StageSpec::cpu("a", vec![0], ms(1), 1.0));
        assert!(wf.validate().is_err());
    }

    #[test]
    fn too_many_dependencies_rejected() {
        let mut wf = WorkflowSpec::new("wide", 1e6);
        let roots: Vec<usize> = (0..=MAX_DEPS)
            .map(|i| wf.push(StageSpec::cpu(format!("r{i}"), vec![], ms(1), 1.0)))
            .collect();
        wf.push(StageSpec::cpu(
            "join",
            roots[..MAX_DEPS].to_vec(),
            ms(1),
            1.0,
        ));
        assert!(wf.validate().is_ok());
        wf.push(StageSpec::cpu("join-all", roots, ms(1), 1.0));
        let err = wf.validate().unwrap_err();
        assert!(err.contains("has 65 dependencies; at most 64"), "{err}");
    }

    #[test]
    fn empty_workflow_rejected() {
        let wf = WorkflowSpec::new("empty", 1e6);
        assert!(wf.validate().is_err());
    }

    #[test]
    fn fan_out_fan_in_counts() {
        // a → (b, c) → d
        let mut wf = WorkflowSpec::new("diamond", 1e6);
        let a = wf.push(StageSpec::gpu("a", vec![], ms(10), 1e6, 1e9));
        let b = wf.push(StageSpec::gpu("b", vec![a], ms(20), 1e6, 1e9));
        let c = wf.push(StageSpec::gpu("c", vec![a], ms(30), 1e6, 1e9));
        wf.push(StageSpec::gpu("d", vec![b, c], ms(5), 1e6, 1e9));
        assert!(wf.validate().is_ok());
        assert_eq!(wf.consumer_counts(), vec![2, 1, 1, 1]);
        // Critical path takes the slower branch.
        assert_eq!(wf.critical_path_compute(), ms(45));
    }

    #[test]
    fn conditional_groups_validate_weights() {
        let mut wf = WorkflowSpec::new("cond", 1e6);
        let a = wf.push(StageSpec::gpu("a", vec![], ms(1), 1e6, 1e9));
        wf.push(StageSpec::gpu("b1", vec![a], ms(1), 1e6, 1e9).with_cond(0, 0.7));
        wf.push(StageSpec::gpu("b2", vec![a], ms(1), 1e6, 1e9).with_cond(0, 0.3));
        assert!(wf.validate().is_ok());
        let mut bad = WorkflowSpec::new("cond0", 1e6);
        bad.push(StageSpec::gpu("x", vec![], ms(1), 1e6, 1e9).with_cond(1, 0.0));
        assert!(bad.validate().is_err());
    }

    #[test]
    fn multiple_terminals_each_count_an_egress() {
        let mut wf = WorkflowSpec::new("fan", 1e6);
        let a = wf.push(StageSpec::gpu("a", vec![], ms(1), 1e6, 1e9));
        wf.push(StageSpec::gpu("t1", vec![a], ms(1), 1e6, 1e9));
        wf.push(StageSpec::gpu("t2", vec![a], ms(1), 1e6, 1e9));
        assert_eq!(wf.terminals(), vec![1, 2]);
        assert_eq!(wf.consumer_counts(), vec![2, 1, 1]);
    }
}
