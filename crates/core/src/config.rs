//! GROUTER feature configuration.
//!
//! The four design components of §4 map to four switches, which is exactly
//! what the ablation study (Fig. 16) toggles:
//!
//! | switch | paper component | effect when off |
//! |---|---|---|
//! | `unified_framework` (UF) | §4.2 locality-aware Put/Get | objects land on a random GPU, like NVSHMEM+ |
//! | `bandwidth_harvesting` (BH) | §4.3.2 parallel PCIe/NIC + SLO rate control | single PCIe link / single NIC, no guarantees |
//! | `topology_aware` (TA) | §4.3.3 Algorithm 1 + route-GPU selection | direct paths only, naive route GPUs |
//! | `elastic_storage` (ES) | §4.4 pre-warm scaling + queue-aware migration | pool never shrinks, LRU eviction, no restore |

use grouter_transfer::plan::PlanConfig;

/// Feature switches for [`crate::GrouterPlane`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GrouterConfig {
    /// §4.2: locality-aware unified data-passing framework.
    pub unified_framework: bool,
    /// §4.3.2: fine-grained bandwidth harvesting + SLO rate control.
    pub bandwidth_harvesting: bool,
    /// §4.3.3: topology-aware transfer scheduling (Algorithm 1).
    pub topology_aware: bool,
    /// §4.4: elastic GPU data storage.
    pub elastic_storage: bool,
    /// §4.4.2: proactive restoration of migrated data. Disabling this while
    /// keeping `elastic_storage` gives the paper's "RQ" variant (queue-aware
    /// eviction only, Fig. 18).
    pub proactive_restore: bool,
    /// Fan-out bound for parallel transfers.
    pub max_paths: usize,
    /// NVLink detour bound for Algorithm 1.
    pub max_hops: usize,
}

impl Default for GrouterConfig {
    fn default() -> Self {
        Self::full()
    }
}

impl GrouterConfig {
    /// Everything on — the system the paper evaluates as "GROUTER".
    pub fn full() -> GrouterConfig {
        GrouterConfig {
            unified_framework: true,
            bandwidth_harvesting: true,
            topology_aware: true,
            elastic_storage: true,
            proactive_restore: true,
            max_paths: 4,
            max_hops: 3,
        }
    }

    /// Disable elastic storage (ablation step 1).
    pub fn no_es(mut self) -> GrouterConfig {
        self.elastic_storage = false;
        self.proactive_restore = false;
        self
    }

    /// Keep queue-aware eviction but disable proactive restoration — the
    /// paper's "RQ" comparison point (Fig. 18).
    pub fn no_restore(mut self) -> GrouterConfig {
        self.proactive_restore = false;
        self
    }

    /// Disable topology-aware scheduling (ablation step 2).
    pub fn no_ta(mut self) -> GrouterConfig {
        self.topology_aware = false;
        self
    }

    /// Disable bandwidth harvesting (ablation step 3).
    pub fn no_bh(mut self) -> GrouterConfig {
        self.bandwidth_harvesting = false;
        self
    }

    /// Disable the unified framework's locality (ablation step 4).
    pub fn no_uf(mut self) -> GrouterConfig {
        self.unified_framework = false;
        self
    }

    /// Planner config for gFn–host (PCIe) transfers.
    pub fn host_cfg(&self) -> PlanConfig {
        PlanConfig {
            parallel_pcie: self.bandwidth_harvesting,
            parallel_nics: false,
            topology_aware: self.topology_aware,
            max_paths: self.max_paths,
        }
    }

    /// Planner config for cross-node gFn–gFn (NIC) transfers.
    pub fn xnode_cfg(&self) -> PlanConfig {
        PlanConfig {
            parallel_pcie: false,
            parallel_nics: self.bandwidth_harvesting,
            topology_aware: self.topology_aware,
            max_paths: self.max_paths,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_config_enables_everything() {
        let c = GrouterConfig::full();
        assert!(c.unified_framework && c.bandwidth_harvesting);
        assert!(c.topology_aware && c.elastic_storage);
        assert!(c.host_cfg().parallel_pcie);
        assert!(c.xnode_cfg().parallel_nics);
    }

    #[test]
    fn ablation_chain_composes() {
        let c = GrouterConfig::full().no_es().no_ta().no_bh().no_uf();
        assert!(!c.elastic_storage && !c.topology_aware);
        assert!(!c.bandwidth_harvesting && !c.unified_framework);
        assert!(!c.host_cfg().parallel_pcie);
        assert!(!c.xnode_cfg().parallel_nics);
    }

    #[test]
    fn ta_off_keeps_bh_parallel_pcie() {
        let c = GrouterConfig::full().no_ta();
        let h = c.host_cfg();
        assert!(h.parallel_pcie && !h.topology_aware);
        assert!(!c.xnode_cfg().topology_aware);
    }
}
