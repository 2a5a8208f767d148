//@ path: crates/sim/src/fixture.rs
//! Justified pragmas silence each pass at the annotated site.

pub struct FlowNet {
    pending: FxHashMap<u64, u32>,
}

impl FlowNet {
    pub fn step(&mut self, i: usize, table: &mut MetricsTable) {
        // grouter-analyze: allow(panic-reachable): index validated by admit()
        let _v = self.slots[i];
        // grouter-analyze: allow(wallclock-reachable): debug stamp, never fed to sim time
        let _t0 = Instant::now();
        // grouter-analyze: allow(determinism-taint): rows are keyed by flow id, order-free
        for (k, v) in self.pending.iter() {
            table.record(*k, *v);
        }
    }
}
