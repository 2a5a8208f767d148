//! **Table 1** — capability matrix: data locality, bandwidth harvesting,
//! efficient temporary storage. Each capability is established by a probe
//! on the live plane rather than asserted by fiat.

use grouter::mem::{ElasticPool, PinnedRing, PoolDiscipline, PrewarmScaler};
use grouter::runtime::dataplane::{DataPlane, Destination, PlaneCtx};
use grouter::sim::time::SimTime;
use grouter::sim::FlowNet;
use grouter::store::{AccessToken, DataStore, FunctionId, Location, WorkflowId};
use grouter::topology::{presets, GpuRef, PathLedger, Topology};
use grouter::transfer::rate::RateController;

use crate::harness::{PlaneKind, Table};

struct Probe {
    topo: Topology,
    net: FlowNet,
    store: DataStore,
    pools: Vec<ElasticPool>,
    scalers: Vec<PrewarmScaler>,
    ledgers: Vec<PathLedger>,
    pinned: Vec<PinnedRing>,
    rates: Vec<RateController>,
}

impl Probe {
    fn new() -> Probe {
        let mut net = FlowNet::new();
        let topo = Topology::build(presets::dgx_v100(), 1, &mut net);
        Probe {
            store: DataStore::new(1),
            pools: (0..8)
                .map(|_| ElasticPool::new(PoolDiscipline::Elastic, topo.gpu_mem_bytes()))
                .collect(),
            scalers: (0..8).map(|_| PrewarmScaler::new()).collect(),
            ledgers: vec![PathLedger::from_topology(&topo)],
            pinned: vec![PinnedRing::new(grouter_sim::params::PINNED_RING_BYTES)],
            rates: vec![RateController::new()],
            topo,
            net,
        }
    }

    fn ctx(&mut self) -> PlaneCtx<'_> {
        PlaneCtx {
            topo: &self.topo,
            net: &self.net,
            store: &mut self.store,
            pools: &mut self.pools,
            scalers: &mut self.scalers,
            ledgers: &mut self.ledgers,
            pinned: &mut self.pinned,
            rates: &mut self.rates,
            now: SimTime::ZERO,
            slo: None,
            trace: &grouter_obs::DISABLED,
        }
    }
}

fn token() -> AccessToken {
    AccessToken {
        function: FunctionId(1),
        workflow: WorkflowId(1),
    }
}

/// Locality: do puts stay on the producer's GPU?
fn has_locality(plane: &mut dyn DataPlane) -> bool {
    let mut probe = Probe::new();
    for trial in 0..8 {
        let src = GpuRef::new(0, (trial % 8) as usize);
        let put = plane
            .put(&mut probe.ctx(), token(), Destination::Gpu(src), 1e6, 1)
            .expect("put");
        match probe.store.peek(put.id).map(|e| e.location) {
            Some(Location::Gpu(g)) if g == src => {}
            _ => return false,
        }
    }
    true
}

/// Harvesting: does a large gFn→host egress use more than one path?
fn has_harvesting(plane: &mut dyn DataPlane) -> bool {
    let mut probe = Probe::new();
    let put = plane
        .put(
            &mut probe.ctx(),
            token(),
            Destination::Gpu(GpuRef::new(0, 0)),
            400e6,
            1,
        )
        .expect("put");
    let get = plane
        .get(&mut probe.ctx(), token(), put.id, Destination::Host(0))
        .expect("get");
    get.legs.iter().any(|l| l.plan.flows.len() > 1)
}

/// Efficient temporary storage: does the plane's storage shrink back after
/// demand disappears (elastic pooling)?
fn has_elastic_storage(plane: &mut dyn DataPlane) -> bool {
    let mut probe = Probe::new();
    let src = Destination::Gpu(GpuRef::new(0, 0));
    let mut ids = Vec::new();
    for _ in 0..4 {
        let put = plane
            .put(&mut probe.ctx(), token(), src, 500e6, 1)
            .expect("put");
        ids.push(put.id);
    }
    for id in ids {
        plane.on_consumed(&mut probe.ctx(), id);
    }
    // After consumption every pool must be back near the idle floor.
    probe
        .pools
        .iter()
        .all(|p| p.reserved() <= 400e6 && p.used() == 0.0)
}

pub fn run() -> String {
    let mut out = String::from("Table 1 — capability matrix (probed on the live planes)\n\n");
    let mut table = Table::new(
        &["plane", "locality", "bw harvesting", "elastic storage"],
        &[10, 9, 14, 16],
    );
    for kind in PlaneKind::MAIN {
        let mark = |b: bool| if b { "yes" } else { "no" }.to_string();
        // INFless+ stores on the host: "locality" in the GPU sense is absent.
        let loc = match kind {
            PlaneKind::Infless => false,
            _ => has_locality(plane(kind).as_mut()),
        };
        let bh = has_harvesting(plane(kind).as_mut());
        let es = match kind {
            PlaneKind::Infless => false, // no GPU storage at all
            _ => has_elastic_storage(plane(kind).as_mut()),
        };
        table.row(&[kind.label().to_string(), mark(loc), mark(bh), mark(es)]);
    }
    out.push_str(&table.finish());
    out.push_str("\npaper Table 1: NCCL/UCX, NVSHMEM, DeepPlan all x/x/x; GROUTER yes/yes/yes\n(DeepPlan+ gains storage-driven parallel PCIe, visible in the harvesting column)\n");
    out
}

fn plane(kind: PlaneKind) -> Box<dyn DataPlane> {
    kind.build(5)
}
