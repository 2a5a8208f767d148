//! Allocation budget of a steady-state transfer leg. Once warm, planning a
//! DGX-V100 host-to-device transfer, starting its flows and draining them
//! to completion touches the allocator only for the plan's flow list: the
//! engine's transfer map keeps its root node when it empties, the engine
//! recycles its per-transfer records and writes into the caller's buffers,
//! and starting a flow on the network allocates nothing at all.

use grouter_audit::{count_allocs, CountingAlloc};
use grouter_sim::time::SimTime;
use grouter_sim::{FlowId, FlowNet};
use grouter_topology::{presets, Topology};
use grouter_transfer::plan::{plan_h2d, PlanConfig};
use grouter_transfer::{TransferDone, TransferEngine};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Bed {
    net: FlowNet,
    topo: Topology,
    engine: TransferEngine,
    done: Vec<FlowId>,
    started: Vec<(FlowId, Option<Vec<usize>>)>,
    finished: Vec<TransferDone>,
    now: SimTime,
}

impl Bed {
    fn v100() -> Bed {
        let mut net = FlowNet::new();
        let topo = Topology::build(presets::dgx_v100(), 1, &mut net);
        Bed {
            net,
            topo,
            engine: TransferEngine::new(),
            done: Vec::new(),
            started: Vec::new(),
            finished: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    /// Plan a 64 MB host-to-device transfer into GPU 0 with GROUTER's
    /// parallel PCIe staging (four paths), start it and drain it.
    fn h2d_leg(&mut self) -> usize {
        let plan = plan_h2d(&self.topo, &self.net, 0, 0, 64e6, &PlanConfig::grouter());
        let flows = plan.flows.len();
        self.engine
            .begin(&mut self.net, self.now, plan, 0, &mut self.started)
            .expect("planned transfer starts");
        assert_eq!(self.started.len(), flows);
        self.finished.clear();
        while self.engine.in_flight() > 0 {
            self.now = self.net.next_completion().expect("transfer in flight");
            // `advance_to_into` appends: clear the recycled buffer first, as
            // the runtime's flow wake does.
            self.done.clear();
            self.net.advance_to_into(self.now, &mut self.done);
            self.engine
                .on_flows_complete(&self.done, &mut self.finished);
        }
        assert_eq!(self.finished.len(), 1);
        flows
    }
}

// One test function: the checkers' samplers are process-wide, and a second
// test on another thread would advance them inside the measured windows.
#[test]
fn warm_transfer_path_allocations() {
    let mut bed = Bed::v100();
    assert_eq!(bed.h2d_leg(), 4, "direct path plus three staging peers");

    // A whole leg: the plan's flow list, however many links the four paths
    // cross. The active-transfer map keeps its root node although it
    // empties after every leg here, and the transfer record, its pending
    // list and the started, completed and finished buffers are all
    // recycled.
    let (flows, allocs) = count_allocs(|| bed.h2d_leg());
    assert_eq!(flows, 4);
    assert!(allocs <= 1, "one h2d leg made {allocs} allocations");

    // FlowNet alone: start the leg's paths one by one, twice. The first
    // round warms the slots, the per-link member lists, the recompute
    // buffers and the completion heap; in the second no start allocates.
    let plan = plan_h2d(&bed.topo, &bed.net, 0, 0, 64e6, &PlanConfig::grouter());
    for round in 0..2 {
        for flow in &plan.flows {
            let (started, allocs) = count_allocs(|| {
                bed.net
                    .start_flow(bed.now, flow.links, flow.bytes, flow.opts)
            });
            started.expect("valid path");
            if round == 1 {
                assert_eq!(allocs, 0, "start_flow over {:?} allocated", flow.links);
            }
        }
        while let Some(at) = bed.net.next_completion() {
            bed.now = at;
            bed.done.clear();
            bed.net.advance_to_into(at, &mut bed.done);
        }
    }
}
