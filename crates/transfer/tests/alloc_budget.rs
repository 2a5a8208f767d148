//! Allocation budget of a steady-state transfer leg. Once warm, planning a
//! DGX-V100 host-to-device transfer, starting its flows and draining them
//! to completion touches the allocator only for the plan's flow list and
//! the engine's per-transfer records, never per link path; starting a flow
//! on the network allocates nothing at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use grouter_sim::time::SimTime;
use grouter_sim::{FlowId, FlowNet};
use grouter_topology::{presets, Topology};
use grouter_transfer::plan::{plan_h2d, PlanConfig};
use grouter_transfer::TransferEngine;

/// The system allocator, counting the allocations of the calling thread
/// (tests run on parallel threads, so a global count would mix them).
struct Counting;

thread_local! {
    // Const-initialised and without a destructor: reading it from inside
    // the allocator never allocates or registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded from the caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(l) }
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        note();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(l) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        // SAFETY: `p` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(p, l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `p` came from `System` with layout `l`; forwarded as is.
        unsafe { System.realloc(p, l, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `f`; return its result and the allocations it made on this thread.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

struct Bed {
    net: FlowNet,
    topo: Topology,
    engine: TransferEngine,
    done: Vec<FlowId>,
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
            now: SimTime::ZERO,
        }
    }

    /// Plan a 64 MB host-to-device transfer into GPU 0 with GROUTER's
    /// parallel PCIe staging (four paths), start it and drain it.
    fn h2d_leg(&mut self) -> usize {
        let plan = plan_h2d(&self.topo, &self.net, 0, 0, 64e6, &PlanConfig::grouter());
        let flows = plan.flows.len();
        self.engine
            .begin(&mut self.net, self.now, plan, 0)
            .expect("planned transfer starts");
        let mut finished = 0;
        while self.engine.in_flight() > 0 {
            self.now = self.net.next_completion().expect("transfer in flight");
            self.net.advance_to_into(self.now, &mut self.done);
            finished += self.engine.on_flows_complete(&self.done).len();
        }
        assert_eq!(finished, 1);
        flows
    }
}

/// Run `f` and count its allocations with the sampled invariant checkers
/// of audited builds (every workspace-wide `cargo test`) parked: they
/// allocate on their own schedule, and the window must measure the
/// transfer path alone.
fn counted_unaudited<R>(f: impl FnOnce() -> R) -> (R, u64) {
    grouter_audit::quiet_samplers();
    counted(f)
}

// One test function: the checkers' samplers are process-wide, and a second
// test on another thread would advance them inside the measured windows.
#[test]
fn warm_transfer_path_allocations() {
    let mut bed = Bed::v100();
    assert_eq!(bed.h2d_leg(), 4, "direct path plus three staging peers");

    // A whole leg: the plan's flow list, the engine's pending/started lists
    // and active-transfer record, and the finished-transfer list. A handful,
    // however many links the four paths cross.
    let (flows, allocs) = counted_unaudited(|| bed.h2d_leg());
    assert_eq!(flows, 4);
    assert!(allocs <= 8, "one h2d leg made {allocs} allocations");

    // FlowNet alone: start the leg's paths one by one, twice. The first
    // round warms the slots, the per-link member lists, the recompute
    // buffers and the completion heap; in the second no start allocates.
    let plan = plan_h2d(&bed.topo, &bed.net, 0, 0, 64e6, &PlanConfig::grouter());
    for round in 0..2 {
        for flow in &plan.flows {
            let (started, allocs) = counted_unaudited(|| {
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
            bed.net.advance_to_into(at, &mut bed.done);
        }
    }
}
