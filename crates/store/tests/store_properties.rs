//! Property tests over the metadata store: consistency of the hierarchical
//! tables under arbitrary interleavings of puts, resolves, consumes,
//! relocations and purges.

use proptest::prelude::*;

use grouter_sim::rng::DetRng;
use grouter_sim::time::SimTime;
use grouter_store::{AccessToken, DataId, DataStore, FunctionId, Location, WorkflowId};
use grouter_topology::GpuRef;

#[derive(Clone, Debug)]
enum Op {
    Put { wf: u64, gpu: bool, bytes: u16 },
    Resolve { node: u8, wf: u64 },
    Consume,
    Relocate { to_host: bool },
    NextUse { rank: u64 },
    Purge { gpu: Option<u8> },
}

/// Every location a test object can occupy.
fn locations() -> impl Iterator<Item = Location> {
    (0..2usize)
        .map(Location::Host)
        .chain((0..8usize).map(|g| Location::Gpu(GpuRef::new(0, g))))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..4, any::<bool>(), 1u16..1000).prop_map(|(wf, gpu, bytes)| Op::Put {
            wf,
            gpu,
            bytes
        }),
        (0u8..2, 0u64..4).prop_map(|(node, wf)| Op::Resolve { node, wf }),
        Just(Op::Consume),
        any::<bool>().prop_map(|to_host| Op::Relocate { to_host }),
        (0u64..100).prop_map(|rank| Op::NextUse { rank }),
        (any::<bool>(), 0u8..8).prop_map(|(one, g)| Op::Purge {
            gpu: (!one).then_some(g)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The store never loses or duplicates objects, access control is
    /// airtight, byte accounting per location always sums to the live
    /// total, and every location lists exactly its live objects in
    /// ascending id order.
    #[test]
    fn store_consistency(ops in proptest::collection::vec(arb_op(), 1..80), seed in 0u64..1000) {
        let mut rng = DetRng::new(seed);
        let mut store = DataStore::new(2);
        // Shadow model: (id, wf, bytes, location)
        let mut live: Vec<(DataId, u64, f64, Location)> = Vec::new();
        let mut total_bytes = 0.0f64;
        let now = SimTime::ZERO;
        for op in ops {
            match op {
                Op::Put { wf, gpu, bytes } => {
                    let token = AccessToken {
                        function: FunctionId(1),
                        workflow: WorkflowId(wf),
                    };
                    let loc = if gpu {
                        Location::Gpu(GpuRef::new(0, (rng.next_below(8)) as usize))
                    } else {
                        Location::Host(rng.next_below(2) as usize)
                    };
                    let (id, _) = store.put(now, token, loc, bytes as f64, 1);
                    live.push((id, wf, bytes as f64, loc));
                    total_bytes += bytes as f64;
                }
                Op::Resolve { node, wf } => {
                    if live.is_empty() { continue; }
                    let (id, owner_wf, bytes, _) = live[rng.next_below(live.len() as u64) as usize];
                    let token = AccessToken {
                        function: FunctionId(2),
                        workflow: WorkflowId(wf),
                    };
                    let res = store.resolve(now, node as usize, token, id);
                    if wf == owner_wf {
                        let (entry, _) = res.expect("owner resolves");
                        prop_assert_eq!(entry.bytes, bytes);
                    } else {
                        prop_assert!(res.is_err(), "cross-workflow access allowed");
                    }
                }
                Op::Consume => {
                    if live.is_empty() { continue; }
                    let idx = rng.next_below(live.len() as u64) as usize;
                    let (id, _, bytes, _) = live.swap_remove(idx);
                    prop_assert!(store.consumed(id), "single-consumer object must free");
                    total_bytes -= bytes;
                    prop_assert!(store.peek(id).is_none());
                }
                Op::Relocate { to_host } => {
                    if live.is_empty() { continue; }
                    let idx = rng.next_below(live.len() as u64) as usize;
                    let id = live[idx].0;
                    let loc = if to_host {
                        Location::Host(0)
                    } else {
                        Location::Gpu(GpuRef::new(0, 3))
                    };
                    store.relocate(id, loc).expect("live object relocates");
                    live[idx].3 = loc;
                    prop_assert_eq!(store.peek(id).expect("live").location, loc);
                }
                Op::NextUse { rank } => {
                    if live.is_empty() { continue; }
                    let (id, _, _, _) = live[rng.next_below(live.len() as u64) as usize];
                    store.set_next_use(id, Some(rank));
                    prop_assert_eq!(store.peek(id).expect("live").next_use, Some(rank));
                }
                // A whole-GPU purge (the data loss of a GPU failure).
                Op::Purge { gpu: Some(g) } => {
                    let loc = Location::Gpu(GpuRef::new(0, g as usize));
                    let mut doomed: Vec<DataId> =
                        live.iter().filter(|o| o.3 == loc).map(|o| o.0).collect();
                    doomed.sort();
                    let purged: Vec<DataId> = store.purge_at(loc).iter().map(|e| e.id).collect();
                    prop_assert_eq!(purged, doomed);
                    for o in live.iter().filter(|o| o.3 == loc) {
                        total_bytes -= o.2;
                    }
                    live.retain(|o| o.3 != loc);
                }
                Op::Purge { gpu: None } => {
                    if live.is_empty() { continue; }
                    let idx = rng.next_below(live.len() as u64) as usize;
                    let (id, _, bytes, _) = live.swap_remove(idx);
                    let entry = store.purge(id).expect("live object purges");
                    prop_assert_eq!(entry.id, id);
                    total_bytes -= bytes;
                    prop_assert!(store.purge(id).is_none(), "purge is idempotent");
                }
            }
            // Global invariants after every step.
            prop_assert_eq!(store.len(), live.len(), "object count drift");
            let sum: f64 = locations().map(|loc| store.bytes_at(loc)).sum();
            prop_assert!((sum - total_bytes).abs() < 1e-6, "byte accounting drift");
            for loc in locations() {
                let mut want: Vec<DataId> =
                    live.iter().filter(|o| o.3 == loc).map(|o| o.0).collect();
                want.sort();
                let got: Vec<DataId> = store.entries_at(loc).iter().map(|e| e.id).collect();
                prop_assert_eq!(got, want, "objects at {:?}", loc);
            }
        }
    }
}
