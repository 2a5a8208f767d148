//! Where a `Get` delivers its bytes (paper §4.2.2): the consumer side of
//! the unified API, from which the data plane picks a transfer planner.

use grouter_topology::GpuRef;

/// Consumer-side destination of a `Get`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Destination {
    /// A GPU function on this GPU.
    Gpu(GpuRef),
    /// A CPU function / host I/O on this node.
    Host(usize),
}

impl Destination {
    /// Node this destination lives on.
    pub fn node_of(&self) -> usize {
        match self {
            Destination::Gpu(g) => g.node,
            Destination::Host(n) => *n,
        }
    }
}
