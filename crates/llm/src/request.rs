//! Request identity and per-request serving state.

use grouter_runtime::TokenStream;
use grouter_sim::time::SimTime;
use grouter_topology::GpuRef;
use grouter_workloads::llm::LlmRequestSpec;

/// One admitted request inside a serving group.
#[derive(Clone, Debug)]
pub struct ActiveRequest {
    pub spec: LlmRequestSpec,
    pub arrival: SimTime,
    /// Token-stream progress (TTFT/TBT observation points).
    pub stream: TokenStream,
    /// Tokens covered by the KV produced at the last (re-)prefill: the
    /// prompt, plus any tokens generated before a decode-GPU failure forced
    /// a lineage re-materialization.
    pub kv_tokens: u32,
    /// Decode GPU the request is pinned to once handoff completes.
    pub decode_gpu: Option<GpuRef>,
    /// The request may not emit a token before this instant (first-token
    /// latency after handoff, or a KV restore stall).
    pub ready_at: SimTime,
    /// Whether the one allowed lineage re-materialization was used.
    pub retried: bool,
}

impl ActiveRequest {
    pub fn new(spec: LlmRequestSpec, arrival: SimTime) -> ActiveRequest {
        ActiveRequest {
            spec,
            arrival,
            stream: TokenStream::new(arrival, spec.output_tokens),
            kv_tokens: spec.prompt_tokens,
            decode_gpu: None,
            ready_at: arrival,
            retried: false,
        }
    }
}
