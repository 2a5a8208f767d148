//! # grouter-llm
//!
//! Prefill/decode-disaggregated LLM serving over the GPU store (ROADMAP
//! item 3, the dynamic half of the paper's §6 LLM experiment; DESIGN.md
//! §5.10).
//!
//! The subsystem models what the static Fig. 19 TTFT study cannot: **KV
//! caches as live, growing GPU-store objects**. Prefill instances produce
//! block-granular KV objects (chunked `Put`s of
//! [`blocks::KV_BLOCK_TOKENS`]-token blocks), hand them off to a decode
//! instance chosen by pinned-consumer placement
//! ([`grouter_runtime::pin_decode`]), and decode then runs as a stream of
//! small per-token invocations — one `Get` of the resident KV plus one
//! small append per token, continuous-batched per decode GPU. Under memory
//! pressure (decode activations growing with the batch), the data plane's
//! own migration machinery re-hosts cold KV blocks to host memory; the
//! GROUTER plane restores them proactively, the Mooncake+ baseline keeps
//! paying host-read stalls.
//!
//! * [`request`] — request identity and per-request serving state.
//! * [`blocks`] — the KV block map: block-granular store objects per
//!   request, home-GPU pinning, residency tracking.
//! * [`exec`] — the analytic operation executor (durations from hardware
//!   link capacities; per-leg resource release mirroring the full
//!   executor's contract).
//! * [`group`] — one serving group: prefill engines, decode engines,
//!   pressure hooks, chaos fail script.
//! * [`world`] — the sharded world: one router shard + N serving-group
//!   shards exchanging timestamped envelopes.
//! * [`serve`] — configuration and the end-to-end entry point.
//! * [`metrics`] — TTFT/TBT accounting, the merged CSV and its digest.

// No panics or prints in data-plane code; exceptions are `#[expect]`s (DESIGN §5.3).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod blocks;
pub mod exec;
pub mod group;
pub mod metrics;
pub mod request;
pub mod serve;
pub mod world;

pub use blocks::{KvBlock, KvBlockMap, RequestKv, KV_BLOCK_TOKENS};
pub use metrics::{fnv64, Fnv64, LlmMetrics};
pub use serve::{run_llm_serve, LlmReport, LlmServeConfig, PlaneKind, NODE_GPUS};
