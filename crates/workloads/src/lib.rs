//! # grouter-workloads
//!
//! The evaluation workloads (paper §6):
//!
//! * [`models`] — parametric latency/size profiles for the models the six
//!   workflows run (YOLO, ResNets, segmentation, face detection, …) with
//!   per-testbed GPU speed factors.
//! * [`apps`] — the benchmarking suite of Fig. 12: *Traffic* (condition),
//!   *Driving* (sequence), *Video* (fan-out), *Image* (fan-in), *MoA*
//!   (layered LLM agents), plus the *Chatbot* pipeline substituted for the
//!   sixth workflow (DESIGN.md §3).
//! * [`azure`] — Azure-Functions-style request traces with the three
//!   arrival patterns the paper uses: sporadic, periodic, bursty.
//! * [`llm`] — KV-cache sizing and prefill/decode latency models for the
//!   MoA experiment (§6.4).

pub mod apps;
pub mod azure;
pub mod cluster;
pub mod llm;
pub mod models;

pub use apps::{suite, WorkloadParams};
pub use azure::{generate_trace, ArrivalPattern, OpenLoopGen};
pub use cluster::{
    cluster_mix, group_setups, service_setups, ClusterPreset, OpenLoopArrivals, ROUTER_GROUP,
};
