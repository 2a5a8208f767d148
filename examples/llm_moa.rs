//! LLM Mixture-of-Agents (paper §6.4): pass a prompt's KV cache between
//! agent stages on separate 8×H800 nodes and measure the receiver's
//! time-to-first-token (TTFT).
//!
//! ```text
//! cargo run -p grouter-examples --example llm_moa --release
//! ```

use std::sync::Arc;

use grouter::runtime::dataplane::{DataPlane, Destination};
use grouter::runtime::metrics::PassCategory;
use grouter::runtime::placement::PlacementPolicy;
use grouter::runtime::spec::{StageSpec, WorkflowSpec};
use grouter::runtime::world::RuntimeConfig;
use grouter::runtime::Runtime;
use grouter::sim::time::SimTime;
use grouter::topology::{presets, GpuRef};
use grouter::{GrouterConfig, GrouterPlane};
use grouter_baselines::{InflessPlane, MooncakePlane};
use grouter_workloads::llm::LlmModel;

/// Sender agent on node 0 → receiver agent on node 1, passing the KV cache.
fn kv_workflow(model: LlmModel, input_tokens: u32, tp: u32) -> Arc<WorkflowSpec> {
    let kv = model.kv_bytes(input_tokens);
    let mut wf = WorkflowSpec::new("moa-hop", 1e6);
    let sender = wf.push(StageSpec::gpu(
        "agent-sender",
        vec![],
        model.prefill_latency(input_tokens, tp),
        kv,
        20e9,
    ));
    wf.push(StageSpec::gpu(
        "agent-receiver",
        vec![sender],
        model.first_token_latency(tp),
        1e6,
        20e9,
    ));
    Arc::new(wf)
}

/// Receiver TTFT = KV transfer time + first-token latency.
fn ttft_ms(plane: Box<dyn DataPlane>, model: LlmModel, tokens: u32, tp: u32) -> f64 {
    let pin = PlacementPolicy::Pinned(vec![
        Destination::Gpu(GpuRef::new(0, 1)),
        Destination::Gpu(GpuRef::new(1, 2)),
    ]);
    let cfg = RuntimeConfig {
        placement: pin,
        placement_nodes: vec![0, 1],
        ..Default::default()
    };
    let mut rt = Runtime::new(presets::h800x8(), 2, plane, cfg);
    rt.submit(kv_workflow(model, tokens, tp), SimTime::ZERO);
    rt.run();
    let rec = &rt.metrics().records()[0];
    let transfer = rec.passing_of(PassCategory::GpuGpu).as_millis_f64()
        + rec.passing_of(PassCategory::GpuHost).as_millis_f64();
    transfer + model.first_token_latency(tp).as_millis_f64()
}

fn main() {
    println!("MoA KV-cache passing between 8xH800 nodes (200 Gbps NICs).\n");

    println!("--- TTFT vs input length (7B, TP=1), cf. Fig. 19a ---");
    println!(
        "{:<8} {:>14} {:>14} {:>14}",
        "tokens", "INFless+ (ms)", "Mooncake+ (ms)", "GROUTER (ms)"
    );
    for tokens in [1024u32, 2048, 4096, 8192] {
        let inf = ttft_ms(Box::new(InflessPlane::new()), LlmModel::Llama7B, tokens, 1);
        let moon = ttft_ms(
            Box::new(MooncakePlane::new(1)),
            LlmModel::Llama7B,
            tokens,
            1,
        );
        let ours = ttft_ms(
            Box::new(GrouterPlane::new(GrouterConfig::full())),
            LlmModel::Llama7B,
            tokens,
            1,
        );
        println!("{:<8} {:>14.1} {:>14.1} {:>14.1}", tokens, inf, moon, ours);
    }

    println!("\n--- TTFT vs model and tensor parallelism (4K tokens), cf. Fig. 19b ---");
    println!(
        "{:<8} {:<4} {:>14} {:>14} {:>14}",
        "model", "TP", "INFless+ (ms)", "Mooncake+ (ms)", "GROUTER (ms)"
    );
    for model in LlmModel::ALL {
        for tp in [1u32, 8] {
            let inf = ttft_ms(Box::new(InflessPlane::new()), model, 4096, tp);
            let moon = ttft_ms(Box::new(MooncakePlane::new(tp)), model, 4096, tp);
            let ours = ttft_ms(
                Box::new(GrouterPlane::new(GrouterConfig::full())),
                model,
                4096,
                tp,
            );
            println!(
                "{:<8} {:<4} {:>14.1} {:>14.1} {:>14.1}",
                model.name(),
                tp,
                inf,
                moon,
                ours
            );
        }
    }
    println!("\nAt TP=8 Mooncake+ also drives multiple NICs, narrowing the gap");
    println!("to GROUTER's remaining advantage: locality (no cache-GPU relay).");
}
