//! Figure 5: KV-cache hit rate vs pool capacity under LRU, on the
//! multi-turn traces (Llama-70B KV sizing).
//!
//! The paper's observation: the optimal hit rate needs ~3.3 TB of cache;
//! halving capacity (disaggregation) collapses the hit rate (36.6 % →
//! 4.2 % in their production example).

use bench::{banner, save_record};
use modelspec::ModelSpec;
use serving::LeaseTable;
use simcore::SimRng;
use workload::{generate_sessions, RequestSpec, WorkloadKind};

/// Replays a trace against a pool: every turn looks up its context, then
/// commits context + output (what an aggregated serving system caches).
fn replay(reqs: &[RequestSpec], capacity_tokens: u64) -> f64 {
    let mut table = LeaseTable::new(capacity_tokens, 64);
    for (id, r) in reqs.iter().enumerate() {
        let blocks = r.content.blocks(64);
        let lease = table.lease_prefix(id, &blocks, r.arrival);
        table.release(lease);
        let mut full = r.content.clone();
        full.push(r.session, r.output_tokens);
        table.insert(&full.blocks(64), r.arrival);
    }
    table.stats().hit_rate()
}

fn main() {
    banner("Figure 5: cache hit rate vs KV pool capacity (LRU)");
    let model = ModelSpec::llama70b();
    // Session-structured traces: turns are separated by think times, so
    // the reuse distance reflects every other active session's traffic —
    // the regime where pool capacity determines the hit rate.
    let mut rng = SimRng::seed_from(0xF165);
    let conv = generate_sessions(WorkloadKind::Conversation, 5_000, 0.5, 120.0, &mut rng);
    let tool = generate_sessions(WorkloadKind::ToolAgent, 5_000, 0.5, 120.0, &mut rng);

    let kv_per_token = model.kv_bytes_per_token();
    println!(
        "{:>12} {:>12} {:>14} {:>14}",
        "pool (GB)", "tokens (M)", "Conversation", "Tool&Agent"
    );
    for gb in [64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 3300.0, 6600.0] {
        let tokens = (gb * 1e9 / kv_per_token) as u64;
        let h_conv = replay(&conv, tokens);
        let h_tool = replay(&tool, tokens);
        println!(
            "{:>12.0} {:>12.2} {:>13.1}% {:>13.1}%",
            gb,
            tokens as f64 / 1e6,
            h_conv * 100.0,
            h_tool * 100.0
        );
        save_record(
            "fig5",
            &serde_json::json!({
                "pool_gb": gb, "tokens": tokens,
                "conversation_hit": h_conv, "tool_agent_hit": h_tool,
            }),
        );
    }
    println!(
        "\nExpected shape (paper): hit rate climbs steeply with capacity and only \
         saturates in the TB range; halving the pool (disaggregation) costs a large \
         fraction of the achievable hit rate."
    );
}
