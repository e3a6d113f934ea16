//! Ablation A1: solver lookahead tiers (dead-end rate and per-character
//! solver cost), plus the thread- and batch-scaling studies of the
//! parallel record-level decoder.
//!
//! Usage: `cargo run -p lejit-bench --release --bin ablation_lookahead`
//! (`LEJIT_THREADS=n` pins the worker count, `LEJIT_BATCH=n` the records
//! per batched forward pass; outputs are byte-identical for every value,
//! only wall time changes.) Writes the solver cost profile of every A1
//! configuration to `BENCH_solver.json` for CI trend tracking.

use lejit_bench::{experiments, print_table, BenchEnv, Scale};

fn main() {
    let scale = Scale::from_env();
    let env = BenchEnv::build(scale);
    let (table, solver_rows) = experiments::ablation_lookahead_detailed(&env);
    print_table("Ablation A1: solver lookahead", &table);
    let configs: Vec<serde_json::Value> = solver_rows
        .iter()
        .map(|r| {
            serde_json::json!({
                "config": r.label,
                "dead_ends": r.dead_ends,
                "completed": r.completed,
                "checks_per_char": r.checks_per_char,
                "pivots_per_char": r.pivots_per_char,
                "bnb_nodes_per_char": r.bnb_per_char,
                "sec_per_sample": r.sec_per_sample,
            })
        })
        .collect();
    let doc = serde_json::json!({
        "bench": "ablation_lookahead",
        "scale": scale.name(),
        "threads": env.threads,
        "windows": env.eval_windows().len(),
        "configs": configs,
    });
    let rendered = serde_json::to_string_pretty(&doc).unwrap_or_default();
    let _ = std::fs::write("BENCH_solver.json", rendered);
    let scaling = experiments::thread_scaling(&env);
    print_table(
        &format!(
            "Thread scaling: LeJIT imputation, {} windows (env default: {} threads)",
            env.eval_windows().len(),
            env.threads
        ),
        &scaling,
    );
    let batching = experiments::batch_scaling(&env);
    print_table(
        &format!(
            "Batch scaling: LeJIT imputation, {} windows, {} threads (env default: batch {})",
            env.eval_windows().len(),
            env.threads,
            env.batch
        ),
        &batching,
    );
    let forward = experiments::batch_forward_throughput(&env);
    print_table(
        "Batched forward throughput (model only): KV-cache lanes per weight sweep",
        &forward,
    );
}
