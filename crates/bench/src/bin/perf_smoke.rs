//! `perf_smoke` — fast hot-path throughput gate.
//!
//! Runs the sweep_smoke grid (2 systems × 4 rates of the Fig. 15-style
//! stability sweep) sequentially, measures simulated-seconds per
//! wall-second, and compares against the figure recorded in
//! `BENCH_sweep.json`. Exits non-zero when throughput regresses more
//! than 20 % below the recorded value, so `scripts/check.sh perf-smoke`
//! catches accidental hot-path slowdowns.
//!
//! `MUXWISE_PERF_REPEATS` (default 3) controls how many times the grid
//! is run; the best pass is scored, which keeps the gate robust to
//! scheduling noise on loaded machines.

// This binary measures wall-clock throughput of the simulator hot path;
// timings are reporting-only and never feed simulation state.
// simlint: allow(R2) reason="wall-clock throughput gate; timing is reporting-only and never feeds simulation state"
use std::time::Instant;

use bench::banner;
use bench::sweep::SweepJob;
use bench::systems::{SystemKind, Testbed};
use workload::WorkloadKind;

fn repeats() -> usize {
    std::env::var("MUXWISE_PERF_REPEATS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(3)
}

/// Reads `sim_seconds_per_wall_second_parallel` out of BENCH_sweep.json
/// (best effort; `None` disables the regression gate).
fn recorded_baseline() -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_sweep.json").ok()?;
    let v: serde_json::Value = serde_json::from_str(text.trim()).ok()?;
    v.get("sim_seconds_per_wall_second_parallel")?.as_f64()
}

// Wall-clock is this benchmark's measurand; see the simlint allow above.
#[allow(clippy::disallowed_methods)]
fn main() {
    banner("perf_smoke: hot-path throughput gate");
    let tb = Testbed::llama8b_a100();
    let tb = &tb;
    let jobs: Vec<SweepJob<'_>> = [SystemKind::MuxWise, SystemKind::Chunked]
        .into_iter()
        .flat_map(|kind| {
            [2.0f64, 4.0, 6.0, 8.0]
                .into_iter()
                .map(move |rate| SweepJob {
                    tb,
                    kind,
                    workload: WorkloadKind::ShareGpt,
                    n: 150,
                    rate,
                    seed: 0x50_0E,
                })
        })
        .collect();

    // Warm-up pass (page faults, lazy allocations).
    let _ = jobs[0].run();

    let mut best = 0.0f64;
    let mut sim_secs = 0.0f64;
    let mut iters = 0u64;
    for pass in 0..repeats() {
        // simlint: allow(R2) reason="times one sequential grid pass; reporting-only"
        let t0 = Instant::now();
        let results: Vec<_> = jobs.iter().map(SweepJob::run_with_stats).collect();
        let wall = t0.elapsed().as_secs_f64();
        sim_secs = results
            .iter()
            .flatten()
            .map(|(r, _)| r.makespan.as_secs())
            .sum();
        iters = results.iter().flatten().map(|(_, it)| it).sum();
        let rate = sim_secs / wall;
        if rate > best {
            best = rate;
        }
        println!("pass {pass}: {wall:.3}s wall, {rate:.0} sim-s/wall-s");
    }
    println!("best: {best:.0} sim-s/wall-s over {sim_secs:.1} simulated seconds");
    println!("decode iterations: {iters}");

    match recorded_baseline() {
        Some(baseline) => {
            let floor = baseline * 0.8;
            println!("recorded baseline: {baseline:.0} sim-s/wall-s (floor {floor:.0})");
            if best < floor {
                eprintln!(
                    "FAIL: {best:.0} sim-s/wall-s regresses >20% below the recorded {baseline:.0}"
                );
                std::process::exit(1);
            }
            println!("PASS: within 20% of the recorded throughput");
        }
        None => println!("no BENCH_sweep.json baseline found; skipping the regression gate"),
    }
}
