//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <instance-sharegpt|fleet-sessions|fleet-faults> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Replays one seeded workload through the program's public entry points
//! (`serving::Driver` / `Instance`, `fleet::Fleet`) again and again for
//! `--seconds` host seconds, checks every replay's output, and prints
//! one JSON object as the last line of standard output. With `--trace 0`
//! it holds the end-to-end metrics; with `--trace 1` the per-layer
//! metrics of traced replays, interleaved with untraced ones so the
//! tracing overhead is measured too. See `perfbench/README.md`.

mod host;
mod probe;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;

use simcore::stats::Summary;

use host::{Clock, Fingerprint};
use probe::HOOKS;
use workloads::{check, prepare, replay, Outcome, Probe, SimMetrics, TraceStats, Workload};

/// Fewest replays a run measures, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// Fleet stepping threads in the timed replays.
const FLEET_THREADS: usize = 1;

/// End-to-end metrics, `--trace 0`: name and unit.
const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("goodput_tok_s", "tok/s"),
    ("ttft_p50_ms", "ms"),
    ("ttft_p99_ms", "ms"),
    ("tbt_p50_ms", "ms"),
    ("tbt_p99_ms", "ms"),
    ("ttft_attainment", "fraction"),
    ("tbt_attainment", "fraction"),
    ("finished_frac", "fraction"),
];

/// Per-layer metrics, `--trace 1`, apart from the `engine.hooks.*`
/// counts: name and unit.
const PER_LAYER: [(&str, &str); 41] = [
    ("workload.gen_s", "s"),
    ("workload.requests", "count"),
    ("workload.input_tokens_mean", "tokens"),
    ("workload.reused_token_frac", "fraction"),
    ("estimator.profile_s", "s"),
    ("engine.build_s", "s"),
    ("engine.decode_iters", "count"),
    ("engine.macro_ratio", "fraction"),
    ("engine.requeues", "count"),
    ("engine.preemptions", "count"),
    ("engine.shed", "count"),
    ("serving.step_until_calls", "count"),
    ("serving.step_until_s", "s"),
    ("serving.step_ms_p50", "ms"),
    ("serving.step_ms_p99", "ms"),
    ("serving.finish_s", "s"),
    ("gpusim.events", "count"),
    ("gpusim.events_per_wall_s", "1/s"),
    ("serving.sim_s_per_wall_s", "ratio"),
    ("serving.recovery.crash_victims", "count"),
    ("kvcache.router_hit_rate", "fraction"),
    ("kvcache.holder_frac", "fraction"),
    ("fleet.run_s", "s"),
    ("fleet.route_calls", "count"),
    ("fleet.route_s", "s"),
    ("fleet.route_us_p50", "us"),
    ("fleet.route_us_p99", "us"),
    ("fleet.barrier_s", "s"),
    ("fleet.barrier_us_p50", "us"),
    ("fleet.barrier_us_p99", "us"),
    ("fleet.load_imbalance", "ratio"),
    ("fleet.failover.migrated", "count"),
    ("fleet.failover.migrated_finished", "count"),
    ("fleet.failover.gave_up", "count"),
    ("fleet.health.ejections", "count"),
    ("fleet.health.gray_trips", "count"),
    ("fleet.hedge.launched", "count"),
    ("fleet.hedge.hedge_wins", "count"),
    ("fleet.replication.replicas_pushed", "count"),
    ("fleet.overload.ingress_shed", "count"),
    ("bench.trace_overhead_frac", "fraction"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

fn percentile(values: &[f64], p: f64) -> f64 {
    let mut s = Summary::new();
    for &v in values {
        s.record(v);
    }
    s.percentile(p)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The per-layer metrics of one traced replay.
fn layer_metrics(
    p: &Probe,
    outcome: &Outcome,
    stats: &TraceStats,
    replay_s: f64,
) -> BTreeMap<String, f64> {
    let layers = p.spans.layers();
    let total = |name: &str| layers.get(name).map_or(0.0, |l| l.total_s);
    let calls = |name: &str| layers.get(name).map_or(0, |l| l.calls) as f64;
    let hooks = *p
        .hooks
        .lock()
        .expect("hook totals lock is never held across a panic");
    let reports = outcome.reports();
    let sum = |f: &dyn Fn(&serving::Report) -> u64| reports.iter().map(f).sum::<u64>() as f64;

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("workload.gen_s", total("workload.gen"));
    put("workload.requests", stats.requests as f64);
    put("workload.input_tokens_mean", stats.input_tokens_mean);
    put("workload.reused_token_frac", stats.reused_token_frac);
    put("estimator.profile_s", total("estimator.profile"));
    put("engine.build_s", total("engine.build"));
    for (name, &n) in HOOKS.iter().zip(&hooks.calls) {
        put(&format!("engine.hooks.{name}"), n as f64);
    }
    put("engine.decode_iters", hooks.decode_iters as f64);
    put(
        "engine.macro_ratio",
        if hooks.decode_iters == 0 {
            0.0
        } else {
            hooks.coalesced_iters as f64 / hooks.decode_iters as f64
        },
    );
    put("engine.requeues", sum(&|r| r.counters.requeues));
    put("engine.preemptions", sum(&|r| r.counters.preemptions));
    put("engine.shed", sum(&|r| r.counters.shed));

    // The instance replay is stepped from outside, so its serving calls
    // are spans; a fleet steps its members internally, where only the
    // barrier gaps between picks are visible.
    let steps_ms: Vec<f64> = p
        .spans
        .durations("serving.step_until")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    put("serving.step_until_calls", calls("serving.step_until"));
    put("serving.step_until_s", total("serving.step_until"));
    put("serving.step_ms_p50", percentile(&steps_ms, 50.0));
    put("serving.step_ms_p99", percentile(&steps_ms, 99.0));
    put("serving.finish_s", total("serving.finish"));
    let events = outcome.events() as f64;
    put("gpusim.events", events);
    let sim_wall = if outcome.fleet().is_some() {
        total("fleet.run")
    } else {
        total("serving.step_until")
    };
    put("gpusim.events_per_wall_s", events / sim_wall);
    put("serving.sim_s_per_wall_s", outcome.makespan_s() / replay_s);
    put(
        "serving.recovery.crash_victims",
        sum(&|r| r.recovery.crash_victims),
    );

    let route_us: Vec<f64> = p
        .spans
        .durations("fleet.route")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    let barrier_us: Vec<f64> = p
        .spans
        .durations("fleet.barrier")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    put(
        "kvcache.holder_frac",
        if p.probed == 0 {
            0.0
        } else {
            p.holders as f64 / p.probed as f64
        },
    );
    put("fleet.run_s", total("fleet.run"));
    put("fleet.route_calls", calls("fleet.route"));
    put("fleet.route_s", total("fleet.route"));
    put("fleet.route_us_p50", percentile(&route_us, 50.0));
    put("fleet.route_us_p99", percentile(&route_us, 99.0));
    put("fleet.barrier_s", total("fleet.barrier"));
    put("fleet.barrier_us_p50", percentile(&barrier_us, 50.0));
    put("fleet.barrier_us_p99", percentile(&barrier_us, 99.0));
    let f = outcome.fleet();
    let fleet_stat = |g: &dyn Fn(&fleet::FleetReport) -> f64| f.map_or(0.0, g);
    put(
        "kvcache.router_hit_rate",
        fleet_stat(&|f| f.prefix_hit_rate()),
    );
    put("fleet.load_imbalance", fleet_stat(&|f| f.load_imbalance()));
    put(
        "fleet.failover.migrated",
        fleet_stat(&|f| f.failover.migrated as f64),
    );
    put(
        "fleet.failover.migrated_finished",
        fleet_stat(&|f| f.failover.migrated_finished as f64),
    );
    put(
        "fleet.failover.gave_up",
        fleet_stat(&|f| f.failover.gave_up as f64),
    );
    put(
        "fleet.health.ejections",
        fleet_stat(&|f| f.health.ejections as f64),
    );
    put(
        "fleet.health.gray_trips",
        fleet_stat(&|f| f.health.gray_trips as f64),
    );
    put(
        "fleet.hedge.launched",
        fleet_stat(&|f| f.hedge.launched as f64),
    );
    put(
        "fleet.hedge.hedge_wins",
        fleet_stat(&|f| f.hedge.hedge_wins as f64),
    );
    put(
        "fleet.replication.replicas_pushed",
        fleet_stat(&|f| f.replication.replicas_pushed as f64),
    );
    put(
        "fleet.overload.ingress_shed",
        fleet_stat(&|f| f.overload.ingress_shed as f64),
    );
    m
}

/// Every per-layer metric name with its unit, in output order.
fn per_layer_names() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(HOOKS.iter().map(|h| (format!("engine.hooks.{h}"), "count")))
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <instance-sharegpt|fleet-sessions|fleet-faults> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let fp = Fingerprint::probe();
    println!(
        "{{\"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"calib_mops\": {}}}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"fleet_threads\": {FLEET_THREADS}, \"loop\": \"open\", \"generator_lateness_s\": 0}}",
        fp.nproc,
        json_str(&fp.cpu_model),
        fp.calib_mops,
        json_str(w.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );

    let budget = Clock::start();
    let mut setup_s = Vec::new();
    let mut wall_s = Vec::new();
    let mut traced_wall_s = Vec::new();
    let mut layer_runs: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut last_layers = BTreeMap::new();
    let mut first: Option<(Outcome, TraceStats, SimMetrics)> = None;
    let mut errors: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    while errors.is_empty() {
        // Untraced replay: set-up and replay timed as two intervals.
        let clock = Clock::start();
        let prepared = prepare(w, args.seed, FLEET_THREADS, None);
        let t_setup = clock.secs();
        let (stats, slo) = (prepared.stats, prepared.slo);
        let outcome = replay(prepared, None);
        let t_end = clock.secs();
        setup_s.push(t_setup);
        wall_s.push(t_end - t_setup);
        attempted += 1;
        match &first {
            None => {
                let sim = SimMetrics::of(&outcome, stats.requests, &slo);
                let errs = check(&outcome, &stats, &sim);
                if !errs.is_empty() {
                    failed += 1;
                    errors.extend(errs);
                }
                first = Some((outcome, stats, sim));
            }
            Some((reference, _, _)) => {
                if outcome != *reference {
                    failed += 1;
                    errors.push(format!(
                        "replay {attempted} differs from replay 1 (digest {:016x} vs {:016x})",
                        outcome.digest(),
                        reference.digest()
                    ));
                }
            }
        }

        if args.trace && errors.is_empty() {
            let mut p = Probe::new(Clock::start());
            p.enter("setup");
            let prepared = prepare(w, args.seed, FLEET_THREADS, Some(&mut p));
            p.exit();
            let stats = prepared.stats;
            let root = p.enter("replay");
            let outcome = replay(prepared, Some(&mut p));
            p.exit();
            let replay_s = p.spans.duration(root);
            attempted += 1;
            let (reference, _, _) = first.as_ref().expect("an untraced replay ran first");
            if outcome != *reference {
                failed += 1;
                errors.push(format!(
                    "traced replay differs from the untraced one (digest {:016x} vs {:016x})",
                    outcome.digest(),
                    reference.digest()
                ));
            }
            traced_wall_s.push(replay_s);
            layer_runs.push(layer_metrics(&p, &outcome, &stats, replay_s));
            last_layers = p.spans.layers();
        }

        if budget.secs() >= args.seconds && wall_s.len() >= MIN_REPS {
            break;
        }
    }

    // Untimed: the fleet report must not depend on the stepping thread
    // count.
    let threads = host::nproc().max(2);
    if errors.is_empty() && w.is_fleet() {
        let outcome = replay(prepare(w, args.seed, threads, None), None);
        attempted += 1;
        let (reference, _, _) = first.as_ref().expect("an untraced replay ran first");
        if outcome != *reference {
            failed += 1;
            errors.push(format!(
                "fleet report at {threads} threads differs from 1 thread (digest {:016x} vs {:016x})",
                outcome.digest(),
                reference.digest()
            ));
        }
    }

    let Some((reference, stats, sim)) = first else {
        eprintln!("perfbench: no replay ran");
        return ExitCode::FAILURE;
    };
    println!(
        "{{\"replays\": {attempted}, \"timed_replays\": {}, \"digest\": \"{:016x}\", \
         \"requests\": {}, \"ttft_samples\": {}, \"tbt_samples\": {}, \
         \"threads_checked\": {}}}",
        wall_s.len(),
        reference.digest(),
        stats.requests,
        sim.ttft_samples,
        sim.tbt_samples,
        if w.is_fleet() {
            format!("[{FLEET_THREADS}, {threads}]")
        } else {
            "[]".to_string()
        },
    );

    let mut metrics: Vec<(String, &'static str, f64)> = Vec::new();
    if args.trace {
        if !last_layers.is_empty() {
            let rows: Vec<String> = last_layers
                .iter()
                .map(|(name, l)| {
                    format!(
                        "{}: {{\"calls\": {}, \"total_s\": {}, \"self_s\": {}}}",
                        json_str(name),
                        l.calls,
                        l.total_s,
                        l.self_s
                    )
                })
                .collect();
            println!("{{\"spans\": {{{}}}}}", rows.join(", "));
        }
        let untraced = median(&wall_s);
        for (name, unit) in per_layer_names() {
            let value = if name == "bench.trace_overhead_frac" {
                median(&traced_wall_s) / untraced - 1.0
            } else {
                let runs: Vec<f64> = layer_runs
                    .iter()
                    .filter_map(|m| m.get(&name).copied())
                    .collect();
                if runs.len() != layer_runs.len() {
                    errors.push(format!("per-layer metric {name} was not produced"));
                }
                median(&runs)
            };
            metrics.push((name, unit, value));
        }
    } else {
        let rss = host::peak_rss_mb().unwrap_or_else(|| {
            errors.push("cannot read VmHWM from /proc/self/status".to_string());
            0.0
        });
        let values = [
            median(&setup_s),
            median(&wall_s),
            rss,
            sim.goodput_tok_s,
            sim.ttft_p50_ms,
            sim.ttft_p99_ms,
            sim.tbt_p50_ms,
            sim.tbt_p99_ms,
            sim.ttft_attainment,
            sim.tbt_attainment,
            sim.finished_frac,
        ];
        for (&(name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), unit, value));
        }
    }
    for (name, _, value) in &metrics {
        if !value.is_finite() {
            errors.push(format!("metric {name} is not finite"));
        }
    }

    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        body.join(", ")
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
