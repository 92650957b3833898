//! The three workloads: how each is set up from a seed, replayed through
//! the program's public entry points, and checked.
//!
//! Every workload is an open loop: arrivals are seeded simulated
//! timestamps fixed before the replay starts, so the load never waits
//! for the system and the generator is never late.

use std::sync::{Arc, Mutex};

use bench::systems::{SystemKind, Testbed};
use fleet::{
    Fleet, FleetReport, HedgeConfig, PathClass, PrefixAffinity, ReplicationConfig, RoutePolicy,
};
use gpusim::GpuSim;
use serving::{
    Driver, FaultKind, FaultPlan, Report, Scheduler, SloSpec, StepOutcome, WatchdogConfig,
};
use simcore::stats::Summary;
use simcore::{SimDuration, SimRng, SimTime};
use workload::{generate, generate_fleet_stream, RequestSpec, WorkloadKind};

use crate::host::Clock;
use crate::probe::{CountingScheduler, HookTotals, Spans, TimedPolicy};

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One MuxWise instance, single-turn ShareGPT, Poisson just under the
    /// SLO knee: the single-instance hot path.
    InstanceShareGpt,
    /// A crash-free MuxWise fleet behind `PrefixAffinity`, multi-turn
    /// sessions: barrier stepping and router signal collection.
    FleetSessions,
    /// A mixed fleet with fail-stops, latency spikes, failover, R=2
    /// replication and hedging: the fault-tolerance tiers.
    FleetFaults,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload::InstanceShareGpt,
    Workload::FleetSessions,
    Workload::FleetFaults,
];

impl Workload {
    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::InstanceShareGpt => "instance-sharegpt",
            Workload::FleetSessions => "fleet-sessions",
            Workload::FleetFaults => "fleet-faults",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload replays through `fleet::Fleet`.
    pub fn is_fleet(self) -> bool {
        self != Workload::InstanceShareGpt
    }
}

/// `instance-sharegpt`: requests in the trace.
const SHAREGPT_REQUESTS: usize = 30_000;
/// `instance-sharegpt`: Poisson arrival rate, requests per simulated
/// second. Below the SLO knee, where TTFT attainment is 1.00 and the
/// latency tails are steady from seed to seed; from about 176 req/s the
/// P99 TTFT moves by a third between seeds, and at 256 TTFT attainment
/// falls to about 0.5.
const SHAREGPT_RATE: f64 = 144.0;
/// Simulated length of one `step_until` slice in the traced
/// `instance-sharegpt` replay.
const STEP_SLICE: SimDuration = SimDuration::from_nanos(50_000_000);

/// Both fleets: mean think time between a session's turns, seconds.
const THINK_SECS: f64 = 8.0;

/// `fleet-sessions`: MuxWise members.
const SESSIONS_MEMBERS: usize = 100;
/// `fleet-sessions`: sessions per member in the global stream.
const SESSIONS_PER_MEMBER: usize = 32;
/// `fleet-sessions`: session arrivals per member per simulated second.
/// Slow enough that sessions arrive over 1 600 simulated seconds: the
/// fleet makespan (goodput's denominator) then no longer hinges on how
/// long the last few sessions happen to think.
const SESSIONS_RATE: f64 = 0.02;

/// `fleet-faults`: members (MuxWise, Chunked, SGLang-PD, MuxWise in
/// turn).
const FAULTS_MEMBERS: usize = 64;
/// `fleet-faults`: sessions per member in the global stream.
const FAULTS_SESSIONS_PER_MEMBER: usize = 32;
/// `fleet-faults`: session arrivals per member per simulated second.
const FAULTS_RATE: f64 = 0.5;
/// `fleet-faults`: first permanent fail-stop, simulated seconds. Late
/// enough that sessions have come back for later turns, so the
/// replicator has hot prefixes to mirror.
const FIRST_CRASH_SECS: f64 = 25.0;
/// `fleet-faults`: gap between successive members' fail-stops.
const CRASH_STAGGER_SECS: f64 = 0.75;
/// `fleet-faults`: kernel-latency-spike window start and length,
/// simulated seconds, and its slowdown.
const SPIKE_START_SECS: f64 = 15.0;
const SPIKE_LEN_SECS: f64 = 90.0;
const SPIKE_MULT: f64 = 20.0;

/// What the generated trace looks like, for the `workload.*` metrics.
#[derive(Debug, Clone, Copy)]
pub struct TraceStats {
    /// Requests in the trace.
    pub requests: usize,
    /// Mean input tokens per request.
    pub input_tokens_mean: f64,
    /// Share of input tokens that a previous turn or a shared prompt
    /// already produced (reusable if still cached).
    pub reused_token_frac: f64,
}

impl TraceStats {
    fn of(trace: &[RequestSpec]) -> TraceStats {
        let input: u64 = trace.iter().map(RequestSpec::input_tokens).sum();
        let reused: u64 = trace.iter().map(|r| r.prior_context).sum();
        TraceStats {
            requests: trace.len(),
            input_tokens_mean: input as f64 / trace.len().max(1) as f64,
            reused_token_frac: reused as f64 / input.max(1) as f64,
        }
    }
}

/// Instrumentation state of one traced replay.
pub struct Probe {
    /// Spans of the replay, setup included.
    pub spans: Spans,
    /// Hook counts of every wrapped engine.
    pub hooks: Arc<Mutex<HookTotals>>,
    /// Members whose signal showed a cached prefix, summed over picks.
    pub holders: u64,
    /// Members probed, summed over picks.
    pub probed: u64,
    open: Vec<usize>,
}

impl Probe {
    /// An empty probe timing against `clock`.
    pub fn new(clock: Clock) -> Probe {
        Probe {
            spans: Spans::new(clock),
            hooks: Arc::default(),
            holders: 0,
            probed: 0,
            open: Vec::new(),
        }
    }

    /// Opens a span, child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.open(name, self.open.last().copied());
        self.open.push(id);
        id
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans.close(id);
        }
    }

    /// Runs `f` inside a span.
    pub fn within<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }
}

/// Runs `f` inside a span when tracing, bare otherwise.
fn traced<T>(probe: &mut Option<&mut Probe>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match probe {
        Some(p) => p.within(name, f),
        None => f(),
    }
}

/// A workload ready to replay: everything up to the first `step_until`
/// or `Fleet::run` is done.
pub struct Prepared {
    /// Shape of the generated trace.
    pub stats: TraceStats,
    /// The SLO every member is held to.
    pub slo: SloSpec,
    target: Target,
}

// One target exists per replay and is moved once, so the size gap
// between the variants costs nothing worth a box.
#[allow(clippy::large_enum_variant)]
enum Target {
    Instance {
        driver: Driver,
        engine: Box<dyn Scheduler>,
    },
    Fleet {
        fleet: Fleet,
        trace: Vec<RequestSpec>,
    },
}

/// Builds the workload from `seed`: profiles the testbed, generates the
/// trace and builds the engines (wrapped in counting schedulers when
/// `probe` is set). `threads` is the fleet's stepping thread count.
pub fn prepare(w: Workload, seed: u64, threads: usize, mut probe: Option<&mut Probe>) -> Prepared {
    let tb = traced(&mut probe, "estimator.profile", Testbed::llama8b_a100);
    let trace = traced(&mut probe, "workload.gen", || {
        let mut rng = SimRng::seed_from(seed);
        match w {
            Workload::InstanceShareGpt => generate(
                WorkloadKind::ShareGpt,
                SHAREGPT_REQUESTS,
                SHAREGPT_RATE,
                &mut rng,
            ),
            Workload::FleetSessions => generate_fleet_stream(
                WorkloadKind::Conversation,
                SESSIONS_MEMBERS,
                SESSIONS_PER_MEMBER,
                SESSIONS_RATE,
                THINK_SECS,
                &mut rng,
            ),
            Workload::FleetFaults => generate_fleet_stream(
                WorkloadKind::Conversation,
                FAULTS_MEMBERS,
                FAULTS_SESSIONS_PER_MEMBER,
                FAULTS_RATE,
                THINK_SECS,
                &mut rng,
            ),
        }
    });
    let stats = TraceStats::of(&trace);
    let sink = probe.as_ref().map(|p| Arc::clone(&p.hooks));
    let wrap = |engine: Box<dyn Scheduler>| -> Box<dyn Scheduler> {
        match &sink {
            Some(s) => Box::new(CountingScheduler::new(engine, Arc::clone(s))),
            None => engine,
        }
    };
    let target = traced(&mut probe, "engine.build", || match w {
        Workload::InstanceShareGpt => Target::Instance {
            engine: wrap(build_engine(&tb, SystemKind::MuxWise)),
            driver: Driver::new(GpuSim::from_cluster(&tb.cluster), trace, tb.slo),
        },
        Workload::FleetSessions | Workload::FleetFaults => Target::Fleet {
            fleet: build_fleet(&tb, w, threads, &wrap),
            trace,
        },
    });
    Prepared {
        stats,
        slo: tb.slo,
        target,
    }
}

fn build_engine(tb: &Testbed, kind: SystemKind) -> Box<dyn Scheduler> {
    tb.build(kind)
        .unwrap_or_else(|| panic!("{} fits Llama-8B on 8xA100", kind.name()))
}

/// Member `i` of `fleet-faults`: its engine, path and fault plan. Kinds
/// rotate MuxWise, Chunked, SGLang-PD (split path), MuxWise. One member
/// in 8 takes a permanent GPU fail-stop, staggered in time; another one
/// in 8 takes a kernel-latency-spike window.
fn faults_member(tb: &Testbed, i: usize) -> (SystemKind, PathClass, FaultPlan) {
    let (kind, class) = match i % 4 {
        1 => (SystemKind::Chunked, PathClass::SingleNode),
        2 => (SystemKind::SglangPd, PathClass::Split),
        _ => (SystemKind::MuxWise, PathClass::SingleNode),
    };
    let wave = (i / 8) as u32;
    let plan = match i % 8 {
        1 => {
            let start = FIRST_CRASH_SECS + f64::from(wave) * CRASH_STAGGER_SECS;
            FaultPlan::single(
                FaultKind::GpuFailStopPermanent {
                    gpu: wave % tb.cluster.num_gpus,
                },
                SimTime::from_secs(start),
                SimTime::from_secs(1e9),
            )
        }
        4 => FaultPlan::single(
            FaultKind::KernelLatencySpike {
                mult: SPIKE_MULT,
                duration: SimDuration::from_secs(SPIKE_LEN_SECS),
            },
            SimTime::from_secs(SPIKE_START_SECS),
            SimTime::from_secs(SPIKE_START_SECS + SPIKE_LEN_SECS),
        ),
        _ => FaultPlan::none(),
    };
    (kind, class, plan)
}

fn build_fleet(
    tb: &Testbed,
    w: Workload,
    threads: usize,
    wrap: &dyn Fn(Box<dyn Scheduler>) -> Box<dyn Scheduler>,
) -> Fleet {
    let mut fleet = Fleet::new().with_threads(threads);
    let members = match w {
        Workload::FleetFaults => {
            fleet = fleet
                .with_replication(ReplicationConfig {
                    factor: 2,
                    ..ReplicationConfig::default()
                })
                .with_hedging(HedgeConfig::default());
            FAULTS_MEMBERS
        }
        _ => SESSIONS_MEMBERS,
    };
    for i in 0..members {
        let (kind, class, plan) = match w {
            Workload::FleetFaults => faults_member(tb, i),
            _ => (
                SystemKind::MuxWise,
                PathClass::SingleNode,
                FaultPlan::none(),
            ),
        };
        let driver = Driver::new(GpuSim::from_cluster(&tb.cluster), Vec::new(), tb.slo)
            .with_watchdog(WatchdogConfig::default())
            .with_faults(plan);
        fleet.push(
            driver,
            wrap(build_engine(tb, kind)),
            class,
            format!("{}#{i}", kind.name()),
        );
    }
    fleet
}

/// What one replay produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// `instance-sharegpt`: the report and the simulator's event count.
    Instance {
        /// The run's report.
        report: Report,
        /// Simulator boundary events processed.
        events: u64,
    },
    /// A fleet workload's report.
    Fleet(FleetReport),
}

/// Replays a prepared workload. Untraced, this is exactly the program's
/// own entry point (`Driver::run_stats` or `Fleet::run`). Traced, the
/// instance is stepped in fixed simulated slices and the fleet's router
/// is wrapped in a [`TimedPolicy`]; the reports must come out equal.
pub fn replay(prepared: Prepared, probe: Option<&mut Probe>) -> Outcome {
    match (prepared.target, probe) {
        (Target::Instance { driver, mut engine }, None) => {
            let (report, events) = driver.run_stats(engine.as_mut());
            Outcome::Instance { report, events }
        }
        (Target::Instance { driver, mut engine }, Some(p)) => {
            let engine = engine.as_mut();
            let mut inst = p.within("serving.start", || driver.into_instance(engine));
            let mut lim = SimTime::ZERO;
            loop {
                lim += STEP_SLICE;
                match p.within("serving.step_until", || inst.step_until(engine, lim)) {
                    StepOutcome::Pending(_) => {}
                    StepOutcome::Idle | StepOutcome::Done => break,
                }
            }
            // The whole trace was queued up front, so Idle means drained;
            // the unbounded step closes the run exactly as `run_stats`
            // does.
            p.within("serving.step_until", || {
                inst.step_until(engine, SimTime::MAX)
            });
            let (report, events) = p.within("serving.finish", || inst.finish(engine));
            Outcome::Instance { report, events }
        }
        (Target::Fleet { fleet, trace }, None) => {
            Outcome::Fleet(fleet.run(&trace, &mut PrefixAffinity::default()))
        }
        (Target::Fleet { fleet, trace }, Some(p)) => {
            let mut policy = TimedPolicy::new(PrefixAffinity::default(), p.spans.clock());
            let run = p.enter("fleet.run");
            let report = fleet.run(&trace, &mut policy as &mut dyn RoutePolicy);
            p.exit();
            for &(start, end) in &policy.route {
                p.spans.push("fleet.route", start, end, Some(run));
            }
            for &(start, end) in &policy.barrier {
                p.spans.push("fleet.barrier", start, end, Some(run));
            }
            p.holders += policy.holders;
            p.probed += policy.probed;
            Outcome::Fleet(report)
        }
    }
}

impl Outcome {
    /// Member reports (one for `instance-sharegpt`).
    pub fn reports(&self) -> &[Report] {
        match self {
            Outcome::Instance { report, .. } => std::slice::from_ref(report),
            Outcome::Fleet(f) => &f.reports,
        }
    }

    /// The fleet report, if this is a fleet workload.
    pub fn fleet(&self) -> Option<&FleetReport> {
        match self {
            Outcome::Instance { .. } => None,
            Outcome::Fleet(f) => Some(f),
        }
    }

    /// Simulator boundary events, all members.
    pub fn events(&self) -> u64 {
        match self {
            Outcome::Instance { events, .. } => *events,
            Outcome::Fleet(f) => f.total_events(),
        }
    }

    /// Simulated makespan, seconds (the slowest member's, for a fleet).
    pub fn makespan_s(&self) -> f64 {
        match self {
            Outcome::Instance { report, .. } => report.makespan.as_secs(),
            Outcome::Fleet(f) => f.makespan_secs(),
        }
    }

    /// SLO-attaining output tokens per simulated second: Σ tokens × TTFT
    /// attainment × TBT attainment ÷ makespan, the
    /// `FleetReport::goodput_tokens_per_sec` formula.
    pub fn goodput_tok_s(&self) -> f64 {
        match self {
            Outcome::Instance { report, .. } => {
                let span = report.makespan.as_secs();
                if span <= 0.0 {
                    return 0.0;
                }
                report.total_tokens as f64 * report.ttft_attainment() * report.tbt_attainment()
                    / span
            }
            Outcome::Fleet(f) => f.goodput_tokens_per_sec(),
        }
    }

    /// FNV-1a digest of every report field, latency samples bit for bit.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        for r in self.reports() {
            for s in [&r.ttft, &r.tbt, &r.tpot, &r.e2e, &r.ttft_per_token] {
                for v in s.samples() {
                    h.bytes(&v.to_bits().to_le_bytes());
                }
            }
            let rest = format!(
                "{} {} {} {} {} {} {:?} {:?} {} {} {} {:?} {:?} {:?}",
                r.finished,
                r.total,
                r.total_tokens,
                r.shed,
                r.cancelled,
                r.cancelled_tokens,
                r.makespan,
                r.slo,
                r.utilization.to_bits(),
                r.bubble_ratio.to_bits(),
                r.diverged,
                r.recovery_secs.map(f64::to_bits),
                r.recovery,
                r.counters,
            );
            h.bytes(rest.as_bytes());
        }
        if let Some(f) = self.fleet() {
            let rest = format!(
                "{:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?}",
                f.labels,
                f.events,
                f.routed,
                f.routing,
                f.failover,
                f.replication,
                f.health,
                f.hedge,
                f.overload
            );
            h.bytes(rest.as_bytes());
        }
        h.0
    }
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The simulated end-to-end metrics of one outcome.
#[derive(Debug, Clone, Copy)]
pub struct SimMetrics {
    /// SLO-attaining output tokens per simulated second.
    pub goodput_tok_s: f64,
    /// Median TTFT over every member's samples, ms.
    pub ttft_p50_ms: f64,
    /// 99th-percentile TTFT, ms.
    pub ttft_p99_ms: f64,
    /// Median token gap, ms.
    pub tbt_p50_ms: f64,
    /// 99th-percentile token gap, ms.
    pub tbt_p99_ms: f64,
    /// TTFT samples within the limit ÷ requests in the trace (shed and
    /// unfinished requests count as misses).
    pub ttft_attainment: f64,
    /// Token gaps within the TBT limit ÷ token gaps.
    pub tbt_attainment: f64,
    /// Finished copies ÷ requests in the trace.
    pub finished_frac: f64,
    /// TTFT samples behind the percentiles.
    pub ttft_samples: usize,
    /// Token-gap samples behind the percentiles.
    pub tbt_samples: usize,
}

impl SimMetrics {
    /// Computes the metrics of `outcome` against a trace of
    /// `trace_len` requests held to `slo`.
    pub fn of(outcome: &Outcome, trace_len: usize, slo: &SloSpec) -> SimMetrics {
        let mut ttft = Summary::new();
        let mut tbt = Summary::new();
        let mut finished = 0usize;
        for r in outcome.reports() {
            ttft.merge(&r.ttft);
            tbt.merge(&r.tbt);
            finished += r.finished;
        }
        let trace_len = trace_len.max(1) as f64;
        let ttft_ok = ttft
            .samples()
            .iter()
            .filter(|&&v| v <= slo.ttft.as_secs())
            .count();
        SimMetrics {
            goodput_tok_s: outcome.goodput_tok_s(),
            ttft_p50_ms: ttft.p50() * 1e3,
            ttft_p99_ms: ttft.p99() * 1e3,
            tbt_p50_ms: tbt.p50() * 1e3,
            tbt_p99_ms: tbt.p99() * 1e3,
            // Copies are counted: a migrated crash victim can leave a
            // first-token sample on both its members, and both copies of
            // a hedged request can finish before the race is settled, so
            // on `fleet-faults` these two ratios can exceed 1 slightly.
            ttft_attainment: ttft_ok as f64 / trace_len,
            tbt_attainment: tbt.fraction_le(slo.tbt.as_secs()),
            finished_frac: finished as f64 / trace_len,
            ttft_samples: ttft.len(),
            tbt_samples: tbt.len(),
        }
    }
}

/// Fewest latency samples a reported percentile may rest on.
pub const MIN_SAMPLES: usize = 1_000;

/// Checks the invariants every replay must keep; returns one line per
/// violation.
pub fn check(outcome: &Outcome, stats: &TraceStats, sim: &SimMetrics) -> Vec<String> {
    let mut errors = Vec::new();
    for (i, r) in outcome.reports().iter().enumerate() {
        if r.finished + r.shed + r.cancelled != r.total {
            errors.push(format!(
                "member {i}: finished {} + shed {} + cancelled {} != total {}",
                r.finished, r.shed, r.cancelled, r.total
            ));
        }
        if r.counters.leaked_leases != 0 {
            errors.push(format!(
                "member {i}: {} leaked KV lease(s)",
                r.counters.leaked_leases
            ));
        }
    }
    match outcome {
        Outcome::Instance { report, .. } if report.total != stats.requests => errors.push(format!(
            "instance saw {} requests, trace has {}",
            report.total, stats.requests
        )),
        Outcome::Fleet(f) => {
            let offered = f.routing.requests + f.overload.ingress_shed;
            if offered != stats.requests as u64 {
                errors.push(format!(
                    "fleet routed {} + shed at ingress {} != {} trace requests",
                    f.routing.requests, f.overload.ingress_shed, stats.requests
                ));
            }
        }
        _ => {}
    }
    if sim.ttft_samples < MIN_SAMPLES || sim.tbt_samples < MIN_SAMPLES {
        errors.push(format!(
            "percentiles rest on {} TTFT / {} TBT samples, fewer than {MIN_SAMPLES}",
            sim.ttft_samples, sim.tbt_samples
        ));
    }
    if sim.finished_frac <= 0.0 || sim.goodput_tok_s <= 0.0 {
        errors.push("no request finished, or goodput is 0".to_string());
    }
    errors
}
