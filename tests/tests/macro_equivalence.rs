//! Where and how often a run is stepped must not change what it
//! computes. An `Instance` stepped through arbitrary bounds — including
//! bounds on, and a nanosecond either side of, kernel completions —
//! must equal one unbounded run and never step past a bound; and
//! back-to-back runs in one process must equal a fresh run (no state
//! leaks through reused or process-level scratch).
//!
//! The file keeps its historical name: it once A/B-tested each
//! engine's macro-stepped decode fast path against the full launch
//! path. Those fast paths are gone — every engine has one decode-launch
//! path — and so are those tests.

use baselines::{ChunkedPrefill, LoongServe, SglangPd, TemporalMux, WindServe};
use estimator::SoloPredictor;
use gpusim::{ClusterSpec, CtxId, GpuSim, GroupId};
use modelspec::{ModelSpec, Parallelism};
use muxwise::{Estimators, MuxWise, MuxWiseConfig};
use serving::{
    CrashVictim, Driver, EngineCounters, FaultKind, FaultPlan, LeaseTable, Report, ReqId,
    Scheduler, ServeCtx, SloSpec, WatchdogConfig,
};
use simcore::{SimDuration, SimRng, SimTime};
use workload::{generate, WorkloadKind};

fn engines() -> Vec<(&'static str, Box<dyn Scheduler>)> {
    let cluster = ClusterSpec::dgx_a100();
    let model = ModelSpec::llama8b();
    let slo = SloSpec::llama8b();
    let est = Estimators::profile(&model, &cluster, 8);
    let par = Parallelism::tp(8, cluster.nvlink_gbs);
    vec![
        (
            "muxwise",
            Box::new(MuxWise::new(
                &model,
                &cluster,
                8,
                slo,
                est,
                MuxWiseConfig::default(),
            )) as Box<dyn Scheduler>,
        ),
        (
            "chunked",
            Box::new(ChunkedPrefill::tuned(&model, &cluster, 8, slo)),
        ),
        (
            "nanoflow",
            Box::new(ChunkedPrefill::nanoflow(&model, &cluster, 8, slo)),
        ),
        (
            "loongserve",
            Box::new(LoongServe::new(&model, &cluster, 2, slo)),
        ),
        ("sglang-pd", Box::new(SglangPd::new(&model, &cluster, slo))),
        (
            "windserve",
            Box::new(WindServe::new(&model, &cluster, 8, slo)),
        ),
        (
            "temporal",
            Box::new(TemporalMux::new(
                &model,
                &cluster,
                8,
                slo,
                SoloPredictor::profile(&model, &cluster, &par, &[cluster.gpu.sm_count]),
            )),
        ),
    ]
}

fn run_one(engine: &mut dyn Scheduler, plan: FaultPlan, seed: u64, n: usize) -> Report {
    let cluster = ClusterSpec::dgx_a100();
    let slo = SloSpec::llama8b();
    let mut rng = SimRng::seed_from(seed);
    let reqs = generate(WorkloadKind::ShareGpt, n, 2.0, &mut rng);
    Driver::new(GpuSim::from_cluster(&cluster), reqs, slo)
        .with_max_sim_time(SimTime::from_secs(600.0))
        .with_faults(plan)
        .with_watchdog(WatchdogConfig::default())
        .run(engine)
}

/// Back-to-back runs in one process equal each other exactly: no state
/// (scratch buffers, slab generations, estimator caches) leaks between
/// runs through anything process-global.
#[test]
fn back_to_back_runs_match_fresh_runs() {
    let plan = FaultPlan::generate_with_crashes(0x5C_0DE, 0.6, 15.0, 8);
    for (idx, (name, _)) in engines().iter().enumerate() {
        let run = || {
            let (_, mut engine) = engines().remove(idx);
            run_one(engine.as_mut(), plan.clone(), 0x5C_0DE, 30)
        };
        let first = run();
        let second = run();
        let third = run();
        assert_eq!(&first, &second, "{name}: second run diverged from fresh");
        assert_eq!(&first, &third, "{name}: third run diverged from fresh");
    }
}

/// Forwards every hook to the wrapped engine, recording the instant of
/// each kernel-completion callback it delivers.
struct CompletionLog {
    inner: Box<dyn Scheduler>,
    done_at: Vec<SimTime>,
}

impl Scheduler for CompletionLog {
    fn on_start(&mut self, ctx: &mut ServeCtx) {
        self.inner.on_start(ctx);
    }
    fn on_arrival(&mut self, id: ReqId, ctx: &mut ServeCtx) {
        self.inner.on_arrival(id, ctx);
    }
    fn on_kernel_done(&mut self, tag: u64, ctx: &mut ServeCtx) {
        self.done_at.push(ctx.now());
        self.inner.on_kernel_done(tag, ctx);
    }
    fn on_transfer_done(&mut self, tag: u64, ctx: &mut ServeCtx) {
        self.inner.on_transfer_done(tag, ctx);
    }
    fn on_timer(&mut self, tag: u64, ctx: &mut ServeCtx) {
        self.inner.on_timer(tag, ctx);
    }
    fn groups(&self) -> Vec<GroupId> {
        self.inner.groups()
    }
    fn streams(&self) -> Vec<(GroupId, CtxId)> {
        self.inner.streams()
    }
    fn counters(&self) -> EngineCounters {
        self.inner.counters()
    }
    fn lease_tables(&self) -> Vec<&LeaseTable> {
        self.inner.lease_tables()
    }
    fn lease_tables_mut(&mut self) -> Vec<&mut LeaseTable> {
        self.inner.lease_tables_mut()
    }
    fn on_fault(&mut self, active: &[FaultKind], ctx: &mut ServeCtx) {
        self.inner.on_fault(active, ctx);
    }
    fn on_shed(&mut self, id: ReqId, ctx: &mut ServeCtx) -> bool {
        self.inner.on_shed(id, ctx)
    }
    fn on_gpu_lost(&mut self, gpu: u32, cancelled: &[u64], ctx: &mut ServeCtx) -> Vec<CrashVictim> {
        self.inner.on_gpu_lost(gpu, cancelled, ctx)
    }
    fn on_gpu_recovered(&mut self, gpu: u32, ctx: &mut ServeCtx) {
        self.inner.on_gpu_recovered(gpu, ctx);
    }
}

/// What one bounded run observed: the report, the simulator's event
/// count, the instance time each `step_until` left, and the instants of
/// the completion callbacks the driver delivered.
struct BoundedRun {
    report: Report,
    events: u64,
    stopped_at: Vec<SimTime>,
    done_at: Vec<SimTime>,
}

/// Steps a MuxWise `Instance` through `bounds` and then to the end.
fn run_bounded(plan: &FaultPlan, bounds: &[SimTime]) -> BoundedRun {
    let (_, inner) = engines().remove(0);
    let mut engine = CompletionLog {
        inner,
        done_at: Vec::new(),
    };
    let cluster = ClusterSpec::dgx_a100();
    let mut rng = SimRng::seed_from(0xB0_0D);
    let reqs = generate(WorkloadKind::ShareGpt, 30, 2.0, &mut rng);
    let mut inst = Driver::new(GpuSim::from_cluster(&cluster), reqs, SloSpec::llama8b())
        .with_max_sim_time(SimTime::from_secs(600.0))
        .with_faults(plan.clone())
        .with_watchdog(WatchdogConfig::default())
        .into_instance(&mut engine);
    let mut stopped_at = Vec::new();
    for &b in bounds {
        inst.step_until(&mut engine, b);
        stopped_at.push(inst.now());
    }
    inst.step_until(&mut engine, SimTime::MAX);
    let (report, events) = inst.finish(&mut engine);
    BoundedRun {
        report,
        events,
        stopped_at,
        done_at: engine.done_at,
    }
}

/// An `Instance` stepped at random bounds — and at bounds landing
/// exactly on, and a nanosecond either side of, kernel completions —
/// reports, counts events and delivers completions exactly as one
/// unbounded run does, and never steps past a bound.
#[test]
fn bounded_stepping_is_bit_identical_to_an_unbounded_run() {
    let plans = [
        ("clean", FaultPlan::default()),
        (
            "crashy",
            FaultPlan::generate_with_crashes(0xB0_0D, 0.6, 15.0, 8),
        ),
    ];
    for (plan_name, plan) in &plans {
        let unbounded = run_bounded(plan, &[]);
        let done_at = &unbounded.done_at;
        assert!(done_at.len() > 100, "{plan_name}: too few completions");
        let end = unbounded.report.makespan.as_secs();
        let mut rng = SimRng::seed_from(0x5EED);
        let mut bounds: Vec<SimTime> = (0..40)
            .map(|_| SimTime::from_secs(rng.uniform(0.0, end)))
            .collect();
        let one_ns = SimDuration::from_nanos(1);
        for &t in done_at.iter().step_by(done_at.len() / 30) {
            bounds.extend([t - one_ns, t, t + one_ns]);
        }
        bounds.sort();
        bounds.dedup();
        let bounded = run_bounded(plan, &bounds);
        assert_eq!(
            &bounded.report, &unbounded.report,
            "{plan_name}: bounded report diverged from the unbounded run"
        );
        assert_eq!(
            bounded.events, unbounded.events,
            "{plan_name}: event counts differ"
        );
        assert_eq!(&bounded.done_at, done_at, "{plan_name}: completions differ");
        for (&now, &b) in bounded.stopped_at.iter().zip(&bounds) {
            assert!(now <= b, "{plan_name}: stepped to {now} past the bound {b}");
        }
    }
}
