//! Macro-stepped decode is a pure launch-path optimization: every
//! engine must produce a bit-identical [`Report`] with the fast path
//! enabled or disabled, under clean runs, degradation windows, and
//! crash schedules. Also guards scratch-buffer hygiene: back-to-back
//! runs in one process must equal a fresh run (no state leaks through
//! reused or process-level scratch).

use baselines::{ChunkedPrefill, LoongServe, SglangPd, TemporalMux, WindServe};
use estimator::SoloPredictor;
use gpusim::{ClusterSpec, CtxId, GpuSim, GroupId};
use modelspec::{ModelSpec, Parallelism};
use muxwise::{Estimators, MuxWise, MuxWiseConfig};
use proptest::prelude::*;
use serving::{
    CrashVictim, Driver, EngineCounters, FaultKind, FaultPlan, LeaseTable, Report, ReqId,
    Scheduler, ServeCtx, SloSpec, StepOutcome, WatchdogConfig,
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

/// Runs the named engine twice — macro-stepping on, then off — and
/// returns both reports plus the on-run's `(iters, coalesced)` stats.
fn run_both_ways(
    idx: usize,
    plan: &FaultPlan,
    seed: u64,
    n: usize,
) -> (Report, Report, (u64, u64)) {
    let (_, mut fast) = engines().remove(idx);
    fast.set_macro_steps(true);
    let rep_fast = run_one(fast.as_mut(), plan.clone(), seed, n);
    let stats = fast.decode_iter_stats();

    let (_, mut slow) = engines().remove(idx);
    slow.set_macro_steps(false);
    let rep_slow = run_one(slow.as_mut(), plan.clone(), seed, n);
    (rep_fast, rep_slow, stats)
}

/// Clean run + a crash-bearing schedule: macro on == macro off for all
/// seven engines, and the engines that implement the fast path actually
/// coalesce (the equivalence would be vacuous otherwise).
#[test]
fn macro_stepping_is_bit_identical_for_every_engine() {
    let plans = [
        ("clean", FaultPlan::default()),
        // Intensity 0.8 draws degradation windows AND fail-stop crashes
        // (crash draws activate above ~0.25), so the macro disarm paths
        // for on_gpu_lost/on_gpu_recovered are exercised.
        (
            "crashy",
            FaultPlan::generate_with_crashes(0xC4A5, 0.8, 15.0, 8),
        ),
    ];
    for (plan_name, plan) in &plans {
        for (idx, (name, _)) in engines().iter().enumerate() {
            let (fast, slow, (iters, coalesced)) = run_both_ways(idx, plan, 0x3AC0, 30);
            assert_eq!(
                &fast, &slow,
                "{name}/{plan_name}: macro-stepped report diverged from single-step"
            );
            if matches!(*name, "muxwise" | "chunked" | "nanoflow") {
                assert!(
                    iters > 0 && coalesced > 0,
                    "{name}/{plan_name}: fast path never armed \
                     ({coalesced}/{iters} coalesced) — equivalence is vacuous"
                );
            }
        }
    }
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
    fn decode_iter_stats(&self) -> (u64, u64) {
        self.inner.decode_iter_stats()
    }
    fn set_macro_steps(&mut self, on: bool) {
        self.inner.set_macro_steps(on);
    }
}

/// What one bounded run observed: the report, the simulator's event
/// count, each `step_until` outcome with the instance time it left, the
/// instants of the completion callbacks the driver delivered, and the
/// engine's macro-coalesced decode iterations.
struct BoundedRun {
    report: Report,
    events: u64,
    steps: Vec<(StepOutcome, SimTime)>,
    done_at: Vec<SimTime>,
    coalesced: u64,
}

/// Steps a MuxWise `Instance` through `bounds` and then to the end.
fn run_bounded(macro_on: bool, plan: &FaultPlan, bounds: &[SimTime]) -> BoundedRun {
    let (_, inner) = engines().remove(0);
    let mut engine = CompletionLog {
        inner,
        done_at: Vec::new(),
    };
    engine.set_macro_steps(macro_on);
    let cluster = ClusterSpec::dgx_a100();
    let mut rng = SimRng::seed_from(0xB0_0D);
    let reqs = generate(WorkloadKind::ShareGpt, 30, 2.0, &mut rng);
    let mut inst = Driver::new(GpuSim::from_cluster(&cluster), reqs, SloSpec::llama8b())
        .with_max_sim_time(SimTime::from_secs(600.0))
        .with_faults(plan.clone())
        .with_watchdog(WatchdogConfig::default())
        .into_instance(&mut engine);
    let mut steps = Vec::new();
    for &b in bounds {
        let outcome = inst.step_until(&mut engine, b);
        steps.push((outcome, inst.now()));
    }
    inst.step_until(&mut engine, SimTime::MAX);
    let (report, events) = inst.finish(&mut engine);
    BoundedRun {
        report,
        events,
        steps,
        coalesced: engine.decode_iter_stats().1,
        done_at: engine.done_at,
    }
}

/// An `Instance` stepped at random bounds — and at bounds landing
/// exactly on, and a nanosecond either side of, kernel completions —
/// reports the same with macro stepping on and off, and never steps a
/// lone decode kernel past a bound.
#[test]
fn bounded_stepping_is_bit_identical_with_macro_on_and_off() {
    let plans = [
        ("clean", FaultPlan::default()),
        (
            "crashy",
            FaultPlan::generate_with_crashes(0xB0_0D, 0.6, 15.0, 8),
        ),
    ];
    for (plan_name, plan) in &plans {
        // Every completion instant, from a run that delivers each one
        // through the driver.
        let BoundedRun {
            report: unbounded,
            done_at,
            ..
        } = run_bounded(false, plan, &[]);
        assert!(done_at.len() > 100, "{plan_name}: too few completions");
        let end = unbounded.makespan.as_secs();
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
        let fast = run_bounded(true, plan, &bounds);
        let slow = run_bounded(false, plan, &bounds);
        assert_eq!(
            &fast.report, &slow.report,
            "{plan_name}: bounded macro-stepped report diverged"
        );
        assert_eq!(fast.events, slow.events, "{plan_name}: event counts differ");
        // Both stop at the same instant with the same outcome, never
        // past a bound, and deliver the same completions.
        assert_eq!(fast.steps, slow.steps, "{plan_name}: step outcomes differ");
        for (&(_, now), &b) in fast.steps.iter().zip(&bounds) {
            assert!(now <= b, "{plan_name}: stepped to {now} past the bound {b}");
        }
        assert_eq!(
            fast.done_at, slow.done_at,
            "{plan_name}: completions differ"
        );
        assert!(
            fast.coalesced > 0,
            "{plan_name}: no macro step taken — equivalence is vacuous"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized fault schedules (degradation + crashes): macro on ==
    /// macro off across every engine, for any (seed, intensity).
    #[test]
    fn macro_stepping_equivalence_holds_under_random_faults(
        seed in 0u64..1_000,
        intensity in 0.0f64..1.0,
    ) {
        let plan = FaultPlan::generate_with_crashes(seed, intensity, 15.0, 8);
        for (idx, (name, _)) in engines().iter().enumerate() {
            let (fast, slow, _) = run_both_ways(idx, &plan, seed, 12);
            prop_assert_eq!(
                &fast, &slow,
                "{}: macro-stepped report diverged (seed {}, intensity {})",
                name, seed, intensity
            );
        }
    }
}
