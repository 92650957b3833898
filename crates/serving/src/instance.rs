//! Resumable driver instances.
//!
//! [`Instance`] is the run loop of [`crate::Driver`] turned into a state
//! machine: all loop-carried state (watchdog bookkeeping, the recovery
//! manager, fault memo, completion scratch buffers) lives in the struct,
//! and [`Instance::step_until`] processes events up to a time bound and
//! returns instead of running to completion. `Driver::run` is a thin
//! wrapper — construct, `step_until(SimTime::MAX)`, [`Instance::finish`]
//! — whose instruction flow is identical to the old monolithic loop, so
//! single-run results stay byte-for-byte what they were.
//!
//! The step API exists for the fleet tier (`crates/fleet`): a router
//! owns N instances, advances each to the next global arrival with
//! `step_until`, and injects routed requests with [`Instance::admit`].
//! Between two bounds an instance touches only its own state, so
//! instances can be stepped on worker threads without perturbing replay.
//!
//! Chopping a run into bounded steps is behavior-preserving because the
//! loop body already processes one instant at a time: a bound only
//! decides how many instants are handled per call, never how one instant
//! is handled. The single caveat (documented in DESIGN.md §13): at an
//! instant where a TTFT-deadline shed and a newly admitted arrival
//! coincide *exactly*, the shed callback can precede the arrival callback
//! where the monolith ordered them the other way round. Arrival times
//! and deadlines are continuous quantities, so the golden equivalence
//! suite pins the absence of such collisions for every engine.

use simcore::SimTime;

use gpusim::{HwDegradation, KernelId, TransferId};
use workload::RequestSpec;

use crate::driver::{Driver, Event, Scheduler, ServeCtx, WatchdogConfig};
use crate::faults::{FaultKind, FaultPlan};
use crate::metrics::Report;
use crate::recovery::{MigratableVictim, RecoveryManager};
use crate::request::{ReqId, SloSpec};

/// What [`Instance::step_until`] observed at its time bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Work remains at or beyond the bound; the payload is the time of
    /// the earliest pending event (queue or simulator).
    Pending(SimTime),
    /// Nothing is queued and the simulator is idle: the instance has
    /// drained everything admitted so far and waits for more work.
    Idle,
    /// The run ended — drained past the time cap or stalled. Only an
    /// unbounded step (`SimTime::MAX`) or a cap/stall can produce this.
    Done,
}

// The fleet tier steps instances on worker threads between merge
// barriers; catch a `Send` regression here, not in a distant spawn.
const _: () = {
    const fn require_send<T: Send>() {}
    require_send::<Instance>();
};

/// A resumable serving run: one scheduler, one GPU simulator, one event
/// queue, steppable to a time bound.
///
/// Built from a [`Driver`] via [`Driver::into_instance`] (which fires
/// `on_start` and enqueues any pre-loaded trace). Requests can also be
/// admitted dynamically with [`Instance::admit`] — that is how the fleet
/// router feeds instances. Call [`Instance::finish`] after an unbounded
/// step to collect the [`Report`].
#[derive(Debug)]
pub struct Instance {
    pub(crate) ctx: ServeCtx,
    slo: SloSpec,
    max_sim_time: SimTime,
    stalled: bool,
    faults: FaultPlan,
    watchdog: Option<WatchdogConfig>,
    // Watchdog bookkeeping (allocated even when disabled — the vecs are
    // cheap and keep the loop branch-light).
    shed_attempted: Vec<bool>,
    defer_count: Vec<u32>,
    /// Delivered requests that may still be in flight, in delivery
    /// order: [`Instance::in_flight`] counts the unresolved ones, and
    /// resolved ones are pruned at every [`Instance::step_until`] return
    /// and before each admission-control check, so the count costs the
    /// live requests rather than every request ever admitted.
    live: Vec<ReqId>,
    /// Delivered-but-tokenless requests watched for deadline shedding,
    /// in delivery order (kept in order so shed attempts replay
    /// identically at any thread count).
    watchlist: Vec<ReqId>,
    fault_retries: u64,
    severe_fault: bool,
    orig_capacities: Option<Vec<u64>>,
    /// Crash failover state, engaged only when the plan schedules a
    /// fail-stop (strict no-op on crash-free runs).
    has_crashes: bool,
    prev_dead: Vec<bool>,
    recovery: RecoveryManager,
    /// Reused completion buffers: the hot loop drains the simulator
    /// into instance-owned scratch instead of allocating per event.
    completed_kernels: Vec<(KernelId, u64)>,
    completed_transfers: Vec<(TransferId, u64)>,
    /// Fault-window memo: boundaries where the active set is unchanged
    /// skip the degradation rebuild (diff, don't rebuild). Fields:
    /// `(active set, severe, gray, kv shrink)`.
    fault_memo: Option<(Vec<FaultKind>, bool, bool, f64)>,
    /// Whether a gray (non-severe, slow-but-alive) fault window is open:
    /// kernel latency spike or HBM/NVLink bandwidth degrade.
    gray_fault: bool,
}

/// What [`Instance::cancel`] did with the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The scheduler still held the request waiting and dropped it
    /// (lease released through the engine's shed path); no further work
    /// will run for it.
    Dropped,
    /// The request was already running and could not be revoked: it is
    /// accounted cancelled now, and its in-flight work drains to a
    /// completion whose tokens and latency are discarded.
    Detached,
    /// The request had already finished, been shed, or been cancelled —
    /// nothing to do.
    AlreadyResolved,
}

impl Instance {
    /// Consumes a configured [`Driver`]: pushes fault boundaries and the
    /// pre-loaded trace, fires `on_start`, and allocates the loop state.
    pub(crate) fn start(driver: Driver, scheduler: &mut dyn Scheduler) -> Instance {
        let Driver {
            mut ctx,
            slo,
            max_sim_time,
            stalled,
            faults,
            watchdog,
        } = driver;
        // Fault boundaries are pushed before arrivals: the event queue is
        // FIFO at equal timestamps, so a window opening at the same
        // instant as an arrival reconfigures the hardware first. (The
        // ordering also holds for dynamically admitted arrivals — every
        // boundary is enqueued here, before any `admit`.)
        for t in faults.boundaries() {
            ctx.queue.push(t, Event::FaultBoundary);
        }
        if !faults.is_empty() {
            ctx.metrics.track_tbt_threshold(slo.tbt.as_secs());
        }
        for (i, r) in ctx.requests.iter().enumerate() {
            ctx.queue.push(r.arrival, Event::Arrival(i));
        }
        scheduler.on_start(&mut ctx);

        let n = ctx.requests.len();
        let has_crashes = faults.has_fail_stop();
        let num_gpus = ctx.gpu.num_gpus() as usize;
        Instance {
            ctx,
            slo,
            max_sim_time,
            stalled,
            faults,
            watchdog,
            shed_attempted: vec![false; n],
            defer_count: vec![0u32; n],
            live: Vec::new(),
            watchlist: Vec::new(),
            fault_retries: 0,
            severe_fault: false,
            orig_capacities: None,
            has_crashes,
            prev_dead: vec![false; num_gpus],
            recovery: RecoveryManager::new(),
            completed_kernels: Vec::new(),
            completed_transfers: Vec::new(),
            fault_memo: None,
            gray_fault: false,
        }
    }

    /// Current simulated time of this instance.
    pub fn now(&self) -> SimTime {
        self.ctx.now
    }

    /// Requests admitted so far.
    pub fn num_requests(&self) -> usize {
        self.ctx.requests.len()
    }

    /// Delivered requests that are neither finished, shed nor cancelled
    /// — the router's queue-depth signal.
    pub fn in_flight(&self) -> usize {
        let metrics = &self.ctx.metrics;
        self.live
            .iter()
            .filter(|&&id| !metrics.is_resolved(id))
            .count()
    }

    /// Drops resolved requests from the live list.
    fn prune_live(&mut self) {
        let metrics = &self.ctx.metrics;
        self.live.retain(|&id| !metrics.is_resolved(id));
    }

    /// Number of currently fail-stopped GPUs — the router's health
    /// signal (0 = healthy).
    pub fn dead_gpus(&self) -> u32 {
        self.ctx.gpu.num_dead_gpus()
    }

    /// Read-only view of the shared serve context (router probes).
    pub fn serve_ctx(&self) -> &ServeCtx {
        &self.ctx
    }

    /// Whether a severe fault window (brownout, KV shrink, fail-stop) is
    /// open right now — the fleet health tracker's degradation signal.
    pub fn in_severe_fault(&self) -> bool {
        self.severe_fault
    }

    /// Whether a gray fault window — a `KernelLatencySpike` or an
    /// HBM/NVLink bandwidth degrade — is open right now. Gray windows
    /// leave every GPU alive and set no severe flag, so without this
    /// signal the fleet breaker is blind to a member that is silently
    /// dragging tail latency.
    pub fn in_gray_fault(&self) -> bool {
        self.gray_fault
    }

    /// Cumulative finished-request latency totals
    /// ([`crate::MetricsRecorder::finished_latency`]): the fleet's
    /// latency-aware health EWMA reads this at merge barriers.
    pub fn finished_latency(&self) -> (u64, f64, u64, f64) {
        self.ctx.metrics.finished_latency()
    }

    /// Whether this instance's plan schedules any fault at all. The
    /// fleet only arms its failover patrol when some member can
    /// misbehave, so crash-free runs replay the exact pre-failover
    /// barrier sequence.
    pub fn has_fault_plan(&self) -> bool {
        !self.faults.is_empty()
    }

    /// The latest scheduled fail-stop start (finite even for permanent
    /// crashes, whose window ends sit past the horizon).
    pub fn fault_horizon(&self) -> Option<SimTime> {
        self.faults.last_fail_stop_start()
    }

    /// Whether a permanent GPU fail-stop has struck this instance: the
    /// device never revives, so victims buffered behind it can safely be
    /// migrated without any risk of the local copy running again.
    pub fn permanently_crashed(&self) -> bool {
        self.faults.permanent_dead_at(self.ctx.now)
    }

    /// Whether `id` finished (fleet failover outcome accounting). A
    /// cancelled hedge loser that drained to completion does not count —
    /// its finish was discarded.
    pub fn request_finished(&self, id: ReqId) -> bool {
        self.ctx.metrics.is_finished(id) && !self.ctx.metrics.is_cancelled(id)
    }

    /// Whether `id` has reached any terminal accounting class
    /// (finished, shed, or cancelled) — the hedge engine's
    /// pair-retirement predicate.
    pub fn request_resolved(&self, id: ReqId) -> bool {
        self.ctx.metrics.is_resolved(id)
    }

    /// Cancels a request: the losing copy of a hedged pair. If the
    /// scheduler still holds it waiting, [`Scheduler::on_shed`] drops it
    /// (releasing its KV lease through the engine's own shed path) and
    /// the outcome is [`CancelOutcome::Dropped`]; if it is already
    /// running, the copy is detached — accounted cancelled immediately,
    /// while its in-flight work drains to a completion whose tokens and
    /// latency are discarded ([`CancelOutcome::Detached`]). Either way
    /// the request leaves the `finished`/`shed` books and joins the
    /// `cancelled` class, so `finished + shed + cancelled == admitted`
    /// still closes. Idempotent: a request that already resolved returns
    /// [`CancelOutcome::AlreadyResolved`] untouched.
    pub fn cancel(&mut self, scheduler: &mut dyn Scheduler, id: ReqId) -> CancelOutcome {
        if self.request_resolved(id) {
            return CancelOutcome::AlreadyResolved;
        }
        let dropped = scheduler.on_shed(id, &mut self.ctx);
        self.ctx.metrics.mark_cancelled(id);
        if dropped {
            CancelOutcome::Dropped
        } else {
            CancelOutcome::Detached
        }
    }

    /// Drains this instance's unresolved crash victims for migration to
    /// another instance, in deterministic `(crash_time, id)` order. Each
    /// drained victim is accounted shed locally (keeping the member's
    /// `finished + shed == total` books closed) and forgotten by the
    /// recovery manager, so its queued requeue events become no-ops.
    ///
    /// `include_reinjected` additionally takes victims already
    /// re-injected into the engine's admission buffer — only sound on a
    /// [`Instance::permanently_crashed`] member, where the buffered copy
    /// can never run.
    pub fn drain_crash_victims(&mut self, include_reinjected: bool) -> Vec<MigratableVictim> {
        let mut out = Vec::new();
        for (id, crash_time) in self.recovery.drainable(include_reinjected) {
            if self.request_resolved(id) {
                continue;
            }
            let Some(spec) = self.ctx.requests.get(id) else {
                debug_assert!(false, "recovery tracked an unknown request {id}");
                continue;
            };
            let tokens_emitted = self.ctx.metrics.tokens_emitted(id);
            out.push(MigratableVictim {
                spec: spec.clone(),
                crash_time,
                tokens_emitted,
            });
            self.recovery.on_migrated_out(id);
            self.ctx.metrics.mark_shed(id);
        }
        out
    }

    /// Closes the books on a fully drained run: any request still
    /// neither finished nor shed (possible only when work is parked
    /// behind a permanently dead device, or arrivals were deferred past
    /// the stall point) is marked shed. Returns how many were closed —
    /// zero on every run that resolved all its work, which is why the
    /// fleet can call this unconditionally without perturbing healthy
    /// or transient-crash reports.
    pub fn shed_unresolved(&mut self) -> u64 {
        let mut closed = 0u64;
        for id in 0..self.ctx.requests.len() {
            if !self.request_resolved(id) {
                self.ctx.metrics.mark_shed(id);
                closed += 1;
            }
        }
        closed
    }

    /// Admits a request into this instance: the spec joins the request
    /// table and an arrival event is queued at `spec.arrival`. Returns
    /// the instance-local request id.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `spec.arrival` lies before the
    /// instance's current time — admission cannot rewrite the past.
    pub fn admit(&mut self, spec: RequestSpec) -> ReqId {
        debug_assert!(
            spec.arrival >= self.ctx.now,
            "admitted request arrives at {} before instance time {}",
            spec.arrival,
            self.ctx.now
        );
        let id = self.ctx.requests.len();
        self.ctx.queue.push(spec.arrival, Event::Arrival(id));
        self.ctx.metrics.push_request();
        self.ctx.requests.push(spec);
        self.shed_attempted.push(false);
        self.defer_count.push(0);
        id
    }

    /// Processes all events up to `lim`: strictly-earlier instants fully,
    /// plus simulator boundaries landing exactly on `lim` (the same
    /// inclusive kernel-boundary handling the monolithic loop applied at
    /// its own queue bounds). Pass `SimTime::MAX` to run to completion —
    /// that path executes the historical `Driver::run` loop unmodified.
    // simlint: hot
    pub fn step_until(&mut self, scheduler: &mut dyn Scheduler, lim: SimTime) -> StepOutcome {
        let outcome = self.step_events(scheduler, lim);
        self.prune_live();
        outcome
    }

    // simlint: hot
    fn step_events(&mut self, scheduler: &mut dyn Scheduler, lim: SimTime) -> StepOutcome {
        let bounded = lim != SimTime::MAX;
        loop {
            // The bound check's simulator scan, reused by the first
            // simulator step below (nothing changes the simulator in
            // between).
            let mut scanned = None;
            if bounded {
                // Stop at the bound *before* touching the body so a
                // paused instance never advances past it; `Done` remains
                // reachable below when the time cap cuts the run short.
                let t_queue = self.ctx.queue.peek_time();
                let t_gpu = self.ctx.gpu.next_event_time();
                let next = match (t_queue, t_gpu) {
                    (Some(q), Some(g)) => Some(q.min(g)),
                    (q, g) => q.or(g),
                };
                match next {
                    Some(t) if t < lim => {}
                    Some(t) => return StepOutcome::Pending(t),
                    None => return StepOutcome::Idle,
                }
                scanned = Some(t_gpu);
            }
            let t_queue = self.ctx.queue.peek_time();
            // While the watchdog cannot observe intermediate instants
            // (disabled, or an empty watchlist makes its scan a no-op),
            // pure kernel-start boundaries are stepped through inside
            // the simulator without a full driver round-trip each.
            let merge_ok = self.watchdog.is_none() || self.watchlist.is_empty();
            let mut limit = match t_queue {
                Some(q) => q.min(self.max_sim_time),
                None => self.max_sim_time,
            };
            if bounded {
                limit = limit.min(lim);
            }
            let mut stepped = false;
            let mut dispatch = false;
            while let Some(t) = match scanned.take() {
                Some(next) => self.ctx.gpu.step_to_scanned_event(next, limit),
                None => self.ctx.gpu.step_to_next_event(limit),
            } {
                stepped = true;
                self.ctx.now = t;
                if self.ctx.gpu.has_pending_dispatch() {
                    dispatch = true;
                    break;
                }
                if !merge_ok {
                    break;
                }
            }
            if !stepped {
                // Nothing happens on the simulator within the limit: the
                // next event is a queued one, or the run is over.
                match t_queue {
                    Some(q) if q <= self.max_sim_time => {
                        // Progress partial kernel work up to the queue
                        // event, exactly as the unmerged loop did. (When
                        // bounded, the guard above proves `q < lim`.)
                        self.ctx.gpu.advance_to(q);
                        self.ctx.now = q;
                    }
                    Some(_) => {
                        self.stalled = true;
                        break;
                    }
                    None => {
                        if self.ctx.gpu.next_event_time().is_some() {
                            // Simulator events exist beyond the time cap.
                            self.stalled = true;
                        }
                        break;
                    }
                }
            }

            // GPU completions first (they may unblock queued decisions),
            // then transfers, then queued events at this instant.
            if dispatch {
                self.ctx
                    .gpu
                    .drain_completed_into(&mut self.completed_kernels);
                for &(_, tag) in &self.completed_kernels {
                    scheduler.on_kernel_done(tag, &mut self.ctx);
                }
                self.ctx
                    .gpu
                    .drain_completed_transfers_into(&mut self.completed_transfers);
                for &(_, tag) in &self.completed_transfers {
                    scheduler.on_transfer_done(tag, &mut self.ctx);
                }
            }
            let now = self.ctx.now;
            while self.ctx.queue.peek_time() == Some(now) {
                // The loop condition peeked Some, so pop() returns it;
                // break rather than panic if that ever stops holding.
                let Some((_, ev, _)) = self.ctx.queue.pop() else {
                    debug_assert!(false, "queue popped None after peeking Some");
                    break;
                };
                match ev {
                    Event::Arrival(id) => {
                        // A hedge copy cancelled before delivery never
                        // reaches the scheduler at all.
                        if self.ctx.metrics.is_cancelled(id) {
                            continue;
                        }
                        if let Some(cfg) = self.watchdog {
                            // Bounded deferral: while a severe window is
                            // open, hold arrivals back with linear
                            // backoff rather than admitting into a
                            // brownout, up to the retry budget.
                            if self.severe_fault && self.defer_count[id] < cfg.retry_budget {
                                self.defer_count[id] += 1;
                                self.fault_retries += 1;
                                let at = self.ctx.now
                                    + cfg.retry_backoff * f64::from(self.defer_count[id]);
                                self.ctx.queue.push(at, Event::Arrival(id));
                                continue;
                            }
                            // Admission control: shed outright past the
                            // in-flight cap (the scheduler never sees
                            // the request).
                            self.prune_live();
                            if self.live.len() >= cfg.queue_depth_cap {
                                self.ctx.metrics.mark_shed(id);
                                continue;
                            }
                            self.watchlist.push(id);
                        }
                        self.live.push(id);
                        scheduler.on_arrival(id, &mut self.ctx);
                    }
                    Event::Timer(tag) => scheduler.on_timer(tag, &mut self.ctx),
                    Event::FaultBoundary => self.apply_active_faults(scheduler),
                    Event::Requeue(id) => {
                        // A crash victim's scheduled re-injection. Skip
                        // if the victim resolved some other way in the
                        // meantime (finished, watchdog-shed, superseded
                        // by a later crash's retry).
                        if !self.recovery.is_pending(id)
                            || self.ctx.metrics.is_finished(id)
                            || self.ctx.metrics.is_shed(id)
                            || self.ctx.metrics.is_cancelled(id)
                        {
                            continue;
                        }
                        let cfg = self.watchdog.unwrap_or_default();
                        // TTFT-deadline-aware give-up: a victim that has
                        // produced nothing and can no longer meet its
                        // deadline is shed, not silently retried forever.
                        let deadline = self.ctx.requests[id].arrival + cfg.ttft_deadline;
                        let deadline_lost =
                            self.ctx.metrics.tokens_emitted(id) == 0 && self.ctx.now >= deadline;
                        if deadline_lost || self.recovery.attempts(id) > cfg.retry_budget {
                            self.recovery.on_gave_up(id);
                            self.ctx.metrics.mark_shed(id);
                            continue;
                        }
                        self.recovery.on_reinjected(id, self.ctx.now);
                        scheduler.on_arrival(id, &mut self.ctx);
                    }
                }
            }

            // Deadline shedding: a watched request that still has no
            // tokens past its TTFT deadline is offered to the scheduler
            // once; requests that produced output leave the watchlist.
            if let Some(cfg) = self.watchdog {
                let mut i = 0;
                while i < self.watchlist.len() {
                    let id = self.watchlist[i];
                    if self.ctx.metrics.is_finished(id)
                        || self.ctx.metrics.is_shed(id)
                        || self.ctx.metrics.is_cancelled(id)
                        || self.ctx.metrics.tokens_emitted(id) > 0
                    {
                        self.watchlist.remove(i);
                        continue;
                    }
                    let deadline = self.ctx.requests[id].arrival + cfg.ttft_deadline;
                    if self.ctx.now >= deadline && !self.shed_attempted[id] {
                        self.shed_attempted[id] = true;
                        self.watchlist.remove(i);
                        if scheduler.on_shed(id, &mut self.ctx) {
                            self.ctx.metrics.mark_shed(id);
                        }
                        continue;
                    }
                    i += 1;
                }
            }
        }
        StepOutcome::Done
    }

    /// Assembles the end-of-run [`Report`] and the simulator's
    /// boundary-event count. Call once, after [`Instance::step_until`]
    /// has returned [`StepOutcome::Done`] (or `Idle` with no further
    /// admissions planned) — the leak detector assumes the run drained.
    pub fn finish(self, scheduler: &mut dyn Scheduler) -> (Report, u64) {
        let makespan = self.ctx.now - SimTime::ZERO;
        let arrivals: Vec<SimTime> = self.ctx.requests.iter().map(|r| r.arrival).collect();
        let inputs: Vec<u64> = self.ctx.requests.iter().map(|r| r.input_tokens()).collect();
        let mut report = self
            .ctx
            .metrics
            .report_with_inputs(&arrivals, &inputs, makespan, &self.slo);
        let groups = scheduler.groups();
        if !groups.is_empty() {
            report.utilization = groups
                .iter()
                .map(|&g| self.ctx.gpu.utilization(g))
                .sum::<f64>()
                / groups.len() as f64;
        }
        let streams = scheduler.streams();
        if !streams.is_empty() {
            report.bubble_ratio = streams
                .iter()
                .map(|&(g, c)| 1.0 - self.ctx.gpu.ctx_busy_ratio(g, c))
                .sum::<f64>()
                / streams.len() as f64;
        }
        let mut counters = scheduler.counters();
        // Leak detector: a cleanly drained run has no in-flight work, so
        // every KV lease must have been returned. A run truncated by the
        // time cap ends mid-flight and legitimately holds leases — those
        // are not leaks and are neither counted nor fatal.
        let held: usize = scheduler
            .lease_tables()
            .iter()
            .map(|t| t.outstanding())
            .sum();
        if held > 0 && !self.stalled {
            if cfg!(debug_assertions) {
                panic!("KV lease leak: {held} lease(s) still held after the run drained");
            }
            counters.leaked_leases += held as u64;
        }
        counters.shed += report.shed as u64;
        counters.fault_retries += self.fault_retries;
        if self.has_crashes {
            let metrics = &self.ctx.metrics;
            let mut recovery = self.recovery;
            recovery.finalize(|id| metrics.is_finished(id) && !metrics.is_cancelled(id));
            report.recovery = recovery.stats;
        }
        // Recovery time: how long after the last fault window closed the
        // system kept violating the TBT SLO (0 = immediate recovery).
        if let Some(fault_end) = self.faults.last_end() {
            let rec = match self.ctx.metrics.last_tbt_violation() {
                Some(v) if v > fault_end => (v - fault_end).as_secs(),
                _ => 0.0,
            };
            report.recovery_secs = Some(rec);
        }
        report.counters = counters;
        let events = self.ctx.gpu.events_processed();
        (report, events)
    }

    /// Re-evaluates the fault schedule at a window boundary. Boundaries
    /// whose active-fault set matches the previous boundary's skip the
    /// degradation rebuild and pool-capacity writes entirely (both are
    /// pure functions of the set, so the diff is bit-identical to the
    /// legacy clear-and-rebuild); changed sets rebuild as before: clear,
    /// then min-merge each active fault, kill / revive fail-stopped
    /// devices, shrink/restore KV pools, and notify the scheduler.
    fn apply_active_faults(&mut self, scheduler: &mut dyn Scheduler) {
        let active = self.faults.active_at(self.ctx.now);
        if let Some((prev, severe, gray, _)) = self.fault_memo.as_ref() {
            if *prev == active {
                // Same windows as the previous boundary: the degradation
                // state, dead set, and pool capacities are already
                // exactly what a rebuild would produce.
                self.severe_fault = *severe;
                self.gray_fault = *gray;
                scheduler.on_fault(&active, &mut self.ctx);
                return;
            }
        }
        let mut shrink: f64 = 0.0;
        self.ctx.gpu.clear_degradation();
        self.severe_fault = false;
        self.gray_fault = false;
        for k in &active {
            match *k {
                FaultKind::SmBrownout { gpu, fraction } => {
                    self.ctx
                        .gpu
                        .apply_degradation(&HwDegradation::SmOffline { gpu, fraction });
                    if fraction >= 0.5 {
                        self.severe_fault = true;
                    }
                }
                FaultKind::HbmDegrade { gpu, bw_fraction } => {
                    self.ctx
                        .gpu
                        .apply_degradation(&HwDegradation::HbmBandwidth { gpu, bw_fraction });
                    self.gray_fault = true;
                }
                FaultKind::NvlinkDegrade { link, bw_fraction } => {
                    self.ctx
                        .gpu
                        .apply_degradation(&HwDegradation::NvlinkBandwidth { link, bw_fraction });
                    self.gray_fault = true;
                }
                FaultKind::KvShrink { fraction } => {
                    shrink = shrink.max(fraction);
                    if fraction >= 0.25 {
                        self.severe_fault = true;
                    }
                }
                FaultKind::KernelLatencySpike { mult, .. } => {
                    self.ctx
                        .gpu
                        .apply_degradation(&HwDegradation::KernelSlowdown { mult });
                    self.gray_fault = true;
                }
                // Fail-stop is not a degradation: the device is killed /
                // revived on the window edge below, outside the
                // clear-and-rebuild cycle.
                FaultKind::GpuFailStop { .. } | FaultKind::GpuFailStopPermanent { .. } => {
                    self.severe_fault = true;
                }
            }
        }
        self.fault_memo = Some((active.clone(), self.severe_fault, self.gray_fault, shrink));
        // Fail-stop edges: compare the plan's dead set at this instant
        // against the previous boundary's. A 0→1 edge kills the device
        // and revokes everything the scheduler homed on it; a 1→0 edge
        // revives it.
        if self.faults.has_fail_stop() {
            let cfg = self.watchdog.unwrap_or_default();
            let dead = self
                .faults
                .dead_gpus_at(self.ctx.now, self.ctx.gpu.num_gpus());
            for (g, &now_dead) in dead.iter().enumerate().take(self.prev_dead.len()) {
                let gpu = g as u32;
                if now_dead && !self.prev_dead[g] {
                    let cancelled: Vec<u64> = self
                        .ctx
                        .gpu
                        .fail_gpu(gpu)
                        .into_iter()
                        .map(|(_, tag)| tag)
                        .collect();
                    let victims = scheduler.on_gpu_lost(gpu, &cancelled, &mut self.ctx);
                    let now = self.ctx.now;
                    for v in victims {
                        let at = self.recovery.on_victim(&v, now, cfg.retry_backoff);
                        self.ctx.queue.push(at, Event::Requeue(v.id));
                    }
                } else if !now_dead && self.prev_dead[g] {
                    self.ctx.gpu.recover_gpu(gpu);
                    scheduler.on_gpu_recovered(gpu, &mut self.ctx);
                }
                self.prev_dead[g] = now_dead;
            }
        }
        let now = self.ctx.now;
        if shrink > 0.0 {
            let mut tables = scheduler.lease_tables_mut();
            let caps = self
                .orig_capacities
                .get_or_insert_with(|| tables.iter().map(|t| t.capacity_tokens()).collect());
            for (t, &orig) in tables.iter_mut().zip(caps.iter()) {
                t.set_capacity((orig as f64 * (1.0 - shrink)) as u64, now);
            }
        } else if let Some(caps) = self.orig_capacities.take() {
            for (t, orig) in scheduler.lease_tables_mut().into_iter().zip(caps) {
                t.set_capacity(orig, now);
            }
        }
        scheduler.on_fault(&active, &mut self.ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::{ClusterSpec, CtxId, GpuSim, GroupId, KernelKind, WorkItem};
    use simcore::SimDuration;
    use workload::ContentSpec;

    /// One fixed-duration kernel per request, then emit-and-finish.
    struct OneShot {
        group: Option<GroupId>,
        ctx_id: Option<CtxId>,
    }

    impl Scheduler for OneShot {
        fn on_start(&mut self, ctx: &mut ServeCtx) {
            let g = ctx.gpu.create_group(vec![0]);
            self.group = Some(g);
            self.ctx_id = Some(ctx.gpu.set_context(g, 108));
        }
        fn on_arrival(&mut self, id: ReqId, ctx: &mut ServeCtx) {
            let work = WorkItem::new(KernelKind::Prefill, 0.0, 0.0, 0.010);
            let now = ctx.now();
            ctx.gpu.submit(
                self.group.unwrap(),
                self.ctx_id.unwrap(),
                work,
                now,
                id as u64,
            );
        }
        fn on_kernel_done(&mut self, tag: u64, ctx: &mut ServeCtx) {
            let id = tag as ReqId;
            let out = ctx.request(id).output_tokens;
            ctx.emit_tokens(id, out);
            ctx.finish_request(id);
        }
        fn groups(&self) -> Vec<GroupId> {
            self.group.into_iter().collect()
        }
    }

    fn oneshot() -> OneShot {
        OneShot {
            group: None,
            ctx_id: None,
        }
    }

    fn req(id: u64, at: f64, out: u64) -> RequestSpec {
        RequestSpec {
            id,
            arrival: SimTime::from_secs(at),
            session: id,
            turn: 0,
            content: ContentSpec::single(id, 100),
            prior_context: 0,
            output_tokens: out,
        }
    }

    fn driver(reqs: Vec<RequestSpec>) -> Driver {
        let gpu = GpuSim::from_cluster(&ClusterSpec::single_a100());
        Driver::new(gpu, reqs, SloSpec::llama8b())
    }

    #[test]
    fn stepped_run_equals_monolithic_run() {
        let reqs = vec![req(0, 0.0, 5), req(1, 0.005, 3), req(2, 0.030, 2)];
        let mut mono_sched = oneshot();
        let mono = driver(reqs.clone()).run_stats(&mut mono_sched);

        let mut sched = oneshot();
        let mut inst = driver(reqs).into_instance(&mut sched);
        // Chop the run at several bounds, including ones between events.
        for ms in [1u64, 6, 7, 25, 40] {
            inst.step_until(&mut sched, SimTime::from_secs(ms as f64 * 1e-3));
        }
        assert_eq!(inst.step_until(&mut sched, SimTime::MAX), StepOutcome::Done);
        assert_eq!(inst.finish(&mut sched), mono);
    }

    #[test]
    fn dynamic_admission_equals_preloaded_trace() {
        let reqs = vec![req(0, 0.0, 4), req(1, 0.012, 4), req(2, 0.012, 1)];
        let mut mono_sched = oneshot();
        let mono = driver(reqs.clone()).run_stats(&mut mono_sched);

        let mut sched = oneshot();
        let mut inst = driver(Vec::new()).into_instance(&mut sched);
        for spec in reqs {
            let at = spec.arrival;
            inst.step_until(&mut sched, at);
            inst.admit(spec);
        }
        inst.step_until(&mut sched, SimTime::MAX);
        assert_eq!(inst.finish(&mut sched), mono);
    }

    #[test]
    fn bounded_step_reports_pending_and_idle() {
        let mut sched = oneshot();
        let mut inst = driver(vec![req(0, 1.0, 2)]).into_instance(&mut sched);
        match inst.step_until(&mut sched, SimTime::from_secs(0.5)) {
            StepOutcome::Pending(t) => assert_eq!(t, SimTime::from_secs(1.0)),
            other => panic!("expected Pending, got {other:?}"),
        }
        // Run the request out, then the instance goes idle.
        let far = SimTime::from_secs(100.0);
        let out = inst.step_until(&mut sched, far);
        assert_eq!(out, StepOutcome::Idle);
        assert_eq!(inst.in_flight(), 0);
        assert_eq!(inst.num_requests(), 1);
    }

    #[test]
    fn admission_after_idle_resumes_the_instance() {
        let mut sched = oneshot();
        let mut inst = driver(Vec::new()).into_instance(&mut sched);
        assert_eq!(
            inst.step_until(&mut sched, SimTime::from_secs(1.0)),
            StepOutcome::Idle
        );
        inst.admit(req(0, 2.0, 3));
        assert_eq!(inst.in_flight(), 0);
        inst.step_until(&mut sched, SimTime::MAX);
        let (rep, _) = inst.finish(&mut sched);
        assert_eq!(rep.finished, 1);
        assert_eq!(rep.total_tokens, 3);
    }

    #[test]
    fn time_cap_yields_done_from_bounded_steps() {
        let gpu = GpuSim::from_cluster(&ClusterSpec::single_a100());
        let mut sched = oneshot();
        let mut inst = Driver::new(gpu, Vec::new(), SloSpec::llama8b())
            .with_max_sim_time(SimTime::from_secs(0.5))
            .into_instance(&mut sched);
        inst.admit(req(0, 1.0, 2)); // arrives beyond the cap
        assert_eq!(
            inst.step_until(&mut sched, SimTime::from_secs(10.0)),
            StepOutcome::Done
        );
        let (rep, _) = inst.finish(&mut sched);
        assert_eq!(rep.finished, 0);
    }

    #[test]
    fn watchdog_state_survives_chopping() {
        // A watchdog-armed instance stepped in tiny slices must reach the
        // same shed/finish accounting as a single unbounded run.
        let reqs: Vec<RequestSpec> = (0..8).map(|i| req(i, 0.001 * i as f64, 3)).collect();
        let cfg = WatchdogConfig {
            queue_depth_cap: 4,
            ttft_deadline: SimDuration::from_millis(20.0),
            ..WatchdogConfig::default()
        };
        let gpu = GpuSim::from_cluster(&ClusterSpec::single_a100());
        let mut mono_sched = oneshot();
        let mono = Driver::new(gpu, reqs.clone(), SloSpec::llama8b())
            .with_watchdog(cfg)
            .run(&mut mono_sched);

        let gpu = GpuSim::from_cluster(&ClusterSpec::single_a100());
        let mut sched = oneshot();
        let mut inst = Driver::new(gpu, reqs, SloSpec::llama8b())
            .with_watchdog(cfg)
            .into_instance(&mut sched);
        let mut t = 0.0;
        while t < 0.2 {
            t += 0.0005;
            inst.step_until(&mut sched, SimTime::from_secs(t));
        }
        inst.step_until(&mut sched, SimTime::MAX);
        let (rep, _) = inst.finish(&mut sched);
        assert_eq!(rep, mono);
    }
}
