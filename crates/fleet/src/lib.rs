#![warn(missing_docs)]
//! The fleet router tier: N steppable serving instances behind a
//! pluggable admission policy.
//!
//! The paper multiplexes prefill and decode on one GPU group; this crate
//! scales that out. A [`Fleet`] owns N [`serving::Instance`]s — any mix
//! of engines, each with its own [`gpusim::GpuSim`], fault plan and
//! watchdog — and replays a global arrival stream through a
//! [`RoutePolicy`] that picks an instance per request, llm-d
//! endpoint-picker style: score by radix-prefix hit probability, queue
//! depth and crash/health signals, and prefer a single-node or split
//! (prefill/decode-disaggregated) serving path per request.
//!
//! # Deterministic merge
//!
//! The fleet advances as a sequence of **merge barriers**: for each
//! distinct arrival instant `t` in the trace, every instance is stepped
//! to `t` ([`serving::Instance::step_until`]), then the arrivals at `t`
//! are routed in trace order against signals read from the settled
//! instances. An instance whose last step reported no event before `t`
//! ([`serving::StepOutcome::Pending`] at or after `t`, or `Idle`), and
//! that the fleet has not touched since, is skipped: stepping it would
//! return without changing anything. Prefix probes go only to the
//! members a [`HolderIndex`] lists under the request's first block; the
//! others would probe 0. Between barriers instances share no state, so
//! the stepping order cannot matter; signals are computed and routed
//! sequentially in instance-index order with strict-`>` score comparison
//! (lowest index wins ties). Fleet runs therefore replay bit-identically
//! at any thread count — [`Fleet::with_threads`] only chooses how many
//! instances step concurrently between barriers, which the proptests in
//! `tests/tests/fleet.rs` pin down.
//!
//! # Examples
//!
//! ```
//! use fleet::{Fleet, PathClass, RoundRobin};
//! use gpusim::{ClusterSpec, GpuSim};
//! use serving::{Driver, SloSpec};
//!
//! let mut fleet = Fleet::new();
//! for i in 0..2 {
//!     let gpu = GpuSim::from_cluster(&ClusterSpec::single_a100());
//!     let driver = Driver::new(gpu, Vec::new(), SloSpec::llama8b());
//!     fleet.push(driver, Box::new(fleet::IdleSink), PathClass::SingleNode, format!("sink{i}"));
//! }
//! let report = fleet.run(&[], &mut RoundRobin::new());
//! assert_eq!(report.total(), 0);
//! ```

use simcore::{SimDuration, SimTime};

use kvcache::Block;
use serving::{CancelOutcome, Driver, Instance, Report, ReqId, Scheduler, StepOutcome};
use workload::RequestSpec;

mod failover;
mod health;
mod hedge;
mod holders;
mod replicate;
mod router;

pub use failover::{pick_migration_target, FailoverConfig, FailoverEngine, FailoverStats};
pub use health::{
    latency_exceeds, HealthConfig, HealthState, HealthStats, HealthTracker, LatencyEwma,
    Observation,
};
pub use hedge::{
    HedgeConfig, HedgeEngine, HedgePair, HedgeStats, OverloadStats, PairStatus, RetryBudget,
};
pub use holders::HolderIndex;
pub use replicate::{HotPrefix, ReplicationConfig, ReplicationStats, Replicator};
pub use router::{Decision, InstanceSignals, PrefixAffinity, RoundRobin, RoutePolicy};

/// Which serving path an instance implements, for the router's
/// per-request single-node-vs-split decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathClass {
    /// Prefill and decode multiplexed on one GPU group (MuxWise, chunked
    /// prefill, temporal multiplexing…).
    SingleNode,
    /// Prefill/decode disaggregated across groups with a KV transfer in
    /// between (SGLang-PD, WindServe…) — pays a migration cost but
    /// isolates long prefills from decode latency.
    Split,
}

/// One fleet slot: a steppable instance plus the scheduler it drives.
struct FleetMember {
    instance: Instance,
    scheduler: Box<dyn Scheduler>,
    class: PathClass,
    label: String,
    /// The member is stepped at a barrier `t` only when `due < t`: the
    /// time of its earliest pending event from the last
    /// [`StepOutcome::Pending`], `SimTime::MAX` when it went idle, and
    /// `SimTime::ZERO` after the fleet changed it (admission, cancel,
    /// drain, replica insert). A bounded step of a member with no event
    /// before the bound returns without touching state, so skipping it
    /// is exact.
    due: SimTime,
    /// Whether the member's lease tables may have logged first blocks
    /// the holder index has not read: set whenever its scheduler ran.
    unindexed: bool,
}

impl FleetMember {
    /// Admits `spec` and marks the member due.
    fn admit(&mut self, spec: RequestSpec) -> ReqId {
        self.due = SimTime::ZERO;
        self.instance.admit(spec)
    }

    /// Steps the member to `t` if it has an event before `t`.
    // simlint: hot
    fn step_if_due(&mut self, t: SimTime) {
        if self.due >= t {
            return;
        }
        self.due = match self.instance.step_until(self.scheduler.as_mut(), t) {
            StepOutcome::Pending(next) => next,
            StepOutcome::Idle => SimTime::MAX,
            StepOutcome::Done => SimTime::ZERO,
        };
        self.unindexed = true;
    }
}

// Members are stepped on scoped worker threads between merge barriers;
// `Instance` is `Send` by assertion and `Scheduler` has a `Send`
// supertrait, so this holds by construction — keep the proof local.
const _: () = {
    const fn require_send<T: Send>() {}
    require_send::<FleetMember>();
};

/// Aggregate routing-quality counters for one fleet run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoutingStats {
    /// Requests routed.
    pub requests: u64,
    /// Input tokens the chosen instance already held cached (summed over
    /// requests at decision time).
    pub prefix_hit_tokens: u64,
    /// Total input tokens probed (the denominator of the hit rate).
    pub probed_input_tokens: u64,
    /// Requests steered away from the instance the score alone would
    /// have picked because that instance had a fail-stopped GPU.
    pub rerouted_on_crash: u64,
    /// Requests routed to a [`PathClass::Split`] instance.
    pub split_routed: u64,
    /// Requests routed to a [`PathClass::SingleNode`] instance.
    pub single_routed: u64,
}

/// The result of a fleet run: one [`Report`] per instance (index order)
/// plus fleet-wide routing statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Instance labels, index order.
    pub labels: Vec<String>,
    /// Per-instance end-of-run reports, index order.
    pub reports: Vec<Report>,
    /// Per-instance simulator boundary-event counts.
    pub events: Vec<u64>,
    /// Requests routed to each instance (migrated re-admissions
    /// included — they are real load on the target).
    pub routed: Vec<u64>,
    /// Fleet-wide routing counters.
    pub routing: RoutingStats,
    /// Cross-instance failover outcomes (all-zero when no fail-stop
    /// fired or failover is disabled).
    pub failover: FailoverStats,
    /// Hot-prefix replication outcomes (all-zero unless replication is
    /// enabled and a fail-stop is scheduled).
    pub replication: ReplicationStats,
    /// Health-breaker counters (all-zero on crash-free runs).
    pub health: HealthStats,
    /// Hedged-dispatch counters (all-zero unless hedging is enabled and
    /// some member schedules a fault).
    pub hedge: HedgeStats,
    /// Overload-control counters: ingress sheds and retry-budget spend
    /// (all-zero unless hedging is enabled and armed).
    pub overload: OverloadStats,
}

impl FleetReport {
    /// Requests finished fleet-wide.
    pub fn finished(&self) -> usize {
        self.reports.iter().map(|r| r.finished).sum()
    }

    /// Requests shed fleet-wide (watchdog admission/deadline sheds plus
    /// crash give-ups).
    pub fn shed(&self) -> usize {
        self.reports.iter().map(|r| r.shed).sum()
    }

    /// Requests admitted fleet-wide. Hedge duplicates count (each copy
    /// is real load on its member); arrivals shed at ingress do not —
    /// they never reached an instance (see
    /// [`OverloadStats::ingress_shed`]).
    pub fn total(&self) -> usize {
        self.reports.iter().map(|r| r.total).sum()
    }

    /// Requests cancelled fleet-wide (hedge losers). The fleet books
    /// close as `finished + shed + cancelled == total`.
    pub fn cancelled(&self) -> usize {
        self.reports.iter().map(|r| r.cancelled).sum()
    }

    /// Output tokens produced fleet-wide.
    pub fn total_tokens(&self) -> u64 {
        self.reports.iter().map(|r| r.total_tokens).sum()
    }

    /// Simulator boundary events processed fleet-wide.
    pub fn total_events(&self) -> u64 {
        self.events.iter().sum()
    }

    /// Fleet makespan: the latest instance finish time (the fleet is done
    /// when its slowest instance is).
    pub fn makespan_secs(&self) -> f64 {
        self.reports
            .iter()
            .map(|r| r.makespan.as_secs())
            .fold(0.0, f64::max)
    }

    /// Fleet goodput in SLO-attaining tokens/second: each instance's
    /// tokens weighted by its TTFT and TBT attainment, over the fleet
    /// makespan. This is the single-system goodput measure lifted to the
    /// fleet — tokens that violated their instance's SLOs don't count
    /// (a redundant full-context prefill that blows the TTFT target
    /// shows up here), and the clock runs until the slowest instance
    /// drains.
    pub fn goodput_tokens_per_sec(&self) -> f64 {
        let span = self.makespan_secs();
        if span <= 0.0 {
            return 0.0;
        }
        self.reports
            .iter()
            .filter(|r| r.total_tokens > 0)
            .map(|r| r.total_tokens as f64 * r.tbt_attainment() * r.ttft_attainment())
            .sum::<f64>()
            / span
    }

    /// Token-weighted TTFT attainment across the fleet (1.0 when every
    /// instance met its TTFT target on every request).
    pub fn ttft_attainment(&self) -> f64 {
        self.token_weighted(Report::ttft_attainment)
    }

    /// Token-weighted TBT attainment across the fleet.
    pub fn tbt_attainment(&self) -> f64 {
        self.token_weighted(Report::tbt_attainment)
    }

    fn token_weighted(&self, f: impl Fn(&Report) -> f64) -> f64 {
        let tokens = self.total_tokens();
        if tokens == 0 {
            return 1.0;
        }
        self.reports
            .iter()
            .filter(|r| r.total_tokens > 0)
            .map(|r| r.total_tokens as f64 * f(r))
            .sum::<f64>()
            / tokens as f64
    }

    /// Fraction of probed input tokens served from the chosen instance's
    /// radix cache at decision time (0 when nothing was probed).
    pub fn prefix_hit_rate(&self) -> f64 {
        if self.routing.probed_input_tokens == 0 {
            return 0.0;
        }
        self.routing.prefix_hit_tokens as f64 / self.routing.probed_input_tokens as f64
    }

    /// Max-over-mean request load across instances (1.0 = perfectly
    /// balanced; 0 when nothing was routed).
    pub fn load_imbalance(&self) -> f64 {
        let max = self.routed.iter().copied().max().unwrap_or(0);
        let total: u64 = self.routed.iter().sum();
        if total == 0 || self.routed.is_empty() {
            return 0.0;
        }
        max as f64 * self.routed.len() as f64 / total as f64
    }

    /// KV leases leaked fleet-wide (release builds count instead of
    /// panicking; must be zero).
    pub fn leaked_leases(&self) -> u64 {
        self.reports.iter().map(|r| r.counters.leaked_leases).sum()
    }
}

/// A no-op scheduler for doc-tests and wiring tests: accepts arrivals
/// and does nothing with them.
#[derive(Debug, Default)]
pub struct IdleSink;

impl Scheduler for IdleSink {
    fn on_start(&mut self, _ctx: &mut serving::ServeCtx) {}
    fn on_arrival(&mut self, _id: serving::ReqId, _ctx: &mut serving::ServeCtx) {}
    fn on_kernel_done(&mut self, _tag: u64, _ctx: &mut serving::ServeCtx) {}
}

/// N serving instances and the machinery to drive them in lockstep
/// against one global arrival stream.
pub struct Fleet {
    members: Vec<FleetMember>,
    threads: usize,
    health: HealthConfig,
    failover: Option<FailoverConfig>,
    replication: Option<ReplicationConfig>,
    hedging: Option<HedgeConfig>,
}

impl Default for Fleet {
    fn default() -> Fleet {
        Fleet::new()
    }
}

impl Fleet {
    /// An empty, single-threaded fleet with failover on (default knobs)
    /// and replication off.
    pub fn new() -> Fleet {
        Fleet {
            members: Vec::new(),
            threads: 1,
            health: HealthConfig::default(),
            failover: Some(FailoverConfig::default()),
            replication: None,
            hedging: None,
        }
    }

    /// Steps up to `threads` instances concurrently between merge
    /// barriers. Results are bit-identical at any value — instances
    /// share no state between barriers — so this is purely a wall-clock
    /// knob.
    pub fn with_threads(mut self, threads: usize) -> Fleet {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the per-member health-breaker knobs.
    pub fn with_health(mut self, cfg: HealthConfig) -> Fleet {
        self.health = cfg;
        self
    }

    /// Overrides the failover knobs (failover is on by default).
    pub fn with_failover(mut self, cfg: FailoverConfig) -> Fleet {
        self.failover = Some(cfg);
        self
    }

    /// Disables cross-instance failover: ejected members keep their
    /// victims and shed them locally — the control arm of the chaos
    /// benchmark.
    pub fn without_failover(mut self) -> Fleet {
        self.failover = None;
        self
    }

    /// Enables hot-prefix KV replication (off by default). Like
    /// failover, the replicator only arms when some member schedules a
    /// fail-stop, so crash-free runs are byte-identical with or without
    /// this call.
    pub fn with_replication(mut self, cfg: ReplicationConfig) -> Fleet {
        self.replication = Some(cfg);
        self
    }

    /// Enables hedged dispatch and retry-storm-safe overload control
    /// (off by default). Like failover and replication, the tier only
    /// arms when some member schedules a fault — crash-free and
    /// gray-free runs are byte-identical with or without this call —
    /// and its retry budget is shared with failover re-admissions.
    pub fn with_hedging(mut self, cfg: HedgeConfig) -> Fleet {
        self.hedging = Some(cfg);
        self
    }

    /// Adds an instance built from a configured [`Driver`] (empty trace;
    /// requests reach it only through the router) and the scheduler that
    /// drives it. `class` tells the router which serving path the
    /// instance implements; `label` names it in the [`FleetReport`].
    pub fn push(
        &mut self,
        driver: Driver,
        mut scheduler: Box<dyn Scheduler>,
        class: PathClass,
        label: String,
    ) {
        let instance = driver.into_instance(scheduler.as_mut());
        self.members.push(FleetMember {
            instance,
            scheduler,
            class,
            label,
            due: SimTime::ZERO,
            unindexed: true,
        });
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the fleet has no instances.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Runs the fleet over a global arrival stream (sorted by arrival
    /// time — [`workload::generate_fleet_stream`] output qualifies),
    /// routing every request through `policy`, and drains all instances
    /// to completion.
    ///
    /// # Panics
    ///
    /// Panics if the fleet is empty while the trace is not, or (debug
    /// builds) if the trace is not sorted by arrival time.
    pub fn run(self, trace: &[RequestSpec], policy: &mut dyn RoutePolicy) -> FleetReport {
        self.run_opts(trace, policy, &[])
    }

    /// [`Fleet::run`] with extra no-op merge barriers injected into the
    /// schedule (sorted, may duplicate trace instants). Stepping an
    /// instance at a barrier where nothing arrives is a pure no-op, so
    /// the report is bit-identical for any `extra_barriers` — the
    /// interleaving proptest exercises exactly this.
    // simlint: barrier
    pub fn run_opts(
        mut self,
        trace: &[RequestSpec],
        policy: &mut dyn RoutePolicy,
        extra_barriers: &[SimTime],
    ) -> FleetReport {
        assert!(
            trace.is_empty() || !self.members.is_empty(),
            "cannot route a trace through an empty fleet"
        );
        debug_assert!(
            trace.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "fleet trace must be sorted by arrival time"
        );
        debug_assert!(
            extra_barriers.windows(2).all(|w| w[0] <= w[1]),
            "extra barriers must be sorted"
        );
        let mut routed = vec![0u64; self.members.len()];
        let mut routing = RoutingStats::default();
        let mut probe = Probe::new(self.members.len());

        // Fault-tolerance tier. Armed ONLY when some member schedules a
        // fail-stop: on a crash-free plan the engine, replicator and
        // health observations would all be provable no-ops, and skipping
        // them entirely makes that proof trivial — the barrier sequence
        // is then exactly the pre-failover one, byte-for-byte.
        let fail_horizon = self
            .members
            .iter()
            .filter_map(|m| m.instance.fault_horizon())
            .max();
        let mut trackers: Vec<HealthTracker> = self
            .members
            .iter()
            .map(|_| HealthTracker::new(self.health))
            .collect();
        let mut states: Vec<HealthState> = vec![HealthState::Healthy; self.members.len()];
        let mut health_stats = HealthStats::default();
        let mut engine: Option<FailoverEngine> = match (self.failover, fail_horizon) {
            (Some(cfg), Some(horizon)) => {
                // Patrol long enough to see the last crash through the
                // full eject → drain → retry-backoff chain.
                let chain = cfg
                    .backoff
                    .as_nanos()
                    .saturating_mul(1u64 << (cfg.retry_budget + 1).min(32));
                let end = horizon
                    .saturating_add(self.health.eject_after)
                    .saturating_add(SimDuration::from_nanos(chain))
                    .saturating_add(cfg.patrol * 4.0);
                Some(FailoverEngine::new(cfg, end))
            }
            _ => None,
        };
        let mut replicator: Option<Replicator> = match (self.replication, fail_horizon) {
            (Some(cfg), Some(_)) => Some(Replicator::new(cfg)),
            _ => None,
        };
        // Gray tier: latency-aware health plus hedged dispatch. Armed on
        // ANY scheduled fault — not just fail-stops — because gray
        // failures (latency spikes, degraded links) never kill a GPU,
        // yet are exactly what EWMA sampling and hedging exist to catch.
        // Unarmed runs skip the sampling and the extra barrier source
        // entirely, so fault-free replays stay byte-identical.
        let gray_armed = self.members.iter().any(|m| m.instance.has_fault_plan());
        let mut ewmas: Vec<LatencyEwma> = self
            .members
            .iter()
            .map(|_| LatencyEwma::new(self.health.ewma_alpha))
            .collect();
        let mut exceeds: Vec<bool> = vec![false; self.members.len()];
        let mut hedger: Option<HedgeEngine> = match (self.hedging, gray_armed) {
            (Some(cfg), true) => Some(HedgeEngine::new(cfg)),
            _ => None,
        };
        // The shared retry budget exists only alongside hedging: plain
        // failover keeps its own per-victim retry counter, so PR-8-style
        // crash runs without hedging are bit-for-bit unchanged.
        let mut budget: Option<RetryBudget> = hedger.as_ref().map(|h| {
            RetryBudget::new(h.config().budget_capacity, h.config().budget_refill_per_sec)
        });
        let mut overload = OverloadStats::default();

        let mut i = 0;
        let mut b = 0;
        loop {
            let t_arrival = trace.get(i).map(|r| r.arrival);
            let t_extra = extra_barriers.get(b).copied();
            let t_fleet = engine.as_ref().and_then(FailoverEngine::next_wake);
            let t_hedge = hedger.as_ref().and_then(HedgeEngine::next_wake);
            let Some(t) = [t_arrival, t_extra, t_fleet, t_hedge]
                .into_iter()
                .flatten()
                .min()
            else {
                break;
            };
            self.step_all(t);
            // Health observation + failover work happen only at arrival
            // and patrol barriers — never at extras-only instants, so
            // injected no-op barriers stay strict no-ops.
            if t_arrival == Some(t) || t_fleet == Some(t) {
                // Latency evidence is sampled only at these barriers:
                // batch means over the finished-request deltas since the
                // previous sample, folded into per-member EWMAs, then
                // compared against the fleet median. Reading cumulative
                // totals at settled instants keeps the fold independent
                // of stepping order and thread count.
                if gray_armed {
                    for (idx, m) in self.members.iter().enumerate() {
                        ewmas[idx].sample(m.instance.finished_latency());
                    }
                    exceeds = latency_exceeds(&ewmas, self.health.gray_exceed_ratio);
                }
                for (idx, m) in self.members.iter().enumerate() {
                    let obs = Observation {
                        dead_gpus: m.instance.dead_gpus(),
                        severe_fault: m.instance.in_severe_fault(),
                        permanent_crash: m.instance.permanently_crashed(),
                        gray_fault: gray_armed && m.instance.in_gray_fault(),
                        latency_exceed: exceeds[idx],
                    };
                    states[idx] = trackers[idx].observe(t, obs, &mut health_stats);
                }
                if let Some(eng) = engine.as_mut() {
                    eng.advance_patrol(t);
                    self.drain_ejected(eng, &states, t);
                    for victim in eng.take_due(t) {
                        probe.collect(&mut self.members, &victim.spec, &states);
                        match pick_migration_target(&probe.signals) {
                            Some(target) => {
                                // Re-admissions draw on the shared retry
                                // budget when one exists; a dry bucket
                                // defers the victim to its next backoff
                                // slot instead of piling retries onto an
                                // already-stressed fleet.
                                if let Some(bud) = budget.as_mut() {
                                    bud.refill(t);
                                    if !bud.try_spend() {
                                        overload.failover_deferred += 1;
                                        eng.no_target(victim, t);
                                        continue;
                                    }
                                    overload.budget_spent_failover += 1;
                                }
                                let hit = probe.signals[target].prefix_hit_tokens;
                                let mut spec = victim.spec.clone();
                                spec.arrival = t;
                                let local = self.members[target].admit(spec);
                                routed[target] += 1;
                                eng.placed(&victim, target, local, hit, t);
                            }
                            None => eng.no_target(victim, t),
                        }
                    }
                }
            }
            // Hedge resolution: winners are read off the settled
            // instances at arrival, patrol and hedge-check barriers, and
            // losers cancelled in launch order. Extras-only instants are
            // excluded for the same reason as above.
            if let Some(h) = hedger.as_mut() {
                if t_arrival == Some(t) || t_fleet == Some(t) || t_hedge == Some(t) {
                    Self::resolve_hedges(&mut self.members, h, t);
                }
            }
            // Route every arrival at exactly `t`, trace order: signals
            // are re-read per request so back-to-back arrivals at one
            // instant see each other's queue-depth effect.
            let mut sweep_due = false;
            while i < trace.len() && trace[i].arrival == t {
                let spec = &trace[i];
                probe.collect(&mut self.members, spec, &states);
                let signals = &probe.signals;
                // Ingress watermark: when every routable member is over
                // the line, queueing one more first copy only deepens
                // the overload — shed it here, before it costs anyone
                // KV or a queue slot.
                if let Some(h) = hedger.as_ref() {
                    if h.ingress_overloaded(signals) {
                        overload.ingress_shed += 1;
                        i += 1;
                        continue;
                    }
                }
                let decision = policy.pick(spec, signals);
                let m = &mut self.members[decision.instance];
                let primary_local = m.admit(spec.clone());
                routed[decision.instance] += 1;
                routing.requests += 1;
                routing.prefix_hit_tokens += signals[decision.instance].prefix_hit_tokens;
                routing.probed_input_tokens += spec.input_tokens();
                routing.rerouted_on_crash += u64::from(decision.rerouted_on_crash);
                match m.class {
                    PathClass::SingleNode => routing.single_routed += 1,
                    PathClass::Split => routing.split_routed += 1,
                }
                if let Some(rep) = replicator.as_mut() {
                    sweep_due |= rep.record(spec, &mut probe.blocks_by_size, decision.instance);
                }
                // Hedged dispatch: a degraded or slow-estimating primary
                // gets a speculative duplicate on the runner-up, budget
                // and watermark permitting. The duplicate is ordinary
                // admitted load on its member; the pair race is settled
                // at the next resolution barrier.
                if let Some(h) = hedger.as_mut() {
                    if h.should_hedge(&signals[decision.instance], ewmas[decision.instance].ttft())
                    {
                        let bud = budget
                            .as_mut()
                            .expect("budget exists whenever hedging does");
                        bud.refill(t);
                        if bud.available() < h.config().min_budget_for_hedge {
                            h.stats.suppressed_budget += 1;
                        } else {
                            match h.pick_runner_up(signals, decision.instance) {
                                Some(ru) => {
                                    let spent = bud.try_spend();
                                    debug_assert!(spent, "reserve check guarantees a token");
                                    overload.budget_spent_hedge += 1;
                                    let hedge_local = self.members[ru].admit(spec.clone());
                                    routed[ru] += 1;
                                    h.launched(
                                        HedgePair {
                                            primary: (decision.instance, primary_local),
                                            hedge: (ru, hedge_local),
                                        },
                                        t,
                                    );
                                }
                                None => h.stats.suppressed_no_target += 1,
                            }
                        }
                    }
                }
                i += 1;
            }
            if sweep_due {
                if let Some(rep) = replicator.as_mut() {
                    self.replicate_sweep(rep, &mut probe, &states, t);
                }
            }
            while b < extra_barriers.len() && extra_barriers[b] <= t {
                b += 1;
            }
        }
        // Drain: every instance runs out its admitted work unbounded.
        self.step_all(SimTime::MAX);
        // Settle the last hedge races on the fully drained instances:
        // any pair with a finished copy retires here and its loser is
        // cancelled, before the books close.
        if let Some(h) = hedger.as_mut() {
            Self::resolve_hedges(&mut self.members, h, SimTime::MAX);
        }

        let failover_stats = match engine.as_mut() {
            Some(eng) => {
                let members = &self.members;
                eng.finalize(|target, local| members[target].instance.request_finished(local));
                eng.stats.clone()
            }
            None => FailoverStats::default(),
        };
        // A permanently crashed member ends its run stalled with
        // requests still buffered — its watchdog clock froze with the
        // last event, so deadline sheds never fired. Close the books
        // explicitly; on every other member this is a no-op, and work
        // stranded there is an engine stall, not a dead device.
        for m in &mut self.members {
            let closed = m.instance.shed_unresolved();
            debug_assert!(
                closed == 0 || m.instance.permanently_crashed(),
                "{} request(s) stranded on live member {}",
                closed,
                m.label
            );
        }
        // Pairs whose copies both ended without a finish (crashed or
        // shed on both members) are now fully resolved — retire them
        // winnerless so no pair outlives the run.
        if let Some(h) = hedger.as_mut() {
            Self::resolve_hedges(&mut self.members, h, SimTime::MAX);
            debug_assert!(h.pairs().is_empty(), "every hedge pair must retire");
        }

        let mut report = FleetReport {
            labels: Vec::with_capacity(self.members.len()),
            reports: Vec::with_capacity(self.members.len()),
            events: Vec::with_capacity(self.members.len()),
            routed,
            routing,
            failover: failover_stats,
            replication: replicator.map(|r| r.stats).unwrap_or_default(),
            health: health_stats,
            hedge: hedger.as_ref().map(|h| h.stats).unwrap_or_default(),
            overload,
        };
        for mut m in self.members {
            let (rep, events) = m.instance.finish(m.scheduler.as_mut());
            report.labels.push(m.label);
            report.reports.push(rep);
            report.events.push(events);
        }
        report
    }

    /// Drains crash victims off every ejected member that has somewhere
    /// to send them (another routable member with all GPUs alive), in
    /// member-index order. Reinjected-but-buffered victims are only
    /// drained off permanently crashed members — on a transient crash
    /// the local copy will run again, and draining it would double-run
    /// the request.
    fn drain_ejected(&mut self, eng: &mut FailoverEngine, states: &[HealthState], now: SimTime) {
        let escape_exists = |members: &[FleetMember], idx: usize| {
            members
                .iter()
                .enumerate()
                .any(|(j, m)| j != idx && states[j].admits_traffic() && m.instance.dead_gpus() == 0)
        };
        for (idx, state) in states.iter().enumerate() {
            if state.admits_traffic() || !escape_exists(&self.members, idx) {
                continue;
            }
            let member = &mut self.members[idx];
            let permanent = member.instance.permanently_crashed();
            let victims = member.instance.drain_crash_victims(permanent);
            if !victims.is_empty() {
                member.due = SimTime::ZERO;
                eng.enqueue_drained(victims, now);
            }
        }
    }

    /// Executes one replication sweep: for each of the hottest prefixes,
    /// exports the origin's cached slice of the recorded block streams
    /// and imports it into routable non-holders until
    /// [`ReplicationConfig::factor`] members hold it. Candidates are
    /// scanned on a ring starting antipodal to the origin
    /// (`origin + n/2`): correlated failures tend to strike neighboring
    /// members (a rack, a staggered crash wave), so a replica placed as
    /// far from its origin as possible is the one most likely to
    /// survive the fault that kills the original. Transfer cost is
    /// modeled as a background copy off the serving critical path (see
    /// DESIGN.md §14).
    ///
    /// Only members the holder index lists under an export's first
    /// block can already hold the prefix, so only they are probed.
    fn replicate_sweep(
        &mut self,
        rep: &mut Replicator,
        probe: &mut Probe,
        states: &[HealthState],
        now: SimTime,
    ) {
        let factor = rep.config().factor;
        if factor <= 1 {
            return;
        }
        probe.refresh(&mut self.members);
        let (mut pushes, mut tokens_pushed) = (0u64, 0u64);
        let mut exports: Vec<(u32, &[Block])> = Vec::new();
        for (_, h) in rep.hottest() {
            // Clip each recorded stream to what the origin still holds.
            exports.clear();
            for table in self.members[h.origin].scheduler.lease_tables() {
                let bs = table.block_size();
                let Some((_, blocks)) = h.blocks_by_size.iter().find(|(s, _)| *s == bs) else {
                    continue;
                };
                let clipped = table.export_prefix(blocks);
                if !clipped.is_empty() && !exports.iter().any(|(s, _)| *s == bs) {
                    exports.push((bs, clipped));
                }
            }
            let export_tokens = exports
                .iter()
                .map(|(_, blocks)| Block::total_tokens(blocks))
                .max()
                .unwrap_or(0);
            if export_tokens == 0 {
                continue;
            }
            let holds = |m: &FleetMember| {
                m.scheduler.lease_tables().iter().any(|table| {
                    exports
                        .iter()
                        .find(|(s, _)| *s == table.block_size())
                        .is_some_and(|(_, blocks)| table.peek_prefix(blocks) >= export_tokens)
                })
            };
            let candidates = &mut probe.candidates;
            probe
                .index
                .candidates(exports.iter().map(|&(_, blocks)| blocks), candidates);
            candidates.retain(|&c| holds(&self.members[c]));
            let mut holders = candidates.len();
            let n = self.members.len();
            let antipode = (h.origin + n / 2) % n;
            for step in 0..n {
                let j = (antipode + step) % n;
                if holders >= factor {
                    break;
                }
                if !states[j].admits_traffic() || self.members[j].instance.dead_gpus() > 0 {
                    continue;
                }
                if candidates.contains(&j) {
                    continue;
                }
                let member = &mut self.members[j];
                let mut tables = member.scheduler.lease_tables_mut();
                let mut pushed = false;
                for table in tables.iter_mut() {
                    if let Some((_, blocks)) =
                        exports.iter().find(|(s, _)| *s == table.block_size())
                    {
                        pushed |= table.insert(blocks, now);
                    }
                }
                probe.index.absorb(j, tables.iter().map(|t| &**t));
                member.due = SimTime::ZERO;
                if pushed {
                    holders += 1;
                    pushes += 1;
                    tokens_pushed += export_tokens;
                }
            }
        }
        rep.stats.replicas_pushed += pushes;
        rep.stats.tokens_pushed += tokens_pushed;
    }

    /// Settles hedge races against the instances as stepped to the
    /// current barrier: pair statuses are read first (immutably), then
    /// [`HedgeEngine::resolve`] retires decided pairs in launch order,
    /// cancelling each loser on its member via [`Instance::cancel`].
    fn resolve_hedges(members: &mut [FleetMember], hedger: &mut HedgeEngine, now: SimTime) {
        let status: Vec<PairStatus> = hedger
            .pairs()
            .iter()
            .map(|p| PairStatus {
                primary_finished: members[p.primary.0].instance.request_finished(p.primary.1),
                hedge_finished: members[p.hedge.0].instance.request_finished(p.hedge.1),
                primary_resolved: members[p.primary.0].instance.request_resolved(p.primary.1),
                hedge_resolved: members[p.hedge.0].instance.request_resolved(p.hedge.1),
            })
            .collect();
        hedger.resolve(now, &status, |m, id| {
            let member = &mut members[m];
            member.due = SimTime::ZERO;
            member.unindexed = true;
            match member.instance.cancel(member.scheduler.as_mut(), id) {
                CancelOutcome::Dropped => Some(true),
                CancelOutcome::Detached => Some(false),
                CancelOutcome::AlreadyResolved => None,
            }
        });
    }

    /// Advances every instance with an event before `t` to the merge
    /// barrier at `t`, optionally in parallel. Chunks are contiguous
    /// index ranges, so work-stealing nondeterminism never arises; each
    /// instance touches only its own state, so results are independent
    /// of the chunking.
    fn step_all(&mut self, t: SimTime) {
        let workers = self.threads.min(self.members.len());
        if workers <= 1 {
            step_members(&mut self.members, t);
            return;
        }
        let chunk = self.members.len().div_ceil(workers);
        std::thread::scope(|scope| {
            for slice in self.members.chunks_mut(chunk) {
                scope.spawn(move || step_members(slice, t));
            }
        });
    }
}

/// Reused buffers for reading the router signals of one request, plus
/// the holder index that narrows its prefix probes.
struct Probe {
    index: HolderIndex,
    /// Per-member signals of the last request probed, index order.
    signals: Vec<InstanceSignals>,
    /// The last request's block streams, one per pool block size in the
    /// fleet, computed once and shared by every member's probe.
    blocks_by_size: Vec<(u32, Vec<Block>)>,
    /// Holder-index candidates (scratch).
    candidates: Vec<usize>,
}

impl Probe {
    fn new(members: usize) -> Probe {
        Probe {
            index: HolderIndex::new(members),
            signals: Vec::with_capacity(members),
            blocks_by_size: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// Reads the new first blocks of every member whose scheduler ran
    /// since its tables were last read.
    fn refresh(&mut self, members: &mut [FleetMember]) {
        for (idx, m) in members.iter_mut().enumerate() {
            if m.unindexed {
                self.index.absorb(idx, m.scheduler.lease_tables());
                m.unindexed = false;
            }
        }
    }

    /// Reads the router signals for one request from every instance,
    /// index order, into `self.signals`. Prefix probes use
    /// [`serving::LeaseTable::peek_prefix`] (non-mutating, no hit
    /// statistics recorded) and touch only the members the holder index
    /// lists under one of the request's first blocks; every other
    /// member's probe would return 0, which is what it gets.
    // simlint: barrier
    // simlint: hot
    fn collect(&mut self, members: &mut [FleetMember], spec: &RequestSpec, states: &[HealthState]) {
        self.refresh(members);
        self.signals.clear();
        self.blocks_by_size.clear();
        for &bs in self.index.sizes() {
            self.blocks_by_size.push((bs, spec.content.blocks(bs)));
        }
        let input_tokens = spec.input_tokens();
        for (idx, m) in members.iter().enumerate() {
            self.signals.push(InstanceSignals {
                queue_depth: m.instance.in_flight(),
                prefix_hit_tokens: 0,
                input_tokens,
                healthy: m.instance.dead_gpus() == 0,
                health: states[idx],
                class: m.class,
            });
        }
        let streams = self
            .blocks_by_size
            .iter()
            .map(|(_, blocks)| blocks.as_slice());
        self.index.candidates(streams, &mut self.candidates);
        for &idx in &self.candidates {
            let mut hit = 0u64;
            for table in members[idx].scheduler.lease_tables() {
                let bs = table.block_size();
                if let Some((_, blocks)) = self.blocks_by_size.iter().find(|(s, _)| *s == bs) {
                    hit = hit.max(table.peek_prefix(blocks));
                }
            }
            self.signals[idx].prefix_hit_tokens = hit.min(input_tokens);
        }
        #[cfg(debug_assertions)]
        self.check_candidates(members);
    }

    /// Debug builds check the index against a full probe: a member the
    /// index does not list must hold none of the request's prefix.
    #[cfg(debug_assertions)]
    fn check_candidates(&self, members: &[FleetMember]) {
        for (idx, m) in members.iter().enumerate() {
            if self.candidates.contains(&idx) {
                continue;
            }
            for table in m.scheduler.lease_tables() {
                let bs = table.block_size();
                let hit = self
                    .blocks_by_size
                    .iter()
                    .find(|(s, _)| *s == bs)
                    .map_or(0, |(_, blocks)| table.peek_prefix(blocks));
                assert_eq!(
                    hit, 0,
                    "member {idx} holds a prefix the holder index misses"
                );
            }
        }
    }
}

/// The merge-barrier stepping loop: every instance with an event before
/// `t` advances to `t`. Instances are independent between barriers, so
/// slices of this loop run on worker threads with bit-identical results.
// simlint: hot
fn step_members(members: &mut [FleetMember], t: SimTime) {
    for m in members.iter_mut() {
        m.step_if_due(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::{ClusterSpec, CtxId, GpuSim, GroupId, KernelKind, WorkItem};
    use serving::{
        CrashVictim, FaultKind, FaultPlan, LeaseTable, RecoveryClass, ReqId, ServeCtx, SloSpec,
    };
    use simcore::SimRng;
    use workload::{generate_fleet_stream, ContentSpec, WorkloadKind};

    /// A miniature engine with a real lease table: prefill kernel sized
    /// by uncached tokens, full context committed to the radix on finish
    /// — enough for the router's prefix probes to see genuine reuse. It
    /// is crash-aware: fail-stop revokes in-flight leases and reports
    /// victims; arrivals while dead are buffered and resubmitted on
    /// recovery (never on a permanent crash).
    struct MiniEngine {
        group: Option<GroupId>,
        ctx_id: Option<CtxId>,
        table: LeaseTable,
        leases: Vec<Option<serving::KvLease>>,
        secs_per_kilotoken: f64,
        dead: bool,
        buffered: Vec<ReqId>,
    }

    impl MiniEngine {
        fn new() -> MiniEngine {
            // 10 µs per uncached kilo-token: cached prefixes finish fast.
            MiniEngine::with_speed(1e-5)
        }

        /// A slow variant whose kernels span simulated seconds, so a
        /// mid-run crash reliably catches work in flight.
        fn slow() -> MiniEngine {
            MiniEngine::with_speed(0.5)
        }

        fn with_speed(secs_per_kilotoken: f64) -> MiniEngine {
            MiniEngine {
                group: None,
                ctx_id: None,
                table: LeaseTable::new(2_000_000, 64),
                leases: Vec::new(),
                secs_per_kilotoken,
                dead: false,
                buffered: Vec::new(),
            }
        }

        fn submit_one(&mut self, id: ReqId, ctx: &mut ServeCtx) {
            let now = ctx.now();
            let spec = ctx.request(id);
            let blocks = spec.content.blocks(self.table.block_size());
            let lease = self.table.lease_prefix(id, &blocks, now);
            let fresh = spec.input_tokens() - lease.matched_tokens();
            if self.leases.len() <= id {
                self.leases.resize_with(id + 1, || None);
            }
            self.leases[id] = Some(lease);
            let secs = self.secs_per_kilotoken * (fresh as f64 / 1000.0).max(0.1);
            let work = WorkItem::new(KernelKind::Prefill, 0.0, 0.0, secs);
            ctx.gpu.submit(
                self.group.unwrap(),
                self.ctx_id.unwrap(),
                work,
                now,
                id as u64,
            );
        }
    }

    impl Scheduler for MiniEngine {
        fn on_start(&mut self, ctx: &mut ServeCtx) {
            let g = ctx.gpu.create_group(vec![0]);
            self.group = Some(g);
            self.ctx_id = Some(ctx.gpu.set_context(g, 108));
        }
        fn on_arrival(&mut self, id: ReqId, ctx: &mut ServeCtx) {
            if self.dead {
                self.buffered.push(id);
                return;
            }
            self.submit_one(id, ctx);
        }
        fn on_kernel_done(&mut self, tag: u64, ctx: &mut ServeCtx) {
            let id = tag as ReqId;
            let now = ctx.now();
            let out = ctx.request(id).output_tokens;
            let blocks = ctx.request(id).content.blocks(self.table.block_size());
            let lease = self.leases[id].take().expect("lease present");
            self.table.release_and_commit(lease, &blocks, now);
            ctx.emit_tokens(id, out);
            ctx.finish_request(id);
        }
        fn on_gpu_lost(
            &mut self,
            _gpu: u32,
            cancelled: &[u64],
            ctx: &mut ServeCtx,
        ) -> Vec<CrashVictim> {
            self.dead = true;
            let mut victims = Vec::new();
            for &tag in cancelled {
                let id = tag as ReqId;
                if let Some(lease) = self.leases.get_mut(id).and_then(Option::take) {
                    self.table.release(lease);
                }
                victims.push(CrashVictim {
                    id,
                    class: RecoveryClass::ReprefillFull,
                    lost_tokens: ctx.request(id).input_tokens(),
                });
            }
            victims
        }
        fn on_gpu_recovered(&mut self, _gpu: u32, ctx: &mut ServeCtx) {
            self.dead = false;
            for id in std::mem::take(&mut self.buffered) {
                self.submit_one(id, ctx);
            }
        }
        fn groups(&self) -> Vec<GroupId> {
            self.group.into_iter().collect()
        }
        fn lease_tables(&self) -> Vec<&LeaseTable> {
            vec![&self.table]
        }
        fn lease_tables_mut(&mut self) -> Vec<&mut LeaseTable> {
            vec![&mut self.table]
        }
    }

    fn mini_fleet(n: usize, threads: usize) -> Fleet {
        mini_fleet_faults(n, threads, |_| FaultPlan::none(), MiniEngine::new)
    }

    fn mini_fleet_faults(
        n: usize,
        threads: usize,
        plan: impl Fn(usize) -> FaultPlan,
        engine: impl Fn() -> MiniEngine,
    ) -> Fleet {
        let mut fleet = Fleet::new().with_threads(threads);
        for i in 0..n {
            let gpu = GpuSim::from_cluster(&ClusterSpec::single_a100());
            let driver = Driver::new(gpu, Vec::new(), SloSpec::llama8b()).with_faults(plan(i));
            fleet.push(
                driver,
                Box::new(engine()),
                PathClass::SingleNode,
                format!("mini{i}"),
            );
        }
        fleet
    }

    /// One permanent fail-stop on the member's single GPU at `start`.
    fn perm_crash(start: f64) -> FaultPlan {
        FaultPlan::single(
            FaultKind::GpuFailStopPermanent { gpu: 0 },
            SimTime::from_secs(start),
            SimTime::from_secs(1e9),
        )
    }

    fn req(id: u64, arrival: f64, session: u64, tokens: u64) -> RequestSpec {
        RequestSpec {
            id,
            arrival: SimTime::from_secs(arrival),
            session,
            turn: 0,
            content: ContentSpec::single(session, tokens),
            prior_context: 0,
            output_tokens: 10,
        }
    }

    fn trace(fleet_size: usize) -> Vec<RequestSpec> {
        let mut rng = SimRng::seed_from(0xF1EE7);
        generate_fleet_stream(
            WorkloadKind::Conversation,
            fleet_size,
            3,
            0.5,
            10.0,
            &mut rng,
        )
    }

    #[test]
    fn round_robin_balances_and_drains() {
        let trace = trace(4);
        let report = mini_fleet(4, 1).run(&trace, &mut RoundRobin::new());
        assert_eq!(report.total(), trace.len());
        assert_eq!(report.finished() + report.shed(), report.total());
        assert_eq!(report.leaked_leases(), 0);
        let spread = report.routed.iter().max().unwrap() - report.routed.iter().min().unwrap();
        assert!(
            spread <= 1,
            "round robin spread {spread}: {:?}",
            report.routed
        );
    }

    #[test]
    fn prefix_affinity_finds_session_reuse() {
        let trace = trace(4);
        let rr = mini_fleet(4, 1).run(&trace, &mut RoundRobin::new());
        let aff = mini_fleet(4, 1).run(&trace, &mut PrefixAffinity::default());
        assert_eq!(aff.finished() + aff.shed(), aff.total());
        assert!(
            aff.prefix_hit_rate() > rr.prefix_hit_rate(),
            "affinity hit rate {} should beat round robin {}",
            aff.prefix_hit_rate(),
            rr.prefix_hit_rate()
        );
        assert!(
            aff.prefix_hit_rate() > 0.2,
            "multi-turn sessions should reuse context"
        );
    }

    #[test]
    fn thread_count_does_not_change_the_report() {
        let trace = trace(5);
        let one = mini_fleet(5, 1).run(&trace, &mut PrefixAffinity::default());
        let four = mini_fleet(5, 4).run(&trace, &mut PrefixAffinity::default());
        assert_eq!(one, four);
    }

    #[test]
    fn extra_barriers_are_no_ops() {
        let trace = trace(3);
        let plain = mini_fleet(3, 1).run(&trace, &mut RoundRobin::new());
        let barriers: Vec<SimTime> = (1..40)
            .map(|k| SimTime::from_secs(k as f64 * 0.73))
            .collect();
        let chopped = mini_fleet(3, 1).run_opts(&trace, &mut RoundRobin::new(), &barriers);
        assert_eq!(plain, chopped);
    }

    #[test]
    fn empty_fleet_refuses_a_trace() {
        let t = trace(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Fleet::new().run(&t, &mut RoundRobin::new())
        }));
        assert!(result.is_err());
    }

    /// The tentpole end-to-end: a permanent crash on member 0 catches a
    /// slow prefill in flight; the health breaker ejects the member, the
    /// failover engine drains the victim and re-admits it on member 1,
    /// where it finishes — and the fleet books still balance.
    fn failover_trace() -> Vec<RequestSpec> {
        vec![
            req(0, 0.5, 10, 2000), // member 0 (round robin), finishes pre-crash
            req(1, 0.6, 11, 2000), // member 1
            req(2, 2.5, 12, 2000), // member 0: in flight at the 3.0s crash
            req(3, 8.0, 13, 2000), // post-crash: routes around the dead member
        ]
    }

    fn failover_fleet(threads: usize) -> Fleet {
        mini_fleet_faults(
            2,
            threads,
            |i| {
                if i == 0 {
                    perm_crash(3.0)
                } else {
                    FaultPlan::none()
                }
            },
            MiniEngine::slow,
        )
    }

    #[test]
    fn permanent_crash_migrates_victims_to_a_survivor() {
        let report = failover_fleet(1).run(&failover_trace(), &mut RoundRobin::new());
        assert_eq!(report.failover.drained, 1, "{:?}", report.failover);
        assert_eq!(report.failover.migrated, 1);
        assert_eq!(report.failover.migrated_finished, 1);
        assert_eq!(report.failover.reprefill, 1, "no replication configured");
        assert_eq!(report.failover.gave_up, 0);
        assert!(report.health.ejections >= 1);
        // The victim's local copy was closed as shed on member 0 and its
        // migrated copy finished on member 1 — nothing double-runs.
        assert_eq!(report.reports[0].recovery.migrated_out, 1);
        assert_eq!(report.finished() + report.shed(), report.total());
        assert_eq!(report.leaked_leases(), 0);
        assert_eq!(report.routed, vec![2, 3], "migration lands on member 1");
    }

    #[test]
    fn migration_is_bit_identical_across_thread_counts() {
        let one = failover_fleet(1).run(&failover_trace(), &mut RoundRobin::new());
        let four = failover_fleet(4).run(&failover_trace(), &mut RoundRobin::new());
        assert_eq!(one, four);
    }

    #[test]
    fn extra_barriers_stay_no_ops_under_crash_and_failover() {
        let plain = failover_fleet(1).run(&failover_trace(), &mut RoundRobin::new());
        let barriers: Vec<SimTime> = (1..80)
            .map(|k| SimTime::from_secs(k as f64 * 0.37))
            .collect();
        let chopped =
            failover_fleet(1).run_opts(&failover_trace(), &mut RoundRobin::new(), &barriers);
        assert_eq!(plain, chopped);
    }

    #[test]
    fn without_failover_sheds_what_migration_would_save() {
        let report = failover_fleet(1)
            .without_failover()
            .run(&failover_trace(), &mut RoundRobin::new());
        assert_eq!(report.failover, FailoverStats::default());
        assert_eq!(report.finished() + report.shed(), report.total());
        assert!(
            report.shed() >= 1,
            "the crash victim must shed without failover"
        );
        assert_eq!(report.reports[0].recovery.migrated_out, 0);
    }

    /// Hot-prefix replication pre-positions a hot session's context on a
    /// second member, so the migrated victim re-enters as a cached
    /// resume instead of a full re-prefill.
    #[test]
    fn replication_converts_migrations_to_cached_resumes() {
        let run = |replicate: bool| {
            let mut fleet = mini_fleet_faults(
                2,
                1,
                |i| {
                    if i == 0 {
                        perm_crash(2.8)
                    } else {
                        FaultPlan::none()
                    }
                },
                MiniEngine::slow,
            );
            if replicate {
                fleet = fleet.with_replication(ReplicationConfig {
                    factor: 2,
                    top_k: 4,
                    min_hits: 2,
                    sweep_every: 2,
                });
            }
            // One hot session growing its context across turns
            // (block-aligned so the replicated prefix carries no partial
            // tail); turn 3 is in flight on member 0 when the crash hits.
            let trace = vec![
                req(0, 0.3, 42, 2048),
                req(1, 2.0, 42, 3072),
                req(2, 2.6, 42, 4096),
            ];
            fleet.run(&trace, &mut PrefixAffinity::default())
        };
        let plain = run(false);
        assert_eq!(plain.failover.migrated, 1, "{:?}", plain.failover);
        assert_eq!(plain.failover.replica_hit, 0);
        assert_eq!(plain.replication, ReplicationStats::default());

        let replicated = run(true);
        assert_eq!(replicated.failover.migrated, 1, "{:?}", replicated.failover);
        assert!(
            replicated.replication.replicas_pushed >= 1,
            "{:?}",
            replicated.replication
        );
        assert_eq!(
            replicated.failover.replica_hit, 1,
            "the migrated victim must find its replicated prefix: {:?}",
            replicated.failover
        );
        assert_eq!(replicated.failover.migrated_finished, 1);
        assert_eq!(replicated.leaked_leases(), 0);
    }

    /// A transient crash never migrates: its victims are reinjected
    /// locally (draining them too would double-run the request once the
    /// GPU recovers).
    #[test]
    fn transient_crash_recovers_locally_without_migration() {
        let plan = |i: usize| {
            if i == 0 {
                FaultPlan::crash(0, SimTime::from_secs(3.0), SimDuration::from_secs(5.0))
            } else {
                FaultPlan::none()
            }
        };
        let fleet = mini_fleet_faults(2, 1, plan, MiniEngine::slow);
        let report = fleet.run(&failover_trace(), &mut RoundRobin::new());
        assert_eq!(report.failover.drained, 0, "{:?}", report.failover);
        assert_eq!(report.failover.migrated, 0);
        assert!(
            report.reports[0].recovery.recovered >= 1,
            "local retry wins"
        );
        assert_eq!(report.finished() + report.shed(), report.total());
        assert_eq!(report.leaked_leases(), 0);
    }

    /// Failover/replication/hedging config on a fault-free fleet is a
    /// strict no-op: no member schedules any fault, so no tier arms and
    /// the report is bit-identical to the plain run.
    #[test]
    fn crash_free_runs_ignore_fault_tolerance_config() {
        let trace = trace(3);
        let plain = mini_fleet(3, 1).run(&trace, &mut PrefixAffinity::default());
        let configured = mini_fleet(3, 1)
            .with_health(HealthConfig::default())
            .with_failover(FailoverConfig::default())
            .with_replication(ReplicationConfig::default())
            .with_hedging(HedgeConfig::default())
            .run(&trace, &mut PrefixAffinity::default());
        assert_eq!(plain, configured);
        assert_eq!(plain.failover, FailoverStats::default());
        assert_eq!(plain.replication, ReplicationStats::default());
        assert_eq!(plain.health, HealthStats::default());
        assert_eq!(plain.hedge, HedgeStats::default());
        assert_eq!(plain.overload, OverloadStats::default());
    }

    /// One kernel-latency-spike gray window on member 0: every kernel
    /// runs `mult`× slower for `len` seconds; no GPU dies, no severe
    /// flag is raised.
    fn gray_spike(start: f64, len: f64, mult: f64) -> FaultPlan {
        FaultPlan::single(
            FaultKind::KernelLatencySpike {
                mult,
                duration: SimDuration::from_secs(len),
            },
            SimTime::from_secs(start),
            SimTime::from_secs(start + len),
        )
    }

    fn gray_fleet(threads: usize) -> Fleet {
        mini_fleet_faults(
            2,
            threads,
            |i| {
                if i == 0 {
                    gray_spike(1.0, 60.0, 20.0)
                } else {
                    FaultPlan::none()
                }
            },
            MiniEngine::slow,
        )
    }

    fn gray_trace() -> Vec<RequestSpec> {
        vec![
            req(0, 0.5, 10, 2000), // member 0 (round robin)
            req(1, 0.6, 11, 2000), // member 1, finishes fast
            req(2, 2.5, 12, 2000), // member 0: degraded by now → hedged
        ]
    }

    /// The gray tentpole end-to-end: the spike degrades member 0 via
    /// its gray observation, the request routed there gets a hedge on
    /// member 1, the hedge finishes first, and the slow primary copy is
    /// cancelled — with the books still closing.
    #[test]
    fn hedging_rescues_a_request_from_a_gray_member() {
        let report = gray_fleet(1)
            .with_hedging(HedgeConfig::default())
            .run(&gray_trace(), &mut RoundRobin::new());
        assert!(report.health.gray_trips >= 1, "{:?}", report.health);
        assert_eq!(report.hedge.launched, 1, "{:?}", report.hedge);
        assert_eq!(report.hedge.hedge_wins, 1);
        assert_eq!(report.hedge.cancelled_detached, 1);
        assert_eq!(report.overload.budget_spent_hedge, 1);
        assert_eq!(report.cancelled(), 1);
        assert_eq!(report.total(), 4, "three arrivals plus one hedge copy");
        assert_eq!(
            report.finished() + report.shed() + report.cancelled(),
            report.total()
        );
        assert_eq!(report.leaked_leases(), 0);
    }

    #[test]
    fn hedged_runs_are_bit_identical_across_thread_counts() {
        let one = gray_fleet(1)
            .with_hedging(HedgeConfig::default())
            .run(&gray_trace(), &mut RoundRobin::new());
        let four = gray_fleet(4)
            .with_hedging(HedgeConfig::default())
            .run(&gray_trace(), &mut RoundRobin::new());
        assert_eq!(one, four);
    }

    /// Hedging that is configured but can never fire (infinite delay
    /// threshold, no degraded trigger) is dormant even when a gray
    /// fault arms the tier: the barrier sequence and report match the
    /// hedging-free run bit for bit.
    #[test]
    fn armed_but_untriggerable_hedging_is_dormant() {
        let plain = gray_fleet(1).run(&gray_trace(), &mut RoundRobin::new());
        let dormant = gray_fleet(1)
            .with_hedging(HedgeConfig::untriggerable())
            .run(&gray_trace(), &mut RoundRobin::new());
        assert_eq!(plain, dormant);
        assert_eq!(dormant.hedge, HedgeStats::default());
        assert!(plain.health.gray_trips >= 1, "the gray signal still fires");
    }

    /// With the ingress watermark at zero, every arrival after the first
    /// barrier sees all members "over the line" and sheds at ingress —
    /// nothing is admitted, nothing leaks.
    #[test]
    fn ingress_watermark_sheds_first_copies() {
        let report = gray_fleet(1)
            .with_hedging(HedgeConfig {
                ingress_watermark: 0,
                ..HedgeConfig::default()
            })
            .run(&gray_trace(), &mut RoundRobin::new());
        assert_eq!(report.overload.ingress_shed, 3, "{:?}", report.overload);
        assert_eq!(report.total(), 0);
        assert_eq!(report.hedge.launched, 0);
        assert_eq!(report.leaked_leases(), 0);
    }
}
