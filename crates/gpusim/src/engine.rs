//! The GPU execution engine: groups, green contexts, kernels, contention.
//!
//! ## Execution model
//!
//! * A **group** is a set of GPUs running in lockstep (a tensor-parallel
//!   rank group). Work items describe per-GPU cost, so a group executes
//!   like one logical GPU.
//! * A **context** is a green-context SM partition inside a group. Each
//!   context owns a FIFO kernel queue (CUDA-stream semantics: only the
//!   head runs).
//! * Execution is **processor sharing**: between events, every running
//!   kernel progresses at a constant speed in `(0, 1]` of its solo rate.
//!   Speeds change only when the running set changes, so the simulation
//!   advances from boundary to boundary exactly.
//!
//! ## Contention ground truth
//!
//! A kernel's solo duration is `max(flops/compute_rate, bytes/mem_rate) +
//! fixed`. Its average bandwidth demand is `bytes / solo`. When co-running
//! kernels in one group together demand more than HBM peak, grants are
//! assigned by weighted water-filling (weight = achievable bandwidth of
//! the kernel's SM share) and a kernel's speed is `grant / demand`.
//! On top, a deterministic **interference residual** (hash of the
//! configuration, scaled by the co-runners' memory pressure and capped by
//! [`crate::GpuSpec::contention_residual_max`]) reproduces the
//! configuration-dependent, hard-to-predict slowdowns of Fig. 11.
//! Schedulers must discover this through profiling — the residual is not
//! exposed.

use std::collections::VecDeque;

use simcore::{SimDuration, SimTime};

use crate::link::{LinkId, Links, TransferId};
use crate::spec::{ClusterSpec, GpuSpec};
use crate::work::WorkItem;

/// Identifies a lockstep GPU group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(pub(crate) usize);

/// Identifies a green context within a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CtxId(pub(crate) usize);

/// Identifies a submitted kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelId(pub(crate) usize);

#[derive(Debug)]
struct Ctx {
    sms: u32,
    queue: VecDeque<KernelId>,
    /// Contexts cannot run kernels before this (reconfiguration cost).
    available_at: SimTime,
    created_at: SimTime,
    busy: SimDuration,
    alive: bool,
}

#[derive(Debug)]
struct Group {
    gpus: Vec<u32>,
    ctxs: Vec<Ctx>,
    created_at: SimTime,
    /// Integrated `sm_share × quality × dt` for utilization reporting.
    util_accum: f64,
    accounted_from: SimTime,
    alive: bool,
    /// Cached `(kernel, speed)` pairs for the current running set, in
    /// context-index order. Speeds are a pure function of the running-set
    /// configuration (membership, SM sizes, degradation), so the cache is
    /// bit-identical to recomputing; it is rebuilt lazily whenever
    /// `speeds_dirty` is set by a mutation that can change the set.
    speeds: Vec<(KernelId, f64)>,
    speeds_dirty: bool,
}

/// Reusable buffers for the speed recomputation, so the per-event hot
/// path allocates nothing once warmed up.
#[derive(Debug, Default)]
struct SpeedScratch {
    running: Vec<KernelId>,
    demands: Vec<f64>,
    weights: Vec<f64>,
    grants: Vec<f64>,
    satisfied: Vec<bool>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KernelState {
    Queued,
    Running,
    Done,
    Cancelled,
}

#[derive(Debug)]
struct Kernel {
    group: GroupId,
    ctx: CtxId,
    work: WorkItem,
    tag: u64,
    ready_at: SimTime,
    state: KernelState,
    started_at: SimTime,
    /// Solo execution time in seconds on this kernel's context.
    solo_secs: f64,
    /// Average HBM bandwidth demand at full speed, bytes/s per GPU.
    bw_demand: f64,
    /// Compute-time fraction of the solo duration (1.0 = fully
    /// compute-bound); used for utilization accounting.
    comp_frac: f64,
    /// Fraction of the work remaining, 1.0 → 0.0.
    remaining: f64,
}

/// Kernel storage with a sliding base: retired kernels at the front of
/// the slab are reclaimed in batches, so the table stays O(live) for
/// arbitrarily long runs instead of growing — and re-copying on every
/// capacity doubling — with each submission. `KernelId`s are stable
/// (an id is `base + slab index`), so context queues, speed caches,
/// and drained completion pairs are unaffected by compaction.
#[derive(Debug)]
struct KernelTable {
    base: usize,
    slab: Vec<Kernel>,
}

/// Compaction is attempted only past this slab length (keeps the
/// prefix walk off short-lived simulators entirely).
const COMPACT_MIN_LEN: usize = 128;
/// Minimum retired prefix worth a memmove of the live tail.
const COMPACT_MIN_PREFIX: usize = 64;

impl KernelTable {
    fn new() -> KernelTable {
        KernelTable {
            base: 0,
            slab: Vec::new(),
        }
    }

    /// The id the next pushed kernel will receive.
    #[inline]
    fn next_id(&self) -> KernelId {
        KernelId(self.base + self.slab.len())
    }

    #[inline]
    fn push(&mut self, k: Kernel) {
        self.slab.push(k);
    }

    // simlint: hot
    #[inline]
    fn get(&self, id: KernelId) -> &Kernel {
        &self.slab[id.0 - self.base]
    }

    // simlint: hot
    #[inline]
    fn get_mut(&mut self, id: KernelId) -> &mut Kernel {
        &mut self.slab[id.0 - self.base]
    }

    /// Reclaims the retired (`Done`/`Cancelled`) prefix in batches. The
    /// drain memmoves only the few live kernels at the tail, so total
    /// copy traffic over a run is bounded by live-set size × number of
    /// compactions — kilobytes where unbounded growth copied megabytes.
    // simlint: hot
    fn compact(&mut self) {
        if self.slab.len() < COMPACT_MIN_LEN {
            return;
        }
        let retired = self
            .slab
            .iter()
            .take_while(|k| matches!(k.state, KernelState::Done | KernelState::Cancelled))
            .count();
        if retired >= COMPACT_MIN_PREFIX {
            self.slab.drain(..retired);
            self.base += retired;
        }
    }
}

/// A hardware degradation applied to the simulator for a fault window
/// (see [`GpuSim::apply_degradation`]).
///
/// Fractions follow the same convention as `serving::faults`: `fraction`
/// is the share of the resource *lost*, `bw_fraction` the share
/// *remaining*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HwDegradation {
    /// A slice of one GPU's SMs goes offline.
    SmOffline {
        /// The affected GPU index.
        gpu: u32,
        /// Fraction of SMs lost, in `[0, 1)`.
        fraction: f64,
    },
    /// One GPU's HBM runs at a fraction of nominal bandwidth.
    HbmBandwidth {
        /// The affected GPU index.
        gpu: u32,
        /// Remaining bandwidth fraction, in `(0, 1]`.
        bw_fraction: f64,
    },
    /// One NVLink link runs at a fraction of nominal bandwidth.
    NvlinkBandwidth {
        /// The affected link index (taken modulo the created links; a
        /// no-op on servers without links).
        link: usize,
        /// Remaining bandwidth fraction, in `(0, 1]`.
        bw_fraction: f64,
    },
    /// Every kernel runs `mult`× slower (driver stutter, thermal
    /// throttle).
    KernelSlowdown {
        /// Slowdown multiplier, `>= 1`.
        mult: f64,
    },
}

/// Active degradation multipliers, all `1.0` when healthy. Kept out of
/// the hot path entirely while `active` is false so fault-free runs are
/// bit-identical to a build without fault support.
#[derive(Debug)]
struct DegradeState {
    /// Per-GPU remaining SM fraction.
    sm: Vec<f64>,
    /// Per-GPU remaining HBM bandwidth fraction.
    hbm: Vec<f64>,
    /// Global kernel slowdown multiplier.
    mult: f64,
    active: bool,
}

impl DegradeState {
    fn healthy(num_gpus: u32) -> DegradeState {
        DegradeState {
            sm: vec![1.0; num_gpus as usize],
            hbm: vec![1.0; num_gpus as usize],
            mult: 1.0,
            active: false,
        }
    }
}

/// The GPU server simulator. See the [module docs](self) for the model.
#[derive(Debug)]
pub struct GpuSim {
    spec: GpuSpec,
    num_gpus: u32,
    now: SimTime,
    groups: Vec<Group>,
    kernels: KernelTable,
    completed: Vec<(KernelId, u64)>,
    links: Links,
    degrade: DegradeState,
    speed_scratch: SpeedScratch,
    /// Fail-stop state per GPU. Deliberately *not* part of
    /// [`DegradeState`]: degradation is recomputed from scratch at every
    /// fault boundary ([`GpuSim::clear_degradation`]), while a dead GPU
    /// stays dead until [`GpuSim::recover_gpu`]. All-false on healthy
    /// runs, keeping the hot path untouched.
    dead: Vec<bool>,
    /// Cached `dead.iter().any()` so the healthy hot path never scans
    /// the per-GPU vector (updated by fail/recover only).
    any_dead: bool,
    /// Boundary events processed (kernel starts/completions, link
    /// completions) — pure telemetry for throughput reporting; never
    /// feeds simulation state or replay-visible output.
    events: u64,
}

/// Minimum meaningful solo duration; protects against zero-work kernels.
const MIN_SOLO_SECS: f64 = 1e-9;
/// Remaining-fraction threshold below which a kernel is complete.
const DONE_EPS: f64 = 1e-9;

impl GpuSim {
    /// Creates a simulator for `num_gpus` identical GPUs.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus` is zero.
    pub fn new(spec: GpuSpec, num_gpus: u32, nvlink_gbs: f64) -> GpuSim {
        assert!(num_gpus > 0, "need at least one GPU");
        GpuSim {
            spec,
            num_gpus,
            now: SimTime::ZERO,
            groups: Vec::new(),
            kernels: KernelTable::new(),
            completed: Vec::new(),
            links: Links::new(nvlink_gbs),
            degrade: DegradeState::healthy(num_gpus),
            speed_scratch: SpeedScratch::default(),
            dead: vec![false; num_gpus as usize],
            any_dead: false,
            events: 0,
        }
    }

    /// Creates a simulator from a [`ClusterSpec`].
    pub fn from_cluster(cluster: &ClusterSpec) -> GpuSim {
        GpuSim::new(cluster.gpu.clone(), cluster.num_gpus, cluster.nvlink_gbs)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total boundary events processed since construction — telemetry
    /// for events/wall-second reporting (never replay-visible).
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// The GPU model simulated.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Number of GPUs in the server.
    pub fn num_gpus(&self) -> u32 {
        self.num_gpus
    }

    /// Creates a lockstep group over the given GPU indices.
    ///
    /// # Panics
    ///
    /// Panics if `gpus` is empty or contains an out-of-range index.
    pub fn create_group(&mut self, gpus: Vec<u32>) -> GroupId {
        assert!(!gpus.is_empty(), "empty group");
        assert!(
            gpus.iter().all(|&g| g < self.num_gpus),
            "GPU index out of range"
        );
        self.groups.push(Group {
            gpus,
            ctxs: Vec::new(),
            created_at: self.now,
            util_accum: 0.0,
            accounted_from: self.now,
            alive: true,
            speeds: Vec::new(),
            speeds_dirty: true,
        });
        GroupId(self.groups.len() - 1)
    }

    /// Destroys a group.
    ///
    /// # Panics
    ///
    /// Panics if any kernel is still queued or running on the group.
    pub fn destroy_group(&mut self, group: GroupId) {
        let g = &mut self.groups[group.0];
        assert!(
            g.ctxs.iter().all(|c| c.queue.is_empty()),
            "destroying group with pending kernels"
        );
        g.alive = false;
        g.speeds_dirty = true;
        for c in &mut g.ctxs {
            c.alive = false;
        }
    }

    /// Creates a green context with `sms` SMs inside a group.
    ///
    /// # Panics
    ///
    /// Panics if `sms` is zero, exceeds the SM count, or would
    /// oversubscribe the group's SMs across live contexts.
    pub fn set_context(&mut self, group: GroupId, sms: u32) -> CtxId {
        assert!(sms > 0 && sms <= self.spec.sm_count, "bad SM count {sms}");
        let g = &mut self.groups[group.0];
        assert!(g.alive, "group destroyed");
        let in_use: u32 = g.ctxs.iter().filter(|c| c.alive).map(|c| c.sms).sum();
        assert!(
            in_use + sms <= self.spec.sm_count,
            "SM oversubscription: {in_use} + {sms} > {}",
            self.spec.sm_count
        );
        g.ctxs.push(Ctx {
            sms,
            queue: VecDeque::new(),
            available_at: self.now + self.spec.reconfig_cost,
            created_at: self.now,
            busy: SimDuration::ZERO,
            alive: true,
        });
        g.speeds_dirty = true;
        CtxId(g.ctxs.len() - 1)
    }

    /// Resizes an **idle** context (green-context reconfiguration: a
    /// stream synchronization, microseconds).
    ///
    /// # Panics
    ///
    /// Panics if the context has queued or running kernels, or if the new
    /// size oversubscribes the group.
    pub fn resize_context(&mut self, group: GroupId, ctx: CtxId, sms: u32) {
        assert!(sms > 0 && sms <= self.spec.sm_count, "bad SM count {sms}");
        let g = &mut self.groups[group.0];
        let in_use: u32 = g
            .ctxs
            .iter()
            .enumerate()
            .filter(|(i, c)| c.alive && *i != ctx.0)
            .map(|(_, c)| c.sms)
            .sum();
        assert!(in_use + sms <= self.spec.sm_count, "SM oversubscription");
        let c = &mut g.ctxs[ctx.0];
        assert!(c.alive, "context removed");
        assert!(c.queue.is_empty(), "resizing a busy context");
        c.sms = sms;
        c.available_at = self.now + self.spec.reconfig_cost;
        g.speeds_dirty = true;
    }

    /// Removes a context, freeing its SMs.
    ///
    /// # Panics
    ///
    /// Panics if the context still has queued or running kernels.
    pub fn remove_context(&mut self, group: GroupId, ctx: CtxId) {
        let c = &mut self.groups[group.0].ctxs[ctx.0];
        assert!(c.queue.is_empty(), "removing a busy context");
        c.alive = false;
        self.groups[group.0].speeds_dirty = true;
    }

    /// The SM count of a live context.
    pub fn context_sms(&self, group: GroupId, ctx: CtxId) -> u32 {
        self.groups[group.0].ctxs[ctx.0].sms
    }

    /// The GPU indices a group spans.
    pub fn group_gpus(&self, group: GroupId) -> &[u32] {
        &self.groups[group.0].gpus
    }

    /// When a group was created.
    pub fn group_created_at(&self, group: GroupId) -> SimTime {
        self.groups[group.0].created_at
    }

    /// The group a kernel was submitted to.
    pub fn kernel_group(&self, kernel: KernelId) -> GroupId {
        self.kernels.get(kernel).group
    }

    /// Submits a kernel to a context's FIFO queue. The kernel cannot start
    /// before `ready_at` (use this to model host-side launch latency).
    /// `tag` is an opaque payload returned on completion.
    ///
    /// # Panics
    ///
    /// Panics if the group or context is dead.
    pub fn submit(
        &mut self,
        group: GroupId,
        ctx: CtxId,
        work: WorkItem,
        ready_at: SimTime,
        tag: u64,
    ) -> KernelId {
        let g = &self.groups[group.0];
        assert!(g.alive, "group destroyed");
        if self.any_dead {
            assert!(
                g.gpus.iter().all(|&gpu| !self.dead[gpu as usize]),
                "submitting to a group with a failed GPU"
            );
        }
        let c = &g.ctxs[ctx.0];
        assert!(c.alive, "context removed");
        let (solo_secs, bw_demand, comp_frac) = self.solo_profile(c.sms, &work);
        let id = self.kernels.next_id();
        self.kernels.push(Kernel {
            group,
            ctx,
            work,
            tag,
            ready_at: ready_at.max(self.now),
            state: KernelState::Queued,
            started_at: SimTime::ZERO,
            solo_secs,
            bw_demand,
            comp_frac,
            remaining: 1.0,
        });
        self.groups[group.0].ctxs[ctx.0].queue.push_back(id);
        id
    }

    /// Solo (contention-free) duration in seconds of `work` on a `sms`-SM
    /// context. This is what offline profiling of a solo run would
    /// measure; the estimator crate uses it to generate its training set.
    pub fn solo_duration(&self, sms: u32, work: &WorkItem) -> f64 {
        self.solo_profile(sms, work).0
    }

    fn solo_profile(&self, sms: u32, work: &WorkItem) -> (f64, f64, f64) {
        let t_comp = work.flops / self.spec.compute_rate_for(work.kind, sms);
        let t_mem = work.bytes / self.spec.mem_rate(sms);
        let roofline = t_comp.max(t_mem);
        let solo = (roofline + work.fixed_secs).max(MIN_SOLO_SECS);
        let bw_demand = work.bytes / solo;
        let comp_frac = if roofline <= 0.0 {
            0.0
        } else {
            (t_comp / solo).clamp(0.0, 1.0)
        };
        (solo, bw_demand, comp_frac)
    }

    /// Cancels all **not-yet-started** kernels in a context's queue (GPU
    /// execution is non-preemptive, so the running head always finishes).
    /// Returns the `(id, tag)` of each cancelled kernel in queue order.
    pub fn cancel_queued(&mut self, group: GroupId, ctx: CtxId) -> Vec<(KernelId, u64)> {
        let queue = &mut self.groups[group.0].ctxs[ctx.0].queue;
        let mut cancelled = Vec::new();
        let mut keep = VecDeque::new();
        while let Some(kid) = queue.pop_front() {
            let k = self.kernels.get_mut(kid);
            if k.state == KernelState::Running {
                keep.push_back(kid);
            } else {
                k.state = KernelState::Cancelled;
                cancelled.push((kid, k.tag));
            }
        }
        *queue = keep;
        cancelled
    }

    /// Number of kernels queued or running on a context.
    pub fn queue_len(&self, group: GroupId, ctx: CtxId) -> usize {
        self.groups[group.0].ctxs[ctx.0].queue.len()
    }

    /// True if the context has no queued or running kernels.
    pub fn is_idle(&self, group: GroupId, ctx: CtxId) -> bool {
        self.queue_len(group, ctx) == 0
    }

    /// The tag a kernel was submitted with.
    pub fn kernel_tag(&self, kernel: KernelId) -> u64 {
        self.kernels.get(kernel).tag
    }

    // ----- time advancement ------------------------------------------------

    /// The time of the next state change (kernel start, kernel completion,
    /// or link-transfer completion), or `None` if fully idle.
    // simlint: hot
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.refresh_dirty_speeds();
        let mut next: Option<SimTime> = self.links.next_completion();
        for g in &self.groups {
            if !g.alive {
                continue;
            }
            for &(kid, speed) in &g.speeds {
                let k = self.kernels.get(kid);
                let t = self.now + completion_dt(k.remaining, k.solo_secs, speed);
                next = Some(next.map_or(t, |n| n.min(t)));
            }
            // Pending starts: heads that are queued (not yet running).
            for c in g.ctxs.iter().filter(|c| c.alive) {
                if let Some(&head) = c.queue.front() {
                    let k = self.kernels.get(head);
                    if k.state == KernelState::Queued {
                        let t = k.ready_at.max(c.available_at).max(self.now);
                        next = Some(next.map_or(t, |n| n.min(t)));
                    }
                }
            }
        }
        next
    }

    /// Advances simulated time to `t`, progressing kernels, starting
    /// pending heads, and recording completions (drain with
    /// [`GpuSim::drain_completed`]).
    ///
    /// # Panics
    ///
    /// Panics if `t` is before the current time.
    // simlint: hot
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "time went backwards: {t} < {}", self.now);
        loop {
            self.start_pending_heads();
            self.refresh_dirty_speeds();
            let boundary = self.next_boundary(t);
            if boundary > self.now {
                self.progress_all(boundary);
            }
            self.now = boundary;
            self.events += 1;
            self.finish_done_kernels();
            if self.now >= t {
                // Start anything that became ready exactly at `t` so
                // callers observe a consistent state.
                self.start_pending_heads();
                break;
            }
        }
        self.links.advance_to(self.now);
    }

    /// One fused simulation step for event-loop drivers: finds the next
    /// state change (kernel start, kernel completion, or link-transfer
    /// completion), advances exactly to it, and processes it — a single
    /// scan where a `next_event_time` + `advance_to` pair performs two.
    /// Returns the event time reached, or `None` (no state change) when
    /// the next event lies beyond `limit` or the simulator is idle.
    ///
    /// After `Some(t)`, check [`GpuSim::has_pending_dispatch`]: pure
    /// kernel-start boundaries complete nothing and can be stepped
    /// through again without a driver round-trip.
    // simlint: hot
    pub fn step_to_next_event(&mut self, limit: SimTime) -> Option<SimTime> {
        self.refresh_dirty_speeds();
        let mut next: Option<SimTime> = self.links.next_completion();
        for g in &self.groups {
            if !g.alive {
                continue;
            }
            for &(kid, speed) in &g.speeds {
                let k = self.kernels.get(kid);
                let t = self.now + completion_dt(k.remaining, k.solo_secs, speed);
                next = Some(next.map_or(t, |n| n.min(t)));
            }
            for c in g.ctxs.iter().filter(|c| c.alive) {
                if let Some(&head) = c.queue.front() {
                    let k = self.kernels.get(head);
                    if k.state == KernelState::Queued {
                        let t = k.ready_at.max(c.available_at).max(self.now);
                        next = Some(next.map_or(t, |n| n.min(t)));
                    }
                }
            }
        }
        self.step_to_scanned_event(next, limit)
    }

    /// The second half of [`GpuSim::step_to_next_event`]: advances to
    /// and processes `next`, the value [`GpuSim::next_event_time`] just
    /// returned, without scanning again. A driver that has already asked
    /// for the next event time (to compare it with a bound) uses this
    /// for its first step. Nothing may change the simulator between the
    /// two calls; a stale `next` would skip an earlier event.
    // simlint: hot
    pub fn step_to_scanned_event(
        &mut self,
        next: Option<SimTime>,
        limit: SimTime,
    ) -> Option<SimTime> {
        let t = next?.max(self.now);
        if t > limit {
            return None;
        }
        // `t` is the earliest event, so one boundary hop reaches it.
        if t > self.now {
            self.progress_all(t);
        }
        self.now = t;
        self.events += 1;
        self.finish_done_kernels();
        self.links.advance_to(t);
        self.start_pending_heads();
        Some(t)
    }

    /// True when kernel or link-transfer completions await a drain.
    // simlint: hot
    pub fn has_pending_dispatch(&self) -> bool {
        !self.completed.is_empty() || self.links.has_completed()
    }

    /// Removes and returns kernels completed since the last drain, in
    /// completion order, as `(id, tag)` pairs.
    pub fn drain_completed(&mut self) -> Vec<(KernelId, u64)> {
        std::mem::take(&mut self.completed)
    }

    /// Allocation-free variant of [`GpuSim::drain_completed`]: clears
    /// `out` and swaps the completion buffer into it, so a caller-owned
    /// buffer is reused across events.
    // simlint: hot
    pub fn drain_completed_into(&mut self, out: &mut Vec<(KernelId, u64)>) {
        out.clear();
        std::mem::swap(&mut self.completed, out);
    }

    /// True if any kernel completed since the last drain.
    pub fn has_completed(&self) -> bool {
        !self.completed.is_empty()
    }

    // simlint: hot
    fn start_pending_heads(&mut self) {
        for g in &mut self.groups {
            if !g.alive {
                continue;
            }
            for c in g.ctxs.iter_mut().filter(|c| c.alive) {
                if let Some(&head) = c.queue.front() {
                    let k = self.kernels.get_mut(head);
                    if k.state == KernelState::Queued && self.now >= k.ready_at.max(c.available_at)
                    {
                        k.state = KernelState::Running;
                        k.started_at = self.now;
                        g.speeds_dirty = true;
                    }
                }
            }
        }
    }

    /// The earliest of: next completion at current speeds, next head start,
    /// next link completion, capped at `t`. Requires fresh speed caches
    /// (callers run [`GpuSim::refresh_dirty_speeds`] first).
    // simlint: hot
    fn next_boundary(&self, t: SimTime) -> SimTime {
        let mut boundary = t;
        if let Some(lt) = self.links.next_completion() {
            if lt > self.now {
                boundary = boundary.min(lt);
            }
        }
        for g in &self.groups {
            if !g.alive {
                continue;
            }
            for &(kid, speed) in &g.speeds {
                let k = self.kernels.get(kid);
                boundary = boundary.min(self.now + completion_dt(k.remaining, k.solo_secs, speed));
            }
            for c in g.ctxs.iter().filter(|c| c.alive) {
                if let Some(&head) = c.queue.front() {
                    let k = self.kernels.get(head);
                    if k.state == KernelState::Queued {
                        let start = k.ready_at.max(c.available_at);
                        if start > self.now {
                            boundary = boundary.min(start);
                        }
                    }
                }
            }
        }
        boundary.max(self.now)
    }

    // simlint: hot
    fn progress_all(&mut self, to: SimTime) {
        // One nanos→secs→nanos conversion per boundary, not per kernel;
        // `from_secs(as_secs(d)) == d` exactly below ~11 days of nanos
        // (the relative error of the two roundings stays under the 0.5 ns
        // rounding threshold), so busy accounting is unchanged.
        let dt = (to - self.now).as_secs();
        let dt_dur = SimDuration::from_secs(dt);
        let sm_total = self.spec.sm_count as f64;
        let GpuSim {
            kernels, groups, ..
        } = self;
        for g in groups.iter_mut() {
            if !g.alive {
                continue;
            }
            let Group {
                ctxs,
                speeds,
                util_accum,
                ..
            } = g;
            for &(kid, speed) in speeds.iter() {
                let k = kernels.get_mut(kid);
                k.remaining = (k.remaining - speed * dt / k.solo_secs).max(0.0);
                let ctx = k.ctx.0;
                let sms = ctxs[ctx].sms;
                let quality = 0.25 + 0.75 * k.comp_frac;
                *util_accum += dt * (sms as f64 / sm_total) * quality;
                ctxs[ctx].busy += dt_dur;
            }
        }
    }

    // simlint: hot
    fn finish_done_kernels(&mut self) {
        let GpuSim {
            kernels,
            groups,
            completed,
            ..
        } = self;
        for g in groups.iter_mut() {
            if !g.alive {
                continue;
            }
            let Group {
                ctxs, speeds_dirty, ..
            } = g;
            for c in ctxs.iter_mut() {
                if !c.alive {
                    continue;
                }
                while let Some(&head) = c.queue.front() {
                    let k = kernels.get_mut(head);
                    if k.state == KernelState::Running
                        && (k.remaining <= DONE_EPS || k.remaining * k.solo_secs <= 1e-10)
                    {
                        k.state = KernelState::Done;
                        k.remaining = 0.0;
                        completed.push((head, k.tag));
                        c.queue.pop_front();
                        *speeds_dirty = true;
                    } else {
                        break;
                    }
                }
            }
        }
        kernels.compact();
    }

    /// Rebuilds the speed cache of every live group whose running set may
    /// have changed since the last rebuild.
    // simlint: hot
    fn refresh_dirty_speeds(&mut self) {
        // Field-level split borrows: groups are rebuilt in place while the
        // spec/kernel tables are read, with no buffer detach/restore.
        let GpuSim {
            spec,
            kernels,
            groups,
            degrade,
            speed_scratch,
            ..
        } = self;
        for g in groups.iter_mut() {
            if g.speeds_dirty && g.alive {
                compute_group_speeds_into(spec, kernels, degrade, g, speed_scratch);
                g.speeds_dirty = false;
            }
        }
    }

    // ----- fault injection --------------------------------------------------

    /// Applies one hardware degradation, merging with whatever is
    /// already active (the most severe value per resource wins). Takes
    /// effect at the next event boundary: in-flight kernel finish times
    /// are recomputed lazily through [`GpuSim::next_event_time`] exactly
    /// the way processor-sharing reshares already propagate.
    ///
    /// Remaining fractions are floored at 5 % so progress is guaranteed
    /// even at full fault intensity. Degradations are visible to
    /// schedulers only as slowdown — cached solo profiles (what the
    /// estimator sees) are untouched.
    pub fn apply_degradation(&mut self, d: &HwDegradation) {
        match *d {
            HwDegradation::SmOffline { gpu, fraction } => {
                if let Some(f) = self.degrade.sm.get_mut(gpu as usize) {
                    *f = f.min((1.0 - fraction).max(0.05));
                }
            }
            HwDegradation::HbmBandwidth { gpu, bw_fraction } => {
                if let Some(f) = self.degrade.hbm.get_mut(gpu as usize) {
                    *f = f.min(bw_fraction.clamp(0.05, 1.0));
                }
            }
            HwDegradation::NvlinkBandwidth { link, bw_fraction } => {
                if !self.links.is_empty() {
                    let id = LinkId(link % self.links.len());
                    self.links.set_bw_factor(id, bw_fraction.clamp(0.05, 1.0));
                }
            }
            HwDegradation::KernelSlowdown { mult } => {
                self.degrade.mult = self.degrade.mult.max(mult.max(1.0));
            }
        }
        self.degrade.active = self.degrade.mult > 1.0
            || self.degrade.sm.iter().any(|&f| f < 1.0)
            || self.degrade.hbm.iter().any(|&f| f < 1.0);
        self.mark_all_speeds_dirty();
    }

    /// Restores healthy hardware: all SM/HBM/NVLink factors return to
    /// nominal and the kernel slowdown clears. In-flight kernels resume
    /// full speed from the next event boundary.
    pub fn clear_degradation(&mut self) {
        // In-place reset (no reallocation): fault boundaries call this at
        // every window edge.
        self.degrade.sm.fill(1.0);
        self.degrade.hbm.fill(1.0);
        self.degrade.mult = 1.0;
        self.degrade.active = false;
        self.links.clear_bw_factors();
        self.mark_all_speeds_dirty();
    }

    /// Invalidates every group's speed cache (degradation changes feed
    /// into every water-filling capacity and final rate).
    fn mark_all_speeds_dirty(&mut self) {
        for g in &mut self.groups {
            g.speeds_dirty = true;
        }
    }

    /// Kills a GPU outright (fail-stop). Every kernel on every live
    /// group containing the GPU — queued *and* running; a crash does not
    /// wait for the non-preemptive head — is cancelled and its `(id,
    /// tag)` returned in deterministic (group, context, queue) order.
    /// Queues are left empty, so the affected groups and contexts remain
    /// legal to resize, remove, or destroy. Further submissions to those
    /// groups panic until [`GpuSim::recover_gpu`].
    ///
    /// In-flight link transfers are *not* cancelled (DMA engines drain
    /// independently); callers must discard orphaned transfer tags.
    pub fn fail_gpu(&mut self, gpu: u32) -> Vec<(KernelId, u64)> {
        assert!(gpu < self.num_gpus, "GPU index out of range");
        self.dead[gpu as usize] = true;
        self.any_dead = true;
        let mut cancelled = Vec::new();
        for g in &mut self.groups {
            if !g.alive || !g.gpus.contains(&gpu) {
                continue;
            }
            g.speeds_dirty = true;
            for c in g.ctxs.iter_mut().filter(|c| c.alive) {
                while let Some(kid) = c.queue.pop_front() {
                    let k = self.kernels.get_mut(kid);
                    k.state = KernelState::Cancelled;
                    cancelled.push((kid, k.tag));
                }
            }
        }
        cancelled
    }

    /// Brings a failed GPU back online. Groups containing it accept
    /// submissions again; the caller decides what work to relaunch.
    pub fn recover_gpu(&mut self, gpu: u32) {
        assert!(gpu < self.num_gpus, "GPU index out of range");
        self.dead[gpu as usize] = false;
        self.any_dead = self.dead.iter().any(|&d| d);
    }

    /// Whether a GPU is currently failed.
    pub fn gpu_is_dead(&self, gpu: u32) -> bool {
        self.dead.get(gpu as usize).copied().unwrap_or(false)
    }

    /// Number of currently fail-stopped GPUs (0 = healthy). Routers use
    /// this as a cheap health signal when scoring instances.
    pub fn num_dead_gpus(&self) -> u32 {
        if !self.any_dead {
            return 0;
        }
        self.dead.iter().filter(|&&d| d).count() as u32
    }

    /// Whether any GPU of a group is currently failed (the lockstep
    /// group cannot run).
    pub fn group_has_dead_gpu(&self, group: GroupId) -> bool {
        self.any_dead
            && self.groups[group.0]
                .gpus
                .iter()
                .any(|&g| self.dead[g as usize])
    }

    // ----- links ------------------------------------------------------------

    /// Creates a point-to-point transfer link with the given bandwidth.
    pub fn create_link(&mut self, bw_gbs: f64, latency: SimDuration) -> LinkId {
        self.links.create(bw_gbs, latency)
    }

    /// Enqueues a transfer of `bytes` on a link; completes FIFO.
    pub fn submit_transfer(&mut self, link: LinkId, bytes: f64, tag: u64) -> TransferId {
        self.links.submit(self.now, link, bytes, tag)
    }

    /// Removes and returns transfers completed since the last drain.
    pub fn drain_completed_transfers(&mut self) -> Vec<(TransferId, u64)> {
        self.links.drain_completed()
    }

    /// Allocation-free variant of
    /// [`GpuSim::drain_completed_transfers`]: clears `out` and swaps the
    /// completion buffer into it.
    // simlint: hot
    pub fn drain_completed_transfers_into(&mut self, out: &mut Vec<(TransferId, u64)>) {
        self.links.drain_completed_into(out);
    }

    // ----- accounting -------------------------------------------------------

    /// Aggregated GPU utilization of a group since accounting was last
    /// reset: SM-share × intra-SM quality, integrated over time (the
    /// Nsight-style metric of Table 5). Returns 0 for a zero-length
    /// window.
    pub fn utilization(&self, group: GroupId) -> f64 {
        let g = &self.groups[group.0];
        let window = (self.now - g.accounted_from).as_secs();
        if window <= 0.0 {
            0.0
        } else {
            (g.util_accum / window).min(1.0)
        }
    }

    /// Busy-time fraction of one context since its creation (the
    /// complement is the bubble ratio of §4.4.2). Returns 1.0 for a
    /// zero-length window.
    pub fn ctx_busy_ratio(&self, group: GroupId, ctx: CtxId) -> f64 {
        let c = &self.groups[group.0].ctxs[ctx.0];
        let window = (self.now - c.created_at).as_secs();
        if window <= 0.0 {
            1.0
        } else {
            (c.busy.as_secs() / window).min(1.0)
        }
    }

    /// Resets utilization windows (e.g. after warm-up).
    pub fn reset_accounting(&mut self) {
        for g in &mut self.groups {
            g.util_accum = 0.0;
            g.accounted_from = self.now;
            for c in &mut g.ctxs {
                c.busy = SimDuration::ZERO;
                c.created_at = self.now;
            }
        }
    }
}

/// Time until a running kernel completes at the given speed, floored at
/// 1 ns so simulated time always makes progress.
fn completion_dt(remaining: f64, solo_secs: f64, speed: f64) -> SimDuration {
    let dt = remaining * solo_secs / speed.max(1e-12);
    SimDuration::from_nanos(((dt * 1e9).ceil() as u64).max(1))
}

/// Speeds (fraction of solo rate) for every running kernel in a group,
/// honoring weighted bandwidth water-filling and the interference
/// residual, written into `g.speeds`. Deterministic: iterates contexts in
/// index order. A free function over split-borrowed simulator fields so
/// the per-event rebuild touches no scratch-buffer swaps.
// simlint: hot
fn compute_group_speeds_into(
    spec: &GpuSpec,
    kernels: &KernelTable,
    degrade: &DegradeState,
    g: &mut Group,
    scratch: &mut SpeedScratch,
) {
    let SpeedScratch {
        running,
        demands,
        weights,
        grants,
        satisfied,
    } = scratch;
    let Group {
        gpus,
        ctxs,
        speeds: out,
        ..
    } = g;
    out.clear();
    running.clear();
    for c in ctxs.iter().filter(|c| c.alive) {
        if let Some(&head) = c.queue.front() {
            if kernels.get(head).state == KernelState::Running {
                running.push(head);
            }
        }
    }
    if running.is_empty() {
        return;
    }
    // Fault injection: a degraded group loses HBM bandwidth (shrinks
    // the water-filling capacity) and compute speed (scales every
    // kernel's final rate). The healthy path is untouched so
    // fault-free runs stay bit-identical.
    let (speed_factor, mem_factor) = if degrade.active {
        group_degradation_of(degrade, gpus)
    } else {
        (1.0, 1.0)
    };
    let mut capacity = spec.hbm_bw_gbs * 1e9 * spec.mem_efficiency;
    if degrade.active {
        capacity *= mem_factor;
    }
    if running.len() == 1 && !degrade.active {
        // A lone healthy kernel — the decode steady state. Its grant is
        // what water-filling over a single entry yields (the full demand
        // when it fits, otherwise the capacity scaled by its own weight
        // share), and a single kernel has zero interference residual, so
        // the generic machinery below reduces to exactly these float ops.
        let kid = running[0];
        let k = kernels.get(kid);
        let mem_speed = if k.bw_demand <= 0.0 {
            1.0
        } else {
            let grant = if k.bw_demand <= capacity {
                k.bw_demand
            } else {
                let w = spec.mem_rate(ctxs[k.ctx.0].sms);
                let share = capacity * w / w;
                if k.bw_demand <= share {
                    k.bw_demand
                } else {
                    share
                }
            };
            (grant / k.bw_demand).min(1.0)
        };
        let speed = mem_speed / (1.0 + 0.0);
        out.push((kid, speed.clamp(1e-12, 1.0)));
        return;
    }
    demands.clear();
    weights.clear();
    for &kid in running.iter() {
        let k = kernels.get(kid);
        demands.push(k.bw_demand);
        weights.push(spec.mem_rate(ctxs[k.ctx.0].sms));
    }
    waterfill_into(demands, weights, capacity, grants, satisfied);

    for (i, &kid) in running.iter().enumerate() {
        let grant = grants[i];
        let k = kernels.get(kid);
        let mem_speed = if k.bw_demand <= 0.0 {
            1.0
        } else {
            (grant / k.bw_demand).min(1.0)
        };
        let residual = interference_residual_of(spec, kernels, ctxs, kid, running);
        let mut speed = mem_speed / (1.0 + residual);
        if degrade.active {
            speed *= speed_factor;
        }
        out.push((kid, speed.clamp(1e-12, 1.0)));
    }
}

/// Deterministic, configuration-dependent extra slowdown applied to a
/// kernel when it co-runs with others (cache/DRAM-row interference the
/// partitioning cannot control). Bounded by
/// `contention_residual_max × co-runner memory pressure`.
// simlint: hot
fn interference_residual_of(
    spec: &GpuSpec,
    kernels: &KernelTable,
    ctxs: &[Ctx],
    kid: KernelId,
    running: &[KernelId],
) -> f64 {
    if running.len() < 2 {
        return 0.0;
    }
    let k = kernels.get(kid);
    let capacity = spec.hbm_bw_gbs * 1e9 * spec.mem_efficiency;
    let mut pressure = 0.0;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mix = |v: u64, h: &mut u64| {
        *h ^= v;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    // Hash inputs are quantized to power-of-4 byte buckets so the
    // residual is piecewise-constant at the same granularity a
    // profiling grid samples at.
    let byte_bucket = |bytes: f64| (bytes.max(1.0).log2() / 2.0) as u64;
    mix(ctxs[k.ctx.0].sms as u64, &mut hash);
    mix(k.work.kind as u64 + 1, &mut hash);
    mix(byte_bucket(k.work.bytes), &mut hash);
    for &other in running.iter().filter(|&&o| o != kid) {
        let o = kernels.get(other);
        // A co-runner perturbs both through its memory traffic and —
        // even when compute-bound — through L2/TLB/DRAM-row pressure
        // proportional to its SM footprint.
        let bw_pressure = (o.bw_demand / capacity).min(1.0);
        let sm_pressure = 0.7 * ctxs[o.ctx.0].sms as f64 / spec.sm_count as f64;
        pressure += bw_pressure.max(sm_pressure);
        mix(ctxs[o.ctx.0].sms as u64, &mut hash);
        mix(o.work.kind as u64 + 1, &mut hash);
        mix(byte_bucket(o.work.bytes), &mut hash);
    }
    // Hash → factor in [0.25, 1.0].
    let factor = 0.25 + 0.75 * ((hash >> 11) as f64 / (1u64 << 53) as f64);
    spec.contention_residual_max * pressure.min(1.0) * factor
}

/// The slowdown factors a group currently suffers, as
/// `(speed_factor, mem_factor)`: a lockstep group runs at the pace
/// of its slowest member, so both are minima over the group's GPUs.
fn group_degradation_of(degrade: &DegradeState, gpus: &[u32]) -> (f64, f64) {
    let mut sm = 1.0f64;
    let mut hbm = 1.0f64;
    for &gpu in gpus {
        if let Some(&f) = degrade.sm.get(gpu as usize) {
            sm = sm.min(f);
        }
        if let Some(&f) = degrade.hbm.get(gpu as usize) {
            hbm = hbm.min(f);
        }
    }
    (sm / degrade.mult, hbm)
}

/// Weighted water-filling: grant each demand its share of `capacity`
/// proportional to weight, redistributing slack from under-demanding
/// entries. Returns per-entry grants (≥ 0, ≤ demand where possible).
#[cfg(test)]
fn waterfill(demands: &[f64], weights: &[f64], capacity: f64) -> Vec<f64> {
    let mut grants = Vec::new();
    let mut satisfied = Vec::new();
    waterfill_into(demands, weights, capacity, &mut grants, &mut satisfied);
    grants
}

/// Allocation-free [`waterfill`]: writes grants into a caller-owned
/// buffer (`satisfied` is the work set). Bit-identical to the allocating
/// formulation — the float operations and their order are unchanged.
// simlint: hot
fn waterfill_into(
    demands: &[f64],
    weights: &[f64],
    capacity: f64,
    grants: &mut Vec<f64>,
    satisfied: &mut Vec<bool>,
) {
    grants.clear();
    let total: f64 = demands.iter().sum();
    if total <= capacity {
        grants.extend_from_slice(demands);
        return;
    }
    let n = demands.len();
    grants.resize(n, 0.0);
    satisfied.clear();
    satisfied.resize(n, false);
    let mut remaining_cap = capacity;
    loop {
        let active_weight: f64 = (0..n).filter(|&i| !satisfied[i]).map(|i| weights[i]).sum();
        if active_weight <= 0.0 || remaining_cap <= 0.0 {
            break;
        }
        let mut progressed = false;
        for i in 0..n {
            if satisfied[i] {
                continue;
            }
            let share = remaining_cap * weights[i] / active_weight;
            if demands[i] <= share {
                grants[i] = demands[i];
                satisfied[i] = true;
                progressed = true;
            }
        }
        if progressed {
            remaining_cap = capacity - grants.iter().sum::<f64>();
            continue;
        }
        // No one is satisfiable: split remaining capacity by weight.
        for i in 0..n {
            if !satisfied[i] {
                grants[i] = remaining_cap * weights[i] / active_weight;
                satisfied[i] = true;
            }
        }
        break;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::KernelKind;

    fn sim() -> GpuSim {
        GpuSim::new(GpuSpec::a100(), 8, 600.0)
    }

    #[test]
    fn single_kernel_runs_at_solo_speed() {
        let mut s = sim();
        let g = s.create_group((0..8).collect());
        let c = s.set_context(g, 108);
        let flops = s.spec().compute_rate(108); // exactly 1s of compute
        let w = WorkItem::new(KernelKind::Prefill, flops, 0.0, 0.0);
        s.submit(g, c, w, SimTime::ZERO, 42);
        let t = loop {
            let t = s.next_event_time().unwrap();
            s.advance_to(t);
            if !s.drain_completed().is_empty() {
                break t;
            }
        };
        // Starts after reconfig cost (10us), runs 1s.
        assert!((t.as_secs() - 1.0).abs() < 1e-3, "took {t}");
    }

    #[test]
    fn fifo_queue_serializes() {
        let mut s = sim();
        let g = s.create_group(vec![0]);
        let c = s.set_context(g, 108);
        let w = WorkItem::new(KernelKind::Prefill, 31.2e12, 0.0, 0.0); // 100ms each
        s.submit(g, c, w, SimTime::ZERO, 1);
        s.submit(g, c, w, SimTime::ZERO, 2);
        let mut done = Vec::new();
        while done.len() < 2 {
            let t = s.next_event_time().unwrap();
            s.advance_to(t);
            for (_, tag) in s.drain_completed() {
                done.push((s.now().as_secs(), tag));
            }
        }
        assert_eq!(done[0].1, 1);
        assert_eq!(done[1].1, 2);
        assert!((done[1].0 - 2.0 * done[0].0).abs() < 1e-3, "{done:?}");
    }

    #[test]
    fn ready_at_delays_start() {
        let mut s = sim();
        let g = s.create_group(vec![0]);
        let c = s.set_context(g, 108);
        let w = WorkItem::new(KernelKind::Decode, 0.0, 0.0, 0.010); // 10ms fixed
        s.submit(g, c, w, SimTime::from_secs(1.0), 7);
        let mut finish = None;
        while finish.is_none() {
            let t = s.next_event_time().unwrap();
            s.advance_to(t);
            if !s.drain_completed().is_empty() {
                finish = Some(s.now());
            }
        }
        assert!((finish.unwrap().as_secs() - 1.010).abs() < 1e-6);
    }

    #[test]
    fn contention_slows_decode_within_bounds() {
        // A memory-bound decode co-running with a heavy prefill should slow
        // by more than 0 and at most ~(oversubscription + residual cap).
        let mut s = sim();
        let g = s.create_group((0..8).collect());
        let d_ctx = s.set_context(g, 16);
        let p_ctx = s.set_context(g, 92);
        let decode = WorkItem::new(KernelKind::Decode, 0.6e12, 20.0e9, 0.0);
        let solo = s.solo_duration(16, &decode);

        // Solo run first.
        s.submit(g, d_ctx, decode, SimTime::ZERO, 1);
        let mut solo_measured = None;
        while solo_measured.is_none() {
            let t = s.next_event_time().unwrap();
            s.advance_to(t);
            if !s.drain_completed().is_empty() {
                solo_measured = Some(s.now().as_secs());
            }
        }
        assert!((solo_measured.unwrap() - solo).abs() / solo < 0.01);

        // Now co-run with a prefill that also wants lots of bandwidth.
        let base = s.now();
        let prefill = WorkItem::new(KernelKind::Prefill, 40.0e12, 60.0e9, 0.0);
        s.submit(g, p_ctx, prefill, base, 2);
        s.submit(g, d_ctx, decode, base, 3);
        let mut decode_done = None;
        while decode_done.is_none() {
            let t = s.next_event_time().unwrap();
            s.advance_to(t);
            for (_, tag) in s.drain_completed() {
                if tag == 3 {
                    decode_done = Some((s.now() - base).as_secs());
                }
            }
        }
        let slowdown = decode_done.unwrap() / solo;
        assert!(slowdown > 1.0, "expected some slowdown, got {slowdown}");
        assert!(slowdown < 2.0, "slowdown {slowdown} implausibly large");
    }

    #[test]
    fn no_contention_when_prefill_is_pure_compute() {
        let mut s = sim();
        let g = s.create_group((0..8).collect());
        let d_ctx = s.set_context(g, 16);
        let p_ctx = s.set_context(g, 92);
        let decode = WorkItem::new(KernelKind::Decode, 0.0, 10.0e9, 0.0);
        let solo = s.solo_duration(16, &decode);
        let prefill = WorkItem::new(KernelKind::Prefill, 100.0e12, 0.0, 0.0);
        s.submit(g, p_ctx, prefill, SimTime::ZERO, 1);
        s.submit(g, d_ctx, decode, SimTime::ZERO, 2);
        let mut decode_t = None;
        while decode_t.is_none() {
            let t = s.next_event_time().unwrap();
            s.advance_to(t);
            for (_, tag) in s.drain_completed() {
                if tag == 2 {
                    decode_t = Some(s.now().as_secs());
                }
            }
        }
        // A pure-compute co-runner causes no water-filling loss; only the
        // bounded interference residual (from its SM footprint) remains.
        let measured = decode_t.unwrap() - 10e-6; // minus reconfig delay
        let slowdown = measured / solo;
        assert!(slowdown >= 1.0 - 1e-6, "speedup is impossible: {slowdown}");
        assert!(
            slowdown < 1.0 + s.spec().contention_residual_max + 1e-6,
            "residual exceeded cap: {slowdown}"
        );
    }

    #[test]
    fn cancel_queued_keeps_running_head() {
        let mut s = sim();
        let g = s.create_group(vec![0]);
        let c = s.set_context(g, 108);
        let w = WorkItem::new(KernelKind::Prefill, 31.2e12, 0.0, 0.0);
        s.submit(g, c, w, SimTime::ZERO, 1);
        s.submit(g, c, w, SimTime::ZERO, 2);
        s.submit(g, c, w, SimTime::ZERO, 3);
        // Let the head start.
        s.advance_to(SimTime::from_secs(0.05));
        let cancelled = s.cancel_queued(g, c);
        assert_eq!(
            cancelled.iter().map(|&(_, t)| t).collect::<Vec<_>>(),
            vec![2, 3]
        );
        assert_eq!(s.queue_len(g, c), 1);
        // Head still completes.
        let mut done = Vec::new();
        while let Some(t) = s.next_event_time() {
            s.advance_to(t);
            done.extend(s.drain_completed());
            if s.is_idle(g, c) {
                break;
            }
        }
        assert_eq!(done, vec![(KernelId(0), 1)]);
    }

    #[test]
    fn oversubscription_panics() {
        let mut s = sim();
        let g = s.create_group(vec![0]);
        s.set_context(g, 96);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.set_context(g, 16);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn utilization_and_busy_accounting() {
        let mut s = sim();
        let g = s.create_group(vec![0]);
        let c = s.set_context(g, 108);
        // 1 second of pure compute, then 1 second idle.
        let w = WorkItem::new(KernelKind::Prefill, s.spec().compute_rate(108), 0.0, 0.0);
        s.submit(g, c, w, SimTime::ZERO, 1);
        s.advance_to(SimTime::from_secs(2.0));
        assert!(!s.drain_completed().is_empty());
        let util = s.utilization(g);
        assert!((util - 0.5).abs() < 0.01, "util {util}");
        let busy = s.ctx_busy_ratio(g, c);
        assert!((busy - 0.5).abs() < 0.01, "busy {busy}");
    }

    #[test]
    fn disjoint_groups_do_not_contend() {
        let mut s = sim();
        let g1 = s.create_group(vec![0, 1, 2, 3]);
        let g2 = s.create_group(vec![4, 5, 6, 7]);
        let c1 = s.set_context(g1, 108);
        let c2 = s.set_context(g2, 108);
        let w = WorkItem::new(KernelKind::Decode, 0.0, 100.0e9, 0.0);
        let solo = s.solo_duration(108, &w);
        s.submit(g1, c1, w, SimTime::ZERO, 1);
        s.submit(g2, c2, w, SimTime::ZERO, 2);
        let mut times = Vec::new();
        while times.len() < 2 {
            let t = s.next_event_time().unwrap();
            s.advance_to(t);
            for _ in s.drain_completed() {
                times.push(s.now().as_secs());
            }
        }
        for t in times {
            assert!((t - 10e-6 - solo).abs() / solo < 0.01, "{t} vs {solo}");
        }
    }

    fn run_until_done(s: &mut GpuSim) -> SimTime {
        loop {
            let t = s.next_event_time().unwrap();
            s.advance_to(t);
            if !s.drain_completed().is_empty() {
                return t;
            }
        }
    }

    #[test]
    fn sm_brownout_slows_compute_bound_kernel() {
        let mut s = sim();
        let g = s.create_group(vec![0]);
        let c = s.set_context(g, 108);
        let w = WorkItem::new(KernelKind::Prefill, s.spec().compute_rate(108), 0.0, 0.0);
        s.apply_degradation(&HwDegradation::SmOffline {
            gpu: 0,
            fraction: 0.5,
        });
        s.submit(g, c, w, SimTime::ZERO, 1);
        let t = run_until_done(&mut s);
        // Half the SMs → the 1 s kernel takes ~2 s.
        assert!((t.as_secs() - 2.0).abs() < 1e-2, "took {t}");
    }

    #[test]
    fn hbm_degradation_slows_memory_bound_kernel() {
        let mut s = sim();
        let g = s.create_group(vec![0]);
        let c = s.set_context(g, 108);
        let w = WorkItem::new(KernelKind::Decode, 0.0, 200.0e9, 0.0);
        let solo = s.solo_duration(108, &w);
        s.apply_degradation(&HwDegradation::HbmBandwidth {
            gpu: 0,
            bw_fraction: 0.5,
        });
        s.submit(g, c, w, SimTime::ZERO, 1);
        let t = run_until_done(&mut s);
        let slowdown = (t.as_secs() - 10e-6) / solo;
        assert!(
            (1.4..=2.1).contains(&slowdown),
            "halved HBM should ~double a memory-bound kernel, got {slowdown}×"
        );
    }

    #[test]
    fn mid_flight_degradation_reshapes_and_clear_restores() {
        let mut s = sim();
        let g = s.create_group(vec![0]);
        let c = s.set_context(g, 108);
        // 1 s of compute at full speed.
        let w = WorkItem::new(KernelKind::Prefill, s.spec().compute_rate(108), 0.0, 0.0);
        s.submit(g, c, w, SimTime::ZERO, 1);
        s.advance_to(SimTime::from_secs(0.5));
        s.apply_degradation(&HwDegradation::KernelSlowdown { mult: 2.0 });
        s.advance_to(SimTime::from_secs(1.0));
        // Half the work remained at the spike: it now takes ~1 s more.
        assert!(s.drain_completed().is_empty(), "must still be running");
        s.clear_degradation();
        let t = run_until_done(&mut s);
        // 0.5 s slowed (×2 → 0.25 progress) then full speed again.
        assert!((t.as_secs() - 1.25).abs() < 1e-2, "took {t}");
    }

    #[test]
    fn degradation_on_other_gpu_is_invisible() {
        let mut s = sim();
        let g = s.create_group(vec![0]);
        let c = s.set_context(g, 108);
        let w = WorkItem::new(KernelKind::Prefill, s.spec().compute_rate(108), 0.0, 0.0);
        s.apply_degradation(&HwDegradation::SmOffline {
            gpu: 7,
            fraction: 0.9,
        });
        s.submit(g, c, w, SimTime::ZERO, 1);
        let t = run_until_done(&mut s);
        assert!((t.as_secs() - 1.0).abs() < 1e-3, "took {t}");
    }

    #[test]
    fn waterfill_properties() {
        // Under capacity: everyone gets their demand.
        let g = waterfill(&[1.0, 2.0], &[1.0, 1.0], 10.0);
        assert_eq!(g, vec![1.0, 2.0]);
        // Over capacity: grants sum to capacity, no one exceeds demand.
        let g = waterfill(&[8.0, 8.0, 1.0], &[1.0, 1.0, 1.0], 9.0);
        assert!((g.iter().sum::<f64>() - 9.0).abs() < 1e-9);
        assert!(g[2] <= 1.0 + 1e-9);
        assert!(g[0] <= 8.0 && g[1] <= 8.0);
        // Small demander is fully satisfied; big ones split the rest.
        assert!((g[2] - 1.0).abs() < 1e-9);
        assert!((g[0] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fail_gpu_cancels_running_and_queued_work() {
        let mut s = sim();
        let g = s.create_group(vec![0, 1]);
        let c = s.set_context(g, 108);
        let w = WorkItem::new(KernelKind::Prefill, 31.2e12, 0.0, 0.0);
        s.submit(g, c, w, SimTime::ZERO, 1);
        s.submit(g, c, w, SimTime::ZERO, 2);
        // Let the head start running — a crash must kill it anyway.
        s.advance_to(SimTime::from_secs(0.05));
        let cancelled = s.fail_gpu(1);
        assert_eq!(
            cancelled.iter().map(|&(_, t)| t).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert!(s.is_idle(g, c));
        assert!(s.gpu_is_dead(1));
        assert!(s.group_has_dead_gpu(g));
        // Nothing completes afterwards; the sim goes idle.
        assert!(s.next_event_time().is_none());
        assert!(s.drain_completed().is_empty());
        // The emptied group is legal to destroy.
        s.remove_context(g, c);
        s.destroy_group(g);
    }

    #[test]
    fn fail_gpu_spares_disjoint_groups() {
        let mut s = sim();
        let g1 = s.create_group(vec![0, 1, 2, 3]);
        let g2 = s.create_group(vec![4, 5, 6, 7]);
        let c1 = s.set_context(g1, 108);
        let c2 = s.set_context(g2, 108);
        let w = WorkItem::new(KernelKind::Prefill, 31.2e12, 0.0, 0.0);
        s.submit(g1, c1, w, SimTime::ZERO, 1);
        s.submit(g2, c2, w, SimTime::ZERO, 2);
        let cancelled = s.fail_gpu(0);
        assert_eq!(cancelled.len(), 1);
        assert!(!s.group_has_dead_gpu(g2));
        // The survivor still completes its kernel.
        let t = run_until_done(&mut s);
        assert!(t.as_secs() > 0.0);
    }

    #[test]
    fn submit_to_failed_group_panics_until_recovery() {
        let mut s = sim();
        let g = s.create_group(vec![0]);
        let c = s.set_context(g, 108);
        s.fail_gpu(0);
        let w = WorkItem::new(KernelKind::Decode, 0.0, 0.0, 0.010);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.submit(g, c, w, SimTime::ZERO, 1);
        }));
        assert!(r.is_err());
        s.recover_gpu(0);
        assert!(!s.gpu_is_dead(0));
        s.submit(g, c, w, SimTime::ZERO, 2);
        let t = run_until_done(&mut s);
        assert!(t.as_secs() > 0.0);
    }

    #[test]
    fn clear_degradation_does_not_resurrect_dead_gpus() {
        let mut s = sim();
        s.fail_gpu(3);
        s.apply_degradation(&HwDegradation::KernelSlowdown { mult: 2.0 });
        s.clear_degradation();
        assert!(s.gpu_is_dead(3), "fail-stop must survive boundary resets");
    }

    #[test]
    fn advance_to_past_is_rejected() {
        let mut s = sim();
        s.advance_to(SimTime::from_secs(1.0));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.advance_to(SimTime::from_secs(0.5));
        }));
        assert!(r.is_err());
    }
}
