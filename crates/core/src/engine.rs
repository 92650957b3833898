//! The MuxWise scheduler: bubble-less multiplex engine + SLO-aware
//! dispatcher.

use std::collections::{HashMap, VecDeque};

use estimator::guard::GuardRow;
use estimator::linreg::predict_max_affine;
use estimator::GuardQuery;
use gpusim::{CtxId, GroupId};
use kvcache::KvPool;
use modelspec::{ModelSpec, Parallelism, SeqState};
use serving::lease::{KvLease, LeaseTable};
use serving::lifecycle::{EngineCounters, Lifecycle};
use serving::{
    kv_pool_capacity_tokens, CrashVictim, DecodeBatch, DecodeSlot, FaultKind, RecoveryClass, ReqId,
    Scheduler, ServeCtx, SloSpec,
};
use simcore::{SimDuration, SimTime};

use crate::config::{Estimators, MuxWiseConfig};

/// Reserved tag for decode-iteration kernels. Every other kernel is a
/// prefill layer (or whole-phase launch) tagged with its job's
/// generation, which counts up from 1 and can never collide.
const DECODE_TAG: u64 = u64::MAX;

/// One request being prefilled.
#[derive(Debug)]
struct PrefillReq {
    id: ReqId,
    seq: SeqState,
    lease: KvLease,
}

/// A batched prefill phase in flight.
#[derive(Debug)]
struct PrefillJob {
    gen: u64,
    reqs: Vec<PrefillReq>,
    /// Cached `Σ new_tokens` / `Σ reused_tokens` over `reqs` (fixed at
    /// admission), so guard queries need no per-request fold.
    new_sum: u64,
    reused_sum: u64,
    layers_done: u32,
    layers_inflight: u32,
    earliest_arrival: SimTime,
    /// Solo estimate of the full phase at admission (for preemption
    /// deadline checks).
    est_full: f64,
    /// This job preempted another; it may not itself be preempted
    /// (non-recursive preemption, §3.4.2).
    is_preemptor: bool,
}

/// Information about the decode iteration in flight (for guard
/// refinement).
#[derive(Debug, Clone, Copy)]
struct DecodeInflight {
    ready_at: SimTime,
    predicted_solo: f64,
    corun: Option<GuardQuery>,
}

/// One decode partition the dispatcher's best-fit scan may choose.
#[derive(Debug)]
struct PartitionCand {
    sms: u32,
    /// The Eq. 2 plane set `decode_latency_agg` resolves for `sms`,
    /// resolved once: the predictor never changes after construction.
    planes: Vec<Vec<f64>>,
    /// Guard factor of `sms` at the key in `MuxWise::factor_memo`;
    /// stays 1.0 with the guard disabled.
    factor: f64,
}

/// The MuxWise serving engine. See the [crate docs](crate) and
/// [`MuxWiseConfig`] for the design.
#[derive(Debug)]
pub struct MuxWise {
    model: ModelSpec,
    par: Parallelism,
    slo: SloSpec,
    cfg: MuxWiseConfig,
    est: Estimators,
    /// Candidate decode partitions, smallest first.
    cands: Vec<PartitionCand>,
    /// `(guard row, guard generation)` the candidates' factors were
    /// read at; any other key re-reads them.
    factor_memo: Option<(GuardRow, u64)>,
    sm_count: u32,
    pool_capacity: u64,

    group: Option<GroupId>,
    decode_ctx: Option<CtxId>,
    prefill_ctx: Option<CtxId>,
    decode_sms: u32,

    table: Option<LeaseTable>,
    lifecycle: Lifecycle,
    waiting: VecDeque<ReqId>,
    prefill: Option<PrefillJob>,
    preempted: Option<PrefillJob>,
    decode: DecodeBatch,
    pending_join: Vec<DecodeSlot>,
    decode_inflight: Option<DecodeInflight>,
    /// Set when query-sync is disabled and decode must wait for the
    /// active prefill phase to finish.
    decode_blocked: bool,
    /// A fault window is open: the offline profile is stale, so the
    /// dispatcher pins the most conservative decode partition until the
    /// hardware recovers.
    fault_mode: bool,
    /// A GPU of the (single, all-spanning) group fail-stopped; all
    /// launches halt until the driver signals recovery.
    down: bool,
    /// Layer checkpoints of crash-revoked prefill victims: MuxWise's
    /// layer-wise prefill lets a victim restart from its last completed
    /// layer instead of layer zero.
    resume_layers: HashMap<ReqId, u32>,

    host_busy_until: SimTime,
    next_gen: u64,

    /// Reused per-iteration scratch (hot-loop allocation freedom): the
    /// decode context slice handed to the cost model, eviction victims,
    /// and retired slots.
    ctx_scratch: Vec<u64>,
    victim_scratch: Vec<ReqId>,
    retired_scratch: Vec<DecodeSlot>,

    /// Decode iterations launched.
    decode_iters: u64,

    /// `(time, decode SMs)` at every partition change (Fig. 18).
    partition_log: Vec<(SimTime, u32)>,
    peak_decode_batch: usize,
}

impl MuxWise {
    /// Creates a MuxWise engine for `model` on the cluster whose GPU spec
    /// the driver's simulator uses. `tp` is the tensor-parallel degree
    /// (8 in all the paper's MuxWise configurations).
    ///
    /// # Panics
    ///
    /// Panics if the model cannot fit (zero pool capacity).
    pub fn new(
        model: &ModelSpec,
        cluster: &gpusim::ClusterSpec,
        tp: u32,
        slo: SloSpec,
        est: Estimators,
        cfg: MuxWiseConfig,
    ) -> MuxWise {
        let partition_configs = cluster.gpu.partition_configs();
        let graph_mib = cluster
            .gpu
            .graph_memory_overhead_mib(partition_configs.len(), 20);
        let pool_capacity =
            kv_pool_capacity_tokens(cluster, model, cluster.num_gpus, tp, graph_mib);
        assert!(pool_capacity > 0, "model does not fit on this cluster");
        let cands = partition_configs
            .iter()
            .map(|&sms| PartitionCand {
                sms,
                planes: est.predictor.decode_planes(sms).to_vec(),
                factor: 1.0,
            })
            .collect();
        MuxWise {
            model: model.clone(),
            par: Parallelism::tp(tp, cluster.nvlink_gbs),
            slo,
            cfg,
            est,
            sm_count: cluster.gpu.sm_count,
            cands,
            factor_memo: None,
            pool_capacity,
            group: None,
            decode_ctx: None,
            prefill_ctx: None,
            decode_sms: 0,
            table: None,
            lifecycle: Lifecycle::default(),
            waiting: VecDeque::new(),
            prefill: None,
            preempted: None,
            decode: DecodeBatch::new(),
            pending_join: Vec::new(),
            decode_inflight: None,
            decode_blocked: false,
            fault_mode: false,
            down: false,
            resume_layers: HashMap::new(),
            host_busy_until: SimTime::ZERO,
            next_gen: 1,
            ctx_scratch: Vec::new(),
            victim_scratch: Vec::new(),
            retired_scratch: Vec::new(),
            decode_iters: 0,
            partition_log: Vec::new(),
            peak_decode_batch: 0,
        }
    }

    /// The partition-change log: `(time, SMs reserved for decode)`
    /// (regenerates Fig. 18).
    pub fn partition_log(&self) -> &[(SimTime, u32)] {
        &self.partition_log
    }

    /// Number of prefill preemptions performed.
    pub fn preemptions(&self) -> u64 {
        self.lifecycle.counters().preemptions
    }

    /// KV-cache hit statistics of the shared pool.
    pub fn pool_stats(&self) -> Option<kvcache::PoolStats> {
        self.table.as_ref().map(|t| t.stats())
    }

    /// Read access to the shared pool (for invariant checks in tests).
    pub fn pool(&self) -> Option<&KvPool> {
        self.table.as_ref().map(|t| t.pool())
    }

    /// Requests forcibly requeued because the pool ran dry mid-decode.
    pub fn requeues(&self) -> u64 {
        self.lifecycle.counters().requeues
    }

    /// Largest decode batch observed (telemetry for partition studies).
    pub fn peak_decode_batch(&self) -> usize {
        self.peak_decode_batch
    }

    /// Requests dropped because they could never fit the pool.
    pub fn dropped(&self) -> u64 {
        self.lifecycle.counters().drops
    }

    /// Populated contention-guard cells (grows with §3.3.2's online
    /// refinement as co-run iterations are observed).
    pub fn guard_cells(&self) -> usize {
        self.est.guard.num_cells()
    }

    /// Serializes host-side launch work; returns the kernel's ready time.
    fn host_submit(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        let start = now.max(self.host_busy_until);
        self.host_busy_until = start + cost;
        self.host_busy_until
    }

    // ---- dispatcher: partition selection ------------------------------------

    /// Smallest partition whose worst-case decode latency meets the TBT
    /// budget (§3.4.2's best-fit reservation). When no prefill work
    /// exists at all, decode takes the largest partition instead — idle
    /// SMs would otherwise be wasted (the Fig. 18 OpenThoughts regime,
    /// where most SMs serve decode).
    ///
    /// Every candidate's query shares one guard row, so the factors are
    /// read once per (row, guard generation) and reused until either
    /// changes; a generation bump covers every online refinement and
    /// fault-window invalidation, so the reuse is exact.
    // simlint: hot
    fn desired_decode_sms(&mut self, ctx: &ServeCtx) -> u32 {
        let last = self.cands.last().expect("non-empty configs").sms;
        if self.decode.is_empty() && self.pending_join.is_empty() {
            return self.cands[0].sms;
        }
        if self.fault_mode {
            // Degraded hardware: the predictor's profiled latencies no
            // longer hold, so reserve the largest decode partition and
            // let online refinement re-learn the guard.
            return last;
        }
        // Eq. 2 and the guard key only read (Σ context, batch); both are
        // exact u64 aggregates, so no per-slot slice is materialized.
        let mut ctx_sum = self.decode.context_sum();
        for s in &self.pending_join {
            ctx_sum += s.context;
        }
        let batch = self.decode.len() + self.pending_join.len();
        let mut budget =
            self.slo.tbt.as_secs() * self.cfg.tbt_margin - ctx.gpu.spec().graph_launch.as_secs();
        if self.prefill.is_none() && self.preempted.is_none() && self.waiting.is_empty() {
            // No prefill work: spend the idle SMs on decode by targeting
            // a much faster iteration than the SLO requires.
            budget *= 0.3;
        }
        if self.cfg.contention_guard {
            let q = self.guard_query(0, ctx_sum, batch);
            let key = (q.row(), self.est.guard.generation());
            if self.factor_memo != Some(key) {
                for c in &mut self.cands {
                    c.factor = self.est.guard.factor(&GuardQuery {
                        decode_sms: c.sms,
                        ..q
                    });
                }
                self.factor_memo = Some(key);
            }
            debug_assert!(
                self.cands.iter().all(|c| c.factor
                    == self.est.guard.factor(&GuardQuery {
                        decode_sms: c.sms,
                        ..q
                    })),
                "memoized guard factor differs from a fresh lookup"
            );
        }
        let f = [ctx_sum as f64, batch as f64, 1.0];
        for c in &self.cands {
            let solo = predict_max_affine(&c.planes, &f).max(0.0);
            if solo * c.factor <= budget {
                return c.sms;
            }
        }
        last
    }

    // simlint: hot
    fn guard_query(&self, sms: u32, ctx_sum: u64, batch: usize) -> GuardQuery {
        let (p_new, p_reused) = match &self.prefill {
            Some(job) => (job.new_sum, job.reused_sum),
            None => (0, 0),
        };
        let avg_ctx = if batch == 0 {
            0
        } else {
            ctx_sum / batch as u64
        };
        GuardQuery {
            prefill_new: p_new,
            prefill_reused: p_reused,
            decode_batch: batch.max(1),
            decode_context: avg_ctx,
            decode_sms: sms,
        }
    }

    /// Applies the desired partition when both contexts are idle
    /// (green-context resize requires an idle stream). Shrinks one side
    /// before growing the other so SMs are never oversubscribed.
    fn try_apply_partition(&mut self, ctx: &mut ServeCtx) {
        if !self.cfg.backend.can_reconfigure() && !self.partition_log.is_empty() {
            return; // MIG-style static slicing never adapts.
        }
        let desired = self.desired_decode_sms(ctx);
        if desired == self.decode_sms {
            return;
        }
        let (group, d_ctx, p_ctx) = match (self.group, self.decode_ctx, self.prefill_ctx) {
            (Some(g), Some(d), Some(p)) => (g, d, p),
            _ => return,
        };
        if !ctx.gpu.is_idle(group, d_ctx) || !ctx.gpu.is_idle(group, p_ctx) {
            return;
        }
        let prefill_sms = self.sm_count - desired;
        if desired < self.decode_sms {
            ctx.gpu.resize_context(group, d_ctx, desired);
            ctx.gpu.resize_context(group, p_ctx, prefill_sms);
        } else {
            ctx.gpu.resize_context(group, p_ctx, prefill_sms);
            ctx.gpu.resize_context(group, d_ctx, desired);
        }
        self.decode_sms = desired;
        self.partition_log.push((ctx.now(), desired));
        // MPS-style backends pay a process restart per reconfiguration,
        // stalling all subsequent launches.
        let stall = self.cfg.backend.reconfig_stall_secs();
        if stall > 0.0 {
            let now = ctx.now();
            self.host_submit(now, SimDuration::from_secs(stall));
        }
    }

    fn prefill_sms(&self) -> u32 {
        self.sm_count - self.decode_sms
    }

    // ---- prefill side --------------------------------------------------------

    /// Admits a batch of waiting requests into a new prefill job (or
    /// resumes a preempted one).
    fn try_start_prefill(&mut self, ctx: &mut ServeCtx) {
        if self.prefill.is_some() || self.down {
            return;
        }
        if let Some(job) = self.preempted.take() {
            self.prefill = Some(job);
            self.launch_prefill_layers(ctx);
            return;
        }
        if self.waiting.is_empty() {
            return;
        }
        if self.cfg.preemption {
            // Preemptive scheduling breaks FCFS (§4.4.3): short requests
            // jump long ones at batch formation too, so a queued chat
            // turn never waits behind a queue of long-document prefills.
            let mut sorted: Vec<ReqId> = self.waiting.iter().copied().collect();
            sorted.sort_by_key(|&id| (ctx.request(id).input_tokens(), id));
            self.waiting = sorted.into();
        }
        let mut reqs = Vec::new();
        let mut new_total = 0u64;
        while let Some(&id) = self.waiting.front() {
            if reqs.len() >= 32 {
                break;
            }
            let spec = ctx.request(id).clone();
            let blocks = spec
                .content
                .blocks(self.table.as_ref().expect("table").block_size());
            let reused = self.table.as_ref().expect("table").peek_prefix(&blocks);
            let new_tokens = spec.input_tokens() - reused;
            if !reqs.is_empty() && new_total + new_tokens > self.cfg.max_prefill_batch_tokens {
                break;
            }
            let table = self.table.as_mut().expect("table");
            if !table.try_alloc_private(new_tokens, ctx.now()) {
                // Pool pressure: wait for running requests to release
                // space — unless nothing is running, in which case the
                // request can never fit and must be dropped to stay live.
                if reqs.is_empty()
                    && self.decode.is_empty()
                    && self.pending_join.is_empty()
                    && self.prefill.is_none()
                    && self.preempted.is_none()
                {
                    self.waiting.pop_front();
                    ctx.finish_request(id);
                    self.lifecycle.drop_request(id);
                    continue;
                }
                break;
            }
            let mut lease = table.lease_prefix(id, &blocks, ctx.now());
            // The lock is taken after the peek; eviction in between can
            // only shrink the match, which is safe (more recompute).
            let reused = lease.matched_tokens();
            let seq = SeqState::new(spec.input_tokens() - reused, reused);
            lease.absorb_private(seq.new_tokens);
            new_total += seq.new_tokens;
            self.waiting.pop_front();
            self.lifecycle.admit(id);
            reqs.push(PrefillReq { id, seq, lease });
        }
        if reqs.is_empty() {
            return;
        }
        // Layer-checkpoint resume: a batch made of crash victims restarts
        // from the shallowest checkpoint its members share; one fresh
        // request forces a full restart.
        let resume = if self.cfg.layer_wise {
            reqs.iter()
                .map(|r| self.resume_layers.remove(&r.id).unwrap_or(0))
                .min()
                .unwrap_or(0)
        } else {
            for r in &reqs {
                self.resume_layers.remove(&r.id);
            }
            0
        };
        let batch: Vec<SeqState> = reqs.iter().map(|r| r.seq).collect();
        let est_full = self
            .est
            .predictor
            .prefill_latency(self.prefill_sms(), &batch);
        let earliest = reqs
            .iter()
            .map(|r| ctx.request(r.id).arrival)
            .min()
            .expect("non-empty");
        let gen = self.next_gen;
        self.next_gen += 1;
        let (new_sum, reused_sum) = reqs.iter().fold((0, 0), |(n, r), pr| {
            (n + pr.seq.new_tokens, r + pr.seq.reused_tokens)
        });
        self.prefill = Some(PrefillJob {
            gen,
            reqs,
            new_sum,
            reused_sum,
            layers_done: resume,
            layers_inflight: 0,
            earliest_arrival: earliest,
            est_full,
            is_preemptor: false,
        });
        self.launch_prefill_layers(ctx);
    }

    /// Launches the next group of prefill layers, sized by the paper's
    /// `N_PL = ceil(T_d · N_T / T_P)` so prefill work covers the
    /// concurrent decode iteration (§3.4.2).
    fn launch_prefill_layers(&mut self, ctx: &mut ServeCtx) {
        if self.down {
            return;
        }
        let (group, p_ctx) = match (self.group, self.prefill_ctx) {
            (Some(g), Some(p)) => (g, p),
            _ => return,
        };
        let Some(job) = &self.prefill else { return };
        if job.layers_inflight > 0 || job.layers_done >= self.model.num_layers {
            return;
        }
        self.try_apply_partition(ctx);
        // If the partition is stale (decode mid-iteration holds its
        // context busy) and prefill would run badly undersized, defer to
        // the next decode boundary — `launch_decode` re-launches prefill
        // right after applying the partition.
        let desired = self.desired_decode_sms(ctx);
        let current_prefill = self.sm_count - self.decode_sms;
        let desired_prefill = self.sm_count - desired;
        if desired != self.decode_sms && current_prefill * 2 < desired_prefill {
            return;
        }
        let job = self.prefill.as_ref().expect("checked");
        let batch: Vec<SeqState> = job.reqs.iter().map(|r| r.seq).collect();
        let remaining = self.model.num_layers - job.layers_done;
        let layers_done = job.layers_done;
        let gen = job.gen;

        let spec = ctx.gpu.spec().clone();
        let now = ctx.now();
        if self.cfg.layer_wise {
            let n_pl = self.layers_to_launch(&batch, remaining);
            let layer_work = self.model.prefill_layer_work(&batch, &self.par);
            for i in 0..n_pl {
                let ready = self.host_submit(now, spec.layer_graph_launch);
                let mut work = layer_work;
                if job_is_last_layer(layers_done + i + 1, self.model.num_layers) {
                    // Fold the LM head into the final layer.
                    work = work.plus(&self.model.lm_head_work(batch.len() as f64, &self.par));
                }
                ctx.gpu.submit(group, p_ctx, work, ready, gen);
            }
            self.prefill.as_mut().expect("checked").layers_inflight = n_pl;
        } else {
            // Ablation: whole remaining phase in one launch. The host is
            // busy for the full phase-launch time (~10 ms for Llama-70B),
            // delaying decode launches — the first bubble type of Fig. 9.
            let launch_cost =
                SimDuration::from_secs(spec.layer_graph_launch.as_secs() * remaining as f64);
            let ready = self.host_submit(now, launch_cost);
            let frac = remaining as f64 / self.model.num_layers as f64;
            let work = self.model.prefill_full_work(&batch, &self.par).scaled(frac);
            ctx.gpu.submit(group, p_ctx, work, ready, gen);
            let job = self.prefill.as_mut().expect("checked");
            job.layers_inflight = remaining;
            job.layers_done = self.model.num_layers - remaining;
        }
    }

    fn layers_to_launch(&self, batch: &[SeqState], remaining: u32) -> u32 {
        let t_p = self
            .est
            .predictor
            .prefill_latency(self.prefill_sms(), batch)
            .max(1e-6);
        if self.decode.is_empty() {
            return remaining;
        }
        let t_d = self.est.predictor.decode_latency_agg(
            self.decode_sms,
            self.decode.context_sum(),
            self.decode.len(),
        );
        let n_pl = (t_d * self.model.num_layers as f64 / t_p).ceil() as u32;
        n_pl.clamp(1, remaining)
    }

    /// Handles completion of one prefill layer (or whole-phase launch).
    fn on_prefill_layer_done(&mut self, gen: u64, ctx: &mut ServeCtx) {
        let in_current = self.prefill.as_ref().map(|j| j.gen) == Some(gen);
        let job = if in_current {
            self.prefill.as_mut()
        } else if self.preempted.as_ref().map(|j| j.gen) == Some(gen) {
            self.preempted.as_mut()
        } else {
            None
        };
        let Some(job) = job else { return };
        if self.cfg.layer_wise {
            job.layers_done += 1;
            job.layers_inflight -= 1;
        } else {
            job.layers_done += job.layers_inflight;
            job.layers_inflight = 0;
        }
        let complete = job.layers_done >= self.model.num_layers;
        if complete && in_current {
            let job = self.prefill.take().expect("current job");
            self.complete_prefill_job(job, ctx);
            if self.decode_blocked {
                self.decode_blocked = false;
                self.launch_decode(ctx);
            }
            self.try_start_prefill(ctx);
        } else if complete {
            // A preempted job's final running layer finished after the
            // preemptor started; deliver its results too.
            let job = self.preempted.take().expect("preempted job");
            self.complete_prefill_job(job, ctx);
        } else if in_current && job_idle(self.prefill.as_ref()) {
            self.launch_prefill_layers(ctx);
        } else if !in_current && job_idle(self.preempted.as_ref()) {
            // The old job's head drained; the preemptor can now launch.
            self.launch_prefill_layers(ctx);
        }
    }

    /// Emits first tokens and moves finished prefills toward the decode
    /// batch (query-based synchronization: they join at the next decode
    /// launch without stalling it).
    fn complete_prefill_job(&mut self, job: PrefillJob, ctx: &mut ServeCtx) {
        for mut r in job.reqs {
            let spec = ctx.request(r.id).clone();
            let already = ctx.tokens_emitted(r.id);
            if already == 0 {
                ctx.emit_tokens(r.id, 1);
            }
            let emitted = ctx.tokens_emitted(r.id);
            let remaining = spec.output_tokens.saturating_sub(emitted);
            // The freshly computed prompt KV enters the shared radix
            // immediately (as SGLang's tree does), so concurrent and
            // later turns can reuse it before this request finishes.
            let table = self.table.as_mut().expect("table");
            let blocks = spec.content.blocks(table.block_size());
            table.migrate(&mut r.lease, &blocks, ctx.now());
            let slot = DecodeSlot {
                id: r.id,
                context: spec.input_tokens() + emitted,
                remaining_out: remaining,
                lease: r.lease,
            };
            if remaining == 0 {
                self.retire_slot(slot, ctx);
            } else {
                self.lifecycle.begin_decode(slot.id);
                self.pending_join.push(slot);
            }
        }
        self.launch_decode(ctx);
    }

    /// Commits a finished request's context (input + generated tokens) to
    /// the shared pool for future-turn reuse, and releases its resources.
    fn retire_slot(&mut self, slot: DecodeSlot, ctx: &mut ServeCtx) {
        let spec = ctx.request(slot.id).clone();
        let table = self.table.as_mut().expect("table");
        let mut committed = spec.content.clone();
        committed.push(spec.session, ctx.tokens_emitted(slot.id));
        let blocks = committed.blocks(table.block_size());
        table.release_and_commit(slot.lease, &blocks, ctx.now());
        ctx.finish_request(slot.id);
        self.lifecycle.finish(slot.id);
    }

    // ---- decode side ----------------------------------------------------------

    // simlint: hot
    fn launch_decode(&mut self, ctx: &mut ServeCtx) {
        if self.decode_inflight.is_some() || self.decode_blocked || self.down {
            return;
        }
        // Query-based sync: merge finished prefills at the launch
        // boundary.
        while self.decode.len() < self.cfg.max_decode_batch && !self.pending_join.is_empty() {
            self.decode.push(self.pending_join.remove(0));
        }
        let (group, d_ctx) = match (self.group, self.decode_ctx) {
            (Some(g), Some(d)) => (g, d),
            _ => return,
        };
        // Grow each sequence's KV allocation by one token; requeue
        // victims if the pool is truly exhausted.
        let now = ctx.now();
        let table = self.table.as_mut().expect("table");
        self.decode
            .grow_for_iteration_into(table, now, &mut self.victim_scratch);
        for i in 0..self.victim_scratch.len() {
            let id = self.victim_scratch[i];
            self.waiting.push_front(id);
            self.lifecycle.requeue(id);
        }
        if self.decode.is_empty() {
            // No decode boundary follows, so a prefill launch deferred to
            // this one must go now or never.
            self.launch_prefill_layers(ctx);
            return;
        }
        self.try_apply_partition(ctx);
        // A deferred prefill launch (waiting for this resize) can go now.
        if job_idle(self.prefill.as_ref()) {
            self.launch_prefill_layers(ctx);
        }
        self.peak_decode_batch = self.peak_decode_batch.max(self.decode.len());
        self.ctx_scratch.clear();
        self.ctx_scratch.extend(self.decode.contexts());
        self.decode_iters += 1;
        let work = self.model.decode_iter_work(&self.ctx_scratch, &self.par);
        let spec_launch = ctx.gpu.spec().graph_launch;
        let ready = self.host_submit(now, spec_launch);
        ctx.gpu.submit(group, d_ctx, work, ready, DECODE_TAG);
        // The guard query, its solo prediction, and the O(batch) context
        // sum feeding them are only needed when a co-running prefill
        // turns this iteration into a guard observation.
        let (corun, predicted_solo) =
            if self.prefill.as_ref().is_some_and(|j| j.layers_inflight > 0) {
                let ctx_sum = self.decode.context_sum();
                let batch = self.decode.len();
                (
                    Some(self.guard_query(self.decode_sms, ctx_sum, batch)),
                    self.est
                        .predictor
                        .decode_latency_agg(self.decode_sms, ctx_sum, batch),
                )
            } else {
                (None, 0.0)
            };
        self.decode_inflight = Some(DecodeInflight {
            ready_at: ready,
            predicted_solo,
            corun,
        });
    }

    // simlint: hot
    fn on_decode_done(&mut self, ctx: &mut ServeCtx) {
        if let Some(inflight) = self.decode_inflight.take() {
            // Online refinement of the contention guard (§3.3.2).
            if let Some(q) = inflight.corun {
                let measured = (ctx.now() - inflight.ready_at).as_secs();
                if inflight.predicted_solo > 0.0 {
                    self.est
                        .guard
                        .observe(&q, measured / inflight.predicted_solo);
                }
            }
        }
        let mut retired = std::mem::take(&mut self.retired_scratch);
        self.decode.advance_iteration_into(ctx, &mut retired);
        for slot in retired.drain(..) {
            self.retire_slot(slot, ctx);
        }
        self.retired_scratch = retired;
        if !self.cfg.query_sync && self.prefill.is_some() {
            // Ablation: block the next decode launch on the prefill
            // phase's completion (the stall of Fig. 19).
            self.decode_blocked = true;
            return;
        }
        self.launch_decode(ctx);
        // Freed pool space may unblock waiting prefills.
        self.try_start_prefill(ctx);
    }

    // ---- preemption -------------------------------------------------------------

    /// §3.4.2: a newly arrived short request may preempt an ultra-long
    /// active prefill at a layer boundary, provided the preempted batch
    /// can still make its (length-scaled) TTFT deadline — and preemption
    /// never nests.
    fn maybe_preempt(&mut self, id: ReqId, ctx: &mut ServeCtx) {
        if !self.cfg.preemption || self.preempted.is_some() || self.down {
            return;
        }
        let Some(job) = &self.prefill else { return };
        if job.is_preemptor || job.layers_done >= self.model.num_layers {
            return;
        }
        let spec = ctx.request(id).clone();
        let table = self.table.as_ref().expect("table");
        let reused = table.peek_prefix(&spec.content.blocks(table.block_size()));
        let new_seq = [SeqState::new(spec.input_tokens() - reused, reused)];
        let psms = self.prefill_sms();
        let t_new = self.est.predictor.prefill_latency(psms, &new_seq);
        let batch: Vec<SeqState> = job.reqs.iter().map(|r| r.seq).collect();
        let remaining_frac =
            (self.model.num_layers - job.layers_done) as f64 / self.model.num_layers as f64;
        let t_remaining = self.est.predictor.prefill_latency(psms, &batch) * remaining_frac;
        // Short-preempts-long requirement.
        if t_new > 0.3 * t_remaining {
            return;
        }
        // Deadline check for the preempted batch: arrival + TTFT slack
        // scaled to its own size (long prefills cannot meet an absolute
        // 500 ms target; the paper evaluates TTFT *per token*, §4.4.3).
        let deadline =
            job.earliest_arrival + SimDuration::from_secs(2.0 * job.est_full) + self.slo.ttft;
        let projected = ctx.now() + SimDuration::from_secs(t_new + t_remaining);
        if projected > deadline {
            return;
        }
        // Preempt: drop queued (not-running) layers; the running head
        // finishes (non-preemptive GPU execution).
        let (group, p_ctx) = (
            self.group.expect("started"),
            self.prefill_ctx.expect("started"),
        );
        let cancelled = ctx.gpu.cancel_queued(group, p_ctx);
        let mut job = self.prefill.take().expect("checked");
        job.layers_inflight -= cancelled.len() as u32;
        self.preempted = Some(job);
        self.lifecycle.record_preemption();

        // Start the preemptor immediately with just this request.
        let table = self.table.as_mut().expect("table");
        let blocks = spec.content.blocks(table.block_size());
        if !table.try_alloc_private(spec.input_tokens() - reused, ctx.now()) {
            // No space: cancel the preemption attempt.
            let job = self.preempted.take().expect("just set");
            self.prefill = Some(job);
            self.waiting.push_back(id);
            self.launch_prefill_layers(ctx);
            return;
        }
        let mut lease = table.lease_prefix(id, &blocks, ctx.now());
        let seq = SeqState::new(
            spec.input_tokens() - lease.matched_tokens(),
            lease.matched_tokens(),
        );
        lease.absorb_private(seq.new_tokens);
        self.waiting.retain(|&w| w != id);
        self.lifecycle.admit(id);
        let gen = self.next_gen;
        self.next_gen += 1;
        let est_full = self.est.predictor.prefill_latency(psms, &[seq]);
        self.prefill = Some(PrefillJob {
            gen,
            new_sum: seq.new_tokens,
            reused_sum: seq.reused_tokens,
            reqs: vec![PrefillReq { id, seq, lease }],
            layers_done: 0,
            layers_inflight: 0,
            earliest_arrival: spec.arrival,
            est_full,
            is_preemptor: true,
        });
        // Launch begins once the old head drains (ctx idle check inside).
        if ctx.gpu.is_idle(group, p_ctx) {
            self.launch_prefill_layers(ctx);
        }
    }
}

fn job_idle(job: Option<&PrefillJob>) -> bool {
    job.map(|j| j.layers_inflight == 0 && j.layers_done < u32::MAX)
        .unwrap_or(false)
}

fn job_is_last_layer(done_after: u32, total: u32) -> bool {
    done_after == total
}

impl Scheduler for MuxWise {
    fn on_start(&mut self, ctx: &mut ServeCtx) {
        let gpus: Vec<u32> = (0..ctx.gpu.num_gpus()).collect();
        let group = ctx.gpu.create_group(gpus);
        self.decode_sms = self.cands[0].sms;
        let d = ctx.gpu.set_context(group, self.decode_sms);
        let p = ctx.gpu.set_context(group, self.sm_count - self.decode_sms);
        self.group = Some(group);
        self.decode_ctx = Some(d);
        self.prefill_ctx = Some(p);
        self.table = Some(LeaseTable::new(self.pool_capacity, 64));
        self.partition_log.push((ctx.now(), self.decode_sms));
    }

    fn on_arrival(&mut self, id: ReqId, ctx: &mut ServeCtx) {
        self.maybe_preempt(id, ctx);
        if self
            .prefill
            .as_ref()
            .map(|j| j.reqs.iter().any(|r| r.id == id))
            == Some(true)
        {
            return; // became the preemptor
        }
        if !self.waiting.contains(&id) {
            self.waiting.push_back(id);
        }
        self.try_start_prefill(ctx);
    }

    fn on_kernel_done(&mut self, tag: u64, ctx: &mut ServeCtx) {
        // Any tag but the decode one is a prefill job's generation.
        if tag != DECODE_TAG {
            self.on_prefill_layer_done(tag, ctx);
        } else if self.decode_inflight.is_some() {
            // A stale decode completion (none exist today — crashes
            // cancel in-flight kernels — but cheap to guard) is ignored.
            self.on_decode_done(ctx);
        }
    }

    fn streams(&self) -> Vec<(GroupId, CtxId)> {
        match (self.group, self.decode_ctx, self.prefill_ctx) {
            (Some(g), Some(d), Some(p)) => vec![(g, d), (g, p)],
            _ => Vec::new(),
        }
    }

    fn counters(&self) -> EngineCounters {
        self.lifecycle.counters()
    }

    fn decode_iter_stats(&self) -> (u64, u64) {
        (self.decode_iters, 0)
    }

    fn lease_tables(&self) -> Vec<&LeaseTable> {
        self.table.iter().collect()
    }

    fn lease_tables_mut(&mut self) -> Vec<&mut LeaseTable> {
        self.table.iter_mut().collect()
    }

    fn on_fault(&mut self, active: &[FaultKind], _ctx: &mut ServeCtx) {
        let degraded = !active.is_empty();
        if degraded && !self.fault_mode {
            // The hardware changed under the offline profile: discard
            // the per-cell grid (queries fall back to the conservative
            // global max) and re-learn online as co-runs are observed.
            self.est.guard.invalidate();
        }
        self.fault_mode = degraded;
    }

    fn on_shed(&mut self, id: ReqId, _ctx: &mut ServeCtx) -> bool {
        self.lifecycle.shed_waiting(&mut self.waiting, id)
    }

    fn on_gpu_lost(
        &mut self,
        _gpu: u32,
        _cancelled: &[u64],
        ctx: &mut ServeCtx,
    ) -> Vec<CrashVictim> {
        // MuxWise runs one lockstep group over every GPU, so any device
        // death takes the whole engine down: all in-flight kernels were
        // cancelled by the driver and every running request loses its
        // device-resident KV.
        self.down = true;
        self.decode_inflight = None;
        self.decode_blocked = false;
        let table = self.table.as_mut().expect("table");
        let mut victims = Vec::new();
        // Prefill victims resume from their last completed layer (the
        // layer-wise launch IS the checkpoint); their freshly computed
        // private KV below that layer is lost with the device.
        for job in self.prefill.take().into_iter().chain(self.preempted.take()) {
            for r in job.reqs {
                let blocks = ctx.request(r.id).content.blocks(table.block_size());
                table.revoke(r.id, Some(r.lease), &blocks);
                let (class, lost) = if self.cfg.layer_wise {
                    if job.layers_done > 0 {
                        self.resume_layers.insert(r.id, job.layers_done);
                    }
                    (RecoveryClass::ResumeFromLayer(job.layers_done), 0)
                } else {
                    (RecoveryClass::ReprefillFull, r.seq.new_tokens)
                };
                victims.push(self.lifecycle.requeue_victim(r.id, class, lost));
            }
        }
        // Decode victims (joined or pending join) must re-prefill their
        // full accumulated context on re-admission.
        let mut slots = std::mem::take(&mut self.pending_join);
        slots.extend(self.decode.drain());
        for slot in slots {
            let blocks = ctx.request(slot.id).content.blocks(table.block_size());
            table.revoke(slot.id, Some(slot.lease), &blocks);
            let class = RecoveryClass::ReprefillFull;
            victims.push(self.lifecycle.requeue_victim(slot.id, class, slot.context));
        }
        victims
    }

    fn on_gpu_recovered(&mut self, _gpu: u32, ctx: &mut ServeCtx) {
        if let Some(group) = self.group {
            if ctx.gpu.group_has_dead_gpu(group) {
                return; // another device of the group is still down
            }
        }
        self.down = false;
        self.try_start_prefill(ctx);
        self.launch_decode(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::{ClusterSpec, GpuSim};
    use serving::{Driver, FaultPlan};
    use simcore::SimRng;
    use workload::{generate, ContentSpec, RequestSpec, WorkloadKind};

    fn est8b() -> Estimators {
        Estimators::profile(&ModelSpec::llama8b(), &ClusterSpec::dgx_a100(), 8)
    }

    fn run(
        kind: WorkloadKind,
        n: usize,
        rate: f64,
        cfg: MuxWiseConfig,
        est: &Estimators,
    ) -> (serving::Report, MuxWise) {
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama8b();
        let slo = SloSpec::llama8b();
        let mut engine = MuxWise::new(&model, &cluster, 8, slo, est.clone(), cfg);
        let mut rng = SimRng::seed_from(42);
        let reqs = generate(kind, n, rate, &mut rng);
        let report = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
        (report, engine)
    }

    #[test]
    fn sharegpt_completes_within_slo() {
        let est = est8b();
        let (rep, _) = run(
            WorkloadKind::ShareGpt,
            120,
            4.0,
            MuxWiseConfig::default(),
            &est,
        );
        assert_eq!(rep.finished, rep.total, "all requests must finish");
        assert!(
            rep.tbt.p99() <= 0.050 * 1.05,
            "P99 TBT {}ms exceeds the 50ms target",
            rep.tbt.p99() * 1e3
        );
        assert!(rep.ttft.p99() < 2.0, "P99 TTFT {}s", rep.ttft.p99());
    }

    #[test]
    fn multi_turn_workload_reuses_cache() {
        let est = est8b();
        let (rep, engine) = run(
            WorkloadKind::Conversation,
            60,
            1.0,
            MuxWiseConfig::default(),
            &est,
        );
        assert_eq!(rep.finished, rep.total);
        let stats = engine.pool_stats().expect("pool exists");
        assert!(
            stats.hit_rate() > 0.2,
            "multi-turn hit rate too low: {}",
            stats.hit_rate()
        );
    }

    #[test]
    fn partition_adapts_to_workload() {
        // Fig. 18's mechanism: a decode-heavy 70B workload (OpenThoughts:
        // short inputs, ultra-long outputs) must grow the decode
        // partition beyond the minimum, while a prefill-heavy one
        // (LooGLE) keeps decode at the minimum.
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama70b();
        let slo = SloSpec::llama70b();
        let est = Estimators::profile(&model, &cluster, 8);
        let run70 = |kind: WorkloadKind, n: usize, rate: f64| {
            let mut engine = MuxWise::new(
                &model,
                &cluster,
                8,
                slo,
                est.clone(),
                MuxWiseConfig::default(),
            );
            let mut rng = SimRng::seed_from(11);
            let reqs = generate(kind, n, rate, &mut rng);
            Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
            engine
        };
        let loogle = run70(WorkloadKind::Loogle, 10, 0.5);
        // A chat flood drives the decode batch into the hundreds, where
        // one granule of SMs can no longer meet the 100 ms TBT target.
        let flood = run70(WorkloadKind::ShareGpt, 500, 60.0);
        // Time-weighted mean decode partition: prefill-heavy LooGLE must
        // keep decode far smaller than the chat flood.
        let avg_sms = |e: &MuxWise| {
            let log = e.partition_log();
            let mut weighted = 0.0;
            let mut total = 0.0;
            for w in log.windows(2) {
                let dur = (w[1].0 - w[0].0).as_secs();
                weighted += w[0].1 as f64 * dur;
                total += dur;
            }
            if total == 0.0 {
                log.last().map(|&(_, s)| s as f64).unwrap_or(0.0)
            } else {
                weighted / total
            }
        };
        assert!(
            avg_sms(&loogle) + 8.0 < avg_sms(&flood),
            "LooGLE {} vs flood {}",
            avg_sms(&loogle),
            avg_sms(&flood)
        );
    }

    #[test]
    fn ablations_still_complete() {
        let est = est8b();
        for cfg in [
            MuxWiseConfig::without_layer_wise(),
            MuxWiseConfig::without_query_sync(),
        ] {
            let (rep, _) = run(WorkloadKind::ShareGpt, 60, 2.0, cfg, &est);
            assert_eq!(rep.finished, rep.total);
        }
    }

    #[test]
    fn query_sync_improves_tbt() {
        // Under sustained load (prefill almost always active), blocking
        // the decode relaunch on prefill completion inflates TBT
        // massively (Fig. 19).
        let est = est8b();
        let (with, _) = run(
            WorkloadKind::Conversation,
            80,
            8.0,
            MuxWiseConfig::default(),
            &est,
        );
        let (without, _) = run(
            WorkloadKind::Conversation,
            80,
            8.0,
            MuxWiseConfig::without_query_sync(),
            &est,
        );
        assert!(
            without.tbt.mean() > with.tbt.mean() * 1.5,
            "blocking sync should inflate TBT: {} vs {}",
            without.tbt.mean(),
            with.tbt.mean()
        );
    }

    #[test]
    fn preemption_happens_on_mixed_workloads() {
        let est = est8b();
        // Interleave LooGLE (ultra-long) and ShareGPT (short) requests.
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama8b();
        let slo = SloSpec::llama8b();
        let mut rng = SimRng::seed_from(7);
        let mut reqs = generate(WorkloadKind::Loogle, 15, 0.5, &mut rng);
        let short = generate(WorkloadKind::ShareGpt, 15, 0.5, &mut rng);
        for (i, mut s) in short.into_iter().enumerate() {
            s.id = (reqs.len() + i) as u64;
            // Arrive just after a long request.
            s.arrival = reqs[i % 15].arrival + SimDuration::from_millis(50.0);
            reqs.push(s);
        }
        reqs.sort_by_key(|r| r.arrival);
        for (i, r) in reqs.iter_mut().enumerate() {
            r.id = i as u64;
        }
        let mut engine = MuxWise::new(
            &model,
            &cluster,
            8,
            slo,
            est.clone(),
            MuxWiseConfig::with_preemption(),
        );
        let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo).run(&mut engine);
        assert_eq!(rep.finished, rep.total);
        assert!(engine.preemptions() > 0, "expected at least one preemption");
    }

    #[test]
    fn online_refinement_populates_guard_cells() {
        let est = est8b();
        let before = est.guard.num_cells();
        let (_, engine) = run(
            WorkloadKind::Conversation,
            80,
            6.0,
            MuxWiseConfig::default(),
            &est,
        );
        assert!(
            engine.guard_cells() > before,
            "co-run observations must refine the guard: {} -> {}",
            before,
            engine.guard_cells()
        );
    }

    #[test]
    fn prefill_deferred_to_the_last_decode_boundary_still_launches() {
        // Regression: a prefill launch deferred to the next decode
        // boundary (partition stale, prefill badly undersized) was lost
        // when that decode iteration retired the last slot — the empty
        // batch returned before re-launching prefill, leaving the job
        // with no layer in flight and nothing to wake it. Request 3
        // stranded in the job with its lease held. Exact arrival instants
        // (a trace replayed on one member of a spiked fleet, reduced);
        // the earlier latency spike leaves the guard re-learning online.
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama8b();
        let slo = SloSpec::llama8b();
        let turns = [
            (196_760_932_166, 294, 0, 5_671, 0, 1_208),
            (203_527_912_204, 237, 5, 16_423, 13_160, 128),
            (696_294_954_067, 909, 0, 5_853, 0, 63),
            (696_508_062_722, 891, 3, 12_619, 8_628, 527),
        ];
        let reqs = turns
            .iter()
            .enumerate()
            .map(
                |(i, &(at, session, turn, tokens, prior, out))| RequestSpec {
                    id: i as u64,
                    arrival: SimTime::from_nanos(at),
                    session,
                    turn,
                    content: ContentSpec::single(session, tokens),
                    prior_context: prior,
                    output_tokens: out,
                },
            )
            .collect();
        let spike = FaultPlan::single(
            FaultKind::KernelLatencySpike {
                mult: 20.0,
                duration: SimDuration::from_secs(300.0),
            },
            SimTime::from_secs(200.0),
            SimTime::from_secs(500.0),
        );
        let mut engine = MuxWise::new(&model, &cluster, 8, slo, est8b(), MuxWiseConfig::default());
        let rep = Driver::new(GpuSim::from_cluster(&cluster), reqs, slo)
            .with_faults(spike)
            .run(&mut engine);
        assert_eq!(rep.finished, rep.total);
        assert_eq!(rep.counters.leaked_leases, 0);
    }

    #[test]
    fn utilization_is_reported() {
        let est = est8b();
        let (rep, _) = run(
            WorkloadKind::ShareGpt,
            80,
            8.0,
            MuxWiseConfig::default(),
            &est,
        );
        assert!(rep.utilization > 0.05, "util {}", rep.utilization);
        assert!(rep.utilization <= 1.0);
    }
}
