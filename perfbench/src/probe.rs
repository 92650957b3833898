//! Outside-in instrumentation for the traced run: spans recorded around
//! calls into the program, a counting [`Scheduler`] wrapper and a timed
//! [`RoutePolicy`] wrapper.
//!
//! Nothing here changes what the simulator computes. The scheduler
//! wrapper forwards every trait method, the defaulted ones included, and
//! only counts; the route wrapper forwards `pick` and reads the clock
//! around it. The benchmark asserts that a traced replay's reports equal
//! the untraced replay's.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use fleet::{Decision, InstanceSignals, RoutePolicy};
use gpusim::{CtxId, GroupId};
use serving::{CrashVictim, EngineCounters, FaultKind, LeaseTable, ReqId, Scheduler, ServeCtx};
use workload::RequestSpec;

use crate::host::Clock;

/// One timed interval around a call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `fleet.route`.
    pub name: &'static str,
    /// Host seconds since the replay's clock started.
    pub start: f64,
    /// Host seconds since the replay's clock started.
    pub end: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// Call count, total time and self time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed span durations, host seconds.
    pub total_s: f64,
    /// Summed durations minus the time their child spans cover.
    pub self_s: f64,
}

/// In-memory span store of one traced replay.
#[derive(Debug)]
pub struct Spans {
    clock: Clock,
    list: Vec<Span>,
}

impl Spans {
    /// An empty store whose timestamps count from `clock`'s start.
    pub fn new(clock: Clock) -> Spans {
        Spans {
            clock,
            list: Vec::new(),
        }
    }

    /// The store's clock, for wrappers that time their own intervals.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Opens a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let t = self.clock.secs();
        self.push(name, t, t, parent)
    }

    /// Closes a span opened with [`Spans::open`] now.
    pub fn close(&mut self, id: usize) {
        self.list[id].end = self.clock.secs();
    }

    /// Records an interval measured elsewhere.
    pub fn push(
        &mut self,
        name: &'static str,
        start: f64,
        end: f64,
        parent: Option<usize>,
    ) -> usize {
        self.list.push(Span {
            name,
            start,
            end,
            parent,
        });
        self.list.len() - 1
    }

    /// Duration of one span, host seconds.
    pub fn duration(&self, id: usize) -> f64 {
        self.list[id].end - self.list[id].start
    }

    /// Durations of every span with `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Calls, total time and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_time = vec![0.0f64; self.list.len()];
        for s in &self.list {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.list.iter().zip(&child_time) {
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_s += s.end - s.start;
            e.self_s += s.end - s.start - child;
        }
        out
    }
}

/// Names of the 16 [`Scheduler`] methods, in declaration order; the
/// per-layer metrics are `engine.hooks.<name>`.
pub const HOOKS: [&str; 16] = [
    "on_start",
    "on_arrival",
    "on_kernel_done",
    "on_transfer_done",
    "on_timer",
    "groups",
    "streams",
    "counters",
    "lease_tables",
    "lease_tables_mut",
    "on_fault",
    "on_shed",
    "on_gpu_lost",
    "on_gpu_recovered",
    "decode_iter_stats",
    "set_macro_steps",
];

/// Hook counts and decode telemetry summed over every wrapped engine of
/// one replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HookTotals {
    /// Calls per hook, indexed like [`HOOKS`].
    pub calls: [u64; 16],
    /// Decode iterations (`decode_iter_stats().0`).
    pub decode_iters: u64,
    /// Macro-coalesced decode iterations (`decode_iter_stats().1`).
    pub coalesced_iters: u64,
}

/// A [`Scheduler`] that forwards every method to the engine it wraps and
/// counts the calls. Counts live in the wrapper (`Cell`s, so the `&self`
/// methods count too) and are published into the shared totals when the
/// wrapper drops, so the hot path pays one increment per call and no
/// lock.
pub struct CountingScheduler {
    inner: Box<dyn Scheduler>,
    calls: [Cell<u64>; 16],
    sink: Arc<Mutex<HookTotals>>,
}

impl CountingScheduler {
    /// Wraps `inner`; counts land in `sink` when the wrapper drops.
    pub fn new(inner: Box<dyn Scheduler>, sink: Arc<Mutex<HookTotals>>) -> CountingScheduler {
        CountingScheduler {
            inner,
            calls: Default::default(),
            sink,
        }
    }

    fn hit(&self, hook: usize) {
        self.calls[hook].set(self.calls[hook].get() + 1);
    }
}

impl Drop for CountingScheduler {
    fn drop(&mut self) {
        let (iters, coalesced) = self.inner.decode_iter_stats();
        // A poisoned lock means another wrapper panicked mid-publish;
        // the run is failing anyway, so skip rather than panic in drop.
        if let Ok(mut totals) = self.sink.lock() {
            for (t, c) in totals.calls.iter_mut().zip(&self.calls) {
                *t += c.get();
            }
            totals.decode_iters += iters;
            totals.coalesced_iters += coalesced;
        }
    }
}

impl Scheduler for CountingScheduler {
    fn on_start(&mut self, ctx: &mut ServeCtx) {
        self.hit(0);
        self.inner.on_start(ctx)
    }
    fn on_arrival(&mut self, id: ReqId, ctx: &mut ServeCtx) {
        self.hit(1);
        self.inner.on_arrival(id, ctx)
    }
    fn on_kernel_done(&mut self, tag: u64, ctx: &mut ServeCtx) {
        self.hit(2);
        self.inner.on_kernel_done(tag, ctx)
    }
    fn on_transfer_done(&mut self, tag: u64, ctx: &mut ServeCtx) {
        self.hit(3);
        self.inner.on_transfer_done(tag, ctx)
    }
    fn on_timer(&mut self, tag: u64, ctx: &mut ServeCtx) {
        self.hit(4);
        self.inner.on_timer(tag, ctx)
    }
    fn groups(&self) -> Vec<GroupId> {
        self.hit(5);
        self.inner.groups()
    }
    fn streams(&self) -> Vec<(GroupId, CtxId)> {
        self.hit(6);
        self.inner.streams()
    }
    fn counters(&self) -> EngineCounters {
        self.hit(7);
        self.inner.counters()
    }
    fn lease_tables(&self) -> Vec<&LeaseTable> {
        self.hit(8);
        self.inner.lease_tables()
    }
    fn lease_tables_mut(&mut self) -> Vec<&mut LeaseTable> {
        self.hit(9);
        self.inner.lease_tables_mut()
    }
    fn on_fault(&mut self, active: &[FaultKind], ctx: &mut ServeCtx) {
        self.hit(10);
        self.inner.on_fault(active, ctx)
    }
    fn on_shed(&mut self, id: ReqId, ctx: &mut ServeCtx) -> bool {
        self.hit(11);
        self.inner.on_shed(id, ctx)
    }
    fn on_gpu_lost(&mut self, gpu: u32, cancelled: &[u64], ctx: &mut ServeCtx) -> Vec<CrashVictim> {
        self.hit(12);
        self.inner.on_gpu_lost(gpu, cancelled, ctx)
    }
    fn on_gpu_recovered(&mut self, gpu: u32, ctx: &mut ServeCtx) {
        self.hit(13);
        self.inner.on_gpu_recovered(gpu, ctx)
    }
    fn decode_iter_stats(&self) -> (u64, u64) {
        self.hit(14);
        self.inner.decode_iter_stats()
    }
    fn set_macro_steps(&mut self, on: bool) {
        self.hit(15);
        self.inner.set_macro_steps(on)
    }
}

/// A [`RoutePolicy`] that forwards `pick` to the policy it wraps and
/// times it from outside.
///
/// Each pick is one `fleet.route` interval. The host time from the end
/// of one pick to the start of the next is one `fleet.barrier` interval:
/// stepping every member to the next arrival, collecting router signals
/// and running the fault-tolerance tiers. The wrapper also counts, per
/// pick, the members whose signal shows a cached prefix of the request.
pub struct TimedPolicy<P> {
    inner: P,
    clock: Clock,
    last_end: Option<f64>,
    /// `(start, end)` of every pick, host seconds.
    pub route: Vec<(f64, f64)>,
    /// `(start, end)` of every gap between consecutive picks.
    pub barrier: Vec<(f64, f64)>,
    /// Members probed with `prefix_hit_tokens > 0`, summed over picks.
    pub holders: u64,
    /// Members probed, summed over picks.
    pub probed: u64,
}

impl<P: RoutePolicy> TimedPolicy<P> {
    /// Wraps `inner`, timing against `clock`.
    pub fn new(inner: P, clock: Clock) -> TimedPolicy<P> {
        TimedPolicy {
            inner,
            clock,
            last_end: None,
            route: Vec::new(),
            barrier: Vec::new(),
            holders: 0,
            probed: 0,
        }
    }
}

impl<P: RoutePolicy> RoutePolicy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pick(&mut self, spec: &RequestSpec, signals: &[InstanceSignals]) -> Decision {
        let start = self.clock.secs();
        let decision = self.inner.pick(spec, signals);
        let end = self.clock.secs();
        if let Some(prev) = self.last_end {
            self.barrier.push((prev, start));
        }
        self.route.push((start, end));
        // Counted outside both intervals: the count is the benchmark's
        // own work, not the router's or the barrier's.
        self.holders += signals.iter().filter(|s| s.prefix_hit_tokens > 0).count() as u64;
        self.probed += signals.len() as u64;
        self.last_end = Some(self.clock.secs());
        decision
    }
}
