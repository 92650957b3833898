//! The contention guard: worst-case decode slowdown per configuration
//! grid cell (§3.3.2).

use std::collections::HashMap;

use gpusim::{ClusterSpec, GpuSim, GroupId};
use modelspec::{ModelSpec, Parallelism, SeqState};
use simcore::SimTime;

/// The five grid dimensions of a contention lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardQuery {
    /// New tokens in the co-running prefill batch.
    pub prefill_new: u64,
    /// Reused tokens in the co-running prefill batch.
    pub prefill_reused: u64,
    /// Decode batch size.
    pub decode_batch: usize,
    /// Average per-request reused context in the decode batch.
    pub decode_context: u64,
    /// SMs allocated to decode.
    pub decode_sms: u32,
}

/// A query's grid cell without its SM dimension: the bucketed
/// prefill new / reused tokens, decode batch and decode context.
pub type GuardRow = (u8, u8, u8, u8);

type CellKey = (u8, u8, u8, u8, u32);

impl GuardQuery {
    /// The query's grid cell without its SM dimension. Queries that
    /// differ only in `decode_sms` share it, so a dispatcher scoring
    /// every partition for one batch can key a memo of their factors
    /// on it together with [`ContentionGuard::generation`].
    pub fn row(&self) -> GuardRow {
        (
            token_bucket(self.prefill_new),
            token_bucket(self.prefill_reused),
            batch_bucket(self.decode_batch),
            token_bucket(self.decode_context),
        )
    }
}

/// One populated guard-grid cell in exported form: bucketed query key
/// plus its worst observed slowdown.
pub type GuardCell = (CellKey, f64);

/// Powers-of-4 token buckets from 2 K to 128 K (§3.3.2's sampling grid).
fn token_bucket(tokens: u64) -> u8 {
    match tokens {
        0..=2_047 => 0,
        2_048..=8_191 => 1,
        8_192..=32_767 => 2,
        32_768..=131_071 => 3,
        _ => 4,
    }
}

/// Batch-size buckets (log₂-spaced, covering the framework's captured
/// batch sizes): `round(log₂ bs)`, in integers. The floor `k` of
/// `log₂ bs` rounds up when `bs ≥ 2^(k+½)`, i.e. `bs² ≥ 2^(2k+1)`; an
/// integer square is never an odd power of two, so there is no tie.
fn batch_bucket(bs: usize) -> u8 {
    let bs = bs.max(1) as u128;
    let k = 127 - bs.leading_zeros();
    (k + u32::from(bs * bs >= 1 << (2 * k + 1))) as u8
}

/// Worst-case decode slowdown factors, indexed by the coarse grid.
///
/// Cells hold the **max** slowdown observed — by offline grid profiling
/// ([`ContentionGuard::profile`]) and refined online
/// ([`ContentionGuard::observe`]). Queries for unvisited cells return
/// the global max, which is conservative but safe (§3.3.2 notes the
/// global max stays ≤ ~20 % on A100 / ~30 % on H100).
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionGuard {
    cells: HashMap<CellKey, f64>,
    global_max: f64,
    /// Bumped whenever some query's [`ContentionGuard::factor`] may
    /// change; see [`ContentionGuard::generation`].
    generation: u64,
}

impl ContentionGuard {
    /// An empty guard that answers every query with `floor` (used when
    /// profiling is disabled in ablations).
    pub fn flat(floor: f64) -> ContentionGuard {
        ContentionGuard {
            cells: HashMap::new(),
            global_max: floor.max(1.0),
            generation: 0,
        }
    }

    /// Offline grid profiling: co-runs decode×prefill pairs across the
    /// powers-of-4 token grid, a batch-size subset, and each decode
    /// partition, recording the max slowdown per cell. The paper's ~7 K
    /// hardware samples take ~12 hours; the same sweep against the
    /// simulator takes well under a second.
    ///
    /// # Panics
    ///
    /// Panics if `decode_partitions` is empty.
    pub fn profile(
        model: &ModelSpec,
        cluster: &ClusterSpec,
        par: &Parallelism,
        decode_partitions: &[u32],
    ) -> ContentionGuard {
        assert!(!decode_partitions.is_empty());
        const TOKENS: [u64; 4] = [2_048, 8_192, 32_768, 131_072];
        const BATCHES: [usize; 5] = [1, 8, 32, 128, 256];
        let mut guard = ContentionGuard::flat(1.0);
        for &sms in decode_partitions {
            let prefill_sms = cluster.gpu.sm_count - sms;
            if prefill_sms == 0 {
                continue;
            }
            for &p_new in &TOKENS {
                for &p_reused in &TOKENS {
                    // §3.3.2 excludes 128K new + 128K reused (exceeds the
                    // context window).
                    if p_new + p_reused > model.max_context {
                        continue;
                    }
                    for &bs in &BATCHES {
                        for &d_ctx in &TOKENS {
                            let q = GuardQuery {
                                prefill_new: p_new,
                                prefill_reused: p_reused,
                                decode_batch: bs,
                                decode_context: d_ctx,
                                decode_sms: sms,
                            };
                            let slow =
                                measure_decode_corun_slowdown(model, cluster, par, &q, prefill_sms);
                            guard.observe(&q, slow);
                        }
                    }
                }
            }
        }
        guard
    }

    /// The worst-case slowdown factor (≥ 1) for the query's grid cell;
    /// the global max for unvisited cells.
    pub fn factor(&self, q: &GuardQuery) -> f64 {
        self.cells
            .get(&Self::key(q))
            .copied()
            .unwrap_or(self.global_max)
    }

    /// Records a measured slowdown (offline profiling or online
    /// refinement from production executions). Cells keep their max.
    pub fn observe(&mut self, q: &GuardQuery, slowdown: f64) {
        let s = slowdown.max(1.0);
        // A new cell is below every `s` (≥ 1), so it is always written.
        // Raising the global max always creates or raises this cell, so
        // the cell write is the only change a factor can see.
        let cell = self.cells.entry(Self::key(q)).or_insert(0.0);
        if s > *cell {
            *cell = s;
            self.generation += 1;
        }
        self.global_max = self.global_max.max(s);
    }

    /// Discards every profiled cell, keeping the global max so queries
    /// stay conservative until online refinement repopulates the grid.
    /// Used when the hardware changed underneath the offline profile
    /// (degradation/fault windows): the per-cell numbers are stale, but
    /// the worst case ever seen remains a safe upper bound.
    pub fn invalidate(&mut self) {
        self.cells.clear();
        self.generation += 1;
    }

    /// A counter that changes whenever any [`ContentionGuard::factor`]
    /// answer may change: when [`ContentionGuard::observe`] creates or
    /// raises a cell (an observation that raises the global max always
    /// does one of the two), and on every
    /// [`ContentionGuard::invalidate`]. Between two equal readings every
    /// query answers the same, so callers may memoize factors keyed on
    /// it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The largest slowdown ever observed.
    pub fn max_slowdown(&self) -> f64 {
        self.global_max
    }

    /// Number of populated grid cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Exports the populated cells (for persistence).
    pub fn export_cells(&self) -> Vec<GuardCell> {
        let mut v: Vec<_> = self.cells.iter().map(|(&k, &s)| (k, s)).collect();
        v.sort_by_key(|a| a.0);
        v
    }

    /// Rebuilds a guard from exported cells.
    pub fn from_cells(cells: Vec<GuardCell>) -> ContentionGuard {
        let mut g = ContentionGuard::flat(1.0);
        let mut global = 1.0f64;
        for (k, s) in cells {
            g.cells.insert(k, s.max(1.0));
            global = global.max(s);
        }
        g.global_max = global;
        g
    }

    fn key(q: &GuardQuery) -> CellKey {
        let (new, reused, batch, context) = q.row();
        (new, reused, batch, context, q.decode_sms)
    }
}

/// Measures the decode slowdown of one co-run configuration on a fresh
/// simulator: decode on `q.decode_sms` SMs next to a prefill batch on
/// `prefill_sms` SMs, versus the decode's solo run. This is exactly the
/// observation a physical profiling run would make.
pub fn measure_decode_corun_slowdown(
    model: &ModelSpec,
    cluster: &ClusterSpec,
    par: &Parallelism,
    q: &GuardQuery,
    prefill_sms: u32,
) -> f64 {
    let mut sim = GpuSim::from_cluster(cluster);
    let group = sim.create_group((0..cluster.num_gpus).collect());
    let d_ctx = sim.set_context(group, q.decode_sms);
    let p_ctx = sim.set_context(group, prefill_sms);

    let decode_work = model.decode_iter_work(&vec![q.decode_context; q.decode_batch], par);
    let solo = sim.solo_duration(q.decode_sms, &decode_work);

    // A prefill long enough to cover the decode iteration completely.
    let prefill_batch = [SeqState::new(q.prefill_new, q.prefill_reused)];
    let mut prefill_work = model.prefill_full_work(&prefill_batch, par);
    let min_cover = solo * 4.0;
    let one_pass = sim.solo_duration(prefill_sms, &prefill_work);
    if one_pass < min_cover {
        prefill_work = prefill_work.scaled((min_cover / one_pass).ceil());
    }

    let start = SimTime::from_secs(0.001);
    sim.submit(group, p_ctx, prefill_work, start, 1);
    sim.submit(group, d_ctx, decode_work, start, 2);
    let finish = run_until_tag(&mut sim, group, 2);
    let corun = (finish - start).as_secs();
    (corun / solo).max(1.0)
}

fn run_until_tag(sim: &mut GpuSim, _group: GroupId, tag: u64) -> SimTime {
    loop {
        let t = sim
            .next_event_time()
            .expect("kernel must eventually finish");
        sim.advance_to(t);
        if sim.drain_completed().iter().any(|&(_, t)| t == tag) {
            return sim.now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard() -> (ModelSpec, ClusterSpec, Parallelism, ContentionGuard) {
        let cluster = ClusterSpec::dgx_a100();
        let model = ModelSpec::llama70b();
        let par = Parallelism::tp(8, cluster.nvlink_gbs);
        let g = ContentionGuard::profile(&model, &cluster, &par, &[16, 48, 96]);
        (model, cluster, par, g)
    }

    #[test]
    fn profiled_guard_bounds_match_paper_range() {
        let (_, _, _, g) = guard();
        let max = g.max_slowdown();
        assert!(max > 1.02, "some contention must be observed, got {max}");
        assert!(max < 1.45, "slowdown cap blown: {max}");
        assert!(g.num_cells() > 100, "grid too sparse: {}", g.num_cells());
    }

    #[test]
    fn factor_is_conservative_for_unvisited_cells() {
        let mut g = ContentionGuard::flat(1.0);
        g.observe(
            &GuardQuery {
                prefill_new: 2048,
                prefill_reused: 2048,
                decode_batch: 8,
                decode_context: 2048,
                decode_sms: 16,
            },
            1.25,
        );
        // A totally different cell answers with the global max.
        let other = GuardQuery {
            prefill_new: 131_072,
            prefill_reused: 0,
            decode_batch: 128,
            decode_context: 131_072,
            decode_sms: 96,
        };
        assert_eq!(g.factor(&other), 1.25);
    }

    #[test]
    fn observe_keeps_cell_max() {
        let mut g = ContentionGuard::flat(1.0);
        let q = GuardQuery {
            prefill_new: 4000,
            prefill_reused: 4000,
            decode_batch: 32,
            decode_context: 4000,
            decode_sms: 32,
        };
        g.observe(&q, 1.1);
        g.observe(&q, 1.3);
        g.observe(&q, 1.05);
        assert_eq!(g.factor(&q), 1.3);
        // Sub-1.0 observations clamp to 1.0 and never lower a cell.
        g.observe(&q, 0.5);
        assert_eq!(g.factor(&q), 1.3);
    }

    #[test]
    fn generation_tracks_every_change_a_factor_can_see() {
        let q = GuardQuery {
            prefill_new: 4000,
            prefill_reused: 0,
            decode_batch: 8,
            decode_context: 4000,
            decode_sms: 16,
        };
        let other = GuardQuery {
            decode_sms: 48,
            ..q
        };
        let mut g = ContentionGuard::flat(1.0);
        let mut last = g.generation();
        let mut bumped = |g: &ContentionGuard| {
            let b = g.generation() != last;
            last = g.generation();
            b
        };
        // A new cell bumps even at the floor value.
        g.observe(&q, 1.0);
        assert!(bumped(&g), "new cell");
        // A raised cell that also raises the global max.
        g.observe(&q, 1.3);
        assert!(bumped(&g), "raised cell and global max");
        assert_eq!(g.max_slowdown(), 1.3);
        // A new cell below the global max.
        g.observe(&other, 1.1);
        assert!(bumped(&g), "new cell below the global max");
        // A raised cell that stays below the global max.
        g.observe(&other, 1.2);
        assert!(bumped(&g), "raised cell");
        assert_eq!(g.max_slowdown(), 1.3, "the global max did not move");
        // Observations that change nothing: equal, lower, sub-1.0.
        for s in [1.2, 1.15, 0.5] {
            g.observe(&other, s);
            assert!(!bumped(&g), "no-op observation {s} bumped");
        }
        g.invalidate();
        assert!(bumped(&g), "invalidate");
        assert_eq!(g.factor(&q), 1.3, "cleared cells answer the global max");
        // `invalidate` bumps even on an already-empty grid.
        g.invalidate();
        assert!(bumped(&g));
    }

    #[test]
    fn row_is_the_cell_without_the_sm_dimension() {
        let q = GuardQuery {
            prefill_new: 9_000,
            prefill_reused: 100,
            decode_batch: 32,
            decode_context: 40_000,
            decode_sms: 16,
        };
        assert_eq!(q.row(), (2, 0, 5, 3));
        assert_eq!(
            GuardQuery {
                decode_sms: 96,
                ..q
            }
            .row(),
            q.row()
        );
        let (a, b, c, d) = q.row();
        assert_eq!(ContentionGuard::key(&q), (a, b, c, d, 16));
    }

    #[test]
    fn guard_covers_ground_truth_on_fresh_samples() {
        // The whole point: predicted worst case ≥ actual co-run latency
        // for configurations *near* profiled cells.
        let (model, cluster, par, g) = guard();
        let mut rng = simcore::SimRng::seed_from(7);
        for _ in 0..40 {
            let q = GuardQuery {
                prefill_new: 2048 + rng.next_range(60_000),
                prefill_reused: rng.next_range(60_000),
                decode_batch: 1 + rng.next_range(128) as usize,
                decode_context: 2048 + rng.next_range(100_000),
                decode_sms: *rng.choose(&[16u32, 48, 96]).unwrap(),
            };
            let actual = measure_decode_corun_slowdown(
                &model,
                &cluster,
                &par,
                &q,
                cluster.gpu.sm_count - q.decode_sms,
            );
            let bound = g.factor(&q);
            assert!(
                bound >= actual - 0.05,
                "guard {bound} under-covers actual {actual} for {q:?}"
            );
        }
    }

    #[test]
    fn buckets_partition_the_range() {
        assert_eq!(token_bucket(0), 0);
        assert_eq!(token_bucket(2_047), 0);
        assert_eq!(token_bucket(2_048), 1);
        assert_eq!(token_bucket(8_192), 2);
        assert_eq!(token_bucket(32_768), 3);
        assert_eq!(token_bucket(200_000), 4);
        assert_eq!(batch_bucket(1), 0);
        assert_eq!(batch_bucket(32), 5);
    }

    #[test]
    fn batch_bucket_is_rounded_log2() {
        assert_eq!(batch_bucket(0), 0);
        for bs in 1..=1usize << 22 {
            let float = (bs as f64).log2().round() as u8;
            assert_eq!(batch_bucket(bs), float, "batch {bs}");
        }
    }
}
