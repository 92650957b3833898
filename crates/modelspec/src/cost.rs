//! FLOP / byte / communication cost of prefill and decode phases.
//!
//! Implements the complexity analysis of Table 2 in the paper, per
//! transformer layer, and aggregates it into [`WorkItem`]s the GPU
//! simulator executes.

use gpusim::{KernelKind, WorkItem};

use crate::spec::ModelSpec;

/// The sequence-length state of one request inside a batch.
///
/// `new_tokens` is `n` (tokens whose KV entries must be computed);
/// `reused_tokens` is `r` (tokens whose KV entries are read from the
/// cache). The total context is `L = n + r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeqState {
    /// Tokens processed in this pass.
    pub new_tokens: u64,
    /// Cached context tokens (from previous turns or earlier chunks).
    pub reused_tokens: u64,
}

impl SeqState {
    /// Creates a sequence state.
    pub fn new(new_tokens: u64, reused_tokens: u64) -> SeqState {
        SeqState {
            new_tokens,
            reused_tokens,
        }
    }

    /// Total context length `L = n + r`.
    pub fn total(&self) -> u64 {
        self.new_tokens + self.reused_tokens
    }
}

/// Model-parallel execution configuration.
///
/// # Examples
///
/// ```
/// use modelspec::Parallelism;
/// let p = Parallelism::tp(8, 600.0);
/// assert_eq!(p.degree(), 8);
/// let esp = Parallelism::tp_sp(4, 2, 600.0); // LoongServe-style
/// assert_eq!(esp.degree(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Parallelism {
    /// Tensor-parallel degree.
    pub tp: u32,
    /// Sequence-parallel degree (elastic sequence parallelism; 1 = none).
    pub sp: u32,
    /// Per-GPU NVLink bandwidth, GB/s.
    pub nvlink_gbs: f64,
    /// Per-collective latency, seconds.
    pub nvlink_latency: f64,
}

impl Parallelism {
    /// Pure tensor parallelism over `tp` GPUs.
    ///
    /// # Panics
    ///
    /// Panics if `tp` is zero.
    pub fn tp(tp: u32, nvlink_gbs: f64) -> Parallelism {
        assert!(tp > 0);
        Parallelism {
            tp,
            sp: 1,
            nvlink_gbs,
            nvlink_latency: 5e-6,
        }
    }

    /// Tensor parallelism within `tp`-GPU groups, sequence parallelism
    /// across `sp` groups (LoongServe's configuration).
    ///
    /// # Panics
    ///
    /// Panics if either degree is zero.
    pub fn tp_sp(tp: u32, sp: u32, nvlink_gbs: f64) -> Parallelism {
        assert!(tp > 0 && sp > 0);
        Parallelism {
            tp,
            sp,
            nvlink_gbs,
            nvlink_latency: 5e-6,
        }
    }

    /// Total GPUs participating.
    pub fn degree(&self) -> u32 {
        self.tp * self.sp
    }
}

/// Relative cost of sequence-parallel attention communication (ring
/// exchange of K/V between groups), as a multiplier on per-layer comm.
const SP_COMM_FACTOR: f64 = 1.5;

/// Hidden-state activation traffic per token per layer, in multiples of
/// `hidden × dtype_bytes` (reads + writes around each of attention and
/// FFN).
const ACTIVATION_FACTOR: f64 = 8.0;

impl ModelSpec {
    /// Work of **one transformer layer** of prefill for `batch`, per GPU
    /// of a [`Parallelism::degree`]-GPU group.
    ///
    /// Attention FLOPs follow Table 2's "prefill w/ cache" row:
    /// `O(n·d² + L·n·d)`. Bytes cover the layer's weights, reading the
    /// reused KV prefix, writing the new KV entries, and activation
    /// traffic.
    pub fn prefill_layer_work(&self, batch: &[SeqState], par: &Parallelism) -> WorkItem {
        let shard = par.degree() as f64;
        let d = self.hidden as f64;
        let attn_dim = self.attn_dim() as f64;
        let mut flops = 0.0;
        let mut kv_read = 0.0;
        let mut kv_write = 0.0;
        let mut tokens = 0.0;
        for s in batch {
            let n = s.new_tokens as f64;
            let r = s.reused_tokens as f64;
            // Projections + FFN: 2 FLOPs per weight per token.
            flops += 2.0
                * n
                * (self.attn_params_per_layer() + self.ffn_active_params_per_layer()) as f64;
            // Attention scores + values: each new token j attends to
            // r + j + 1 positions; QKᵀ and AV each cost 2·attn_dim per
            // position.
            flops += 4.0 * attn_dim * (n * r + n * (n + 1.0) / 2.0);
            kv_read += r * self.kv_bytes_per_token_layer();
            kv_write += n * self.kv_bytes_per_token_layer();
            tokens += n;
        }
        // Prefill touches effectively all FFN weights (MoE routes many
        // tokens); the whole layer's weights stream through once.
        let weight_bytes =
            (self.attn_params_per_layer() + self.ffn_params_per_layer()) as f64 * self.dtype_bytes;
        let act_bytes = ACTIVATION_FACTOR * tokens * d * self.dtype_bytes;
        let bytes = weight_bytes + kv_read + kv_write + act_bytes;
        let fixed = self.layer_comm_secs(tokens, par);
        WorkItem::new(KernelKind::Prefill, flops / shard, bytes / shard, fixed)
    }

    /// Work of the **full prefill phase** (all layers + LM head) for
    /// `batch`, per GPU.
    pub fn prefill_full_work(&self, batch: &[SeqState], par: &Parallelism) -> WorkItem {
        let layer = self.prefill_layer_work(batch, par);
        layer
            .scaled(self.num_layers as f64)
            .plus(&self.lm_head_work(batch.len() as f64, par))
    }

    /// Work of **one decode iteration** (all layers + LM head) for a
    /// batch whose sequences have the given context lengths (reused `r`;
    /// each generates one token), per GPU.
    ///
    /// Table 2's decode row: `O(d² + (r+1)·d)` FLOPs per sequence per
    /// layer; bytes are dominated by streaming the weights once per
    /// iteration plus each sequence's KV cache.
    // simlint: hot
    pub fn decode_iter_work(&self, context_lens: &[u64], par: &Parallelism) -> WorkItem {
        let shard = par.degree() as f64;
        let bs = context_lens.len() as f64;
        let attn_dim = self.attn_dim() as f64;
        let d = self.hidden as f64;
        // Per-sequence invariants, hoisted out of the batch loop.
        let seq_flops =
            2.0 * (self.attn_params_per_layer() + self.ffn_active_params_per_layer()) as f64;
        let kv_token = self.kv_bytes_per_token_layer();
        let mut flops_layer = 0.0;
        let mut kv_read_layer = 0.0;
        for &r in context_lens {
            let r = r as f64;
            flops_layer += seq_flops;
            flops_layer += 4.0 * attn_dim * (r + 1.0);
            kv_read_layer += (r + 1.0) * kv_token;
        }
        let kv_write_layer = bs * kv_token;
        // Weights streamed once per iteration; MoE decode touches only
        // the experts its batch routes to.
        let ffn_weight = match self.moe {
            Some(moe) => {
                let touched = (bs * moe.top_k as f64).min(moe.num_experts as f64);
                self.ffn_params_per_layer() as f64 * touched / moe.num_experts as f64
            }
            None => self.ffn_params_per_layer() as f64,
        };
        let weight_bytes_layer =
            (self.attn_params_per_layer() as f64 + ffn_weight) * self.dtype_bytes;
        let act_bytes_layer = ACTIVATION_FACTOR * bs * d * self.dtype_bytes;
        let bytes_layer = weight_bytes_layer + kv_read_layer + kv_write_layer + act_bytes_layer;
        let fixed_layer = self.layer_comm_secs(bs, par);
        let layers = self.num_layers as f64;
        let body = WorkItem::new(
            KernelKind::Decode,
            flops_layer * layers / shard,
            bytes_layer * layers / shard,
            fixed_layer * layers,
        );
        body.plus(&self.lm_head_work(bs, par))
    }

    /// LM-head (and final norm) cost for `tokens` output positions —
    /// exposed so layer-wise schedulers can fold it into the final layer
    /// launch.
    pub fn lm_head_work(&self, tokens: f64, par: &Parallelism) -> WorkItem {
        let shard = par.degree() as f64;
        let flops = 2.0 * tokens * self.hidden as f64 * self.vocab as f64;
        let bytes = self.vocab as f64 * self.hidden as f64 * self.dtype_bytes;
        WorkItem::new(KernelKind::Other, flops / shard, bytes / shard, 0.0)
    }

    /// Per-layer collective-communication time: two ring all-reduces of
    /// the hidden states across `tp`, plus sequence-parallel K/V exchange
    /// when `sp > 1`.
    fn layer_comm_secs(&self, tokens: f64, par: &Parallelism) -> f64 {
        if par.degree() <= 1 {
            return 0.0;
        }
        let payload = tokens * self.hidden as f64 * self.dtype_bytes;
        let tp = par.tp as f64;
        let ring = 2.0 * (tp - 1.0) / tp * payload;
        let mut secs = 2.0 * (ring / (par.nvlink_gbs * 1e9) + par.nvlink_latency);
        if par.sp > 1 {
            secs *= SP_COMM_FACTOR;
        }
        secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn par8() -> Parallelism {
        Parallelism::tp(8, 600.0)
    }

    #[test]
    fn prefill_flops_scale_linearly_without_cache_growth() {
        // Table 2: prefill w/ cache attention is O(n·d² + L·n·d); doubling
        // n (r = 0) slightly more than doubles FLOPs (quadratic attention
        // term is small at these lengths).
        let m = ModelSpec::llama70b();
        let f1 = m
            .prefill_layer_work(&[SeqState::new(1024, 0)], &par8())
            .flops;
        let f2 = m
            .prefill_layer_work(&[SeqState::new(2048, 0)], &par8())
            .flops;
        assert!(f2 > 2.0 * f1 && f2 < 2.2 * f1, "f2/f1 = {}", f2 / f1);
    }

    #[test]
    fn reused_context_adds_linear_attention_flops() {
        let m = ModelSpec::llama70b();
        let base = m
            .prefill_layer_work(&[SeqState::new(2048, 0)], &par8())
            .flops;
        let with_cache = m
            .prefill_layer_work(&[SeqState::new(2048, 65536)], &par8())
            .flops;
        // Extra FLOPs = 4·attn_dim·n·r / shard.
        let expected = base + 4.0 * 8192.0 * 2048.0 * 65536.0 / 8.0;
        assert!((with_cache - expected).abs() / expected < 1e-6);
    }

    #[test]
    fn reused_context_adds_kv_read_bytes() {
        let m = ModelSpec::llama70b();
        let b0 = m
            .prefill_layer_work(&[SeqState::new(512, 0)], &par8())
            .bytes;
        let b1 = m
            .prefill_layer_work(&[SeqState::new(512, 10_000)], &par8())
            .bytes;
        let expected_extra = 10_000.0 * m.kv_bytes_per_token_layer() / 8.0;
        assert!(((b1 - b0) - expected_extra).abs() < 1.0);
    }

    #[test]
    fn decode_is_memory_bound_prefill_compute_bound() {
        // The central asymmetry: decode intensity (FLOPs/byte) far below
        // prefill's at realistic batch sizes.
        let m = ModelSpec::llama70b();
        let decode = m.decode_iter_work(&[1024; 32], &par8());
        let prefill = m.prefill_full_work(&[SeqState::new(2048, 0)], &par8());
        assert!(decode.intensity() < 100.0, "decode {}", decode.intensity());
        assert!(
            prefill.intensity() > 300.0,
            "prefill {}",
            prefill.intensity()
        );
    }

    #[test]
    fn decode_weight_streaming_dominates_small_batches() {
        let m = ModelSpec::llama70b();
        let w = m.decode_iter_work(&[512; 4], &par8());
        let per_gpu_weights = m.weight_bytes_per_gpu(8);
        assert!(
            w.bytes > 0.95 * per_gpu_weights && w.bytes < 1.3 * per_gpu_weights,
            "decode bytes {} vs weights {}",
            w.bytes,
            per_gpu_weights
        );
    }

    #[test]
    fn full_prefill_is_layers_times_layer_plus_head() {
        let m = ModelSpec::llama8b();
        let batch = [SeqState::new(1000, 500)];
        let layer = m.prefill_layer_work(&batch, &par8());
        let full = m.prefill_full_work(&batch, &par8());
        assert!(full.flops > 32.0 * layer.flops);
        assert!(full.flops < 32.5 * layer.flops);
    }

    #[test]
    fn moe_decode_reads_only_routed_experts() {
        let m = ModelSpec::qwen235b();
        let small = m.decode_iter_work(&[1024; 1], &Parallelism::tp(8, 900.0));
        let big = m.decode_iter_work(&[1024; 64], &Parallelism::tp(8, 900.0));
        // 1 request touches 8/128 experts; 64 requests touch up to all
        // 128 — weight traffic must grow strongly but sublinearly.
        assert!(big.bytes / small.bytes > 4.0);
        assert!(big.bytes / small.bytes < 64.0);
    }

    #[test]
    fn tp_divides_work_and_adds_comm() {
        let m = ModelSpec::llama70b();
        let batch = [SeqState::new(4096, 0)];
        let tp1 = m.prefill_layer_work(&batch, &Parallelism::tp(1, 600.0));
        let tp8 = m.prefill_layer_work(&batch, &par8());
        assert!((tp1.flops / tp8.flops - 8.0).abs() < 1e-9);
        assert_eq!(tp1.fixed_secs, 0.0);
        assert!(tp8.fixed_secs > 0.0);
    }

    #[test]
    fn sp_increases_comm_overhead() {
        let m = ModelSpec::llama70b();
        let batch = [SeqState::new(4096, 0)];
        let tp8 = m.prefill_layer_work(&batch, &par8());
        let esp = m.prefill_layer_work(&batch, &Parallelism::tp_sp(4, 2, 600.0));
        assert!(esp.fixed_secs > tp8.fixed_secs * 0.9);
        assert!((tp8.flops - esp.flops).abs() / tp8.flops < 1e-9);
    }

    #[test]
    fn empty_batches_cost_nothing_but_head() {
        let m = ModelSpec::llama8b();
        let w = m.prefill_layer_work(&[], &par8());
        assert_eq!(w.flops, 0.0 + 0.0);
        let d = m.decode_iter_work(&[], &par8());
        // LM head bytes remain (weights resident) but no per-seq work.
        assert!(d.flops >= 0.0);
    }
}
