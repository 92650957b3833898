#![warn(missing_docs)]
//! KV-cache management: paged pool, radix-tree prefix reuse, LRU eviction.
//!
//! LLM serving systems keep the attention keys/values of processed tokens
//! in a **KV-cache pool** so they are computed once and reused — both
//! within a request (prefill → decode) and across requests (multi-turn
//! sessions, shared system prompts). SGLang organizes the pool as a radix
//! tree over token sequences; this crate reproduces that design at block
//! granularity:
//!
//! * Token content is identified by [`Block`]s — fixed-size runs of tokens
//!   with a content hash. Two requests share a KV prefix exactly when
//!   their block sequences share a prefix, so real token ids never need to
//!   be materialized (the workload crate derives block hashes from session
//!   streams).
//! * [`KvPool::match_prefix`] finds the longest cached prefix (the
//!   *reused length* `r` of the paper), [`KvPool::insert`] commits a
//!   finished request's context for future turns, and unreferenced
//!   entries are evicted **least-recently-used** when space is needed —
//!   the policy of Fig. 5.
//! * Requests additionally hold *private* (unshared) pool space for the
//!   KV entries they generate while running
//!   ([`KvPool::try_alloc_private`]); admission fails when the pool is
//!   exhausted, which is how a too-small pool turns into recomputation
//!   and stalls (the disaggregation drawback of §2.3.1).
//!
//! # Examples
//!
//! ```
//! use kvcache::{Block, KvPool};
//! use simcore::SimTime;
//!
//! let mut pool = KvPool::new(1 << 20, 64);
//! let ctx = Block::sequence(7, 1000, 64); // session 7, 1000 tokens
//! pool.insert(&ctx, SimTime::ZERO);
//! let m = pool.match_prefix(&ctx, SimTime::from_secs(1.0));
//! assert_eq!(m.matched_tokens, 1000);
//! ```

#[cfg(test)]
mod model_tests;
pub mod pool;
pub mod radix;
pub mod tiered;

pub use pool::{KvPool, MatchOutcome, PoolStats};
pub use radix::Block;
pub use tiered::{TieredMatch, TieredPool};
