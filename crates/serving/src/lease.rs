//! KV leases: structurally audited ownership of pool resources.
//!
//! Every serving engine holds KV-cache resources on behalf of running
//! requests — an eviction lock on the shared radix prefix plus a private
//! token allocation for freshly computed KV. Historically each engine
//! paired `pool.unlock(&lock)` / `pool.free_private(n)` by hand on every
//! exit path (retire, requeue, drop, migrate), and a missed pair was only
//! caught by manual audit. A [`KvLease`] bundles both halves and can only
//! be returned through its [`LeaseTable`], which counts outstanding
//! leases so the driver can detect leaks when a run ends.
//!
//! The table also owns crash revocation: [`LeaseTable::revoke`] releases
//! a fail-stop victim's lease and eviction-protects its cached prefix
//! until the victim's next [`LeaseTable::lease_prefix`], so no engine
//! keeps protection bookkeeping of its own.
//!
//! The table deliberately reproduces the exact pool-operation order of
//! the hand-written code paths it replaced (release = unlock → free,
//! retire = unlock → free → insert, migrate = insert → relock → unlock →
//! free), so porting an engine onto it changes no simulation outcome.

use std::collections::HashSet;

use kvcache::{Block, KvPool, MatchOutcome, PoolStats};
use simcore::SimTime;

use crate::request::ReqId;

/// The KV resources one request holds: an eviction lock on its cached
/// prefix plus the private tokens reserved for its new KV.
///
/// A lease is created by and must be returned to a [`LeaseTable`]; it
/// cannot be cloned or taken apart, so the unlock/free pair can never be
/// half-applied.
#[derive(Debug)]
#[must_use = "a KvLease must be returned to its LeaseTable"]
pub struct KvLease {
    lock: MatchOutcome,
    private: u64,
}

impl KvLease {
    /// Tokens of the request's prefix served from cache at lease time.
    pub fn matched_tokens(&self) -> u64 {
        self.lock.matched_tokens
    }

    /// Private pool tokens attributed to this lease.
    pub fn private_tokens(&self) -> u64 {
        self.private
    }

    /// Attributes `tokens` of already-reserved private pool space to this
    /// lease (the engine allocated them via
    /// [`LeaseTable::try_alloc_private`] — e.g. batch-wide decode growth
    /// split one token per slot, or a prefill allocation sized before the
    /// prefix lock was taken).
    pub fn absorb_private(&mut self, tokens: u64) {
        self.private += tokens;
    }
}

/// Owns an engine's [`KvPool`] and tracks every lease drawn from it.
///
/// All lock/unlock and private-allocation traffic goes through the
/// table; engines get read-only pool access via [`LeaseTable::pool`].
/// [`LeaseTable::outstanding`] is checked by the driver after the event
/// loop drains — a nonzero count on a fully-drained run is a leak.
#[derive(Debug)]
pub struct LeaseTable {
    pool: KvPool,
    outstanding: usize,
    /// Crash victims whose prefix [`LeaseTable::revoke`] protected; the
    /// protection comes off at their next [`LeaseTable::lease_prefix`].
    revoked: HashSet<ReqId>,
}

impl LeaseTable {
    /// Creates a table over a fresh pool of `capacity_tokens` tokens in
    /// blocks of `block_size`.
    pub fn new(capacity_tokens: u64, block_size: u32) -> LeaseTable {
        LeaseTable {
            pool: KvPool::new(capacity_tokens, block_size),
            outstanding: 0,
            revoked: HashSet::new(),
        }
    }

    /// Read-only access to the underlying pool (telemetry, invariant
    /// checks). Mutation is only possible through lease operations.
    pub fn pool(&self) -> &KvPool {
        &self.pool
    }

    /// The pool's block size in tokens.
    pub fn block_size(&self) -> u32 {
        self.pool.block_size()
    }

    /// Hit-rate statistics of the underlying pool.
    pub fn stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Number of leases currently held.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Current pool capacity in tokens.
    pub fn capacity_tokens(&self) -> u64 {
        self.pool.capacity_tokens()
    }

    /// Shrinks or restores the pool's capacity (fault injection: losing
    /// HBM headroom mid-run). Unlocked LRU entries are evicted toward the
    /// new limit; leased/private space survives as tolerated overcommit.
    pub fn set_capacity(&mut self, cap: u64, now: SimTime) {
        self.pool.set_capacity_tokens(cap, now);
    }

    /// Peeks at the longest cached prefix without locking or recording
    /// statistics.
    pub fn peek_prefix(&self, blocks: &[Block]) -> u64 {
        self.pool.peek_prefix(blocks)
    }

    /// Keys of every block ever inserted directly under the pool's
    /// radix root, in insertion order ([`KvPool::root_keys`]): the fleet
    /// reads the log's new tail to index which members may hold a
    /// request's first block.
    pub fn root_keys(&self) -> &[u64] {
        self.pool.root_keys()
    }

    /// The cached leading slice of `blocks` — the export half of
    /// hot-prefix KV replication. The returned stream is exactly what
    /// this table holds of the prefix, so importing it into another
    /// table via [`LeaseTable::insert`] mirrors real state rather than
    /// fabricating cache the origin never computed. Exporting never
    /// locks nodes or touches access times.
    pub fn export_prefix<'a>(&self, blocks: &'a [Block]) -> &'a [Block] {
        let n = self.pool.cached_prefix_blocks(blocks);
        &blocks[..n]
    }

    /// Reserves raw private pool space not (yet) attributed to a lease.
    /// Attribute it afterwards with [`KvLease::absorb_private`], or hold
    /// it raw for cross-queue handoff (e.g. a decode slot reserved while
    /// the prefill instance still computes the context).
    pub fn try_alloc_private(&mut self, tokens: u64, now: SimTime) -> bool {
        self.pool.try_alloc_private(tokens, now)
    }

    /// Returns raw private space reserved with
    /// [`LeaseTable::try_alloc_private`] that was never attributed to a
    /// lease.
    pub fn free_private(&mut self, tokens: u64) {
        self.pool.free_private(tokens);
    }

    /// Commits `blocks` to the shared cache (no lease involved).
    pub fn insert(&mut self, blocks: &[Block], now: SimTime) -> bool {
        self.pool.insert(blocks, now)
    }

    /// Revokes crash victim `id`: releases `lease` if it held one on this
    /// table, then eviction-protects the cached prefix of `blocks` (see
    /// [`KvPool::protect_prefix`]) so that LRU pressure — including a
    /// [`LeaseTable::set_capacity`] shrink before re-admission — takes an
    /// unprotected victim first and keeps the state the retry needs.
    /// The table remembers `id`; its next [`LeaseTable::lease_prefix`]
    /// lifts the protection.
    pub fn revoke(&mut self, id: ReqId, lease: Option<KvLease>, blocks: &[Block]) {
        if let Some(lease) = lease {
            self.release(lease);
        }
        self.pool.protect_prefix(blocks);
        self.revoked.insert(id);
    }

    /// Locks the longest cached prefix of `blocks` for request `id` and
    /// opens a lease for it (hit statistics recorded). The lease starts
    /// with zero private tokens; attribute the request's working
    /// allocation with [`KvLease::absorb_private`]. If `id` is a crash
    /// victim [`LeaseTable::revoke`] protected, the protection comes off
    /// once the lock pins the prefix.
    pub fn lease_prefix(&mut self, id: ReqId, blocks: &[Block], now: SimTime) -> KvLease {
        let lock = self.pool.match_prefix(blocks, now);
        self.outstanding += 1;
        if self.revoked.remove(&id) {
            self.pool.unprotect_prefix(blocks);
        }
        KvLease { lock, private: 0 }
    }

    /// Opens a lock-less lease over `tokens` of **already reserved**
    /// private space (disaggregated decode slots hold no radix lock —
    /// their context lives entirely in private pool space that was
    /// allocated when the slot was admitted or reserved).
    pub fn lease_private(&mut self, tokens: u64) -> KvLease {
        self.outstanding += 1;
        KvLease {
            lock: MatchOutcome {
                matched_tokens: 0,
                path: Vec::new(),
            },
            private: tokens,
        }
    }

    /// Allocates `tokens` of private space and wraps it in a lock-less
    /// lease; `None` (allocating nothing) when the pool cannot make room.
    pub fn try_lease_private(&mut self, tokens: u64, now: SimTime) -> Option<KvLease> {
        if !self.pool.try_alloc_private(tokens, now) {
            return None;
        }
        Some(self.lease_private(tokens))
    }

    /// Returns a lease without committing anything: unlock, then free the
    /// private allocation (the requeue/drop path).
    pub fn release(&mut self, lease: KvLease) {
        self.pool.unlock(&lease.lock);
        self.pool.free_private(lease.private);
        self.outstanding -= 1;
    }

    /// Retires a lease, committing `blocks` (the request's full context)
    /// to the shared cache for future-turn reuse: unlock, free, insert —
    /// the exact order of every engine's retire path. Returns whether the
    /// insert was admitted.
    pub fn release_and_commit(&mut self, lease: KvLease, blocks: &[Block], now: SimTime) -> bool {
        self.pool.unlock(&lease.lock);
        self.pool.free_private(lease.private);
        self.outstanding -= 1;
        self.pool.insert(blocks, now)
    }

    /// Dissolves a **lock-less** lease back into raw private space
    /// without freeing anything, returning the token count. Used when a
    /// context is handed off through a plain queue (e.g. admitted to the
    /// decode batch only after a transfer completes); re-wrap it with
    /// [`LeaseTable::lease_private`] on the other side.
    ///
    /// # Panics
    ///
    /// Panics if the lease holds a radix lock — locks cannot be handed
    /// off raw.
    pub fn detach(&mut self, lease: KvLease) -> u64 {
        assert!(
            lease.lock.path.is_empty(),
            "cannot detach a lease holding a radix lock"
        );
        self.outstanding -= 1;
        lease.private
    }

    /// Migrates a finished prefill's working KV (held as private space)
    /// into the shared radix, swapping the lease's eviction lock onto the
    /// committed path: insert, lock the new path, unlock the old one,
    /// free the private allocation. When the pool cannot admit the
    /// insert, the lease is left unchanged (the request keeps its private
    /// allocation — it simply loses reuse).
    pub fn migrate(&mut self, lease: &mut KvLease, blocks: &[Block], now: SimTime) {
        if self.pool.insert(blocks, now) {
            let new_lock = self.pool.lock_prefix(blocks, now);
            let old_lock = std::mem::replace(&mut lease.lock, new_lock);
            self.pool.unlock(&old_lock);
            self.pool.free_private(lease.private);
            lease.private = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn lease_roundtrip_releases_everything() {
        let mut table = LeaseTable::new(10_000, 64);
        let blocks = Block::sequence(1, 640, 64);
        table.insert(&blocks, t(0.0));
        let mut lease = table.lease_prefix(0, &blocks, t(1.0));
        assert_eq!(lease.matched_tokens(), 640);
        assert!(table.try_alloc_private(100, t(1.0)));
        lease.absorb_private(100);
        assert_eq!(table.outstanding(), 1);
        table.release(lease);
        assert_eq!(table.outstanding(), 0);
        assert_eq!(table.pool().private_tokens(), 0);
        table.pool().check_invariants();
    }

    #[test]
    fn release_and_commit_caches_the_context() {
        let mut table = LeaseTable::new(10_000, 64);
        let blocks = Block::sequence(2, 128, 64);
        let mut lease = table.lease_prefix(0, &blocks, t(0.0));
        assert!(table.try_alloc_private(128, t(0.0)));
        lease.absorb_private(128);
        assert!(table.release_and_commit(lease, &blocks, t(1.0)));
        assert_eq!(table.peek_prefix(&blocks), 128);
        assert_eq!(table.outstanding(), 0);
        assert_eq!(table.pool().private_tokens(), 0);
    }

    #[test]
    fn migrate_swaps_lock_and_frees_private() {
        let mut table = LeaseTable::new(10_000, 64);
        let blocks = Block::sequence(3, 256, 64);
        let mut lease = table.lease_prefix(0, &blocks, t(0.0));
        assert!(table.try_alloc_private(256, t(0.0)));
        lease.absorb_private(256);
        table.migrate(&mut lease, &blocks, t(1.0));
        assert_eq!(lease.private_tokens(), 0);
        assert_eq!(lease.matched_tokens(), 256);
        assert_eq!(table.pool().private_tokens(), 0);
        table.release(lease);
        table.pool().check_invariants();
    }

    #[test]
    fn migrate_keeps_lease_when_pool_is_full() {
        // Capacity 64 and it is all locked by the lease's own prefix, so
        // the 128-block insert cannot be admitted.
        let mut table = LeaseTable::new(64, 64);
        let small = Block::sequence(4, 64, 64);
        table.insert(&small, t(0.0));
        let mut lease = table.lease_prefix(0, &small, t(0.1));
        lease.absorb_private(0);
        let big = Block::sequence(5, 128, 64);
        table.migrate(&mut lease, &big, t(1.0));
        assert_eq!(lease.matched_tokens(), 64, "lease unchanged on failure");
        table.release(lease);
    }

    #[test]
    fn lockless_lease_detach_and_rewrap() {
        let mut table = LeaseTable::new(1_000, 64);
        let lease = table.try_lease_private(500, t(0.0)).expect("fits");
        assert_eq!(lease.private_tokens(), 500);
        let raw = table.detach(lease);
        assert_eq!(raw, 500);
        assert_eq!(table.outstanding(), 0);
        // Tokens stay allocated across the handoff.
        assert_eq!(table.pool().private_tokens(), 500);
        let lease = table.lease_private(raw);
        table.release(lease);
        assert_eq!(table.pool().private_tokens(), 0);
    }

    #[test]
    fn shrink_prefers_unprotected_victim_over_decode_victims_prefix() {
        // Regression: after a crash bulk-revokes a decode batch, the
        // victims' prefixes are unlocked and LRU-cold; a concurrent
        // KvShrink used to evict them first, forcing a full re-prefill on
        // re-admission. Revocation's protection must redirect the shrink
        // to the unprotected alternative, and re-leasing must lift it.
        let mut table = LeaseTable::new(128, 64);
        let victim = Block::sequence(1, 64, 64);
        let other = Block::sequence(2, 64, 64);
        table.insert(&victim, t(0.0));
        let held = table.lease_prefix(7, &victim, t(0.5));
        table.insert(&other, t(1.0));
        table.revoke(7, Some(held), &victim);
        assert_eq!(table.outstanding(), 0);
        table.set_capacity(64, t(2.0));
        assert_eq!(table.peek_prefix(&victim), 64);
        assert_eq!(table.peek_prefix(&other), 0);
        // Re-admission: leasing the protected prefix lifts protection.
        let lease = table.lease_prefix(7, &victim, t(3.0));
        assert_eq!(lease.matched_tokens(), 64);
        table.release(lease);
        // Plain LRU again: the victim (accessed at 3.0) is now older than
        // the re-inserted alternative, so the next shrink evicts it.
        table.set_capacity(128, t(4.0));
        table.insert(&other, t(4.0));
        table.set_capacity(64, t(5.0));
        assert_eq!(table.peek_prefix(&victim), 0);
        assert_eq!(table.peek_prefix(&other), 64);
        table.pool().check_invariants();
    }

    #[test]
    fn outstanding_counts_leaks() {
        let mut table = LeaseTable::new(1_000, 64);
        let blocks = Block::sequence(6, 64, 64);
        let lease = table.lease_prefix(0, &blocks, t(0.0));
        assert_eq!(table.outstanding(), 1);
        // Dropping the lease without returning it leaves the count high —
        // exactly what the driver's end-of-run leak detector reports.
        drop(lease);
        assert_eq!(table.outstanding(), 1);
    }

    #[test]
    #[should_panic(expected = "radix lock")]
    fn detach_rejects_locked_leases() {
        let mut table = LeaseTable::new(1_000, 64);
        let blocks = Block::sequence(7, 64, 64);
        table.insert(&blocks, t(0.0));
        let lease = table.lease_prefix(0, &blocks, t(1.0));
        table.detach(lease);
    }
}
