//! The radix tree over content blocks.
//!
//! Each node corresponds to one block of cached tokens. Almost every
//! node is one link of a single-session chain, so a node stores its
//! single child inline and keeps a `BTreeMap` from block hash to child
//! only once it branches. Eviction order does not depend on how children
//! are stored: it comes from the evictable index, keyed by
//! `(protected, last_access, NodeId)`, so ties break on the node id.

use std::collections::BTreeMap;

use simcore::SimTime;

/// A fixed-size run of tokens identified by a content hash.
///
/// # Examples
///
/// ```
/// use kvcache::Block;
/// let a = Block::sequence(1, 130, 64);
/// assert_eq!(a.len(), 3); // 64 + 64 + 2 tokens
/// assert_eq!(a[2].tokens, 2);
/// let b = Block::sequence(1, 200, 64);
/// assert_eq!(a[0], b[0]); // same stream → shared prefix blocks
/// assert_ne!(a[2], b[2]); // partial tail block differs from full block
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Block {
    /// Content hash of the block.
    pub key: u64,
    /// Tokens in the block (equal to the block size except possibly the
    /// last block of a sequence).
    pub tokens: u32,
}

impl Block {
    /// Derives the block sequence for the first `tokens` tokens of a
    /// deterministic content stream `stream_id`. Prefixes of the same
    /// stream yield prefix block sequences, which is how the workload
    /// generator expresses multi-turn context reuse.
    ///
    /// A partial tail block hashes differently from the full block at the
    /// same position (a half-filled KV page cannot be shared with a
    /// request that continues past it... it can only be shared by exact
    /// restatement, which the tail hash encodes).
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn sequence(stream_id: u64, tokens: u64, block_size: u32) -> Vec<Block> {
        assert!(block_size > 0, "zero block size");
        let bs = block_size as u64;
        let full = tokens / bs;
        let tail = tokens % bs;
        let mut out = Vec::with_capacity((full + 1) as usize);
        for i in 0..full {
            out.push(Block {
                key: mix(stream_id, i, bs as u32),
                tokens: block_size,
            });
        }
        if tail > 0 {
            out.push(Block {
                key: mix(stream_id, full, tail as u32),
                tokens: tail as u32,
            });
        }
        out
    }

    /// Total token count of a block sequence.
    pub fn total_tokens(blocks: &[Block]) -> u64 {
        blocks.iter().map(|b| b.tokens as u64).sum()
    }
}

fn mix(stream: u64, index: u64, fill: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [stream, index, fill as u64] {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
        h ^= h >> 29;
    }
    h
}

/// Index of a node in the tree's slab.
pub(crate) type NodeId = usize;

/// A node's children with the semantics of a map from block hash to
/// node: [`Children::insert`] replaces the entry under an existing key.
/// One child is stored inline; a map is allocated only for nodes that
/// branch, and collapses back to the inline form when one child is left.
#[derive(Debug, Default)]
pub(crate) enum Children {
    #[default]
    Empty,
    One(u64, NodeId),
    Many(BTreeMap<u64, NodeId>),
}

impl Children {
    fn get(&self, key: u64) -> Option<NodeId> {
        match self {
            Children::Empty => None,
            Children::One(k, id) => (*k == key).then_some(*id),
            Children::Many(map) => map.get(&key).copied(),
        }
    }

    fn insert(&mut self, key: u64, id: NodeId) {
        match self {
            Children::Empty => *self = Children::One(key, id),
            Children::One(k, old) if *k == key => *old = id,
            Children::One(k, old) => {
                *self = Children::Many(BTreeMap::from([(*k, *old), (key, id)]));
            }
            Children::Many(map) => {
                map.insert(key, id);
            }
        }
    }

    fn remove(&mut self, key: u64) {
        match self {
            Children::Empty => {}
            Children::One(k, _) => {
                if *k == key {
                    *self = Children::Empty;
                }
            }
            Children::Many(map) => {
                map.remove(&key);
                if map.len() == 1 {
                    if let Some((&k, &id)) = map.iter().next() {
                        *self = Children::One(k, id);
                    }
                }
            }
        }
    }

    fn is_empty(&self) -> bool {
        matches!(self, Children::Empty)
    }
}

#[derive(Debug)]
pub(crate) struct Node {
    pub key: u64,
    pub tokens: u32,
    pub parent: NodeId,
    pub children: Children,
    pub refs: u32,
    pub last_access: SimTime,
    pub alive: bool,
    /// Advisory eviction protection: a protected node is evicted only
    /// when no unprotected victim exists. Used by crash failover to keep
    /// revoked requests' prefixes warm until re-admission.
    pub protected: bool,
    /// The exact key this node occupies in the evictable index, or `None`
    /// when absent. Lets [`RadixTree::reindex`] do one targeted removal
    /// instead of probing every (protection, access-time) combination.
    pub index_key: Option<(bool, SimTime)>,
}

/// The tree: a slab of nodes with node 0 as the sentinel root, plus an
/// LRU-ordered index of evictable leaves (alive, unreferenced, childless)
/// so eviction is O(log n) instead of a full scan. The index key leads
/// with the protection flag (`false < true`), so protected leaves sort
/// after every unprotected one and are only chosen when nothing else is
/// left — with no protected nodes the order is plain LRU, bit-identical
/// to the unprotected-only tree.
#[derive(Debug)]
pub(crate) struct RadixTree {
    nodes: Vec<Node>,
    free: Vec<NodeId>,
    evictable: std::collections::BTreeSet<(bool, SimTime, NodeId)>,
    /// Key of every node ever created directly under the root, in
    /// creation order (append-only; see [`RadixTree::root_keys`]).
    root_log: Vec<u64>,
}

pub(crate) const ROOT: NodeId = 0;

impl RadixTree {
    pub fn new() -> RadixTree {
        RadixTree {
            nodes: vec![Node {
                key: 0,
                tokens: 0,
                parent: ROOT,
                children: Children::Empty,
                refs: 1, // the root is never evictable
                last_access: SimTime::ZERO,
                alive: true,
                protected: false,
                index_key: None,
            }],
            free: Vec::new(),
            evictable: std::collections::BTreeSet::new(),
            root_log: Vec::new(),
        }
    }

    #[cfg(test)]
    #[allow(dead_code)] // used by some, not all, test configurations
    pub fn node(&self, id: NodeId) -> &Node {
        debug_assert!(self.nodes[id].alive, "dead node access");
        &self.nodes[id]
    }

    fn is_evictable(&self, id: NodeId) -> bool {
        let n = &self.nodes[id];
        id != ROOT && n.alive && n.refs == 0 && n.children.is_empty()
    }

    /// Re-derives the node's membership in the evictable index after a
    /// state change. The node's stored `index_key` records exactly where
    /// it sits in the index, so membership updates are one targeted
    /// removal plus one insertion — and a no-op when nothing changed,
    /// which is the common case on hot lookup paths (inner nodes and
    /// locked prefixes are never indexed).
    // simlint: hot
    fn reindex(&mut self, id: NodeId) {
        let want = if self.is_evictable(id) {
            let n = &self.nodes[id];
            Some((n.protected, n.last_access))
        } else {
            None
        };
        if self.nodes[id].index_key == want {
            return;
        }
        if let Some((p, t)) = self.nodes[id].index_key.take() {
            self.evictable.remove(&(p, t, id));
        }
        if let Some((p, t)) = want {
            self.evictable.insert((p, t, id));
            self.nodes[id].index_key = want;
        }
    }

    /// Sets a node's advisory eviction protection.
    pub fn set_protected(&mut self, id: NodeId, protected: bool) {
        if self.nodes[id].protected != protected {
            self.nodes[id].protected = protected;
            self.reindex(id);
        }
    }

    /// Increments a node's reference count (pins it against eviction).
    // simlint: hot
    pub fn inc_ref(&mut self, id: NodeId, now: SimTime) {
        self.nodes[id].refs += 1;
        self.nodes[id].last_access = now;
        self.reindex(id);
    }

    /// Decrements a node's reference count.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when the node is not referenced.
    // simlint: hot
    pub fn dec_ref(&mut self, id: NodeId) {
        debug_assert!(self.nodes[id].refs > 0, "unlock of unlocked node");
        self.nodes[id].refs = self.nodes[id].refs.saturating_sub(1);
        self.reindex(id);
    }

    /// The child of `id` that continues `block`, if cached: same key
    /// and same token count.
    fn child_matching(&self, id: NodeId, block: &Block) -> Option<NodeId> {
        self.nodes[id]
            .children
            .get(block.key)
            .filter(|&child| self.nodes[child].tokens == block.tokens)
    }

    /// Length of the longest existing path matching `blocks`, as
    /// `(blocks, tokens)`. Builds no path and does not touch access
    /// times, so a probe costs only the chain it matches.
    // simlint: hot
    pub fn matched(&self, blocks: &[Block]) -> (usize, u64) {
        let mut cur = ROOT;
        let mut tokens = 0u64;
        for (depth, b) in blocks.iter().enumerate() {
            match self.child_matching(cur, b) {
                Some(child) => {
                    tokens += b.tokens as u64;
                    cur = child;
                }
                None => return (depth, tokens),
            }
        }
        (blocks.len(), tokens)
    }

    /// Walks the longest existing path matching `blocks`; returns
    /// `(path, matched_tokens)`. Does not touch access times. Use
    /// [`RadixTree::matched`] when only the length is needed.
    pub fn walk(&self, blocks: &[Block]) -> (Vec<NodeId>, u64) {
        let mut cur = ROOT;
        let mut path = Vec::new();
        let mut tokens = 0u64;
        for b in blocks {
            match self.child_matching(cur, b) {
                Some(child) => {
                    path.push(child);
                    tokens += b.tokens as u64;
                    cur = child;
                }
                None => break,
            }
        }
        (path, tokens)
    }

    /// Inserts missing nodes along `blocks`, refreshing the access time
    /// of every node on the path, and returns the number of **new**
    /// tokens added. Each path node's evictable-index entry is updated
    /// once, after its child on the path is linked: a node that gains a
    /// child is no longer a leaf, so a new chain enters the index only
    /// at its tail.
    // simlint: hot
    pub fn insert_path(&mut self, blocks: &[Block], now: SimTime) -> u64 {
        let mut cur = ROOT;
        let mut new_tokens = 0u64;
        for b in blocks {
            let next = match self.child_matching(cur, b) {
                Some(child) => child,
                None => {
                    let id = self.alloc(Node {
                        key: b.key,
                        tokens: b.tokens,
                        parent: cur,
                        children: Children::Empty,
                        refs: 0,
                        last_access: now,
                        alive: true,
                        protected: false,
                        index_key: None,
                    });
                    self.nodes[cur].children.insert(b.key, id);
                    if cur == ROOT {
                        self.root_log.push(b.key);
                    }
                    new_tokens += b.tokens as u64;
                    id
                }
            };
            // `cur` now has its final access time and child.
            self.reindex(cur);
            self.nodes[next].last_access = now;
            cur = next;
        }
        self.reindex(cur);
        new_tokens
    }

    /// Keys of every block ever inserted directly under the root, in
    /// insertion order. The log is append-only: evicting a first block
    /// leaves its key in place, and re-inserting it appends the key
    /// again. A reader that remembers how much it has read sees every
    /// first block the tree has held since.
    pub fn root_keys(&self) -> &[u64] {
        &self.root_log
    }

    fn alloc(&mut self, node: Node) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id] = node;
            id
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    /// Removes an unreferenced leaf, returning its token count.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the node is referenced, has children, or
    /// is the root.
    pub fn remove_leaf(&mut self, id: NodeId) -> u32 {
        debug_assert_ne!(id, ROOT);
        debug_assert_eq!(self.nodes[id].refs, 0, "evicting a locked node");
        debug_assert!(self.nodes[id].children.is_empty(), "evicting an inner node");
        let parent = self.nodes[id].parent;
        let key = self.nodes[id].key;
        if let Some((p, t)) = self.nodes[id].index_key.take() {
            self.evictable.remove(&(p, t, id));
        }
        self.nodes[parent].children.remove(key);
        self.nodes[id].alive = false;
        self.nodes[id].protected = false;
        self.free.push(id);
        if parent != ROOT {
            // The parent may have just become an evictable leaf.
            self.reindex(parent);
        }
        self.nodes[id].tokens
    }

    /// The preferred eviction victim, if any (O(log n)): the LRU
    /// unprotected leaf, falling back to the LRU protected leaf only
    /// when every evictable leaf is protected.
    pub fn lru_evictable(&self) -> Option<NodeId> {
        self.evictable.iter().next().map(|&(_, _, id)| id)
    }

    /// All evictable leaves (alive, zero refs, no children),
    /// unprotected-LRU-first.
    #[cfg(test)]
    pub fn evictable_leaves(&self) -> Vec<NodeId> {
        self.evictable.iter().map(|&(_, _, id)| id).collect()
    }

    /// Total tokens stored in live non-root nodes.
    pub fn total_tokens(&self) -> u64 {
        self.nodes
            .iter()
            .skip(1)
            .filter(|n| n.alive)
            .map(|n| n.tokens as u64)
            .sum()
    }

    /// Number of live non-root nodes.
    pub fn len(&self) -> usize {
        self.nodes.iter().skip(1).filter(|n| n.alive).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inserts `blocks` and returns the full path to them.
    fn insert(t: &mut RadixTree, blocks: &[Block], now: SimTime) -> Vec<NodeId> {
        t.insert_path(blocks, now);
        t.walk(blocks).0
    }

    #[test]
    fn sequence_prefix_property() {
        let a = Block::sequence(9, 640, 64);
        let b = Block::sequence(9, 1280, 64);
        assert_eq!(&b[..10], &a[..]);
        assert_eq!(Block::total_tokens(&a), 640);
    }

    #[test]
    fn different_streams_do_not_collide() {
        let a = Block::sequence(1, 64, 64);
        let b = Block::sequence(2, 64, 64);
        assert_ne!(a[0].key, b[0].key);
    }

    #[test]
    fn walk_and_insert_roundtrip() {
        let mut t = RadixTree::new();
        let blocks = Block::sequence(3, 300, 64);
        let added = t.insert_path(&blocks, SimTime::ZERO);
        assert_eq!(added, 300);
        let (walked, tokens) = t.walk(&blocks);
        assert_eq!(walked.len(), 5);
        assert_eq!(tokens, 300);
        assert_eq!(t.matched(&blocks), (5, 300));
        // Re-insert adds nothing.
        let added2 = t.insert_path(&blocks, SimTime::ZERO);
        assert_eq!(added2, 0);
        assert_eq!(t.total_tokens(), 300);
    }

    #[test]
    fn prefix_block_len_clips_replica_exports() {
        let mut origin = RadixTree::new();
        origin.insert_path(&Block::sequence(9, 256, 64), SimTime::ZERO);
        // A recorded stream longer than what the origin holds: export
        // must clip to the cached prefix, not the full recording.
        let recorded = Block::sequence(9, 512, 64);
        let (n, _) = origin.matched(&recorded);
        assert_eq!(n, 4);
        // Importing the clipped stream mirrors exactly the origin state.
        let mut replica = RadixTree::new();
        let added = replica.insert_path(&recorded[..n], SimTime::ZERO);
        assert_eq!(added, 256);
        assert_eq!(replica.walk(&recorded).1, origin.walk(&recorded).1);
    }

    #[test]
    fn partial_match_stops_at_divergence() {
        let mut t = RadixTree::new();
        t.insert_path(&Block::sequence(3, 128, 64), SimTime::ZERO);
        let longer = Block::sequence(3, 256, 64);
        let (path, tokens) = t.walk(&longer);
        assert_eq!(tokens, 128);
        assert_eq!(path.len(), 2);
        assert_eq!(t.matched(&longer), (2, 128));
    }

    #[test]
    fn remove_leaf_frees_tokens() {
        let mut t = RadixTree::new();
        let blocks = Block::sequence(3, 128, 64);
        let path = insert(&mut t, &blocks, SimTime::ZERO);
        let leaf = *path.last().unwrap();
        assert_eq!(t.evictable_leaves(), vec![leaf]);
        assert_eq!(t.remove_leaf(leaf), 64);
        assert_eq!(t.total_tokens(), 64);
        // Parent becomes a leaf.
        assert_eq!(t.evictable_leaves(), vec![path[0]]);
    }

    #[test]
    fn protected_leaves_are_evicted_last() {
        let mut t = RadixTree::new();
        // Two independent single-block chains: `a` is older (would be
        // the LRU victim), `b` newer.
        let pa = insert(&mut t, &Block::sequence(1, 64, 64), SimTime::ZERO);
        let pb = insert(&mut t, &Block::sequence(2, 64, 64), SimTime::from_secs(1.0));
        t.set_protected(pa[0], true);
        // With an unprotected alternative, protection redirects eviction.
        assert_eq!(t.lru_evictable(), Some(pb[0]));
        assert_eq!(t.evictable_leaves(), vec![pb[0], pa[0]]);
        // Once the alternative is gone, the protected leaf is still
        // evictable (protection is advisory, not a pin).
        t.remove_leaf(pb[0]);
        assert_eq!(t.lru_evictable(), Some(pa[0]));
        // Unprotecting restores plain LRU order.
        t.set_protected(pa[0], false);
        assert_eq!(t.lru_evictable(), Some(pa[0]));
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut t = RadixTree::new();
        let p = insert(&mut t, &Block::sequence(1, 64, 64), SimTime::ZERO);
        t.remove_leaf(p[0]);
        let before = t.len();
        t.insert_path(&Block::sequence(2, 64, 64), SimTime::ZERO);
        assert_eq!(t.len(), before + 1);
    }

    #[test]
    fn children_branch_and_collapse_back_inline() {
        let mut t = RadixTree::new();
        let a = Block::sequence(1, 128, 64);
        let b = Block::sequence(2, 64, 64);
        let pa = insert(&mut t, &a, SimTime::ZERO);
        assert!(matches!(t.node(pa[0]).children, Children::One(..)));
        insert(&mut t, &b, SimTime::ZERO);
        assert!(matches!(t.nodes[ROOT].children, Children::Many(_)));
        let leaf_b = t.walk(&b).0[0];
        t.remove_leaf(leaf_b);
        assert!(matches!(t.nodes[ROOT].children, Children::One(..)));
        assert_eq!(t.matched(&a), (2, 128));
        assert_eq!(t.matched(&b), (0, 0));
    }

    #[test]
    fn root_keys_log_every_first_block_ever_inserted() {
        let mut t = RadixTree::new();
        let a = Block::sequence(1, 64, 64);
        let b = Block::sequence(2, 128, 64);
        let pa = insert(&mut t, &a, SimTime::ZERO);
        insert(&mut t, &b, SimTime::ZERO);
        // Extending a cached chain adds no first block.
        insert(&mut t, &Block::sequence(2, 192, 64), SimTime::ZERO);
        assert_eq!(t.root_keys(), &[a[0].key, b[0].key]);
        // Eviction keeps the key; re-insertion logs it again.
        t.remove_leaf(pa[0]);
        assert_eq!(t.root_keys().len(), 2);
        insert(&mut t, &a, SimTime::ZERO);
        assert_eq!(t.root_keys(), &[a[0].key, b[0].key, a[0].key]);
    }
}
