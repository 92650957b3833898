//! Model-based test of the radix tree and pool: random operation
//! sequences run against [`KvPool`] and against a reference pool over a
//! tree that keeps every node's children in a `BTreeMap` and updates the
//! evictable index on every block, as the tree did before children were
//! stored inline. Node ids, match lengths, eviction order and token
//! totals must agree after every operation, including when a block's
//! key is cached with a different token count.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use simcore::SimTime;

use crate::pool::{KvPool, MatchOutcome, PoolStats};
use crate::radix::{Block, NodeId};

const ROOT: NodeId = 0;

#[derive(Debug)]
struct RefNode {
    key: u64,
    tokens: u32,
    parent: NodeId,
    children: BTreeMap<u64, NodeId>,
    refs: u32,
    last_access: SimTime,
    alive: bool,
    protected: bool,
    index_key: Option<(bool, SimTime)>,
}

impl RefNode {
    fn new(key: u64, tokens: u32, parent: NodeId, refs: u32, now: SimTime) -> RefNode {
        RefNode {
            key,
            tokens,
            parent,
            children: BTreeMap::new(),
            refs,
            last_access: now,
            alive: true,
            protected: false,
            index_key: None,
        }
    }
}

#[derive(Debug)]
struct RefTree {
    nodes: Vec<RefNode>,
    free: Vec<NodeId>,
    evictable: BTreeSet<(bool, SimTime, NodeId)>,
    root_log: Vec<u64>,
}

impl RefTree {
    fn new() -> RefTree {
        RefTree {
            nodes: vec![RefNode::new(0, 0, ROOT, 1, SimTime::ZERO)],
            free: Vec::new(),
            evictable: BTreeSet::new(),
            root_log: Vec::new(),
        }
    }

    fn reindex(&mut self, id: NodeId) {
        let n = &self.nodes[id];
        let want = (id != ROOT && n.alive && n.refs == 0 && n.children.is_empty())
            .then_some((n.protected, n.last_access));
        if let Some((p, t)) = self.nodes[id].index_key.take() {
            self.evictable.remove(&(p, t, id));
        }
        if let Some((p, t)) = want {
            self.evictable.insert((p, t, id));
        }
        self.nodes[id].index_key = want;
    }

    fn walk(&self, blocks: &[Block]) -> (Vec<NodeId>, u64) {
        let mut cur = ROOT;
        let mut path = Vec::new();
        let mut tokens = 0u64;
        for b in blocks {
            match self.nodes[cur].children.get(&b.key) {
                Some(&child) if self.nodes[child].tokens == b.tokens => {
                    path.push(child);
                    tokens += b.tokens as u64;
                    cur = child;
                }
                _ => break,
            }
        }
        (path, tokens)
    }

    fn insert_path(&mut self, blocks: &[Block], now: SimTime) -> u64 {
        let mut cur = ROOT;
        let mut new_tokens = 0u64;
        for b in blocks {
            let existing = self.nodes[cur].children.get(&b.key).copied();
            let next = match existing {
                Some(child) if self.nodes[child].tokens == b.tokens => child,
                _ => {
                    let node = RefNode::new(b.key, b.tokens, cur, 0, now);
                    let id = match self.free.pop() {
                        Some(id) => {
                            self.nodes[id] = node;
                            id
                        }
                        None => {
                            self.nodes.push(node);
                            self.nodes.len() - 1
                        }
                    };
                    self.nodes[cur].children.insert(b.key, id);
                    if cur == ROOT {
                        self.root_log.push(b.key);
                    }
                    self.reindex(cur);
                    new_tokens += b.tokens as u64;
                    id
                }
            };
            self.nodes[next].last_access = now;
            self.reindex(next);
            cur = next;
        }
        new_tokens
    }

    fn remove_leaf(&mut self, id: NodeId) -> u32 {
        let parent = self.nodes[id].parent;
        let key = self.nodes[id].key;
        if let Some((p, t)) = self.nodes[id].index_key.take() {
            self.evictable.remove(&(p, t, id));
        }
        self.nodes[parent].children.remove(&key);
        self.nodes[id].alive = false;
        self.nodes[id].protected = false;
        self.free.push(id);
        if parent != ROOT {
            self.reindex(parent);
        }
        self.nodes[id].tokens
    }

    fn total_tokens(&self) -> u64 {
        let live = self.nodes.iter().skip(1).filter(|n| n.alive);
        live.map(|n| n.tokens as u64).sum()
    }
}

/// The pool's capacity, locking and eviction logic over [`RefTree`].
#[derive(Debug)]
struct RefPool {
    tree: RefTree,
    capacity: u64,
    shared: u64,
    private: u64,
    stats: PoolStats,
}

impl RefPool {
    fn new(capacity: u64) -> RefPool {
        RefPool {
            tree: RefTree::new(),
            capacity,
            shared: 0,
            private: 0,
            stats: PoolStats::default(),
        }
    }

    fn free_tokens(&self) -> u64 {
        self.capacity.saturating_sub(self.shared + self.private)
    }

    fn evict_lru(&mut self) -> bool {
        match self.tree.evictable.iter().next().map(|&(_, _, id)| id) {
            Some(id) => {
                let freed = self.tree.remove_leaf(id) as u64;
                self.shared -= freed;
                self.stats.evicted_tokens += freed;
                true
            }
            None => false,
        }
    }

    fn make_room(&mut self, tokens: u64) -> bool {
        while self.free_tokens() < tokens {
            if !self.evict_lru() {
                return false;
            }
        }
        true
    }

    fn lock(&mut self, blocks: &[Block], now: SimTime) -> (Vec<NodeId>, u64) {
        let (path, matched) = self.tree.walk(blocks);
        for &id in &path {
            self.tree.nodes[id].refs += 1;
            self.tree.nodes[id].last_access = now;
            self.tree.reindex(id);
        }
        self.stats.lookups += 1;
        self.stats.lookup_tokens += Block::total_tokens(blocks);
        self.stats.hit_tokens += matched;
        (path, matched)
    }

    fn unlock(&mut self, path: &[NodeId]) {
        for &id in path {
            self.tree.nodes[id].refs -= 1;
            self.tree.reindex(id);
        }
    }

    fn insert(&mut self, blocks: &[Block], now: SimTime) -> bool {
        let total = Block::total_tokens(blocks);
        loop {
            let would_add = total - self.tree.walk(blocks).1;
            if self.free_tokens() >= would_add {
                self.shared += self.tree.insert_path(blocks, now);
                return true;
            }
            if !self.make_room(would_add) {
                return false;
            }
        }
    }

    fn set_protected(&mut self, blocks: &[Block], protected: bool) {
        for id in self.tree.walk(blocks).0 {
            if self.tree.nodes[id].protected != protected {
                self.tree.nodes[id].protected = protected;
                self.tree.reindex(id);
            }
        }
    }

    fn set_capacity(&mut self, cap: u64) {
        self.capacity = cap;
        while self.shared + self.private > cap && self.evict_lru() {}
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<Block>),
    Lease(Vec<Block>),
    Unlock(usize),
    Protect(Vec<Block>),
    Unprotect(Vec<Block>),
    AllocPrivate(u64),
    FreePrivate,
    SetCapacity(u64),
}

/// Block sequences over a tiny key alphabet with two fills, so chains
/// share prefixes, branch, and meet cached keys whose token count does
/// not match.
fn blocks_strategy() -> impl Strategy<Value = Vec<Block>> {
    prop::collection::vec((0u64..4, 0u64..5), 0..7).prop_map(|raw| {
        raw.into_iter()
            .map(|(key, fill)| Block {
                key,
                tokens: if fill == 0 { 16 } else { 64 },
            })
            .collect()
    })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        blocks_strategy().prop_map(Op::Insert),
        blocks_strategy().prop_map(Op::Insert),
        blocks_strategy().prop_map(Op::Lease),
        (0usize..8).prop_map(Op::Unlock),
        blocks_strategy().prop_map(Op::Protect),
        blocks_strategy().prop_map(Op::Unprotect),
        (1u64..400).prop_map(Op::AllocPrivate),
        Just(Op::FreePrivate),
        (0u64..1_200).prop_map(Op::SetCapacity),
    ]
}

fn assert_same(pool: &KvPool, model: &RefPool, probes: &[Vec<Block>]) -> Result<(), TestCaseError> {
    prop_assert_eq!(pool.tree.evictable_leaves(), {
        let ids: Vec<NodeId> = model.tree.evictable.iter().map(|&(_, _, id)| id).collect();
        ids
    });
    prop_assert_eq!(
        pool.tree.lru_evictable(),
        model.tree.evictable.iter().next().map(|&(_, _, id)| id)
    );
    prop_assert_eq!(pool.tree.total_tokens(), model.tree.total_tokens());
    prop_assert_eq!(pool.shared_tokens(), model.shared);
    prop_assert_eq!(pool.private_tokens(), model.private);
    prop_assert_eq!(pool.stats(), model.stats);
    prop_assert_eq!(pool.root_keys(), &model.tree.root_log[..]);
    for blocks in probes {
        let (path, tokens) = model.tree.walk(blocks);
        prop_assert_eq!(pool.peek_prefix(blocks), tokens);
        prop_assert_eq!(pool.cached_prefix_blocks(blocks), path.len());
        prop_assert_eq!(pool.tree.walk(blocks), (path, tokens));
    }
    pool.check_invariants();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Inline children and the once-per-node index update are invisible:
    /// every observable of the pool matches the reference after every
    /// operation.
    #[test]
    fn pool_matches_btreemap_reference(
        capacity in 64u64..1_200,
        ops in prop::collection::vec(op_strategy(), 1..80),
    ) {
        let mut pool = KvPool::new(capacity, 64);
        let mut model = RefPool::new(capacity);
        let mut locks: Vec<(MatchOutcome, Vec<NodeId>)> = Vec::new();
        let mut privates: Vec<u64> = Vec::new();
        let mut probes: Vec<Vec<Block>> = Vec::new();
        for (step, op) in ops.into_iter().enumerate() {
            let now = SimTime::from_nanos(step as u64 / 2);
            match op {
                Op::Insert(blocks) => {
                    prop_assert_eq!(pool.insert(&blocks, now), model.insert(&blocks, now));
                    probes.push(blocks);
                }
                Op::Lease(blocks) => {
                    let got = pool.match_prefix(&blocks, now);
                    let (path, matched) = model.lock(&blocks, now);
                    prop_assert_eq!(got.matched_tokens, matched);
                    prop_assert_eq!(&got.path, &path);
                    locks.push((got, path));
                    probes.push(blocks);
                }
                Op::Unlock(k) => {
                    if !locks.is_empty() {
                        let (got, path) = locks.remove(k % locks.len());
                        pool.unlock(&got);
                        model.unlock(&path);
                    }
                }
                Op::Protect(blocks) => {
                    pool.protect_prefix(&blocks);
                    model.set_protected(&blocks, true);
                }
                Op::Unprotect(blocks) => {
                    pool.unprotect_prefix(&blocks);
                    model.set_protected(&blocks, false);
                }
                Op::AllocPrivate(tokens) => {
                    let ok = pool.try_alloc_private(tokens, now);
                    let model_ok = model.make_room(tokens);
                    prop_assert_eq!(ok, model_ok);
                    if ok {
                        model.private += tokens;
                        privates.push(tokens);
                    }
                }
                Op::FreePrivate => {
                    if let Some(tokens) = privates.pop() {
                        pool.free_private(tokens);
                        model.private -= tokens;
                    }
                }
                Op::SetCapacity(cap) => {
                    pool.set_capacity_tokens(cap, now);
                    model.set_capacity(cap);
                }
            }
            assert_same(&pool, &model, &probes)?;
        }
    }
}

/// The mismatch case pinned down: a key cached with one token count and
/// inserted again with another gets a second node under the same key.
/// The newer node takes over the parent's entry for the key, and the
/// older one stays resident and evictable. Both trees must agree.
#[test]
fn token_count_mismatch_replaces_the_child_entry_like_the_reference() {
    let short = [Block { key: 7, tokens: 16 }];
    let long = [Block { key: 7, tokens: 64 }, Block { key: 1, tokens: 64 }];
    let mut pool = KvPool::new(1_000, 64);
    let mut model = RefPool::new(1_000);
    let probes = vec![short.to_vec(), long.to_vec()];
    for (t, blocks) in [(0, &short[..]), (1, &long[..]), (2, &short[..])] {
        let now = SimTime::from_nanos(t);
        assert_eq!(pool.insert(blocks, now), model.insert(blocks, now));
        assert_same(&pool, &model, &probes).unwrap();
    }
    // Every insert created a node under key 7: the second short insert
    // found the entry pointing at the long chain's node.
    assert_eq!(pool.shared_tokens(), 16 + 128 + 16);
    pool.set_capacity_tokens(0, SimTime::from_nanos(3));
    model.set_capacity(0);
    assert_same(&pool, &model, &probes).unwrap();
}
