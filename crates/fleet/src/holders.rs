//! The first-block holder index: which members may match a request.
//!
//! A prefix probe of a radix tree returns 0 unless the tree holds the
//! request's first block, so the router only needs to probe members
//! whose trees have held that block. Every pool logs the key of each
//! block it inserts directly under its radix root
//! ([`serving::LeaseTable::root_keys`]); the index reads the new tail of
//! each member's logs and maps every key to the members that logged it.
//!
//! Entries are never removed, so after an eviction the index lists a
//! member that no longer holds the block: a superset of the holders.
//! That is safe because probing such a member scores 0, exactly what
//! skipping it scores. A member's logs can only grow while its scheduler
//! runs (a step, a cancel) or when the fleet imports a replica, so the
//! fleet marks the member stale at those points and the index rereads
//! only stale members.
//!
//! The index only narrows the probe when requests start with different
//! first blocks, as Conversation sessions do. When every request shares
//! a system prompt, every member that ever served one holds the first
//! block and stays a candidate.

use std::collections::BTreeSet;

use kvcache::Block;
use serving::LeaseTable;

/// First-block key → members whose trees ever held it, plus per-member
/// read positions in the tables' root-key logs.
///
/// # Examples
///
/// ```
/// use fleet::HolderIndex;
/// use kvcache::Block;
/// use serving::LeaseTable;
/// use simcore::SimTime;
///
/// let session = Block::sequence(7, 256, 64);
/// let (mut a, b) = (LeaseTable::new(4096, 64), LeaseTable::new(4096, 64));
/// a.insert(&session, SimTime::ZERO);
/// let mut index = HolderIndex::new(2);
/// index.absorb(0, [&a]);
/// index.absorb(1, [&b]);
/// let mut members = Vec::new();
/// index.candidates([&session[..]], &mut members);
/// assert_eq!(members, vec![0]); // member 1 would score 0: not probed
/// ```
#[derive(Debug, Default)]
pub struct HolderIndex {
    /// `(first-block key, member)`: ordered, so one key's members are a
    /// contiguous range in ascending member order.
    entries: BTreeSet<(u64, usize)>,
    /// Per member, per lease table: root-key log entries already read.
    read: Vec<Vec<usize>>,
    /// Block sizes of every table read so far, in first-seen order.
    sizes: Vec<u32>,
}

impl HolderIndex {
    /// An index over `members` members, none of them read yet.
    pub fn new(members: usize) -> HolderIndex {
        HolderIndex {
            entries: BTreeSet::new(),
            read: vec![Vec::new(); members],
            sizes: Vec::new(),
        }
    }

    /// Block sizes of the tables read so far, in first-seen order (the
    /// sizes a request's block streams are computed at).
    pub fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Reads the log entries `member`'s tables appended since the last
    /// read. Tables are identified by their position in the scheduler's
    /// `lease_tables()` list.
    pub fn absorb<'a>(&mut self, member: usize, tables: impl IntoIterator<Item = &'a LeaseTable>) {
        let read = &mut self.read[member];
        for (k, table) in tables.into_iter().enumerate() {
            if read.len() <= k {
                read.push(0);
            }
            let log = table.root_keys();
            for &key in &log[read[k]..] {
                self.entries.insert((key, member));
            }
            read[k] = log.len();
            let bs = table.block_size();
            if !self.sizes.contains(&bs) {
                self.sizes.push(bs);
            }
        }
    }

    /// Writes into `out`, ascending and without duplicates, every member
    /// that ever held the first block of any of `streams`. Members not
    /// listed hold none of them, so their prefix probes would return 0.
    // simlint: hot
    pub fn candidates<'a>(
        &self,
        streams: impl IntoIterator<Item = &'a [Block]>,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        let mut sources = 0;
        for blocks in streams {
            let Some(first) = blocks.first() else {
                continue;
            };
            sources += 1;
            let holders = self.entries.range((first.key, 0)..=(first.key, usize::MAX));
            out.extend(holders.map(|&(_, member)| member));
        }
        if sources > 1 {
            out.sort_unstable();
            out.dedup();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;

    #[test]
    fn index_lists_every_member_that_ever_held_a_first_block() {
        let a = Block::sequence(1, 128, 64);
        let b = Block::sequence(2, 128, 64);
        let mut tables = [LeaseTable::new(128, 64), LeaseTable::new(1_000, 64)];
        tables[0].insert(&a, SimTime::ZERO);
        tables[1].insert(&a, SimTime::ZERO);
        tables[1].insert(&b, SimTime::ZERO);
        let mut index = HolderIndex::new(2);
        index.absorb(0, [&tables[0]]);
        index.absorb(1, [&tables[1]]);
        let mut out = Vec::new();
        index.candidates([&a[..]], &mut out);
        assert_eq!(out, vec![0, 1]);
        index.candidates([&b[..], &a[..]], &mut out);
        assert_eq!(out, vec![0, 1]);
        index.candidates([&b[..]], &mut out);
        assert_eq!(out, vec![1]);
        assert_eq!(index.sizes(), &[64]);

        // Member 0 evicts `a` to make room for `b`: it stays listed
        // under `a` (a superset is safe), and joins `b` once re-read.
        tables[0].insert(&b, SimTime::from_secs(1.0));
        assert_eq!(tables[0].peek_prefix(&a), 0);
        index.candidates([&b[..]], &mut out);
        assert_eq!(out, vec![1], "not re-read yet");
        index.absorb(0, [&tables[0]]);
        index.candidates([&b[..]], &mut out);
        assert_eq!(out, vec![0, 1]);
        index.candidates([&a[..]], &mut out);
        assert_eq!(out, vec![0, 1]);
        index.candidates([&[][..]], &mut out);
        assert!(out.is_empty());
    }
}
