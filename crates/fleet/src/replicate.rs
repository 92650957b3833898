//! Hot-prefix KV replication: pre-positioning cache for failover.
//!
//! The router already computes each request's block streams to score
//! prefix affinity; the [`Replicator`] piggybacks on those streams to
//! track which sessions are hot (seen the most turns). On a sweep
//! cadence it mirrors the top-K hot prefixes onto R members total: the
//! origin's [`serving::LeaseTable::export_prefix`] clips the recorded
//! stream to what the origin actually holds, and the clipped stream is
//! imported into the lowest-index routable non-holders via
//! [`serving::LeaseTable::insert`]. A victim migrated off a crashed
//! member then finds its context already cached on the target and
//! re-enters as a cheap cached prefill instead of a `ReprefillFull` —
//! and because the router and the migration picker both score
//! `prefix_hit_tokens`, replica placement is automatically a routing
//! input.
//!
//! Replication is opt-in ([`crate::Fleet::with_replication`]) and, like
//! the failover engine, armed only when some member schedules a
//! fail-stop: there is nothing to pre-position against on a crash-free
//! plan, which keeps such runs byte-identical to the PR 7 goldens.
//! Replica transfer cost is modeled as background copies off the
//! critical path (documented in DESIGN.md §14).

use std::collections::BTreeMap;

use kvcache::Block;
use workload::RequestSpec;

/// Replication policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct ReplicationConfig {
    /// Total copies per hot prefix, origin included (R=1 disables
    /// mirroring, R=2 keeps one replica, …).
    pub factor: usize,
    /// How many of the hottest sessions are mirrored per sweep.
    pub top_k: usize,
    /// Turns a session must accumulate before it counts as hot.
    pub min_hits: u64,
    /// Routed requests between replication sweeps.
    pub sweep_every: u64,
}

impl Default for ReplicationConfig {
    fn default() -> ReplicationConfig {
        ReplicationConfig {
            factor: 2,
            top_k: 8,
            min_hits: 2,
            sweep_every: 8,
        }
    }
}

/// Replication outcomes, folded into the fleet report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Distinct sessions that ever qualified as hot.
    pub hot_prefixes: u64,
    /// Replica pushes executed (one per target member per sweep that
    /// actually imported blocks).
    pub replicas_pushed: u64,
    /// Tokens imported into replica members.
    pub tokens_pushed: u64,
}

/// One tracked hot prefix: the latest (longest-context) block streams
/// recorded for a session, per pool block size.
#[derive(Debug, Clone)]
pub struct HotPrefix {
    /// Turns observed for the session.
    pub hits: u64,
    /// Member the last turn was routed to (the export origin).
    pub origin: usize,
    /// The request's block streams, keyed by pool block size — exactly
    /// what `collect_signals` computed for the routing probe.
    pub blocks_by_size: Vec<(u32, Vec<Block>)>,
    /// The recorded context length in tokens.
    pub input_tokens: u64,
}

/// Session-heat tracker plus sweep cadence. The fleet owns the actual
/// export/import (it holds the members); this type only decides *what*
/// is hot and *when* to sweep, deterministically.
#[derive(Debug)]
pub struct Replicator {
    cfg: ReplicationConfig,
    hot: BTreeMap<u64, HotPrefix>,
    since_sweep: u64,
    /// Aggregate outcomes.
    pub stats: ReplicationStats,
}

impl Replicator {
    /// An empty tracker.
    pub fn new(cfg: ReplicationConfig) -> Replicator {
        Replicator {
            cfg,
            hot: BTreeMap::new(),
            since_sweep: 0,
            stats: ReplicationStats::default(),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> &ReplicationConfig {
        &self.cfg
    }

    /// Records one routed request: bumps its session's heat and keeps
    /// the latest (longest) context streams as the replication payload.
    /// The streams are moved, not copied: when they become the payload,
    /// `blocks_by_size` gets the session's previous payload back, so each
    /// session holds one copy. Returns `true` when a sweep is due.
    pub fn record(
        &mut self,
        spec: &RequestSpec,
        blocks_by_size: &mut Vec<(u32, Vec<Block>)>,
        origin: usize,
    ) -> bool {
        let entry = self.hot.entry(spec.session).or_insert(HotPrefix {
            hits: 0,
            origin,
            blocks_by_size: Vec::new(),
            input_tokens: 0,
        });
        entry.hits += 1;
        if entry.hits == self.cfg.min_hits {
            self.stats.hot_prefixes += 1;
        }
        if spec.input_tokens() >= entry.input_tokens {
            entry.origin = origin;
            std::mem::swap(&mut entry.blocks_by_size, blocks_by_size);
            entry.input_tokens = spec.input_tokens();
        }
        self.since_sweep += 1;
        if self.since_sweep >= self.cfg.sweep_every {
            self.since_sweep = 0;
            return true;
        }
        false
    }

    /// The top-K hot sessions by `(hits desc, session asc)` — a total
    /// order, so sweep targets replay identically.
    pub fn hottest(&self) -> Vec<(u64, &HotPrefix)> {
        let mut all: Vec<(u64, &HotPrefix)> = self
            .hot
            .iter()
            .filter(|(_, h)| h.hits >= self.cfg.min_hits)
            .map(|(&s, h)| (s, h))
            .collect();
        all.sort_by(|a, b| b.1.hits.cmp(&a.1.hits).then(a.0.cmp(&b.0)));
        all.truncate(self.cfg.top_k);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::ContentSpec;

    fn spec(session: u64, tokens: u64) -> RequestSpec {
        RequestSpec {
            id: session,
            arrival: simcore::SimTime::ZERO,
            session,
            turn: 0,
            content: ContentSpec::single(session, tokens),
            prior_context: 0,
            output_tokens: 10,
        }
    }

    #[test]
    fn heat_ranks_by_hits_then_session_and_sweeps_on_cadence() {
        let cfg = ReplicationConfig {
            sweep_every: 4,
            min_hits: 2,
            top_k: 2,
            factor: 2,
        };
        let mut r = Replicator::new(cfg);
        let streams = || vec![(64u32, Block::sequence(1, 128, 64))];
        assert!(!r.record(&spec(9, 100), &mut streams(), 0));
        assert!(!r.record(&spec(9, 200), &mut streams(), 1));
        assert!(!r.record(&spec(4, 100), &mut streams(), 0));
        assert!(
            r.record(&spec(4, 100), &mut streams(), 0),
            "4th request sweeps"
        );
        let hot = r.hottest();
        assert_eq!(hot.len(), 2);
        // Equal hits: lower session id first.
        assert_eq!((hot[0].0, hot[1].0), (4, 9));
        // The longest context wins as payload; its origin sticks.
        assert_eq!(hot[1].1.input_tokens, 200);
        assert_eq!(hot[1].1.origin, 1);
        assert_eq!(r.stats.hot_prefixes, 2);
    }

    #[test]
    fn cold_sessions_never_qualify() {
        let mut r = Replicator::new(ReplicationConfig::default());
        r.record(&spec(1, 100), &mut Vec::new(), 0);
        assert!(r.hottest().is_empty());
        assert_eq!(r.stats.hot_prefixes, 0);
    }
}
