//! Pull-based anti-entropy on top of push dissemination.
//!
//! The paper's conclusions leave pull-based dissemination as future work
//! while noting that it "is expected to significantly improve the
//! reliability of the protocol". This module implements that extension: a
//! push phase (RandCast or RingCast, unchanged) followed by periodic *pull
//! rounds* in which nodes that have not yet received a message poll a few
//! random neighbours and fetch it if any of them holds it.
//!
//! The trade-off the paper anticipates is visible directly in the report:
//! the pull phase closes the residual miss ratio (even for RandCast at tiny
//! fanouts, or after failures) at the cost of extra rounds — i.e. extra
//! latency, since pulls are periodic rather than reactive — and extra
//! polling traffic.
//!
//! Two implementations share the model:
//!
//! * [`disseminate_push_pull`] — the id-keyed `BTreeSet` engine over any
//!   [`Overlay`], the oracle; and
//! * [`disseminate_push_pull_dense`] — the allocation-free rewrite over a
//!   CSR [`DenseOverlay`] and a reusable [`DensePullScratch`]: the push
//!   phase runs on [`crate::engine::disseminate_dense`], the holder set is
//!   a bitset seeded straight from the push scratch, and each pull round
//!   polls over borrowed index slices. It returns `Copy`
//!   [`DensePullRunStats`], whose [`DensePullRunStats::report`] is a
//!   [`PushPullReport`] bit-identical to the oracle's for the same overlay,
//!   selector, origin and seed, pinned by differential property tests.
//!
//! # Adversarial network models
//!
//! The pull phase threads [`PullConfig::net`] — a
//! [`crate::netmodel::NetModel`] — through every poll: a poll whose
//! round-trip is eaten by the loss process yields nothing even if the
//! polled peer holds the message, and a poll across an active scripted
//! partition is blocked outright. Since pull rounds are synchronous, the
//! model's time axis is the 1-based *round index* (a partition with
//! `start = 2.0`, `duration = 3.0` blocks cross-cut polls in rounds 2–4),
//! and the delay distribution is ignored — rounds have no sub-round
//! timing. The push phase is the hop-synchronous engine and runs
//! unmodeled; the event-driven engines in [`crate::async_engine`] are
//! where delays and loss shape the push path. The default model is
//! bit-identical to the pre-model pull engines, draw for draw.

// D3: index casts go through `hybridcast_graph::cast`; tests are exempt.
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

use std::collections::{BTreeMap, BTreeSet};

use rand::seq::SliceRandom;
use rand::RngCore;

use hybridcast_graph::cast::{idx, to_u32};
use hybridcast_graph::NodeId;
use hybridcast_obs::{NullProbe, Probe, TraceEvent};

use crate::engine::{disseminate_dense_probed, disseminate_probed, DenseRunStats, DenseScratch};
use crate::metrics::DisseminationReport;
use crate::netmodel::NetModel;
use crate::overlay::{DenseBits, DenseOverlay, Overlay, NO_NODE};
use crate::protocols::DenseSelector;

/// Configuration of the pull phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PullConfig {
    /// Number of random neighbours each still-missing node polls per round.
    pub fanout: usize,
    /// Maximum number of pull rounds before giving up.
    pub max_rounds: usize,
    /// Adversarial network model applied to the pull polls. The delay
    /// distribution is ignored (rounds are synchronous); partitions read
    /// the 1-based round index as their time axis. The default model
    /// reproduces the pre-model engines bit for bit.
    pub net: NetModel,
}

impl Default for PullConfig {
    fn default() -> Self {
        PullConfig {
            fanout: 1,
            max_rounds: 20,
            net: NetModel::default(),
        }
    }
}

impl PullConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the pull fanout is zero or the network model is
    /// malformed.
    pub fn validate(&self) -> Result<(), String> {
        if self.fanout == 0 {
            return Err("pull fanout must be positive".into());
        }
        self.net.validate()
    }
}

/// The outcome of a push phase followed by pull-based anti-entropy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushPullReport {
    /// The unchanged report of the push phase.
    pub push: DisseminationReport,
    /// Pull rounds actually executed (0 when the push was already
    /// complete).
    pub pull_rounds: usize,
    /// Poll messages sent by nodes still missing the message.
    pub pull_requests: usize,
    /// Successful transfers triggered by polls.
    pub pull_transfers: usize,
    /// Nodes that obtained the message in each pull round.
    pub per_round_new: Vec<usize>,
    /// Nodes holding the message after the pull phase.
    pub reached_after_pull: usize,
    /// Live nodes still missing the message after the pull phase.
    pub unreached_after_pull: Vec<NodeId>,
    /// Polls whose round-trip was eaten by the loss process
    /// ([`crate::netmodel::LossModel`]); they count in
    /// [`PushPullReport::pull_requests`] but cannot yield a transfer.
    pub polls_lost: usize,
    /// Polls blocked because a scripted partition separated poller and
    /// peer in that round.
    pub polls_blocked: usize,
}

impl PushPullReport {
    /// Hit ratio after the pull phase, in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        if self.push.population == 0 {
            return 1.0;
        }
        self.reached_after_pull as f64 / self.push.population as f64
    }

    /// Miss ratio after the pull phase.
    pub fn miss_ratio(&self) -> f64 {
        1.0 - self.hit_ratio()
    }

    /// `true` if every live node holds the message after the pull phase.
    pub fn is_complete(&self) -> bool {
        self.reached_after_pull == self.push.population
    }

    /// Total number of messages including push traffic, polls and
    /// transfers.
    pub fn total_messages(&self) -> usize {
        self.push.total_messages() + self.pull_requests + self.pull_transfers
    }

    /// The dissemination latency in rounds: push hops plus pull rounds
    /// (each pull round costs a full gossip period, which is why the paper
    /// calls pull-based dissemination slow).
    pub fn total_rounds(&self) -> usize {
        self.push.last_hop + self.pull_rounds
    }
}

/// Runs a push dissemination followed by pull-based anti-entropy rounds.
///
/// During each pull round every live node that does not yet hold the
/// message polls `config.fanout` random neighbours from its r-links; if at
/// least one of them already holds the message, the node obtains it at the
/// end of the round (rounds are synchronous, matching the cycle-based model
/// of the rest of the evaluation).
///
/// # Panics
///
/// Panics if `origin` is not live or the pull configuration is invalid.
pub fn disseminate_push_pull(
    overlay: &dyn Overlay,
    selector: &DenseSelector,
    origin: NodeId,
    config: &PullConfig,
    rng: &mut dyn RngCore,
) -> PushPullReport {
    disseminate_push_pull_probed(overlay, selector, origin, config, rng, &mut NullProbe)
}

/// [`disseminate_push_pull`] with a [`Probe`] attached: the push phase
/// emits its usual stream, then each pull round adds `PullRequest`,
/// `PollBlocked` / `PollLost`, `PullTransfer` and `RoundEnd` events.
/// Probes never touch the RNG, so the report is identical for any probe.
///
/// # Panics
///
/// Panics if `origin` is not live or the pull configuration is invalid.
pub fn disseminate_push_pull_probed<P: Probe>(
    overlay: &dyn Overlay,
    selector: &DenseSelector,
    origin: NodeId,
    config: &PullConfig,
    rng: &mut dyn RngCore,
    probe: &mut P,
) -> PushPullReport {
    config.validate().expect("invalid pull configuration");
    let push = disseminate_probed(overlay, selector, origin, rng, probe);

    let mut holders: BTreeSet<NodeId> = overlay
        .live_node_ids()
        .into_iter()
        .filter(|id| !push.unreached.contains(id))
        .collect();
    let live: Vec<NodeId> = overlay.live_node_ids();

    let mut pull_rounds = 0usize;
    let mut pull_requests = 0usize;
    let mut pull_transfers = 0usize;
    let mut polls_lost = 0usize;
    let mut polls_blocked = 0usize;
    let mut ge_bad: BTreeMap<NodeId, bool> = BTreeMap::new();
    let mut per_round_new = Vec::new();

    while holders.len() < live.len() && pull_rounds < config.max_rounds {
        pull_rounds += 1;
        // Partitions read the 1-based round index as their time axis.
        let round_time = pull_rounds as f64;
        let mut obtained_this_round = Vec::new();
        for &node in live.iter().filter(|id| !holders.contains(id)) {
            let mut neighbours: Vec<NodeId> = overlay
                .r_links(node)
                .into_iter()
                .filter(|&peer| peer != node && overlay.is_live(peer))
                .collect();
            neighbours.shuffle(rng);
            neighbours.truncate(config.fanout);
            pull_requests += neighbours.len();
            let round_u = to_u32(pull_rounds);
            // Every poll draws its loss sample (no short-circuit): the
            // draw schedule must not depend on holder state, or the dense
            // engine's stream would drift from the oracle's.
            let mut serving: Option<NodeId> = None;
            for &peer in &neighbours {
                probe.record(TraceEvent::PullRequest {
                    from: node.as_u64(),
                    to: peer.as_u64(),
                    round: round_u,
                });
                if config.net.blocks(node, peer, round_time) {
                    polls_blocked += 1;
                    probe.record(TraceEvent::PollBlocked {
                        from: node.as_u64(),
                        to: peer.as_u64(),
                        round: round_u,
                    });
                    continue;
                }
                if !config.net.loss.is_none() {
                    let bad = ge_bad.entry(node).or_insert(false);
                    if config.net.loss.sample(bad, rng) {
                        polls_lost += 1;
                        probe.record(TraceEvent::PollLost {
                            from: node.as_u64(),
                            to: peer.as_u64(),
                            round: round_u,
                        });
                        continue;
                    }
                }
                if holders.contains(&peer) && serving.is_none() {
                    serving = Some(peer);
                }
            }
            if let Some(peer) = serving {
                pull_transfers += 1;
                obtained_this_round.push(node);
                probe.record(TraceEvent::PullTransfer {
                    from: node.as_u64(),
                    to: peer.as_u64(),
                    round: round_u,
                });
            }
        }
        per_round_new.push(obtained_this_round.len());
        probe.record(TraceEvent::RoundEnd {
            round: to_u32(pull_rounds),
            new: obtained_this_round.len() as u64,
        });
        if obtained_this_round.is_empty()
            && per_round_new.len() >= 3
            && per_round_new.iter().rev().take(3).all(|&n| n == 0)
        {
            // Three consecutive dry rounds: the remaining nodes almost
            // certainly have no live links into the holder set (isolated by
            // failures); polling further cannot help. Fewer than three
            // recorded rounds never trigger the cutoff — a single unlucky
            // all-miss round must not end the phase.
            break;
        }
        holders.extend(obtained_this_round);
    }

    let unreached_after_pull: Vec<NodeId> = live
        .iter()
        .copied()
        .filter(|id| !holders.contains(id))
        .collect();

    PushPullReport {
        push,
        pull_rounds,
        pull_requests,
        pull_transfers,
        per_round_new,
        reached_after_pull: holders.len(),
        unreached_after_pull,
        polls_lost,
        polls_blocked,
    }
}

/// Reusable scratch buffers for [`disseminate_push_pull_dense`].
///
/// Holds the push engine's [`DenseScratch`] plus the pull phase's own
/// state: a holder bitset, a poll-candidate buffer and the list of nodes
/// that obtained the message in the current round. A warm scratch makes the
/// whole push + pull run allocation-free. Create one per worker thread and
/// pass it to every run.
#[derive(Debug, Clone, Default)]
pub struct DensePullScratch {
    push: DenseScratch,
    holders: DenseBits,
    neighbours: Vec<u32>,
    obtained: Vec<u32>,
    /// Per-poller Gilbert–Elliott chain state (`false` = good), the dense
    /// mirror of the oracle's id-keyed state map.
    ge_bad: Vec<bool>,
    per_round_new: Vec<usize>,
}

impl DensePullScratch {
    /// Creates an empty scratch; buffers grow to the overlay size on first
    /// use and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Nodes that obtained the message in each pull round of the most
    /// recent run.
    pub fn per_round_new(&self) -> &[usize] {
        &self.per_round_new
    }
}

/// Scalar accounting of one dense push + pull run: everything
/// [`disseminate_push_pull_dense`] returns is `Copy`, so the run never
/// touches the allocator.
///
/// The per-round series and the holder bitset stay behind in the
/// [`DensePullScratch`] (see [`DensePullScratch::per_round_new`]);
/// [`DensePullRunStats::report`] reads them back into the id-keyed
/// [`PushPullReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DensePullRunStats {
    /// Scalar accounting of the push phase.
    pub push: DenseRunStats,
    /// Pull rounds actually executed.
    pub pull_rounds: usize,
    /// Poll messages sent by nodes still missing the message.
    pub pull_requests: usize,
    /// Successful transfers triggered by polls.
    pub pull_transfers: usize,
    /// Nodes holding the message after the pull phase.
    pub reached_after_pull: usize,
    /// Polls eaten by the loss process.
    pub polls_lost: usize,
    /// Polls blocked by an active scripted partition.
    pub polls_blocked: usize,
}

impl DensePullRunStats {
    /// Materialises the id-keyed [`PushPullReport`], equal field for field
    /// to what [`disseminate_push_pull`] returns for the same overlay,
    /// selector, origin, configuration and seed. `overlay` and `scratch`
    /// must be the ones the run was given, and the scratch must not have
    /// served another run since. This is the only part of a dense run that
    /// allocates, and it is O(population).
    pub fn report(&self, overlay: &DenseOverlay, scratch: &DensePullScratch) -> PushPullReport {
        // Dense indices ascend by id, so the unreached list is ordered
        // exactly like the generic engine's.
        let unreached_after_pull: Vec<NodeId> = (0..to_u32(overlay.len()))
            .filter(|&i| overlay.is_live_idx(i) && !scratch.holders.get(i))
            .map(|i| overlay.node_id(i))
            .collect();
        PushPullReport {
            push: self.push.report(overlay, &scratch.push),
            pull_rounds: self.pull_rounds,
            pull_requests: self.pull_requests,
            pull_transfers: self.pull_transfers,
            per_round_new: scratch.per_round_new.clone(),
            reached_after_pull: self.reached_after_pull,
            unreached_after_pull,
            polls_lost: self.polls_lost,
            polls_blocked: self.polls_blocked,
        }
    }
}

/// Runs a push dissemination followed by pull-based anti-entropy rounds
/// over a [`DenseOverlay`]: the allocation-free rewrite of
/// [`disseminate_push_pull`].
///
/// The round model, the accounting and the RNG draw sequence are identical
/// to the generic engine's — the push phase delegates to
/// [`crate::engine::disseminate_dense`] and each pull round shuffles the
/// same filtered candidate pools — so for the same overlay (converted),
/// selector, origin, configuration and seed [`DensePullRunStats::report`]
/// is equal to the generic [`PushPullReport`] field for field.
///
/// Over a warm [`DensePullScratch`] the call performs **zero heap
/// allocations** — the invariant `tests/zero_alloc.rs` pins with a counting
/// allocator.
///
/// # Panics
///
/// Panics if `origin` is not live or the pull configuration is invalid.
///
/// # Example
///
/// ```
/// use hybridcast_core::pull::{
///     disseminate_push_pull, disseminate_push_pull_dense, DensePullScratch, PullConfig,
/// };
/// use hybridcast_core::overlay::{DenseOverlay, StaticOverlay};
/// use hybridcast_core::protocols::DenseSelector;
/// use hybridcast_graph::{builders, NodeId};
/// use rand::SeedableRng;
///
/// let ids: Vec<NodeId> = (0..48).map(NodeId::new).collect();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let random = builders::random_out_degree(&ids, 5, &mut rng);
/// let sparse = StaticOverlay::random(&random);
/// let dense = DenseOverlay::from(&sparse);
/// let selector = DenseSelector::randcast(2);
/// let config = PullConfig { fanout: 2, max_rounds: 30, ..PullConfig::default() };
///
/// let mut scratch = DensePullScratch::new();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
/// let fast = disseminate_push_pull_dense(&dense, &selector, ids[0], &config, &mut rng, &mut scratch);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
/// let slow = disseminate_push_pull(&sparse, &selector, ids[0], &config, &mut rng);
/// assert_eq!(fast.report(&dense, &scratch), slow);
/// ```
pub fn disseminate_push_pull_dense(
    overlay: &DenseOverlay,
    selector: &DenseSelector,
    origin: NodeId,
    config: &PullConfig,
    rng: &mut dyn RngCore,
    scratch: &mut DensePullScratch,
) -> DensePullRunStats {
    disseminate_push_pull_dense_probed(
        overlay,
        selector,
        origin,
        config,
        rng,
        scratch,
        &mut NullProbe,
    )
}

/// [`disseminate_push_pull_dense`] with a [`Probe`] attached.
///
/// Emits exactly the event stream [`disseminate_push_pull_probed`] emits
/// for the same overlay, selector, origin, configuration and seed. With an
/// allocation-free sink the warm-run zero-allocation contract holds
/// unchanged.
///
/// # Panics
///
/// Panics if `origin` is not live or the pull configuration is invalid.
pub fn disseminate_push_pull_dense_probed<P: Probe>(
    overlay: &DenseOverlay,
    selector: &DenseSelector,
    origin: NodeId,
    config: &PullConfig,
    rng: &mut dyn RngCore,
    scratch: &mut DensePullScratch,
    probe: &mut P,
) -> DensePullRunStats {
    config.validate().expect("invalid pull configuration");
    let push = disseminate_dense_probed(overlay, selector, origin, rng, &mut scratch.push, probe);

    let len = overlay.len();
    let DensePullScratch {
        push: push_scratch,
        holders,
        neighbours,
        obtained,
        ge_bad,
        per_round_new,
    } = scratch;
    ge_bad.clear();
    ge_bad.resize(len, false);
    per_round_new.clear();
    // Only live nodes are ever notified, so the push engine's notified
    // bitset *is* the initial holder set.
    holders.copy_from(push_scratch.notified());
    let mut holder_count = push.reached;
    let live_count = overlay.live_len();

    let mut pull_rounds = 0usize;
    let mut pull_requests = 0usize;
    let mut pull_transfers = 0usize;
    let mut polls_lost = 0usize;
    let mut polls_blocked = 0usize;

    while holder_count < live_count && pull_rounds < config.max_rounds {
        pull_rounds += 1;
        // Partitions read the 1-based round index as their time axis.
        let round_time = pull_rounds as f64;
        obtained.clear();
        for node in 0..to_u32(len) {
            if !overlay.is_live_idx(node) || holders.get(node) {
                continue;
            }
            neighbours.clear();
            neighbours.extend(
                overlay
                    .r_links_of(node)
                    .iter()
                    .copied()
                    .filter(|&peer| peer != node && overlay.is_live_idx(peer)),
            );
            neighbours.shuffle(rng);
            neighbours.truncate(config.fanout);
            pull_requests += neighbours.len();
            let round_u = to_u32(pull_rounds);
            let node_id = overlay.node_id(node).as_u64();
            // Same full-scan (no short-circuit) poll loop as the oracle:
            // every poll draws its loss sample in neighbour order.
            let mut serving = NO_NODE;
            for &peer in neighbours.iter() {
                let peer_id = overlay.node_id(peer).as_u64();
                probe.record(TraceEvent::PullRequest {
                    from: node_id,
                    to: peer_id,
                    round: round_u,
                });
                if config
                    .net
                    .blocks(overlay.node_id(node), overlay.node_id(peer), round_time)
                {
                    polls_blocked += 1;
                    probe.record(TraceEvent::PollBlocked {
                        from: node_id,
                        to: peer_id,
                        round: round_u,
                    });
                    continue;
                }
                if !config.net.loss.is_none() {
                    let bad = &mut ge_bad[idx(node)];
                    if config.net.loss.sample(bad, rng) {
                        polls_lost += 1;
                        probe.record(TraceEvent::PollLost {
                            from: node_id,
                            to: peer_id,
                            round: round_u,
                        });
                        continue;
                    }
                }
                if holders.get(peer) && serving == NO_NODE {
                    serving = peer;
                }
            }
            if serving != NO_NODE {
                pull_transfers += 1;
                obtained.push(node);
                probe.record(TraceEvent::PullTransfer {
                    from: node_id,
                    to: overlay.node_id(serving).as_u64(),
                    round: round_u,
                });
            }
        }
        per_round_new.push(obtained.len());
        probe.record(TraceEvent::RoundEnd {
            round: to_u32(pull_rounds),
            new: obtained.len() as u64,
        });
        if obtained.is_empty()
            && per_round_new.len() >= 3
            && per_round_new.iter().rev().take(3).all(|&n| n == 0)
        {
            // Same cutoff as the generic engine: three consecutive dry
            // rounds, never fewer than three recorded rounds.
            break;
        }
        for &node in obtained.iter() {
            holders.set(node);
            holder_count += 1;
        }
    }

    DensePullRunStats {
        push,
        pull_rounds,
        pull_requests,
        pull_transfers,
        reached_after_pull: holder_count,
        polls_lost,
        polls_blocked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::disseminate;
    use crate::overlay::{SnapshotOverlay, StaticOverlay};
    use hybridcast_graph::builders;
    use hybridcast_sim::{Network, SimConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn warmed_overlay(nodes: usize, seed: u64) -> SnapshotOverlay {
        let mut net = Network::new(
            SimConfig {
                nodes,
                ..SimConfig::default()
            },
            seed,
        );
        net.run_cycles(120);
        SnapshotOverlay::new(net.overlay_snapshot())
    }

    #[test]
    fn pull_config_validation() {
        assert!(PullConfig::default().validate().is_ok());
        assert!(PullConfig {
            fanout: 0,
            max_rounds: 5,
            ..PullConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    #[should_panic(expected = "invalid pull configuration")]
    fn invalid_config_panics() {
        let overlay = StaticOverlay::deterministic(&builders::bidirectional_ring(
            &(0..4).map(NodeId::new).collect::<Vec<_>>(),
        ));
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        disseminate_push_pull(
            &overlay,
            &DenseSelector::ringcast(1),
            NodeId::new(0),
            &PullConfig {
                fanout: 0,
                max_rounds: 1,
                ..PullConfig::default()
            },
            &mut rng,
        );
    }

    #[test]
    fn pull_is_a_no_op_when_push_already_completed() {
        let overlay = warmed_overlay(200, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let origin = overlay.snapshot().live_nodes().next().unwrap();
        let report = disseminate_push_pull(
            &overlay,
            &DenseSelector::ringcast(3),
            origin,
            &PullConfig::default(),
            &mut rng,
        );
        assert!(report.push.is_complete());
        assert_eq!(report.pull_rounds, 0);
        assert_eq!(report.pull_requests, 0);
        assert_eq!(report.total_messages(), report.push.total_messages());
        assert!(report.is_complete());
    }

    #[test]
    fn pull_completes_what_low_fanout_randcast_misses() {
        let overlay = warmed_overlay(400, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let origin = overlay.snapshot().live_nodes().next().unwrap();
        let report = disseminate_push_pull(
            &overlay,
            &DenseSelector::randcast(2),
            origin,
            &PullConfig {
                fanout: 2,
                max_rounds: 30,
                ..PullConfig::default()
            },
            &mut rng,
        );
        assert!(
            !report.push.is_complete(),
            "push at fanout 2 should leave misses on 400 nodes"
        );
        assert!(
            report.is_complete(),
            "pull must close the gap, still missing {}",
            report.unreached_after_pull.len()
        );
        assert!(report.pull_rounds >= 1);
        assert_eq!(
            report.reached_after_pull,
            report.push.reached + report.per_round_new.iter().sum::<usize>()
        );
        // Latency cost: pull rounds add to the push hops.
        assert!(report.total_rounds() > report.push.last_hop);
    }

    #[test]
    fn pull_improves_reliability_after_catastrophic_failure() {
        let mut overlay = warmed_overlay(400, 5);
        let mut failure_rng = ChaCha8Rng::seed_from_u64(6);
        hybridcast_sim::failure::kill_fraction_in_snapshot(
            overlay.snapshot_mut(),
            0.10,
            &mut failure_rng,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let origin = overlay.snapshot().live_nodes().next().unwrap();
        let push_only = disseminate(&overlay, &DenseSelector::randcast(3), origin, &mut rng);
        let with_pull = disseminate_push_pull(
            &overlay,
            &DenseSelector::randcast(3),
            origin,
            &PullConfig {
                fanout: 2,
                max_rounds: 30,
                ..PullConfig::default()
            },
            &mut rng,
        );
        assert!(with_pull.hit_ratio() >= push_only.hit_ratio());
        assert!(
            with_pull.miss_ratio() < 0.01,
            "pull should bring the miss ratio below 1%, got {:.4}",
            with_pull.miss_ratio()
        );
    }

    #[test]
    fn isolated_nodes_terminate_the_pull_phase_early() {
        // Two nodes with no links at all can never be reached; the pull
        // phase must stop polling after a few dry rounds instead of
        // spinning until max_rounds.
        let ids: Vec<NodeId> = (0..20).map(NodeId::new).collect();
        let ring = builders::bidirectional_ring(&ids[..18]);
        let mut overlay = StaticOverlay::deterministic(&ring);
        overlay.add_node(NodeId::new(18));
        overlay.add_node(NodeId::new(19));
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let report = disseminate_push_pull(
            &overlay,
            &DenseSelector::ringcast(2),
            ids[0],
            &PullConfig {
                fanout: 1,
                max_rounds: 1_000,
                ..PullConfig::default()
            },
            &mut rng,
        );
        assert_eq!(report.unreached_after_pull.len(), 2);
        assert_eq!(
            report.pull_rounds, 3,
            "the cutoff fires after exactly three dry rounds — never after a \
             single unlucky round, and never later when nothing can change"
        );
    }

    #[test]
    fn dense_pull_matches_generic_engine() {
        let overlay = warmed_overlay(300, 11);
        let dense = crate::overlay::DenseOverlay::from(&overlay);
        let origin = overlay.snapshot().live_nodes().next().unwrap();
        let mut scratch = DensePullScratch::new();
        for (seed, selector) in [
            (20u64, DenseSelector::randcast(2)),
            (21, DenseSelector::ringcast(1)),
            (22, DenseSelector::randcast(1)),
        ] {
            let config = PullConfig {
                fanout: 1,
                max_rounds: 40,
                ..PullConfig::default()
            };
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let slow = disseminate_push_pull(&overlay, &selector, origin, &config, &mut rng);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let fast = disseminate_push_pull_dense(
                &dense,
                &selector,
                origin,
                &config,
                &mut rng,
                &mut scratch,
            )
            .report(&dense, &scratch);
            assert_eq!(slow, fast, "{} diverged at seed {seed}", selector.name());
        }
    }

    #[test]
    fn dense_pull_matches_generic_engine_after_failures() {
        let mut overlay = warmed_overlay(300, 12);
        let mut failure_rng = ChaCha8Rng::seed_from_u64(13);
        hybridcast_sim::failure::kill_fraction_in_snapshot(
            overlay.snapshot_mut(),
            0.10,
            &mut failure_rng,
        );
        let dense = crate::overlay::DenseOverlay::from(&overlay);
        let origin = overlay.snapshot().live_nodes().next().unwrap();
        let selector = DenseSelector::randcast(3);
        let config = PullConfig {
            fanout: 2,
            max_rounds: 30,
            ..PullConfig::default()
        };
        let mut scratch = DensePullScratch::new();
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let slow = disseminate_push_pull(&overlay, &selector, origin, &config, &mut rng);
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let fast =
            disseminate_push_pull_dense(&dense, &selector, origin, &config, &mut rng, &mut scratch)
                .report(&dense, &scratch);
        assert_eq!(slow, fast);
        assert!(fast.push.messages_to_dead > 0, "stale links hit dead nodes");
    }

    #[test]
    fn dense_pull_scratch_is_reusable_across_runs_and_overlays() {
        let big = warmed_overlay(200, 15);
        let big_dense = crate::overlay::DenseOverlay::from(&big);
        let origin = big.snapshot().live_nodes().next().unwrap();
        let selector = DenseSelector::randcast(2);
        let config = PullConfig {
            fanout: 1,
            max_rounds: 30,
            ..PullConfig::default()
        };
        let mut scratch = DensePullScratch::new();
        let first = disseminate_push_pull_dense(
            &big_dense,
            &selector,
            origin,
            &config,
            &mut ChaCha8Rng::seed_from_u64(16),
            &mut scratch,
        )
        .report(&big_dense, &scratch);
        // A smaller overlay afterwards: buffers shrink correctly.
        let small = warmed_overlay(60, 17);
        let small_dense = crate::overlay::DenseOverlay::from(&small);
        let small_origin = small.snapshot().live_nodes().next().unwrap();
        let report = disseminate_push_pull_dense(
            &small_dense,
            &selector,
            small_origin,
            &config,
            &mut ChaCha8Rng::seed_from_u64(18),
            &mut scratch,
        )
        .report(&small_dense, &scratch);
        assert_eq!(report.push.population, 60);
        // And the big overlay again, identical to the first run.
        let again = disseminate_push_pull_dense(
            &big_dense,
            &selector,
            origin,
            &config,
            &mut ChaCha8Rng::seed_from_u64(16),
            &mut scratch,
        )
        .report(&big_dense, &scratch);
        assert_eq!(first, again);
    }

    #[test]
    fn report_accounting_is_consistent() {
        let overlay = warmed_overlay(300, 9);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let origin = overlay.snapshot().live_nodes().next().unwrap();
        let report = disseminate_push_pull(
            &overlay,
            &DenseSelector::randcast(2),
            origin,
            &PullConfig {
                fanout: 1,
                max_rounds: 50,
                ..PullConfig::default()
            },
            &mut rng,
        );
        assert_eq!(
            report.reached_after_pull + report.unreached_after_pull.len(),
            report.push.population
        );
        assert_eq!(report.per_round_new.len(), report.pull_rounds);
        assert!(report.pull_transfers <= report.pull_requests);
        assert!(report.hit_ratio() >= report.push.hit_ratio());
    }

    #[test]
    fn lossy_polls_slow_the_pull_phase_but_equality_holds_across_engines() {
        use crate::netmodel::{LossModel, NetModel};
        let overlay = warmed_overlay(400, 19);
        let dense = crate::overlay::DenseOverlay::from(&overlay);
        let origin = overlay.snapshot().live_nodes().next().unwrap();
        let clean = PullConfig {
            fanout: 1,
            max_rounds: 60,
            ..PullConfig::default()
        };
        let lossy = PullConfig {
            net: NetModel {
                loss: LossModel::Iid { rate: 0.5 },
                ..NetModel::default()
            },
            ..clean.clone()
        };
        let baseline = disseminate_push_pull(
            &overlay,
            &DenseSelector::randcast(2),
            origin,
            &clean,
            &mut ChaCha8Rng::seed_from_u64(20),
        );
        let degraded = disseminate_push_pull(
            &overlay,
            &DenseSelector::randcast(2),
            origin,
            &lossy,
            &mut ChaCha8Rng::seed_from_u64(20),
        );
        assert!(degraded.polls_lost > 0, "half the polls should be eaten");
        assert_eq!(degraded.polls_blocked, 0);
        assert!(
            degraded.pull_rounds >= baseline.pull_rounds,
            "loss cannot speed up anti-entropy: {} < {}",
            degraded.pull_rounds,
            baseline.pull_rounds
        );
        // Dense engine stays bit-identical under the lossy model.
        let mut scratch = DensePullScratch::new();
        let fast = disseminate_push_pull_dense(
            &dense,
            &DenseSelector::randcast(2),
            origin,
            &lossy,
            &mut ChaCha8Rng::seed_from_u64(20),
            &mut scratch,
        )
        .report(&dense, &scratch);
        assert_eq!(degraded, fast);
    }

    #[test]
    fn partitioned_rounds_block_cross_cut_polls() {
        use crate::netmodel::{NetModel, PartitionEvent};
        let overlay = warmed_overlay(400, 21);
        let origin = overlay.snapshot().live_nodes().next().unwrap();
        // Partition covering pull rounds 1–5 (time axis = round index).
        let config = PullConfig {
            fanout: 2,
            max_rounds: 40,
            net: NetModel {
                partitions: vec![PartitionEvent::bisection(1.0, 5.0, 0xBEEF)],
                ..NetModel::default()
            },
        };
        let report = disseminate_push_pull(
            &overlay,
            &DenseSelector::randcast(2),
            origin,
            &config,
            &mut ChaCha8Rng::seed_from_u64(22),
        );
        if report.pull_rounds > 0 {
            assert!(
                report.polls_blocked > 0,
                "a balanced bisection must block some cross-cut polls"
            );
        }
        assert!(
            report.is_complete(),
            "polling resumes across the healed cut and closes the gap"
        );
    }
}
