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
//! [`disseminate_push_pull_dense`] runs the model over a CSR
//! [`DenseOverlay`] and a reusable [`DensePullScratch`]: the push phase runs
//! on [`crate::engine::disseminate_dense`], the holder set is a bitset
//! seeded straight from the push scratch, and each pull round polls over
//! borrowed index slices. It returns `Copy` [`DensePullRunStats`], whose
//! [`DensePullRunStats::report`] is a [`PushPullReport`] bit-identical to
//! that of the id-keyed `BTreeSet` oracle in `hybridcast-oracle` for the
//! same overlay, selector, origin and seed, pinned by differential
//! property tests.
//!
//! Like the paper's own evaluation, both phases assume every message
//! arrives: the adversarial network models of [`crate::netmodel`] apply to
//! the event-driven engine ([`crate::async_engine`]) only.

// D3: index casts go through `hybridcast_graph::cast`; tests are exempt.
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

use rand::seq::SliceRandom;
use rand::RngCore;

use hybridcast_graph::cast::to_u32;
use hybridcast_graph::NodeId;
use hybridcast_obs::{NullProbe, Probe, TraceEvent};

use crate::engine::{disseminate_dense_probed, DenseRunStats, DenseScratch};
use crate::metrics::DisseminationReport;
use crate::overlay::{DenseBits, DenseOverlay, NO_NODE};
use crate::protocols::DenseSelector;

/// Configuration of the pull phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PullConfig {
    /// Number of random neighbours each still-missing node polls per round.
    pub fanout: usize,
    /// Maximum number of pull rounds before giving up.
    pub max_rounds: usize,
}

impl Default for PullConfig {
    fn default() -> Self {
        PullConfig {
            fanout: 1,
            max_rounds: 20,
        }
    }
}

impl PullConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the pull fanout is zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.fanout == 0 {
            return Err("pull fanout must be positive".into());
        }
        Ok(())
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
    per_round_new: Vec<usize>,
}

impl DensePullScratch {
    /// Creates an empty scratch; buffers grow to the overlay size on first
    /// use and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Scalar accounting of one dense push + pull run: everything
/// [`disseminate_push_pull_dense`] returns is `Copy`, so the run never
/// touches the allocator.
///
/// The per-round series and the holder bitset stay behind in the
/// [`DensePullScratch`]; [`DensePullRunStats::report`] reads them back into
/// the id-keyed [`PushPullReport`].
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
}

impl DensePullRunStats {
    /// Materialises the id-keyed [`PushPullReport`], equal field for field
    /// to what the id-keyed oracle returns for the same overlay,
    /// selector, origin, configuration and seed. `overlay` and `scratch`
    /// must be the ones the run was given, and the scratch must not have
    /// served another run since. This is the only part of a dense run that
    /// allocates, and it is O(population).
    pub fn report(&self, overlay: &DenseOverlay, scratch: &DensePullScratch) -> PushPullReport {
        // Dense indices ascend by id, so the unreached list is ordered by
        // id, like the oracle's.
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
        }
    }
}

/// Runs a push dissemination followed by pull-based anti-entropy rounds
/// over a [`DenseOverlay`].
///
/// During each pull round every live node that does not yet hold the
/// message polls `config.fanout` random neighbours from its r-links; if at
/// least one of them already holds the message, the node obtains it at the
/// end of the round (rounds are synchronous, matching the cycle-based model
/// of the rest of the evaluation). The push phase is
/// [`crate::engine::disseminate_dense`]. The round model, the accounting
/// and the RNG draw sequence are those of the id-keyed oracle in
/// `hybridcast-oracle`, whose [`PushPullReport`]
/// [`DensePullRunStats::report`] equals field for field.
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
/// use hybridcast_core::pull::{disseminate_push_pull_dense, DensePullScratch, PullConfig};
/// use hybridcast_core::overlay::DenseOverlay;
/// use hybridcast_core::protocols::DenseSelector;
/// use hybridcast_graph::{builders, DiGraph, NodeId};
/// use rand::SeedableRng;
///
/// let ids: Vec<NodeId> = (0..48).map(NodeId::new).collect();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let random = builders::random_out_degree(&ids, 5, &mut rng);
/// let overlay = DenseOverlay::from_graphs(&DiGraph::new(), &random);
/// let selector = DenseSelector::randcast(2);
/// let config = PullConfig { fanout: 2, max_rounds: 30 };
///
/// let mut scratch = DensePullScratch::new();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
/// let stats = disseminate_push_pull_dense(&overlay, &selector, ids[0], &config, &mut rng, &mut scratch);
/// assert!(stats.reached_after_pull >= stats.push.reached, "pulling only adds holders");
/// let report = stats.report(&overlay, &scratch);
/// assert_eq!(report.per_round_new.len(), report.pull_rounds);
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
/// The push phase emits its usual stream, then each pull round adds
/// `PullRequest`, `PullTransfer` and `RoundEnd` events — exactly the
/// stream the id-keyed oracle emits for the same overlay, selector,
/// origin, configuration and seed. With an allocation-free sink the
/// warm-run zero-allocation contract holds unchanged.
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
        per_round_new,
    } = scratch;
    per_round_new.clear();
    // Only live nodes are ever notified, so the push engine's notified
    // bitset *is* the initial holder set.
    holders.copy_from(push_scratch.notified());
    let mut holder_count = push.reached;
    let live_count = overlay.live_len();

    let mut pull_rounds = 0usize;
    let mut pull_requests = 0usize;
    let mut pull_transfers = 0usize;

    while holder_count < live_count && pull_rounds < config.max_rounds {
        pull_rounds += 1;
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
            let mut serving = NO_NODE;
            for &peer in neighbours.iter() {
                probe.record(TraceEvent::PullRequest {
                    from: node_id,
                    to: overlay.node_id(peer).as_u64(),
                    round: round_u,
                });
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
            // Three consecutive dry rounds: the remaining nodes almost
            // certainly have no live links into the holder set (isolated by
            // failures); polling further cannot help. Fewer than three
            // recorded rounds never trigger the cutoff — a single unlucky
            // all-miss round must not end the phase.
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::disseminate_dense;
    use crate::overlay::tests::{warmed_network, warmed_overlay};
    use crate::overlay::Overlay;
    use hybridcast_graph::{builders, DiGraph};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// One push + pull run over a fresh scratch, as the id-keyed report.
    fn disseminate_push_pull(
        overlay: &DenseOverlay,
        selector: &DenseSelector,
        origin: NodeId,
        config: &PullConfig,
        rng: &mut dyn RngCore,
    ) -> PushPullReport {
        let mut scratch = DensePullScratch::new();
        disseminate_push_pull_dense(overlay, selector, origin, config, rng, &mut scratch)
            .report(overlay, &scratch)
    }

    #[test]
    fn pull_config_validation() {
        assert!(PullConfig::default().validate().is_ok());
        assert!(PullConfig {
            fanout: 0,
            max_rounds: 5,
        }
        .validate()
        .is_err());
    }

    #[test]
    #[should_panic(expected = "invalid pull configuration")]
    fn invalid_config_panics() {
        let ids: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        let overlay =
            DenseOverlay::from_graphs(&builders::bidirectional_ring(&ids), &DiGraph::new());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        disseminate_push_pull(
            &overlay,
            &DenseSelector::ringcast(1),
            NodeId::new(0),
            &PullConfig {
                fanout: 0,
                max_rounds: 1,
            },
            &mut rng,
        );
    }

    #[test]
    fn pull_is_a_no_op_when_push_already_completed() {
        let overlay = warmed_overlay(200, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let origin = overlay.live_node_ids()[0];
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
        let origin = overlay.live_node_ids()[0];
        let report = disseminate_push_pull(
            &overlay,
            &DenseSelector::randcast(2),
            origin,
            &PullConfig {
                fanout: 2,
                max_rounds: 30,
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
        let mut snapshot = warmed_network(400, 5).overlay_snapshot();
        let mut failure_rng = ChaCha8Rng::seed_from_u64(6);
        hybridcast_sim::failure::kill_fraction_in_snapshot(&mut snapshot, 0.10, &mut failure_rng);
        let overlay = DenseOverlay::from_snapshot(&snapshot);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let origin = overlay.live_node_ids()[0];
        let mut scratch = DenseScratch::new();
        let push_only = disseminate_dense(
            &overlay,
            &DenseSelector::randcast(3),
            origin,
            &mut rng,
            &mut scratch,
        );
        let with_pull = disseminate_push_pull(
            &overlay,
            &DenseSelector::randcast(3),
            origin,
            &PullConfig {
                fanout: 2,
                max_rounds: 30,
            },
            &mut rng,
        );
        assert!(with_pull.reached_after_pull >= push_only.reached);
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
        let mut ring = builders::bidirectional_ring(&ids[..18]);
        ring.add_node(NodeId::new(18));
        ring.add_node(NodeId::new(19));
        let overlay = DenseOverlay::from_graphs(&ring, &DiGraph::new());
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let report = disseminate_push_pull(
            &overlay,
            &DenseSelector::ringcast(2),
            ids[0],
            &PullConfig {
                fanout: 1,
                max_rounds: 1_000,
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
    fn dense_pull_scratch_is_reusable_across_runs_and_overlays() {
        let big_dense = warmed_overlay(200, 15);
        let origin = big_dense.live_node_ids()[0];
        let selector = DenseSelector::randcast(2);
        let config = PullConfig {
            fanout: 1,
            max_rounds: 30,
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
        let small_dense = warmed_overlay(60, 17);
        let small_origin = small_dense.live_node_ids()[0];
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
        let origin = overlay.live_node_ids()[0];
        let report = disseminate_push_pull(
            &overlay,
            &DenseSelector::randcast(2),
            origin,
            &PullConfig {
                fanout: 1,
                max_rounds: 50,
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
}
