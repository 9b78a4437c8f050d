//! The hop-synchronous dissemination engine (the model of Section 7).
//!
//! The paper evaluates disseminations in discrete rounds called *hops*: the
//! generation of a message is hop 0; at hop 1 it reaches the origin's gossip
//! targets; at hop `k + 1` it reaches the targets of every node first
//! notified at hop `k`. The engine reproduces that model exactly over a
//! frozen overlay: the paper verifies (Section 7.1) that freezing the
//! membership gossip does not change the macroscopic behaviour, so a frozen
//! overlay plus a hop-synchronous sweep is a faithful stand-in for the
//! asynchronous real-time process.
//!
//! [`disseminate_dense`] runs the model over a CSR [`DenseOverlay`] and a
//! reusable [`DenseScratch`] without touching the allocator, and returns
//! `Copy` [`DenseRunStats`]; [`DenseRunStats::report`] materialises the
//! id-keyed [`DisseminationReport`]. The readable `BTreeSet` version of the
//! same engine lives in the test-only `hybridcast-oracle` crate, which the
//! differential tests check this one against bit for bit per seed.

// D3: index casts go through `hybridcast_graph::cast`; tests are exempt.
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

use std::collections::BTreeMap;

use rand::RngCore;

use hybridcast_graph::cast::{idx, to_u32};
use hybridcast_graph::NodeId;
use hybridcast_obs::{DeliveryOutcome, NullProbe, Probe, TraceEvent};

use crate::metrics::DisseminationReport;
use crate::overlay::{DenseBits, DenseOverlay, NO_NODE};
use crate::protocols::DenseSelector;

/// Reusable scratch buffers for [`disseminate_dense`].
///
/// One complete dissemination over a warm scratch performs no heap
/// allocation in its hot loop: the notified set is a bitset, the per-node
/// counters are flat `u32` arrays, and the frontier / target / draw buffers
/// are reused across hops and across runs. Create one per worker thread and
/// pass it to every run.
#[derive(Debug, Clone, Default)]
pub struct DenseScratch {
    notified: DenseBits,
    received: Vec<u32>,
    forwarded: Vec<u32>,
    frontier: Vec<(u32, u32)>,
    next_frontier: Vec<(u32, u32)>,
    targets: Vec<u32>,
    pool: Vec<u32>,
    per_hop_new: Vec<usize>,
    per_hop_messages: Vec<usize>,
}

impl DenseScratch {
    /// Creates an empty scratch; buffers grow to the overlay size on first
    /// use and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// The notified-set bitset of the most recent run: live nodes that hold
    /// the message. The pull engine seeds its holder set from this without
    /// re-deriving it from the id-keyed report.
    pub(crate) fn notified(&self) -> &DenseBits {
        &self.notified
    }

    fn reset(&mut self, len: usize) {
        self.notified.reset(len);
        self.received.clear();
        self.received.resize(len, 0);
        self.forwarded.clear();
        self.forwarded.resize(len, 0);
        self.frontier.clear();
        self.next_frontier.clear();
        self.targets.clear();
        self.pool.clear();
        self.per_hop_new.clear();
        self.per_hop_messages.clear();
    }
}

/// Scalar accounting of one dense dissemination: everything
/// [`disseminate_dense`] returns is `Copy`, so the run never touches the
/// allocator.
///
/// The per-hop series and per-node counters of the run stay behind in the
/// [`DenseScratch`]; [`DenseRunStats::report`] reads them back into the
/// id-keyed [`DisseminationReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DenseRunStats {
    /// The node the message originated at.
    pub origin: NodeId,
    /// Live nodes at dissemination time.
    pub population: usize,
    /// Nodes holding the message when the dissemination died out.
    pub reached: usize,
    /// Last hop at which a virgin node was notified.
    pub last_hop: usize,
    /// Messages that notified a virgin node.
    pub messages_to_virgin: usize,
    /// Redundant messages to already-notified nodes.
    pub messages_to_notified: usize,
    /// Messages absorbed by dead nodes.
    pub messages_to_dead: usize,
}

impl DenseRunStats {
    /// Total messages sent over the run.
    pub fn total_messages(&self) -> usize {
        self.messages_to_virgin + self.messages_to_notified + self.messages_to_dead
    }

    /// Materialises the id-keyed [`DisseminationReport`] all metrics and
    /// figure code is written against, equal field for field to what the
    /// id-keyed oracle returns for the same overlay, selector, origin and
    /// seed. `overlay` and `scratch` must be the ones the run was given,
    /// and the scratch must not have served another run since. This is the
    /// only part of a dense dissemination that allocates, and it is
    /// O(population) — independent of message count.
    pub fn report(&self, overlay: &DenseOverlay, scratch: &DenseScratch) -> DisseminationReport {
        let mut received_counts: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut forwarded_counts: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut unreached: Vec<NodeId> = Vec::new();
        for i in 0..to_u32(overlay.len()) {
            let id = overlay.node_id(i);
            if scratch.received[idx(i)] > 0 {
                received_counts.insert(id, idx(scratch.received[idx(i)]));
            }
            if scratch.notified.get(i) {
                forwarded_counts.insert(id, idx(scratch.forwarded[idx(i)]));
            } else if overlay.is_live_idx(i) {
                unreached.push(id);
            }
        }

        DisseminationReport {
            origin: self.origin,
            population: self.population,
            reached: self.reached,
            last_hop: self.last_hop,
            per_hop_new: scratch.per_hop_new.clone(),
            per_hop_messages: scratch.per_hop_messages.clone(),
            messages_to_virgin: self.messages_to_virgin,
            messages_to_notified: self.messages_to_notified,
            messages_to_dead: self.messages_to_dead,
            received_counts,
            forwarded_counts,
            unreached,
        }
    }
}

/// Runs one complete dissemination of a message originating at `origin`
/// over a [`DenseOverlay`], using `selector` to pick gossip targets.
///
/// Dead targets absorb messages without forwarding them (counted in
/// [`DenseRunStats::messages_to_dead`]); live targets that have already
/// seen the message ignore it (counted in
/// [`DenseRunStats::messages_to_notified`]). Node identities are dense
/// `u32` indices, link access is borrowed slices, and all per-run state
/// lives in the caller-provided [`DenseScratch`]. The model, the accounting
/// and the RNG draw sequence are those of the id-keyed oracle in
/// `hybridcast-oracle`, whose report [`DenseRunStats::report`] equals field
/// for field.
///
/// Over a warm scratch (one prior run of at least this overlay size and
/// message volume) the call performs **zero heap allocations** — the
/// invariant `tests/zero_alloc.rs` pins with a counting allocator.
///
/// # Panics
///
/// Panics if `origin` is not a live node of the overlay.
///
/// # Example
///
/// ```
/// use hybridcast_core::engine::{disseminate_dense, DenseScratch};
/// use hybridcast_core::overlay::DenseOverlay;
/// use hybridcast_core::protocols::DenseSelector;
/// use hybridcast_graph::{builders, DiGraph, NodeId};
/// use rand::SeedableRng;
///
/// let ids: Vec<NodeId> = (0..8).map(NodeId::new).collect();
/// let ring = builders::bidirectional_ring(&ids);
/// let overlay = DenseOverlay::from_graphs(&ring, &DiGraph::new());
/// let mut scratch = DenseScratch::new();
/// let flooding = DenseSelector::DeterministicFlooding;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let stats = disseminate_dense(&overlay, &flooding, ids[0], &mut rng, &mut scratch);
/// assert_eq!(stats.reached, 8);
/// assert_eq!(stats.last_hop, 4, "half-way around an 8-node ring");
/// assert!(stats.report(&overlay, &scratch).is_complete());
/// ```
pub fn disseminate_dense(
    overlay: &DenseOverlay,
    selector: &DenseSelector,
    origin: NodeId,
    rng: &mut dyn RngCore,
    scratch: &mut DenseScratch,
) -> DenseRunStats {
    disseminate_dense_probed(overlay, selector, origin, rng, scratch, &mut NullProbe)
}

/// [`disseminate_dense`] with a [`Probe`] attached.
///
/// Emits `RunStart`, then per message `Sent` + `Delivered`, `HopEnd` per
/// frontier expansion and a final `RunEnd` — exactly the stream the
/// id-keyed oracle emits for the same overlay, selector, origin and seed:
/// events carry raw `u64` node ids, so the dense index layout is invisible
/// in the trace. Probes observe, they never steer: no probe touches the
/// RNG, so the stats are identical for every probe. With an
/// allocation-free sink (the ring buffer, a metrics registry, or
/// [`NullProbe`]) the warm-run zero-allocation contract holds unchanged —
/// `tests/zero_alloc.rs` pins both modes.
///
/// # Panics
///
/// Panics if `origin` is not a live node of the overlay.
pub fn disseminate_dense_probed<P: Probe>(
    overlay: &DenseOverlay,
    selector: &DenseSelector,
    origin: NodeId,
    rng: &mut dyn RngCore,
    scratch: &mut DenseScratch,
    probe: &mut P,
) -> DenseRunStats {
    let origin_idx = overlay.index_of(origin).filter(|&i| overlay.is_live_idx(i));
    let Some(origin_idx) = origin_idx else {
        panic!("dissemination origin {origin} is not a live node");
    };

    let len = overlay.len();
    scratch.reset(len);
    let DenseScratch {
        notified,
        received,
        forwarded,
        frontier,
        next_frontier,
        targets,
        pool,
        per_hop_new,
        per_hop_messages,
    } = scratch;

    probe.record(TraceEvent::RunStart {
        origin: origin.as_u64(),
        population: overlay.live_len() as u64,
    });
    probe.record(TraceEvent::Delivered {
        node: origin.as_u64(),
        from: origin.as_u64(),
        hop: 0,
        outcome: DeliveryOutcome::Virgin,
    });
    notified.set(origin_idx);
    frontier.push((origin_idx, NO_NODE));

    per_hop_new.push(1);
    per_hop_messages.push(0);
    let mut messages_to_virgin = 0usize;
    let mut messages_to_notified = 0usize;
    let mut messages_to_dead = 0usize;
    let mut last_hop = 0usize;
    let mut hop = 0usize;

    while !frontier.is_empty() {
        hop += 1;
        let hop_u = to_u32(hop);
        let mut hop_messages = 0usize;
        let mut hop_new = 0usize;

        for &(node, from) in frontier.iter() {
            let links = (overlay.d_links_of(node), overlay.r_links_of(node));
            selector.select(node, from, links, rng, targets, pool);
            forwarded[idx(node)] += to_u32(targets.len());
            hop_messages += targets.len();
            let from_id = overlay.node_id(node).as_u64();
            for &target in targets.iter() {
                let target_id = overlay.node_id(target).as_u64();
                probe.record(TraceEvent::Sent {
                    from: from_id,
                    to: target_id,
                    hop: hop_u,
                });
                if !overlay.is_live_idx(target) {
                    messages_to_dead += 1;
                    probe.record(TraceEvent::Delivered {
                        node: target_id,
                        from: from_id,
                        hop: hop_u,
                        outcome: DeliveryOutcome::Dead,
                    });
                    continue;
                }
                received[idx(target)] += 1;
                if notified.set(target) {
                    messages_to_virgin += 1;
                    hop_new += 1;
                    next_frontier.push((target, node));
                    probe.record(TraceEvent::Delivered {
                        node: target_id,
                        from: from_id,
                        hop: hop_u,
                        outcome: DeliveryOutcome::Virgin,
                    });
                } else {
                    messages_to_notified += 1;
                    probe.record(TraceEvent::Delivered {
                        node: target_id,
                        from: from_id,
                        hop: hop_u,
                        outcome: DeliveryOutcome::Duplicate,
                    });
                }
            }
        }

        per_hop_messages.push(hop_messages);
        per_hop_new.push(hop_new);
        if hop_new > 0 {
            last_hop = hop;
        }
        probe.record(TraceEvent::HopEnd {
            hop: hop_u,
            new: hop_new as u64,
            messages: hop_messages as u64,
        });
        std::mem::swap(frontier, next_frontier);
        next_frontier.clear();
    }
    probe.record(TraceEvent::RunEnd {
        reached: (1 + messages_to_virgin) as u64,
    });

    DenseRunStats {
        origin,
        population: overlay.live_len(),
        reached: 1 + messages_to_virgin,
        last_hop,
        messages_to_virgin,
        messages_to_notified,
        messages_to_dead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::tests::warmed_overlay;
    use crate::overlay::Overlay;
    use hybridcast_graph::{builders, DiGraph};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    fn ids(count: u64) -> Vec<NodeId> {
        (0..count).map(NodeId::new).collect()
    }

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn deterministic(d_graph: &DiGraph) -> DenseOverlay {
        DenseOverlay::from_graphs(d_graph, &DiGraph::new())
    }

    /// One dissemination over a fresh scratch, as the id-keyed report.
    fn disseminate(
        overlay: &DenseOverlay,
        selector: &DenseSelector,
        origin: NodeId,
        rng: &mut ChaCha8Rng,
    ) -> DisseminationReport {
        let mut scratch = DenseScratch::new();
        disseminate_dense(overlay, selector, origin, rng, &mut scratch).report(overlay, &scratch)
    }

    #[test]
    #[should_panic(expected = "not a live node")]
    fn dead_origin_panics() {
        let overlay = deterministic(&DiGraph::new());
        disseminate(&overlay, &DenseSelector::Flooding, n(0), &mut rng(0));
    }

    #[test]
    fn flooding_a_ring_reaches_everyone_in_n_over_2_hops() {
        let overlay = deterministic(&builders::bidirectional_ring(&ids(10)));
        let report = disseminate(
            &overlay,
            &DenseSelector::DeterministicFlooding,
            n(0),
            &mut rng(1),
        );
        assert!(report.is_complete());
        assert_eq!(report.last_hop, 5);
        assert_eq!(report.reached, 10);
        // The ring sends exactly 2 messages per hop except the final
        // collision hop, for 2 * N/2 messages reaching 9 virgin nodes.
        assert_eq!(report.messages_to_virgin, 9);
        assert_eq!(report.per_hop_new[1], 2);
    }

    #[test]
    fn flooding_a_clique_takes_one_hop_with_quadratic_overhead() {
        let overlay = deterministic(&builders::clique(&ids(12)));
        let report = disseminate(
            &overlay,
            &DenseSelector::DeterministicFlooding,
            n(3),
            &mut rng(2),
        );
        assert!(report.is_complete());
        assert_eq!(report.last_hop, 1);
        assert_eq!(report.messages_to_virgin, 11);
        // Every other node forwards to everyone again: 11 * 10 redundant.
        assert_eq!(report.messages_to_notified, 11 * 10);
    }

    #[test]
    fn flooding_a_star_reaches_leaves_in_two_hops() {
        let leaves = ids(20)[1..].to_vec();
        let overlay = deterministic(&builders::star(n(0), &leaves));
        // From a leaf: hop 1 reaches the hub, hop 2 all other leaves.
        let report = disseminate(
            &overlay,
            &DenseSelector::DeterministicFlooding,
            n(5),
            &mut rng(3),
        );
        assert!(report.is_complete());
        assert_eq!(report.last_hop, 2);
    }

    #[test]
    fn disconnected_overlay_is_not_fully_reached() {
        let mut links = DiGraph::new();
        links.add_edge(n(0), n(1));
        links.add_edge(n(1), n(0));
        links.add_node(n(2)); // isolated
        let report = disseminate(
            &deterministic(&links),
            &DenseSelector::DeterministicFlooding,
            n(0),
            &mut rng(4),
        );
        assert_eq!(report.reached, 2);
        assert_eq!(report.unreached, vec![n(2)]);
        assert!((report.miss_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn dead_nodes_absorb_messages() {
        let mut overlay = deterministic(&builders::bidirectional_ring(&ids(6)));
        overlay.kill_node(n(3));
        let report = disseminate(
            &overlay,
            &DenseSelector::DeterministicFlooding,
            n(0),
            &mut rng(5),
        );
        // The ring is cut at node 3 but the message flows around the other
        // side; only node 3 is dead, all 5 live nodes are reached.
        assert_eq!(report.population, 5);
        assert!(report.is_complete());
        assert!(report.messages_to_dead >= 1);
    }
    #[test]
    fn ringcast_is_complete_on_warmed_overlay_even_at_fanout_one() {
        let overlay = warmed_overlay(200, 6);
        let origin = overlay.live_node_ids()[17];
        let report = disseminate(&overlay, &DenseSelector::ringcast(1), origin, &mut rng(7));
        assert!(
            report.is_complete(),
            "RingCast must reach all {} nodes, reached {}",
            report.population,
            report.reached
        );
    }

    #[test]
    fn randcast_low_fanout_misses_nodes_ringcast_does_not() {
        let overlay = warmed_overlay(300, 8);
        let origin = overlay.live_node_ids()[0];
        let mut rand_misses = 0usize;
        for seed in 0..5 {
            let report = disseminate(
                &overlay,
                &DenseSelector::randcast(2),
                origin,
                &mut rng(100 + seed),
            );
            rand_misses += report.population - report.reached;
            let ring_report = disseminate(
                &overlay,
                &DenseSelector::ringcast(2),
                origin,
                &mut rng(200 + seed),
            );
            assert!(ring_report.is_complete());
        }
        assert!(
            rand_misses > 0,
            "RandCast with fanout 2 should miss at least one node over 5 runs"
        );
    }

    #[test]
    fn message_overhead_equals_fanout_times_hits_for_randcast() {
        // Every notified node forwards exactly F messages (view >= F), so
        // total messages = F * reached, the identity behind Figure 8.
        let overlay = warmed_overlay(300, 9);
        let origin = overlay.live_node_ids()[42];
        let fanout = 4;
        let report = disseminate(
            &overlay,
            &DenseSelector::randcast(fanout),
            origin,
            &mut rng(10),
        );
        assert_eq!(report.total_messages(), fanout * report.reached);
    }

    #[test]
    fn per_hop_series_are_consistent() {
        let overlay = warmed_overlay(200, 11);
        let origin = overlay.live_node_ids()[3];
        let report = disseminate(&overlay, &DenseSelector::ringcast(3), origin, &mut rng(12));
        // The series cover every hop including the final redundant sweep
        // (one hop past last_hop, notifying nobody new).
        assert_eq!(report.per_hop_new.len(), report.per_hop_messages.len());
        assert_eq!(report.per_hop_new.len(), report.last_hop + 2);
        assert_eq!(*report.per_hop_new.last().unwrap(), 0);
        assert_eq!(report.per_hop_new.iter().sum::<usize>(), report.reached);
        assert_eq!(
            report.per_hop_messages.iter().sum::<usize>(),
            report.total_messages(),
            "per-hop messages must account for every message sent"
        );
        let cumulative = report.cumulative_reached();
        assert_eq!(*cumulative.last().unwrap(), report.reached);
        let not_reached = report.not_reached_after_hop();
        assert!(not_reached.last().unwrap().abs() < 1e-12, "complete");
    }

    #[test]
    #[should_panic(expected = "not a live node")]
    fn dense_dead_origin_panics() {
        let mut links = DiGraph::new();
        links.add_edge(n(0), n(1));
        let mut dense = deterministic(&links);
        dense.kill_node(n(1));
        let mut scratch = DenseScratch::new();
        disseminate_dense(
            &dense,
            &DenseSelector::Flooding,
            n(1),
            &mut rng(0),
            &mut scratch,
        );
    }

    #[test]
    fn dense_scratch_is_reusable_across_runs_and_overlays() {
        let mut scratch = DenseScratch::new();
        let big_dense = warmed_overlay(150, 30);
        let origin = big_dense.live_node_ids()[0];
        let first = disseminate_dense(
            &big_dense,
            &DenseSelector::ringcast(3),
            origin,
            &mut rng(1),
            &mut scratch,
        )
        .report(&big_dense, &scratch);
        // A smaller overlay afterwards: buffers shrink correctly.
        let small_dense = deterministic(&builders::bidirectional_ring(&ids(10)));
        let report = disseminate_dense(
            &small_dense,
            &DenseSelector::DeterministicFlooding,
            n(0),
            &mut rng(2),
            &mut scratch,
        )
        .report(&small_dense, &scratch);
        assert!(report.is_complete());
        assert_eq!(report.population, 10);
        // And the big overlay again, identical to the first run.
        let again = disseminate_dense(
            &big_dense,
            &DenseSelector::ringcast(3),
            origin,
            &mut rng(1),
            &mut scratch,
        )
        .report(&big_dense, &scratch);
        assert_eq!(first, again);
    }

    #[test]
    fn received_counts_cover_every_non_origin_reached_node() {
        let overlay = warmed_overlay(150, 13);
        let origin = overlay.live_node_ids()[7];
        let report = disseminate(&overlay, &DenseSelector::ringcast(3), origin, &mut rng(14));
        // Every reached node other than the origin received at least once.
        // (The origin itself may or may not appear, depending on whether a
        // redundant copy happened to be addressed to it.)
        for node in overlay.live_node_ids() {
            if node != origin && !report.unreached.contains(&node) {
                assert!(
                    report.received_counts.contains_key(&node),
                    "reached node {node} missing from received_counts"
                );
            }
        }
        assert!(report.received_counts.len() >= report.reached - 1);
        assert!(report.received_counts.len() <= report.reached);
        // Total receive events match the virgin + notified message count.
        let total_received: usize = report.received_counts.values().sum();
        assert_eq!(
            total_received,
            report.messages_to_virgin + report.messages_to_notified
        );
    }

    #[test]
    fn load_is_roughly_uniform_across_nodes() {
        let overlay = warmed_overlay(300, 15);
        let origin = overlay.live_node_ids()[0];
        let report = disseminate(&overlay, &DenseSelector::ringcast(4), origin, &mut rng(16));
        // Every notified node forwards; the per-node forwarding load stays
        // within a small constant of the fanout.
        assert_eq!(report.forwarded_counts.len(), report.reached);
        let max = report.forwarded_counts.values().max().copied().unwrap_or(0);
        assert!(max <= 6, "forwarding load {max} exceeds 6");
    }
}
