//! The id-keyed hop-synchronous engine: the reference
//! `hybridcast_core::engine::disseminate_dense` is checked against.

use std::collections::{BTreeMap, BTreeSet};

use rand::RngCore;

use hybridcast_core::metrics::DisseminationReport;
use hybridcast_core::overlay::Overlay;
use hybridcast_core::protocols::DenseSelector;
use hybridcast_graph::cast::to_u32;
use hybridcast_graph::NodeId;
use hybridcast_obs::{DeliveryOutcome, Probe, TraceEvent};

/// Runs one complete dissemination of a message originating at `origin`
/// over the given overlay, using `selector` to pick gossip targets, and
/// returns the full accounting.
///
/// Dead targets absorb messages without forwarding them (the message is
/// counted in [`DisseminationReport::messages_to_dead`]); live targets that
/// have already seen the message ignore it (counted in
/// [`DisseminationReport::messages_to_notified`]).
///
/// The probe receives the structured trace stream of the run (`RunStart`,
/// then per message `Sent` + `Delivered`, `HopEnd` per frontier expansion,
/// and a final `RunEnd`). Probes observe, they never steer: no probe
/// touches the RNG, so the returned report is identical for every probe.
///
/// # Panics
///
/// Panics if `origin` is not a live node of the overlay.
///
/// # Example
///
/// ```
/// use hybridcast_graph::{builders, NodeId};
/// use hybridcast_core::protocols::DenseSelector;
/// use hybridcast_obs::NullProbe;
/// use hybridcast_oracle::{disseminate, StaticOverlay};
/// use rand::SeedableRng;
///
/// let ids: Vec<NodeId> = (0..8).map(NodeId::new).collect();
/// let overlay = StaticOverlay::deterministic(&builders::bidirectional_ring(&ids));
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let flooding = DenseSelector::DeterministicFlooding;
/// let report = disseminate(&overlay, &flooding, ids[0], &mut rng, &mut NullProbe);
/// assert!(report.is_complete());
/// assert_eq!(report.last_hop, 4, "half-way around an 8-node ring");
/// ```
pub fn disseminate<P: Probe>(
    overlay: &dyn Overlay,
    selector: &DenseSelector,
    origin: NodeId,
    rng: &mut dyn RngCore,
    probe: &mut P,
) -> DisseminationReport {
    assert!(
        overlay.is_live(origin),
        "dissemination origin {origin} is not a live node"
    );

    let population = overlay.live_count();
    probe.record(TraceEvent::RunStart {
        origin: origin.as_u64(),
        population: population as u64,
    });
    probe.record(TraceEvent::Delivered {
        node: origin.as_u64(),
        from: origin.as_u64(),
        hop: 0,
        outcome: DeliveryOutcome::Virgin,
    });
    let mut notified: BTreeSet<NodeId> = BTreeSet::new();
    notified.insert(origin);

    let mut received_counts: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut forwarded_counts: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut per_hop_new = vec![1usize];
    let mut per_hop_messages = vec![0usize];
    let mut messages_to_virgin = 0usize;
    let mut messages_to_notified = 0usize;
    let mut messages_to_dead = 0usize;
    let mut last_hop = 0usize;

    // Frontier of (node, sender) pairs notified in the previous hop; the
    // origin is its own sender.
    let mut frontier: Vec<(NodeId, NodeId)> = vec![(origin, origin)];
    let (mut targets, mut pool) = (Vec::new(), Vec::new());
    let mut hop = 0usize;

    while !frontier.is_empty() {
        hop += 1;
        let hop_u = to_u32(hop);
        let mut next_frontier: Vec<(NodeId, NodeId)> = Vec::new();
        let mut hop_messages = 0usize;
        let mut hop_new = 0usize;

        for (node, from) in frontier {
            let (d_links, r_links) = (overlay.d_links(node), overlay.r_links(node));
            selector.select(
                node,
                from,
                (&d_links, &r_links),
                rng,
                &mut targets,
                &mut pool,
            );
            *forwarded_counts.entry(node).or_insert(0) += targets.len();
            hop_messages += targets.len();
            for &target in &targets {
                probe.record(TraceEvent::Sent {
                    from: node.as_u64(),
                    to: target.as_u64(),
                    hop: hop_u,
                });
                if !overlay.is_live(target) {
                    messages_to_dead += 1;
                    probe.record(TraceEvent::Delivered {
                        node: target.as_u64(),
                        from: node.as_u64(),
                        hop: hop_u,
                        outcome: DeliveryOutcome::Dead,
                    });
                    continue;
                }
                *received_counts.entry(target).or_insert(0) += 1;
                if notified.insert(target) {
                    messages_to_virgin += 1;
                    hop_new += 1;
                    next_frontier.push((target, node));
                    probe.record(TraceEvent::Delivered {
                        node: target.as_u64(),
                        from: node.as_u64(),
                        hop: hop_u,
                        outcome: DeliveryOutcome::Virgin,
                    });
                } else {
                    messages_to_notified += 1;
                    probe.record(TraceEvent::Delivered {
                        node: target.as_u64(),
                        from: node.as_u64(),
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
        frontier = next_frontier;
    }
    probe.record(TraceEvent::RunEnd {
        reached: notified.len() as u64,
    });

    let unreached: Vec<NodeId> = overlay
        .live_node_ids()
        .into_iter()
        .filter(|id| !notified.contains(id))
        .collect();

    // The vectors deliberately keep the final redundant-sweep hop (the hop
    // after `last_hop`, in which the last-notified nodes forward without
    // reaching anyone new): dropping it would silently lose its messages
    // and break `per_hop_messages.iter().sum() == total_messages()`.

    DisseminationReport {
        origin,
        population,
        reached: notified.len(),
        last_hop,
        per_hop_new,
        per_hop_messages,
        messages_to_virgin,
        messages_to_notified,
        messages_to_dead,
        received_counts,
        forwarded_counts,
        unreached,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::tests::warmed_network;
    use crate::overlay::StaticOverlay;
    use hybridcast_core::engine::{disseminate_dense, DenseScratch};
    use hybridcast_core::overlay::{DenseOverlay, SnapshotOverlay};
    use hybridcast_graph::builders;
    use hybridcast_obs::NullProbe;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn dense_engine_matches_generic_engine_on_warmed_overlay() {
        let overlay = SnapshotOverlay::new(warmed_network(250, 21).overlay_snapshot());
        let dense = DenseOverlay::from(&overlay);
        let origin = overlay.live_node_ids()[9];
        let mut scratch = DenseScratch::new();
        for selector in [
            DenseSelector::randcast(3),
            DenseSelector::ringcast(4),
            DenseSelector::Flooding,
        ] {
            let generic = disseminate(&overlay, &selector, origin, &mut rng(77), &mut NullProbe);
            let fast = disseminate_dense(&dense, &selector, origin, &mut rng(77), &mut scratch)
                .report(&dense, &scratch);
            assert_eq!(generic, fast, "{} reports diverge", selector.name());
        }
    }

    #[test]
    fn dense_engine_accounts_dead_nodes_like_generic_engine() {
        let ids: Vec<NodeId> = (0..30).map(NodeId::new).collect();
        let mut overlay = StaticOverlay::deterministic(&builders::bidirectional_ring(&ids));
        for dead in [4u64, 11, 12, 25] {
            overlay.kill_node(NodeId::new(dead));
        }
        let dense = DenseOverlay::from(&overlay);
        let mut scratch = DenseScratch::new();
        let flooding = DenseSelector::DeterministicFlooding;
        let generic = disseminate(&overlay, &flooding, ids[0], &mut rng(5), &mut NullProbe);
        let fast = disseminate_dense(&dense, &flooding, ids[0], &mut rng(5), &mut scratch)
            .report(&dense, &scratch);
        assert_eq!(generic, fast);
        assert!(fast.messages_to_dead >= 1);
        assert!(!fast.unreached.is_empty(), "the ring is partitioned");
    }
}
