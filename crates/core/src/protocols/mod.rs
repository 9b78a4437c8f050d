//! Gossip-target selection: the paper's `selectGossipTargets(Q)`.
//!
//! Figure 1 of the paper defines push dissemination generically: a node that
//! generates a message or receives it for the first time forwards it to the
//! nodes returned by `selectGossipTargets(Q)`, where `Q` is the node it just
//! received the message from. Every protocol in the paper differs *only* in
//! that function:
//!
//! | protocol | target selection | variant |
//! |---|---|---|
//! | flooding (Section 3) | every outgoing link except `Q` | [`DenseSelector::Flooding`] |
//! | deterministic flooding (Section 3) | every d-link except `Q` | [`DenseSelector::DeterministicFlooding`] |
//! | RandCast (Section 4) | `F` random r-links except `Q` | [`DenseSelector::RandCast`] |
//! | RingCast (Section 5) | every d-link except `Q`, plus random r-links up to `F` | [`DenseSelector::RingCast`] |
//!
//! [`DenseSelector::select`] is that function, written once over a node's
//! link slices. The CSR engines instantiate it at dense `u32` indices, the
//! id-keyed oracles and the real-transport runtime (`hybridcast-net`) at
//! [`hybridcast_graph::NodeId`]s; every instantiation filters candidates in
//! the same order and draws through the same
//! [`hybridcast_graph::sample::partial_fisher_yates`], so for the same
//! overlay, origin and seed the engines produce **identical** reports — the
//! determinism contract the differential property tests pin down.

use rand::RngCore;

use hybridcast_graph::sample::partial_fisher_yates;

/// A gossip-target selection policy as plain data: one variant per
/// protocol of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenseSelector {
    /// Flooding over *all* outgoing links (d-links and r-links).
    ///
    /// A node forwards a newly received message across every outgoing link
    /// except the one it arrived on. If the combined link set forms a
    /// strongly connected graph, dissemination is complete; the price is a
    /// message overhead equal to the total number of links. Flooding has
    /// no fanout parameter: [`DenseSelector::fanout`] reports 0, meaning
    /// "unbounded".
    Flooding,
    /// Flooding restricted to the deterministic links (d-links) only.
    ///
    /// This is the classic flooding baseline of Section 3 run over a
    /// strategic overlay — a tree, star, clique, ring or Harary graph built
    /// with `hybridcast_graph::builders` — with the minimum message overhead
    /// the chosen overlay allows.
    DeterministicFlooding,
    /// RandCast (Section 4): forward every fresh message to `F` nodes chosen
    /// uniformly at random from the peer-sampling view (the r-links), never
    /// back to the sender.
    ///
    /// RandCast spreads messages at exponential speed (`F^h` nodes after `h`
    /// hops while the network is far from saturated), but provides only
    /// probabilistic delivery: a node is missed whenever none of its
    /// incoming links happens to be chosen, so the miss ratio decays only
    /// exponentially with `F` and complete dissemination requires a large
    /// fanout — the inefficiency quantified in Figures 6–8 of the paper and
    /// addressed by [`DenseSelector::RingCast`].
    RandCast(usize),
    /// RingCast (Section 5), the hybrid probabilistic/deterministic protocol
    /// that is the paper's main contribution: forward every fresh message
    /// across **all** d-links (except the one it arrived on) and top the
    /// target set up to the fanout `F` with uniformly random r-links.
    ///
    /// * With a single bidirectional ring this is exactly the paper's rule —
    ///   both ring neighbours plus `F − 2` random peers (or the other
    ///   neighbour plus `F − 1` random peers when the message came from a
    ///   ring neighbour).
    /// * With the multi-ring or Harary-graph d-link sets of the reliability
    ///   extension (Section 8) the same rule forwards over every
    ///   ring/Harary link and fills the remainder with random links.
    ///
    /// The d-links are always followed, even when their number exceeds `F`
    /// (the paper's pseudo-code does the same: with `F = 1` a node still
    /// forwards to both ring neighbours). They guarantee complete
    /// dissemination in a failure-free network — the message walks the ring
    /// exhaustively — while the r-links spread it at exponential speed and
    /// bridge ring partitions when nodes have failed.
    RingCast(usize),
}

impl DenseSelector {
    /// Creates a RandCast selector with fanout `F`.
    ///
    /// # Panics
    ///
    /// Panics if `fanout` is zero: a zero fanout never forwards anything.
    pub fn randcast(fanout: usize) -> Self {
        assert!(fanout > 0, "RandCast fanout must be positive");
        DenseSelector::RandCast(fanout)
    }

    /// Creates a RingCast selector with fanout `F`.
    ///
    /// # Panics
    ///
    /// Panics if `fanout` is zero.
    pub fn ringcast(fanout: usize) -> Self {
        assert!(fanout > 0, "RingCast fanout must be positive");
        DenseSelector::RingCast(fanout)
    }

    /// Human-readable protocol name (used in experiment output).
    pub fn name(&self) -> &'static str {
        match self {
            DenseSelector::Flooding => "Flooding",
            DenseSelector::DeterministicFlooding => "DeterministicFlooding",
            DenseSelector::RandCast(_) => "RandCast",
            DenseSelector::RingCast(_) => "RingCast",
        }
    }

    /// The fanout parameter `F` this selector was configured with (0 for
    /// the flooding variants, which have none).
    pub fn fanout(&self) -> usize {
        match *self {
            DenseSelector::Flooding | DenseSelector::DeterministicFlooding => 0,
            DenseSelector::RandCast(fanout) | DenseSelector::RingCast(fanout) => fanout,
        }
    }

    /// Selects the nodes `node` forwards a freshly received message to,
    /// writing them into `targets` (`pool` is reusable draw scratch).
    ///
    /// `from` is the node the message was received from; the origin passes
    /// itself (or any id no link carries). `links` is `(d_links, r_links)`,
    /// the node's outgoing links in overlay order. The targets never contain
    /// `node` or `from`, and may be dead — the selector has no liveness
    /// knowledge, exactly like a real node pushing over possibly stale
    /// links.
    ///
    /// # Panics
    ///
    /// Panics on a zero-fanout [`DenseSelector::RandCast`] or
    /// [`DenseSelector::RingCast`]: the public tuple variants must not
    /// bypass the constructors' invariant.
    ///
    /// # Example
    ///
    /// ```
    /// use hybridcast_core::protocols::DenseSelector;
    /// use rand::SeedableRng;
    ///
    /// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
    /// let (mut targets, mut pool) = (Vec::new(), Vec::new());
    /// // Node 0 heard the message from its ring neighbour 1.
    /// let (d_links, r_links) = ([1u32, 9], [3u32, 5, 1, 7]);
    /// let links = (&d_links[..], &r_links[..]);
    /// let selector = DenseSelector::ringcast(3);
    /// selector.select(0, 1, links, &mut rng, &mut targets, &mut pool);
    /// assert_eq!(targets[0], 9, "the other ring neighbour first");
    /// assert_eq!(targets.len(), 3, "plus two random r-links");
    /// assert!(!targets.contains(&1));
    /// ```
    pub fn select<T, R>(
        &self,
        node: T,
        from: T,
        (d_links, r_links): (&[T], &[T]),
        rng: &mut R,
        targets: &mut Vec<T>,
        pool: &mut Vec<T>,
    ) where
        T: Copy + PartialEq,
        R: RngCore + ?Sized,
    {
        targets.clear();
        match *self {
            DenseSelector::Flooding => {
                for &link in d_links.iter().chain(r_links) {
                    if link != node && link != from && !targets.contains(&link) {
                        targets.push(link);
                    }
                }
            }
            DenseSelector::DeterministicFlooding => {
                targets.extend(
                    d_links
                        .iter()
                        .copied()
                        .filter(|&link| link != node && link != from),
                );
            }
            DenseSelector::RandCast(fanout) => {
                assert!(fanout > 0, "RandCast fanout must be positive");
                pool.clear();
                pool.extend(r_links.iter().copied().filter(|&c| c != node && c != from));
                partial_fisher_yates(pool, fanout, rng);
                targets.extend_from_slice(pool);
            }
            DenseSelector::RingCast(fanout) => {
                assert!(fanout > 0, "RingCast fanout must be positive");
                for &link in d_links {
                    if link != node && link != from && !targets.contains(&link) {
                        targets.push(link);
                    }
                }
                let remaining = fanout.saturating_sub(targets.len());
                if remaining > 0 {
                    pool.clear();
                    pool.extend(
                        r_links
                            .iter()
                            .copied()
                            .filter(|&c| c != node && c != from && !targets.contains(&c)),
                    );
                    partial_fisher_yates(pool, remaining, rng);
                    targets.extend_from_slice(pool);
                }
            }
        }
        debug_assert!(!targets.contains(&from));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_graph::{DiGraph, NodeId};
    use rand_chacha::ChaCha8Rng;

    use crate::overlay::Overlay;

    /// The graph of the given `(from, to)` edges.
    pub(super) fn graph(edges: &[(u64, u64)]) -> DiGraph {
        let mut graph = DiGraph::new();
        for &(from, to) in edges {
            graph.add_edge(NodeId::new(from), NodeId::new(to));
        }
        graph
    }

    /// The targets `selector` picks for `node` over the id-keyed links of
    /// `overlay`, received from `from` (`None` for the origin).
    pub(super) fn select(
        selector: DenseSelector,
        overlay: &dyn Overlay,
        node: NodeId,
        from: Option<NodeId>,
        rng: &mut ChaCha8Rng,
    ) -> Vec<NodeId> {
        let (d_links, r_links) = (overlay.d_links(node), overlay.r_links(node));
        let (mut targets, mut pool) = (Vec::new(), Vec::new());
        selector.select(
            node,
            from.unwrap_or(node),
            (&d_links, &r_links),
            rng,
            &mut targets,
            &mut pool,
        );
        targets
    }

    #[test]
    #[should_panic(expected = "RandCast fanout must be positive")]
    fn dense_selector_zero_fanout_panics_at_selection_time() {
        // The public tuple variant can be built with fanout 0; every
        // instantiation must reject it when it is actually used.
        use rand::SeedableRng;
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let (mut targets, mut pool) = (Vec::new(), Vec::new());
        DenseSelector::RandCast(0).select(0u32, 0, (&[], &[1]), &mut rng, &mut targets, &mut pool);
    }
}

// Unit tests of each protocol's rule, one module per protocol.
#[cfg(test)]
mod flooding {
    mod tests {
        use crate::overlay::DenseOverlay;
        use crate::protocols::tests::{graph, select};
        use crate::protocols::DenseSelector;
        use hybridcast_graph::{builders, NodeId};
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;

        fn n(i: u64) -> NodeId {
            NodeId::new(i)
        }

        fn ids(count: u64) -> Vec<NodeId> {
            (0..count).map(NodeId::new).collect()
        }

        #[test]
        fn flooding_uses_all_links_except_sender() {
            let ring = builders::bidirectional_ring(&ids(5));
            let overlay = DenseOverlay::from_graphs(&ring, &graph(&[(0, 3)]));
            let mut rng = ChaCha8Rng::seed_from_u64(0);

            let targets = select(
                DenseSelector::Flooding,
                &overlay,
                n(0),
                Some(n(1)),
                &mut rng,
            );
            assert!(targets.contains(&n(4)), "other ring neighbour");
            assert!(targets.contains(&n(3)), "r-link");
            assert!(!targets.contains(&n(1)), "never the sender");
            assert_eq!(targets.len(), 2);
        }

        #[test]
        fn flooding_deduplicates_links_present_in_both_sets() {
            let overlay = DenseOverlay::from_graphs(&graph(&[(0, 1)]), &graph(&[(0, 1)]));
            let mut rng = ChaCha8Rng::seed_from_u64(0);
            let targets = select(DenseSelector::Flooding, &overlay, n(0), None, &mut rng);
            assert_eq!(targets, vec![n(1)]);
        }

        #[test]
        fn deterministic_flooding_ignores_r_links() {
            let ring = builders::bidirectional_ring(&ids(5));
            let overlay = DenseOverlay::from_graphs(&ring, &graph(&[(0, 3)]));
            let mut rng = ChaCha8Rng::seed_from_u64(0);
            let targets = select(
                DenseSelector::DeterministicFlooding,
                &overlay,
                n(0),
                None,
                &mut rng,
            );
            assert_eq!(targets.len(), 2);
            assert!(!targets.contains(&n(3)));
        }

        #[test]
        fn names_and_fanout() {
            assert_eq!(DenseSelector::Flooding.name(), "Flooding");
            assert_eq!(
                DenseSelector::DeterministicFlooding.name(),
                "DeterministicFlooding"
            );
            assert_eq!(DenseSelector::Flooding.fanout(), 0);
        }
    }
}

#[cfg(test)]
mod randcast {
    mod tests {
        use crate::overlay::{DenseOverlay, Overlay};
        use crate::protocols::tests::{graph, select};
        use crate::protocols::DenseSelector;
        use hybridcast_graph::{builders, DiGraph, NodeId};
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;

        fn n(i: u64) -> NodeId {
            NodeId::new(i)
        }

        fn ids(count: u64) -> Vec<NodeId> {
            (0..count).map(NodeId::new).collect()
        }

        fn random_overlay(nodes: u64, degree: usize, seed: u64) -> DenseOverlay {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let random = builders::random_out_degree(&ids(nodes), degree, &mut rng);
            DenseOverlay::from_graphs(&DiGraph::new(), &random)
        }

        #[test]
        #[should_panic(expected = "fanout must be positive")]
        fn zero_fanout_panics() {
            DenseSelector::randcast(0);
        }

        #[test]
        fn selects_at_most_fanout_targets_from_r_links() {
            let overlay = random_overlay(50, 20, 1);
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            let protocol = DenseSelector::randcast(4);
            let targets = select(protocol, &overlay, n(0), None, &mut rng);
            assert_eq!(targets.len(), 4);
            let view = overlay.r_links(n(0));
            assert!(targets.iter().all(|t| view.contains(t)));
        }

        #[test]
        fn never_selects_sender_or_self() {
            let overlay = random_overlay(30, 29, 3);
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            let protocol = DenseSelector::randcast(29);
            let sender = overlay.r_links(n(0))[0];
            let targets = select(protocol, &overlay, n(0), Some(sender), &mut rng);
            assert!(!targets.contains(&sender));
            assert!(!targets.contains(&n(0)));
            assert_eq!(targets.len(), 28, "everything except self and sender");
        }

        #[test]
        fn ignores_d_links_entirely() {
            let overlay = DenseOverlay::from_graphs(&graph(&[(0, 1), (0, 2)]), &graph(&[(0, 3)]));
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            let targets = select(DenseSelector::randcast(5), &overlay, n(0), None, &mut rng);
            assert_eq!(targets, vec![n(3)]);
        }

        #[test]
        fn small_view_bounds_target_count() {
            let overlay = random_overlay(5, 2, 6);
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let targets = select(DenseSelector::randcast(10), &overlay, n(0), None, &mut rng);
            assert!(targets.len() <= 2);
        }
    }
}

#[cfg(test)]
mod ringcast {
    mod tests {
        use crate::overlay::DenseOverlay;
        use crate::protocols::tests::{graph, select};
        use crate::protocols::DenseSelector;
        use hybridcast_graph::{builders, DiGraph, NodeId};
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;

        fn n(i: u64) -> NodeId {
            NodeId::new(i)
        }

        fn ids(count: u64) -> Vec<NodeId> {
            (0..count).map(NodeId::new).collect()
        }

        /// A 10-node bidirectional ring with a full random graph on top.
        fn ring_overlay(seed: u64) -> DenseOverlay {
            let nodes = ids(10);
            let ring = builders::bidirectional_ring(&nodes);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let random = builders::random_out_degree(&nodes, 6, &mut rng);
            DenseOverlay::from_graphs(&ring, &random)
        }

        #[test]
        #[should_panic(expected = "fanout must be positive")]
        fn zero_fanout_panics() {
            DenseSelector::ringcast(0);
        }

        #[test]
        fn origin_forwards_to_both_ring_neighbors_plus_randoms() {
            let overlay = ring_overlay(1);
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            let targets = select(DenseSelector::ringcast(5), &overlay, n(0), None, &mut rng);
            assert!(targets.contains(&n(1)));
            assert!(targets.contains(&n(9)));
            assert_eq!(targets.len(), 5, "2 d-links + 3 r-links");
            let mut dedup = targets.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), 5);
        }

        #[test]
        fn message_from_ring_neighbor_goes_to_the_other_neighbor() {
            let overlay = ring_overlay(3);
            let mut rng = ChaCha8Rng::seed_from_u64(4);
            let targets = select(
                DenseSelector::ringcast(4),
                &overlay,
                n(0),
                Some(n(1)),
                &mut rng,
            );
            assert!(!targets.contains(&n(1)), "never back to the sender");
            assert!(targets.contains(&n(9)), "the other ring neighbour");
            assert_eq!(targets.len(), 4, "1 d-link + 3 r-links");
        }

        #[test]
        fn fanout_one_still_follows_all_d_links() {
            let overlay = ring_overlay(5);
            let mut rng = ChaCha8Rng::seed_from_u64(6);
            let targets = select(DenseSelector::ringcast(1), &overlay, n(0), None, &mut rng);
            assert_eq!(targets.len(), 2, "both ring neighbours, no r-links");
            assert!(targets.contains(&n(1)));
            assert!(targets.contains(&n(9)));
        }

        #[test]
        fn random_targets_never_duplicate_d_links() {
            // r-links identical to d-links: the random fill must not pick them again.
            let d_links = graph(&[(0, 1), (0, 2)]);
            let overlay = DenseOverlay::from_graphs(&d_links, &graph(&[(0, 1), (0, 2), (0, 3)]));
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let targets = select(DenseSelector::ringcast(4), &overlay, n(0), None, &mut rng);
            assert_eq!(targets.len(), 3);
            let mut sorted = targets.clone();
            sorted.sort();
            assert_eq!(sorted, vec![n(1), n(2), n(3)]);
        }

        #[test]
        fn multi_ring_d_links_are_all_followed() {
            // Four d-links (two rings), fanout 3: all four d-links followed, no
            // random fill since the deterministic part already exceeds F.
            let d_links = graph(&[(0, 1), (0, 2), (0, 3), (0, 4)]);
            let overlay = DenseOverlay::from_graphs(&d_links, &graph(&[(0, 9)]));
            let mut rng = ChaCha8Rng::seed_from_u64(8);
            let targets = select(DenseSelector::ringcast(3), &overlay, n(0), None, &mut rng);
            assert_eq!(targets.len(), 4);
            assert!(!targets.contains(&n(9)));
        }

        #[test]
        fn isolated_node_selects_nothing() {
            let overlay = DenseOverlay::from_graphs(&DiGraph::with_nodes([n(0)]), &DiGraph::new());
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            let targets = select(DenseSelector::ringcast(5), &overlay, n(0), None, &mut rng);
            assert!(targets.is_empty());
        }
    }
}
