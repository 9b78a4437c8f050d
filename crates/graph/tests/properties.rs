//! Property-based tests for the graph substrate.

use proptest::prelude::*;

use hybridcast_graph::{builders, connectivity, harary, DiGraph, NodeId};

fn ids(count: u64) -> Vec<NodeId> {
    (0..count).map(NodeId::new).collect()
}

proptest! {
    /// A bidirectional ring over any non-trivial node set is strongly
    /// connected and 2-regular.
    #[test]
    fn ring_is_strongly_connected(n in 2u64..200) {
        let nodes = ids(n);
        let ring = builders::bidirectional_ring(&nodes);
        prop_assert!(connectivity::is_strongly_connected(&ring));
        for &node in &nodes {
            prop_assert!(ring.out_degree(node) >= 1);
            prop_assert!(ring.out_degree(node) <= 2);
            prop_assert_eq!(ring.out_degree(node), ring.in_degree(node));
        }
    }

    /// Harary graphs H(n, t) are strongly connected, have ceil(t*n/2)
    /// bidirectional links and per-node degree t or t+1.
    #[test]
    fn harary_structure(n in 6usize..60, t in 2usize..6) {
        prop_assume!(t < n);
        let nodes = ids(n as u64);
        let h = harary::harary_graph(&nodes, t);
        prop_assert!(connectivity::is_strongly_connected(&h));
        prop_assert_eq!(h.edge_count() / 2, harary::harary_link_count(n, t));
        for &node in &nodes {
            let d = h.out_degree(node);
            prop_assert!(d == t || d == t + 1, "degree {} not in {{{}, {}}}", d, t, t + 1);
        }
    }

    /// The number of edges equals the sum of out-degrees and the sum of
    /// in-degrees, for arbitrary edge sets.
    #[test]
    fn degree_sums_match_edge_count(edges in prop::collection::vec((0u64..50, 0u64..50), 0..300)) {
        let mut g = DiGraph::new();
        for (a, b) in edges {
            if a != b {
                g.add_edge(NodeId::new(a), NodeId::new(b));
            }
        }
        let out_sum: usize = g.nodes().map(|n| g.out_degree(n)).sum();
        let in_sum: usize = g.in_degrees().values().sum();
        prop_assert_eq!(out_sum, g.edge_count());
        prop_assert_eq!(in_sum, g.edge_count());
    }

    /// Reversing a graph preserves node and edge counts, and reversing twice
    /// is the identity.
    #[test]
    fn reverse_involution(edges in prop::collection::vec((0u64..40, 0u64..40), 0..200)) {
        let mut g = DiGraph::new();
        for (a, b) in edges {
            if a != b {
                g.add_edge(NodeId::new(a), NodeId::new(b));
            }
        }
        let rev = g.reversed();
        prop_assert_eq!(rev.node_count(), g.node_count());
        prop_assert_eq!(rev.edge_count(), g.edge_count());
        prop_assert_eq!(rev.reversed(), g.clone());
        // Strong connectivity is invariant under reversal.
        prop_assert_eq!(
            connectivity::is_strongly_connected(&rev),
            connectivity::is_strongly_connected(&g)
        );
    }

    /// Random out-degree overlays give every node exactly the requested
    /// out-degree (clamped) and never contain self-loops.
    #[test]
    fn random_overlay_out_degree(n in 2u64..80, degree in 1usize..25, seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let nodes = ids(n);
        let g = builders::random_out_degree(&nodes, degree, &mut rng);
        let expected = degree.min(n as usize - 1);
        for &node in &nodes {
            prop_assert_eq!(g.out_degree(node), expected);
            prop_assert!(!g.has_edge(node, node));
        }
    }
}
