//! Constructors for the overlay families discussed in the paper.
//!
//! Section 3 of the paper surveys deterministic dissemination overlays —
//! spanning trees, star graphs (server-based), cliques, Harary graphs and the
//! bidirectional ring used by RingCast — and Section 4 relies on random
//! `F`-out graphs as the model of the overlays produced by a peer sampling
//! service. This module builds all of them.

use rand::Rng;

use crate::digraph::DiGraph;
use crate::node::NodeId;
use crate::sample::partial_fisher_yates;

/// Builds a bidirectional ring over `nodes` in the order given.
///
/// The result is a Harary graph of connectivity 2: it stays strongly
/// connected after any single node failure. With fewer than two nodes the
/// result has no edges; with exactly two nodes the ring degenerates to a
/// single bidirectional link.
///
/// # Example
///
/// ```
/// use hybridcast_graph::{builders, connectivity, NodeId};
///
/// let ids: Vec<NodeId> = (0..5).map(NodeId::new).collect();
/// let ring = builders::bidirectional_ring(&ids);
/// assert!(connectivity::is_strongly_connected(&ring));
/// assert_eq!(ring.edge_count(), 10); // 2 directed edges per ring link
/// ```
pub fn bidirectional_ring(nodes: &[NodeId]) -> DiGraph {
    let mut g = DiGraph::with_nodes(nodes.iter().copied());
    let n = nodes.len();
    if n < 2 {
        return g;
    }
    if n == 2 {
        g.add_bidirectional_edge(nodes[0], nodes[1]);
        return g;
    }
    for i in 0..n {
        let next = (i + 1) % n;
        g.add_bidirectional_edge(nodes[i], nodes[next]);
    }
    g
}

/// Builds a star graph: every leaf holds a bidirectional link with `center`.
///
/// This is the "server-based" overlay of Section 3: any leaf failure is
/// harmless, but the center is a single point of failure and carries load
/// linear in the number of nodes.
pub fn star(center: NodeId, leaves: &[NodeId]) -> DiGraph {
    let mut g = DiGraph::new();
    g.add_node(center);
    for &leaf in leaves {
        if leaf != center {
            g.add_bidirectional_edge(center, leaf);
        }
    }
    g
}

/// Builds a clique (complete graph): every ordered pair of distinct nodes is
/// connected.
pub fn clique(nodes: &[NodeId]) -> DiGraph {
    let mut g = DiGraph::with_nodes(nodes.iter().copied());
    for &a in nodes {
        for &b in nodes {
            if a != b {
                g.add_edge(a, b);
            }
        }
    }
    g
}

/// Builds a balanced `arity`-ary tree with bidirectional parent/child links,
/// rooted at `nodes[0]`, filling levels left to right.
///
/// # Panics
///
/// Panics if `arity == 0`.
pub fn balanced_tree(nodes: &[NodeId], arity: usize) -> DiGraph {
    assert!(arity > 0, "tree arity must be positive");
    let mut g = DiGraph::with_nodes(nodes.iter().copied());
    for (i, &node) in nodes.iter().enumerate().skip(1) {
        let parent = nodes[(i - 1) / arity];
        g.add_bidirectional_edge(parent, node);
    }
    g
}

/// Builds a random graph in which every node has exactly
/// `min(out_degree, n - 1)` outgoing links to distinct, uniformly chosen
/// other nodes.
///
/// This is the model of an overlay produced by a peer sampling service with
/// view length `out_degree` (e.g. Cyclon): each node's view is a uniform
/// random sample of the other nodes.
pub fn random_out_degree<R: Rng + ?Sized>(
    nodes: &[NodeId],
    out_degree: usize,
    rng: &mut R,
) -> DiGraph {
    let mut g = DiGraph::with_nodes(nodes.iter().copied());
    let n = nodes.len();
    if n < 2 || out_degree == 0 {
        return g;
    }
    let k = out_degree.min(n - 1);
    for &node in nodes {
        let mut others: Vec<NodeId> = nodes.iter().copied().filter(|&m| m != node).collect();
        partial_fisher_yates(&mut others, k, rng);
        for &target in &others {
            g.add_edge(node, target);
        }
    }
    g
}

/// Combines a deterministic overlay (`d_links`) with a random overlay
/// (`r_links`) into a single graph; the hybrid overlay of Section 5.
pub fn hybrid_overlay(d_links: &DiGraph, r_links: &DiGraph) -> DiGraph {
    let mut g = d_links.clone();
    g.merge(r_links);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::{is_strongly_connected, reachable_from};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn ids(count: u64) -> Vec<NodeId> {
        (0..count).map(NodeId::new).collect()
    }

    #[test]
    fn ring_edge_counts() {
        assert_eq!(bidirectional_ring(&ids(0)).edge_count(), 0);
        assert_eq!(bidirectional_ring(&ids(1)).edge_count(), 0);
        assert_eq!(bidirectional_ring(&ids(2)).edge_count(), 2);
        assert_eq!(bidirectional_ring(&ids(3)).edge_count(), 6);
        assert_eq!(bidirectional_ring(&ids(10)).edge_count(), 20);
    }

    #[test]
    fn rings_are_strongly_connected() {
        for n in [2u64, 3, 5, 17, 100] {
            assert!(is_strongly_connected(&bidirectional_ring(&ids(n))));
        }
    }

    #[test]
    fn star_structure() {
        let center = NodeId::new(0);
        let leaves = ids(10)[1..].to_vec();
        let g = star(center, &leaves);
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.out_degree(center), 9);
        for &leaf in &leaves {
            assert_eq!(g.out_degree(leaf), 1);
            assert_eq!(g.in_degree(leaf), 1);
        }
        assert!(is_strongly_connected(&g));
    }

    #[test]
    fn star_ignores_center_in_leaves() {
        let center = NodeId::new(0);
        let g = star(center, &ids(5));
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.out_degree(center), 4);
    }

    #[test]
    fn clique_is_complete() {
        let g = clique(&ids(6));
        assert_eq!(g.edge_count(), 6 * 5);
        assert!(is_strongly_connected(&g));
    }

    #[test]
    fn balanced_tree_reaches_everyone_from_root() {
        let nodes = ids(15);
        let g = balanced_tree(&nodes, 2);
        assert_eq!(reachable_from(&g, nodes[0]).len(), 15);
        assert!(is_strongly_connected(&g), "bidirectional tree");
        // Binary tree: root has 2 children, each internal node has <= 3 links.
        assert_eq!(g.out_degree(nodes[0]), 2);
        assert_eq!(g.out_degree(nodes[1]), 3);
        assert_eq!(g.out_degree(nodes[14]), 1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn zero_arity_tree_panics() {
        balanced_tree(&ids(3), 0);
    }

    #[test]
    fn random_out_degree_respects_degree() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let nodes = ids(50);
        let g = random_out_degree(&nodes, 5, &mut rng);
        for &node in &nodes {
            assert_eq!(g.out_degree(node), 5);
            assert!(!g.has_edge(node, node));
        }
    }

    #[test]
    fn random_out_degree_clamps_to_population() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let nodes = ids(4);
        let g = random_out_degree(&nodes, 10, &mut rng);
        for &node in &nodes {
            assert_eq!(g.out_degree(node), 3);
        }
    }

    #[test]
    fn hybrid_overlay_contains_both_link_sets() {
        let nodes = ids(20);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let ring = bidirectional_ring(&nodes);
        let random = random_out_degree(&nodes, 3, &mut rng);
        let hybrid = hybrid_overlay(&ring, &random);
        for (from, to) in ring.edges() {
            assert!(hybrid.has_edge(from, to));
        }
        for (from, to) in random.edges() {
            assert!(hybrid.has_edge(from, to));
        }
    }
}
