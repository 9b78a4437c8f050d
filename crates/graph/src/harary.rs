//! Harary graphs `H(n, t)`.
//!
//! A Harary graph of connectivity `t` over `n` nodes is a minimal-link graph
//! that remains connected when up to `t - 1` nodes or links fail (Harary,
//! 1962; applied to flooding by Lin et al. and Jenkins & Demers). Its minimum
//! cut is `t`, and links are spread evenly: every node has either `t` or
//! `t + 1` bidirectional links.
//!
//! Section 3 of the paper singles out Harary graphs as the most appealing
//! deterministic dissemination overlays under failures; a bidirectional ring
//! is exactly `H(n, 2)` and is the deterministic substrate of RingCast. The
//! multi-ring extension sketched in the conclusions approximates higher
//! connectivity; this module provides the exact constructions for comparison
//! (used by the `ablation_connectivity` harness).

use crate::digraph::DiGraph;
use crate::node::NodeId;

/// Builds the Harary graph `H(n, t)` over the given nodes (in ring order),
/// following Harary's classic circulant construction:
///
/// * for even `t = 2k`: node `i` links to its `k` nearest neighbours on each
///   side of the ring;
/// * for odd `t = 2k + 1` and even `n`: additionally link each node to the
///   diametrically opposite node;
/// * for odd `t = 2k + 1` and odd `n`: additionally link node `i` to node
///   `i + (n - 1) / 2` for `0 <= i <= (n - 1) / 2` (the standard asymmetric
///   completion).
///
/// All links are bidirectional (represented as two directed edges).
///
/// # Panics
///
/// Panics if `t < 2`, or `t >= n` (a Harary graph needs at least `t + 1`
/// nodes).
///
/// # Example
///
/// ```
/// use hybridcast_graph::{harary, connectivity, NodeId};
///
/// let ids: Vec<NodeId> = (0..9).map(NodeId::new).collect();
/// let h = harary::harary_graph(&ids, 4);
/// assert!(connectivity::is_strongly_connected(&h));
/// // Every node has degree 4 (t even, so the graph is 4-regular).
/// assert!(ids.iter().all(|&n| h.out_degree(n) == 4));
/// ```
pub fn harary_graph(nodes: &[NodeId], t: usize) -> DiGraph {
    let n = nodes.len();
    assert!(t >= 2, "Harary connectivity must be at least 2");
    assert!(
        t < n,
        "Harary graph H(n, t) requires more than t nodes (got n = {n}, t = {t})"
    );

    let mut g = DiGraph::with_nodes(nodes.iter().copied());
    let k = t / 2;

    // Circulant core: each node linked to the k nearest neighbours on each side.
    for i in 0..n {
        for offset in 1..=k {
            let j = (i + offset) % n;
            g.add_bidirectional_edge(nodes[i], nodes[j]);
        }
    }

    if t % 2 == 1 {
        if n % 2 == 0 {
            // Even n: add diameters.
            for i in 0..n / 2 {
                g.add_bidirectional_edge(nodes[i], nodes[i + n / 2]);
            }
        } else {
            // Odd n: add the asymmetric near-diameters.
            let half = (n - 1) / 2;
            for i in 0..=half {
                let j = (i + half) % n;
                if nodes[i] != nodes[j] {
                    g.add_bidirectional_edge(nodes[i], nodes[j]);
                }
            }
        }
    }

    g
}

/// Returns the number of bidirectional links in `H(n, t)` according to
/// Harary's minimality result: `ceil(t * n / 2)`.
pub fn harary_link_count(n: usize, t: usize) -> usize {
    (t * n).div_ceil(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::{is_strongly_connected, survives_node_failures};

    fn ids(count: u64) -> Vec<NodeId> {
        (0..count).map(NodeId::new).collect()
    }

    #[test]
    fn h_n_2_is_the_bidirectional_ring() {
        let nodes = ids(10);
        let h = harary_graph(&nodes, 2);
        let ring = crate::builders::bidirectional_ring(&nodes);
        assert_eq!(h, ring);
    }

    #[test]
    fn even_connectivity_is_regular() {
        for (n, t) in [(10u64, 4usize), (11, 4), (20, 6)] {
            let nodes = ids(n);
            let h = harary_graph(&nodes, t);
            for &node in &nodes {
                assert_eq!(h.out_degree(node), t, "H({n},{t}) degree of {node}");
                assert_eq!(h.in_degree(node), t);
            }
            assert!(is_strongly_connected(&h));
        }
    }

    #[test]
    fn odd_connectivity_even_n_degrees() {
        let nodes = ids(10);
        let h = harary_graph(&nodes, 3);
        for &node in &nodes {
            assert_eq!(h.out_degree(node), 3);
        }
        assert_eq!(h.edge_count() / 2, harary_link_count(10, 3));
    }

    #[test]
    fn odd_connectivity_odd_n_degrees() {
        let nodes = ids(9);
        let h = harary_graph(&nodes, 3);
        // Odd/odd case: every node has degree t or t+1.
        for &node in &nodes {
            let d = h.out_degree(node);
            assert!(d == 3 || d == 4, "degree {d} outside {{3, 4}}");
        }
        assert!(is_strongly_connected(&h));
    }

    #[test]
    fn survives_up_to_t_minus_one_failures() {
        let nodes = ids(9);
        let h3 = harary_graph(&nodes, 3);
        assert!(survives_node_failures(&h3, 2));

        let h2 = harary_graph(&nodes, 2);
        assert!(survives_node_failures(&h2, 1));
        assert!(!survives_node_failures(&h2, 2));
    }

    #[test]
    fn link_count_formula() {
        assert_eq!(harary_link_count(10, 2), 10);
        assert_eq!(harary_link_count(10, 3), 15);
        assert_eq!(harary_link_count(9, 3), 14);
        assert_eq!(harary_link_count(10, 4), 20);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn connectivity_below_two_panics() {
        harary_graph(&ids(5), 1);
    }

    #[test]
    #[should_panic(expected = "requires more than t nodes")]
    fn too_few_nodes_panics() {
        harary_graph(&ids(4), 4);
    }
}
