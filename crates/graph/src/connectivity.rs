//! Connectivity and reachability algorithms.
//!
//! The deterministic component of a hybrid dissemination protocol must form a
//! *strongly connected* directed graph over all nodes (Section 3 and 5 of the
//! paper); this module provides the verification tools: breadth-first
//! reachability, strong connectivity checks and a brute-force
//! node-connectivity estimate used to validate Harary-graph constructions in
//! tests.

use std::collections::{BTreeSet, VecDeque};

use crate::digraph::DiGraph;
use crate::node::NodeId;

/// Returns the set of nodes reachable from `start` (including `start`
/// itself) by following directed edges.
///
/// Unknown start nodes yield an empty set.
///
/// # Example
///
/// ```
/// use hybridcast_graph::{connectivity, DiGraph, NodeId};
///
/// let g: DiGraph = [(NodeId::new(0), NodeId::new(1)), (NodeId::new(1), NodeId::new(2))]
///     .into_iter()
///     .collect();
/// let reach = connectivity::reachable_from(&g, NodeId::new(0));
/// assert_eq!(reach.len(), 3);
/// ```
pub fn reachable_from(graph: &DiGraph, start: NodeId) -> BTreeSet<NodeId> {
    let mut visited = BTreeSet::new();
    if !graph.contains_node(start) {
        return visited;
    }
    let mut queue = VecDeque::new();
    visited.insert(start);
    queue.push_back(start);
    while let Some(node) = queue.pop_front() {
        for succ in graph.successors(node) {
            if visited.insert(succ) {
                queue.push_back(succ);
            }
        }
    }
    visited
}

/// Returns `true` if the graph is strongly connected: there is a directed
/// path between every ordered pair of nodes.
///
/// The empty graph is considered strongly connected (vacuously), as is a
/// single-node graph.
pub fn is_strongly_connected(graph: &DiGraph) -> bool {
    let n = graph.node_count();
    if n <= 1 {
        return true;
    }
    let start = match graph.nodes().next() {
        Some(s) => s,
        None => return true,
    };
    if reachable_from(graph, start).len() != n {
        return false;
    }
    reachable_from(&graph.reversed(), start).len() == n
}

/// Returns `true` if removing any set of at most `failures` nodes leaves the
/// remaining graph strongly connected (or empty / singleton).
///
/// This is a brute-force check intended for validating constructions such as
/// Harary graphs in tests; its cost grows combinatorially with `failures`,
/// so keep `failures <= 2` and graphs small.
pub fn survives_node_failures(graph: &DiGraph, failures: usize) -> bool {
    let nodes: Vec<NodeId> = graph.nodes().collect();
    survive_rec(graph, &nodes, failures, &mut Vec::new())
}

fn survive_rec(
    graph: &DiGraph,
    nodes: &[NodeId],
    remaining: usize,
    removed: &mut Vec<NodeId>,
) -> bool {
    let removed_set: BTreeSet<NodeId> = removed.iter().copied().collect();
    let sub = graph.induced_subgraph(|n| !removed_set.contains(&n));
    if !is_strongly_connected(&sub) {
        return false;
    }
    if remaining == 0 {
        return true;
    }
    for &candidate in nodes {
        if removed.contains(&candidate) {
            continue;
        }
        removed.push(candidate);
        let ok = survive_rec(graph, nodes, remaining - 1, removed);
        removed.pop();
        if !ok {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    fn ids(count: u64) -> Vec<NodeId> {
        (0..count).map(NodeId::new).collect()
    }

    #[test]
    fn reachability_on_chain() {
        let g: DiGraph = [(n(0), n(1)), (n(1), n(2)), (n(2), n(3))]
            .into_iter()
            .collect();
        assert_eq!(reachable_from(&g, n(0)).len(), 4);
        assert_eq!(reachable_from(&g, n(2)).len(), 2);
        assert!(reachable_from(&g, n(99)).is_empty());
    }

    #[test]
    fn strong_connectivity_cycle_vs_chain() {
        let cycle: DiGraph = [(n(0), n(1)), (n(1), n(2)), (n(2), n(0))]
            .into_iter()
            .collect();
        assert!(is_strongly_connected(&cycle));

        let chain: DiGraph = [(n(0), n(1)), (n(1), n(2))].into_iter().collect();
        assert!(!is_strongly_connected(&chain));
    }

    #[test]
    fn trivial_graphs_are_strongly_connected() {
        assert!(is_strongly_connected(&DiGraph::new()));
        let mut single = DiGraph::new();
        single.add_node(n(7));
        assert!(is_strongly_connected(&single));
    }

    #[test]
    fn bidirectional_ring_survives_single_failure_but_not_two() {
        let ring = builders::bidirectional_ring(&ids(8));
        assert!(survives_node_failures(&ring, 1));
        assert!(!survives_node_failures(&ring, 2));
    }
}
