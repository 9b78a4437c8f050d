//! A directed graph describing an overlay snapshot.
//!
//! [`DiGraph`] stores, for every node, the ordered list of its outgoing
//! links. It is the common interchange format between the membership layer
//! (which *produces* overlays), the dissemination engine (which *forwards
//! messages* along overlay links) and the analysis utilities (which measure
//! structural properties such as connectivity and degree distributions).

use std::collections::{BTreeMap, BTreeSet};

use crate::node::NodeId;

/// A directed graph over a set of [`NodeId`]s.
///
/// Nodes may exist without outgoing edges; edges may only reference nodes
/// that are part of the graph. Parallel edges are not stored (adding the same
/// edge twice is a no-op) and self-loops are rejected, matching the overlay
/// semantics of gossip views (a node never links to itself and never lists a
/// neighbor twice).
///
/// # Example
///
/// ```
/// use hybridcast_graph::{DiGraph, NodeId};
///
/// let mut g = DiGraph::new();
/// let a = NodeId::new(0);
/// let b = NodeId::new(1);
/// g.add_node(a);
/// g.add_node(b);
/// g.add_edge(a, b);
/// assert!(g.has_edge(a, b));
/// assert!(!g.has_edge(b, a));
/// assert_eq!(g.out_degree(a), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiGraph {
    /// Adjacency: node -> set of successors. A `BTreeMap`/`BTreeSet` keeps
    /// iteration order deterministic, which matters for reproducible
    /// experiments.
    adjacency: BTreeMap<NodeId, BTreeSet<NodeId>>,
}

impl DiGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph and registers `nodes` (without edges).
    pub fn with_nodes<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        let mut g = Self::new();
        for n in nodes {
            g.add_node(n);
        }
        g
    }

    /// Registers a node. Idempotent.
    pub fn add_node(&mut self, node: NodeId) {
        self.adjacency.entry(node).or_default();
    }

    /// Returns `true` if `node` is part of the graph.
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.adjacency.contains_key(&node)
    }

    /// Adds the directed edge `from -> to`, registering both endpoints if
    /// necessary. Returns `true` if the edge was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `from == to`; overlays never contain self-loops.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        assert_ne!(from, to, "self-loops are not allowed in overlay graphs");
        self.add_node(to);
        self.adjacency.entry(from).or_default().insert(to)
    }

    /// Adds both `a -> b` and `b -> a`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn add_bidirectional_edge(&mut self, a: NodeId, b: NodeId) {
        self.add_edge(a, b);
        self.add_edge(b, a);
    }

    /// Removes a node together with all its incoming and outgoing edges.
    /// Returns `true` if the node was present.
    pub fn remove_node(&mut self, node: NodeId) -> bool {
        let present = self.adjacency.remove(&node).is_some();
        if present {
            for succ in self.adjacency.values_mut() {
                succ.remove(&node);
            }
        }
        present
    }

    /// Returns `true` if the edge `from -> to` exists.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.adjacency
            .get(&from)
            .map(|s| s.contains(&to))
            .unwrap_or(false)
    }

    /// Returns the number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Returns the number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.values().map(BTreeSet::len).sum()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Iterates over all nodes in ascending id order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.adjacency.keys().copied()
    }

    /// Iterates over the successors of `node` in ascending id order.
    /// Returns an empty iterator for unknown nodes.
    pub fn successors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adjacency
            .get(&node)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Returns the successors of `node` as a vector (ascending id order).
    pub fn successors_vec(&self, node: NodeId) -> Vec<NodeId> {
        self.successors(node).collect()
    }

    /// Iterates over all directed edges as `(from, to)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adjacency
            .iter()
            .flat_map(|(&from, succ)| succ.iter().map(move |&to| (from, to)))
    }

    /// Out-degree of `node` (0 for unknown nodes).
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.adjacency.get(&node).map(BTreeSet::len).unwrap_or(0)
    }

    /// In-degree of `node` (0 for unknown nodes). This is an `O(E)` scan.
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.adjacency
            .values()
            .filter(|succ| succ.contains(&node))
            .count()
    }

    /// Returns the in-degree of every node in one `O(V + E)` pass.
    pub fn in_degrees(&self) -> BTreeMap<NodeId, usize> {
        let mut degrees: BTreeMap<NodeId, usize> = self.adjacency.keys().map(|&n| (n, 0)).collect();
        for succ in self.adjacency.values() {
            for &to in succ {
                *degrees.entry(to).or_insert(0) += 1;
            }
        }
        degrees
    }

    /// Returns the graph with every edge reversed.
    pub fn reversed(&self) -> DiGraph {
        let mut rev = DiGraph::with_nodes(self.nodes());
        for (from, to) in self.edges() {
            rev.add_edge(to, from);
        }
        rev
    }

    /// Returns the subgraph induced by the nodes for which `keep` returns
    /// `true` (edges with a removed endpoint are dropped).
    pub fn induced_subgraph<F: Fn(NodeId) -> bool>(&self, keep: F) -> DiGraph {
        let mut sub = DiGraph::new();
        for node in self.nodes().filter(|&n| keep(n)) {
            sub.add_node(node);
        }
        for (from, to) in self.edges() {
            if keep(from) && keep(to) {
                sub.add_edge(from, to);
            }
        }
        sub
    }

    /// Merges another graph into this one (union of nodes and edges).
    pub fn merge(&mut self, other: &DiGraph) {
        for node in other.nodes() {
            self.add_node(node);
        }
        for (from, to) in other.edges() {
            self.add_edge(from, to);
        }
    }
}

impl FromIterator<(NodeId, NodeId)> for DiGraph {
    fn from_iter<T: IntoIterator<Item = (NodeId, NodeId)>>(iter: T) -> Self {
        let mut g = DiGraph::new();
        for (from, to) in iter {
            g.add_edge(from, to);
        }
        g
    }
}

impl Extend<(NodeId, NodeId)> for DiGraph {
    fn extend<T: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: T) {
        for (from, to) in iter {
            self.add_edge(from, to);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = DiGraph::new();
        assert!(g.add_edge(n(0), n(1)));
        assert!(!g.add_edge(n(0), n(1)), "duplicate edge is a no-op");
        assert!(g.has_edge(n(0), n(1)));
        assert!(!g.has_edge(n(1), n(0)));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = DiGraph::new();
        g.add_edge(n(0), n(0));
    }

    #[test]
    fn remove_node_drops_its_edges() {
        let mut g = DiGraph::new();
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(2), n(0));
        assert_eq!(g.edge_count(), 3);

        assert!(g.remove_node(n(2)));
        assert!(!g.contains_node(n(2)));
        assert_eq!(g.edge_count(), 1, "edges touching n2 are gone");
        assert!(g.has_edge(n(0), n(1)));
        assert!(!g.remove_node(n(2)));
    }

    #[test]
    fn degrees() {
        let mut g = DiGraph::new();
        g.add_edge(n(0), n(1));
        g.add_edge(n(0), n(2));
        g.add_edge(n(1), n(2));
        assert_eq!(g.out_degree(n(0)), 2);
        assert_eq!(g.out_degree(n(2)), 0);
        assert_eq!(g.in_degree(n(2)), 2);
        let ind = g.in_degrees();
        assert_eq!(ind[&n(0)], 0);
        assert_eq!(ind[&n(1)], 1);
        assert_eq!(ind[&n(2)], 2);
    }

    #[test]
    fn reversed_swaps_edges() {
        let g: DiGraph = [(n(0), n(1)), (n(1), n(2))].into_iter().collect();
        let rev = g.reversed();
        assert!(rev.has_edge(n(1), n(0)));
        assert!(rev.has_edge(n(2), n(1)));
        assert_eq!(rev.node_count(), 3);
        assert_eq!(rev.edge_count(), 2);
    }

    #[test]
    fn induced_subgraph_drops_edges() {
        let g: DiGraph = [(n(0), n(1)), (n(1), n(2)), (n(2), n(0))]
            .into_iter()
            .collect();
        let sub = g.induced_subgraph(|id| id != n(2));
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        assert!(sub.has_edge(n(0), n(1)));
    }

    #[test]
    fn merge_unions_graphs() {
        let mut a: DiGraph = [(n(0), n(1))].into_iter().collect();
        let b: DiGraph = [(n(1), n(2))].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.node_count(), 3);
        assert_eq!(a.edge_count(), 2);
    }

    #[test]
    fn bidirectional_edge() {
        let mut g = DiGraph::new();
        g.add_bidirectional_edge(n(4), n(9));
        assert!(g.has_edge(n(4), n(9)));
        assert!(g.has_edge(n(9), n(4)));
    }

    #[test]
    fn successors_are_sorted() {
        let mut g = DiGraph::new();
        g.add_edge(n(0), n(5));
        g.add_edge(n(0), n(2));
        g.add_edge(n(0), n(9));
        assert_eq!(g.successors_vec(n(0)), vec![n(2), n(5), n(9)]);
    }

    #[test]
    fn extend_adds_edges() {
        let mut g = DiGraph::new();
        g.extend([(n(0), n(1)), (n(1), n(2))]);
        assert_eq!(g.edge_count(), 2);
    }
}
