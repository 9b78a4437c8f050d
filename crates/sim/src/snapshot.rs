//! Frozen overlay snapshots handed to the dissemination engine.
//!
//! Section 7.1 of the paper argues (and verifies experimentally) that the
//! gossiping speed of the membership layer has no effect on the macroscopic
//! behaviour of disseminations, and consequently evaluates dissemination
//! over *frozen* overlays. [`OverlaySnapshot`] is that frozen overlay: an
//! immutable record of every live node's r-links and d-links at a given
//! cycle, cheap to clone and safe to share across experiment repetitions.

use std::collections::BTreeMap;

use hybridcast_graph::{DiGraph, NodeId};

/// The per-node part of a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// The node's position on the primary identifier ring.
    pub ring_position: u64,
    /// The cycle at which the node joined the network.
    pub joined_at_cycle: u64,
    /// Outgoing random links (the node's Cyclon view). May point to nodes
    /// that have since died.
    pub r_links: Vec<NodeId>,
    /// Outgoing deterministic links (ring neighbours on every ring). May
    /// point to nodes that have since died.
    pub d_links: Vec<NodeId>,
}

/// An immutable snapshot of the overlay at a given cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverlaySnapshot {
    cycle: u64,
    nodes: BTreeMap<NodeId, NodeSnapshot>,
}

impl OverlaySnapshot {
    /// Builds a snapshot from per-node entries. Only live nodes appear as
    /// keys; links may reference absent (dead) nodes.
    pub fn new(cycle: u64, nodes: BTreeMap<NodeId, NodeSnapshot>) -> Self {
        OverlaySnapshot { cycle, nodes }
    }

    /// The cycle at which the snapshot was taken.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of live nodes in the snapshot.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the snapshot has no live nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Returns `true` if the node is alive in this snapshot.
    pub fn is_live(&self, id: NodeId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// Iterates over the ids of all live nodes, in ascending order.
    pub fn live_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.keys().copied()
    }

    /// The per-node record, if the node is alive.
    pub fn node(&self, id: NodeId) -> Option<&NodeSnapshot> {
        self.nodes.get(&id)
    }

    /// Iterates over all live nodes and their records, in ascending id
    /// order. This is the allocation-free export used to build dense
    /// index-based overlays: unlike [`OverlaySnapshot::r_links`] /
    /// [`OverlaySnapshot::d_links`], no link vector is cloned.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &NodeSnapshot)> {
        self.nodes.iter().map(|(&id, node)| (id, node))
    }

    /// The node's outgoing r-links (empty for dead/unknown nodes).
    pub fn r_links(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes
            .get(&id)
            .map(|n| n.r_links.clone())
            .unwrap_or_default()
    }

    /// The node's outgoing d-links (empty for dead/unknown nodes).
    pub fn d_links(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes
            .get(&id)
            .map(|n| n.d_links.clone())
            .unwrap_or_default()
    }

    /// The node's lifetime (in cycles) at the time of the snapshot.
    pub fn lifetime(&self, id: NodeId) -> Option<u64> {
        self.nodes
            .get(&id)
            .map(|n| self.cycle.saturating_sub(n.joined_at_cycle))
    }

    /// Removes a node from the snapshot (used by catastrophic-failure
    /// experiments that kill nodes *after* freezing the overlay, which is
    /// the paper's worst-case setup: the overlay gets no chance to heal).
    pub fn remove_node(&mut self, id: NodeId) -> bool {
        self.nodes.remove(&id).is_some()
    }

    /// The directed graph formed by all r-links between live nodes.
    pub fn r_link_graph(&self) -> DiGraph {
        self.link_graph(|n| &n.r_links)
    }

    /// The directed graph formed by all d-links between live nodes.
    pub fn d_link_graph(&self) -> DiGraph {
        self.link_graph(|n| &n.d_links)
    }

    fn link_graph<F: Fn(&NodeSnapshot) -> &Vec<NodeId>>(&self, links: F) -> DiGraph {
        let mut g = DiGraph::with_nodes(self.live_nodes());
        for (&id, node) in &self.nodes {
            for &to in links(node) {
                if to != id && self.is_live(to) {
                    g.add_edge(id, to);
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    fn snapshot() -> OverlaySnapshot {
        let mut nodes = BTreeMap::new();
        nodes.insert(
            n(0),
            NodeSnapshot {
                ring_position: 100,
                joined_at_cycle: 0,
                r_links: vec![n(1), n(2), n(9)], // n(9) is dead
                d_links: vec![n(1), n(2)],
            },
        );
        nodes.insert(
            n(1),
            NodeSnapshot {
                ring_position: 200,
                joined_at_cycle: 3,
                r_links: vec![n(2)],
                d_links: vec![n(0), n(2)],
            },
        );
        nodes.insert(
            n(2),
            NodeSnapshot {
                ring_position: 300,
                joined_at_cycle: 10,
                r_links: vec![n(0)],
                d_links: vec![n(1), n(0)],
            },
        );
        OverlaySnapshot::new(12, nodes)
    }

    #[test]
    fn basic_accessors() {
        let snap = snapshot();
        assert_eq!(snap.cycle(), 12);
        assert_eq!(snap.len(), 3);
        assert!(!snap.is_empty());
        assert!(snap.is_live(n(1)));
        assert!(!snap.is_live(n(9)));
        assert_eq!(
            snap.live_nodes().collect::<Vec<_>>(),
            vec![n(0), n(1), n(2)]
        );
        assert_eq!(snap.node(n(1)).unwrap().ring_position, 200);
        assert_eq!(snap.r_links(n(0)), vec![n(1), n(2), n(9)]);
        assert_eq!(snap.d_links(n(9)), Vec::<NodeId>::new());
    }

    #[test]
    fn lifetimes_are_relative_to_snapshot_cycle() {
        let snap = snapshot();
        assert_eq!(snap.lifetime(n(0)), Some(12));
        assert_eq!(snap.lifetime(n(1)), Some(9));
        assert_eq!(snap.lifetime(n(2)), Some(2));
        assert_eq!(snap.lifetime(n(9)), None);
    }

    #[test]
    fn link_graphs_skip_dead_targets() {
        let snap = snapshot();
        let r = snap.r_link_graph();
        assert!(r.has_edge(n(0), n(1)));
        assert!(!r.contains_node(n(9)), "dead target not materialized");
        assert_eq!(r.edge_count(), 4);

        let d = snap.d_link_graph();
        assert_eq!(d.edge_count(), 6);
        assert!(d.has_edge(n(2), n(0)));
    }

    #[test]
    fn remove_node_simulates_post_freeze_failure() {
        let mut snap = snapshot();
        assert!(snap.remove_node(n(1)));
        assert!(!snap.remove_node(n(1)));
        assert!(!snap.is_live(n(1)));
        // Links referencing the removed node are simply dead now.
        assert_eq!(snap.r_links(n(0)), vec![n(1), n(2), n(9)]);
        let r = snap.r_link_graph();
        assert!(!r.contains_node(n(1)));
    }
}
