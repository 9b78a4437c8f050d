//! [`StaticOverlay`]: an id-keyed overlay assembled link by link, the
//! reference `hybridcast_core::overlay::DenseOverlay` is checked against.

use std::collections::BTreeMap;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use hybridcast_core::overlay::{DenseOverlay, Overlay};
use hybridcast_graph::cast::checked_u32;
use hybridcast_graph::{builders, DiGraph, NodeId};
use hybridcast_sim::FlatLinks;

/// An [`Overlay`] assembled from explicit link graphs.
///
/// Used for the deterministic baselines (trees, stars, cliques, Harary
/// graphs flooded over their d-links) and for tests that need precise
/// control over the topology.
#[derive(Debug, Clone, Default)]
pub struct StaticOverlay {
    nodes: BTreeMap<NodeId, bool>,
    r_links: BTreeMap<NodeId, Vec<NodeId>>,
    d_links: BTreeMap<NodeId, Vec<NodeId>>,
}

impl StaticOverlay {
    /// Creates an empty overlay.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an overlay whose d-links come from `d_graph` and r-links from
    /// `r_graph`; the node set is the union of both graphs, all alive.
    pub fn from_graphs(d_graph: &DiGraph, r_graph: &DiGraph) -> Self {
        let mut overlay = StaticOverlay::new();
        for node in d_graph.nodes().chain(r_graph.nodes()) {
            overlay.add_node(node);
        }
        for (from, to) in d_graph.edges() {
            overlay.add_d_link(from, to);
        }
        for (from, to) in r_graph.edges() {
            overlay.add_r_link(from, to);
        }
        overlay
    }

    /// Creates an overlay with only deterministic links (r-link set empty),
    /// as used by the flooding baselines of Section 3.
    pub fn deterministic(d_graph: &DiGraph) -> Self {
        Self::from_graphs(d_graph, &DiGraph::new())
    }

    /// A RingCast-shaped overlay over the nodes `0..n`: a bidirectional ring
    /// as d-links plus `degree` random r-links per node, drawn from a
    /// `ChaCha8` stream seeded with `seed`.
    pub fn hybrid(n: u64, degree: usize, seed: u64) -> Self {
        let nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let random = builders::random_out_degree(&nodes, degree, &mut rng);
        Self::from_graphs(&builders::bidirectional_ring(&nodes), &random)
    }

    /// Creates an overlay with only random links (d-link set empty), the
    /// shape RandCast runs over.
    pub fn random(r_graph: &DiGraph) -> Self {
        Self::from_graphs(&DiGraph::new(), r_graph)
    }

    /// Registers a live node.
    pub fn add_node(&mut self, node: NodeId) {
        self.nodes.entry(node).or_insert(true);
    }

    /// Adds an outgoing r-link.
    pub fn add_r_link(&mut self, from: NodeId, to: NodeId) {
        self.add_node(from);
        let links = self.r_links.entry(from).or_default();
        if !links.contains(&to) {
            links.push(to);
        }
    }

    /// Adds an outgoing d-link.
    pub fn add_d_link(&mut self, from: NodeId, to: NodeId) {
        self.add_node(from);
        let links = self.d_links.entry(from).or_default();
        if !links.contains(&to) {
            links.push(to);
        }
    }

    /// Marks a node as dead. Its links (and links pointing to it) stay in
    /// place as dead links. Returns `true` if the node was alive.
    pub fn kill_node(&mut self, node: NodeId) -> bool {
        match self.nodes.get_mut(&node) {
            Some(alive) if *alive => {
                *alive = false;
                true
            }
            _ => false,
        }
    }
}

impl Overlay for StaticOverlay {
    fn is_live(&self, node: NodeId) -> bool {
        self.nodes.get(&node).copied().unwrap_or(false)
    }

    fn live_node_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|&(_, &alive)| alive)
            .map(|(&id, _)| id)
            .collect()
    }

    fn live_count(&self) -> usize {
        self.nodes.values().filter(|&&alive| alive).count()
    }

    fn r_links(&self, node: NodeId) -> Vec<NodeId> {
        self.r_links.get(&node).cloned().unwrap_or_default()
    }

    fn d_links(&self, node: NodeId) -> Vec<NodeId> {
        self.d_links.get(&node).cloned().unwrap_or_default()
    }
}

/// The dense copy of a static overlay: every registered node with its links
/// in insertion order (so random draws stay bit-identical between the
/// engines), link targets that were never registered as dead nodes, and
/// killed nodes dead.
impl From<&StaticOverlay> for DenseOverlay {
    fn from(overlay: &StaticOverlay) -> Self {
        let mut links = FlatLinks {
            ids: Vec::new(),
            r_offsets: vec![0],
            r_targets: Vec::new(),
            d_offsets: vec![0],
            d_targets: Vec::new(),
        };
        for &id in overlay.nodes.keys() {
            links.ids.push(id);
            links.r_targets.extend(overlay.r_links(id));
            links.d_targets.extend(overlay.d_links(id));
            links.r_offsets.push(checked_u32(links.r_targets.len()));
            links.d_offsets.push(checked_u32(links.d_targets.len()));
        }
        let mut dense = DenseOverlay::from_flat_links(&links);
        for (&id, _) in overlay.nodes.iter().filter(|&(_, &alive)| !alive) {
            dense.kill_node(id);
        }
        dense
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    fn ids(count: u64) -> Vec<NodeId> {
        (0..count).map(NodeId::new).collect()
    }

    #[test]
    fn static_overlay_from_graphs() {
        let ring = builders::bidirectional_ring(&ids(6));
        let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(1);
        let random = builders::random_out_degree(&ids(6), 3, &mut rng);
        let overlay = StaticOverlay::from_graphs(&ring, &random);
        assert_eq!(overlay.live_count(), 6);
        assert_eq!(overlay.d_links(n(0)).len(), 2);
        assert_eq!(overlay.r_links(n(0)).len(), 3);
        assert!(overlay.is_live(n(5)));
        assert!(!overlay.is_live(n(99)));
    }

    #[test]
    fn deterministic_and_random_constructors() {
        let ring = builders::bidirectional_ring(&ids(5));
        let det = StaticOverlay::deterministic(&ring);
        assert!(det.r_links(n(0)).is_empty());
        assert_eq!(det.d_links(n(0)).len(), 2);

        let rnd = StaticOverlay::random(&ring);
        assert!(rnd.d_links(n(0)).is_empty());
        assert_eq!(rnd.r_links(n(0)).len(), 2);
    }

    #[test]
    fn kill_node_keeps_links_in_place() {
        let ring = builders::bidirectional_ring(&ids(4));
        let mut overlay = StaticOverlay::deterministic(&ring);
        assert!(overlay.kill_node(n(2)));
        assert!(!overlay.kill_node(n(2)), "already dead");
        assert!(!overlay.kill_node(n(9)), "unknown");
        assert!(!overlay.is_live(n(2)));
        assert_eq!(overlay.live_count(), 3);
        // Neighbours still point at the dead node.
        assert!(overlay.d_links(n(1)).contains(&n(2)));
    }

    #[test]
    fn duplicate_links_are_not_stored_twice() {
        let mut overlay = StaticOverlay::new();
        overlay.add_r_link(n(0), n(1));
        overlay.add_r_link(n(0), n(1));
        overlay.add_d_link(n(0), n(2));
        overlay.add_d_link(n(0), n(2));
        assert_eq!(overlay.r_links(n(0)), vec![n(1)]);
        assert_eq!(overlay.d_links(n(0)), vec![n(2)]);
    }

    #[test]
    fn dense_overlay_mirrors_static_overlay() {
        let ring = builders::bidirectional_ring(&ids(8));
        let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(2);
        let random = builders::random_out_degree(&ids(8), 3, &mut rng);
        let mut sparse = StaticOverlay::from_graphs(&ring, &random);
        sparse.kill_node(n(5));
        let dense = DenseOverlay::from(&sparse);

        assert_eq!(dense.len(), 8);
        assert_eq!(dense.live_len(), 7);
        assert_eq!(dense.live_count(), sparse.live_count());
        assert_eq!(dense.live_node_ids(), sparse.live_node_ids());
        for id in ids(8) {
            assert_eq!(dense.is_live(id), sparse.is_live(id), "{id}");
            assert_eq!(dense.r_links(id), sparse.r_links(id), "{id} r-links");
            assert_eq!(dense.d_links(id), sparse.d_links(id), "{id} d-links");
            let idx = dense.index_of(id).unwrap();
            assert_eq!(dense.node_id(idx), id);
            assert_eq!(dense.r_links_of(idx).len(), sparse.r_links(id).len());
        }
        assert!(dense.index_of(n(99)).is_none());
        assert!(!dense.is_live(n(99)));
    }
}
