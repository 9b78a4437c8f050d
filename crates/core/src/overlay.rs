//! The overlay abstraction dissemination runs over.
//!
//! A dissemination only needs to know, for every node, which other nodes it
//! can forward a message to: its random links (r-links, from the peer
//! sampling service) and its deterministic links (d-links, e.g. ring
//! neighbours). [`Overlay`] captures exactly that, so the same engine and
//! protocols run over
//!
//! * [`SnapshotOverlay`] — a frozen overlay exported by the simulator
//!   (`hybridcast_sim::OverlaySnapshot`), the setup of all paper
//!   experiments, and
//! * [`StaticOverlay`] — overlays assembled directly from
//!   `hybridcast_graph` constructions (rings, Harary graphs, random
//!   graphs), used for the deterministic baselines of Section 3 and in unit
//!   tests, and
//! * [`DenseOverlay`] — a frozen, index-based compressed-sparse-row copy of
//!   either of the above, the input of the allocation-free dissemination
//!   hot path ([`crate::engine::disseminate_dense`]).

use std::collections::BTreeMap;

use hybridcast_graph::{cast, DiGraph, NodeId};
use hybridcast_sim::{DenseSimNetwork, FlatLinks, OverlaySnapshot};

/// Read-only access to the overlay a dissemination runs over.
///
/// Links may point to dead nodes (e.g. after a catastrophic failure);
/// implementations report liveness separately via [`Overlay::is_live`] so
/// that the engine can account messages wasted on dead destinations.
pub trait Overlay {
    /// Returns `true` if the node is alive (can receive and forward).
    fn is_live(&self, node: NodeId) -> bool;

    /// The ids of all live nodes.
    fn live_node_ids(&self) -> Vec<NodeId>;

    /// Number of live nodes.
    fn live_count(&self) -> usize {
        self.live_node_ids().len()
    }

    /// The node's outgoing random links (may include dead nodes).
    fn r_links(&self, node: NodeId) -> Vec<NodeId>;

    /// The node's outgoing deterministic links (may include dead nodes).
    fn d_links(&self, node: NodeId) -> Vec<NodeId>;
}

/// An [`Overlay`] backed by a frozen simulator snapshot.
#[derive(Debug, Clone)]
pub struct SnapshotOverlay {
    snapshot: OverlaySnapshot,
}

impl SnapshotOverlay {
    /// Wraps a simulator snapshot.
    pub fn new(snapshot: OverlaySnapshot) -> Self {
        SnapshotOverlay { snapshot }
    }

    /// Read access to the underlying snapshot (lifetimes, ring positions).
    pub fn snapshot(&self) -> &OverlaySnapshot {
        &self.snapshot
    }

    /// Mutable access to the underlying snapshot, e.g. to kill nodes after
    /// freezing (catastrophic-failure experiments).
    pub fn snapshot_mut(&mut self) -> &mut OverlaySnapshot {
        &mut self.snapshot
    }
}

impl From<OverlaySnapshot> for SnapshotOverlay {
    fn from(snapshot: OverlaySnapshot) -> Self {
        SnapshotOverlay::new(snapshot)
    }
}

impl Overlay for SnapshotOverlay {
    fn is_live(&self, node: NodeId) -> bool {
        self.snapshot.is_live(node)
    }

    fn live_node_ids(&self) -> Vec<NodeId> {
        self.snapshot.live_nodes().collect()
    }

    fn live_count(&self) -> usize {
        self.snapshot.len()
    }

    fn r_links(&self, node: NodeId) -> Vec<NodeId> {
        self.snapshot.r_links(node)
    }

    fn d_links(&self, node: NodeId) -> Vec<NodeId> {
        self.snapshot.d_links(node)
    }
}

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

/// Sentinel dense index meaning "no node" (used for the origin's sender).
pub(crate) const NO_NODE: u32 = u32::MAX;

/// A fixed-capacity bitset over dense node indices.
#[derive(Debug, Clone, Default)]
pub(crate) struct DenseBits {
    words: Vec<u64>,
}

impl DenseBits {
    /// Clears the set and resizes it to hold `len` bits.
    pub(crate) fn reset(&mut self, len: usize) {
        let words = len.div_ceil(64);
        self.words.clear();
        self.words.resize(words, 0);
    }

    pub(crate) fn get(&self, bit: u32) -> bool {
        self.words[cast::idx(bit) / 64] & (1 << (cast::idx(bit) % 64)) != 0
    }

    /// Sets the bit; returns `true` if it was previously clear.
    pub(crate) fn set(&mut self, bit: u32) -> bool {
        let word = &mut self.words[cast::idx(bit) / 64];
        let mask = 1 << (cast::idx(bit) % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    pub(crate) fn clear(&mut self, bit: u32) {
        self.words[cast::idx(bit) / 64] &= !(1 << (cast::idx(bit) % 64));
    }

    /// Makes this bitset an exact copy of `other`, reusing the existing
    /// word storage (no allocation once grown).
    pub(crate) fn copy_from(&mut self, other: &DenseBits) {
        self.words.clear();
        self.words.extend_from_slice(&other.words);
    }
}

/// The position of `id` in the strictly ascending `ids`, if present.
///
/// Strict ascent means `ids[i] >= ids[0] + i`, so `id` sits at most
/// `id - ids[0]` places in: that position is probed first — the only probe a
/// hole-free id range (a freshly grown or synthetic overlay) ever needs — and
/// a miss binary-searches the prefix below it.
fn rank(ids: &[NodeId], id: NodeId) -> Option<u32> {
    let first = ids.first()?.as_u64();
    let offset = id.as_u64().checked_sub(first)?;
    let bound = usize::try_from(offset).map_or(ids.len() - 1, |o| o.min(ids.len() - 1));
    if ids[bound] == id {
        return Some(cast::to_u32(bound));
    }
    ids[..bound].binary_search(&id).ok().map(cast::to_u32)
}

/// A frozen overlay in compressed-sparse-row (CSR) layout: nodes are dense
/// `u32` indices into flat arrays, links are contiguous index slices, and
/// liveness is a bitset.
///
/// This is the input of the allocation-free dissemination hot path
/// ([`crate::engine::disseminate_dense`]): where the [`Overlay`] trait hands
/// out a fresh `Vec<NodeId>` per link query, `DenseOverlay` hands out
/// borrowed `&[u32]` slices, so a dissemination touches no allocator at all
/// once its scratch buffers are warm.
///
/// The node universe covers every node that appears anywhere — live nodes
/// *and* dead link targets — sorted by ascending [`NodeId`], so reports
/// converted back to id-keyed form are ordered identically to the generic
/// engine's. That sorted id array is also the only id → index structure:
/// no map is built or kept, and [`DenseOverlay::index_of`] is a binary
/// search bounded by the id's distance from the first one (a single probe
/// over a hole-free id range). Build one with [`DenseOverlay::from_snapshot`],
/// [`DenseOverlay::from_graphs`], or the `From` impls for
/// [`SnapshotOverlay`] and [`StaticOverlay`]; all of them preserve per-node
/// link order, which keeps random draws bit-identical between engines.
#[derive(Debug, Clone)]
pub struct DenseOverlay {
    /// Dense index -> node id, strictly ascending. The inverse direction
    /// is [`rank`] over this array; no id -> index map is kept.
    ids: Vec<NodeId>,
    /// Liveness bitset over dense indices.
    live: DenseBits,
    live_count: usize,
    r_offsets: Vec<u32>,
    r_targets: Vec<u32>,
    d_offsets: Vec<u32>,
    d_targets: Vec<u32>,
}

impl DenseOverlay {
    /// Builds the overlay from per-node link lists. `entries` must be sorted
    /// by strictly ascending id; link targets absent from `entries` are
    /// materialised as dead nodes.
    ///
    /// Works on the sorted ids directly ([`rank`]): no set or map is built
    /// and none is kept.
    fn build(entries: &[(NodeId, bool, &[NodeId], &[NodeId])]) -> Self {
        let entry_ids: Vec<NodeId> = entries.iter().map(|&(id, ..)| id).collect();
        debug_assert!(entry_ids.windows(2).all(|pair| pair[0] < pair[1]));

        let mut dangling: Vec<NodeId> = entries
            .iter()
            .flat_map(|&(_, _, r, d)| r.iter().chain(d))
            .copied()
            .filter(|&target| rank(&entry_ids, target).is_none())
            .collect();
        dangling.sort_unstable();
        dangling.dedup();
        let mut ids = entry_ids;
        if !dangling.is_empty() {
            // Two ascending runs: the stable sort merges them in one pass.
            ids.extend_from_slice(&dangling);
            ids.sort();
        }
        let mut live = DenseBits::default();
        live.reset(ids.len());
        let mut live_count = 0usize;
        let mut r_offsets = Vec::with_capacity(ids.len() + 1);
        let mut d_offsets = Vec::with_capacity(ids.len() + 1);
        let mut r_targets = Vec::with_capacity(entries.iter().map(|e| e.2.len()).sum());
        let mut d_targets = Vec::with_capacity(entries.iter().map(|e| e.3.len()).sum());
        r_offsets.push(0u32);
        d_offsets.push(0u32);
        let index = |target: &NodeId| rank(&ids, *target).expect("every link target is a node");
        let mut remaining = entries.iter().peekable();
        for (idx, &id) in ids.iter().enumerate() {
            // Ids without an entry are the dangling ones: dead, no links.
            if let Some(&(_, alive, r, d)) = remaining.next_if(|entry| entry.0 == id) {
                if alive {
                    live.set(cast::to_u32(idx));
                    live_count += 1;
                }
                r_targets.extend(r.iter().map(index));
                d_targets.extend(d.iter().map(index));
            }
            r_offsets.push(cast::checked_u32(r_targets.len()));
            d_offsets.push(cast::checked_u32(d_targets.len()));
        }

        DenseOverlay {
            ids,
            live,
            live_count,
            r_offsets,
            r_targets,
            d_offsets,
            d_targets,
        }
    }

    /// Builds a dense copy of a simulator snapshot. Live nodes keep their
    /// snapshot link order; link targets that are not live in the snapshot
    /// become dead nodes with no outgoing links.
    pub fn from_snapshot(snapshot: &OverlaySnapshot) -> Self {
        let entries: Vec<(NodeId, bool, &[NodeId], &[NodeId])> = snapshot
            .nodes()
            .map(|(id, node)| (id, true, node.r_links.as_slice(), node.d_links.as_slice()))
            .collect();
        Self::build(&entries)
    }

    /// Builds a dense copy straight from the flat CSR link export of the
    /// arena-based simulation runtime
    /// ([`hybridcast_sim::DenseSimNetwork::flat_links`]), without any
    /// round-trip through an id-keyed [`OverlaySnapshot`]. Link order is
    /// preserved, so disseminations over the result are bit-identical to
    /// ones over `from_snapshot(&net.overlay_snapshot())`.
    ///
    /// # Panics
    ///
    /// Panics if `links` is not a well-formed export: ids not strictly
    /// ascending, an offset array not `ids.len() + 1` long, or a final
    /// offset different from the length of its target array.
    pub fn from_flat_links(links: &FlatLinks) -> Self {
        assert!(
            links.ids.windows(2).all(|pair| pair[0] < pair[1]),
            "FlatLinks::ids must be strictly ascending"
        );
        for (name, offsets, targets) in [
            ("r", &links.r_offsets, &links.r_targets),
            ("d", &links.d_offsets, &links.d_targets),
        ] {
            assert!(
                offsets.len() == links.ids.len() + 1,
                "FlatLinks::{name}_offsets must have ids.len() + 1 entries"
            );
            assert!(
                cast::idx(offsets[links.ids.len()]) == targets.len(),
                "FlatLinks::{name}_offsets must end at {name}_targets.len()"
            );
        }
        let entries: Vec<(NodeId, bool, &[NodeId], &[NodeId])> = links
            .ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let r = &links.r_targets
                    [cast::idx(links.r_offsets[i])..cast::idx(links.r_offsets[i + 1])];
                let d = &links.d_targets
                    [cast::idx(links.d_offsets[i])..cast::idx(links.d_offsets[i + 1])];
                (id, true, r, d)
            })
            .collect();
        Self::build(&entries)
    }

    /// Convenience: the dense overlay of an arena-based simulation's current
    /// state ([`DenseOverlay::from_flat_links`] over
    /// [`hybridcast_sim::DenseSimNetwork::flat_links`]).
    pub fn from_dense_sim(net: &DenseSimNetwork) -> Self {
        Self::from_flat_links(&net.flat_links())
    }

    /// Builds a dense overlay whose d-links come from `d_graph` and r-links
    /// from `r_graph`; the node set is the union of both graphs, all alive
    /// (the dense analogue of [`StaticOverlay::from_graphs`]).
    pub fn from_graphs(d_graph: &DiGraph, r_graph: &DiGraph) -> Self {
        let nodes: std::collections::BTreeSet<NodeId> =
            d_graph.nodes().chain(r_graph.nodes()).collect();
        let links: Vec<(Vec<NodeId>, Vec<NodeId>)> = nodes
            .iter()
            .map(|&id| (r_graph.successors_vec(id), d_graph.successors_vec(id)))
            .collect();
        let entries: Vec<(NodeId, bool, &[NodeId], &[NodeId])> = nodes
            .iter()
            .zip(&links)
            .map(|(&id, (r, d))| (id, true, r.as_slice(), d.as_slice()))
            .collect();
        Self::build(&entries)
    }

    /// Total number of nodes (live and dead).
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if the overlay has no nodes at all.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of live nodes.
    pub fn live_len(&self) -> usize {
        self.live_count
    }

    /// The id of the node at a dense index.
    pub fn node_id(&self, idx: u32) -> NodeId {
        self.ids[cast::idx(idx)]
    }

    /// The dense index of a node id, if the node exists in the overlay:
    /// `O(log n)` at worst, one probe when the ids have no holes.
    pub fn index_of(&self, id: NodeId) -> Option<u32> {
        rank(&self.ids, id)
    }

    /// Whether the node at a dense index is alive.
    pub fn is_live_idx(&self, idx: u32) -> bool {
        self.live.get(idx)
    }

    /// The node's outgoing random links, as a borrowed index slice.
    pub fn r_links_of(&self, idx: u32) -> &[u32] {
        let (lo, hi) = (
            self.r_offsets[cast::idx(idx)],
            self.r_offsets[cast::idx(idx) + 1],
        );
        &self.r_targets[cast::idx(lo)..cast::idx(hi)]
    }

    /// The node's outgoing deterministic links, as a borrowed index slice.
    pub fn d_links_of(&self, idx: u32) -> &[u32] {
        let (lo, hi) = (
            self.d_offsets[cast::idx(idx)],
            self.d_offsets[cast::idx(idx) + 1],
        );
        &self.d_targets[cast::idx(lo)..cast::idx(hi)]
    }

    /// The dense indices of all live nodes, ascending (by id).
    pub fn live_indices(&self) -> Vec<u32> {
        (0..cast::to_u32(self.ids.len()))
            .filter(|&i| self.live.get(i))
            .collect()
    }

    /// Marks a node as dead (catastrophic-failure experiments kill nodes
    /// after freezing). Its links stay in place as dead links, exactly like
    /// [`StaticOverlay::kill_node`]. Returns `true` if the node was alive.
    pub fn kill_node(&mut self, id: NodeId) -> bool {
        match self.index_of(id) {
            Some(idx) if self.live.get(idx) => {
                self.live.clear(idx);
                self.live_count -= 1;
                true
            }
            _ => false,
        }
    }
}

impl From<&OverlaySnapshot> for DenseOverlay {
    fn from(snapshot: &OverlaySnapshot) -> Self {
        DenseOverlay::from_snapshot(snapshot)
    }
}

impl From<&SnapshotOverlay> for DenseOverlay {
    fn from(overlay: &SnapshotOverlay) -> Self {
        DenseOverlay::from_snapshot(overlay.snapshot())
    }
}

impl From<&StaticOverlay> for DenseOverlay {
    fn from(overlay: &StaticOverlay) -> Self {
        static EMPTY: &[NodeId] = &[];
        let entries: Vec<(NodeId, bool, &[NodeId], &[NodeId])> = overlay
            .nodes
            .iter()
            .map(|(&id, &alive)| {
                let r = overlay.r_links.get(&id).map_or(EMPTY, |v| v.as_slice());
                let d = overlay.d_links.get(&id).map_or(EMPTY, |v| v.as_slice());
                (id, alive, r, d)
            })
            .collect();
        DenseOverlay::build(&entries)
    }
}

impl Overlay for DenseOverlay {
    fn is_live(&self, node: NodeId) -> bool {
        self.index_of(node).is_some_and(|idx| self.live.get(idx))
    }

    fn live_node_ids(&self) -> Vec<NodeId> {
        (0..cast::to_u32(self.ids.len()))
            .filter(|&i| self.live.get(i))
            .map(|i| self.ids[cast::idx(i)])
            .collect()
    }

    fn live_count(&self) -> usize {
        self.live_count
    }

    fn r_links(&self, node: NodeId) -> Vec<NodeId> {
        self.index_of(node).map_or_else(Vec::new, |idx| {
            self.r_links_of(idx)
                .iter()
                .map(|&t| self.ids[cast::idx(t)])
                .collect()
        })
    }

    fn d_links(&self, node: NodeId) -> Vec<NodeId> {
        self.index_of(node).map_or_else(Vec::new, |idx| {
            self.d_links_of(idx)
                .iter()
                .map(|&t| self.ids[cast::idx(t)])
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_graph::builders;
    use hybridcast_sim::{Network, SimConfig};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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

    #[test]
    fn dense_overlay_materialises_dead_link_targets() {
        // A link to an unregistered node: the generic overlay reports it as
        // not live; the dense overlay must index it as a dead node so the
        // engine can account messages_to_dead.
        let mut sparse = StaticOverlay::new();
        sparse.add_r_link(n(0), n(7));
        let dense = DenseOverlay::from(&sparse);
        assert_eq!(dense.len(), 2, "n0 plus the dead target n7");
        assert_eq!(dense.live_len(), 1);
        let seven = dense.index_of(n(7)).unwrap();
        assert!(!dense.is_live_idx(seven));
        assert!(dense.r_links_of(seven).is_empty());
    }

    #[test]
    fn dense_overlay_from_snapshot_preserves_link_order() {
        let mut net = Network::new(
            SimConfig {
                nodes: 60,
                ..SimConfig::default()
            },
            9,
        );
        net.run_cycles(50);
        let snapshot = net.overlay_snapshot();
        let dense = DenseOverlay::from_snapshot(&snapshot);
        assert_eq!(dense.live_len(), 60);
        for id in snapshot.live_nodes() {
            assert_eq!(dense.r_links(id), snapshot.r_links(id), "{id} order");
            assert_eq!(dense.d_links(id), snapshot.d_links(id), "{id} order");
        }
        assert_eq!(dense.live_indices().len(), 60);
    }

    #[test]
    fn dense_overlay_from_flat_links_equals_snapshot_route() {
        use hybridcast_sim::DenseSimNetwork;
        let config = SimConfig {
            nodes: 70,
            ..SimConfig::default()
        };
        let mut net = DenseSimNetwork::new(config, 13);
        net.run_cycles(40);
        let via_snapshot = DenseOverlay::from_snapshot(&net.overlay_snapshot());
        let direct = DenseOverlay::from_dense_sim(&net);
        assert_eq!(direct.len(), via_snapshot.len());
        assert_eq!(direct.live_len(), via_snapshot.live_len());
        for id in via_snapshot.live_node_ids() {
            assert_eq!(direct.r_links(id), via_snapshot.r_links(id), "{id} r");
            assert_eq!(direct.d_links(id), via_snapshot.d_links(id), "{id} d");
            assert_eq!(direct.index_of(id), via_snapshot.index_of(id), "{id} index");
        }
    }

    /// What a `DenseOverlay` consists of, in comparable form.
    #[derive(Debug, PartialEq)]
    struct Parts {
        ids: Vec<NodeId>,
        live: Vec<bool>,
        r_offsets: Vec<u32>,
        r_targets: Vec<u32>,
        d_offsets: Vec<u32>,
        d_targets: Vec<u32>,
    }

    fn parts_of(overlay: &DenseOverlay) -> Parts {
        Parts {
            ids: overlay.ids.clone(),
            live: (0..cast::to_u32(overlay.len()))
                .map(|i| overlay.is_live_idx(i))
                .collect(),
            r_offsets: overlay.r_offsets.clone(),
            r_targets: overlay.r_targets.clone(),
            d_offsets: overlay.d_offsets.clone(),
            d_targets: overlay.d_targets.clone(),
        }
    }

    /// The oracle: the straightforward builder — a `BTreeSet` universe, a
    /// `BTreeMap` index, one map lookup per link — the production builder
    /// is pinned against. Returns the parts and the id -> index map.
    fn reference_build(
        entries: &[(NodeId, bool, &[NodeId], &[NodeId])],
    ) -> (Parts, BTreeMap<NodeId, u32>) {
        let mut universe: BTreeSet<NodeId> = entries.iter().map(|&(id, ..)| id).collect();
        for (_, _, r, d) in entries {
            universe.extend(r.iter().copied());
            universe.extend(d.iter().copied());
        }
        let ids: Vec<NodeId> = universe.into_iter().collect();
        let index: BTreeMap<NodeId, u32> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, cast::to_u32(i)))
            .collect();

        let mut live = vec![false; ids.len()];
        let mut r_links: Vec<&[NodeId]> = vec![&[]; ids.len()];
        let mut d_links: Vec<&[NodeId]> = vec![&[]; ids.len()];
        for &(id, alive, r, d) in entries {
            let idx = cast::idx(index[&id]);
            live[idx] = alive;
            r_links[idx] = r;
            d_links[idx] = d;
        }
        let pack = |links: &[&[NodeId]]| -> (Vec<u32>, Vec<u32>) {
            let mut offsets = vec![0u32];
            let mut targets = Vec::new();
            for l in links {
                targets.extend(l.iter().map(|id| index[id]));
                offsets.push(cast::to_u32(targets.len()));
            }
            (offsets, targets)
        };
        let (r_offsets, r_targets) = pack(&r_links);
        let (d_offsets, d_targets) = pack(&d_links);
        let parts = Parts {
            ids,
            live,
            r_offsets,
            r_targets,
            d_offsets,
            d_targets,
        };
        (parts, index)
    }

    /// Packs per-node link lists into the CSR export shape.
    fn flat_links_of(nodes: &[(NodeId, Vec<NodeId>, Vec<NodeId>)]) -> FlatLinks {
        let mut links = FlatLinks {
            ids: Vec::new(),
            r_offsets: vec![0],
            r_targets: Vec::new(),
            d_offsets: vec![0],
            d_targets: Vec::new(),
        };
        for (id, r, d) in nodes {
            links.ids.push(*id);
            links.r_targets.extend_from_slice(r);
            links.d_targets.extend_from_slice(d);
            links.r_offsets.push(cast::to_u32(links.r_targets.len()));
            links.d_offsets.push(cast::to_u32(links.d_targets.len()));
        }
        links
    }

    proptest! {
        /// Random CSR exports — sorted ids with holes; link targets below
        /// the first id, in the holes between ids and above the last one
        /// (all dangling: they become dead nodes); duplicate links; nodes
        /// without links; no nodes at all — build the overlay the
        /// reference builder builds, and `index_of` agrees with the
        /// reference map for every id in and around the range.
        #[test]
        fn from_flat_links_equals_the_reference_builder(
            present in prop::collection::btree_set(10u64..60, 0..25),
            lists in prop::collection::vec(
                (
                    prop::collection::vec(0u64..80, 0..7),
                    prop::collection::vec(0u64..80, 0..4),
                ),
                25,
            ),
        ) {
            let nodes: Vec<(NodeId, Vec<NodeId>, Vec<NodeId>)> = present
                .iter()
                .zip(&lists)
                .map(|(&id, (r, d))| {
                    let ids = |raw: &[u64]| raw.iter().copied().map(NodeId::new).collect();
                    (n(id), ids(r), ids(d))
                })
                .collect();
            let entries: Vec<(NodeId, bool, &[NodeId], &[NodeId])> = nodes
                .iter()
                .map(|(id, r, d)| (*id, true, r.as_slice(), d.as_slice()))
                .collect();
            let (expected, index) = reference_build(&entries);

            let dense = DenseOverlay::from_flat_links(&flat_links_of(&nodes));
            prop_assert_eq!(parts_of(&dense), expected);
            prop_assert_eq!(dense.live_len(), nodes.len());
            for raw in (0..90).chain([u64::MAX - 1, u64::MAX]) {
                prop_assert_eq!(
                    dense.index_of(n(raw)),
                    index.get(&n(raw)).copied(),
                    "index_of({})",
                    raw
                );
            }
        }
    }

    /// A well-formed three-node export for the malformed-input tests to
    /// break one field of.
    fn small_links() -> FlatLinks {
        flat_links_of(&[
            (n(1), vec![n(2), n(4)], vec![n(4)]),
            (n(2), vec![n(1)], vec![]),
            (n(4), vec![], vec![n(1), n(9)]),
        ])
    }

    #[test]
    fn from_flat_links_accepts_the_well_formed_and_the_empty_export() {
        let dense = DenseOverlay::from_flat_links(&small_links());
        assert_eq!(dense.len(), 4, "three live nodes plus the dangling n9");
        assert_eq!(dense.live_len(), 3);
        assert!(DenseOverlay::from_flat_links(&flat_links_of(&[])).is_empty());
    }

    #[test]
    #[should_panic(expected = "FlatLinks::ids must be strictly ascending")]
    fn from_flat_links_rejects_unsorted_ids() {
        let mut links = small_links();
        links.ids.swap(0, 1);
        let _ = DenseOverlay::from_flat_links(&links);
    }

    #[test]
    #[should_panic(expected = "FlatLinks::ids must be strictly ascending")]
    fn from_flat_links_rejects_duplicate_ids() {
        let mut links = small_links();
        links.ids[1] = links.ids[0];
        let _ = DenseOverlay::from_flat_links(&links);
    }

    #[test]
    #[should_panic(expected = "FlatLinks::r_offsets must have ids.len() + 1 entries")]
    fn from_flat_links_rejects_a_short_r_offset_array() {
        let mut links = small_links();
        links.r_offsets.pop();
        let _ = DenseOverlay::from_flat_links(&links);
    }

    #[test]
    #[should_panic(expected = "FlatLinks::d_offsets must have ids.len() + 1 entries")]
    fn from_flat_links_rejects_a_long_d_offset_array() {
        let mut links = small_links();
        links.d_offsets.push(3);
        let _ = DenseOverlay::from_flat_links(&links);
    }

    #[test]
    #[should_panic(expected = "FlatLinks::r_offsets must end at r_targets.len()")]
    fn from_flat_links_rejects_r_targets_beyond_the_final_offset() {
        let mut links = small_links();
        links.r_targets.push(n(2));
        let _ = DenseOverlay::from_flat_links(&links);
    }

    #[test]
    #[should_panic(expected = "FlatLinks::d_offsets must end at d_targets.len()")]
    fn from_flat_links_rejects_a_final_d_offset_past_the_targets() {
        let mut links = small_links();
        links.d_targets.pop();
        let _ = DenseOverlay::from_flat_links(&links);
    }

    #[test]
    fn dense_kill_node_matches_static_kill_semantics() {
        let ring = builders::bidirectional_ring(&ids(5));
        let mut dense = DenseOverlay::from_graphs(&ring, &hybridcast_graph::DiGraph::new());
        assert!(dense.kill_node(n(2)));
        assert!(!dense.kill_node(n(2)), "already dead");
        assert!(!dense.kill_node(n(9)), "unknown");
        assert_eq!(dense.live_len(), 4);
        // Links to and from the dead node stay in place.
        assert!(dense.d_links(n(1)).contains(&n(2)));
        assert_eq!(dense.d_links(n(2)).len(), 2);
    }

    #[test]
    fn snapshot_overlay_delegates_to_snapshot() {
        let mut net = Network::new(
            SimConfig {
                nodes: 40,
                ..SimConfig::default()
            },
            3,
        );
        net.run_cycles(40);
        let mut overlay = SnapshotOverlay::new(net.overlay_snapshot());
        assert_eq!(overlay.live_count(), 40);
        let some_node = overlay.live_node_ids()[0];
        assert!(!overlay.r_links(some_node).is_empty());
        assert_eq!(overlay.d_links(some_node).len(), 2, "one ring: two d-links");

        overlay.snapshot_mut().remove_node(some_node);
        assert!(!overlay.is_live(some_node));
        assert_eq!(overlay.live_count(), 39);
        assert_eq!(overlay.snapshot().len(), 39);
    }
}
