//! [`Network`]: the id-keyed cycle-driven membership runtime
//! (`BTreeMap<NodeId, SimNode>`), the reference
//! `hybridcast_sim::DenseSimNetwork` replays draw for draw.
//!
//! Each node is a [`NodeMachine`], the machine the threaded nodes of
//! `hybridcast-net` run; [`Network`] is the message pump around them, on
//! one shared stream.
//!
//! Every initial node boots with the star topology the paper uses (one
//! introducer contact), and [`Network::run_cycles`] gives every live node,
//! in a fresh random order, one Cyclon shuffle and one Vicinity exchange per
//! ring, exactly like PeerSim's cycle-driven mode. [`Network`] implements
//! [`GossipRuntime`], so the churn and failure drivers of `hybridcast-sim`
//! drive it like the dense runtime.

use std::collections::BTreeMap;
use std::ops::Deref;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hybridcast_graph::NodeId;
use hybridcast_membership::descriptor::Descriptor;
use hybridcast_membership::node::{NodeMachine, RingProfile};
use hybridcast_obs::{NullProbe, Probe, TraceEvent};

use hybridcast_sim::snapshot::{NodeSnapshot, OverlaySnapshot};
use hybridcast_sim::{GossipRuntime, SimConfig};

/// One simulated node: its membership [`NodeMachine`] and the cycle it
/// joined at. It reads as its machine (`node.cyclon()`, `node.d_links()`).
#[derive(Debug, Clone)]
pub struct SimNode {
    machine: NodeMachine,
    joined_at_cycle: u64,
}

impl SimNode {
    /// The cycle at which this node joined the network (0 for bootstrap
    /// nodes).
    pub fn joined_at_cycle(&self) -> u64 {
        self.joined_at_cycle
    }
}

impl Deref for SimNode {
    type Target = NodeMachine;

    fn deref(&self) -> &NodeMachine {
        &self.machine
    }
}

/// The simulated network: a population of [`SimNode`]s driven in discrete
/// gossip cycles, as in PeerSim's cycle-driven mode.
///
#[derive(Debug, Clone)]
pub struct Network {
    config: SimConfig,
    nodes: BTreeMap<NodeId, SimNode>,
    next_id: u64,
    cycle: u64,
    rng: ChaCha8Rng,
}

impl Network {
    /// Boots a network of `config.nodes` nodes.
    ///
    /// All nodes are created at cycle 0 with the star bootstrap topology of
    /// the paper: every node's Cyclon view initially holds a single contact
    /// (node 0). Vicinity views start empty.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate.
    pub fn new(config: SimConfig, seed: u64) -> Self {
        config.validate().expect("invalid simulation configuration");
        let mut net = Network {
            config,
            nodes: BTreeMap::new(),
            next_id: 0,
            cycle: 0,
            rng: ChaCha8Rng::seed_from_u64(seed),
        };
        let introducer = net.spawn_node(None);
        for _ in 1..net.config.nodes {
            net.spawn_node(Some(introducer));
        }
        net
    }

    /// Iterates over the live nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &SimNode> {
        self.nodes.values()
    }

    /// Returns the node with the given id, if it is alive.
    pub fn node(&self, id: NodeId) -> Option<&SimNode> {
        self.nodes.get(&id)
    }

    /// Creates a brand-new node and adds it to the network.
    ///
    /// If `introducer` is `Some`, the new node bootstraps with that single
    /// contact (the paper's join model); otherwise it starts isolated
    /// (only used for the very first node).
    pub fn spawn_node(&mut self, introducer: Option<NodeId>) -> NodeId {
        let id = NodeId::new(self.next_id);
        self.next_id += 1;
        let profile: RingProfile = (0..self.config.rings.max(1))
            .map(|_| self.rng.gen())
            .collect();
        let config = &self.config;
        let mut machine = NodeMachine::new(
            id,
            profile,
            (config.cyclon_view, config.cyclon_shuffle),
            config
                .run_vicinity
                .then_some((config.vicinity_view, config.vicinity_gossip)),
        );
        if let Some(contact) = introducer.and_then(|contact| self.nodes.get(&contact)) {
            machine.add_contact(Descriptor::new(contact.id(), contact.profile().clone()));
        }
        let node = SimNode {
            machine,
            joined_at_cycle: self.cycle,
        };
        self.nodes.insert(id, node);
        id
    }

    /// [`GossipRuntime::run_cycles`] with a [`Probe`] attached: one
    /// `ViewExchange` per gossiping node (in shuffle order) and a
    /// `CycleEnd` per cycle. The probe never touches the simulation RNG,
    /// so the network evolves bit-identically to the unprobed call — and
    /// the stream matches [`hybridcast_sim::DenseSimNetwork::run_cycles_probed`]'s
    /// record for record when both runtimes were built from the same seed.
    pub fn run_cycles_probed<P: Probe>(&mut self, count: usize, probe: &mut P) {
        for _ in 0..count {
            self.run_single_cycle_probed(probe);
        }
    }

    fn run_single_cycle_probed<P: Probe>(&mut self, probe: &mut P) {
        self.cycle += 1;
        let mut order = self.live_ids();
        order.shuffle(&mut self.rng);
        for id in order {
            // The node may have been removed by churn applied mid-cycle by
            // callers driving cycles manually; skip silently.
            if !self.nodes.contains_key(&id) {
                continue;
            }
            probe.record(TraceEvent::ViewExchange {
                node: id.as_u64(),
                cycle: self.cycle,
            });
            self.gossip_once(id);
        }
        probe.record(TraceEvent::CycleEnd {
            cycle: self.cycle,
            live: self.len() as u64,
        });
    }

    /// Runs the per-cycle gossip of a single node (ageing, one Cyclon
    /// shuffle, one Vicinity exchange per ring): its machine's tick, with
    /// every message delivered synchronously to the live peer's machine and
    /// the reply handed straight back, or reported undeliverable when the
    /// peer is gone.
    ///
    /// Exposed so that tests and the churn driver can gossip specific nodes
    /// (e.g. "new nodes gossip at a higher rate" experiments).
    pub fn gossip_once(&mut self, id: NodeId) {
        let Some(mut node) = self.nodes.remove(&id) else {
            return;
        };
        let rng = &mut self.rng;
        let mut out = node.machine.on_tick(rng);
        while let Some((to, msg)) = out {
            out = match self.nodes.get_mut(&to) {
                Some(peer) => match peer.machine.on_gossip(id, msg, rng) {
                    Some((_, reply)) => node.machine.on_gossip(to, reply, rng),
                    None => None,
                },
                None => node.machine.on_undeliverable(to, rng),
            };
        }
        self.nodes.insert(id, node);
    }

    /// Exports a frozen snapshot of the current overlay: the live node set,
    /// every node's r-links (its Cyclon view) and d-links (its ring
    /// neighbours on every ring).
    pub fn overlay_snapshot(&self) -> OverlaySnapshot {
        let mut entries = BTreeMap::new();
        for (&id, node) in &self.nodes {
            entries.insert(
                id,
                NodeSnapshot {
                    ring_position: node.ring_position(),
                    joined_at_cycle: node.joined_at_cycle,
                    r_links: node.cyclon().view().node_ids(),
                    d_links: node.d_links(),
                },
            );
        }
        OverlaySnapshot::new(self.cycle, entries)
    }
}

/// Exchanges towards dead nodes fail silently, as a timed-out gossip would in
/// a deployed system; links pointing to a killed node become dead links.
impl GossipRuntime for Network {
    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }

    fn live_ids(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    fn is_live(&self, id: NodeId) -> bool {
        self.nodes.contains_key(&id)
    }

    fn joined_at(&self, id: NodeId) -> Option<u64> {
        self.node(id).map(SimNode::joined_at_cycle)
    }

    fn spawn_node(&mut self, introducer: Option<NodeId>) -> NodeId {
        Network::spawn_node(self, introducer)
    }

    fn kill_node(&mut self, id: NodeId) -> bool {
        self.nodes.remove(&id).is_some()
    }

    fn random_live_node(&mut self) -> Option<NodeId> {
        let ids = self.live_ids();
        ids.choose(&mut self.rng).copied()
    }

    fn run_cycles(&mut self, count: usize) {
        self.run_cycles_probed(count, &mut NullProbe);
    }

    fn overlay_snapshot(&self) -> OverlaySnapshot {
        Network::overlay_snapshot(self)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hybridcast_graph::{connectivity, DiGraph};

    /// A network of `nodes` nodes after 120 gossip cycles.
    pub(crate) fn warmed_network(nodes: usize, seed: u64) -> Network {
        let mut network = Network::new(
            SimConfig {
                nodes,
                ..SimConfig::default()
            },
            seed,
        );
        network.run_cycles(120);
        network
    }

    fn small_net(nodes: usize, seed: u64) -> Network {
        let config = SimConfig {
            nodes,
            warmup_cycles: 0,
            ..SimConfig::default()
        };
        Network::new(config, seed)
    }

    #[test]
    fn bootstrap_forms_a_star_around_node_zero() {
        let net = small_net(50, 1);
        assert_eq!(net.len(), 50);
        let hub = NodeId::new(0);
        for node in net.nodes() {
            if node.id() == hub {
                assert!(node.cyclon().view().is_empty());
            } else {
                assert_eq!(node.cyclon().view().node_ids(), vec![hub]);
            }
            for vic in node.vicinity() {
                assert!(vic.view().is_empty(), "vicinity views start empty");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid simulation configuration")]
    fn invalid_config_panics() {
        let config = SimConfig {
            nodes: 0,
            ..SimConfig::default()
        };
        Network::new(config, 0);
    }

    #[test]
    fn cyclon_views_fill_up_after_warmup() {
        let mut net = small_net(100, 2);
        net.run_cycles(40);
        let full_views = net
            .nodes()
            .filter(|n| n.cyclon().view().len() >= 15)
            .count();
        assert!(
            full_views > 90,
            "expected most views nearly full, got {full_views}/100"
        );
    }

    #[test]
    fn vicinity_converges_to_the_global_ring() {
        let mut net = small_net(60, 3);
        net.run_cycles(80);

        // Compute the true ring from the ring positions.
        let mut by_position: Vec<(u64, NodeId)> =
            net.nodes().map(|n| (n.ring_position(), n.id())).collect();
        by_position.sort();
        let n = by_position.len();
        let mut correct = 0usize;
        for (i, &(_, id)) in by_position.iter().enumerate() {
            let expected_succ = by_position[(i + 1) % n].1;
            let expected_pred = by_position[(i + n - 1) % n].1;
            let (pred, succ) = net.node(id).unwrap().vicinity()[0].ring_neighbors();
            if pred == Some(expected_pred) && succ == Some(expected_succ) {
                correct += 1;
            }
        }
        assert!(
            correct as f64 >= 0.95 * n as f64,
            "only {correct}/{n} nodes found both true ring neighbours"
        );
    }

    #[test]
    fn d_link_graph_is_strongly_connected_after_warmup() {
        let mut net = small_net(80, 4);
        net.run_cycles(100);
        let snapshot = net.overlay_snapshot();
        let mut g = DiGraph::new();
        for id in snapshot.live_nodes() {
            g.add_node(id);
            for link in snapshot.d_links(id) {
                g.add_edge(id, link);
            }
        }
        assert!(connectivity::is_strongly_connected(&g));
    }

    #[test]
    fn killing_nodes_shrinks_the_population() {
        let mut net = small_net(30, 5);
        let victim = NodeId::new(7);
        assert!(net.kill_node(victim));
        assert!(!net.kill_node(victim));
        assert!(!net.is_live(victim));
        assert_eq!(net.len(), 29);
    }

    #[test]
    fn gossip_towards_dead_nodes_fails_silently_and_heals() {
        let mut net = small_net(40, 6);
        net.run_cycles(30);
        for id in 1..=5 {
            net.kill_node(NodeId::new(id));
        }
        // More gossip flushes dead links out of Cyclon views. Descriptors of
        // dead nodes may still circulate for a while (they are only dropped
        // when selected as a shuffle target), so we only require that the
        // overwhelming majority of links are valid again.
        net.run_cycles(60);
        let mut total_links = 0usize;
        let mut stale_links = 0usize;
        for node in net.nodes() {
            for peer in node.cyclon().view().node_ids() {
                total_links += 1;
                if !net.is_live(peer) {
                    stale_links += 1;
                }
            }
        }
        assert!(
            (stale_links as f64) < 0.05 * total_links as f64,
            "{stale_links}/{total_links} links still point to long-dead nodes"
        );
    }

    #[test]
    fn spawn_node_joins_via_introducer() {
        let mut net = small_net(20, 7);
        net.run_cycles(10);
        let introducer = net.random_live_node().unwrap();
        let newcomer = net.spawn_node(Some(introducer));
        assert!(net.is_live(newcomer));
        assert_eq!(
            net.node(newcomer).unwrap().cyclon().view().node_ids(),
            vec![introducer]
        );
        assert_eq!(net.node(newcomer).unwrap().joined_at_cycle(), 10);
        // The newcomer integrates after a few cycles.
        net.run_cycles(15);
        assert!(net.node(newcomer).unwrap().cyclon().view().len() > 3);
    }

    #[test]
    fn multi_ring_nodes_track_independent_rings() {
        let config = SimConfig {
            nodes: 40,
            rings: 3,
            ..SimConfig::default()
        };
        let mut net = Network::new(config, 8);
        net.run_cycles(60);
        let snapshot = net.overlay_snapshot();
        // With three rings most nodes should have more than two d-links.
        let avg_d: f64 = snapshot
            .live_nodes()
            .map(|id| snapshot.d_links(id).len() as f64)
            .sum::<f64>()
            / snapshot.live_nodes().count() as f64;
        assert!(avg_d > 3.0, "average d-link count {avg_d} too small");
    }

    #[test]
    fn snapshot_reflects_population_and_cycle() {
        let mut net = small_net(25, 9);
        net.run_cycles(5);
        let snap = net.overlay_snapshot();
        assert_eq!(snap.cycle(), 5);
        assert_eq!(snap.live_nodes().count(), 25);
    }

    #[test]
    fn reproducibility_same_seed_same_overlay() {
        let mut a = small_net(50, 77);
        let mut b = small_net(50, 77);
        a.run_cycles(20);
        b.run_cycles(20);
        let sa = a.overlay_snapshot();
        let sb = b.overlay_snapshot();
        for id in sa.live_nodes() {
            assert_eq!(sa.r_links(id), sb.r_links(id));
            assert_eq!(sa.d_links(id), sb.d_links(id));
        }
    }

    #[test]
    fn different_seeds_give_different_overlays() {
        let mut a = small_net(50, 1);
        let mut b = small_net(50, 2);
        a.run_cycles(20);
        b.run_cycles(20);
        let sa = a.overlay_snapshot();
        let sb = b.overlay_snapshot();
        let differing = sa
            .live_nodes()
            .filter(|&id| sa.r_links(id) != sb.r_links(id))
            .count();
        assert!(differing > 0);
    }
}
