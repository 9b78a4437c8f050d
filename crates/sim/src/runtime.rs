//! The common driving surface of the two simulator runtimes.
//!
//! The workspace ships two implementations of the cycle-driven gossip
//! simulation:
//!
//! * [`crate::Network`] — the original id-keyed runtime
//!   (`BTreeMap<NodeId, SimNode>`), easy to introspect node by node, and
//! * [`crate::DenseSimNetwork`] — the arena-based epoch runtime that holds
//!   all node state in flat slot arrays and is built for million-node
//!   populations.
//!
//! Both are deterministic per seed and produce **bit-identical**
//! [`crate::OverlaySnapshot`]s for the same [`crate::SimConfig`] and seed
//! (the dense runtime replays exactly the RNG draw sequence of the id-keyed
//! one; the differential property tests pin this down). [`GossipRuntime`]
//! captures the operations the churn / failure drivers need, so one driver
//! implementation serves both runtimes.

use hybridcast_graph::NodeId;

use crate::frontier::RngMode;
use crate::snapshot::OverlaySnapshot;

/// A cycle-driven gossip simulation that can be driven by the churn and
/// failure policies in this crate.
pub trait GossipRuntime {
    /// The current cycle number (0 before any [`GossipRuntime::run_cycles`]).
    fn cycle(&self) -> u64;

    /// Number of live nodes.
    fn len(&self) -> usize;

    /// Returns `true` if no node is alive.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ids of all live nodes, in ascending order.
    fn live_ids(&self) -> Vec<NodeId>;

    /// Returns `true` if the node with the given id is alive.
    fn is_live(&self, id: NodeId) -> bool;

    /// The cycle at which a live node joined the network.
    fn joined_at(&self, id: NodeId) -> Option<u64>;

    /// Creates a brand-new node, bootstrapped with the given introducer
    /// contact (if any), and returns its id.
    fn spawn_node(&mut self, introducer: Option<NodeId>) -> NodeId;

    /// Removes a node for good. Returns `true` if it was alive.
    fn kill_node(&mut self, id: NodeId) -> bool;

    /// Picks a uniformly random live node, if any, consuming one draw of
    /// the simulation RNG.
    fn random_live_node(&mut self) -> Option<NodeId>;

    /// Runs `count` gossip cycles.
    fn run_cycles(&mut self, count: usize);

    /// The RNG mode cycles are stepped with. Every runtime defaults to the
    /// shared-stream mode; only [`crate::DenseSimNetwork`] built with
    /// [`crate::DenseSimNetwork::new_per_node`] reports
    /// [`RngMode::PerNode`].
    fn rng_mode(&self) -> RngMode {
        RngMode::Shared
    }

    /// Exports a frozen snapshot of the current overlay.
    fn overlay_snapshot(&self) -> OverlaySnapshot;
}
