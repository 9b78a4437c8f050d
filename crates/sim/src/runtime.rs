//! The driving surface of a cycle-driven gossip simulation.
//!
//! [`GossipRuntime`] captures the operations the churn / failure drivers
//! need. [`crate::DenseSimNetwork`] implements it, and so does the id-keyed
//! runtime of the test-only `hybridcast-oracle` crate, so one driver
//! implementation serves both, and the differential tests can drive the
//! two runtimes through the same churn schedule.

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
