//! The artificial churn model of Section 7.3.
//!
//! In each cycle a fixed percentage of randomly selected nodes leaves the
//! network for good, and an equal number of fresh nodes joins (each knowing
//! a single random live introducer). The paper notes this is a *worst-case*
//! model — departed nodes never return, so their links never become valid
//! again — and calibrates the default rate (0.2 % per cycle, with a 10 s
//! cycle) against the Gnutella traces of Saroiu et al.
//!
//! [`ChurnDriver::run_until_all_replaced`] reproduces the paper's warm-up
//! procedure for churn experiments: gossip under churn until every bootstrap
//! node has been removed and re-inserted at least once (in practice several
//! thousand cycles), then freeze the overlay.

use hybridcast_graph::NodeId;
use hybridcast_obs::{NullProbe, Probe, TraceEvent};

use crate::runtime::GossipRuntime;

/// The churn rate used in the paper's evaluation: 0.2 % of the nodes are
/// replaced every cycle.
pub const PAPER_CHURN_RATE: f64 = 0.002;

/// Configuration of the artificial churn process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Fraction of the population replaced per cycle (e.g. `0.002`).
    pub rate: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            rate: PAPER_CHURN_RATE,
        }
    }
}

impl ChurnConfig {
    /// Number of nodes to replace per cycle for a population of `n`.
    ///
    /// Rounded to the nearest integer so that e.g. 0.2 % of 10,000 is
    /// exactly 20 nodes, as in the paper.
    pub fn nodes_per_cycle(&self, n: usize) -> usize {
        (self.rate * n as f64).round() as usize
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the rate is not within `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.rate) {
            return Err(format!(
                "churn rate must be within [0, 1], got {}",
                self.rate
            ));
        }
        Ok(())
    }
}

/// Drives a [`GossipRuntime`] (such as [`crate::DenseSimNetwork`]) through
/// gossip cycles with churn applied each cycle.
#[derive(Debug)]
pub struct ChurnDriver {
    config: ChurnConfig,
    removed: u64,
    added: u64,
}

impl ChurnDriver {
    /// Creates a churn driver.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate.
    pub fn new(config: ChurnConfig) -> Self {
        config.validate().expect("invalid churn configuration");
        ChurnDriver {
            config,
            removed: 0,
            added: 0,
        }
    }

    /// The churn configuration.
    pub fn config(&self) -> ChurnConfig {
        self.config
    }

    /// Total number of nodes removed so far.
    pub fn removed(&self) -> u64 {
        self.removed
    }

    /// Total number of nodes added so far.
    pub fn added(&self) -> u64 {
        self.added
    }

    /// Applies one churn step to the network: removes `nodes_per_cycle`
    /// random live nodes and adds the same number of fresh nodes, each
    /// bootstrapped with one random live introducer.
    ///
    /// Returns the ids of the removed and added nodes.
    pub fn apply_churn_step<N: GossipRuntime + ?Sized>(
        &mut self,
        network: &mut N,
    ) -> (Vec<NodeId>, Vec<NodeId>) {
        self.apply_churn_step_probed(network, &mut NullProbe)
    }

    /// [`ChurnDriver::apply_churn_step`] with a [`Probe`] attached: one
    /// `Leave` per removed node and one `Join` per added node, in the order
    /// the runtime processed them, stamped with the runtime's current cycle
    /// (churn is applied *before* the cycle it perturbs).
    pub fn apply_churn_step_probed<N, P>(
        &mut self,
        network: &mut N,
        probe: &mut P,
    ) -> (Vec<NodeId>, Vec<NodeId>)
    where
        N: GossipRuntime + ?Sized,
        P: Probe,
    {
        let cycle = network.cycle();
        let count = self.config.nodes_per_cycle(network.len());
        let mut removed = Vec::with_capacity(count);
        for _ in 0..count {
            if let Some(victim) = network.random_live_node() {
                network.kill_node(victim);
                removed.push(victim);
                probe.record(TraceEvent::Leave {
                    node: victim.as_u64(),
                    cycle,
                });
            }
        }
        let mut added = Vec::with_capacity(count);
        for _ in 0..count {
            let introducer = network.random_live_node();
            let id = network.spawn_node(introducer);
            added.push(id);
            probe.record(TraceEvent::Join {
                node: id.as_u64(),
                cycle,
            });
        }
        self.removed += removed.len() as u64;
        self.added += added.len() as u64;
        (removed, added)
    }

    /// Runs `cycles` gossip cycles, applying one churn step before each
    /// cycle (so freshly joined nodes gossip in the cycle they arrive, just
    /// like in the paper's PeerSim setup).
    pub fn run_cycles<N: GossipRuntime + ?Sized>(&mut self, network: &mut N, cycles: usize) {
        for _ in 0..cycles {
            self.apply_churn_step(network);
            network.run_cycles(1);
        }
    }

    /// Runs gossip under churn until every node present at the start has
    /// been removed and replaced at least once, or until `max_cycles` have
    /// elapsed. Returns the number of cycles executed.
    ///
    /// The paper uses this criterion to reach churn steady state before
    /// measuring dissemination effectiveness.
    pub fn run_until_all_replaced<N: GossipRuntime + ?Sized>(
        &mut self,
        network: &mut N,
        max_cycles: usize,
    ) -> usize {
        let initial: Vec<NodeId> = network.live_ids();
        let mut executed = 0usize;
        while executed < max_cycles {
            self.apply_churn_step(network);
            network.run_cycles(1);
            executed += 1;
            if initial.iter().all(|&id| !network.is_live(id)) {
                break;
            }
        }
        executed
    }
}

/// Returns a histogram of node lifetimes (in cycles) for all live nodes:
/// `lifetime -> number of nodes`, the quantity plotted in Figure 12.
pub fn lifetime_histogram<N: GossipRuntime + ?Sized>(
    network: &N,
) -> std::collections::BTreeMap<u64, usize> {
    let mut histogram = std::collections::BTreeMap::new();
    let now = network.cycle();
    for id in network.live_ids() {
        let joined = network.joined_at(id).unwrap_or(0);
        let lifetime = now.saturating_sub(joined);
        *histogram.entry(lifetime).or_insert(0) += 1;
    }
    histogram
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::dense::DenseSimNetwork;

    fn net(nodes: usize, seed: u64) -> DenseSimNetwork {
        DenseSimNetwork::new(
            SimConfig {
                nodes,
                ..SimConfig::default()
            },
            seed,
        )
    }

    #[test]
    fn nodes_per_cycle_matches_paper() {
        let c = ChurnConfig::default();
        assert_eq!(c.rate, 0.002);
        assert_eq!(c.nodes_per_cycle(10_000), 20);
        assert_eq!(c.nodes_per_cycle(1_000), 2);
        assert_eq!(ChurnConfig { rate: 0.5 }.nodes_per_cycle(10), 5);
    }

    #[test]
    fn invalid_rate_is_rejected() {
        assert!(ChurnConfig { rate: -0.1 }.validate().is_err());
        assert!(ChurnConfig { rate: 1.5 }.validate().is_err());
        assert!(ChurnConfig { rate: 0.0 }.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid churn configuration")]
    fn driver_rejects_invalid_config() {
        ChurnDriver::new(ChurnConfig { rate: 2.0 });
    }

    #[test]
    fn churn_step_keeps_population_constant() {
        let mut network = net(200, 1);
        let mut driver = ChurnDriver::new(ChurnConfig { rate: 0.05 });
        let (removed, added) = driver.apply_churn_step(&mut network);
        assert_eq!(removed.len(), 10);
        assert_eq!(added.len(), 10);
        assert_eq!(network.len(), 200);
        assert_eq!(driver.removed(), 10);
        assert_eq!(driver.added(), 10);
        for id in removed {
            assert!(!network.is_live(id));
        }
    }

    #[test]
    fn churned_in_nodes_have_later_join_cycles() {
        let mut network = net(100, 2);
        let mut driver = ChurnDriver::new(ChurnConfig { rate: 0.02 });
        driver.run_cycles(&mut network, 10);
        let late_joiners = network
            .live_ids()
            .into_iter()
            .filter(|&id| network.joined_at_cycle(id) > Some(0))
            .count();
        assert!(late_joiners >= 10, "expected at least 10 churned-in nodes");
        assert_eq!(network.len(), 100, "population size is preserved");
    }

    #[test]
    fn run_until_all_replaced_terminates() {
        let mut network = net(30, 3);
        let mut driver = ChurnDriver::new(ChurnConfig { rate: 0.1 });
        let cycles = driver.run_until_all_replaced(&mut network, 500);
        assert!(
            cycles < 500,
            "30 nodes at 10% churn must be replaced quickly"
        );
        assert_eq!(network.len(), 30);
        // No original node survives.
        for id in network.live_ids() {
            assert!(network.joined_at_cycle(id) > Some(0));
        }
    }

    #[test]
    fn lifetime_histogram_counts_every_node() {
        let mut network = net(100, 4);
        let mut driver = ChurnDriver::new(ChurnConfig { rate: 0.03 });
        driver.run_cycles(&mut network, 20);
        let histogram = lifetime_histogram(&network);
        let total: usize = histogram.values().sum();
        assert_eq!(total, network.len());
        // The churned-in nodes produce small lifetimes; the bootstrap nodes
        // all have lifetime equal to the cycle count.
        assert!(histogram.contains_key(&network.cycle()));
    }

    #[test]
    fn zero_rate_churn_is_a_no_op() {
        let mut network = net(50, 5);
        let mut driver = ChurnDriver::new(ChurnConfig { rate: 0.0 });
        let before = network.live_ids();
        driver.run_cycles(&mut network, 5);
        assert_eq!(network.live_ids(), before);
        assert_eq!(driver.removed(), 0);
    }
}
