//! Orchestration of a whole in-process cluster of networked nodes.

use std::time::Duration;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hybridcast_core::protocols::DenseSelector;
use hybridcast_graph::NodeId;
use hybridcast_membership::descriptor::Descriptor;

use crate::node::{spawn_node, DeliveryLog, NodeConfig, NodeHandle, NodeStats};
use crate::transport::{InMemoryHub, TransportError};
use crate::wire::{Frame, MessageId};

/// Configuration of an in-process cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes to spawn.
    pub nodes: usize,
    /// Membership gossip interval of every node.
    pub gossip_interval: Duration,
    /// Dissemination protocol (and its fanout `F`) every node forwards
    /// messages with.
    pub selector: DenseSelector,
    /// Cyclon/Vicinity view length (the paper uses 20 for both).
    pub view_length: usize,
    /// Cyclon/Vicinity gossip (shuffle) length.
    pub gossip_length: usize,
    /// Seed controlling ring positions and per-node RNGs.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 16,
            gossip_interval: Duration::from_millis(10),
            selector: DenseSelector::ringcast(3),
            view_length: 20,
            gossip_length: 5,
            seed: 0,
        }
    }
}

/// A running cluster: node threads, their shared hub and the delivery log.
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    hub: InMemoryHub,
    handles: Vec<NodeHandle>,
    log: DeliveryLog,
    next_sequence: u64,
}

impl Cluster {
    /// Boots `config.nodes` nodes on an in-memory hub. Every node except the
    /// first bootstraps with node 0 as its single introducer (the paper's
    /// star-topology join).
    ///
    /// # Errors
    ///
    /// Returns an error, before any node thread starts, if the
    /// configuration is invalid: zero nodes, a RandCast/RingCast selector
    /// with zero fanout, or a zero view or gossip length.
    pub fn start(config: ClusterConfig) -> Result<Self, String> {
        if config.nodes == 0 {
            return Err("cluster needs at least one node".into());
        }
        if let DenseSelector::RandCast(0) | DenseSelector::RingCast(0) = config.selector {
            return Err("fanout must be positive".into());
        }
        if config.view_length == 0 {
            return Err("view length must be positive".into());
        }
        if config.gossip_length == 0 {
            return Err("gossip length must be positive".into());
        }
        let hub = InMemoryHub::new();
        let log = DeliveryLog::new();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

        let positions: Vec<u64> = (0..config.nodes).map(|_| rng.gen()).collect();
        let mut handles = Vec::with_capacity(config.nodes);
        for i in 0..config.nodes {
            let id = NodeId::new(i as u64);
            let mailbox = hub.register(id);
            let bootstrap = if i == 0 {
                Vec::new()
            } else {
                vec![Descriptor::new(NodeId::new(0), vec![positions[0]])]
            };
            let node_config = NodeConfig {
                id,
                ring_position: positions[i],
                gossip_interval: config.gossip_interval,
                cyclon_view: config.view_length,
                cyclon_shuffle: config.gossip_length,
                vicinity_view: config.view_length,
                vicinity_gossip: config.gossip_length,
                seed: config.seed.wrapping_add(i as u64 + 1),
            };
            handles.push(spawn_node(
                node_config,
                hub.clone(),
                mailbox,
                bootstrap,
                config.selector,
                log.clone(),
            ));
        }

        Ok(Cluster {
            config,
            hub,
            handles,
            log,
            next_sequence: 0,
        })
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Number of nodes in the cluster.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Returns `true` if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// The shared delivery log.
    pub fn delivery_log(&self) -> &DeliveryLog {
        &self.log
    }

    /// Blocks the calling thread for `duration`, letting the node threads
    /// gossip and disseminate.
    pub fn run_for(&self, duration: Duration) {
        std::thread::sleep(duration);
    }

    /// Publishes a new message originating at `origin` and returns its id.
    ///
    /// # Errors
    ///
    /// Returns an error if `origin` is not a cluster node.
    pub fn publish(&mut self, origin: NodeId) -> Result<MessageId, TransportError> {
        let id = MessageId::new(origin, self.next_sequence);
        self.next_sequence += 1;
        self.hub
            .send(origin, Frame::Dissemination { from: origin, id })?;
        Ok(id)
    }

    /// Publishes a message from node 0.
    ///
    /// # Errors
    ///
    /// Returns an error if node 0 is not reachable.
    pub fn publish_from_first(&mut self) -> Result<MessageId, TransportError> {
        self.publish(NodeId::new(0))
    }

    /// Number of distinct nodes that have received `message` so far.
    pub fn delivery_count(&self, message: MessageId) -> usize {
        self.log.count(message)
    }

    /// Hit ratio of `message` over the whole cluster, in `[0, 1]`.
    pub fn hit_ratio(&self, message: MessageId) -> f64 {
        self.delivery_count(message) as f64 / self.len() as f64
    }

    /// Simulates a crash of `node`: its mailbox is unregistered so every
    /// frame sent to it from now on is lost. Note the node thread keeps
    /// running until [`Cluster::shutdown`]; it simply becomes unreachable,
    /// which is indistinguishable from a crash for the other nodes.
    pub fn partition_node(&self, node: NodeId) {
        self.hub.unregister(node);
    }

    /// Shuts every node down and collects their statistics.
    pub fn shutdown(self) -> Vec<NodeStats> {
        for handle in &self.handles {
            // A node whose mailbox was unregistered cannot receive the
            // shutdown frame; dropping the hub ends its loop via
            // disconnection instead.
            let _ = self.hub.send(handle.id, Frame::Shutdown);
        }
        // Unregister everything so disconnected mailboxes wake up.
        for handle in &self.handles {
            self.hub.unregister(handle.id);
        }
        self.handles.into_iter().map(NodeHandle::join).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_configurations() {
        assert!(Cluster::start(ClusterConfig {
            nodes: 0,
            ..ClusterConfig::default()
        })
        .is_err());
        assert!(Cluster::start(ClusterConfig {
            selector: DenseSelector::RingCast(0),
            ..ClusterConfig::default()
        })
        .is_err());
        assert!(Cluster::start(ClusterConfig {
            view_length: 0,
            ..ClusterConfig::default()
        })
        .is_err());
        assert!(Cluster::start(ClusterConfig {
            gossip_length: 0,
            ..ClusterConfig::default()
        })
        .is_err());

        let mut single = Cluster::start(ClusterConfig {
            nodes: 1,
            ..ClusterConfig::default()
        })
        .unwrap();
        let stranger = NodeId::new(1);
        assert!(matches!(
            single.publish(stranger),
            Err(TransportError::UnknownDestination(id)) if id == stranger
        ));
        single.shutdown();
    }

    #[test]
    fn ringcast_cluster_disseminates_to_everyone() {
        let mut cluster = Cluster::start(ClusterConfig {
            nodes: 20,
            gossip_interval: Duration::from_millis(5),
            selector: DenseSelector::ringcast(3),
            seed: 42,
            ..ClusterConfig::default()
        })
        .unwrap();
        assert_eq!(cluster.len(), 20);

        // Let the overlay converge, then publish.
        cluster.run_for(Duration::from_millis(400));
        let message = cluster.publish_from_first().unwrap();
        cluster.run_for(Duration::from_millis(300));

        let delivered = cluster.delivery_count(message);
        assert!(
            delivered >= 18,
            "expected near-complete delivery, got {delivered}/20"
        );
        assert!(cluster.hit_ratio(message) >= 0.9);

        let stats = cluster.shutdown();
        assert_eq!(stats.len(), 20);
        let total_forwarded: u64 = stats.iter().map(|s| s.messages_forwarded).sum();
        assert!(total_forwarded >= delivered as u64 - 1);
    }

    #[test]
    fn partitioned_node_misses_messages() {
        let mut cluster = Cluster::start(ClusterConfig {
            nodes: 12,
            gossip_interval: Duration::from_millis(5),
            selector: DenseSelector::ringcast(4),
            seed: 7,
            ..ClusterConfig::default()
        })
        .unwrap();
        cluster.run_for(Duration::from_millis(300));

        let victim = NodeId::new(5);
        cluster.partition_node(victim);
        let message = cluster.publish_from_first().unwrap();
        cluster.run_for(Duration::from_millis(200));

        let receivers = cluster.delivery_log().receivers(message);
        assert!(
            !receivers.contains(&victim),
            "partitioned node cannot receive"
        );
        assert!(receivers.len() >= 9, "the rest still get the message");
        cluster.shutdown();
    }
}
