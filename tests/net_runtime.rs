//! Integration tests for the threaded runtime: the same protocol
//! implementations that the simulator drives also work as threads exchanging
//! frames, and behave qualitatively like their simulated counterparts.

use std::time::Duration;

use hybridcast::core::protocols::DenseSelector;
use hybridcast::graph::NodeId;
use hybridcast::net::cluster::{Cluster, ClusterConfig};

fn config(nodes: usize, selector: DenseSelector, seed: u64) -> ClusterConfig {
    ClusterConfig {
        nodes,
        gossip_interval: Duration::from_millis(5),
        selector,
        seed,
        ..ClusterConfig::default()
    }
}

#[test]
fn live_ringcast_reaches_practically_everyone() {
    let mut cluster = Cluster::start(config(24, DenseSelector::ringcast(3), 1)).unwrap();
    cluster.run_for(Duration::from_millis(500));

    let message = cluster.publish_from_first().unwrap();
    cluster.run_for(Duration::from_millis(300));
    let delivered = cluster.delivery_count(message);
    assert!(
        delivered >= 22,
        "RingCast cluster delivered to only {delivered}/24 nodes"
    );
    cluster.shutdown();
}

#[test]
fn live_randcast_spreads_but_may_miss_nodes() {
    let mut cluster = Cluster::start(config(24, DenseSelector::randcast(3), 2)).unwrap();
    cluster.run_for(Duration::from_millis(500));

    let message = cluster.publish_from_first().unwrap();
    cluster.run_for(Duration::from_millis(300));
    let delivered = cluster.delivery_count(message);
    assert!(
        delivered >= 12,
        "RandCast should still reach a majority, got {delivered}/24"
    );
    cluster.shutdown();
}

#[test]
fn multiple_messages_from_different_origins_are_all_disseminated() {
    let mut cluster = Cluster::start(config(20, DenseSelector::ringcast(3), 3)).unwrap();
    cluster.run_for(Duration::from_millis(500));

    let origins = [NodeId::new(0), NodeId::new(7), NodeId::new(13)];
    let messages: Vec<_> = origins
        .iter()
        .map(|&origin| cluster.publish(origin).unwrap())
        .collect();
    cluster.run_for(Duration::from_millis(400));

    for (origin, message) in origins.iter().zip(&messages) {
        let delivered = cluster.delivery_count(*message);
        assert!(
            delivered >= 18,
            "message from {origin} reached only {delivered}/20 nodes"
        );
    }
    let stats = cluster.shutdown();
    // Every node forwarded something: the dissemination load is shared.
    let forwarding_nodes = stats.iter().filter(|s| s.messages_forwarded > 0).count();
    assert!(forwarding_nodes >= 18);
}

#[test]
fn unreachable_nodes_do_not_stall_the_rest_of_the_cluster() {
    let mut cluster = Cluster::start(config(18, DenseSelector::ringcast(3), 4)).unwrap();
    cluster.run_for(Duration::from_millis(400));

    // Partition two nodes, then publish.
    cluster.partition_node(NodeId::new(4));
    cluster.partition_node(NodeId::new(9));
    let message = cluster.publish_from_first().unwrap();
    cluster.run_for(Duration::from_millis(300));

    let receivers = cluster.delivery_log().receivers(message);
    assert!(!receivers.contains(&NodeId::new(4)));
    assert!(!receivers.contains(&NodeId::new(9)));
    assert!(
        receivers.len() >= 14,
        "the surviving nodes must still receive the message, got {}",
        receivers.len()
    );
    cluster.shutdown();
}
