//! The same protocols outside the simulator: an in-process cluster of
//! threads exchanging frames over one channel hub, converging their
//! membership views and pushing a message with RingCast.
//!
//! ```text
//! cargo run --release --example live_cluster
//! ```

use std::time::Duration;

use hybridcast::core::protocols::DenseSelector;
use hybridcast::net::cluster::{Cluster, ClusterConfig};

fn main() {
    let config = ClusterConfig {
        nodes: 32,
        gossip_interval: Duration::from_millis(10),
        selector: DenseSelector::ringcast(3),
        seed: 9,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::start(config).expect("cluster boots");
    println!(
        "started {} node threads, letting the overlay converge...",
        cluster.len()
    );
    cluster.run_for(Duration::from_millis(600));

    let message = cluster.publish_from_first().expect("publish");
    println!("published {message} from node 0");
    cluster.run_for(Duration::from_millis(300));

    let delivered = cluster.delivery_count(message);
    println!(
        "delivered to {delivered}/{} nodes ({:.0}% hit ratio)",
        cluster.len(),
        cluster.hit_ratio(message) * 100.0
    );

    let stats = cluster.shutdown();
    let forwarded: u64 = stats.iter().map(|s| s.messages_forwarded).sum();
    let received: u64 = stats.iter().map(|s| s.messages_received).sum();
    println!(
        "cluster shut down: {forwarded} pushes sent, {received} received \
         (redundancy factor {:.1})",
        received as f64 / delivered as f64
    );
}
