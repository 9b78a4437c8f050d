//! Quickstart: build a gossip overlay, disseminate a message with RingCast
//! and RandCast, and compare the outcome.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hybridcast::core::engine::disseminate;
use hybridcast::core::overlay::{Overlay, SnapshotOverlay};
use hybridcast::core::protocols::DenseSelector;
use hybridcast::sim::{Network, SimConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    // 1. Boot a 1,000-node network. Every node runs Cyclon (random links)
    //    and Vicinity (ring links); all nodes initially know only node 0.
    let config = SimConfig {
        nodes: 1_000,
        ..SimConfig::default()
    };
    let mut network = Network::new(config, 42);

    // 2. Let the membership protocols self-organize for 100 cycles, then
    //    freeze the overlay (the paper shows ongoing gossip does not change
    //    the macroscopic dissemination behaviour).
    network.run_cycles(100);
    let overlay = SnapshotOverlay::new(network.overlay_snapshot());
    println!("overlay ready: {} live nodes", overlay.live_count());

    // 3. Disseminate one message per protocol, fanout 3, from the same node.
    let origin = overlay.live_node_ids()[123];
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for protocol in [DenseSelector::ringcast(3), DenseSelector::randcast(3)] {
        let report = disseminate(&overlay, &protocol, origin, &mut rng);
        println!(
            "{:<9} fanout 3: reached {:>4}/{:<4} nodes ({:.2}% miss) in {} hops, \
             {} messages ({} virgin, {} redundant)",
            protocol.name(),
            report.reached,
            report.population,
            report.miss_ratio() * 100.0,
            report.last_hop,
            report.total_messages(),
            report.messages_to_virgin,
            report.messages_to_notified,
        );
    }

    println!();
    println!("RingCast reaches every node even at fanout 3, because the ring");
    println!("links guarantee exhaustive coverage; RandCast typically leaves a");
    println!("handful of nodes unreached and needs a much larger fanout (and");
    println!("proportionally more messages) to close the gap.");
}
