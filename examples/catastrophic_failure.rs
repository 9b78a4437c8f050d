//! Scenario from the paper's motivation: pushing a worm-alert / security
//! patch notification to every reachable host right after a large-scale
//! outage has taken down part of the network.
//!
//! A 2,000-node overlay is warmed up and frozen; then 5 % of the nodes fail
//! at once (the overlay gets no chance to heal — the paper's worst case) and
//! we compare how well RandCast and RingCast still reach the survivors.
//!
//! ```text
//! cargo run --release --example catastrophic_failure
//! ```

use hybridcast::core::engine::disseminate;
use hybridcast::core::experiment::{random_origins, run_disseminations, AggregateStats};
use hybridcast::core::overlay::{Overlay, SnapshotOverlay};
use hybridcast::core::protocols::DenseSelector;
use hybridcast::sim::failure::kill_fraction_in_snapshot;
use hybridcast::sim::{Network, SimConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let nodes = 2_000;
    let fail_fraction = 0.05;
    let fanout = 4;
    let runs = 20;

    // Build and freeze the healthy overlay.
    let mut network = Network::new(
        SimConfig {
            nodes,
            ..SimConfig::default()
        },
        1,
    );
    network.run_cycles(100);
    let mut overlay = SnapshotOverlay::new(network.overlay_snapshot());

    // The outage: 5% of the machines disappear simultaneously. Links
    // pointing at them stay in place as dead links.
    let mut failure_rng = ChaCha8Rng::seed_from_u64(99);
    let victims =
        kill_fraction_in_snapshot(overlay.snapshot_mut(), fail_fraction, &mut failure_rng);
    println!(
        "outage: {} of {} hosts failed, {} survivors must receive the alert",
        victims.len(),
        nodes,
        overlay.live_count()
    );

    // Push the alert with both protocols, 20 times each from random origins.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for protocol in [
        DenseSelector::randcast(fanout),
        DenseSelector::ringcast(fanout),
    ] {
        let origins = random_origins(&overlay, runs, &mut rng);
        let reports = run_disseminations(&overlay, &protocol, &origins, &mut rng);
        let stats = AggregateStats::from_reports(protocol.name(), fanout, &reports);
        println!(
            "{:<9} fanout {}: mean miss ratio {:.4}% | {:.0}% of alerts reached everyone | \
             ~{:.0} messages per alert ({:.0} wasted on dead hosts)",
            stats.protocol,
            stats.fanout,
            stats.mean_miss_ratio * 100.0,
            stats.complete_fraction * 100.0,
            stats.mean_total_messages,
            stats.mean_messages_to_dead,
        );
    }

    // Zoom into a single RingCast run to show the partitioned-ring effect of
    // Figure 4: even where the ring is cut, random links bridge the gaps and
    // the d-links then cover each segment exhaustively.
    let origin = overlay.live_node_ids()[0];
    let report = disseminate(&overlay, &DenseSelector::ringcast(fanout), origin, &mut rng);
    println!(
        "\nsingle RingCast run from {}: reached {}/{} survivors in {} hops \
         ({} messages absorbed by dead hosts)",
        origin, report.reached, report.population, report.last_hop, report.messages_to_dead
    );
}
