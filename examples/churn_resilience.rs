//! Scenario from the paper's motivation: disseminating software updates in a
//! file-sharing-style network where peers continuously come and go.
//!
//! The network churns at the Gnutella-derived rate of 0.2 % of the nodes per
//! gossip cycle until every original node has been replaced, the overlay is
//! then frozen, and we measure who misses updates — overall and as a
//! function of how recently a node joined (the effect behind Figure 13).
//!
//! ```text
//! cargo run --release --example churn_resilience
//! ```

use std::collections::BTreeMap;

use hybridcast::core::experiment::{random_origins, run_disseminations};
use hybridcast::core::overlay::SnapshotOverlay;
use hybridcast::core::protocols::DenseSelector;
use hybridcast::sim::churn::{ChurnConfig, ChurnDriver};
use hybridcast::sim::{Network, SimConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let nodes = 1_500;
    let fanout = 4;
    let runs = 30;

    // Gossip under continuous churn until every bootstrap node is gone.
    let mut network = Network::new(
        SimConfig {
            nodes,
            ..SimConfig::default()
        },
        3,
    );
    let mut driver = ChurnDriver::new(ChurnConfig { rate: 0.002 });
    let cycles = driver.run_until_all_replaced(&mut network, 10_000);
    println!(
        "churn steady state after {cycles} cycles: {} joins and {} departures processed",
        driver.added(),
        driver.removed()
    );

    let overlay = SnapshotOverlay::new(network.overlay_snapshot());
    let mut rng = ChaCha8Rng::seed_from_u64(11);

    for protocol in [
        DenseSelector::randcast(fanout),
        DenseSelector::ringcast(fanout),
    ] {
        let origins = random_origins(&overlay, runs, &mut rng);
        let reports = run_disseminations(&overlay, &protocol, &origins, &mut rng);

        // Split the misses by node age: freshly joined nodes (lifetime below
        // one full view refresh, 20 cycles) versus established nodes.
        let mut fresh_misses = 0usize;
        let mut old_misses = 0usize;
        let mut total_misses = 0usize;
        for report in &reports {
            for &missed in &report.unreached {
                total_misses += 1;
                match overlay.snapshot().lifetime(missed) {
                    Some(lifetime) if lifetime < 20 => fresh_misses += 1,
                    _ => old_misses += 1,
                }
            }
        }
        let mean_miss = reports.iter().map(|r| r.miss_ratio()).sum::<f64>() / reports.len() as f64;
        println!(
            "{:<9} fanout {}: mean miss ratio {:.4}% over {} updates \
             | misses: {} on nodes younger than 20 cycles, {} on established nodes",
            protocol.name(),
            fanout,
            mean_miss * 100.0,
            runs,
            fresh_misses,
            old_misses
        );
        let _ = total_misses;
    }

    // Show the lifetime distribution itself (the data of Figure 12).
    let mut lifetimes: BTreeMap<u64, usize> = BTreeMap::new();
    for id in overlay.snapshot().live_nodes() {
        if let Some(lifetime) = overlay.snapshot().lifetime(id) {
            *lifetimes.entry(lifetime / 100).or_insert(0) += 1;
        }
    }
    println!("\nnode lifetimes (bucketed by 100 cycles):");
    for (bucket, count) in lifetimes {
        println!(
            "  {:>5}-{:<5} cycles: {count} nodes",
            bucket * 100,
            bucket * 100 + 99
        );
    }
    println!(
        "\nRingCast's few misses concentrate on nodes that joined moments ago \
         (they are not yet woven into the ring); every established node \
         receives every update."
    );
}
