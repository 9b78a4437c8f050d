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

use hybridcast::core::experiment::{default_threads, run_seeded_disseminations};
use hybridcast::core::overlay::DenseOverlay;
use hybridcast::core::protocols::DenseSelector;
use hybridcast::sim::churn::{ChurnConfig, ChurnDriver};
use hybridcast::sim::{DenseSimNetwork, SimConfig};

fn main() {
    let nodes = 1_500;
    let fanout = 4;
    let runs = 30;

    // Gossip under continuous churn until every bootstrap node is gone.
    let mut network = DenseSimNetwork::new(
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

    // The snapshot keeps each node's join cycle; the dense overlay is what
    // the engine runs over.
    let snapshot = network.overlay_snapshot();
    let overlay = DenseOverlay::from_dense_sim(&network);

    for protocol in [
        DenseSelector::randcast(fanout),
        DenseSelector::ringcast(fanout),
    ] {
        // `runs` updates from seeded random origins; the thread count only
        // decides how fast, never what.
        let reports = run_seeded_disseminations(&overlay, &protocol, runs, 11, default_threads());

        // Split the misses by node age: freshly joined nodes (lifetime below
        // one full view refresh, 20 cycles) versus established nodes.
        let mut fresh_misses = 0usize;
        let mut old_misses = 0usize;
        for report in &reports {
            for &missed in &report.unreached {
                match snapshot.lifetime(missed) {
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
    }

    // Show the lifetime distribution itself (the data of Figure 12).
    let mut lifetimes: BTreeMap<u64, usize> = BTreeMap::new();
    for id in snapshot.live_nodes() {
        if let Some(lifetime) = snapshot.lifetime(id) {
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
