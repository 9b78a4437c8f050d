//! Integration tests for the failure scenarios of Sections 7.2 and 7.3:
//! catastrophic failures over frozen overlays and continuous churn.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use hybridcast::core::experiment::AggregateStats;
use hybridcast::core::overlay::{Overlay, SnapshotOverlay};
use hybridcast::core::protocols::DenseSelector;
use hybridcast::sim::churn::{lifetime_histogram, ChurnConfig, ChurnDriver};
use hybridcast::sim::failure::{kill_fraction_in_network, kill_fraction_in_snapshot};
use hybridcast::sim::{GossipRuntime, SimConfig};
use hybridcast_oracle::{random_origins, run_disseminations, Network};

fn warmed_network(nodes: usize, seed: u64) -> Network {
    let mut network = Network::new(
        SimConfig {
            nodes,
            ..SimConfig::default()
        },
        seed,
    );
    network.run_cycles(120);
    network
}

#[test]
fn ringcast_beats_randcast_after_a_catastrophic_failure() {
    let network = warmed_network(500, 1);
    let mut overlay = SnapshotOverlay::new(network.overlay_snapshot());
    let mut failure_rng = ChaCha8Rng::seed_from_u64(2);
    kill_fraction_in_snapshot(overlay.snapshot_mut(), 0.05, &mut failure_rng);
    assert_eq!(overlay.live_count(), 475);

    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let origins = random_origins(&overlay, 10, &mut rng);
    let fanout = 3;
    let ring = AggregateStats::from_reports(
        "RingCast",
        fanout,
        &run_disseminations(
            &overlay,
            &DenseSelector::ringcast(fanout),
            &origins,
            &mut rng,
        ),
    );
    let rand = AggregateStats::from_reports(
        "RandCast",
        fanout,
        &run_disseminations(
            &overlay,
            &DenseSelector::randcast(fanout),
            &origins,
            &mut rng,
        ),
    );

    assert!(
        ring.mean_miss_ratio <= rand.mean_miss_ratio,
        "RingCast ({:.4}) must not be worse than RandCast ({:.4})",
        ring.mean_miss_ratio,
        rand.mean_miss_ratio
    );
    // Graceful degradation: even with 5% dead nodes the hybrid protocol
    // stays within a fraction of a percent of complete dissemination.
    assert!(ring.mean_miss_ratio < 0.01);
    // Dead links waste some messages, and the accounting records it.
    assert!(ring.mean_messages_to_dead > 0.0);
}

#[test]
fn reliability_degrades_gracefully_with_failure_size() {
    let network = warmed_network(500, 4);
    let base = SnapshotOverlay::new(network.overlay_snapshot());
    let mut previous_miss = -1.0f64;
    for fraction in [0.01f64, 0.05, 0.15] {
        let mut overlay = base.clone();
        let mut failure_rng = ChaCha8Rng::seed_from_u64(5);
        kill_fraction_in_snapshot(overlay.snapshot_mut(), fraction, &mut failure_rng);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let origins = random_origins(&overlay, 8, &mut rng);
        let stats = AggregateStats::from_reports(
            "RingCast",
            2,
            &run_disseminations(&overlay, &DenseSelector::ringcast(2), &origins, &mut rng),
        );
        assert!(
            stats.mean_miss_ratio + 1e-9 >= previous_miss,
            "bigger failures should not improve the miss ratio"
        );
        // The absolute miss level at fanout 2 depends heavily on *which*
        // nodes die (whether the kill set fragments the frozen ring):
        // across failure seeds it ranges from ~0.03 to ~0.27 at a 15%
        // failure. Bound it proportionally to the failure size rather than
        // at one lucky realization.
        assert!(
            stats.mean_miss_ratio < 0.05 + 2.0 * fraction,
            "miss ratio {:.3} too high even for a {:.0}% failure",
            stats.mean_miss_ratio,
            fraction * 100.0
        );
        previous_miss = stats.mean_miss_ratio;
    }
}

#[test]
fn overlay_heals_when_gossip_continues_after_the_failure() {
    let mut network = warmed_network(300, 7);
    let mut failure_rng = ChaCha8Rng::seed_from_u64(8);
    kill_fraction_in_network(&mut network, 0.10, &mut failure_rng);

    // Without healing the d-link graph is likely broken right after the
    // failure; after enough extra cycles the ring must close again.
    network.run_cycles(60);
    let snapshot = network.overlay_snapshot();
    let d_graph = snapshot.d_link_graph();
    assert!(
        hybridcast::graph::connectivity::is_strongly_connected(&d_graph),
        "the ring must re-close after the membership layer heals"
    );

    // And RingCast is complete again on the healed overlay.
    let overlay = SnapshotOverlay::new(snapshot);
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let origins = random_origins(&overlay, 5, &mut rng);
    let reports = run_disseminations(&overlay, &DenseSelector::ringcast(2), &origins, &mut rng);
    assert!(reports.iter().all(|r| r.is_complete()));
}

#[test]
fn churn_steady_state_preserves_population_and_lifetimes() {
    let mut network = Network::new(
        SimConfig {
            nodes: 300,
            ..SimConfig::default()
        },
        10,
    );
    let mut driver = ChurnDriver::new(ChurnConfig { rate: 0.01 });
    let cycles = driver.run_until_all_replaced(&mut network, 3_000);
    assert!(
        cycles < 3_000,
        "1% churn must replace 300 nodes well within the cap"
    );
    assert_eq!(network.len(), 300);

    let histogram = lifetime_histogram(&network);
    assert_eq!(histogram.values().sum::<usize>(), 300);
    // Nobody can be older than the churn warm-up itself.
    assert!(histogram.keys().all(|&lifetime| lifetime <= cycles as u64));
}

#[test]
fn under_churn_misses_concentrate_on_recently_joined_nodes() {
    let mut network = Network::new(
        SimConfig {
            nodes: 250,
            ..SimConfig::default()
        },
        11,
    );
    let mut driver = ChurnDriver::new(ChurnConfig { rate: 0.012 });
    driver.run_until_all_replaced(&mut network, 2_000);
    let overlay = SnapshotOverlay::new(network.overlay_snapshot());

    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let origins = random_origins(&overlay, 20, &mut rng);
    let reports = run_disseminations(&overlay, &DenseSelector::ringcast(3), &origins, &mut rng);

    let mut young_misses = 0usize;
    let mut old_misses = 0usize;
    for report in &reports {
        for &missed in &report.unreached {
            match overlay.snapshot().lifetime(missed) {
                Some(lifetime) if lifetime < 20 => young_misses += 1,
                _ => old_misses += 1,
            }
        }
    }
    // RingCast's misses, if any, are dominated by nodes that joined less
    // than one view-refresh ago (the effect Figure 13 documents). Allow a
    // small number of old-node misses for robustness at this small scale.
    assert!(
        old_misses <= young_misses.max(2),
        "old-node misses ({old_misses}) should not dominate young-node misses ({young_misses})"
    );
}
