//! End-to-end integration tests spanning the whole stack: membership
//! (Cyclon + Vicinity) driven by the simulator, overlays frozen into
//! snapshots, and disseminations run by the id-keyed engine of the oracle
//! crate (bit-identical per seed to the dense engines the figures run).
//!
//! These tests assert the paper's headline qualitative claims at reduced
//! scale (hundreds of nodes instead of 10,000) so they stay fast in debug
//! builds; the full-scale sweeps live in the `hybridcast-bench` binaries.

use std::collections::BTreeMap;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use hybridcast::core::experiment::AggregateStats;
use hybridcast::core::overlay::{Overlay, SnapshotOverlay};
use hybridcast::core::protocols::DenseSelector;
use hybridcast::graph::connectivity;
use hybridcast::obs::{DeliveryOutcome, TraceEvent, VecProbe};
use hybridcast::sim::{GossipRuntime, SimConfig};
use hybridcast_oracle::{disseminate, random_origins, run_disseminations, Network};

fn warmed_overlay(nodes: usize, seed: u64) -> SnapshotOverlay {
    let mut network = Network::new(
        SimConfig {
            nodes,
            ..SimConfig::default()
        },
        seed,
    );
    network.run_cycles(120);
    SnapshotOverlay::new(network.overlay_snapshot())
}

#[test]
fn membership_layer_produces_a_connected_ring_and_random_graph() {
    let overlay = warmed_overlay(400, 1);
    let snapshot = overlay.snapshot();

    // The d-links form a strongly connected graph (the RingCast requirement).
    let d_graph = snapshot.d_link_graph();
    assert!(connectivity::is_strongly_connected(&d_graph));

    // The r-links give every node a full view of random peers.
    let r_graph = snapshot.r_link_graph();
    for id in snapshot.live_nodes() {
        assert!(r_graph.out_degree(id) >= 15, "thin Cyclon view at {id}");
    }
    // In-degrees concentrate around the view length, as for a random graph.
    let in_degrees = r_graph.in_degrees();
    let mean = in_degrees.values().sum::<usize>() as f64 / in_degrees.len() as f64;
    assert!(mean > 15.0 && mean < 21.0);
}

#[test]
fn ringcast_is_complete_at_every_fanout_in_failure_free_networks() {
    let overlay = warmed_overlay(400, 2);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    for fanout in [1usize, 2, 3, 5, 8] {
        let origins = random_origins(&overlay, 5, &mut rng);
        let reports = run_disseminations(
            &overlay,
            &DenseSelector::ringcast(fanout),
            &origins,
            &mut rng,
        );
        for report in &reports {
            assert!(
                report.is_complete(),
                "RingCast fanout {fanout} missed {} nodes",
                report.unreached.len()
            );
        }
    }
}

#[test]
fn randcast_miss_ratio_decreases_with_fanout_but_needs_a_large_fanout() {
    let overlay = warmed_overlay(500, 4);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let mut previous_miss = f64::INFINITY;
    let mut miss_at_2 = 0.0;
    for fanout in [2usize, 4, 8] {
        let origins = random_origins(&overlay, 10, &mut rng);
        let reports = run_disseminations(
            &overlay,
            &DenseSelector::randcast(fanout),
            &origins,
            &mut rng,
        );
        let stats = AggregateStats::from_reports("RandCast", fanout, &reports);
        assert!(
            stats.mean_miss_ratio <= previous_miss,
            "miss ratio must not increase with fanout"
        );
        if fanout == 2 {
            miss_at_2 = stats.mean_miss_ratio;
        }
        previous_miss = stats.mean_miss_ratio;
    }
    assert!(
        miss_at_2 > 0.0,
        "RandCast at fanout 2 must miss some nodes on a 500-node overlay"
    );
}

#[test]
fn ringcast_needs_an_order_of_magnitude_fewer_messages_for_completeness() {
    // The paper's headline: RingCast achieves 100% hit ratio at fanout 1-2,
    // while RandCast needs a fanout an order of magnitude larger (11+ at
    // 10k nodes). Message overhead is proportional to the fanout, so the
    // message saving has the same magnitude.
    let overlay = warmed_overlay(500, 6);
    let mut rng = ChaCha8Rng::seed_from_u64(7);

    let origins = random_origins(&overlay, 10, &mut rng);
    let ring_reports =
        run_disseminations(&overlay, &DenseSelector::ringcast(2), &origins, &mut rng);
    let ring_stats = AggregateStats::from_reports("RingCast", 2, &ring_reports);
    assert_eq!(ring_stats.complete_fraction, 1.0);

    // Find the smallest fanout at which RandCast completes all 10 runs.
    let mut randcast_complete_fanout = None;
    for fanout in 2..=20 {
        let reports = run_disseminations(
            &overlay,
            &DenseSelector::randcast(fanout),
            &origins,
            &mut rng,
        );
        let stats = AggregateStats::from_reports("RandCast", fanout, &reports);
        if stats.complete_fraction == 1.0 {
            randcast_complete_fanout = Some((fanout, stats));
            break;
        }
    }
    let (fanout, rand_stats) = randcast_complete_fanout.expect("RandCast must eventually complete");
    assert!(
        fanout >= 5,
        "RandCast should need a much larger fanout than RingCast, needed {fanout}"
    );
    assert!(
        rand_stats.mean_total_messages > 2.0 * ring_stats.mean_total_messages,
        "complete RandCast ({:.0} msgs) must cost much more than complete RingCast ({:.0} msgs)",
        rand_stats.mean_total_messages,
        ring_stats.mean_total_messages
    );
}

#[test]
fn dissemination_load_is_spread_evenly_across_nodes() {
    let overlay = warmed_overlay(400, 8);
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let origin = overlay.live_node_ids()[11];
    for protocol in [DenseSelector::randcast(4), DenseSelector::ringcast(4)] {
        let mut probe = VecProbe::new();
        disseminate(&overlay, &protocol, origin, &mut rng, &mut probe);
        // Per-node load, folded from the trace: messages each node sent,
        // and copies each live node received after the origin's own.
        let (mut sent, mut received) = (BTreeMap::new(), BTreeMap::new());
        for event in &probe.events {
            match *event {
                TraceEvent::Sent { from, .. } => *sent.entry(from).or_insert(0usize) += 1,
                TraceEvent::Delivered {
                    node, hop, outcome, ..
                } if hop > 0 && outcome != DeliveryOutcome::Dead => {
                    *received.entry(node).or_insert(0usize) += 1;
                }
                _ => {}
            }
        }
        // Nobody forwards more than fanout + 2 messages (ring links +
        // random links).
        let max_sent = sent.values().copied().max().unwrap_or(0);
        assert!(max_sent <= 6, "{}: max load {max_sent}", protocol.name());
        let max_received = received.values().copied().max().unwrap_or(0);
        assert!(
            max_received <= 25,
            "{}: some node received {max_received} copies",
            protocol.name()
        );
    }
}

#[test]
fn hop_counts_shrink_as_fanout_grows() {
    let overlay = warmed_overlay(400, 10);
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let origins = random_origins(&overlay, 5, &mut rng);

    let mut previous_mean_hops = f64::INFINITY;
    for fanout in [2usize, 5, 10] {
        let reports = run_disseminations(
            &overlay,
            &DenseSelector::ringcast(fanout),
            &origins,
            &mut rng,
        );
        let stats = AggregateStats::from_reports("RingCast", fanout, &reports);
        assert!(
            stats.mean_last_hop <= previous_mean_hops,
            "dissemination latency should not grow with fanout"
        );
        previous_mean_hops = stats.mean_last_hop;
    }
    assert!(
        previous_mean_hops < 8.0,
        "fanout 10 should finish within a few hops, took {previous_mean_hops}"
    );
}

#[test]
fn experiments_are_reproducible_given_the_seed() {
    let overlay_a = warmed_overlay(250, 12);
    let overlay_b = warmed_overlay(250, 12);
    let mut rng_a = ChaCha8Rng::seed_from_u64(13);
    let mut rng_b = ChaCha8Rng::seed_from_u64(13);
    let origin = overlay_a.live_node_ids()[3];
    let randcast = DenseSelector::randcast(3);
    let a = run_disseminations(&overlay_a, &randcast, &[origin], &mut rng_a);
    let b = run_disseminations(&overlay_b, &randcast, &[origin], &mut rng_b);
    assert_eq!(a, b, "same seeds must give bit-identical reports");
}
