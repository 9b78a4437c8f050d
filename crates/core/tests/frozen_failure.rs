//! Failing nodes *after* freezing, two ways that must agree report for
//! report.
//!
//! The paper's catastrophic failure (Section 7.2) kills nodes in an overlay
//! that is already frozen. One route removes the victims from the id-keyed
//! snapshot and converts what is left
//! (`kill_fraction_in_snapshot` + [`DenseOverlay::from_snapshot`]); the
//! other freezes the arena runtime straight into CSR form and marks the
//! same victims dead ([`DenseOverlay::from_dense_sim`] +
//! [`DenseOverlay::kill_node`]). The two overlays do not have the same node
//! universe — a victim nobody links to vanishes from the first and stays a
//! dead index in the second — but every seeded dissemination over them must
//! produce the same report.

use std::collections::BTreeMap;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use hybridcast_core::experiment::{run_seeded_disseminations, run_seeded_push_pulls};
use hybridcast_core::overlay::{DenseOverlay, Overlay};
use hybridcast_core::protocols::DenseSelector;
use hybridcast_core::pull::PullConfig;
use hybridcast_graph::NodeId;
use hybridcast_sim::failure::{kill_fraction_in_snapshot, select_victims};
use hybridcast_sim::snapshot::NodeSnapshot;
use hybridcast_sim::{DenseSimNetwork, OverlaySnapshot, SimConfig};

/// Asserts that seeded RandCast, RingCast and push–pull runs report the same
/// over both overlays.
fn assert_report_identical(removed: &DenseOverlay, marked: &DenseOverlay) {
    assert_eq!(removed.live_node_ids(), marked.live_node_ids());
    let pull = PullConfig {
        fanout: 1,
        max_rounds: 50,
    };
    for selector in [
        DenseSelector::randcast(2),
        DenseSelector::ringcast(2),
        DenseSelector::ringcast(3),
    ] {
        for threads in [1, 3] {
            assert_eq!(
                run_seeded_disseminations(removed, &selector, 12, 41, threads),
                run_seeded_disseminations(marked, &selector, 12, 41, threads),
                "{} push reports",
                selector.name()
            );
            assert_eq!(
                run_seeded_push_pulls(removed, &selector, &pull, 12, 43, threads),
                run_seeded_push_pulls(marked, &selector, &pull, 12, 43, threads),
                "{} push-pull reports",
                selector.name()
            );
        }
    }
}

#[test]
fn marking_victims_dead_equals_removing_them_from_the_snapshot() {
    let seed = 7u64;
    let mut network = DenseSimNetwork::new(
        SimConfig {
            nodes: 150,
            ..SimConfig::default()
        },
        seed,
    );
    network.run_cycles(40);
    for fraction in [0.0, 0.05, 0.3] {
        let failure_rng = || ChaCha8Rng::seed_from_u64(seed.wrapping_add(0xFA11));

        let mut snapshot = network.overlay_snapshot();
        let removed_victims =
            kill_fraction_in_snapshot(&mut snapshot, fraction, &mut failure_rng());
        let removed = DenseOverlay::from_snapshot(&snapshot);

        let mut marked = DenseOverlay::from_dense_sim(&network);
        let victims = select_victims(&marked.live_node_ids(), fraction, &mut failure_rng());
        assert_eq!(victims, removed_victims, "same victims, same order");
        for &victim in &victims {
            assert!(marked.kill_node(victim));
        }

        assert_eq!(marked.live_len(), 150 - victims.len());
        assert_report_identical(&removed, &marked);
    }
}

#[test]
fn a_victim_without_in_links_vanishes_from_one_universe_only() {
    let n = NodeId::new;
    let node = |r: &[u64], d: &[u64]| NodeSnapshot {
        ring_position: 0,
        joined_at_cycle: 0,
        r_links: r.iter().copied().map(n).collect(),
        d_links: d.iter().copied().map(n).collect(),
    };
    // Nodes 0..=5 form the d-link ring; node 6 links into it but nothing
    // links to node 6.
    let nodes: BTreeMap<NodeId, NodeSnapshot> = [
        (0, node(&[2, 3], &[5, 1])),
        (1, node(&[3, 4], &[0, 2])),
        (2, node(&[4, 5], &[1, 3])),
        (3, node(&[5, 0], &[2, 4])),
        (4, node(&[0, 1], &[3, 5])),
        (5, node(&[1, 2], &[4, 0])),
        (6, node(&[0, 3], &[5, 0])),
    ]
    .into_iter()
    .map(|(id, node)| (n(id), node))
    .collect();
    let mut snapshot = OverlaySnapshot::new(9, nodes);
    let mut marked = DenseOverlay::from_snapshot(&snapshot);

    // Node 2 is a victim others still point at; node 6 is one nobody does.
    for victim in [n(2), n(6)] {
        assert!(snapshot.remove_node(victim));
        assert!(marked.kill_node(victim));
    }
    let removed = DenseOverlay::from_snapshot(&snapshot);

    assert_eq!(removed.len(), 6, "node 6 is gone, node 2 is a dead target");
    assert_eq!(removed.index_of(n(6)), None);
    assert_eq!(marked.len(), 7, "both victims are dead indices");
    assert!(!marked.is_live(n(6)));
    assert_report_identical(&removed, &marked);
}
