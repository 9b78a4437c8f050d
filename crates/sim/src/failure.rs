//! Catastrophic failure injection (Section 7.2 of the paper).
//!
//! A catastrophic failure kills a randomly chosen fraction of the nodes all
//! at once. The paper deliberately examines the *worst case*: the overlay is
//! frozen before the failure and gets no chance to self-heal, so every link
//! pointing to a killed node stays in place as a dead link. Two entry points
//! are provided:
//!
//! * [`kill_fraction_in_network`] removes nodes from a live
//!   [`GossipRuntime`] (use when you want to study subsequent healing),
//! * [`kill_fraction_in_snapshot`] removes nodes from a frozen
//!   [`OverlaySnapshot`] (the paper's setup: freeze first, then fail).

use rand::Rng;

use hybridcast_graph::sample::partial_fisher_yates;
use hybridcast_graph::NodeId;

use crate::runtime::GossipRuntime;
use crate::snapshot::OverlaySnapshot;

/// Selects `floor(fraction * population)` distinct victims uniformly at
/// random from `population_ids`.
///
/// # Panics
///
/// Panics if `fraction` is not within `[0, 1]`.
pub fn select_victims<R: Rng + ?Sized>(
    population_ids: &[NodeId],
    fraction: f64,
    rng: &mut R,
) -> Vec<NodeId> {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "failure fraction must be within [0, 1], got {fraction}"
    );
    let count = (population_ids.len() as f64 * fraction).floor() as usize;
    let mut ids = population_ids.to_vec();
    partial_fisher_yates(&mut ids, count, rng);
    ids
}

/// Kills a random `fraction` of the live nodes in a running network (any
/// [`GossipRuntime`], such as [`crate::DenseSimNetwork`]). Returns the ids
/// of the killed nodes.
pub fn kill_fraction_in_network<N: GossipRuntime + ?Sized, R: Rng + ?Sized>(
    network: &mut N,
    fraction: f64,
    rng: &mut R,
) -> Vec<NodeId> {
    let victims = select_victims(&network.live_ids(), fraction, rng);
    for &victim in &victims {
        network.kill_node(victim);
    }
    victims
}

/// Kills a random `fraction` of the nodes in a frozen snapshot (the paper's
/// worst-case model: no healing is possible afterwards). Returns the ids of
/// the killed nodes.
pub fn kill_fraction_in_snapshot<R: Rng + ?Sized>(
    snapshot: &mut OverlaySnapshot,
    fraction: f64,
    rng: &mut R,
) -> Vec<NodeId> {
    let ids: Vec<NodeId> = snapshot.live_nodes().collect();
    let victims = select_victims(&ids, fraction, rng);
    for &victim in &victims {
        snapshot.remove_node(victim);
    }
    victims
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::dense::DenseSimNetwork;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn net(nodes: usize) -> DenseSimNetwork {
        DenseSimNetwork::new(
            SimConfig {
                nodes,
                ..SimConfig::default()
            },
            11,
        )
    }

    #[test]
    fn select_victims_count_and_uniqueness() {
        let ids: Vec<NodeId> = (0..200).map(NodeId::new).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let victims = select_victims(&ids, 0.05, &mut rng);
        assert_eq!(victims.len(), 10);
        let mut dedup = victims.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
    }

    #[test]
    fn zero_and_full_fractions() {
        let ids: Vec<NodeId> = (0..50).map(NodeId::new).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert!(select_victims(&ids, 0.0, &mut rng).is_empty());
        assert_eq!(select_victims(&ids, 1.0, &mut rng).len(), 50);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn out_of_range_fraction_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        select_victims(&[NodeId::new(0)], 1.5, &mut rng);
    }

    #[test]
    fn network_failure_removes_nodes() {
        let mut network = net(100);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let victims = kill_fraction_in_network(&mut network, 0.1, &mut rng);
        assert_eq!(victims.len(), 10);
        assert_eq!(network.len(), 90);
        for v in victims {
            assert!(!network.is_live(v));
        }
    }

    #[test]
    fn snapshot_failure_keeps_dead_links() {
        let mut network = net(100);
        network.run_cycles(30);
        let mut snapshot = network.overlay_snapshot();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let victims = kill_fraction_in_snapshot(&mut snapshot, 0.05, &mut rng);
        assert_eq!(victims.len(), 5);
        assert_eq!(snapshot.len(), 95);
        // At least one surviving node still lists a victim in its links
        // (dead links are the whole point of the worst-case model).
        let stale = snapshot.live_nodes().any(|id| {
            snapshot
                .r_links(id)
                .iter()
                .chain(snapshot.d_links(id).iter())
                .any(|link| victims.contains(link))
        });
        assert!(stale, "expected some dead links to remain in the overlay");
    }
}
