//! Repetition over the id-keyed engine: origins drawn from one shared RNG
//! stream, the reference the seeded `hybridcast_core::experiment` drivers
//! replaced.

use rand::seq::SliceRandom;
use rand::Rng;

use hybridcast_core::metrics::DisseminationReport;
use hybridcast_core::overlay::Overlay;
use hybridcast_core::protocols::DenseSelector;
use hybridcast_graph::NodeId;
use hybridcast_obs::NullProbe;

use crate::engine::disseminate;

/// Picks `count` dissemination origins uniformly at random (with
/// replacement across runs, as the paper does) from the overlay's live
/// nodes.
///
/// # Panics
///
/// Panics if the overlay has no live nodes.
pub fn random_origins<R: Rng + ?Sized>(
    overlay: &dyn Overlay,
    count: usize,
    rng: &mut R,
) -> Vec<NodeId> {
    let live = overlay.live_node_ids();
    assert!(!live.is_empty(), "overlay has no live nodes");
    (0..count)
        .map(|_| *live.choose(rng).expect("non-empty"))
        .collect()
}

/// Runs `origins.len()` disseminations of `selector` over `overlay`, one per
/// origin and all drawing from `rng`, and returns the individual reports.
pub fn run_disseminations<R: Rng>(
    overlay: &dyn Overlay,
    selector: &DenseSelector,
    origins: &[NodeId],
    rng: &mut R,
) -> Vec<DisseminationReport> {
    origins
        .iter()
        .map(|&origin| disseminate(overlay, selector, origin, rng, &mut NullProbe))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::StaticOverlay;
    use hybridcast_graph::builders;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn random_origins_are_live_nodes() {
        let ids: Vec<NodeId> = (0..10).map(NodeId::new).collect();
        let overlay = StaticOverlay::deterministic(&builders::bidirectional_ring(&ids));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let origins = random_origins(&overlay, 25, &mut rng);
        assert_eq!(origins.len(), 25);
        assert!(origins.iter().all(|&o| overlay.is_live(o)));
    }

    #[test]
    #[should_panic(expected = "no live nodes")]
    fn random_origins_panics_on_empty_overlay() {
        let overlay = StaticOverlay::new();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        random_origins(&overlay, 1, &mut rng);
    }
}
