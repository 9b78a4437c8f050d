//! Property-based tests for the membership protocols.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use hybridcast_graph::NodeId;
use hybridcast_membership::cyclon::CyclonNode;
use hybridcast_membership::descriptor::Descriptor;
use hybridcast_membership::proximity::{circular_distance, ring_neighbors};
use hybridcast_membership::vicinity::VicinityNode;

fn n(i: u64) -> NodeId {
    NodeId::new(i)
}

/// Checks the invariants every Cyclon view must keep at all times.
fn assert_cyclon_invariants(node: &CyclonNode<()>) -> Result<(), TestCaseError> {
    let ids = node.view().node_ids();
    let mut dedup = ids.clone();
    dedup.sort();
    dedup.dedup();
    prop_assert_eq!(ids.len(), dedup.len(), "duplicate entries in view");
    prop_assert!(!node.view().contains(node.id()), "view contains the owner");
    prop_assert!(node.view().len() <= node.view().capacity(), "view overflow");
    Ok(())
}

proptest! {
    /// Arbitrary sequences of Cyclon shuffles between a small population
    /// never violate the view invariants (no self, no duplicates, bounded).
    #[test]
    fn cyclon_shuffles_preserve_invariants(
        population in 2usize..12,
        view_len in 1usize..8,
        shuffle_len in 1usize..8,
        steps in 1usize..60,
        seed in 0u64..500,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut nodes: Vec<CyclonNode<()>> = (0..population as u64)
            .map(|i| CyclonNode::new(n(i), (), view_len, shuffle_len))
            .collect();
        // Star bootstrap: everybody knows node 0.
        for node in nodes.iter_mut().skip(1) {
            node.add_bootstrap_contact(Descriptor::new(n(0), ()));
        }

        for step in 0..steps {
            let initiator = step % population;
            nodes[initiator].begin_cycle();
            let exchange = nodes[initiator].initiate_shuffle(&mut rng);
            if let Some((target, request)) = exchange {
                let target_idx = target.as_index();
                prop_assume!(target_idx < population);
                let from = nodes[initiator].id();
                let reply = nodes[target_idx].handle_shuffle_request(from, &request, &mut rng);
                nodes[initiator].handle_shuffle_response(&request, &reply);
            }
            for node in &nodes {
                assert_cyclon_invariants(node)?;
            }
        }
    }

    /// The circular distance on ring positions is a metric-like quantity:
    /// symmetric, zero only on equality, and never more than half the ring.
    #[test]
    fn circular_distance_properties(a in any::<u64>(), b in any::<u64>()) {
        let d = circular_distance(a, b);
        prop_assert_eq!(d, circular_distance(b, a));
        prop_assert_eq!(d == 0, a == b);
        // The shorter arc is at most half of the 2^64 ring.
        prop_assert!(u128::from(d) <= (1u128 << 63));
    }

    /// `ring_neighbors` picks the true successor and predecessor in the
    /// circular order of keys.
    #[test]
    fn ring_neighbors_are_correct(
        own in 0u64..1000,
        keys in prop::collection::btree_set(0u64..1000, 1..30),
    ) {
        let candidates: Vec<(u64, NodeId)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, n(i as u64 + 1)))
            .collect();
        let (pred, succ) = ring_neighbors(&own, &candidates);

        // Reference computation: sort keys; successor = first key > own
        // (wrapping), predecessor = last key <= own (wrapping).
        let sorted: Vec<(u64, NodeId)> = candidates.clone();
        let expected_succ = sorted
            .iter()
            .find(|(k, _)| *k > own)
            .or_else(|| sorted.first())
            .map(|&(_, id)| id);
        let expected_pred = sorted
            .iter()
            .rev()
            .find(|(k, _)| *k <= own)
            .or_else(|| sorted.last())
            .map(|&(_, id)| id);
        prop_assert_eq!(succ, expected_succ);
        prop_assert_eq!(pred, expected_pred);
    }

    /// After absorbing an arbitrary candidate set, a Vicinity node's view
    /// contains the true ring successor and predecessor among those
    /// candidates (as long as the view has room for at least two entries).
    #[test]
    fn vicinity_converges_to_true_ring_neighbors(
        own_key in 0u64..10_000,
        candidate_keys in prop::collection::btree_set(0u64..10_000, 2..40),
        view_len in 2usize..24,
    ) {
        prop_assume!(!candidate_keys.contains(&own_key));
        let descriptors: Vec<Descriptor<u64>> = candidate_keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Descriptor::new(n(i as u64 + 1), k))
            .collect();
        let mut node = VicinityNode::new(n(0), own_key, view_len, 3);
        node.absorb_candidates(&descriptors);

        let pairs: Vec<(u64, NodeId)> = descriptors.iter().map(|d| (d.profile, d.id)).collect();
        let (expected_pred, expected_succ) = ring_neighbors(&own_key, &pairs);
        let (pred, succ) = node.ring_neighbors();
        prop_assert_eq!(pred, expected_pred, "predecessor kept in the view");
        prop_assert_eq!(succ, expected_succ, "successor kept in the view");
    }

    /// Vicinity views never exceed capacity, never contain the owner and
    /// never contain duplicates, no matter how candidates arrive.
    #[test]
    fn vicinity_view_invariants(
        own_key in 0u64..1000,
        batches in prop::collection::vec(
            prop::collection::vec((1u64..60, 0u64..1000), 0..20),
            1..6
        ),
        view_len in 1usize..10,
    ) {
        let mut node = VicinityNode::new(n(0), own_key, view_len, 2);
        for batch in batches {
            let descriptors: Vec<Descriptor<u64>> = batch
                .into_iter()
                .map(|(id, key)| Descriptor::new(n(id), key))
                .collect();
            node.absorb_candidates(&descriptors);
            let ids = node.view().node_ids();
            let mut dedup = ids.clone();
            dedup.sort();
            dedup.dedup();
            prop_assert_eq!(ids.len(), dedup.len());
            prop_assert!(!node.view().contains(n(0)));
            prop_assert!(node.view().len() <= view_len);
        }
    }
}
