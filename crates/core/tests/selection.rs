//! `DenseSelector::select` against the per-protocol selector structs it
//! replaced.
//!
//! The selection rule is written once, generic over the link id type, and
//! instantiated twice: at `NodeId` over an id-keyed overlay's link vectors
//! (the oracles, the live-membership engine, the real node) and at dense
//! `u32` indices over CSR slices (the hot paths). [`reference`] keeps the
//! four structs that each protocol used to be, verbatim; both
//! instantiations must pick their targets in the same order and leave the
//! RNG at the same position, over link lists with self-links, duplicates,
//! ids in both lists and dead targets.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hybridcast_core::overlay::{DenseOverlay, Overlay, SnapshotOverlay};
use hybridcast_core::protocols::DenseSelector;
use hybridcast_graph::NodeId;
use hybridcast_sim::snapshot::NodeSnapshot;
use hybridcast_sim::OverlaySnapshot;

/// The four protocols as they were written before they became one rule:
/// one struct each behind a `dyn` selector trait, over `Vec`s the overlay
/// allocates per call.
mod reference {
    use rand::RngCore;

    use hybridcast_core::overlay::Overlay;
    use hybridcast_graph::NodeId;

    pub trait GossipTargetSelector {
        fn select_targets(
            &self,
            overlay: &dyn Overlay,
            node: NodeId,
            from: Option<NodeId>,
            rng: &mut dyn RngCore,
        ) -> Vec<NodeId>;
    }

    fn partial_fisher_yates<T>(pool: &mut Vec<T>, count: usize, rng: &mut dyn RngCore) {
        hybridcast_graph::sample::partial_fisher_yates(pool, count, rng);
    }

    /// Draws up to `count` elements uniformly at random (without
    /// replacement) from `candidates`, excluding `node`, `from` and anything
    /// in `already`.
    fn pick_random_targets(
        candidates: &[NodeId],
        count: usize,
        node: NodeId,
        from: Option<NodeId>,
        already: &[NodeId],
        rng: &mut dyn RngCore,
    ) -> Vec<NodeId> {
        let mut pool: Vec<NodeId> = candidates
            .iter()
            .copied()
            .filter(|&c| c != node && Some(c) != from && !already.contains(&c))
            .collect();
        partial_fisher_yates(&mut pool, count, rng);
        pool
    }

    pub struct Flooding;

    impl GossipTargetSelector for Flooding {
        fn select_targets(
            &self,
            overlay: &dyn Overlay,
            node: NodeId,
            from: Option<NodeId>,
            _rng: &mut dyn RngCore,
        ) -> Vec<NodeId> {
            let mut targets = Vec::new();
            for link in overlay
                .d_links(node)
                .into_iter()
                .chain(overlay.r_links(node))
            {
                if link != node && Some(link) != from && !targets.contains(&link) {
                    targets.push(link);
                }
            }
            targets
        }
    }

    pub struct DeterministicFlooding;

    impl GossipTargetSelector for DeterministicFlooding {
        fn select_targets(
            &self,
            overlay: &dyn Overlay,
            node: NodeId,
            from: Option<NodeId>,
            _rng: &mut dyn RngCore,
        ) -> Vec<NodeId> {
            overlay
                .d_links(node)
                .into_iter()
                .filter(|&link| link != node && Some(link) != from)
                .collect()
        }
    }

    pub struct RandCast {
        pub fanout: usize,
    }

    impl GossipTargetSelector for RandCast {
        fn select_targets(
            &self,
            overlay: &dyn Overlay,
            node: NodeId,
            from: Option<NodeId>,
            rng: &mut dyn RngCore,
        ) -> Vec<NodeId> {
            let view = overlay.r_links(node);
            pick_random_targets(&view, self.fanout, node, from, &[], rng)
        }
    }

    pub struct RingCast {
        pub fanout: usize,
    }

    impl GossipTargetSelector for RingCast {
        fn select_targets(
            &self,
            overlay: &dyn Overlay,
            node: NodeId,
            from: Option<NodeId>,
            rng: &mut dyn RngCore,
        ) -> Vec<NodeId> {
            // Deterministic part: every d-link except the sender.
            let mut targets: Vec<NodeId> = Vec::new();
            for link in overlay.d_links(node) {
                if link != node && Some(link) != from && !targets.contains(&link) {
                    targets.push(link);
                }
            }
            // Probabilistic part: fill up to F with random r-links.
            let remaining = self.fanout.saturating_sub(targets.len());
            if remaining > 0 {
                let view = overlay.r_links(node);
                let random = pick_random_targets(&view, remaining, node, from, &targets, rng);
                targets.extend(random);
            }
            targets
        }
    }
}

use reference::GossipTargetSelector;

fn n(i: u64) -> NodeId {
    NodeId::new(i)
}

/// Per-node `(d_links, r_links, live)` over ids `0..10`. Self-links,
/// duplicate links, ids in both lists and links to absent (dead) ids all
/// occur; an `OverlaySnapshot` keeps every one of them (a `StaticOverlay`
/// would de-duplicate).
fn link_lists() -> impl Strategy<Value = Vec<(Vec<u64>, Vec<u64>, bool)>> {
    prop::collection::vec(
        (
            prop::collection::vec(0u64..10, 0..6),
            prop::collection::vec(0u64..10, 0..12),
            any::<bool>(),
        ),
        10,
    )
}

/// The snapshot of `lists` with `node` live and the sender placed by
/// `sender_kind`: 1 only in the d-links, 2 only in the r-links, 3 in both.
fn snapshot(
    lists: Vec<(Vec<u64>, Vec<u64>, bool)>,
    node: u64,
    sender: u64,
    sender_kind: usize,
) -> OverlaySnapshot {
    let mut entries = BTreeMap::new();
    for (id, (mut d, mut r, live)) in (0u64..).zip(lists) {
        if id == node {
            match sender_kind {
                1 => {
                    d.push(sender);
                    r.retain(|&x| x != sender);
                }
                2 => {
                    r.push(sender);
                    d.retain(|&x| x != sender);
                }
                3 => {
                    d.push(sender);
                    r.push(sender);
                }
                _ => {}
            }
        } else if !live {
            continue;
        }
        entries.insert(
            n(id),
            NodeSnapshot {
                ring_position: id,
                joined_at_cycle: 0,
                r_links: r.into_iter().map(n).collect(),
                d_links: d.into_iter().map(n).collect(),
            },
        );
    }
    OverlaySnapshot::new(0, entries)
}

proptest! {
    /// Both instantiations of `select` pick exactly the reference targets,
    /// in order, and consume exactly the reference draws — for every
    /// protocol, fanouts 1–8 and a sender that is absent (origin), only a
    /// d-link, only an r-link or both. The targets never include the node
    /// or its sender, and the random part is truncated to the fanout.
    #[test]
    fn select_matches_the_reference_structs_at_both_link_types(
        lists in link_lists(),
        node in 0u64..10,
        sender in 0u64..10,
        sender_kind in 0usize..4,
        fanout in 1usize..=8,
        protocol in 0usize..4,
        seed in any::<u64>(),
    ) {
        prop_assume!(sender_kind == 0 || sender != node);
        let overlay = SnapshotOverlay::new(snapshot(lists, node, sender, sender_kind));
        let dense = DenseOverlay::from_snapshot(overlay.snapshot());
        let (reference, selector): (Box<dyn GossipTargetSelector>, DenseSelector) =
            match protocol {
                0 => (Box::new(reference::RandCast { fanout }), DenseSelector::randcast(fanout)),
                1 => (Box::new(reference::RingCast { fanout }), DenseSelector::ringcast(fanout)),
                2 => (Box::new(reference::Flooding), DenseSelector::Flooding),
                _ => (
                    Box::new(reference::DeterministicFlooding),
                    DenseSelector::DeterministicFlooding,
                ),
            };
        let node = n(node);
        let from = (sender_kind != 0).then_some(n(sender));

        let mut rng_ref = ChaCha8Rng::seed_from_u64(seed);
        let expected = reference.select_targets(&overlay, node, from, &mut rng_ref);

        // NodeId instantiation, over the id-keyed link vectors.
        let (d_links, r_links) = (overlay.d_links(node), overlay.r_links(node));
        let mut rng_ids = ChaCha8Rng::seed_from_u64(seed);
        let (mut targets, mut pool) = (Vec::new(), Vec::new());
        let links = (&d_links[..], &r_links[..]);
        selector.select(node, from.unwrap_or(node), links, &mut rng_ids, &mut targets, &mut pool);
        prop_assert_eq!(&targets, &expected);
        prop_assert_eq!(rng_ids.next_u64(), rng_ref.clone().next_u64());

        // u32 instantiation, over the CSR slices, mapped back to ids.
        let index = |id: NodeId| dense.index_of(id).expect("linked ids are indexed");
        let node_idx = index(node);
        // The dense engines name the origin's sender by an index no link
        // carries.
        let from_idx = from.map_or(u32::MAX, index);
        let mut rng_dense = ChaCha8Rng::seed_from_u64(seed);
        let (mut dense_targets, mut dense_pool) = (Vec::new(), Vec::new());
        let links = (dense.d_links_of(node_idx), dense.r_links_of(node_idx));
        selector.select(node_idx, from_idx, links, &mut rng_dense, &mut dense_targets, &mut dense_pool);
        let mapped: Vec<NodeId> = dense_targets.iter().map(|&t| dense.node_id(t)).collect();
        prop_assert_eq!(&mapped, &expected);
        prop_assert_eq!(rng_dense.next_u64(), rng_ref.next_u64());

        // Exclusions and truncation.
        prop_assert!(!expected.contains(&node));
        if let Some(sender) = from {
            prop_assert!(!expected.contains(&sender));
        }
        let eligible = |links: &[NodeId]| -> Vec<NodeId> {
            links.iter().copied().filter(|&l| l != node && Some(l) != from).collect()
        };
        match selector {
            DenseSelector::RandCast(_) => {
                prop_assert_eq!(expected.len(), fanout.min(eligible(&r_links).len()));
            }
            DenseSelector::RingCast(_) => {
                let mut deterministic = eligible(&d_links);
                deterministic.sort();
                deterministic.dedup();
                prop_assert!(expected.len() >= deterministic.len());
                prop_assert!(expected.len() <= fanout.max(deterministic.len()));
            }
            _ => {}
        }
    }
}
