//! Property-based tests for the dissemination protocols and engine.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use hybridcast_core::async_engine::{disseminate_async_dense, AsyncConfig, DenseAsyncScratch};
use hybridcast_core::engine::{disseminate_dense, DenseScratch};
use hybridcast_core::experiment::{run_seeded_async, run_seeded_disseminations};
use hybridcast_core::netmodel::{DelayModel, LossModel, NetModel, PartitionEvent};
use hybridcast_core::overlay::{DenseOverlay, Overlay, SnapshotOverlay};
use hybridcast_core::protocols::DenseSelector;
use hybridcast_core::pull::{disseminate_push_pull_dense, DensePullScratch, PullConfig};
use hybridcast_graph::{builders, connectivity, harary, NodeId};
use hybridcast_obs::NullProbe;
use hybridcast_oracle::{
    disseminate, disseminate_async, disseminate_push_pull, Network, StaticOverlay,
};
use hybridcast_sim::churn::{ChurnConfig, ChurnDriver};
use hybridcast_sim::{GossipRuntime, SimConfig};

fn ids(count: u64) -> Vec<NodeId> {
    (0..count).map(NodeId::new).collect()
}

/// Grows a small overlay under continuous churn and freezes it, then kills
/// `kill` further nodes in the frozen snapshot: the shape of the paper's
/// hardest scenario, used to exercise the dense/BTree differentials on
/// overlays with stale links, replaced ids and dead targets.
fn churned_overlay(n: usize, churn_cycles: usize, kill: usize, seed: u64) -> SnapshotOverlay {
    let mut network = Network::new(
        SimConfig {
            nodes: n,
            warmup_cycles: 30,
            ..SimConfig::default()
        },
        seed,
    );
    network.run_cycles(30);
    let mut driver = ChurnDriver::new(ChurnConfig { rate: 0.05 });
    driver.run_cycles(&mut network, churn_cycles);
    let mut overlay = SnapshotOverlay::new(network.overlay_snapshot());
    let victims: Vec<NodeId> = overlay.live_node_ids();
    for victim in victims.iter().take(kill) {
        overlay.snapshot_mut().remove_node(*victim);
    }
    overlay
}

/// The protocol every differential sweeps at index `protocol_idx`.
fn protocol(protocol_idx: usize, fanout: usize) -> DenseSelector {
    match protocol_idx {
        0 => DenseSelector::randcast(fanout),
        1 => DenseSelector::ringcast(fanout),
        2 => DenseSelector::Flooding,
        _ => DenseSelector::DeterministicFlooding,
    }
}

/// Builds one of the adversarial network models the differentials sweep:
/// every delay distribution, every loss process and 0–2 scripted
/// partitions, parameterised by plain proptest integers so shrinking
/// stays effective.
fn adversarial_model(delay_idx: usize, loss_idx: usize, parts: usize, knob: u64) -> NetModel {
    let delay = match delay_idx % 3 {
        0 => DelayModel::FixedJitter,
        1 => DelayModel::LogNormal {
            mu: 0.0,
            sigma: 0.25 + (knob % 8) as f64 * 0.25,
        },
        _ => DelayModel::Bimodal {
            local_delay: 0.5,
            wan_delay: 5.0,
            wan_fraction: 0.1 + (knob % 5) as f64 * 0.15,
        },
    };
    let loss = match loss_idx % 3 {
        0 => LossModel::None,
        1 => LossModel::Iid {
            rate: (knob % 10) as f64 * 0.05,
        },
        _ => LossModel::GilbertElliott {
            p_enter_bad: 0.05,
            p_exit_bad: 0.25,
            loss_good: 0.01,
            loss_bad: 0.5,
        },
    };
    let partitions = (0..parts)
        .map(|i| {
            PartitionEvent::bisection(
                (knob % 7) as f64 + i as f64 * 2.0,
                1.0 + (knob % 5) as f64,
                knob ^ (i as u64).wrapping_mul(0x9E37_79B9),
            )
        })
        .collect();
    NetModel {
        delay,
        loss,
        partitions,
    }
}

proptest! {
    /// Flooding over any strongly connected d-link overlay reaches every
    /// node, and uses exactly edge_count messages.
    #[test]
    fn flooding_is_complete_on_connected_overlays(n in 2u64..120, seed in 0u64..100) {
        let nodes = ids(n);
        let ring = builders::bidirectional_ring(&nodes);
        prop_assert!(connectivity::is_strongly_connected(&ring));
        let overlay = StaticOverlay::deterministic(&ring);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let origin = nodes[(seed % n) as usize];
        let report = disseminate(&overlay, &DenseSelector::DeterministicFlooding, origin, &mut rng, &mut NullProbe);
        prop_assert!(report.is_complete());
        prop_assert_eq!(report.messages_to_dead, 0);
        // Flooding sends over every outgoing link except the incoming one:
        // total = sum over nodes of (out_degree - incoming_used) which for a
        // bidirectional ring is exactly edge_count - (reached - 1) ... the
        // simpler invariant: virgin messages = N - 1.
        prop_assert_eq!(report.messages_to_virgin, n as usize - 1);
    }

    /// RingCast is complete on any failure-free hybrid overlay regardless of
    /// fanout — the paper's headline determinism claim.
    #[test]
    fn ringcast_is_always_complete_without_failures(
        n in 3u64..150,
        fanout in 1usize..8,
        degree in 1usize..10,
        seed in 0u64..100,
    ) {
        let overlay = StaticOverlay::hybrid(n, degree, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(1));
        let origin = NodeId::new(seed % n);
        let report = disseminate(&overlay, &DenseSelector::ringcast(fanout), origin, &mut rng, &mut NullProbe);
        prop_assert!(report.is_complete(), "missed {} of {}", report.population - report.reached, report.population);
    }

    /// The fundamental message-accounting identities hold for every protocol
    /// and every overlay: virgin messages = reached - 1, and the per-hop
    /// series sum to the totals.
    #[test]
    fn message_accounting_identities(
        n in 3u64..100,
        fanout in 1usize..6,
        degree in 1usize..8,
        seed in 0u64..100,
        protocol_idx in 0usize..4,
    ) {
        let overlay = StaticOverlay::hybrid(n, degree, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(2));
        let origin = NodeId::new(seed % n);
        let report = disseminate(&overlay, &protocol(protocol_idx, fanout), origin, &mut rng, &mut NullProbe);

        prop_assert_eq!(report.messages_to_virgin, report.reached - 1,
            "every node except the origin is notified by exactly one virgin message");
        prop_assert_eq!(report.per_hop_new.iter().sum::<usize>(), report.reached);
        prop_assert_eq!(
            report.per_hop_messages.iter().sum::<usize>(),
            report.total_messages(),
            "per-hop messages account for every message, including the final redundant sweep"
        );
        prop_assert_eq!(report.per_hop_new.len(), report.per_hop_messages.len());
        prop_assert_eq!(report.reached + report.unreached.len(), report.population);
        prop_assert!(report.hit_ratio() >= 0.0 && report.hit_ratio() <= 1.0);
        // The forwarding load of any node is bounded by its total out-links.
        for (&node, &sent) in &report.forwarded_counts {
            let capacity = overlay.r_links(node).len() + overlay.d_links(node).len();
            prop_assert!(sent <= capacity, "{} forwarded {} > {} links", node, sent, capacity);
        }
    }

    /// RingCast never performs worse than RandCast on the same overlay with
    /// the same fanout (its hit count is at least as high), because the
    /// deterministic links only add coverage.
    #[test]
    fn ringcast_dominates_randcast(
        n in 10u64..120,
        fanout in 2usize..6,
        seed in 0u64..60,
    ) {
        let overlay = StaticOverlay::hybrid(n, 8, seed);
        let origin = NodeId::new(seed % n);
        let mut rng_a = ChaCha8Rng::seed_from_u64(1000 + seed);
        let mut rng_b = ChaCha8Rng::seed_from_u64(1000 + seed);
        let rand_report = disseminate(&overlay, &DenseSelector::randcast(fanout), origin, &mut rng_a, &mut NullProbe);
        let ring_report = disseminate(&overlay, &DenseSelector::ringcast(fanout), origin, &mut rng_b, &mut NullProbe);
        prop_assert!(ring_report.reached >= rand_report.reached);
        prop_assert!(ring_report.is_complete());
    }

    /// Selector contract: no protocol ever returns the sender, the node
    /// itself, duplicates, or more than fanout + d-link-count targets.
    #[test]
    fn selector_contract(
        n in 5u64..80,
        fanout in 1usize..10,
        degree in 1usize..12,
        seed in 0u64..100,
    ) {
        let overlay = StaticOverlay::hybrid(n, degree, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let node = NodeId::new(seed % n);
        let (d_links, r_links) = (overlay.d_links(node), overlay.r_links(node));
        let from = d_links.first().copied();
        let (mut targets, mut pool) = (Vec::new(), Vec::new());
        for protocol in [DenseSelector::randcast(fanout), DenseSelector::ringcast(fanout)] {
            let links = (&d_links[..], &r_links[..]);
            protocol.select(node, from.unwrap_or(node), links, &mut rng, &mut targets, &mut pool);
            prop_assert!(!targets.contains(&node));
            if let Some(sender) = from {
                prop_assert!(!targets.contains(&sender));
            }
            let mut dedup = targets.clone();
            dedup.sort();
            dedup.dedup();
            prop_assert_eq!(dedup.len(), targets.len(), "duplicate targets");
            prop_assert!(targets.len() <= fanout + overlay.d_links(node).len());
        }
    }

    /// Killing nodes after freezing the overlay never increases the reach of
    /// RandCast, and RingCast still reaches every node of any ring segment
    /// it enters (the partitioned-ring argument of Figure 4).
    #[test]
    fn ringcast_covers_whole_ring_segments_under_failures(
        n in 20u64..100,
        kill in 1usize..5,
        seed in 0u64..50,
    ) {
        let overlay_nodes = ids(n);
        let ring = builders::bidirectional_ring(&overlay_nodes);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let random = builders::random_out_degree(&overlay_nodes, 6, &mut rng);
        let mut overlay = StaticOverlay::from_graphs(&ring, &random);
        // Kill `kill` nodes other than the origin.
        for k in 0..kill {
            overlay.kill_node(NodeId::new((seed + 7 * k as u64 + 1) % n));
        }
        let origin = NodeId::new(0);
        prop_assume!(overlay.is_live(origin));
        let report = disseminate(&overlay, &DenseSelector::ringcast(3), origin, &mut rng, &mut NullProbe);

        // Every live node adjacent (on the ring) to a reached live node must
        // have been reached too: RingCast exhausts ring segments.
        for &node in &overlay_nodes {
            if !overlay.is_live(node) || report.unreached.contains(&node) {
                continue;
            }
            for neighbour in [
                NodeId::new((node.as_u64() + 1) % n),
                NodeId::new((node.as_u64() + n - 1) % n),
            ] {
                if overlay.is_live(neighbour) {
                    prop_assert!(
                        !report.unreached.contains(&neighbour),
                        "live ring neighbour {} of reached node {} was missed",
                        neighbour,
                        node
                    );
                }
            }
        }
    }

    /// Differential: the dense CSR engine and the generic BTree engine
    /// produce field-for-field identical reports for the same overlay,
    /// selector and seed — across every protocol, with and without dead
    /// nodes.
    #[test]
    fn dense_engine_is_report_identical_to_generic_engine(
        n in 3u64..100,
        fanout in 1usize..6,
        degree in 1usize..8,
        kill in 0usize..4,
        seed in 0u64..100,
        protocol_idx in 0usize..4,
    ) {
        let mut overlay = StaticOverlay::hybrid(n, degree, seed);
        for k in 0..kill.min(n as usize - 1) {
            overlay.kill_node(NodeId::new((seed + 3 * k as u64 + 1) % n));
        }
        let origin = NodeId::new(seed % n);
        prop_assume!(overlay.is_live(origin));

        let selector = protocol(protocol_idx, fanout);
        let dense = DenseOverlay::from(&overlay);
        let mut scratch = DenseScratch::new();
        let rng_seed = seed.wrapping_add(9);
        let slow = disseminate(
            &overlay,
            &selector,
            origin,
            &mut ChaCha8Rng::seed_from_u64(rng_seed), &mut NullProbe,
        );
        let fast = disseminate_dense(
            &dense,
            &selector,
            origin,
            &mut ChaCha8Rng::seed_from_u64(rng_seed),
            &mut scratch,
        )
        .report(&dense, &scratch);
        prop_assert_eq!(&slow, &fast, "{} diverged", selector.name());
        prop_assert_eq!(
            fast.per_hop_messages.iter().sum::<usize>(),
            fast.total_messages()
        );
    }

    /// The seeded experiment driver returns the same reports, in the same
    /// order, regardless of how many worker threads split the runs.
    #[test]
    fn parallel_driver_matches_single_threaded_run_for_run(
        n in 20u64..80,
        fanout in 1usize..5,
        master_seed in 0u64..1000,
        threads in 2usize..6,
        runs in 1usize..12,
    ) {
        let overlay = StaticOverlay::hybrid(n, 6, master_seed);
        let dense = DenseOverlay::from(&overlay);
        let selector = DenseSelector::ringcast(fanout);
        let sequential = run_seeded_disseminations(&dense, &selector, runs, master_seed, 1);
        let parallel = run_seeded_disseminations(&dense, &selector, runs, master_seed, threads);
        prop_assert_eq!(sequential, parallel);
    }

    /// Differential: the dense event-driven (latency-model) engine and the
    /// frozen BTree oracle produce field-for-field identical [`AsyncReport`]s
    /// for the same overlay, selector, configuration and seed — across every
    /// protocol, with and without dead nodes.
    #[test]
    fn dense_async_engine_is_report_identical_to_frozen_oracle(
        n in 3u64..80,
        fanout in 1usize..5,
        degree in 1usize..8,
        kill in 0usize..4,
        seed in 0u64..100,
        protocol_idx in 0usize..4,
        delay_tenths in 0usize..40,
    ) {
        let mut overlay = StaticOverlay::hybrid(n, degree, seed);
        for k in 0..kill.min(n as usize - 1) {
            overlay.kill_node(NodeId::new((seed + 3 * k as u64 + 1) % n));
        }
        let origin = NodeId::new(seed % n);
        prop_assume!(overlay.is_live(origin));

        let selector = protocol(protocol_idx, fanout);
        let dense = DenseOverlay::from(&overlay);
        let mut scratch = DenseAsyncScratch::new();
        let config = AsyncConfig {
            forwarding_delay: delay_tenths as f64 / 10.0,
            run_membership_gossip: false,
            ..AsyncConfig::default()
        };
        let rng_seed = seed.wrapping_add(11);
        let slow = disseminate_async(
            &overlay,
            &selector,
            origin,
            &config,
            &mut ChaCha8Rng::seed_from_u64(rng_seed), &mut NullProbe,
        );
        let fast = disseminate_async_dense(
            &dense,
            &selector,
            origin,
            &config,
            &mut ChaCha8Rng::seed_from_u64(rng_seed),
            &mut scratch,
        )
        .report(&dense, &config, &scratch);
        prop_assert_eq!(&slow, &fast, "{} diverged", selector.name());
        // The async per-hop message series accounts for every message sent.
        prop_assert_eq!(
            fast.per_hop_messages.iter().sum::<usize>(),
            fast.total_messages()
        );
        prop_assert_eq!(fast.per_hop_messages[0], 0);
        prop_assert_eq!(fast.notification_times.len(), fast.reached);
    }

    /// Differential: dense vs BTree async reports on *churned* overlays —
    /// grown under continuous churn, frozen, then hit by extra failures, so
    /// the link structure contains stale ids and dead targets.
    #[test]
    fn dense_async_engine_matches_oracle_on_churned_overlays(
        n in 20usize..60,
        churn_cycles in 5usize..25,
        kill in 0usize..5,
        fanout in 1usize..4,
        seed in 0u64..50,
    ) {
        let overlay = churned_overlay(n, churn_cycles, kill, seed);
        let origin = overlay.live_node_ids()[0];
        let dense = DenseOverlay::from(&overlay);
        let mut scratch = DenseAsyncScratch::new();
        let config = AsyncConfig {
            run_membership_gossip: false,
            ..AsyncConfig::default()
        };
        for (idx, selector) in [
            DenseSelector::ringcast(fanout),
            DenseSelector::randcast(fanout),
        ]
        .into_iter()
        .enumerate()
        {
            let rng_seed = seed.wrapping_add(idx as u64).wrapping_mul(97);
            let slow = disseminate_async(
                &overlay,
                &selector,
                origin,
                &config,
                &mut ChaCha8Rng::seed_from_u64(rng_seed), &mut NullProbe,
            );
            let fast = disseminate_async_dense(
                &dense,
                &selector,
                origin,
                &config,
                &mut ChaCha8Rng::seed_from_u64(rng_seed),
                &mut scratch,
            )
            .report(&dense, &config, &scratch);
            prop_assert_eq!(&slow, &fast, "{} diverged after churn", selector.name());
            prop_assert_eq!(
                fast.per_hop_messages.iter().sum::<usize>(),
                fast.total_messages()
            );
        }
    }

    /// The seeded async driver returns the same reports, in the same order,
    /// regardless of how many worker threads split the runs.
    #[test]
    fn parallel_async_driver_matches_single_threaded_run_for_run(
        n in 20u64..60,
        fanout in 1usize..4,
        master_seed in 0u64..1000,
        threads in 2usize..6,
        runs in 1usize..8,
    ) {
        let overlay = StaticOverlay::hybrid(n, 6, master_seed);
        let dense = DenseOverlay::from(&overlay);
        let selector = DenseSelector::ringcast(fanout);
        let config = AsyncConfig {
            run_membership_gossip: false,
            ..AsyncConfig::default()
        };
        let sequential = run_seeded_async(&dense, &selector, &config, runs, master_seed, 1);
        let parallel = run_seeded_async(&dense, &selector, &config, runs, master_seed, threads);
        prop_assert_eq!(sequential, parallel);
    }

    /// Differential: the dense push + pull-anti-entropy engine and the
    /// generic BTree engine produce field-for-field identical
    /// [`PushPullReport`]s for the same overlay, selector, configuration and
    /// seed, with and without dead nodes.
    #[test]
    fn dense_pull_engine_is_report_identical_to_generic_engine(
        n in 3u64..80,
        fanout in 1usize..5,
        pull_fanout in 1usize..4,
        degree in 1usize..8,
        kill in 0usize..4,
        seed in 0u64..100,
        protocol_idx in 0usize..2,
    ) {
        let mut overlay = StaticOverlay::hybrid(n, degree, seed);
        for k in 0..kill.min(n as usize - 1) {
            overlay.kill_node(NodeId::new((seed + 3 * k as u64 + 1) % n));
        }
        let origin = NodeId::new(seed % n);
        prop_assume!(overlay.is_live(origin));

        let selector = protocol(protocol_idx, fanout);
        let dense = DenseOverlay::from(&overlay);
        let mut scratch = DensePullScratch::new();
        let config = PullConfig {
            fanout: pull_fanout,
            max_rounds: 25,
            ..PullConfig::default()
        };
        let rng_seed = seed.wrapping_add(13);
        let slow = disseminate_push_pull(
            &overlay,
            &selector,
            origin,
            &config,
            &mut ChaCha8Rng::seed_from_u64(rng_seed), &mut NullProbe,
        );
        let fast = disseminate_push_pull_dense(
            &dense,
            &selector,
            origin,
            &config,
            &mut ChaCha8Rng::seed_from_u64(rng_seed),
            &mut scratch,
        )
        .report(&dense, &scratch);
        prop_assert_eq!(&slow, &fast, "{} diverged", selector.name());
        prop_assert_eq!(
            fast.reached_after_pull + fast.unreached_after_pull.len(),
            fast.push.population
        );
        prop_assert_eq!(fast.per_round_new.len(), fast.pull_rounds);
        prop_assert!(fast.pull_transfers <= fast.pull_requests);
    }

    /// Differential: dense vs BTree push-pull reports on churned overlays
    /// with extra post-freeze failures.
    #[test]
    fn dense_pull_engine_matches_generic_on_churned_overlays(
        n in 20usize..60,
        churn_cycles in 5usize..25,
        kill in 0usize..5,
        fanout in 1usize..4,
        seed in 0u64..50,
    ) {
        let overlay = churned_overlay(n, churn_cycles, kill, seed);
        let origin = overlay.live_node_ids()[0];
        let dense = DenseOverlay::from(&overlay);
        let mut scratch = DensePullScratch::new();
        let config = PullConfig {
            fanout: 1,
            max_rounds: 30,
            ..PullConfig::default()
        };
        let selector = DenseSelector::randcast(fanout);
        let rng_seed = seed.wrapping_add(17);
        let slow = disseminate_push_pull(
            &overlay,
            &selector,
            origin,
            &config,
            &mut ChaCha8Rng::seed_from_u64(rng_seed), &mut NullProbe,
        );
        let fast = disseminate_push_pull_dense(
            &dense,
            &selector,
            origin,
            &config,
            &mut ChaCha8Rng::seed_from_u64(rng_seed),
            &mut scratch,
        )
        .report(&dense, &scratch);
        prop_assert_eq!(&slow, &fast, "push-pull diverged after churn");
        prop_assert!(fast.hit_ratio() >= fast.push.hit_ratio());
    }

    /// Differential under adversarial network models: the dense async engine
    /// and the frozen BTree oracle stay field-for-field identical for every
    /// combination of delay distribution (fixed-jitter, log-normal,
    /// bimodal), loss process (none, i.i.d., Gilbert–Elliott) and scripted
    /// partition timeline — on plain hybrid overlays with extra failures
    /// *and* on churned overlays with stale links and dead targets.
    #[test]
    fn dense_async_engine_matches_oracle_under_adversarial_models(
        n in 10u64..70,
        fanout in 1usize..5,
        kill in 0usize..4,
        seed in 0u64..100,
        protocol_idx in 0usize..2,
        delay_idx in 0usize..3,
        loss_idx in 0usize..3,
        parts in 0usize..3,
        knob in 0u64..1000,
        churned in any::<bool>(),
    ) {
        let (overlay, dense): (Box<dyn Overlay>, DenseOverlay) = if churned {
            let o = churned_overlay(n as usize, 10, kill, seed);
            let d = DenseOverlay::from(&o);
            (Box::new(o), d)
        } else {
            let mut o = StaticOverlay::hybrid(n, 6, seed);
            for k in 0..kill.min(n as usize - 1) {
                o.kill_node(NodeId::new((seed + 3 * k as u64 + 1) % n));
            }
            let d = DenseOverlay::from(&o);
            (Box::new(o), d)
        };
        let live = overlay.live_node_ids();
        prop_assume!(!live.is_empty());
        let origin = live[seed as usize % live.len()];

        let selector = protocol(protocol_idx, fanout);
        let mut scratch = DenseAsyncScratch::new();
        let config = AsyncConfig {
            run_membership_gossip: false,
            net: adversarial_model(delay_idx, loss_idx, parts, knob),
            ..AsyncConfig::default()
        };
        prop_assert!(config.validate().is_ok());
        let rng_seed = seed.wrapping_add(19);
        let slow = disseminate_async(
            overlay.as_ref(),
            &selector,
            origin,
            &config,
            &mut ChaCha8Rng::seed_from_u64(rng_seed), &mut NullProbe,
        );
        let fast = disseminate_async_dense(
            &dense,
            &selector,
            origin,
            &config,
            &mut ChaCha8Rng::seed_from_u64(rng_seed),
            &mut scratch,
        )
        .report(&dense, &config, &scratch);
        prop_assert_eq!(&slow, &fast, "{} diverged under {:?}", selector.name(), config.net);

        // Model-extended accounting: dropped messages still count as sent,
        // and (unless the run was truncated) every non-dropped message was
        // delivered as redundant, to-dead, or a first notification.
        prop_assert_eq!(
            fast.per_hop_messages.iter().sum::<usize>(),
            fast.messages_sent
        );
        if !fast.truncated {
            prop_assert_eq!(
                fast.messages_sent - fast.dropped_loss - fast.dropped_partition,
                fast.messages_redundant + fast.messages_to_dead + fast.reached - 1
            );
        }
        prop_assert_eq!(fast.partition_recovery.len(), config.net.partitions.len());
        if config.net.loss.is_none() {
            prop_assert_eq!(fast.dropped_loss, 0);
        }
        if config.net.partitions.is_empty() {
            prop_assert_eq!(fast.dropped_partition, 0);
        }
    }

    /// The seeded async driver stays thread-count invariant under
    /// adversarial models: loss chains and partition checks are all driven
    /// off the per-run RNG streams, never shared mutable state.
    #[test]
    fn parallel_async_driver_is_thread_invariant_under_adversarial_models(
        n in 20u64..60,
        fanout in 1usize..4,
        master_seed in 0u64..500,
        threads in 2usize..6,
        runs in 1usize..8,
        delay_idx in 0usize..3,
        loss_idx in 0usize..3,
        parts in 0usize..3,
        knob in 0u64..1000,
    ) {
        let overlay = StaticOverlay::hybrid(n, 6, master_seed);
        let dense = DenseOverlay::from(&overlay);
        let selector = DenseSelector::ringcast(fanout);
        let config = AsyncConfig {
            run_membership_gossip: false,
            net: adversarial_model(delay_idx, loss_idx, parts, knob),
            ..AsyncConfig::default()
        };
        let sequential = run_seeded_async(&dense, &selector, &config, runs, master_seed, 1);
        let parallel = run_seeded_async(&dense, &selector, &config, runs, master_seed, threads);
        prop_assert_eq!(sequential, parallel);
    }

    /// Differential under adversarial network models for the pull engines:
    /// loss and partitions applied to the polls leave the dense engine and
    /// the BTree oracle bit-identical, including on churned overlays.
    #[test]
    fn dense_pull_engine_matches_generic_under_adversarial_models(
        n in 10u64..60,
        fanout in 1usize..4,
        pull_fanout in 1usize..4,
        kill in 0usize..4,
        seed in 0u64..100,
        loss_idx in 0usize..3,
        parts in 0usize..3,
        knob in 0u64..1000,
        churned in any::<bool>(),
    ) {
        let (overlay, dense): (Box<dyn Overlay>, DenseOverlay) = if churned {
            let o = churned_overlay(n as usize, 10, kill, seed);
            let d = DenseOverlay::from(&o);
            (Box::new(o), d)
        } else {
            let mut o = StaticOverlay::hybrid(n, 6, seed);
            for k in 0..kill.min(n as usize - 1) {
                o.kill_node(NodeId::new((seed + 3 * k as u64 + 1) % n));
            }
            let d = DenseOverlay::from(&o);
            (Box::new(o), d)
        };
        let live = overlay.live_node_ids();
        prop_assume!(!live.is_empty());
        let origin = live[seed as usize % live.len()];

        let mut scratch = DensePullScratch::new();
        let config = PullConfig {
            fanout: pull_fanout,
            max_rounds: 25,
            net: adversarial_model(0, loss_idx, parts, knob),
        };
        prop_assert!(config.validate().is_ok());
        let selector = DenseSelector::randcast(fanout);
        let rng_seed = seed.wrapping_add(23);
        let slow = disseminate_push_pull(
            overlay.as_ref(),
            &selector,
            origin,
            &config,
            &mut ChaCha8Rng::seed_from_u64(rng_seed), &mut NullProbe,
        );
        let fast = disseminate_push_pull_dense(
            &dense,
            &selector,
            origin,
            &config,
            &mut ChaCha8Rng::seed_from_u64(rng_seed),
            &mut scratch,
        )
        .report(&dense, &scratch);
        prop_assert_eq!(&slow, &fast, "pull engines diverged under {:?}", config.net);
        prop_assert!(fast.polls_lost + fast.polls_blocked <= fast.pull_requests);
        if config.net.loss.is_none() {
            prop_assert_eq!(fast.polls_lost, 0);
        }
        if config.net.partitions.is_empty() {
            prop_assert_eq!(fast.polls_blocked, 0);
        }
    }

    /// The explicit default model is the identity: running any engine with
    /// `net: NetModel::default()` spelled out gives the exact report of the
    /// config that never mentions the model — the zero-cost guarantee the
    /// fixture baselines pin against the pre-model engines.
    #[test]
    fn explicit_default_net_model_changes_nothing(
        n in 10u64..60,
        fanout in 1usize..5,
        seed in 0u64..100,
    ) {
        let overlay = StaticOverlay::hybrid(n, 6, seed);
        let origin = NodeId::new(seed % n);
        let implicit = AsyncConfig {
            run_membership_gossip: false,
            ..AsyncConfig::default()
        };
        let explicit = AsyncConfig {
            net: NetModel {
                delay: DelayModel::FixedJitter,
                loss: LossModel::None,
                partitions: Vec::new(),
            },
            ..implicit.clone()
        };
        prop_assert!(explicit.net.is_default());
        let a = disseminate_async(
            &overlay,
            &DenseSelector::ringcast(fanout),
            origin,
            &implicit,
            &mut ChaCha8Rng::seed_from_u64(seed), &mut NullProbe,
        );
        let b = disseminate_async(
            &overlay,
            &DenseSelector::ringcast(fanout),
            origin,
            &explicit,
            &mut ChaCha8Rng::seed_from_u64(seed), &mut NullProbe,
        );
        prop_assert_eq!(a, b);
    }

    /// Flooding over a Harary graph H(n, t) still reaches everyone after
    /// t - 1 node failures (Section 3's reliability claim).
    #[test]
    fn harary_flooding_survives_failures(
        n in 8usize..40,
        t in 2usize..5,
        seed in 0u64..50,
    ) {
        prop_assume!(t < n);
        let nodes = ids(n as u64);
        let h = harary::harary_graph(&nodes, t);
        let mut overlay = StaticOverlay::deterministic(&h);
        // Kill exactly t - 1 distinct nodes, none of which is the origin (node 0).
        let mut killed = 0usize;
        let mut candidate = 1 + (seed as usize % (n - 1));
        while killed < t - 1 {
            if candidate != 0 && overlay.kill_node(NodeId::new(candidate as u64)) {
                killed += 1;
            }
            candidate = (candidate + 1) % n;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let report = disseminate(&overlay, &DenseSelector::DeterministicFlooding, NodeId::new(0), &mut rng, &mut NullProbe);
        prop_assert!(report.is_complete(),
            "H({}, {}) flooding missed {} nodes after {} failures",
            n, t, report.unreached.len(), t - 1);
    }
}
