//! Property-based tests for the dissemination protocols and engine.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hybridcast_core::async_engine::{
    disseminate_async_dense, disseminate_async_dense_probed, AsyncConfig, DenseAsyncScratch,
};
use hybridcast_core::engine::{disseminate_dense, disseminate_dense_probed, DenseScratch};
use hybridcast_core::experiment::{run_seeded_async, run_seeded_disseminations};
use hybridcast_core::metrics::DisseminationReport;
use hybridcast_core::netmodel::{DelayModel, LossModel, NetModel, PartitionEvent};
use hybridcast_core::overlay::{DenseOverlay, Overlay, SnapshotOverlay};
use hybridcast_core::protocols::DenseSelector;
use hybridcast_core::pull::{disseminate_push_pull_dense, DensePullScratch, PullConfig};
use hybridcast_graph::{builders, connectivity, harary, NodeId};
use hybridcast_obs::{NullProbe, TraceEvent, VecProbe};
use hybridcast_oracle::{
    disseminate, disseminate_async, disseminate_push_pull, Network, StaticOverlay,
};
use hybridcast_sim::churn::{ChurnConfig, ChurnDriver};
use hybridcast_sim::{DenseSimNetwork, GossipRuntime, SimConfig};

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
/// every delay distribution, every loss process and 0 or 1 scripted
/// partition, parameterised by plain proptest integers so shrinking stays
/// effective.
fn adversarial_model(delay_idx: usize, loss_idx: usize, parts: usize, knob: u64) -> NetModel {
    let delay = match delay_idx {
        0 => DelayModel::FixedJitter,
        _ => DelayModel::LogNormal {
            mu: 0.0,
            sigma: 0.25 + (knob % 8) as f64 * 0.25,
        },
    };
    let loss = match loss_idx {
        0 => LossModel::None,
        _ => LossModel::Iid {
            rate: (knob % 10) as f64 * 0.05,
        },
    };
    let partition = (parts > 0)
        .then(|| PartitionEvent::bisection((knob % 7) as f64, 1.0 + (knob % 5) as f64, knob));
    NetModel {
        delay,
        loss,
        partition,
    }
}

/// `true` if the ids are strictly ascending, which also rules out
/// duplicates.
fn strictly_ascending(ids: impl Iterator<Item = NodeId>) -> bool {
    let ids: Vec<NodeId> = ids.collect();
    ids.windows(2).all(|pair| pair[0] < pair[1])
}

/// The per-node contract of a push [`DisseminationReport`]: the miss list
/// is strictly ascending by id and names exactly the live nodes the run
/// did not reach.
fn check_push_report(
    dense: &DenseOverlay,
    report: &DisseminationReport,
) -> Result<(), TestCaseError> {
    prop_assert!(strictly_ascending(report.unreached.iter().copied()));
    let live = dense.live_node_ids();
    let reached = live
        .iter()
        .filter(|id| report.unreached.binary_search(id).is_err())
        .count();
    prop_assert_eq!(reached, report.reached);
    Ok(())
}

/// Runs the sync, async and push-pull dense engines from `origin` and
/// checks each report's miss list against [`check_push_report`] and
/// the async contract: `notification_times` is strictly ascending, names
/// `reached` live nodes, and gives the origin time `0.0`.
fn check_dense_report_contracts(
    dense: &DenseOverlay,
    selector: &DenseSelector,
    origin: NodeId,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut scratch = DenseScratch::new();
    let push = disseminate_dense(
        dense,
        selector,
        origin,
        &mut ChaCha8Rng::seed_from_u64(seed),
        &mut scratch,
    )
    .report(dense, &scratch);
    check_push_report(dense, &push)?;

    let mut pull_scratch = DensePullScratch::new();
    let pulled = disseminate_push_pull_dense(
        dense,
        selector,
        origin,
        &PullConfig::default(),
        &mut ChaCha8Rng::seed_from_u64(seed),
        &mut pull_scratch,
    )
    .report(dense, &pull_scratch);
    check_push_report(dense, &pulled.push)?;
    prop_assert!(strictly_ascending(
        pulled.unreached_after_pull.iter().copied()
    ));

    let config = AsyncConfig {
        run_membership_gossip: false,
        ..AsyncConfig::default()
    };
    let mut async_scratch = DenseAsyncScratch::new();
    let timed = disseminate_async_dense(
        dense,
        selector,
        origin,
        &config,
        &mut ChaCha8Rng::seed_from_u64(seed),
        &mut async_scratch,
    )
    .report(dense, &config, &async_scratch);
    prop_assert!(strictly_ascending(
        timed.notification_times.iter().map(|&(id, _)| id)
    ));
    prop_assert_eq!(timed.notification_times.len(), timed.reached);
    let live = dense.live_node_ids();
    for &(id, _) in &timed.notification_times {
        prop_assert!(
            live.binary_search(&id).is_ok(),
            "{} notified but is dead",
            id
        );
    }
    let origin_time = timed
        .notification_times
        .binary_search_by_key(&origin, |&(id, _)| id)
        .map(|at| timed.notification_times[at].1);
    prop_assert_eq!(origin_time, Ok(0.0));
    Ok(())
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
        let mut probe = VecProbe::new();
        let report = disseminate(&overlay, &protocol(protocol_idx, fanout), origin, &mut rng, &mut probe);

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
        // The forwarding load of any node, folded from the trace, is
        // bounded by its total out-links.
        let mut sent: BTreeMap<u64, usize> = BTreeMap::new();
        for event in &probe.events {
            if let TraceEvent::Sent { from, .. } = *event {
                *sent.entry(from).or_insert(0) += 1;
            }
        }
        for (&node, &count) in &sent {
            let node = NodeId::new(node);
            let capacity = overlay.r_links(node).len() + overlay.d_links(node).len();
            prop_assert!(count <= capacity, "{} forwarded {} > {} links", node, count, capacity);
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

    /// The hop-synchronous engine is the event-driven engine at unit delay:
    /// with no jitter, a forwarding delay of 1 and the default network
    /// model, the event engine draws nothing but the selections and pops
    /// deliveries in send order, which is hop order. Both engines then send
    /// the same messages in the same order and notify each node at time
    /// equal to its hop. Only the interleaving of the two event kinds
    /// differs: the hop engine emits each `Delivered` right after its
    /// `Sent`, the event engine when the delivery is popped.
    #[test]
    fn hop_engine_is_the_event_engine_at_unit_delay(
        n in 3u64..100,
        fanout in 1usize..5,
        degree in 1usize..8,
        kill in 0usize..4,
        seed in 0u64..100,
        protocol_idx in 0usize..3,
    ) {
        let mut overlay = StaticOverlay::hybrid(n, degree, seed);
        for k in 0..kill.min(n as usize - 1) {
            overlay.kill_node(NodeId::new((seed + 3 * k as u64 + 1) % n));
        }
        let origin = NodeId::new(seed % n);
        prop_assume!(overlay.is_live(origin));

        let selector = protocol(protocol_idx, fanout);
        let dense = DenseOverlay::from(&overlay);
        let config = AsyncConfig {
            jitter: 0.0,
            forwarding_delay: 1.0,
            run_membership_gossip: false,
            ..AsyncConfig::default()
        };
        let (mut hop_rng, mut event_rng) =
            (ChaCha8Rng::seed_from_u64(seed), ChaCha8Rng::seed_from_u64(seed));
        let (mut hop_probe, mut event_probe) = (VecProbe::new(), VecProbe::new());
        let mut scratch = DenseScratch::new();
        let hop = disseminate_dense_probed(
            &dense, &selector, origin, &mut hop_rng, &mut scratch, &mut hop_probe,
        )
        .report(&dense, &scratch);
        let mut async_scratch = DenseAsyncScratch::new();
        let timed = disseminate_async_dense_probed(
            &dense,
            &selector,
            origin,
            &config,
            &mut event_rng,
            &mut async_scratch,
            &mut event_probe,
        )
        .report(&dense, &config, &async_scratch);

        prop_assert_eq!(hop.reached, timed.reached);
        prop_assert_eq!(hop.total_messages(), timed.total_messages());
        prop_assert_eq!(hop.messages_to_notified, timed.messages_redundant);
        prop_assert_eq!(hop.messages_to_dead, timed.messages_to_dead);
        prop_assert_eq!(&hop.per_hop_messages, &timed.per_hop_messages);
        prop_assert_eq!(hop_rng.next_u64(), event_rng.next_u64());

        // Notification time h is hop h.
        let mut per_time_new = vec![0usize; hop.per_hop_new.len()];
        let mut last_time = 0.0f64;
        for &(_, time) in &timed.notification_times {
            let at = time as usize;
            prop_assert!(time.fract() == 0.0 && at < per_time_new.len(), "time {}", time);
            per_time_new[at] += 1;
            last_time = last_time.max(time);
        }
        prop_assert_eq!(&per_time_new, &hop.per_hop_new);
        prop_assert_eq!(last_time, hop.last_hop as f64);
        let unreached: Vec<NodeId> = dense
            .live_node_ids()
            .into_iter()
            .filter(|id| {
                timed
                    .notification_times
                    .binary_search_by_key(id, |&(node, _)| node)
                    .is_err()
            })
            .collect();
        prop_assert_eq!(&unreached, &hop.unreached);

        let only = |events: &[TraceEvent], sent: bool| -> Vec<TraceEvent> {
            events
                .iter()
                .filter(|event| match event {
                    TraceEvent::Sent { .. } => sent,
                    TraceEvent::Delivered { .. } => !sent,
                    _ => false,
                })
                .copied()
                .collect()
        };
        prop_assert_eq!(only(&hop_probe.events, true), only(&event_probe.events, true));
        prop_assert_eq!(only(&hop_probe.events, false), only(&event_probe.events, false));
    }

    /// The report contract of every dense engine on hybrid overlays with
    /// dead nodes: per-node lists strictly ascending by id, the miss list
    /// exactly the live nodes not reached, notified nodes live, the origin
    /// at time 0.
    #[test]
    fn dense_reports_keep_the_per_node_contract(
        n in 3u64..80,
        fanout in 1usize..5,
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
        let dense = DenseOverlay::from(&overlay);
        check_dense_report_contracts(&dense, &protocol(protocol_idx, fanout), origin, seed)?;
    }

    /// The same report contract on churned overlays, whose links hold
    /// stale ids and dead targets.
    #[test]
    fn dense_reports_keep_the_per_node_contract_on_churned_overlays(
        n in 20usize..60,
        churn_cycles in 5usize..25,
        kill in 0usize..5,
        fanout in 1usize..4,
        seed in 0u64..50,
    ) {
        let overlay = churned_overlay(n, churn_cycles, kill, seed);
        let origin = overlay.live_node_ids()[0];
        let dense = DenseOverlay::from(&overlay);
        for selector in [DenseSelector::ringcast(fanout), DenseSelector::randcast(fanout)] {
            check_dense_report_contracts(&dense, &selector, origin, seed)?;
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
    /// combination of delay distribution (fixed-jitter, log-normal), loss
    /// process (none, i.i.d.) and scripted partition (none or one) — on plain hybrid overlays with extra failures
    /// *and* on churned overlays with stale links and dead targets.
    #[test]
    fn dense_async_engine_matches_oracle_under_adversarial_models(
        n in 10u64..70,
        fanout in 1usize..5,
        kill in 0usize..4,
        seed in 0u64..100,
        protocol_idx in 0usize..2,
        delay_idx in 0usize..2,
        loss_idx in 0usize..2,
        parts in 0usize..2,
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
        if config.net.loss == LossModel::None {
            prop_assert_eq!(fast.dropped_loss, 0);
        }
        if config.net.partition.is_none() {
            prop_assert_eq!(fast.dropped_partition, 0);
            prop_assert_eq!(fast.partition_recovery, None);
        }
    }

    /// The seeded async driver stays thread-count invariant under
    /// adversarial models: loss draws come off the per-run RNG streams and
    /// the partition check is a pure function of node ids, never shared
    /// mutable state.
    #[test]
    fn parallel_async_driver_is_thread_invariant_under_adversarial_models(
        n in 20u64..60,
        fanout in 1usize..4,
        master_seed in 0u64..500,
        threads in 2usize..6,
        runs in 1usize..8,
        delay_idx in 0usize..2,
        loss_idx in 0usize..2,
        parts in 0usize..2,
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

    /// Differential for the pull engines under node failure: the dense
    /// engine and the BTree oracle stay bit-identical at every pull fanout,
    /// on hybrid overlays with extra kills and on churned overlays. The
    /// pull phase runs without a network model; failures are the adversary.
    #[test]
    fn dense_pull_engine_matches_generic_under_adversarial_models(
        n in 10u64..60,
        fanout in 1usize..4,
        pull_fanout in 1usize..4,
        kill in 0usize..4,
        seed in 0u64..100,
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
        prop_assert_eq!(&slow, &fast, "pull engines diverged");
        prop_assert!(fast.pull_transfers <= fast.pull_requests);
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
                partition: None,
            },
            ..implicit.clone()
        };
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

proptest! {
    /// The two ways to freeze a live network agree: the overlay built by
    /// walking the network in place (`from_dense_sim`) equals the one built
    /// from its CSR export (`from_flat_links`) — in shared and per-node
    /// mode, on one or two rings, with Vicinity on or off, after churn and
    /// after kills that leave dead link targets behind.
    #[test]
    fn from_dense_sim_equals_from_flat_links_of_the_export(
        nodes in 2usize..40,
        rings in 1usize..3,
        run_vicinity in any::<bool>(),
        per_node in any::<bool>(),
        cycles in 0usize..25,
        churn_rate in 0.0f64..0.2,
        kill in 0usize..4,
        seed in any::<u64>(),
    ) {
        let config = SimConfig {
            nodes,
            rings,
            run_vicinity,
            warmup_cycles: 0,
            ..SimConfig::default()
        };
        let mut net = if per_node {
            DenseSimNetwork::new_per_node(config, seed, 2, 2)
        } else {
            DenseSimNetwork::new(config, seed)
        };
        let mut driver = ChurnDriver::new(ChurnConfig { rate: churn_rate });
        driver.run_cycles(&mut net, cycles);
        // Killed without a cycle after: every link to them is dead.
        for victim in net.live_ids().into_iter().take(kill.min(nodes - 1)) {
            net.kill_node(victim);
        }
        let direct = DenseOverlay::from_dense_sim(&net);
        let exported = DenseOverlay::from_flat_links(&net.flat_links());
        prop_assert_eq!(direct.live_len(), net.len());
        prop_assert_eq!(direct, exported);
    }
}
