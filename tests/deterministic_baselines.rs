//! Integration tests for the deterministic dissemination baselines of
//! Section 3 — flooding over trees, stars, cliques, rings and Harary graphs,
//! and how their trade-offs compare to the hybrid protocol, on the dense
//! engine the figures use — plus seeded golden fixtures pinning the
//! async/pull engines' exact reports: the legacy (default network model)
//! values captured from the engines before the `NetModel` extension existed,
//! and three canonical adversarial scenarios. Any RNG-stream drift or
//! report-schema drift fails loudly here.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use hybridcast::core::async_engine::{disseminate_async_dense, AsyncConfig, DenseAsyncScratch};
use hybridcast::core::engine::{disseminate_dense, DenseScratch};
use hybridcast::core::netmodel::{DelayModel, LossModel, NetModel, PartitionEvent};
use hybridcast::core::overlay::{DenseOverlay, Overlay, SnapshotOverlay};
use hybridcast::core::protocols::DenseSelector;
use hybridcast::core::pull::{disseminate_push_pull_dense, DensePullScratch, PullConfig};
use hybridcast::core::DisseminationReport;
use hybridcast::graph::{builders, harary, DiGraph, NodeId};
use hybridcast::obs::NullProbe;
use hybridcast::sim::{GossipRuntime, SimConfig};
use hybridcast_oracle::{disseminate_async, disseminate_push_pull, Network};

fn ids(count: u64) -> Vec<NodeId> {
    (0..count).map(NodeId::new).collect()
}

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// An overlay of `d_links` alone, as the flooding baselines use.
fn deterministic(d_links: &DiGraph) -> DenseOverlay {
    DenseOverlay::from_graphs(d_links, &DiGraph::new())
}

/// One run of the dense engine the figures use, as the id-keyed report.
fn run(
    overlay: &DenseOverlay,
    selector: &DenseSelector,
    origin: NodeId,
    seed: u64,
) -> DisseminationReport {
    let mut scratch = DenseScratch::new();
    disseminate_dense(overlay, selector, origin, &mut rng(seed), &mut scratch)
        .report(overlay, &scratch)
}

/// Deterministic flooding over the d-links from `origin`.
fn flood(overlay: &DenseOverlay, origin: NodeId, seed: u64) -> DisseminationReport {
    run(overlay, &DenseSelector::DeterministicFlooding, origin, seed)
}

#[test]
fn tree_flooding_is_optimal_but_fragile() {
    let nodes = ids(127);
    let tree = builders::balanced_tree(&nodes, 2);
    let overlay = deterministic(&tree);
    let report = flood(&overlay, nodes[0], 1);
    assert!(report.is_complete());
    // Optimal overhead: exactly N - 1 virgin messages and no redundancy
    // beyond the echo back up the tree (suppressed by the sender rule).
    assert_eq!(report.messages_to_virgin, 126);
    assert_eq!(report.messages_to_notified, 0);

    // A single internal-node failure cuts off a whole branch.
    let mut broken = deterministic(&tree);
    broken.kill_node(nodes[1]);
    let report = flood(&broken, nodes[0], 2);
    assert!(
        !report.is_complete(),
        "losing an internal tree node must disconnect its subtree"
    );
    assert!(report.unreached.len() >= 62, "the whole branch is lost");
}

#[test]
fn star_flooding_concentrates_all_load_on_the_hub() {
    let nodes = ids(100);
    let hub = nodes[0];
    let star = builders::star(hub, &nodes[1..]);
    let overlay = deterministic(&star);
    let report = flood(&overlay, nodes[5], 3);
    assert!(report.is_complete());
    assert_eq!(report.last_hop, 2);
    // The hub forwards to everyone: worst possible load distribution.
    assert_eq!(report.forwarded_counts[&hub], 98);
    let leaves_forwarding: usize = report
        .forwarded_counts
        .iter()
        .filter(|(&id, _)| id != hub)
        .map(|(_, &count)| count)
        .sum();
    assert!(leaves_forwarding <= 99, "leaves only talk to the hub");

    // Killing the hub kills the dissemination entirely.
    let mut broken = deterministic(&star);
    broken.kill_node(hub);
    let report = flood(&broken, nodes[5], 4);
    assert_eq!(
        report.reached, 1,
        "only the origin is notified without the hub"
    );
}

#[test]
fn clique_flooding_is_maximally_reliable_and_maximally_wasteful() {
    let nodes = ids(40);
    let clique = builders::clique(&nodes);
    let mut overlay = deterministic(&clique);
    // Kill 30% of the nodes: the clique still reaches every survivor.
    for i in 0..12 {
        overlay.kill_node(nodes[3 * i + 1]);
    }
    let report = flood(&overlay, nodes[0], 5);
    assert!(report.is_complete());
    // But the overhead is quadratic in the population.
    assert!(report.total_messages() > 27 * 26 / 2);
}

#[test]
fn harary_graphs_trade_links_for_failure_tolerance() {
    let nodes = ids(60);
    for t in [2usize, 3, 4] {
        let h = harary::harary_graph(&nodes, t);
        let mut overlay = deterministic(&h);
        // Kill exactly t - 1 nodes (not the origin).
        for k in 0..t - 1 {
            overlay.kill_node(nodes[10 + k]);
        }
        let report = flood(&overlay, nodes[0], 6);
        assert!(
            report.is_complete(),
            "H(60, {t}) must survive {} failures",
            t - 1
        );
        // Message overhead grows linearly with t (each node has ~t links).
        assert!(report.total_messages() <= t * 60);
    }
}

#[test]
fn bidirectional_ring_is_the_minimal_two_connected_overlay() {
    let nodes = ids(80);
    let ring = builders::bidirectional_ring(&nodes);
    assert_eq!(ring.edge_count() / 2, harary::harary_link_count(80, 2));

    // Any single failure is tolerated...
    let mut one_dead = deterministic(&ring);
    one_dead.kill_node(nodes[17]);
    let report = flood(&one_dead, nodes[0], 7);
    assert!(report.is_complete());

    // ...but two non-adjacent failures partition the ring, and only the
    // hybrid protocol (random links) bridges the gap.
    let mut two_dead = deterministic(&ring);
    two_dead.kill_node(nodes[17]);
    two_dead.kill_node(nodes[53]);
    let report = flood(&two_dead, nodes[0], 8);
    assert!(
        !report.is_complete(),
        "a partitioned ring cannot flood across the cut"
    );

    let mut hybrid =
        DenseOverlay::from_graphs(&ring, &builders::random_out_degree(&nodes, 10, &mut rng(9)));
    hybrid.kill_node(nodes[17]);
    hybrid.kill_node(nodes[53]);
    let report = run(&hybrid, &DenseSelector::ringcast(3), nodes[0], 10);
    assert!(
        report.is_complete(),
        "random links must bridge the ring partitions (Figure 4)"
    );
}

// --- Seeded golden fixtures -------------------------------------------------
//
// The canonical overlay every fixture below runs over: a 300-node network
// seeded with 42, warmed for 120 cycles. The origin is the smallest live
// node id. Exact report values (including `f64` bit patterns) are pinned;
// the legacy values were captured from the engines *before* the `NetModel`
// extension was merged, so these tests are the executable form of the
// zero-loss bit-identity contract.

fn canonical_network() -> Network {
    let mut network = Network::new(
        SimConfig {
            nodes: 300,
            ..SimConfig::default()
        },
        42,
    );
    network.run_cycles(120);
    network
}

fn canonical_overlay() -> SnapshotOverlay {
    SnapshotOverlay::new(canonical_network().overlay_snapshot())
}

fn frozen_config() -> AsyncConfig {
    AsyncConfig {
        run_membership_gossip: false,
        ..AsyncConfig::default()
    }
}

fn notification_time_sum_bits(report: &hybridcast::core::AsyncReport) -> u64 {
    report.notification_times.values().sum::<f64>().to_bits()
}

#[test]
fn legacy_frozen_async_baseline_is_bit_stable_under_the_default_model() {
    let overlay = canonical_overlay();
    let dense = DenseOverlay::from(&overlay);
    let origin = overlay.live_node_ids()[0];
    let config = frozen_config();

    let frozen = disseminate_async(
        &overlay,
        &DenseSelector::ringcast(3),
        origin,
        &config,
        &mut rng(4242),
        &mut NullProbe,
    );
    let mut scratch = DenseAsyncScratch::new();
    let fast = disseminate_async_dense(
        &dense,
        &DenseSelector::ringcast(3),
        origin,
        &config,
        &mut rng(4242),
        &mut scratch,
    )
    .report(&dense, &config, &scratch);
    assert_eq!(frozen, fast, "oracle and dense engine must stay identical");

    // Captured from the pre-NetModel engines: same draws, same report.
    assert_eq!(frozen.population, 300);
    assert_eq!(frozen.reached, 300);
    assert_eq!(frozen.messages_sent, 900);
    assert_eq!(frozen.messages_redundant, 601);
    assert_eq!(frozen.messages_to_dead, 0);
    assert_eq!(
        frozen.per_hop_messages,
        vec![0, 3, 9, 27, 81, 201, 318, 213, 42, 6]
    );
    assert_eq!(
        frozen.completion_time.map(f64::to_bits),
        Some(4620670166841637417)
    );
    assert_eq!(notification_time_sum_bits(&frozen), 4654122353820058973);
    // The model-extension fields are inert under the default model.
    assert_eq!(frozen.dropped_loss, 0);
    assert_eq!(frozen.dropped_partition, 0);
    assert!(frozen.partition_recovery.is_empty());
    assert!(!frozen.truncated);
}

#[test]
fn legacy_live_async_baseline_is_bit_stable_under_the_default_model() {
    let mut network = canonical_network();
    let origin = SnapshotOverlay::new(network.overlay_snapshot()).live_node_ids()[0];
    let live = disseminate_async(
        &mut network,
        &DenseSelector::ringcast(3),
        origin,
        &AsyncConfig::default(),
        &mut rng(4242),
        &mut NullProbe,
    );
    // Captured from the pre-NetModel live engine (membership gossip on).
    assert_eq!(live.population, 300);
    assert_eq!(live.reached, 300);
    assert_eq!(live.messages_sent, 900);
    assert_eq!(live.messages_redundant, 601);
    assert_eq!(live.messages_to_dead, 0);
    assert_eq!(
        live.per_hop_messages,
        vec![0, 3, 9, 27, 81, 186, 327, 246, 21]
    );
    assert_eq!(
        live.completion_time.map(f64::to_bits),
        Some(4619561985746230257)
    );
    assert_eq!(notification_time_sum_bits(&live), 4653954662971286881);
    assert!(!live.truncated);
}

#[test]
fn legacy_push_pull_baseline_is_bit_stable_under_the_default_model() {
    let overlay = canonical_overlay();
    let dense = DenseOverlay::from(&overlay);
    let origin = overlay.live_node_ids()[0];
    let config = PullConfig {
        fanout: 1,
        max_rounds: 30,
        ..PullConfig::default()
    };
    let slow = disseminate_push_pull(
        &overlay,
        &DenseSelector::randcast(2),
        origin,
        &config,
        &mut rng(777),
        &mut NullProbe,
    );
    let mut scratch = DensePullScratch::new();
    let fast = disseminate_push_pull_dense(
        &dense,
        &DenseSelector::randcast(2),
        origin,
        &config,
        &mut rng(777),
        &mut scratch,
    )
    .report(&dense, &scratch);
    assert_eq!(
        slow, fast,
        "oracle and dense pull engine must stay identical"
    );

    // Captured from the pre-NetModel pull engines.
    assert_eq!(slow.push.reached, 246);
    assert_eq!(slow.push.total_messages(), 492);
    assert_eq!(slow.pull_rounds, 2);
    assert_eq!(slow.pull_requests, 62);
    assert_eq!(slow.pull_transfers, 54);
    assert_eq!(slow.reached_after_pull, 300);
    assert_eq!(slow.per_round_new, vec![46, 8]);
    assert!(slow.unreached_after_pull.is_empty());
    assert_eq!(slow.polls_lost, 0);
    assert_eq!(slow.polls_blocked, 0);
}

/// Runs one adversarial scenario through the frozen oracle and the dense
/// engine, asserts they agree bit for bit, and returns the report.
fn run_adversarial(net: NetModel) -> hybridcast::core::AsyncReport {
    let overlay = canonical_overlay();
    let dense = DenseOverlay::from(&overlay);
    let origin = overlay.live_node_ids()[0];
    let config = AsyncConfig {
        run_membership_gossip: false,
        net,
        ..AsyncConfig::default()
    };
    let slow = disseminate_async(
        &overlay,
        &DenseSelector::ringcast(3),
        origin,
        &config,
        &mut rng(4242),
        &mut NullProbe,
    );
    let mut scratch = DenseAsyncScratch::new();
    let fast = disseminate_async_dense(
        &dense,
        &DenseSelector::ringcast(3),
        origin,
        &config,
        &mut rng(4242),
        &mut scratch,
    )
    .report(&dense, &config, &scratch);
    assert_eq!(slow, fast, "oracle and dense engine diverge");
    slow
}

#[test]
fn golden_fixture_five_percent_iid_loss() {
    let report = run_adversarial(NetModel {
        loss: LossModel::Iid { rate: 0.05 },
        ..NetModel::default()
    });
    assert_eq!(report.reached, 299, "5% loss strands one node here");
    assert_eq!(report.messages_sent, 897);
    assert_eq!(report.messages_redundant, 567);
    assert_eq!(report.dropped_loss, 32);
    assert_eq!(report.dropped_partition, 0);
    assert_eq!(report.completion_time, None);
    assert_eq!(notification_time_sum_bits(&report), 4654234368005513112);
    assert_eq!(
        report.per_hop_messages,
        vec![0, 3, 9, 27, 75, 180, 288, 228, 75, 9, 3]
    );
    assert!(!report.truncated);
}

#[test]
fn golden_fixture_bimodal_wan_delays() {
    let report = run_adversarial(NetModel {
        delay: DelayModel::Bimodal {
            local_delay: 0.5,
            wan_delay: 5.0,
            wan_fraction: 0.2,
        },
        ..NetModel::default()
    });
    assert_eq!(report.reached, 300, "delays reshape timing, not coverage");
    assert_eq!(report.messages_sent, 900);
    assert_eq!(report.messages_redundant, 601);
    assert_eq!(report.dropped_loss, 0);
    assert_eq!(
        report.completion_time.map(f64::to_bits),
        Some(4621613975828709092)
    );
    assert_eq!(notification_time_sum_bits(&report), 4651033391718092686);
    assert_eq!(
        report.per_hop_messages,
        vec![0, 3, 9, 24, 42, 96, 186, 246, 183, 87, 21, 3]
    );
    assert!(!report.truncated);
}

// --- Pre-calendar-queue scheduler fixtures ----------------------------------
//
// The three fixtures below were captured on the BinaryHeap event scheduler
// immediately before it was replaced by the calendar queue (`core::sched`).
// They pin the scheduler swap's bit-identity contract from the engine side:
// a default-model run with a heavy tail (the overflow tier), a lossy bursty
// run, a max_time-truncated run, and a live-membership partition-healing
// run must all reproduce the heap scheduler's reports bit for bit, for both
// the BTree oracle and the dense engine.

#[test]
fn golden_fixture_heavy_tail_delays_with_bursty_loss() {
    // Log-normal delays (σ = 1.25 ⇒ a tail several bucket-windows long,
    // exercising the calendar queue's overflow tier) under Gilbert–Elliott
    // bursty loss. Captured on the heap scheduler.
    let report = run_adversarial(NetModel {
        delay: DelayModel::LogNormal {
            mu: 0.0,
            sigma: 1.25,
        },
        loss: LossModel::GilbertElliott {
            loss_good: 0.01,
            loss_bad: 0.4,
            p_enter_bad: 0.05,
            p_exit_bad: 0.3,
        },
        ..NetModel::default()
    });
    assert_eq!(report.reached, 300);
    assert_eq!(report.messages_sent, 900);
    assert_eq!(report.messages_redundant, 566);
    assert_eq!(report.messages_to_dead, 0);
    assert_eq!(report.dropped_loss, 35);
    assert_eq!(report.dropped_partition, 0);
    assert_eq!(
        report.per_hop_messages,
        vec![0, 3, 6, 15, 24, 57, 87, 99, 129, 129, 135, 108, 66, 24, 6, 9, 3]
    );
    assert_eq!(
        report.completion_time.map(f64::to_bits),
        Some(4626014284480981431)
    );
    assert_eq!(notification_time_sum_bits(&report), 4653413000455467771);
    assert_eq!(report.truncated_sends, 0);
    assert!(!report.truncated);
}

#[test]
fn golden_fixture_max_time_truncation_on_the_default_model() {
    // A max_time cutting the canonical run off mid-flight: the truncation
    // path through the scheduler (pending events abandoned unpopped) must
    // also reproduce the heap scheduler bit for bit.
    let overlay = canonical_overlay();
    let dense = DenseOverlay::from(&overlay);
    let origin = overlay.live_node_ids()[0];
    let config = AsyncConfig {
        run_membership_gossip: false,
        max_time: 6.0,
        ..AsyncConfig::default()
    };
    let slow = disseminate_async(
        &overlay,
        &DenseSelector::ringcast(3),
        origin,
        &config,
        &mut rng(4242),
        &mut NullProbe,
    );
    let mut scratch = DenseAsyncScratch::new();
    let fast = disseminate_async_dense(
        &dense,
        &DenseSelector::ringcast(3),
        origin,
        &config,
        &mut rng(4242),
        &mut scratch,
    )
    .report(&dense, &config, &scratch);
    assert_eq!(slow, fast, "truncated reports must stay bit-identical");
    assert_eq!(slow.reached, 244);
    assert_eq!(slow.messages_sent, 732);
    assert_eq!(slow.messages_redundant, 182);
    assert_eq!(slow.messages_to_dead, 0);
    assert_eq!(slow.per_hop_messages, vec![0, 3, 9, 27, 81, 201, 318, 93]);
    assert_eq!(slow.completion_time, None);
    assert_eq!(notification_time_sum_bits(&slow), 4652544851397353580);
    assert!(slow.truncated, "max_time = 6 must cut the run short");
    assert_eq!(
        slow.truncated_sends, 0,
        "time truncation is not budget truncation"
    );
}

#[test]
fn golden_fixture_live_membership_partition_healing() {
    // The live engine (membership gossip running, its ticks interleaved
    // with deliveries in the same queue) through a healing bisection.
    // Captured on the heap scheduler.
    let mut network = canonical_network();
    let origin = SnapshotOverlay::new(network.overlay_snapshot()).live_node_ids()[0];
    let config = AsyncConfig {
        net: NetModel {
            partitions: vec![PartitionEvent::bisection(2.0, 4.0, 0xA5A5)],
            ..NetModel::default()
        },
        ..AsyncConfig::default()
    };
    let live = disseminate_async(
        &mut network,
        &DenseSelector::ringcast(3),
        origin,
        &config,
        &mut rng(4242),
        &mut NullProbe,
    );
    assert_eq!(live.reached, 297);
    assert_eq!(live.messages_sent, 891);
    assert_eq!(live.messages_redundant, 422);
    assert_eq!(live.messages_to_dead, 0);
    assert_eq!(live.dropped_loss, 0);
    assert_eq!(live.dropped_partition, 173);
    assert_eq!(
        live.per_hop_messages,
        vec![0, 3, 9, 27, 75, 93, 120, 111, 129, 144, 105, 39, 21, 12, 3]
    );
    assert_eq!(live.completion_time, None);
    assert_eq!(notification_time_sum_bits(&live), 4656090588082488697);
    assert_eq!(
        live.partition_recovery
            .iter()
            .map(|r| r.map(f64::to_bits))
            .collect::<Vec<_>>(),
        vec![Some(4619156254238873558)]
    );
    assert_eq!(live.truncated_sends, 0);
    assert!(!live.truncated);
}

#[test]
fn golden_fixture_mid_run_bisection_that_heals() {
    let report = run_adversarial(NetModel {
        partitions: vec![PartitionEvent::bisection(2.0, 4.0, 0xA5A5)],
        ..NetModel::default()
    });
    assert_eq!(report.reached, 300, "the heal lets the frontier cross");
    assert_eq!(report.messages_sent, 900);
    assert_eq!(report.messages_redundant, 498);
    assert_eq!(report.dropped_loss, 0);
    assert_eq!(report.dropped_partition, 103);
    assert_eq!(
        report.completion_time.map(f64::to_bits),
        Some(4623477831763448502)
    );
    assert_eq!(notification_time_sum_bits(&report), 4657119364350903302);
    assert_eq!(
        report.partition_recovery.len(),
        1,
        "one scripted event, one recovery slot"
    );
    assert_eq!(
        report.partition_recovery[0].map(f64::to_bits),
        Some(4619507046403712364),
        "re-convergence time ≈ 6.95 after the heal at t = 6"
    );
    assert_eq!(
        report.per_hop_messages,
        vec![0, 3, 9, 27, 36, 48, 54, 66, 117, 192, 198, 120, 21, 6, 3]
    );
    assert!(!report.truncated);
}
