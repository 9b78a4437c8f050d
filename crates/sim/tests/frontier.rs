//! Integration tests of the `--rng per-node` sparse-frontier runtime.
//!
//! Per-node mode legitimately diverges from the shared-stream oracle draw
//! by draw (simultaneous phased rounds replace sequential stepping), so it
//! is pinned three other ways:
//!
//! * **structurally** — under a scripted churn history it must track the
//!   shared-stream runtime's live-node set exactly and converge to the
//!   same per-node view sizes (the differential proptest below),
//! * **statistically** — in-degree dispersion and ring convergence speed
//!   must match the shared-stream runtime within tolerance,
//! * **exactly against itself** — seeded golden digests pin the new mode's
//!   reports bit for bit, at every thread count, and the bucket-ring
//!   frontier scheduler must agree with its brute-force full-sweep twin.

use proptest::prelude::*;

use hybridcast_graph::NodeId;
use hybridcast_obs::VecProbe;
use hybridcast_oracle::Network;
use hybridcast_sim::{DenseSimNetwork, GossipRuntime, RngMode, SimConfig};

fn config(nodes: usize) -> SimConfig {
    SimConfig {
        nodes,
        warmup_cycles: 0,
        ..SimConfig::default()
    }
}

/// FNV-1a over the full flat link export: any drift in ids, link order or
/// link content changes the digest.
fn links_digest(net: &DenseSimNetwork) -> u64 {
    let flat = net.flat_links();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &id in &flat.ids {
        mix(id.as_u64());
    }
    for &o in &flat.r_offsets {
        mix(u64::from(o));
    }
    for &t in &flat.r_targets {
        mix(t.as_u64());
    }
    for &o in &flat.d_offsets {
        mix(u64::from(o));
    }
    for &t in &flat.d_targets {
        mix(t.as_u64());
    }
    h
}

/// A deterministic churn script shared by both runtimes: kill the `kills`
/// lowest-id live nodes, then spawn `spawns` nodes through the *median*
/// surviving id. Selection is by id, never by RNG, so both modes see the
/// same history by construction. The median matters twice over: kills take
/// the lowest ids, so the introducer is never killed out from under a
/// fresh spawn (a spawn whose sole contact dies before its first shuffle
/// is isolated forever — a stochastic fate the two modes would not share),
/// and the median is a well-integrated veteran, so a newcomer's first
/// shuffle plants its descriptor in the connected core (bootstrapping
/// spawns through the newest node chains fresh spawns into a 2-clique
/// that simultaneous-round gossip can leave permanently severed, another
/// symmetry the sequential oracle happens to break).
fn scripted_churn_step<R: GossipRuntime>(net: &mut R, kills: usize, spawns: usize) {
    let live = net.live_ids();
    for &victim in live.iter().take(kills.min(live.len().saturating_sub(1))) {
        assert!(net.kill_node(victim));
    }
    let live = net.live_ids();
    let introducer = live.get(live.len() / 2).copied();
    for _ in 0..spawns {
        net.spawn_node(introducer);
    }
}

// ---- golden fixtures -----------------------------------------------------

/// Seeded golden digests of the per-node runtime: 40 warm cycles, a
/// scripted churn burst, 20 recovery cycles. Any change to the stream
/// derivation, the frontier schedule or the phased kernel shifts these
/// values — bump them **only** with a matching note in docs/DETERMINISM.md.
#[test]
fn per_node_golden_digests_are_stable() {
    let mut expected = Vec::new();
    for (seed, period, pinned) in [
        (42u64, 1u64, (0x74a4_c2c1_0cd7_6b34_u64, 120usize)),
        (42u64, 4u64, (0xbcce_0eb3_0deb_112a_u64, 120usize)),
        (7u64, 2u64, (0x066c_68fe_991a_9a69_u64, 120usize)),
    ] {
        let mut net = DenseSimNetwork::new_per_node(config(120), seed, period, 4);
        net.run_cycles(40);
        scripted_churn_step(&mut net, 12, 12);
        net.run_cycles(20);
        expected.push(((seed, period), (links_digest(&net), net.len()), pinned));
    }
    for ((seed, period), actual, pinned) in expected {
        assert_eq!(
            actual, pinned,
            "per-node golden digest drifted for seed {seed}, period {period} \
             (actual {:#018x}, pinned {:#018x})",
            actual.0, pinned.0,
        );
    }
}

// ---- thread invariance ---------------------------------------------------

/// The full overlay snapshot — not just a digest — is bit-identical at
/// every thread count, across warm-up, scripted churn and recovery.
#[test]
fn snapshots_are_bit_identical_across_thread_counts() {
    let run = |threads: usize| {
        let mut net = DenseSimNetwork::new_per_node(config(90), 17, 3, threads);
        net.run_cycles(25);
        scripted_churn_step(&mut net, 9, 9);
        net.run_cycles(25);
        (net.overlay_snapshot(), links_digest(&net))
    };
    let reference = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(reference, run(threads), "{threads} threads diverged");
    }
}

/// The corners the default-config tests above never reach: several rings
/// (the per-ring phase loop and its `ROLE_VICINITY_BASE + ring` streams),
/// no Vicinity at all, shuffle length 1 (requests that carry only the
/// initiator's fresh descriptor) and fewer slots than workers. Each grows
/// for 20 cycles at period 2, loses two nodes and gains two through a
/// surviving id (slot reuse), and runs 20 more cycles: the flat links and
/// the probe stream are the same at every worker count, and the
/// single-thread digest is pinned.
#[test]
fn corner_configs_are_thread_invariant_and_pinned() {
    let cases = [
        (
            "three rings",
            SimConfig {
                rings: 3,
                ..config(30)
            },
            0x1332_0483_c868_a7a5_u64,
        ),
        (
            "no vicinity",
            SimConfig {
                run_vicinity: false,
                rings: 0,
                ..config(30)
            },
            0xf479_9668_06de_2fcf,
        ),
        (
            "shuffle length 1",
            SimConfig {
                cyclon_shuffle: 1,
                ..config(30)
            },
            0xc275_7b43_d25b_3e73,
        ),
        ("five nodes", config(5), 0x7f3c_3757_21b6_f475),
    ];
    for (name, cfg, pinned) in cases {
        let run = |threads: usize| {
            let mut net = DenseSimNetwork::new_per_node(cfg.clone(), 29, 2, threads);
            let mut probe = VecProbe::new();
            net.run_cycles_probed(20, &mut probe);
            scripted_churn_step(&mut net, 2, 2);
            net.run_cycles_probed(20, &mut probe);
            (net.flat_links(), probe.events, links_digest(&net))
        };
        let reference = run(1);
        assert_eq!(
            reference.2, pinned,
            "{name}: digest drifted (actual {:#018x})",
            reference.2
        );
        for threads in [2, 3, 8, 64] {
            assert_eq!(
                reference,
                run(threads),
                "{name}: {threads} threads diverged"
            );
        }
    }
}

// ---- frontier self-check -------------------------------------------------

/// The bucket-ring frontier scheduler and its brute-force full-sweep twin
/// must step exactly the same nodes every cycle, including across churn
/// (slot reuse re-arms timers through fresh stream generations).
#[test]
fn frontier_and_full_sweep_agree_under_churn() {
    let mut bucketed = DenseSimNetwork::new_per_node(config(80), 23, 4, 2);
    let mut swept = DenseSimNetwork::new_per_node(config(80), 23, 4, 2);
    swept.set_frontier_full_sweep(true);
    for step in 0..6 {
        bucketed.run_cycles(5);
        swept.run_cycles(5);
        scripted_churn_step(&mut bucketed, 6, 6);
        scripted_churn_step(&mut swept, 6, 6);
        for _ in 0..4 {
            bucketed.run_cycles(1);
            swept.run_cycles(1);
            assert_eq!(
                bucketed.last_frontier_len(),
                swept.last_frontier_len(),
                "frontier size diverged at churn step {step}"
            );
        }
        assert_eq!(
            bucketed.overlay_snapshot(),
            swept.overlay_snapshot(),
            "overlay diverged at churn step {step}"
        );
    }
}

// ---- statistical equivalence ---------------------------------------------

/// In-degree dispersion of the Cyclon overlay: per-node mode must produce
/// the same balanced in-degree distribution the shared-stream runtime
/// converges to (equal means by construction; standard deviation and
/// maximum within tolerance).
#[test]
fn in_degree_distribution_matches_shared_mode() {
    fn in_degree_stats(snapshot: &hybridcast_sim::OverlaySnapshot) -> (f64, f64, usize) {
        let mut counts: std::collections::BTreeMap<NodeId, usize> =
            snapshot.live_nodes().map(|id| (id, 0)).collect();
        for id in snapshot.live_nodes() {
            for target in snapshot.r_links(id) {
                if let Some(c) = counts.get_mut(&target) {
                    *c += 1;
                }
            }
        }
        let n = counts.len() as f64;
        let mean = counts.values().sum::<usize>() as f64 / n;
        let var = counts
            .values()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        let max = counts.values().copied().max().unwrap_or(0);
        (mean, var.sqrt(), max)
    }

    let mut shared = DenseSimNetwork::new(config(400), 31);
    shared.run_cycles(60);
    let mut per_node = DenseSimNetwork::new_per_node(config(400), 31, 1, 4);
    per_node.run_cycles(60);

    let (mean_sh, std_sh, max_sh) = in_degree_stats(&shared.overlay_snapshot());
    let (mean_pn, std_pn, max_pn) = in_degree_stats(&per_node.overlay_snapshot());

    // Full views on both sides: mean in-degree == mean out-degree == view
    // capacity, exactly.
    assert_eq!(mean_sh, mean_pn, "mean in-degree must match exactly");
    // Dispersion within 2x of each other (Cyclon keeps in-degree tightly
    // concentrated; a broken merge rule would blow this up by an order of
    // magnitude).
    assert!(
        std_pn <= 2.0 * std_sh + 1.0 && std_sh <= 2.0 * std_pn + 1.0,
        "in-degree spread diverged: shared std {std_sh:.2}, per-node std {std_pn:.2}"
    );
    assert!(
        f64::from(u32::try_from(max_pn).unwrap())
            <= 2.0 * f64::from(u32::try_from(max_sh).unwrap())
            && max_pn as f64 >= 0.5 * max_sh as f64,
        "max in-degree diverged: shared {max_sh}, per-node {max_pn}"
    );
}

/// Ring convergence speed: the number of cycles Vicinity needs to place
/// ≥95% of nodes next to both true ring neighbours must be in the same
/// ballpark in both modes.
#[test]
fn ring_convergence_speed_matches_shared_mode() {
    fn converged_fraction(net: &DenseSimNetwork) -> f64 {
        let snapshot = net.overlay_snapshot();
        let mut by_position: Vec<(u64, NodeId)> = snapshot
            .nodes()
            .map(|(id, node)| (node.ring_position, id))
            .collect();
        by_position.sort_unstable();
        let n = by_position.len();
        let mut correct = 0usize;
        for (i, &(_, id)) in by_position.iter().enumerate() {
            let succ = by_position[(i + 1) % n].1;
            let pred = by_position[(i + n - 1) % n].1;
            let d = snapshot.d_links(id);
            if d.contains(&succ) && d.contains(&pred) {
                correct += 1;
            }
        }
        correct as f64 / n as f64
    }
    fn cycles_to_converge(mut net: DenseSimNetwork) -> usize {
        for cycle in 1..=200 {
            net.run_cycles(1);
            if converged_fraction(&net) >= 0.95 {
                return cycle;
            }
        }
        panic!("the ring never converged within 200 cycles");
    }

    let shared = cycles_to_converge(DenseSimNetwork::new(config(120), 19));
    let per_node = cycles_to_converge(DenseSimNetwork::new_per_node(config(120), 19, 1, 2));
    assert!(
        per_node <= 3 * shared + 10 && shared <= 3 * per_node + 10,
        "ring convergence speed diverged: shared {shared} cycles, per-node {per_node} cycles"
    );
}

// ---- structural differential ---------------------------------------------

proptest! {
    /// Under any scripted churn history, the per-node frontier runtime
    /// tracks the shared-stream runtime's live-node set exactly (same ids,
    /// same join cycles) and — after a churn-free convergence tail — the
    /// same per-node Cyclon view sizes. The RNG modes draw differently;
    /// the *structure* they maintain must not.
    ///
    /// The view cap stays below the population (Cyclon view sizes only
    /// stabilize at the cap in that regime — with the cap at or above the
    /// population, sizes fluctuate a few entries below full forever, in
    /// *both* modes) and the churn script replaces exactly as many nodes
    /// as it kills, so the population never shrinks into the other regime.
    #[test]
    fn per_node_runtime_tracks_shared_structure_under_scripted_churn(
        nodes in 16usize..40,
        cyclon_view in 5usize..9,
        // Shuffle length >= 2: at length 1 a request carries only the
        // initiator's own descriptor, healing crawls, and the tail below
        // would need hundreds of cycles in either mode.
        cyclon_shuffle in 2usize..5,
        period in 1u64..4,
        threads in 1usize..5,
        warm in 3usize..12,
        steps in 0usize..5,
        churned in 0usize..4,
        seed in any::<u64>(),
    ) {
        let cfg = SimConfig {
            nodes,
            cyclon_view,
            cyclon_shuffle,
            warmup_cycles: 0,
            ..SimConfig::default()
        };
        let mut shared = DenseSimNetwork::new(cfg.clone(), seed);
        let mut per_node = DenseSimNetwork::new_per_node(cfg, seed, period, threads);

        shared.run_cycles(warm);
        per_node.run_cycles(warm);
        prop_assert_eq!(shared.live_ids(), per_node.live_ids());

        for _ in 0..steps {
            scripted_churn_step(&mut shared, churned, churned);
            scripted_churn_step(&mut per_node, churned, churned);
            shared.run_cycles(1);
            per_node.run_cycles(1);
            prop_assert_eq!(shared.live_ids(), per_node.live_ids());
            for id in shared.live_ids() {
                prop_assert_eq!(shared.joined_at(id), per_node.joined_at(id));
            }
        }

        // Churn-free tail: both modes heal to (essentially) full views.
        // Exact per-node size equality at one instant is stochastic in
        // *both* modes — a node whose last reply was all duplicates sits
        // one entry below the cap for a cycle — so the invariant is each
        // node within a whisker of the cap, and the two modes' mean view
        // sizes in lock-step.
        let tail = 40 + usize::try_from(period).unwrap() * 10;
        shared.run_cycles(tail);
        per_node.run_cycles(tail);
        let shared_snap = shared.overlay_snapshot();
        let per_node_snap = per_node.overlay_snapshot();
        let mut sum_shared = 0usize;
        let mut sum_per_node = 0usize;
        for id in shared.live_ids() {
            let len_shared = shared_snap.r_links(id).len();
            let len_per_node = per_node_snap.r_links(id).len();
            prop_assert!(
                len_shared + 2 >= cyclon_view && len_per_node + 2 >= cyclon_view,
                "{} did not heal: shared {}, per-node {} (cap {})",
                id, len_shared, len_per_node, cyclon_view
            );
            sum_shared += len_shared;
            sum_per_node += len_per_node;
        }
        let n = shared.len() as f64;
        let mean_diff = (sum_shared as f64 - sum_per_node as f64).abs() / n;
        prop_assert!(
            mean_diff <= 0.5,
            "mean view size diverged by {mean_diff:.2} (shared {sum_shared}, per-node {sum_per_node})"
        );
    }
}

// ---- mode plumbing -------------------------------------------------------

/// The runtime reports its mode through the `GossipRuntime` trait, and the
/// BTree oracle has no per-node mode at all.
#[test]
fn runtimes_report_their_rng_mode() {
    let shared: &dyn GossipRuntime = &DenseSimNetwork::new(config(10), 1);
    assert_eq!(shared.rng_mode(), RngMode::Shared);
    let per_node: &dyn GossipRuntime = &DenseSimNetwork::new_per_node(config(10), 1, 2, 2);
    assert_eq!(per_node.rng_mode(), RngMode::PerNode);
    let btree: &dyn GossipRuntime = &Network::new(config(10), 1);
    assert_eq!(btree.rng_mode(), RngMode::Shared);
}
