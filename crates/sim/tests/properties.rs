//! Differential property tests: the arena-based epoch runtime
//! ([`DenseSimNetwork`]) must be **bit-identical** to the id-keyed runtime
//! ([`Network`]) for every configuration, seed and churn history — the
//! BTree runtime is the oracle the dense one is pinned against.

use proptest::prelude::*;

use hybridcast_sim::churn::{ChurnConfig, ChurnDriver};
use hybridcast_sim::dense::DenseSimNetwork;
use hybridcast_sim::{GossipRuntime, Network, SimConfig};

/// Builds a validated configuration from raw proptest draws.
fn config(
    nodes: usize,
    cyclon_view: usize,
    cyclon_shuffle: usize,
    vicinity_view: usize,
    vicinity_gossip: usize,
    rings: usize,
    run_vicinity: bool,
) -> SimConfig {
    SimConfig {
        nodes,
        cyclon_view,
        cyclon_shuffle,
        vicinity_view,
        vicinity_gossip,
        warmup_cycles: 0,
        rings,
        run_vicinity,
    }
}

/// Applies a kill/spawn schedule: each step kills `live_ids()[k % len]`
/// for every drawn `k` (arbitrary ids, not RNG draws), spawns nodes whose
/// introducer is `random_live_node()` (`None` once the population empties),
/// then runs one cycle.
fn apply_schedule<N: GossipRuntime>(net: &mut N, schedule: &[(Vec<usize>, usize)]) {
    for (kills, spawns) in schedule {
        for &k in kills {
            let ids = net.live_ids();
            if !ids.is_empty() {
                net.kill_node(ids[k % ids.len()]);
            }
        }
        for _ in 0..*spawns {
            let introducer = net.random_live_node();
            net.spawn_node(introducer);
        }
        net.run_cycles(1);
    }
}

proptest! {
    /// Across randomized configurations and seeds, warm-up gossip followed
    /// by artificial churn produces equal overlay snapshots (node sets,
    /// ring positions, join cycles, r-links and d-links in order), and the
    /// two simulation RNG streams stay aligned to the very end.
    #[test]
    fn dense_runtime_equals_btree_runtime_under_churn(
        nodes in 2usize..40,
        cyclon_view in 2usize..10,
        cyclon_shuffle in 1usize..6,
        vicinity_view in 2usize..8,
        vicinity_gossip in 1usize..5,
        rings in 1usize..3,
        run_vicinity in any::<bool>(),
        warm_cycles in 0usize..20,
        churn_rate in 0.0f64..0.2,
        churn_cycles in 0usize..10,
        seed in any::<u64>(),
    ) {
        let cfg = config(
            nodes, cyclon_view, cyclon_shuffle, vicinity_view, vicinity_gossip,
            rings, run_vicinity,
        );
        let mut dense = DenseSimNetwork::new(cfg.clone(), seed);
        let mut btree = Network::new(cfg, seed);

        dense.run_cycles(warm_cycles);
        btree.run_cycles(warm_cycles);
        prop_assert_eq!(dense.overlay_snapshot(), btree.overlay_snapshot());

        let mut dense_driver = ChurnDriver::new(ChurnConfig { rate: churn_rate });
        let mut btree_driver = ChurnDriver::new(ChurnConfig { rate: churn_rate });
        dense_driver.run_cycles(&mut dense, churn_cycles);
        btree_driver.run_cycles(&mut btree, churn_cycles);

        prop_assert_eq!(dense_driver.removed(), btree_driver.removed());
        prop_assert_eq!(dense.len(), btree.len());
        prop_assert_eq!(dense.cycle(), btree.cycle());
        prop_assert_eq!(dense.overlay_snapshot(), btree.overlay_snapshot());
        // One more shared draw: the RNG streams are still in lock-step.
        prop_assert_eq!(dense.random_live_node(), btree.random_live_node());
    }

    /// The same contract under a drawn kill/spawn schedule: the population
    /// varies and may empty, kills hit arbitrary ids, and spawns take a
    /// `random_live_node()` introducer that may be `None`.
    #[test]
    fn dense_runtime_equals_btree_runtime_under_kill_spawn_schedule(
        nodes in 1usize..20,
        warm_cycles in 0usize..10,
        schedule in prop::collection::vec(
            (prop::collection::vec(any::<usize>(), 0..6), 0usize..4),
            0..10,
        ),
        seed in any::<u64>(),
    ) {
        let cfg = SimConfig {
            nodes,
            warmup_cycles: 0,
            ..SimConfig::default()
        };
        let mut dense = DenseSimNetwork::new(cfg.clone(), seed);
        let mut btree = Network::new(cfg, seed);
        dense.run_cycles(warm_cycles);
        btree.run_cycles(warm_cycles);

        apply_schedule(&mut dense, &schedule);
        apply_schedule(&mut btree, &schedule);

        prop_assert_eq!(dense.overlay_snapshot(), btree.overlay_snapshot());
        prop_assert_eq!(dense.random_live_node(), btree.random_live_node());
    }

    /// The flat CSR export always agrees with the id-keyed snapshot export
    /// of the same network (same node order, same link lists).
    #[test]
    fn flat_links_always_match_the_snapshot(
        nodes in 2usize..40,
        rings in 1usize..3,
        cycles in 0usize..25,
        churn_rate in 0.0f64..0.1,
        seed in any::<u64>(),
    ) {
        let cfg = SimConfig {
            nodes,
            rings,
            warmup_cycles: 0,
            ..SimConfig::default()
        };
        let mut dense = DenseSimNetwork::new(cfg, seed);
        let mut driver = ChurnDriver::new(ChurnConfig { rate: churn_rate });
        driver.run_cycles(&mut dense, cycles);

        let snapshot = dense.overlay_snapshot();
        let flat = dense.flat_links();
        prop_assert_eq!(flat.ids.len(), snapshot.len());
        prop_assert_eq!(flat.r_offsets.len(), flat.ids.len() + 1);
        prop_assert_eq!(flat.d_offsets.len(), flat.ids.len() + 1);
        for (i, &id) in flat.ids.iter().enumerate() {
            let r = &flat.r_targets[flat.r_offsets[i] as usize..flat.r_offsets[i + 1] as usize];
            let d = &flat.d_targets[flat.d_offsets[i] as usize..flat.d_offsets[i + 1] as usize];
            let expected_r = snapshot.r_links(id);
            let expected_d = snapshot.d_links(id);
            prop_assert_eq!(r, expected_r.as_slice());
            prop_assert_eq!(d, expected_d.as_slice());
        }
    }

    /// The probed runtimes emit **identical** trace streams: one
    /// `ViewExchange` per gossiping node in shuffle order, one `CycleEnd`
    /// per cycle, and matching `Leave`/`Join` pairs for every churn step —
    /// the membership-layer counterpart of the engine stream differentials
    /// in `crates/core/tests/trace.rs`. The snapshots must stay equal too:
    /// probes observe, they never steer.
    #[test]
    fn probed_runtimes_emit_identical_event_streams(
        nodes in 2usize..30,
        rings in 1usize..3,
        warm_cycles in 1usize..15,
        churn_steps in 0usize..8,
        churn_rate in 0.0f64..0.2,
        seed in any::<u64>(),
    ) {
        let cfg = SimConfig {
            nodes,
            rings,
            warmup_cycles: 0,
            ..SimConfig::default()
        };
        let mut dense = DenseSimNetwork::new(cfg.clone(), seed);
        let mut btree = Network::new(cfg, seed);
        let mut dense_probe = hybridcast_obs::VecProbe::new();
        let mut btree_probe = hybridcast_obs::VecProbe::new();

        dense.run_cycles_probed(warm_cycles, &mut dense_probe);
        btree.run_cycles_probed(warm_cycles, &mut btree_probe);

        let mut dense_driver = ChurnDriver::new(ChurnConfig { rate: churn_rate });
        let mut btree_driver = ChurnDriver::new(ChurnConfig { rate: churn_rate });
        for _ in 0..churn_steps {
            dense_driver.apply_churn_step_probed(&mut dense, &mut dense_probe);
            dense.run_cycles_probed(1, &mut dense_probe);
            btree_driver.apply_churn_step_probed(&mut btree, &mut btree_probe);
            btree.run_cycles_probed(1, &mut btree_probe);
        }

        prop_assert_eq!(dense_probe.events, btree_probe.events);
        prop_assert_eq!(dense.overlay_snapshot(), btree.overlay_snapshot());
    }
}
