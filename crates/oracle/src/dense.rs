//! Differential tests: `hybridcast_sim::DenseSimNetwork` replays the
//! id-keyed [`crate::Network`] draw for draw.

mod tests {
    use crate::network::Network;
    use hybridcast_graph::NodeId;
    use hybridcast_sim::churn::{ChurnConfig, ChurnDriver};
    use hybridcast_sim::{DenseSimNetwork, GossipRuntime, SimConfig};

    fn config(nodes: usize) -> SimConfig {
        SimConfig {
            nodes,
            warmup_cycles: 0,
            ..SimConfig::default()
        }
    }

    fn pair(nodes: usize, seed: u64) -> (DenseSimNetwork, Network) {
        (
            DenseSimNetwork::new(config(nodes), seed),
            Network::new(config(nodes), seed),
        )
    }

    #[test]
    fn bootstrap_matches_the_btree_runtime() {
        let (dense, btree) = pair(50, 1);
        assert_eq!(dense.len(), 50);
        assert_eq!(dense.overlay_snapshot(), btree.overlay_snapshot());
    }

    #[test]
    fn warmed_overlays_are_bit_identical() {
        let (mut dense, mut btree) = pair(80, 2);
        dense.run_cycles(60);
        btree.run_cycles(60);
        assert_eq!(dense.cycle(), 60);
        assert_eq!(dense.overlay_snapshot(), btree.overlay_snapshot());
    }

    #[test]
    fn multi_ring_overlays_are_bit_identical() {
        let cfg = SimConfig {
            nodes: 40,
            rings: 3,
            ..SimConfig::default()
        };
        let mut dense = DenseSimNetwork::new(cfg.clone(), 3);
        let mut btree = Network::new(cfg, 3);
        dense.run_cycles(40);
        btree.run_cycles(40);
        assert_eq!(dense.overlay_snapshot(), btree.overlay_snapshot());
    }

    #[test]
    fn randcast_only_mode_matches_without_vicinity() {
        let cfg = SimConfig {
            nodes: 30,
            run_vicinity: false,
            rings: 0,
            ..SimConfig::default()
        };
        let mut dense = DenseSimNetwork::new(cfg.clone(), 4);
        let mut btree = Network::new(cfg, 4);
        dense.run_cycles(30);
        btree.run_cycles(30);
        assert_eq!(dense.overlay_snapshot(), btree.overlay_snapshot());
    }

    #[test]
    fn churn_reuses_slots_and_stays_bit_identical() {
        let (mut dense, mut btree) = pair(100, 5);
        let mut driver_a = ChurnDriver::new(ChurnConfig { rate: 0.05 });
        let mut driver_b = ChurnDriver::new(ChurnConfig { rate: 0.05 });
        driver_a.run_cycles(&mut dense, 30);
        driver_b.run_cycles(&mut btree, 30);
        assert_eq!(dense.overlay_snapshot(), btree.overlay_snapshot());
        assert_eq!(dense.len(), 100);
        assert_eq!(
            dense.slot_capacity(),
            100,
            "steady-state churn must recycle slots instead of growing the arena"
        );
        // And the RNG streams are still aligned afterwards.
        assert_eq!(dense.random_live_node(), btree.random_live_node());
    }

    #[test]
    fn kill_and_spawn_mirror_the_btree_runtime() {
        let (mut dense, mut btree) = pair(20, 6);
        dense.run_cycles(10);
        btree.run_cycles(10);
        let victim = NodeId::new(7);
        assert_eq!(dense.kill_node(victim), btree.kill_node(victim));
        assert!(!dense.kill_node(victim));
        assert!(!dense.is_live(victim));
        let introducer = dense.random_live_node();
        assert_eq!(introducer, btree.random_live_node());
        let a = dense.spawn_node(introducer);
        let b = btree.spawn_node(introducer);
        assert_eq!(a, b);
        assert_eq!(dense.joined_at_cycle(a), Some(10));
        assert_eq!(
            dense.ring_position(a),
            btree.node(a).map(|n| n.ring_position())
        );
        dense.run_cycles(10);
        btree.run_cycles(10);
        assert_eq!(dense.overlay_snapshot(), btree.overlay_snapshot());
    }
}
