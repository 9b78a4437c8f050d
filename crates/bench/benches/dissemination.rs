//! Criterion micro-benchmarks of the dissemination engine: the cost of one
//! complete dissemination over a warmed 1,000-node overlay for each
//! protocol, and the scaling of RingCast with the fanout.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use hybridcast_core::engine::disseminate;
use hybridcast_core::overlay::{Overlay, SnapshotOverlay};
use hybridcast_core::protocols::DenseSelector;
use hybridcast_sim::{Network, SimConfig};

fn warmed_overlay(nodes: usize) -> SnapshotOverlay {
    let mut network = Network::new(
        SimConfig {
            nodes,
            ..SimConfig::default()
        },
        11,
    );
    network.run_cycles(100);
    SnapshotOverlay::new(network.overlay_snapshot())
}

fn bench_protocols(c: &mut Criterion) {
    let overlay = warmed_overlay(1_000);
    let origin = overlay.live_node_ids()[0];
    let mut group = c.benchmark_group("dissemination/protocol");
    for (name, protocol) in [
        ("randcast_f5", DenseSelector::randcast(5)),
        ("ringcast_f5", DenseSelector::ringcast(5)),
        ("flooding", DenseSelector::Flooding),
    ] {
        group.bench_function(name, |b| {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            b.iter(|| disseminate(&overlay, &protocol, origin, &mut rng))
        });
    }
    group.finish();
}

fn bench_ringcast_fanout_scaling(c: &mut Criterion) {
    let overlay = warmed_overlay(1_000);
    let origin = overlay.live_node_ids()[0];
    let mut group = c.benchmark_group("dissemination/ringcast_fanout");
    for &fanout in &[1usize, 3, 6, 12] {
        group.bench_with_input(BenchmarkId::from_parameter(fanout), &fanout, |b, &f| {
            let protocol = DenseSelector::ringcast(f);
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            b.iter(|| disseminate(&overlay, &protocol, origin, &mut rng))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_protocols, bench_ringcast_fanout_scaling);
criterion_main!(benches);
