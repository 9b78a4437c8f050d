//! Criterion micro-benchmarks of the graph substrate: overlay constructors,
//! strong-connectivity checking and Harary graph construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use hybridcast_graph::{builders, connectivity, harary, NodeId};

fn ids(count: u64) -> Vec<NodeId> {
    (0..count).map(NodeId::new).collect()
}

fn bench_constructors(c: &mut Criterion) {
    let nodes = ids(10_000);
    let mut group = c.benchmark_group("graph/constructors");
    group.bench_function("bidirectional_ring_10k", |b| {
        b.iter(|| builders::bidirectional_ring(&nodes))
    });
    group.bench_function("harary_4_10k", |b| {
        b.iter(|| harary::harary_graph(&nodes, 4))
    });
    group.bench_function("random_out_degree_20_2k", |b| {
        let nodes = ids(2_000);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        b.iter(|| builders::random_out_degree(&nodes, 20, &mut rng))
    });
    group.finish();
}

fn bench_connectivity(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph/connectivity");
    for &n in &[1_000u64, 4_000] {
        let nodes = ids(n);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let graph = builders::random_out_degree(&nodes, 10, &mut rng);
        group.bench_with_input(BenchmarkId::new("strongly_connected", n), &graph, |b, g| {
            b.iter(|| connectivity::is_strongly_connected(g))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_constructors, bench_connectivity);
criterion_main!(benches);
