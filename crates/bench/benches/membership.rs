//! Criterion micro-benchmarks of the membership layer, comparing the arena
//! runtime with the id-keyed oracle runtime (`hybridcast-oracle`) on
//! identical work: the cost of one full gossip cycle
//! (Cyclon + Vicinity for every node) at different network sizes, a gossip
//! cycle with the paper's churn applied, and one node joining and leaving
//! a warmed network. The arena
//! runtime's gossip cycle is also timed with Cyclon alone
//! (`gossip_cycle/dense_cyclon_only`, `run_vicinity: false`), so the two
//! arms split a cycle into its Cyclon and Vicinity halves.
//!
//! Sizes default to 250 / 1,000 / 4,000 nodes; set `HYBRIDCAST_BENCH_NODES`
//! to benchmark one specific scale (CI smoke-runs this at a reduced size).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use hybridcast_oracle::Network;
use hybridcast_sim::churn::{ChurnConfig, ChurnDriver};
use hybridcast_sim::{DenseSimNetwork, GossipRuntime, SimConfig};

fn bench_sizes() -> Vec<usize> {
    match std::env::var("HYBRIDCAST_BENCH_NODES")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(nodes) => vec![nodes],
        None => vec![250, 1_000, 4_000],
    }
}

fn config(nodes: usize) -> SimConfig {
    SimConfig {
        nodes,
        ..SimConfig::default()
    }
}

fn warmed_btree(nodes: usize) -> Network {
    let mut network = Network::new(config(nodes), 7);
    network.run_cycles(30);
    network
}

fn warmed_dense(config: SimConfig) -> DenseSimNetwork {
    let mut network = DenseSimNetwork::new(config, 7);
    network.run_cycles(30);
    network
}

fn bench_gossip_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("membership/gossip_cycle");
    for &nodes in &bench_sizes() {
        let btree = warmed_btree(nodes);
        group.bench_with_input(BenchmarkId::new("btree", nodes), &nodes, |b, _| {
            b.iter_batched(
                || btree.clone(),
                |mut net| net.run_cycles(1),
                criterion::BatchSize::LargeInput,
            )
        });
        let cyclon_only = SimConfig {
            run_vicinity: false,
            ..config(nodes)
        };
        for (arm, config) in [("dense", config(nodes)), ("dense_cyclon_only", cyclon_only)] {
            let dense = warmed_dense(config);
            group.bench_with_input(BenchmarkId::new(arm, nodes), &nodes, |b, _| {
                b.iter_batched(
                    || dense.clone(),
                    |mut net| net.run_cycles(1),
                    criterion::BatchSize::LargeInput,
                )
            });
        }
    }
    group.finish();
}

fn bench_churn_cycle(c: &mut Criterion) {
    let nodes = *bench_sizes().last().unwrap();
    let mut group = c.benchmark_group("membership/churn_cycle");
    let btree = warmed_btree(nodes);
    group.bench_function(BenchmarkId::new("btree", nodes), |b| {
        b.iter_batched(
            || (btree.clone(), ChurnDriver::new(ChurnConfig::default())),
            |(mut net, mut driver)| driver.run_cycles(&mut net, 1),
            criterion::BatchSize::LargeInput,
        )
    });
    let dense = warmed_dense(config(nodes));
    group.bench_function(BenchmarkId::new("dense", nodes), |b| {
        b.iter_batched(
            || (dense.clone(), ChurnDriver::new(ChurnConfig::default())),
            |(mut net, mut driver)| driver.run_cycles(&mut net, 1),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// One join through a random live introducer, then the newcomer's
/// departure: the population stays constant across iterations, the dense
/// arena reuses the freed slot, and nothing is cloned or dropped.
fn join_leave<N: GossipRuntime>(net: &mut N) -> bool {
    let introducer = net.random_live_node();
    let newcomer = net.spawn_node(introducer);
    net.kill_node(newcomer)
}

fn bench_node_join_leave(c: &mut Criterion) {
    let nodes = bench_sizes()[0];
    let mut btree = warmed_btree(nodes);
    c.bench_function("membership/node_join_leave/btree", |b| {
        b.iter(|| join_leave(&mut btree))
    });
    let mut dense = warmed_dense(config(nodes));
    c.bench_function("membership/node_join_leave/dense", |b| {
        b.iter(|| join_leave(&mut dense))
    });
}

criterion_group!(
    benches,
    bench_gossip_cycle,
    bench_churn_cycle,
    bench_node_join_leave
);
criterion_main!(benches);
