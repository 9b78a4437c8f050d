//! Criterion micro-benchmarks of the membership layer, comparing the arena
//! runtime with the id-keyed oracle runtime (`hybridcast-oracle`) on
//! identical work: the cost of one full gossip cycle
//! (Cyclon + Vicinity for every node) at different network sizes, a gossip
//! cycle with the paper's churn applied, and a single node join.
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

fn warmed_dense(nodes: usize) -> DenseSimNetwork {
    let mut network = DenseSimNetwork::new(config(nodes), 7);
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
        let dense = warmed_dense(nodes);
        group.bench_with_input(BenchmarkId::new("dense", nodes), &nodes, |b, _| {
            b.iter_batched(
                || dense.clone(),
                |mut net| net.run_cycles(1),
                criterion::BatchSize::LargeInput,
            )
        });
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
    let dense = warmed_dense(nodes);
    group.bench_function(BenchmarkId::new("dense", nodes), |b| {
        b.iter_batched(
            || (dense.clone(), ChurnDriver::new(ChurnConfig::default())),
            |(mut net, mut driver)| driver.run_cycles(&mut net, 1),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_node_join(c: &mut Criterion) {
    let nodes = bench_sizes()[0];
    let btree = warmed_btree(nodes);
    c.bench_function("membership/node_join/btree", |b| {
        b.iter_batched(
            || btree.clone(),
            |mut net| {
                let introducer = net.random_live_node();
                net.spawn_node(introducer)
            },
            criterion::BatchSize::LargeInput,
        )
    });
    let dense = warmed_dense(nodes);
    c.bench_function("membership/node_join/dense", |b| {
        b.iter_batched(
            || dense.clone(),
            |mut net| {
                let introducer = net.random_live_node();
                GossipRuntime::spawn_node(&mut net, introducer)
            },
            criterion::BatchSize::LargeInput,
        )
    });
}

criterion_group!(
    benches,
    bench_gossip_cycle,
    bench_churn_cycle,
    bench_node_join
);
criterion_main!(benches);
