//! Criterion comparison of the BTree oracle engines (`hybridcast-oracle`)
//! and the dense dissemination engines on
//! the same warmed overlay with the same protocols, across all three
//! dissemination modes:
//!
//! * hop-synchronous push: `disseminate` vs. `disseminate_dense`,
//! * event-driven latency model: `disseminate_async` (over the frozen
//!   overlay) vs. `disseminate_async_dense`,
//! * push + pull anti-entropy: `disseminate_push_pull` vs.
//!   `disseminate_push_pull_dense`.
//!
//! Both arms of every pair end with the id-keyed report in hand: the dense
//! arm includes materialising it (`.report(..)`), so like is compared with
//! like. The `report` group times that materialisation alone
//! (`DenseRunStats::report`, `DenseAsyncRunStats::report`), after one run
//! over the same warmed overlay has filled the scratch.
//!
//! The `overlay_build` group times the step in front of all of them,
//! `DenseOverlay::from_flat_links`: over a synthetic ring + 8 r-links CSR
//! with hole-free ids (100,000 nodes by default) and over the export of a
//! churned `DenseSimNetwork`, whose ids have holes and whose links point at
//! departed nodes.
//!
//! The overlay size defaults to 1,000 nodes; set `HYBRIDCAST_BENCH_NODES`
//! to run at a different scale (CI smoke-runs this at a reduced size; the
//! latency-ablation acceptance measurement runs it at 10,000).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use hybridcast_bench::scenario::synthetic_links;
use hybridcast_core::async_engine::{disseminate_async_dense, AsyncConfig, DenseAsyncScratch};
use hybridcast_core::engine::{disseminate_dense, DenseScratch};
use hybridcast_core::overlay::{DenseOverlay, Overlay, SnapshotOverlay};
use hybridcast_core::protocols::DenseSelector;
use hybridcast_core::pull::{disseminate_push_pull_dense, DensePullScratch, PullConfig};
use hybridcast_obs::NullProbe;
use hybridcast_oracle::{disseminate, disseminate_async, disseminate_push_pull, Network};
use hybridcast_sim::churn::{ChurnConfig, ChurnDriver};
use hybridcast_sim::{DenseSimNetwork, GossipRuntime, SimConfig};

fn env_nodes() -> Option<usize> {
    std::env::var("HYBRIDCAST_BENCH_NODES")
        .ok()
        .and_then(|v| v.parse().ok())
}

fn bench_nodes() -> usize {
    env_nodes().unwrap_or(1_000)
}

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

fn bench_engines(c: &mut Criterion) {
    let nodes = bench_nodes();
    let overlay = warmed_overlay(nodes);
    let dense = DenseOverlay::from(&overlay);
    let origin = overlay.live_node_ids()[0];
    let protocols = [
        ("randcast_f5", DenseSelector::randcast(5)),
        ("ringcast_f3", DenseSelector::ringcast(3)),
        ("flooding", DenseSelector::Flooding),
    ];

    let mut group = c.benchmark_group(format!("engine/n{nodes}"));
    for (name, selector) in &protocols {
        group.bench_function(format!("btree/{name}"), |b| {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            b.iter(|| disseminate(&overlay, selector, origin, &mut rng, &mut NullProbe))
        });
        group.bench_function(format!("dense/{name}"), |b| {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let mut scratch = DenseScratch::new();
            b.iter(|| {
                disseminate_dense(&dense, selector, origin, &mut rng, &mut scratch)
                    .report(&dense, &scratch)
            })
        });
    }
    group.finish();
}

fn bench_async_engines(c: &mut Criterion) {
    let nodes = bench_nodes();
    let overlay = warmed_overlay(nodes);
    let dense = DenseOverlay::from(&overlay);
    let origin = overlay.live_node_ids()[0];
    let config = AsyncConfig {
        gossip_period: 10.0,
        forwarding_delay: 1.0,
        jitter: 0.1,
        run_membership_gossip: false,
        max_time: 1_000_000.0,
        ..AsyncConfig::default()
    };
    let protocols = [
        ("randcast_f5", DenseSelector::randcast(5)),
        ("ringcast_f3", DenseSelector::ringcast(3)),
    ];

    let mut group = c.benchmark_group(format!("async_engine/n{nodes}"));
    for (name, selector) in &protocols {
        group.bench_function(format!("btree/{name}"), |b| {
            let rng = &mut ChaCha8Rng::seed_from_u64(5);
            b.iter(|| disseminate_async(&overlay, selector, origin, &config, rng, &mut NullProbe))
        });
        group.bench_function(format!("dense/{name}"), |b| {
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            let mut scratch = DenseAsyncScratch::new();
            b.iter(|| {
                disseminate_async_dense(&dense, selector, origin, &config, &mut rng, &mut scratch)
                    .report(&dense, &config, &scratch)
            })
        });
    }
    group.finish();
}

fn bench_pull_engines(c: &mut Criterion) {
    let nodes = bench_nodes();
    let overlay = warmed_overlay(nodes);
    let dense = DenseOverlay::from(&overlay);
    let origin = overlay.live_node_ids()[0];
    // RandCast at fanout 2 leaves real work for the pull phase to do.
    let selector = DenseSelector::randcast(2);
    let config = PullConfig {
        fanout: 1,
        max_rounds: 50,
    };

    let mut group = c.benchmark_group(format!("pull_engine/n{nodes}"));
    group.bench_function("btree/randcast_f2", |b| {
        let rng = &mut ChaCha8Rng::seed_from_u64(7);
        b.iter(|| disseminate_push_pull(&overlay, &selector, origin, &config, rng, &mut NullProbe))
    });
    group.bench_function("dense/randcast_f2", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut scratch = DensePullScratch::new();
        b.iter(|| {
            disseminate_push_pull_dense(&dense, &selector, origin, &config, &mut rng, &mut scratch)
                .report(&dense, &scratch)
        })
    });
    group.finish();
}

fn bench_reports(c: &mut Criterion) {
    let nodes = bench_nodes();
    let overlay = warmed_overlay(nodes);
    let dense = DenseOverlay::from(&overlay);
    let origin = overlay.live_node_ids()[0];
    let selector = DenseSelector::randcast(5);
    let config = AsyncConfig {
        run_membership_gossip: false,
        ..AsyncConfig::default()
    };

    let mut group = c.benchmark_group(format!("report/n{nodes}"));
    let mut scratch = DenseScratch::new();
    let run = disseminate_dense(
        &dense,
        &selector,
        origin,
        &mut ChaCha8Rng::seed_from_u64(3),
        &mut scratch,
    );
    group.bench_function("sync/randcast_f5", |b| {
        b.iter(|| run.report(&dense, &scratch))
    });
    let mut scratch = DenseAsyncScratch::new();
    let run = disseminate_async_dense(
        &dense,
        &selector,
        origin,
        &config,
        &mut ChaCha8Rng::seed_from_u64(5),
        &mut scratch,
    );
    group.bench_function("async/randcast_f5", |b| {
        b.iter(|| run.report(&dense, &config, &scratch))
    });
    group.finish();
}

fn bench_dense_conversion(c: &mut Criterion) {
    let overlay = warmed_overlay(bench_nodes());
    c.bench_function("engine/snapshot_to_dense", |b| {
        b.iter(|| DenseOverlay::from(&overlay))
    });
}

fn bench_overlay_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlay_build");

    // Hole-free ids: every link target's rank is found by the first probe.
    let synthetic_nodes = env_nodes().unwrap_or(100_000);
    let synthetic = synthetic_links(synthetic_nodes, 8, 1);
    group.bench_function(format!("synthetic_ring_r8/n{synthetic_nodes}"), |b| {
        b.iter(|| DenseOverlay::from_flat_links(&synthetic))
    });

    // 1 % churn for 60 cycles: nearly half the bootstrap ids are gone, so
    // ranks are binary-searched, and links to departed nodes are merged in
    // as dead nodes.
    let nodes = bench_nodes();
    let mut network = DenseSimNetwork::new(
        SimConfig {
            nodes,
            ..SimConfig::default()
        },
        11,
    );
    network.run_cycles(40);
    ChurnDriver::new(ChurnConfig { rate: 0.01 }).run_cycles(&mut network, 60);
    let churned = network.flat_links();
    let span = churned.ids[churned.ids.len() - 1].as_u64() - churned.ids[0].as_u64() + 1;
    assert!(span > churned.ids.len() as u64, "churn must leave id holes");
    let built = DenseOverlay::from_flat_links(&churned);
    assert!(
        built.len() > built.live_len(),
        "churn must leave dead links"
    );
    group.bench_function(format!("churned_export/n{nodes}"), |b| {
        b.iter(|| DenseOverlay::from_flat_links(&churned))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_overlay_build,
    bench_engines,
    bench_async_engines,
    bench_pull_engines,
    bench_reports,
    bench_dense_conversion
);
criterion_main!(benches);
