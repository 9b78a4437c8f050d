//! Criterion measurement of the probe layer's cost on the dense
//! hop-synchronous engine: the zero-cost claim, measured.
//!
//! Three arms run the identical seeded dissemination over the same warmed
//! overlay:
//!
//! * `unprobed` — the plain `disseminate_dense`,
//! * `null_probe` — `disseminate_dense_probed` with [`NullProbe`], which
//!   monomorphization must erase (this arm is the headline number),
//! * `ring_sink` — a warmed bounded [`RingSink`], the cost of actually
//!   recording every event without touching the allocator.
//!
//! Before timing anything, the harness asserts the NullProbe arm returns
//! a report bit-identical to the unprobed engine — a wrong-result probe
//! layer must fail the bench, not post a fast number.
//!
//! The overlay size defaults to 10,000 nodes (the paper's scale); set
//! `HYBRIDCAST_BENCH_NODES` to run smaller (CI smoke-runs this reduced).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use hybridcast_core::engine::{disseminate_dense, disseminate_dense_probed, DenseScratch};
use hybridcast_core::overlay::{DenseOverlay, Overlay};
use hybridcast_core::protocols::DenseSelector;
use hybridcast_obs::{NullProbe, RingSink};
use hybridcast_sim::{DenseSimNetwork, SimConfig};

fn bench_nodes() -> usize {
    std::env::var("HYBRIDCAST_BENCH_NODES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
}

fn warmed_dense_overlay(nodes: usize) -> DenseOverlay {
    let mut network = DenseSimNetwork::new(
        SimConfig {
            nodes,
            ..SimConfig::default()
        },
        11,
    );
    network.run_cycles(100);
    DenseOverlay::from_dense_sim(&network)
}

fn bench_probe_overhead(c: &mut Criterion) {
    let nodes = bench_nodes();
    let dense = warmed_dense_overlay(nodes);
    let origin = dense.live_node_ids()[0];
    let selector = DenseSelector::ringcast(3);

    // The zero-cost contract, checked before anything is timed: NullProbe
    // must not change one byte of the report.
    let mut scratch = DenseScratch::new();
    let baseline = disseminate_dense(
        &dense,
        &selector,
        origin,
        &mut ChaCha8Rng::seed_from_u64(3),
        &mut scratch,
    )
    .report(&dense, &scratch);
    let probed = disseminate_dense_probed(
        &dense,
        &selector,
        origin,
        &mut ChaCha8Rng::seed_from_u64(3),
        &mut scratch,
        &mut NullProbe,
    )
    .report(&dense, &scratch);
    assert_eq!(
        baseline, probed,
        "NullProbe run must be bit-identical to the unprobed engine"
    );

    let mut group = c.benchmark_group(format!("probe_overhead/n{nodes}"));
    group.bench_function("unprobed", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut scratch = DenseScratch::new();
        b.iter(|| disseminate_dense(&dense, &selector, origin, &mut rng, &mut scratch))
    });
    group.bench_function("null_probe", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut scratch = DenseScratch::new();
        b.iter(|| {
            disseminate_dense_probed(
                &dense,
                &selector,
                origin,
                &mut rng,
                &mut scratch,
                &mut NullProbe,
            )
        })
    });
    group.bench_function("ring_sink", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut scratch = DenseScratch::new();
        // Pre-sized once; recording overwrites in place, so the warm loop
        // stays allocation-free exactly like the engine scratch.
        let mut sink = RingSink::with_capacity(64 * 1024);
        b.iter(|| {
            disseminate_dense_probed(&dense, &selector, origin, &mut rng, &mut scratch, &mut sink)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_probe_overhead);
criterion_main!(benches);
