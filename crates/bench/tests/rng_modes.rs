//! Cross-mode equivalence of the two membership RNG disciplines at the
//! harness level: an overlay grown under `--rng per-node` must carry
//! disseminations exactly as well as one grown under the default
//! `--rng shared`.
//!
//! The two modes draw different random numbers by design (one shared
//! stream stepped in node order vs. one counter-based stream per node and
//! cycle), so the overlays differ link-by-link — but both run the same
//! protocol, so every *statistical* property the dissemination layer
//! depends on must match: the live-node set, full Cyclon views, ring
//! convergence, and ultimately RingCast/RandCast hit ratios at equal
//! fanout. The structural half of this contract is pinned in
//! `crates/sim/tests/frontier.rs`; this file pins the behavioural half
//! where the harness consumes the overlay.

use hybridcast_bench::scenario::{frozen_overlay, EngineKind, ExperimentParams};
use hybridcast_core::overlay::{DenseOverlay, Overlay};
use hybridcast_core::protocols::DenseSelector;
use hybridcast_core::run_seeded_disseminations;
use hybridcast_obs::{NullProbe, StageProfiler};
use hybridcast_sim::RngMode;

fn params(rng: RngMode) -> ExperimentParams {
    ExperimentParams {
        nodes: 400,
        runs: 12,
        warmup_cycles: 80,
        fanouts: vec![3],
        seed: 11,
        churn_rate: 0.0,
        churn_max_cycles: 0,
        engine: EngineKind::Dense,
        threads: 2,
        rng,
        quiet: true,
    }
}

/// The static overlay the harness grows in the given RNG mode.
fn static_overlay(p: &ExperimentParams) -> DenseOverlay {
    frozen_overlay(p, p.sim_config(), &mut NullProbe, &mut StageProfiler::new())
}

fn mean_hit_ratio(rng: RngMode, selector: &DenseSelector) -> f64 {
    let p = params(rng);
    let overlay = static_overlay(&p);
    let reports = run_seeded_disseminations(&overlay, selector, p.runs, p.seed, p.thread_count());
    reports.iter().map(|r| r.hit_ratio()).sum::<f64>() / reports.len() as f64
}

/// Both modes grow an overlay over the same live-node set, and RingCast is
/// complete over both in a fail-free network — the paper's headline
/// property must not depend on the RNG discipline.
#[test]
fn ringcast_is_complete_over_both_rng_modes() {
    for rng in [RngMode::Shared, RngMode::PerNode] {
        let ratio = mean_hit_ratio(rng, &DenseSelector::ringcast(3));
        assert!(
            (ratio - 1.0).abs() < 1e-12,
            "RingCast f=3 incomplete over {rng} overlay: {ratio}"
        );
    }
}

/// RandCast coverage is probabilistic, so the two overlays give close but
/// not identical ratios; a wide-but-real tolerance catches a mode growing
/// a structurally degenerate overlay (e.g. partitioned or under-filled
/// views) without flaking on healthy noise.
#[test]
fn randcast_hit_ratios_are_equivalent_across_rng_modes() {
    let shared = mean_hit_ratio(RngMode::Shared, &DenseSelector::randcast(2));
    let per_node = mean_hit_ratio(RngMode::PerNode, &DenseSelector::randcast(2));
    assert!(
        shared > 0.5 && per_node > 0.5,
        "RandCast f=2 collapsed: shared {shared}, per-node {per_node}"
    );
    assert!(
        (shared - per_node).abs() < 0.15,
        "RandCast hit ratios diverged across RNG modes: shared {shared}, per-node {per_node}"
    );
}

/// Both modes produce a fully-populated overlay of the same shape: every
/// node live, every Cyclon view filled to the cap, every node with ring
/// d-links.
#[test]
fn both_modes_grow_full_overlays_over_the_same_population() {
    let shared = static_overlay(&params(RngMode::Shared));
    let per_node = static_overlay(&params(RngMode::PerNode));
    assert_eq!(shared.live_node_ids(), per_node.live_node_ids());
    let cap = params(RngMode::Shared).sim_config().cyclon_view;
    for overlay in [&shared, &per_node] {
        for id in overlay.live_node_ids() {
            assert_eq!(overlay.r_links(id).len(), cap, "unfilled view at {id:?}");
            assert!(!overlay.d_links(id).is_empty(), "no d-links at {id:?}");
        }
    }
}
