//! Dynamic enforcement of the scratch-reuse contract: a warm run of every
//! dense engine hot path performs **zero heap allocations**.
//!
//! This binary installs the counting allocator from `hybridcast-testalloc`
//! as its global allocator; each test runs an engine once cold (growing the
//! scratch buffers to their steady-state capacity), then re-runs the exact
//! same seeded workload and asserts the warm run never touched the
//! allocator. Together with the static lints in docs/DETERMINISM.md, this pins
//! the contract ARCHITECTURE.md and docs/DETERMINISM.md document.
//!
//! The warm and cold runs use the same seed so the warm run's buffer demand
//! is identical to the capacity the cold run established — any allocation
//! observed is a genuine hot-loop regression, not workload variance.
//!
//! The probe layer is held to the same contract in both of its modes:
//! `NullProbe` runs must be allocation-free and bit-identical to the
//! unprobed engines, and recording into a warmed bounded `RingSink` must
//! stay allocation-free too.

use hybridcast::core::async_engine::{
    disseminate_async_dense, disseminate_async_dense_probed, AsyncConfig, DenseAsyncScratch,
};
use hybridcast::core::engine::{disseminate_dense, disseminate_dense_probed, DenseScratch};
use hybridcast::core::netmodel::{DelayModel, LossModel, NetModel};
use hybridcast::core::overlay::DenseOverlay;
use hybridcast::core::protocols::DenseSelector;
use hybridcast::core::pull::{disseminate_push_pull_dense, DensePullScratch, PullConfig};
use hybridcast::core::sched::SchedConfig;
use hybridcast::graph::NodeId;
use hybridcast::obs::{NullProbe, RingSink};
use hybridcast::sim::churn::{ChurnConfig, ChurnDriver};
use hybridcast::sim::{DenseSimNetwork, SimConfig};
use hybridcast_testalloc::{measure, CountingAlloc};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const NODES: usize = 400;

fn warmed_overlay(seed: u64) -> (DenseOverlay, NodeId) {
    let mut net = DenseSimNetwork::new(
        SimConfig {
            nodes: NODES,
            ..SimConfig::default()
        },
        seed,
    );
    net.run_cycles(60);
    let overlay = DenseOverlay::from_dense_sim(&net);
    let origin = overlay.node_id(overlay.live_indices()[0]);
    (overlay, origin)
}

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

#[test]
fn warm_sync_dissemination_is_allocation_free() {
    let (overlay, origin) = warmed_overlay(1);
    let selector = DenseSelector::ringcast(3);
    let mut scratch = DenseScratch::new();

    // The cold run is measured too, as a self-test of the counting
    // allocator: it must observe the scratch buffers growing. A counter
    // that sees nothing here would make every zero assertion vacuous.
    let (cold, cold_stats) =
        measure(|| disseminate_dense(&overlay, &selector, origin, &mut rng(7), &mut scratch));
    assert!(
        cold_stats.allocations > 0,
        "the counting allocator must observe the cold run's scratch growth"
    );
    let (warm, stats) =
        measure(|| disseminate_dense(&overlay, &selector, origin, &mut rng(7), &mut scratch));

    assert_eq!(cold, warm, "same seed must reproduce the same run");
    assert_eq!(warm.reached, warm.population, "RingCast completes");
    assert!(
        stats.is_allocation_free(),
        "warm sync dissemination allocated: {stats:?}"
    );
}

#[test]
fn warm_probed_sync_dissemination_is_allocation_free() {
    // The probe layer's zero-cost contract, both halves: a NullProbe run is
    // allocation-free AND result-identical to the unprobed engine, and a
    // recording run over a warmed bounded ring sink is still
    // allocation-free — observing every event must not touch the heap.
    let (overlay, origin) = warmed_overlay(1);
    let selector = DenseSelector::ringcast(3);
    let mut scratch = DenseScratch::new();

    let baseline = disseminate_dense(&overlay, &selector, origin, &mut rng(7), &mut scratch);

    let (null_run, null_stats) = measure(|| {
        disseminate_dense_probed(
            &overlay,
            &selector,
            origin,
            &mut rng(7),
            &mut scratch,
            &mut NullProbe,
        )
    });
    assert_eq!(baseline, null_run, "NullProbe must not change the result");
    assert!(
        null_stats.is_allocation_free(),
        "warm NullProbe dissemination allocated: {null_stats:?}"
    );

    // Pre-sized above any single run's event count; record() overwrites in
    // place, so the warm recording loop never grows it.
    let mut sink = RingSink::with_capacity(64 * 1024);
    let cold = disseminate_dense_probed(
        &overlay,
        &selector,
        origin,
        &mut rng(7),
        &mut scratch,
        &mut sink,
    );
    assert_eq!(
        baseline, cold,
        "recording probes must not change the result"
    );
    let events_per_run = sink.total_recorded();
    assert!(events_per_run > 0, "the ring sink must observe events");
    let (ring_run, ring_stats) = measure(|| {
        disseminate_dense_probed(
            &overlay,
            &selector,
            origin,
            &mut rng(7),
            &mut scratch,
            &mut sink,
        )
    });
    assert_eq!(baseline, ring_run, "same seed must reproduce the same run");
    assert_eq!(
        sink.total_recorded(),
        events_per_run * 2,
        "the warm run must record the identical event count"
    );
    assert!(
        ring_stats.is_allocation_free(),
        "warm ring-sink dissemination allocated: {ring_stats:?}"
    );
}

#[test]
fn warm_probed_async_dissemination_is_allocation_free() {
    // Same contract for the event-driven engine, which emits far more
    // events (one per send, drop and delivery) than the hop-synchronous
    // one — the stress case for an allocating probe.
    let (overlay, origin) = warmed_overlay(2);
    let selector = DenseSelector::ringcast(3);
    let config = AsyncConfig {
        run_membership_gossip: false,
        ..AsyncConfig::default()
    };
    let mut scratch = DenseAsyncScratch::new();

    let baseline = disseminate_async_dense(
        &overlay,
        &selector,
        origin,
        &config,
        &mut rng(9),
        &mut scratch,
    );

    let (null_run, null_stats) = measure(|| {
        disseminate_async_dense_probed(
            &overlay,
            &selector,
            origin,
            &config,
            &mut rng(9),
            &mut scratch,
            &mut NullProbe,
        )
    });
    assert_eq!(baseline, null_run, "NullProbe must not change the result");
    assert!(
        null_stats.is_allocation_free(),
        "warm async NullProbe dissemination allocated: {null_stats:?}"
    );

    let mut sink = RingSink::with_capacity(64 * 1024);
    let cold = disseminate_async_dense_probed(
        &overlay,
        &selector,
        origin,
        &config,
        &mut rng(9),
        &mut scratch,
        &mut sink,
    );
    assert_eq!(
        baseline, cold,
        "recording probes must not change the result"
    );
    assert!(
        sink.total_recorded() > 0,
        "the ring sink must observe events"
    );
    let (ring_run, ring_stats) = measure(|| {
        disseminate_async_dense_probed(
            &overlay,
            &selector,
            origin,
            &config,
            &mut rng(9),
            &mut scratch,
            &mut sink,
        )
    });
    assert_eq!(baseline, ring_run, "same seed must reproduce the same run");
    assert!(
        ring_stats.is_allocation_free(),
        "warm async ring-sink dissemination allocated: {ring_stats:?}"
    );
}

#[test]
fn warm_async_dissemination_is_allocation_free() {
    let (overlay, origin) = warmed_overlay(2);
    let selector = DenseSelector::ringcast(3);
    // Exercise the full adversarial model path: heavy-tailed delays plus a
    // Gilbert–Elliott loss chain, the worst case for hidden allocations.
    let config = AsyncConfig {
        run_membership_gossip: false,
        net: NetModel {
            delay: DelayModel::LogNormal {
                mu: 0.0,
                sigma: 1.25,
            },
            loss: LossModel::GilbertElliott {
                loss_good: 0.01,
                loss_bad: 0.4,
                p_enter_bad: 0.05,
                p_exit_bad: 0.3,
            },
            ..NetModel::default()
        },
        ..AsyncConfig::default()
    };
    let mut scratch = DenseAsyncScratch::new();

    let cold = disseminate_async_dense(
        &overlay,
        &selector,
        origin,
        &config,
        &mut rng(9),
        &mut scratch,
    );
    let (warm, stats) = measure(|| {
        disseminate_async_dense(
            &overlay,
            &selector,
            origin,
            &config,
            &mut rng(9),
            &mut scratch,
        )
    });

    assert_eq!(cold, warm, "same seed must reproduce the same run");
    // The log-normal tail overshoots the calendar window (4x the
    // forwarding delay under the auto geometry), so this warm run must
    // have routed events through the overflow tier without allocating —
    // the spill path is part of the zero-alloc contract, not an escape
    // hatch from it.
    assert!(
        scratch.overflow_high_water() > 0,
        "the heavy-tail workload must exercise the overflow tier"
    );
    assert!(
        stats.is_allocation_free(),
        "warm async dissemination allocated: {stats:?}"
    );
}

#[test]
fn warm_budget_capped_async_dissemination_is_allocation_free() {
    // The event-budget refusal path (`truncated_sends`) runs in the same
    // hot loop as scheduling; a budget small enough to actually refuse
    // sends must not change the allocation story.
    let (overlay, origin) = warmed_overlay(2);
    let selector = DenseSelector::ringcast(3);
    let config = AsyncConfig {
        run_membership_gossip: false,
        sched: SchedConfig {
            event_budget: 16,
            ..SchedConfig::default()
        },
        ..AsyncConfig::default()
    };
    let mut scratch = DenseAsyncScratch::new();

    let cold = disseminate_async_dense(
        &overlay,
        &selector,
        origin,
        &config,
        &mut rng(9),
        &mut scratch,
    );
    assert!(
        cold.truncated_sends > 0,
        "the budget must actually refuse sends for this test to mean anything"
    );
    let (warm, stats) = measure(|| {
        disseminate_async_dense(
            &overlay,
            &selector,
            origin,
            &config,
            &mut rng(9),
            &mut scratch,
        )
    });

    assert_eq!(cold, warm, "same seed must reproduce the same run");
    assert!(
        scratch.event_queue_high_water() <= 16,
        "the budget must bound the queue high-water mark"
    );
    assert!(
        stats.is_allocation_free(),
        "warm budget-capped async dissemination allocated: {stats:?}"
    );
}

#[test]
fn warm_push_pull_dissemination_is_allocation_free() {
    let (overlay, origin) = warmed_overlay(3);
    // RandCast at fanout 2 leaves misses for the pull phase to close, so
    // the pull rounds actually execute.
    let selector = DenseSelector::randcast(2);
    let config = PullConfig {
        fanout: 2,
        max_rounds: 30,
        ..PullConfig::default()
    };
    let mut scratch = DensePullScratch::new();

    let cold = disseminate_push_pull_dense(
        &overlay,
        &selector,
        origin,
        &config,
        &mut rng(11),
        &mut scratch,
    );
    assert!(cold.pull_rounds > 0, "the pull phase must actually run");
    let (warm, stats) = measure(|| {
        disseminate_push_pull_dense(
            &overlay,
            &selector,
            origin,
            &config,
            &mut rng(11),
            &mut scratch,
        )
    });

    assert_eq!(cold, warm, "same seed must reproduce the same run");
    assert!(
        stats.is_allocation_free(),
        "warm push-pull dissemination allocated: {stats:?}"
    );
}

#[test]
fn warm_dense_sim_epoch_is_allocation_free() {
    let mut net = DenseSimNetwork::new(
        SimConfig {
            nodes: NODES,
            ..SimConfig::default()
        },
        4,
    );
    // Cold phase: grow every view arena and scratch buffer to steady state.
    net.run_cycles(30);

    let (_, stats) = measure(|| net.run_cycles(5));
    assert!(
        stats.is_allocation_free(),
        "warm DenseSimNetwork epoch allocated: {stats:?}"
    );

    // The same under churn: a joiner gossips in the cycle it arrives with a
    // one-entry Cyclon view and an empty Vicinity view, so these cycles run
    // the Vicinity selection with fewer candidates than it keeps, the
    // random-partner draw and the dead-partner removal. The churn step
    // itself returns the ids it touched (it allocates, by contract), so only
    // the gossip cycle after it is measured.
    let mut driver = ChurnDriver::new(ChurnConfig { rate: 0.05 });
    driver.run_cycles(&mut net, 10);
    for _ in 0..5 {
        let (_, added) = driver.apply_churn_step(&mut net);
        assert_eq!(added.len(), NODES / 20);
        assert!(
            added.iter().all(|&id| net.r_links(id).len() == 1),
            "joiners start from their introducer alone"
        );
        let (_, stats) = measure(|| net.run_cycles(1));
        assert!(
            stats.is_allocation_free(),
            "warm DenseSimNetwork epoch under churn allocated: {stats:?}"
        );
    }
    assert_eq!(net.len(), NODES);
    assert_eq!(net.slot_capacity(), NODES, "churn recycles slots");
}

#[test]
fn warm_per_node_frontier_cycle_is_allocation_free() {
    // The sparse-frontier kernel (`--rng per-node`) is held to the same
    // contract: once the bucket ring, frontier stack, request/reply lanes
    // and worker scratch have reached steady state, a cycle must not touch
    // the heap. `threads: 1` exercises the parallel kernel's inline path —
    // spawning scoped threads allocates, so the single-worker case runs
    // its workers in place and stays on the zero-alloc contract.
    let mut net = DenseSimNetwork::new_per_node(
        SimConfig {
            nodes: NODES,
            ..SimConfig::default()
        },
        4,
        4, // gossip period: each cycle steps ~1/4 of the population
        1,
    );
    // Cold phase: enough full periods for every bucket of the ring and
    // every lane to hit its steady-state capacity.
    net.run_cycles(40);

    // Measure two full periods so every bucket of the ring is drained and
    // refilled at least once inside the measured window.
    let (_, stats) = measure(|| net.run_cycles(8));
    assert!(
        stats.is_allocation_free(),
        "warm per-node frontier cycle allocated: {stats:?}"
    );
}
