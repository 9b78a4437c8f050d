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
//!
//! The one allocating step, `stats.report(..)`, is held to a weaker but
//! still size-independent contract: one allocation per non-empty `Vec`
//! field, never a reallocation, at every population.
//!
//! Two memory contracts use the allocator's live-byte high-water mark
//! instead of call counts: building a frozen overlay holds nothing at its
//! peak but the overlay itself, and booting a network costs a stated number
//! of bytes per slot.

use hybridcast::core::async_engine::{
    disseminate_async_dense, disseminate_async_dense_probed, AsyncConfig, DenseAsyncScratch,
};
use hybridcast::core::engine::{disseminate_dense, disseminate_dense_probed, DenseScratch};
use hybridcast::core::netmodel::{DelayModel, LossModel, NetModel};
use hybridcast::core::overlay::DenseOverlay;
use hybridcast::core::protocols::DenseSelector;
use hybridcast::core::pull::{disseminate_push_pull_dense, DensePullScratch, PullConfig};
use hybridcast::core::sched::SchedConfig;
use hybridcast::graph::{builders, NodeId};
use hybridcast::obs::{NullProbe, RingSink};
use hybridcast::sim::churn::{ChurnConfig, ChurnDriver};
use hybridcast::sim::{DenseSimNetwork, FlatLinks, SimConfig};
use hybridcast_testalloc::{measure, CountingAlloc};
use rand::{Rng, SeedableRng};
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
    // Exercise the full adversarial model path: heavy-tailed delays plus
    // i.i.d. loss, the worst case for hidden allocations.
    let config = AsyncConfig {
        run_membership_gossip: false,
        net: NetModel {
            delay: DelayModel::LogNormal {
                mu: 0.0,
                sigma: 1.25,
            },
            loss: LossModel::Iid { rate: 0.05 },
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

/// A RandCast-friendly overlay of `nodes` ids over a ring plus random
/// links, with every tenth node dead so the report has misses and dead
/// targets to account for.
fn failed_overlay(nodes: u64) -> (DenseOverlay, NodeId) {
    let ids: Vec<NodeId> = (0..nodes).map(NodeId::new).collect();
    let ring = builders::bidirectional_ring(&ids);
    let random = builders::random_out_degree(&ids, 6, &mut rng(nodes));
    let mut overlay = DenseOverlay::from_graphs(&ring, &random);
    for id in ids.iter().skip(5).step_by(10) {
        overlay.kill_node(*id);
    }
    (overlay, ids[0])
}

#[test]
fn report_allocations_do_not_grow_with_population() {
    // Each per-node list is reserved from the run's counts and filled in
    // one pass, so `report()` allocates once per non-empty `Vec` field —
    // the same count at 1,000 and at 4,000 nodes. A per-node map or an
    // unreserved push loop would allocate O(population) times and fail.
    let config = AsyncConfig {
        run_membership_gossip: false,
        ..AsyncConfig::default()
    };
    let mut sync_counts = Vec::new();
    let mut async_counts = Vec::new();
    for nodes in [1_000, 4_000] {
        let (overlay, origin) = failed_overlay(nodes);
        let selector = DenseSelector::randcast(2);

        let mut scratch = DenseScratch::new();
        let run = disseminate_dense(&overlay, &selector, origin, &mut rng(5), &mut scratch);
        let (report, stats) = measure(|| run.report(&overlay, &scratch));
        assert!(
            !report.unreached.is_empty(),
            "{nodes} nodes: the run must leave misses so every field is filled"
        );
        let filled = [
            report.per_hop_new.len(),
            report.per_hop_messages.len(),
            report.unreached.len(),
        ]
        .iter()
        .filter(|&&len| len > 0)
        .count();
        assert_eq!(stats.allocations, filled as u64, "{nodes} nodes: {stats:?}");
        assert_eq!(stats.reallocations, 0, "{nodes} nodes: {stats:?}");
        sync_counts.push(stats.allocations);

        let mut scratch = DenseAsyncScratch::new();
        let run = disseminate_async_dense(
            &overlay,
            &selector,
            origin,
            &config,
            &mut rng(5),
            &mut scratch,
        );
        let (report, stats) = measure(|| run.report(&overlay, &config, &scratch));
        let filled = [
            report.per_hop_messages.len(),
            report.notification_times.len(),
        ]
        .iter()
        .filter(|&&len| len > 0)
        .count();
        assert_eq!(stats.allocations, filled as u64, "{nodes} nodes: {stats:?}");
        assert_eq!(stats.reallocations, 0, "{nodes} nodes: {stats:?}");
        async_counts.push(stats.allocations);
    }
    assert_eq!(sync_counts, [3, 3], "one allocation per sync report field");
    assert_eq!(
        async_counts,
        [2, 2],
        "one allocation per async report field"
    );
}

/// The heap bytes a [`DenseOverlay`] needs, from its public shape: the id
/// array (8 B per node), the liveness bitset (one `u64` per 64 nodes), two
/// offset arrays (`len + 1` entries of 4 B each) and 4 B per link.
fn overlay_heap_bytes(overlay: &DenseOverlay) -> u64 {
    let n = overlay.len();
    let links: usize = (0..n as u32)
        .map(|i| overlay.r_links_of(i).len() + overlay.d_links_of(i).len())
        .sum();
    (n * 8 + n.div_ceil(64) * 8 + 2 * (n + 1) * 4 + links * 4) as u64
}

/// What an overlay build may hold at its peak beyond the overlay's own
/// bytes: a constant (a small vector's minimum capacity), never anything
/// that grows with the population — a copied `(id, r-links, d-links)`
/// entry per node would add 40 B per node.
const OVERLAY_BUILD_SLACK_BYTES: u64 = 1024;

#[test]
fn from_flat_links_holds_nothing_but_the_overlay_at_its_peak() {
    // A synthetic ring + random-links CSR, the shape of the million-node
    // async workload: six r-links and two d-links per node, no dead
    // targets.
    let nodes: u32 = 20_000;
    let mut draw = rng(20);
    let mut links = FlatLinks {
        ids: (0..u64::from(nodes)).map(NodeId::new).collect(),
        r_offsets: vec![0],
        r_targets: Vec::new(),
        d_offsets: vec![0],
        d_targets: Vec::new(),
    };
    for i in 0..nodes {
        for _ in 0..6 {
            let target = draw.gen_range(0..nodes);
            links.r_targets.push(NodeId::new(u64::from(target)));
        }
        for target in [(i + nodes - 1) % nodes, (i + 1) % nodes] {
            links.d_targets.push(NodeId::new(u64::from(target)));
        }
        links.r_offsets.push(links.r_targets.len() as u32);
        links.d_offsets.push(links.d_targets.len() as u32);
    }
    let (overlay, stats) = measure(|| DenseOverlay::from_flat_links(&links));
    assert_eq!(overlay.live_len(), nodes as usize);
    let own = overlay_heap_bytes(&overlay);
    assert!(
        stats.peak_live_bytes <= own + OVERLAY_BUILD_SLACK_BYTES,
        "from_flat_links peaked at {} B for a {own} B overlay",
        stats.peak_live_bytes
    );
    assert!(
        stats.peak_live_bytes >= own,
        "the high-water mark must see the overlay itself: {stats:?}"
    );
}

#[test]
fn from_dense_sim_holds_nothing_but_the_overlay_at_its_peak() {
    let mut net = DenseSimNetwork::new(
        SimConfig {
            nodes: 2_000,
            ..SimConfig::default()
        },
        21,
    );
    net.run_cycles(40);
    let (overlay, stats) = measure(|| DenseOverlay::from_dense_sim(&net));
    assert_eq!(overlay.live_len(), 2_000);
    let own = overlay_heap_bytes(&overlay);
    assert!(
        stats.peak_live_bytes <= own + OVERLAY_BUILD_SLACK_BYTES,
        "from_dense_sim peaked at {} B for a {own} B overlay",
        stats.peak_live_bytes
    );
    assert!(
        stats.peak_live_bytes >= own,
        "the high-water mark must see the overlay itself: {stats:?}"
    );
}

#[test]
fn booting_a_network_allocates_a_stated_number_of_bytes_per_slot() {
    let config = SimConfig {
        nodes: 2_000,
        ..SimConfig::default()
    };
    let (cyc, vic, rings) = (config.cyclon_view, config.vicinity_view, config.rings);
    // Per slot: `ids` (4 B), `joined` (8 B), `by_id` and `slot_of` (4 B
    // each), the ring keys (8 B per ring), the Cyclon row (4 B id + 4 B age
    // per entry, a 4 B length) and one Vicinity row per ring (the same).
    // The liveness bitset adds an eighth of a byte, and its doubling growth
    // at most as much again; one byte covers both. A ring key stored per
    // descriptor would add 8 B per Cyclon and Vicinity entry, and a `u64`
    // id 4 B per entry and slot.
    let per_slot = 4 + 8 + 4 + 4 + 8 * rings + (8 * cyc + 4) + rings * (8 * vic + 4) + 1;
    assert_eq!(
        per_slot, 357,
        "the default view lengths: cyc = vic = 20, one ring"
    );
    let (net, stats) = measure(|| DenseSimNetwork::new(config.clone(), 22));
    assert_eq!(net.slot_capacity(), config.nodes);
    let budget = (config.nodes * per_slot) as u64 + 1024;
    assert!(
        stats.bytes_allocated <= budget,
        "booting {} slots allocated {} B, budget {budget} B ({:.1} B per slot)",
        config.nodes,
        stats.bytes_allocated,
        stats.bytes_allocated as f64 / config.nodes as f64
    );
}

#[test]
fn resident_bytes_accounts_for_every_byte_a_boot_allocates() {
    let (net, stats) = measure(|| {
        DenseSimNetwork::new(
            SimConfig {
                nodes: 2_000,
                ..SimConfig::default()
            },
            23,
        )
    });
    let resident = net.resident_bytes() as u64;
    assert!(
        stats.bytes_allocated.abs_diff(resident) <= 1024,
        "resident_bytes() reads {resident} B, the boot allocated {} B",
        stats.bytes_allocated
    );
}
