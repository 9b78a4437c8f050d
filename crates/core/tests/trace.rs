//! Trace-stream tests for the probe layer: the golden fixture that pins
//! the event schema, the differential properties that pin dense/BTree
//! stream equality, and the JSONL round-trip.
//!
//! The dense engines and their id-keyed oracles must emit **identical**
//! event streams per seed — events carry raw node ids precisely so the
//! memory layout is invisible in the trace. These tests are the
//! observability counterpart of the report differentials in
//! `tests/properties.rs`.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use hybridcast_core::async_engine::{
    disseminate_async_dense_probed, AsyncConfig, DenseAsyncScratch,
};
use hybridcast_core::engine::{disseminate_dense_probed, DenseScratch};
use hybridcast_core::netmodel::{LossModel, NetModel};
use hybridcast_core::overlay::{DenseOverlay, Overlay};
use hybridcast_core::protocols::DenseSelector;
use hybridcast_core::pull::{disseminate_push_pull_dense_probed, DensePullScratch, PullConfig};
use hybridcast_graph::{builders, NodeId};
use hybridcast_obs::{
    parse_jsonl, DeliveryOutcome, JsonlProbe, TraceEvent, VecProbe, SCHEMA_VERSION,
};
use hybridcast_oracle::{disseminate, disseminate_async, disseminate_push_pull, StaticOverlay};

fn ids(count: u64) -> Vec<NodeId> {
    (0..count).map(NodeId::new).collect()
}

/// The protocol the differentials sweep at index `protocol_idx`.
fn protocol(protocol_idx: usize, fanout: usize) -> DenseSelector {
    match protocol_idx {
        0 => DenseSelector::randcast(fanout),
        1 => DenseSelector::ringcast(fanout),
        2 => DenseSelector::Flooding,
        _ => DenseSelector::DeterministicFlooding,
    }
}

/// Pins the exact event stream of a fully deterministic run: a 4-node
/// bidirectional ring flooded along its deterministic links. Any change to
/// event ordering, hop accounting or field semantics lands here first and
/// requires a [`SCHEMA_VERSION`] review.
#[test]
fn golden_trace_deterministic_flood_on_a_4_ring() {
    let nodes = ids(4);
    let overlay = StaticOverlay::deterministic(&builders::bidirectional_ring(&nodes));
    let mut probe = VecProbe::new();
    let report = disseminate(
        &overlay,
        &DenseSelector::DeterministicFlooding,
        nodes[0],
        &mut ChaCha8Rng::seed_from_u64(0),
        &mut probe,
    );
    assert!(report.is_complete());

    use DeliveryOutcome::{Duplicate, Virgin};
    use TraceEvent::{Delivered, HopEnd, RunEnd, RunStart, Sent};
    let expected = vec![
        RunStart {
            origin: 0,
            population: 4,
        },
        // Hop 0: the origin delivers to itself.
        Delivered {
            node: 0,
            from: 0,
            hop: 0,
            outcome: Virgin,
        },
        // Hop 1: node 0 floods both ring neighbours.
        Sent {
            from: 0,
            to: 1,
            hop: 1,
        },
        Delivered {
            node: 1,
            from: 0,
            hop: 1,
            outcome: Virgin,
        },
        Sent {
            from: 0,
            to: 3,
            hop: 1,
        },
        Delivered {
            node: 3,
            from: 0,
            hop: 1,
            outcome: Virgin,
        },
        HopEnd {
            hop: 1,
            new: 2,
            messages: 2,
        },
        // Hop 2: 1 and 3 forward onward (never back to their sender);
        // both reach node 2, the second arrival a duplicate.
        Sent {
            from: 1,
            to: 2,
            hop: 2,
        },
        Delivered {
            node: 2,
            from: 1,
            hop: 2,
            outcome: Virgin,
        },
        Sent {
            from: 3,
            to: 2,
            hop: 2,
        },
        Delivered {
            node: 2,
            from: 3,
            hop: 2,
            outcome: Duplicate,
        },
        HopEnd {
            hop: 2,
            new: 1,
            messages: 2,
        },
        // Hop 3: node 2 forwards past its sender to 3, a duplicate; the
        // frontier dies and the run ends.
        Sent {
            from: 2,
            to: 3,
            hop: 3,
        },
        Delivered {
            node: 3,
            from: 2,
            hop: 3,
            outcome: Duplicate,
        },
        HopEnd {
            hop: 3,
            new: 0,
            messages: 1,
        },
        RunEnd { reached: 4 },
    ];
    assert_eq!(probe.events, expected);
}

proptest! {
    /// The hop-synchronous dense engine and its id-keyed oracle emit
    /// identical event streams (and reports) for every protocol and seed.
    #[test]
    fn sync_dense_and_btree_emit_identical_event_streams(
        n in 8u64..40,
        degree in 2usize..6,
        overlay_seed in 0u64..500,
        run_seed in 0u64..500,
        protocol_idx in 0usize..4,
        fanout in 1usize..5,
    ) {
        let sparse = StaticOverlay::hybrid(n, degree, overlay_seed);
        let dense = DenseOverlay::from(&sparse);
        let origin = sparse.live_node_ids()[0];
        let selector = protocol(protocol_idx, fanout);

        let mut sparse_probe = VecProbe::new();
        let sparse_report = disseminate(
            &sparse,
            &selector,
            origin,
            &mut ChaCha8Rng::seed_from_u64(run_seed),
            &mut sparse_probe,
        );
        let mut dense_probe = VecProbe::new();
        let mut scratch = DenseScratch::new();
        let dense_report = disseminate_dense_probed(
            &dense,
            &selector,
            origin,
            &mut ChaCha8Rng::seed_from_u64(run_seed),
            &mut scratch,
            &mut dense_probe,
        )
        .report(&dense, &scratch);

        prop_assert_eq!(sparse_report, dense_report);
        prop_assert_eq!(sparse_probe.events, dense_probe.events);
    }

    /// Same equality for the event-driven latency engine, under a lossy
    /// network model so `DroppedLoss` events are exercised too.
    #[test]
    fn async_dense_and_frozen_emit_identical_event_streams(
        n in 8u64..32,
        degree in 2usize..6,
        overlay_seed in 0u64..500,
        run_seed in 0u64..500,
        fanout in 1usize..5,
        loss_centi in 0u64..40,
    ) {
        let sparse = StaticOverlay::hybrid(n, degree, overlay_seed);
        let dense = DenseOverlay::from(&sparse);
        let origin = sparse.live_node_ids()[0];
        let config = AsyncConfig {
            run_membership_gossip: false,
            net: NetModel {
                loss: LossModel::Iid { rate: loss_centi as f64 / 100.0 },
                ..NetModel::default()
            },
            ..AsyncConfig::default()
        };

        let mut frozen_probe = VecProbe::new();
        let frozen_report = disseminate_async(
            &sparse,
            &DenseSelector::ringcast(fanout),
            origin,
            &config,
            &mut ChaCha8Rng::seed_from_u64(run_seed),
            &mut frozen_probe,
        );
        let mut dense_probe = VecProbe::new();
        let mut scratch = DenseAsyncScratch::new();
        let dense_report = disseminate_async_dense_probed(
            &dense,
            &DenseSelector::ringcast(fanout),
            origin,
            &config,
            &mut ChaCha8Rng::seed_from_u64(run_seed),
            &mut scratch,
            &mut dense_probe,
        )
        .report(&dense, &config, &scratch);

        prop_assert_eq!(frozen_report, dense_report);
        prop_assert_eq!(frozen_probe.events, dense_probe.events);
    }

    /// And for the push–pull engine, whose pull phase emits the poll
    /// events (`PullRequest`, `PullTransfer`, `RoundEnd`).
    #[test]
    fn push_pull_dense_and_btree_emit_identical_event_streams(
        n in 8u64..32,
        degree in 2usize..6,
        overlay_seed in 0u64..500,
        run_seed in 0u64..500,
        fanout in 1usize..4,
    ) {
        let sparse = StaticOverlay::hybrid(n, degree, overlay_seed);
        let dense = DenseOverlay::from(&sparse);
        let origin = sparse.live_node_ids()[0];
        let config = PullConfig { fanout, max_rounds: 20 };

        let mut sparse_probe = VecProbe::new();
        let sparse_report = disseminate_push_pull(
            &sparse,
            &DenseSelector::randcast(fanout),
            origin,
            &config,
            &mut ChaCha8Rng::seed_from_u64(run_seed),
            &mut sparse_probe,
        );
        let mut dense_probe = VecProbe::new();
        let mut scratch = DensePullScratch::new();
        let dense_report = disseminate_push_pull_dense_probed(
            &dense,
            &DenseSelector::randcast(fanout),
            origin,
            &config,
            &mut ChaCha8Rng::seed_from_u64(run_seed),
            &mut scratch,
            &mut dense_probe,
        )
        .report(&dense, &scratch);

        prop_assert_eq!(sparse_report, dense_report);
        prop_assert_eq!(sparse_probe.events, dense_probe.events);
    }

    /// Writing a run through the JSONL exporter and parsing it back yields
    /// the in-memory stream exactly (plus the leading `Schema` header).
    #[test]
    fn jsonl_round_trip_preserves_every_event(
        n in 8u64..32,
        overlay_seed in 0u64..500,
        run_seed in 0u64..500,
        fanout in 1usize..5,
    ) {
        let sparse = StaticOverlay::hybrid(n, 4, overlay_seed);
        let origin = sparse.live_node_ids()[0];

        let mut vec_probe = VecProbe::new();
        disseminate(
            &sparse,
            &DenseSelector::ringcast(fanout),
            origin,
            &mut ChaCha8Rng::seed_from_u64(run_seed),
            &mut vec_probe,
        );
        let mut jsonl = JsonlProbe::new(Vec::new()).unwrap();
        disseminate(
            &sparse,
            &DenseSelector::ringcast(fanout),
            origin,
            &mut ChaCha8Rng::seed_from_u64(run_seed),
            &mut jsonl,
        );
        let bytes = jsonl.finish().unwrap();
        let text = std::str::from_utf8(&bytes).unwrap();
        let parsed = parse_jsonl(text).unwrap();

        prop_assert_eq!(parsed[0], TraceEvent::Schema { version: SCHEMA_VERSION });
        prop_assert_eq!(&parsed[1..], &vec_probe.events[..]);
    }
}
