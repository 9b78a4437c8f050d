//! Hybrid probabilistic/deterministic dissemination protocols.
//!
//! This crate is the primary contribution of the reproduced paper
//! ("Hybrid Dissemination: Adding Determinism to Probabilistic Multicasting
//! in Large-Scale P2P Systems", Middleware 2007): push-based epidemic
//! dissemination protocols evaluated over overlays produced by the
//! membership layer.
//!
//! * [`overlay::Overlay`] — the read-only view of an overlay a
//!   dissemination needs: which nodes are alive, and each node's random
//!   links (r-links) and deterministic links (d-links).
//! * [`protocols`] — the paper's `selectGossipTargets` pseudo-code as one
//!   function, [`protocols::DenseSelector::select`], over a node's link
//!   slices, with one variant per protocol: flooding (deterministic
//!   dissemination, Section 3), RandCast (purely probabilistic, Section 4)
//!   and RingCast (hybrid, Section 5). RingCast generalises transparently
//!   to multi-ring and Harary-graph d-link sets (the reliability extension
//!   of Section 8).
//! * [`engine`] — the hop-synchronous dissemination model of Section 7:
//!   hop 0 is the origin, hop `k + 1` notifies the gossip targets of every
//!   node first notified at hop `k`. Two implementations share the model:
//!   the generic [`engine::disseminate`] over any [`overlay::Overlay`], and
//!   the allocation-free [`engine::disseminate_dense`] over a CSR
//!   [`overlay::DenseOverlay`], which returns `Copy` statistics and
//!   materialises the bit-identical report on request
//!   ([`engine::DenseRunStats::report`]) — orders of magnitude apart in
//!   throughput.
//! * [`metrics`] — per-dissemination accounting: hit/miss ratio,
//!   completeness, per-hop progress, virgin vs. redundant messages, load
//!   distribution.
//! * [`experiment`] — repetition and aggregation helpers used by the
//!   figure-reproduction harnesses.
//! * [`pull`] — the pull-based anti-entropy extension the paper leaves as
//!   future work: a push phase followed by periodic pull rounds, as the
//!   id-keyed oracle [`pull::disseminate_push_pull`] and the
//!   allocation-free [`pull::disseminate_push_pull_dense`].
//! * [`async_engine`] — the event-driven latency-model engines with
//!   configurable forwarding delays, used to validate the Section 7.1
//!   claim that the frozen-overlay simplification is harmless:
//!   [`async_engine::disseminate_async`] (live membership gossip) and
//!   [`async_engine::disseminate_async_frozen`] (frozen oracle) — one
//!   id-keyed event loop over two link sources — and the allocation-free
//!   [`async_engine::disseminate_async_dense`].
//! * [`sched`] — the calendar/ladder event queue behind the async engines:
//!   `O(1)` near-future bucket insertion, an exact `(time, seq)` pop-order
//!   contract pinned against a retained-heap oracle, a heap-ordered
//!   overflow tier for the delay distribution's tail, and an explicit
//!   event memory budget ([`sched::SchedConfig`]) that lets million-node
//!   runs gate under a fixed resident-memory ceiling.
//! * [`netmodel`] — adversarial network models threaded through the async
//!   and pull engines: heavy-tailed and bimodal delay distributions,
//!   i.i.d. and Gilbert–Elliott bursty loss, and scripted partition/heal
//!   timelines, all seed-reproducible off the per-run RNG streams. The
//!   default model is bit-identical to the engines without it.
//!
//! Every dissemination mode thus ships as a matched pair — a readable
//! id-keyed BTree engine that serves as the oracle, and a dense CSR
//! engine over reusable scratch that returns `Copy` statistics without
//! touching the allocator and whose `report(..)` method materialises the
//! oracle's report bit for bit per seed (pinned by differential property
//! tests) at a fraction of the cost:
//!
//! | mode | BTree oracle | dense hot path |
//! |---|---|---|
//! | hop-synchronous push | [`engine::disseminate`] | [`engine::disseminate_dense`] |
//! | async latency model | [`async_engine::disseminate_async_frozen`] | [`async_engine::disseminate_async_dense`] |
//! | push + pull anti-entropy | [`pull::disseminate_push_pull`] | [`pull::disseminate_push_pull_dense`] |
//!
//! # Example: RingCast beats RandCast at equal fanout
//!
//! ```
//! use hybridcast_core::engine::disseminate;
//! use hybridcast_core::overlay::{Overlay, SnapshotOverlay};
//! use hybridcast_core::protocols::DenseSelector;
//! use hybridcast_sim::{Network, SimConfig};
//! use rand::SeedableRng;
//!
//! let mut net = Network::new(SimConfig { nodes: 300, ..SimConfig::default() }, 1);
//! net.run_cycles(120);
//! let overlay = SnapshotOverlay::new(net.overlay_snapshot());
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
//!
//! let origin = overlay.live_node_ids()[0];
//! let ringcast = disseminate(&overlay, &DenseSelector::ringcast(3), origin, &mut rng);
//! let randcast = disseminate(&overlay, &DenseSelector::randcast(3), origin, &mut rng);
//! assert_eq!(ringcast.miss_ratio(), 0.0, "RingCast is complete in fail-free networks");
//! assert!(ringcast.hit_ratio() >= randcast.hit_ratio());
//! ```

#![warn(missing_docs)]

pub mod async_engine;
pub mod engine;
pub mod experiment;
pub mod message;
pub mod metrics;
pub mod netmodel;
pub mod overlay;
pub mod protocols;
pub mod pull;
pub mod sched;

pub use async_engine::{
    disseminate_async, disseminate_async_dense, disseminate_async_dense_probed,
    disseminate_async_frozen, disseminate_async_frozen_probed, AsyncConfig, AsyncReport,
    DenseAsyncScratch,
};
pub use engine::{disseminate, disseminate_dense, disseminate_dense_probed, DenseScratch};
pub use experiment::{
    run_seed, run_seeded_async, run_seeded_async_probed, run_seeded_disseminations,
    run_seeded_disseminations_probed, run_seeded_push_pulls, stream_seed,
};
pub use metrics::DisseminationReport;
pub use netmodel::{DelayModel, LossModel, NetModel, PartitionEvent};
pub use overlay::{DenseOverlay, Overlay, SnapshotOverlay, StaticOverlay};
pub use protocols::DenseSelector;
pub use pull::{
    disseminate_push_pull, disseminate_push_pull_dense, disseminate_push_pull_dense_probed,
    disseminate_push_pull_probed, DensePullScratch, PullConfig, PushPullReport,
};
pub use sched::{CalendarQueue, HeapQueue, SchedConfig, Scheduled};
