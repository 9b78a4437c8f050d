//! Hybrid probabilistic/deterministic dissemination protocols.
//!
//! This crate is the primary contribution of the reproduced paper
//! ("Hybrid Dissemination: Adding Determinism to Probabilistic Multicasting
//! in Large-Scale P2P Systems", Middleware 2007): push-based epidemic
//! dissemination protocols evaluated over overlays produced by the
//! membership layer.
//!
//! * [`overlay::DenseOverlay`] — the frozen overlay a dissemination runs
//!   over: which nodes are alive, and each node's random links (r-links)
//!   and deterministic links (d-links), in compressed-sparse-row form.
//! * [`protocols`] — the paper's `selectGossipTargets` pseudo-code as one
//!   function, [`protocols::DenseSelector::select`], over a node's link
//!   slices, with one variant per protocol: flooding (deterministic
//!   dissemination, Section 3), RandCast (purely probabilistic, Section 4)
//!   and RingCast (hybrid, Section 5). RingCast generalises transparently
//!   to multi-ring and Harary-graph d-link sets (the reliability extension
//!   of Section 8).
//! * [`engine`] — the hop-synchronous dissemination model of Section 7:
//!   hop 0 is the origin, hop `k + 1` notifies the gossip targets of every
//!   node first notified at hop `k`.
//! * [`metrics`] — per-dissemination accounting: hit/miss ratio,
//!   completeness, per-hop progress, virgin vs. redundant messages, load
//!   distribution.
//! * [`experiment`] — the seeded, thread-count-invariant repetition
//!   drivers and the aggregation the figure harnesses use.
//! * [`pull`] — the pull-based anti-entropy extension the paper leaves as
//!   future work: a push phase followed by periodic pull rounds.
//! * [`async_engine`] — the event-driven latency-model engine with
//!   configurable forwarding delays, used to check the Section 7.1 claim
//!   that the frozen-overlay simplification is harmless.
//! * [`sched`] — the calendar/ladder event queue behind the async engine:
//!   `O(1)` near-future bucket insertion, an exact pop-order contract
//!   (ascending time, ties in insertion order) pinned against a
//!   retained-heap oracle, a heap-ordered overflow tier for the delay
//!   distribution's tail, and an explicit event memory budget ([`sched::SchedConfig`]) that lets million-node
//!   runs gate under a fixed resident-memory ceiling.
//! * [`netmodel`] — adversarial network models threaded through the async
//!   engine: a heavy-tailed log-normal delay distribution, i.i.d. loss and
//!   one scripted bisection that heals, all seed-reproducible off the
//!   per-run RNG streams. The default model is bit-identical to the engine
//!   without it.
//!
//! Every dissemination mode ships as one dense engine over a CSR
//! [`overlay::DenseOverlay`] and reusable scratch: it returns `Copy`
//! statistics without touching the allocator, and their `report(..)`
//! method materialises the id-keyed report. Each engine has a readable
//! `BTreeMap` twin in the test-only `hybridcast-oracle` crate, which the
//! differential property tests check it against bit for bit per seed:
//!
//! | mode | dense engine |
//! |---|---|
//! | hop-synchronous push | [`engine::disseminate_dense`] |
//! | async latency model | [`async_engine::disseminate_async_dense`] |
//! | push + pull anti-entropy | [`pull::disseminate_push_pull_dense`] |
//!
//! # Example: RingCast beats RandCast at equal fanout
//!
//! ```
//! use hybridcast_core::experiment::run_seeded_disseminations;
//! use hybridcast_core::overlay::DenseOverlay;
//! use hybridcast_core::protocols::DenseSelector;
//! use hybridcast_core::DisseminationReport;
//! use hybridcast_sim::{DenseSimNetwork, SimConfig};
//!
//! let mut net = DenseSimNetwork::new(SimConfig { nodes: 300, ..SimConfig::default() }, 1);
//! net.run_cycles(120);
//! let overlay = DenseOverlay::from_dense_sim(&net);
//!
//! // 5 runs from seeded random origins, on 1 thread.
//! let runs = |selector: DenseSelector| run_seeded_disseminations(&overlay, &selector, 5, 2, 1);
//! let (ringcast, randcast) = (runs(DenseSelector::ringcast(3)), runs(DenseSelector::randcast(3)));
//! assert!(ringcast.iter().all(DisseminationReport::is_complete), "complete without failures");
//! let hits = |reports: &[DisseminationReport]| reports.iter().map(|r| r.hit_ratio()).sum::<f64>();
//! assert!(hits(&ringcast) >= hits(&randcast));
//! ```

#![warn(missing_docs)]

pub mod async_engine;
pub mod engine;
pub mod experiment;
pub mod metrics;
pub mod netmodel;
pub mod overlay;
pub mod protocols;
pub mod pull;
pub mod sched;

pub use async_engine::{
    disseminate_async_dense, disseminate_async_dense_probed, AsyncConfig, AsyncReport,
    DenseAsyncScratch,
};
pub use engine::{disseminate_dense, disseminate_dense_probed, DenseScratch};
pub use experiment::{
    run_seed, run_seeded_async, run_seeded_async_probed, run_seeded_disseminations,
    run_seeded_disseminations_probed, run_seeded_push_pulls, stream_seed,
};
pub use metrics::DisseminationReport;
pub use netmodel::{DelayModel, LossModel, NetModel, PartitionEvent};
pub use overlay::{DenseOverlay, Overlay, SnapshotOverlay};
pub use protocols::DenseSelector;
pub use pull::{
    disseminate_push_pull_dense, disseminate_push_pull_dense_probed, DensePullScratch, PullConfig,
    PushPullReport,
};
pub use sched::{CalendarQueue, SchedConfig, Scheduled};
