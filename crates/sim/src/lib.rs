//! Cycle-driven P2P simulator for the hybridcast workspace.
//!
//! This crate plays the role PeerSim plays in the paper: it hosts a
//! population of nodes, drives the cycle-based membership protocols (Cyclon
//! and Vicinity), injects failures and churn, and hands frozen overlay
//! snapshots to the dissemination engine in `hybridcast-core`.
//!
//! The runtime is [`dense::DenseSimNetwork`], an arena-based epoch
//! simulation over flat slot arenas (slab + free-list, fixed-stride views,
//! liveness bitset) that runs allocation-free per cycle:
//!
//! * [`dense::DenseSimNetwork::new`] boots `n` nodes with the star topology
//!   the paper uses (every initial node knows a single introducer),
//! * [`dense::DenseSimNetwork::run_cycles`] executes gossip cycles — every
//!   live node initiates one Cyclon shuffle and one Vicinity exchange per
//!   cycle, in a random order, exactly like PeerSim's cycle-driven mode,
//! * [`failure`] removes a random fraction of nodes at once (catastrophic
//!   failure, Section 7.2),
//! * [`churn`] applies the artificial churn model of Section 7.3 (a fixed
//!   percentage of nodes replaced per cycle),
//! * [`dense::DenseSimNetwork::flat_links`] exports the current r-link /
//!   d-link graphs straight to the dense dissemination engine, and
//!   [`dense::DenseSimNetwork::overlay_snapshot`] as an id-keyed
//!   [`snapshot::OverlaySnapshot`].
//!
//! The churn and failure policies drive any [`runtime::GossipRuntime`].
//! The test-only `hybridcast-oracle` crate implements it for its id-keyed
//! runtime (one `BTreeMap` entry per node), which the differential tests
//! check this one against bit for bit per seed.
//!
//! All randomness flows through a caller-provided seed, so every experiment
//! is reproducible.
//!
//! # Example
//!
//! ```
//! use hybridcast_sim::{DenseSimNetwork, SimConfig};
//!
//! let config = SimConfig { nodes: 50, ..SimConfig::default() };
//! let mut net = DenseSimNetwork::new(config, 42);
//! net.run_cycles(30);
//! let snapshot = net.overlay_snapshot();
//! assert_eq!(snapshot.live_nodes().count(), 50);
//! ```

#![warn(missing_docs)]

pub(crate) mod arena;
pub mod churn;
pub mod config;
pub mod dense;
pub mod failure;
pub mod frontier;
pub mod runtime;
pub mod snapshot;

pub use config::SimConfig;
pub use dense::{DenseSimNetwork, FlatLinks};
pub use frontier::{stream_seed, RngMode};
pub use runtime::GossipRuntime;
pub use snapshot::OverlaySnapshot;
