//! Cycle-driven P2P simulator for the hybridcast workspace.
//!
//! This crate plays the role PeerSim plays in the paper: it hosts a
//! population of nodes, drives the cycle-based membership protocols (Cyclon
//! and Vicinity), injects failures and churn, and hands frozen overlay
//! snapshots to the dissemination engine in `hybridcast-core`.
//!
//! The main entry point is [`network::Network`]:
//!
//! * [`network::Network::new`] boots `n` nodes with the star topology the
//!   paper uses (every initial node knows a single introducer),
//! * [`network::Network::run_cycles`] executes gossip cycles — every live
//!   node initiates one Cyclon shuffle and one Vicinity exchange per cycle,
//!   in a random order, exactly like PeerSim's cycle-driven mode,
//! * [`failure`] removes a random fraction of nodes at once (catastrophic
//!   failure, Section 7.2),
//! * [`churn`] applies the artificial churn model of Section 7.3 (a fixed
//!   percentage of nodes replaced per cycle),
//! * [`network::Network::overlay_snapshot`] exports the current r-link /
//!   d-link graphs for dissemination experiments.
//!
//! For large populations the crate also ships an arena-based epoch runtime,
//! [`dense::DenseSimNetwork`]: the same simulation over flat slot arenas
//! (slab + free-list, fixed-stride views, liveness bitset) that runs
//! allocation-free per cycle and exports flat link arrays straight to the
//! dense dissemination engine. It is **bit-identical** to
//! [`network::Network`] per seed — the id-keyed runtime doubles as the
//! differential-testing oracle — and both are driven through the shared
//! [`runtime::GossipRuntime`] trait, so every churn / failure policy works
//! on either.
//!
//! All randomness flows through a caller-provided seed, so every experiment
//! is reproducible.
//!
//! # Example
//!
//! ```
//! use hybridcast_sim::config::SimConfig;
//! use hybridcast_sim::network::Network;
//!
//! let config = SimConfig { nodes: 50, ..SimConfig::default() };
//! let mut net = Network::new(config, 42);
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
pub mod network;
pub mod runtime;
pub mod snapshot;

pub use config::SimConfig;
pub use dense::{DenseSimNetwork, FlatLinks};
pub use frontier::{stream_seed, RngMode};
pub use network::Network;
pub use runtime::GossipRuntime;
pub use snapshot::OverlaySnapshot;
