//! Directed-graph substrate for the hybridcast dissemination library.
//!
//! This crate provides the graph-theoretic foundation that the rest of the
//! workspace builds on:
//!
//! * [`NodeId`] — a lightweight identifier for participating nodes,
//! * [`DiGraph`] — a directed graph (overlay snapshot) with adjacency lists,
//! * connectivity algorithms ([`connectivity`]) — reachability, strong
//!   connectivity, brute-force node-failure tolerance of small graphs,
//! * overlay constructors ([`builders`]) — ring, star, clique, random
//!   regular out-degree graphs, balanced trees,
//! * [`harary`] — Harary graphs `H(n, t)`, the minimal graphs that stay
//!   connected after `t - 1` node or link failures,
//! * [`sample`] — the shared partial Fisher–Yates draw every layer samples
//!   through (gossip targets, failure victims, random overlays).
//!
//! The paper reproduced by this workspace ("Hybrid Dissemination", Middleware
//! 2007) relies on the observation that a set of deterministic links forming
//! a strongly connected directed graph guarantees complete dissemination by
//! flooding; this crate supplies both the constructions (bidirectional ring,
//! Harary graphs) and the verification tools (strong connectivity) for that
//! claim.
//!
//! # Example
//!
//! ```
//! use hybridcast_graph::{builders, connectivity, NodeId};
//!
//! // A bidirectional ring over 8 nodes is strongly connected and
//! // survives any single node failure.
//! let ids: Vec<NodeId> = (0..8).map(NodeId::new).collect();
//! let ring = builders::bidirectional_ring(&ids);
//! assert!(connectivity::is_strongly_connected(&ring));
//! ```

#![warn(missing_docs)]

pub mod builders;
pub mod cast;
pub mod connectivity;
pub mod digraph;
pub mod harary;
pub mod node;
pub mod sample;

pub use digraph::DiGraph;
pub use node::NodeId;
