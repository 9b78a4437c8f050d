//! Threaded message-passing runtime for the hybridcast dissemination
//! protocols.
//!
//! The paper evaluates RandCast and RingCast inside a cycle-driven simulator
//! (reproduced by `hybridcast-sim`). This crate demonstrates that the exact
//! same protocol implementations — Cyclon and Vicinity from
//! `hybridcast-membership`, the gossip-target selectors from
//! `hybridcast-core` — also run as message-passing processes: one thread
//! per node, exchanging frames over one in-process hub.
//!
//! * [`wire`] — the [`Frame`]s nodes exchange; a disseminated message
//!   travels as its [`wire::MessageId`] alone,
//! * [`transport`] — the [`InMemoryHub`], one `std::sync::mpsc` mailbox
//!   per node,
//! * [`node`] — a node running in its own thread: periodic Cyclon/Vicinity
//!   gossip plus reactive push dissemination,
//! * [`cluster`] — convenience orchestration: boot `n` nodes, let the
//!   overlay converge, publish messages, inspect who received what.
//!
//! # Where this crate sits
//!
//! The membership exchange halves and the selection rule
//! (`hybridcast_core::protocols::DenseSelector::select`) are *shared* with
//! the simulator: a node here reads the same links (Cyclon view → r-links,
//! `hybridcast_membership::vicinity::d_links` → d-links) that
//! `hybridcast_sim::DenseSimNetwork::overlay_snapshot` freezes, and pushes fresh
//! messages to the targets the selector picks — i.e. this runtime is the
//! asynchronous, wall-clock instantiation of the event-driven latency
//! model that `hybridcast_core::async_engine` simulates with virtual
//! timestamps. Anything added to the protocols (new proximity functions,
//! multi-ring d-links, new selectors) is automatically available here.
//!
//! # Determinism boundary
//!
//! This is deliberately the **only** nondeterministic layer of the
//! workspace: thread scheduling decides delivery order, so its tests
//! assert convergence envelopes (e.g. "≥ 14 of 16 nodes delivered") rather
//! than exact traces. Every quantitative claim
//! lives in the deterministic simulator + engine layers; this crate exists
//! to show the protocol code is not simulator-bound. Per-node state still
//! uses the same seeded `ChaCha8Rng`, so single-node protocol decisions
//! remain reproducible given an identical inbound frame sequence.
//!
//! # Scale expectations
//!
//! One OS thread per node bounds practical cluster sizes to the hundreds —
//! this is a demonstrator, not the million-node path (that is the arena
//! runtime + dense engines; see `docs/ARCHITECTURE.md`).
//!
//! # Example
//!
//! ```
//! use hybridcast_core::protocols::DenseSelector;
//! use hybridcast_net::cluster::{Cluster, ClusterConfig};
//! use std::time::Duration;
//!
//! let config = ClusterConfig {
//!     nodes: 16,
//!     gossip_interval: Duration::from_millis(5),
//!     selector: DenseSelector::ringcast(3),
//!     ..ClusterConfig::default()
//! };
//! let mut cluster = Cluster::start(config).expect("cluster boots");
//! cluster.run_for(Duration::from_millis(300));
//! let message = cluster.publish_from_first().expect("publish succeeds");
//! cluster.run_for(Duration::from_millis(200));
//! let delivered = cluster.delivery_count(message);
//! assert!(delivered >= 14, "only {delivered}/16 nodes got the message");
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod node;
pub mod transport;
pub mod wire;

pub use cluster::{Cluster, ClusterConfig};
pub use transport::InMemoryHub;
pub use wire::Frame;
