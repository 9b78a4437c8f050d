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
//! Each node thread is a shell around one
//! `hybridcast_membership::NodeMachine`, the machine the id-keyed
//! reference simulator pumps in lock step, and forwards a fresh message to
//! the targets `hybridcast_core::protocols::DenseSelector::select` picks
//! over the machine's links (Cyclon view → r-links, ring neighbours →
//! d-links) — the asynchronous, wall-clock instantiation of the
//! event-driven latency model that `hybridcast_core::async_engine`
//! simulates with virtual timestamps.
//!
//! # Determinism boundary
//!
//! This is deliberately the **only** nondeterministic layer of the
//! workspace: the thread shell reads the wall clock, and thread scheduling
//! decides delivery order, so its tests assert convergence envelopes (e.g.
//! "≥ 14 of 16 nodes delivered") rather than exact traces. The machine
//! reads no clock and draws from the node's seeded `ChaCha8Rng`, so its
//! decisions are reproducible given an identical inbound frame sequence.
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
