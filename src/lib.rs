//! Facade crate re-exporting the full hybridcast workspace.
//!
//! See the individual crates for details:
//! * [`hybridcast_graph`] — graph substrate,
//! * [`hybridcast_membership`] — Cyclon and Vicinity membership protocols,
//! * [`hybridcast_sim`] — cycle-driven simulator,
//! * [`hybridcast_core`] — dissemination protocols (RandCast, RingCast, ...),
//! * [`hybridcast_net`] — real-transport runtime,
//! * [`hybridcast_obs`] — zero-cost probe layer (trace events, metrics,
//!   stage profiling).
//!
//! # Example: warm an overlay, then disseminate with RingCast
//!
//! ```
//! use hybridcast::core::engine::disseminate;
//! use hybridcast::core::overlay::{Overlay, SnapshotOverlay};
//! use hybridcast::core::protocols::DenseSelector;
//! use hybridcast::sim::{Network, SimConfig};
//! use rand::SeedableRng;
//!
//! let mut net = Network::new(SimConfig { nodes: 100, ..SimConfig::default() }, 7);
//! net.run_cycles(60);
//! let overlay = SnapshotOverlay::new(net.overlay_snapshot());
//! let origin = overlay.live_node_ids()[0];
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let report = disseminate(&overlay, &DenseSelector::ringcast(3), origin, &mut rng);
//! assert!(report.is_complete(), "RingCast is deterministic without failures");
//! ```

#![warn(missing_docs)]

pub use hybridcast_core as core;
pub use hybridcast_graph as graph;
pub use hybridcast_membership as membership;
pub use hybridcast_net as net;
pub use hybridcast_obs as obs;
pub use hybridcast_sim as sim;
