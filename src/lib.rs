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
//! use hybridcast::core::engine::{disseminate_dense, DenseScratch};
//! use hybridcast::core::overlay::{DenseOverlay, Overlay};
//! use hybridcast::core::protocols::DenseSelector;
//! use hybridcast::sim::{DenseSimNetwork, SimConfig};
//! use rand::SeedableRng;
//!
//! let mut net = DenseSimNetwork::new(SimConfig { nodes: 100, ..SimConfig::default() }, 7);
//! net.run_cycles(60);
//! let overlay = DenseOverlay::from_dense_sim(&net);
//! let origin = overlay.live_node_ids()[0];
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let mut scratch = DenseScratch::new();
//! let stats = disseminate_dense(&overlay, &DenseSelector::ringcast(3), origin, &mut rng, &mut scratch);
//! assert_eq!(stats.reached, stats.population, "RingCast is deterministic without failures");
//! ```

#![warn(missing_docs)]

pub use hybridcast_core as core;
pub use hybridcast_graph as graph;
pub use hybridcast_membership as membership;
pub use hybridcast_net as net;
pub use hybridcast_obs as obs;
pub use hybridcast_sim as sim;
