//! Epidemic membership management for the hybridcast workspace.
//!
//! Hybrid dissemination protocols (Section 5 of the Middleware 2007 paper)
//! need two kinds of links between nodes:
//!
//! * **r-links** — uniformly random links, supplied by a *peer sampling
//!   service*. This crate implements **Cyclon** ([`cyclon::CyclonNode`]), the
//!   peer-sampling instance used by the paper: nodes periodically *shuffle*
//!   part of their view with a neighbour, keeping the overlay close to a
//!   random graph.
//! * **d-links** — deterministic links forming a strongly connected
//!   structure; RingCast uses a global bidirectional ring. The ring is built
//!   and maintained by **Vicinity** ([`vicinity::VicinityNode`]), a
//!   proximity-driven topology-construction protocol: nodes keep the peers
//!   *closest* to them in an (arbitrary) circular identifier space, and the
//!   two closest — one on each side — become the ring neighbours.
//!
//! Both protocols are *cycle-driven*: once every cycle a node initiates an
//! exchange with one selected peer. The types here expose the three halves
//! of an exchange (`initiate…`, `handle…request`, `handle…response`);
//! [`node::NodeMachine`] sequences them into one node's cycle as a sans-IO
//! state machine, which the id-keyed reference simulator and the
//! message-passing node threads (`hybridcast-net`) both drive.
//!
//! # Quick example
//!
//! ```
//! use hybridcast_membership::{Descriptor, Gossip, NodeMachine};
//! use hybridcast_graph::NodeId;
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! // Node 1 boots knowing only node 0 (star-topology bootstrap); one ring,
//! // Cyclon and Vicinity views of 20 exchanging 5 descriptors.
//! let mut node = NodeMachine::new(NodeId::new(1), vec![200], (20, 5), Some((20, 5)));
//! node.add_contact(Descriptor::new(NodeId::new(0), vec![100]));
//!
//! let (target, request) = node.on_tick(&mut rng).expect("has a contact");
//! assert_eq!(target, NodeId::new(0));
//! let Gossip::ShuffleRequest(payload) = request else { panic!("a cycle opens with the shuffle") };
//! assert!(payload.iter().any(|d| d.id == NodeId::new(1)), "always advertises itself");
//! ```

#![warn(missing_docs)]

pub mod cyclon;
pub mod descriptor;
pub mod node;
pub mod proximity;
pub mod vicinity;
pub mod view;

pub use cyclon::CyclonNode;
pub use descriptor::Descriptor;
pub use node::{Gossip, NodeMachine};
pub use vicinity::VicinityNode;
pub use view::{oldest_descriptor_index, View};
