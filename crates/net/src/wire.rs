//! The frames node threads exchange over the hub.
//!
//! A frame carries either a membership message of the node's
//! [`NodeMachine`](hybridcast_membership::NodeMachine) or a dissemination
//! push. A disseminated message travels as its [`MessageId`] alone: a node
//! either has seen it or it has not.

use hybridcast_graph::NodeId;
use hybridcast_membership::Gossip;

/// Globally unique identity of a disseminated message.
///
/// A message is identified by its origin node and a per-origin sequence
/// number, which is how deployed gossip systems deduplicate without any
/// central coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MessageId {
    /// The node that generated the message.
    pub origin: NodeId,
    /// Sequence number assigned by the origin.
    pub sequence: u64,
}

impl MessageId {
    /// Creates a message id.
    pub const fn new(origin: NodeId, sequence: u64) -> Self {
        MessageId { origin, sequence }
    }
}

impl std::fmt::Display for MessageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.origin, self.sequence)
    }
}

/// A protocol frame exchanged between two nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A membership message, handed to the receiver's machine.
    Gossip {
        /// The sending node.
        from: NodeId,
        /// The message.
        msg: Gossip,
    },
    /// A disseminated message pushed from `from`.
    Dissemination {
        /// The forwarding node (not necessarily the origin).
        from: NodeId,
        /// The message's identity.
        id: MessageId,
    },
    /// Orderly termination of the receiving node's event loop.
    Shutdown,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_id_identity_and_display() {
        let a = MessageId::new(NodeId::new(3), 7);
        let b = MessageId::new(NodeId::new(3), 7);
        let c = MessageId::new(NodeId::new(3), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a < c);
        assert_eq!(a.to_string(), "n3#7");
    }
}
