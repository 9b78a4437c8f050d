//! Node descriptors exchanged by the membership protocols.

use serde::{Deserialize, Serialize};

use hybridcast_graph::NodeId;

/// An entry of a partial view: a pointer to another node, the gossip age of
/// that pointer, and the node's application profile.
///
/// * The **age** counts gossip cycles since the descriptor was created by
///   the node it points to. Cyclon uses it to prefer exchanging with the
///   oldest neighbour (which bounds how stale a link may become and flushes
///   dead links out of the overlay).
/// * The **profile** is the payload the proximity layer ranks on. For the
///   RingCast ring it is the node's random ring position
///   ([`crate::proximity::RingPosition`]); pure Cyclon deployments use `()`.
///
/// # Example
///
/// ```
/// use hybridcast_membership::Descriptor;
/// use hybridcast_graph::NodeId;
///
/// let mut d = Descriptor::new(NodeId::new(3), 0xAABBu64);
/// assert_eq!(d.age, 0);
/// d.increment_age();
/// assert_eq!(d.age, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Descriptor<P> {
    /// The node this descriptor points to.
    pub id: NodeId,
    /// Number of gossip cycles since the pointed-to node created this
    /// descriptor about itself.
    pub age: u32,
    /// Application profile of the pointed-to node (ring position, domain
    /// key, ...).
    pub profile: P,
}

impl<P> Descriptor<P> {
    /// Creates a fresh descriptor (age 0) for `id` with the given profile.
    pub fn new(id: NodeId, profile: P) -> Self {
        Descriptor {
            id,
            age: 0,
            profile,
        }
    }

    /// Creates a descriptor with an explicit age.
    pub fn with_age(id: NodeId, age: u32, profile: P) -> Self {
        Descriptor { id, age, profile }
    }

    /// Increments the age by one cycle (saturating).
    pub fn increment_age(&mut self) {
        self.age = self.age.saturating_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_descriptor_has_zero_age() {
        let d = Descriptor::new(NodeId::new(1), ());
        assert_eq!(d.age, 0);
        assert_eq!(d.id, NodeId::new(1));
    }

    #[test]
    fn age_increments_and_saturates() {
        let mut d = Descriptor::with_age(NodeId::new(1), u32::MAX - 1, ());
        d.increment_age();
        assert_eq!(d.age, u32::MAX);
        d.increment_age();
        assert_eq!(d.age, u32::MAX, "age saturates instead of wrapping");
    }
}
