//! Node identifiers.
//!
//! Every participant in an overlay is identified by a [`NodeId`], a thin
//! newtype around `u64`. Using a newtype (rather than a bare integer) keeps
//! node identities from being confused with other integer quantities such as
//! view indices, hop counts or ring positions.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a node participating in an overlay.
///
/// `NodeId`s are dense indices in simulator-driven experiments (node `k` of
/// an `N`-node network has id `k`), but nothing in the library relies on
/// density: identifiers only need to be unique.
///
/// # Example
///
/// ```
/// use hybridcast_graph::NodeId;
///
/// let a = NodeId::new(3);
/// let b = NodeId::new(7);
/// assert!(a < b);
/// assert_eq!(a.as_u64(), 3);
/// assert_eq!(format!("{a}"), "n3");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(u64);

impl NodeId {
    /// Creates a node identifier from a raw integer.
    pub const fn new(raw: u64) -> Self {
        NodeId(raw)
    }

    /// Returns the raw integer value of this identifier.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the raw value as a `usize`, useful for indexing dense arrays.
    ///
    /// # Panics
    ///
    /// Panics if the identifier does not fit in a `usize` (only possible on
    /// 32-bit and smaller targets with identifiers above `usize::MAX`).
    pub fn as_index(self) -> usize {
        usize::try_from(self.0).expect("node id does not fit in usize")
    }
}

impl From<u64> for NodeId {
    fn from(raw: u64) -> Self {
        NodeId(raw)
    }
}

impl From<NodeId> for u64 {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "D1: exercises NodeId's Hash impl with a std HashSet; no iteration order is observed"
)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn construction_and_accessors() {
        let id = NodeId::new(42);
        assert_eq!(id.as_u64(), 42);
        assert_eq!(id.as_index(), 42);
        assert_eq!(u64::from(id), 42);
        assert_eq!(NodeId::from(42u64), id);
    }

    #[test]
    fn ordering_follows_raw_value() {
        let mut ids = vec![NodeId::new(5), NodeId::new(1), NodeId::new(3)];
        ids.sort();
        assert_eq!(ids, vec![NodeId::new(1), NodeId::new(3), NodeId::new(5)]);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(NodeId::new(0).to_string(), "n0");
        assert_eq!(NodeId::new(123).to_string(), "n123");
    }

    #[test]
    fn hashable_and_default() {
        let mut set = HashSet::new();
        set.insert(NodeId::default());
        set.insert(NodeId::new(0));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn serde_round_trip_is_transparent() {
        let id = NodeId::new(17);
        let json = serde_json::to_string(&id).unwrap();
        assert_eq!(json, "17");
        let back: NodeId = serde_json::from_str(&json).unwrap();
        assert_eq!(back, id);
    }
}
