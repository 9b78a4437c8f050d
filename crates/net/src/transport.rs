//! Frame delivery between node threads.
//!
//! [`InMemoryHub`] gives every node a `std::sync::mpsc` mailbox; sending a
//! [`Frame`] to a node is a push onto its channel.

#![expect(
    clippy::disallowed_types,
    reason = "D1: the endpoint map is only looked up by node id, never iterated"
)]

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use hybridcast_graph::NodeId;

use crate::wire::Frame;

/// Why a frame could not be handed to its destination.
#[derive(Debug)]
pub enum TransportError {
    /// The destination node is not registered with the hub.
    UnknownDestination(NodeId),
    /// The destination exists but its mailbox has been dropped.
    Disconnected(NodeId),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::UnknownDestination(id) => write!(f, "unknown destination {id}"),
            TransportError::Disconnected(id) => write!(f, "destination {id} disconnected"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Read-locks `lock`, recovering the guard if a thread panicked while
/// holding it: every update of the map behind this lock is a single
/// `insert` or `remove`, so it is valid whenever a holder can panic.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `lock`, recovering the guard as [`read`] does.
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// An in-process hub: every node registers a `std::sync::mpsc` channel,
/// sending is a channel push. Clones share the same endpoint map, so each
/// node thread owns one.
#[derive(Debug, Clone, Default)]
pub struct InMemoryHub {
    endpoints: Arc<RwLock<HashMap<NodeId, Sender<Frame>>>>,
}

impl InMemoryHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a node and returns the receiving end of its mailbox.
    pub fn register(&self, id: NodeId) -> Receiver<Frame> {
        let (tx, rx) = channel();
        write(&self.endpoints).insert(id, tx);
        rx
    }

    /// Removes a node's mailbox (subsequent sends to it fail), simulating a
    /// crash.
    pub fn unregister(&self, id: NodeId) {
        write(&self.endpoints).remove(&id);
    }

    /// Number of registered endpoints.
    pub fn len(&self) -> usize {
        read(&self.endpoints).len()
    }

    /// Returns `true` if no endpoint is registered.
    pub fn is_empty(&self) -> bool {
        read(&self.endpoints).is_empty()
    }

    /// Sends a frame to `to`.
    ///
    /// # Errors
    ///
    /// Returns an error when the destination is unknown or its mailbox is
    /// gone; node threads treat this like a lost message (gossip is
    /// tolerant to loss).
    pub fn send(&self, to: NodeId, frame: Frame) -> Result<(), TransportError> {
        let endpoints = read(&self.endpoints);
        let tx = endpoints
            .get(&to)
            .ok_or(TransportError::UnknownDestination(to))?;
        tx.send(frame).map_err(|_| TransportError::Disconnected(to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn in_memory_hub_delivers_frames() {
        let hub = InMemoryHub::new();
        let rx = hub.register(n(1));
        assert_eq!(hub.len(), 1);
        hub.send(n(1), Frame::Shutdown).unwrap();
        assert_eq!(rx.recv().unwrap(), Frame::Shutdown);
    }

    #[test]
    fn in_memory_hub_rejects_unknown_destinations() {
        let hub = InMemoryHub::new();
        let err = hub.send(n(9), Frame::Shutdown).unwrap_err();
        assert!(matches!(err, TransportError::UnknownDestination(id) if id == n(9)));
        assert!(err.to_string().contains("n9"));
    }

    #[test]
    fn in_memory_hub_detects_dropped_receivers() {
        let hub = InMemoryHub::new();
        let rx = hub.register(n(2));
        drop(rx);
        let err = hub.send(n(2), Frame::Shutdown).unwrap_err();
        assert!(matches!(err, TransportError::Disconnected(_)));
        hub.unregister(n(2));
        assert!(hub.is_empty());
    }
}
