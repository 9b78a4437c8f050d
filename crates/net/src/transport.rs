//! Pluggable frame delivery between nodes.
//!
//! A [`Transport`] moves a [`Frame`] to a destination node. Two
//! implementations are provided:
//!
//! * [`InMemoryHub`] — `std::sync::mpsc` channels inside one process; the default
//!   for tests and for the `hybridcast-net` examples,
//! * [`TcpTransport`] — loopback (or LAN) TCP with length-prefixed frames,
//!   demonstrating that the node logic is transport-agnostic.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;

use hybridcast_graph::NodeId;

use crate::wire::{decode_frame, encode_frame, Frame};

/// Errors returned by transports.
#[derive(Debug)]
pub enum TransportError {
    /// The destination node is not registered with the transport.
    UnknownDestination(NodeId),
    /// The destination exists but its endpoint is no longer reachable.
    Disconnected(NodeId),
    /// An I/O error occurred while sending (TCP transport only).
    Io(std::io::Error),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::UnknownDestination(id) => write!(f, "unknown destination {id}"),
            TransportError::Disconnected(id) => write!(f, "destination {id} disconnected"),
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// Read-locks `lock`, recovering the guard if a thread panicked while
/// holding it: every update of the maps behind these locks is a single
/// `insert` or `remove`, so they are valid whenever a holder can panic.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `lock`, recovering the guard as [`read`] does.
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Moves frames to other nodes. Implementations must be cheap to clone
/// (each node thread owns a clone).
pub trait Transport: Send + Sync {
    /// Sends a frame to `to`.
    ///
    /// # Errors
    ///
    /// Returns an error when the destination is unknown or unreachable; the
    /// caller treats this like a lost message (gossip is tolerant to loss).
    fn send(&self, to: NodeId, frame: Frame) -> Result<(), TransportError>;
}

/// An in-process hub: every node registers a `std::sync::mpsc` channel,
/// sending is a channel push.
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
}

impl Transport for InMemoryHub {
    fn send(&self, to: NodeId, frame: Frame) -> Result<(), TransportError> {
        let endpoints = read(&self.endpoints);
        let tx = endpoints
            .get(&to)
            .ok_or(TransportError::UnknownDestination(to))?;
        tx.send(frame).map_err(|_| TransportError::Disconnected(to))
    }
}

/// A TCP transport: every node runs a listener; frames are length-prefixed
/// JSON over short-lived connections (one connection per frame, which keeps
/// the implementation simple and is adequate for gossip traffic volumes).
#[derive(Debug, Clone, Default)]
pub struct TcpTransport {
    addresses: Arc<RwLock<HashMap<NodeId, SocketAddr>>>,
}

impl TcpTransport {
    /// Creates a transport with an empty address book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a listener for `id` on an OS-assigned loopback port, records
    /// its address in the shared address book and returns a channel
    /// receiving the decoded frames plus the listener's join handle.
    ///
    /// # Errors
    ///
    /// Returns an error if the listener socket cannot be bound.
    pub fn listen(&self, id: NodeId) -> std::io::Result<(Receiver<Frame>, JoinHandle<()>)> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        write(&self.addresses).insert(id, addr);
        let (tx, rx) = channel();
        let handle = std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                let mut buf = Vec::new();
                let mut chunk = [0u8; 4096];
                // Frames are drained as their bytes arrive, so `buf` never
                // holds more than one frame (`MAX_FRAME_LEN`) plus a chunk;
                // a malformed or oversized frame ends the connection.
                'connection: loop {
                    match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => break,
                        Ok(read) => buf.extend_from_slice(&chunk[..read]),
                    }
                    loop {
                        match decode_frame(&mut buf) {
                            Ok(Some(frame)) => {
                                let is_shutdown = matches!(frame, Frame::Shutdown);
                                if tx.send(frame).is_err() || is_shutdown {
                                    return;
                                }
                            }
                            Ok(None) => break,
                            Err(_) => break 'connection,
                        }
                    }
                }
            }
        });
        Ok((rx, handle))
    }

    /// Removes a node from the address book.
    pub fn unregister(&self, id: NodeId) {
        write(&self.addresses).remove(&id);
    }

    /// The address a node listens on, if registered.
    pub fn address_of(&self, id: NodeId) -> Option<SocketAddr> {
        read(&self.addresses).get(&id).copied()
    }
}

impl Transport for TcpTransport {
    fn send(&self, to: NodeId, frame: Frame) -> Result<(), TransportError> {
        let addr = self
            .address_of(to)
            .ok_or(TransportError::UnknownDestination(to))?;
        let mut stream = TcpStream::connect(addr)?;
        let mut buf = Vec::new();
        encode_frame(&frame, &mut buf);
        stream.write_all(&buf)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_core::message::Message;

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

    #[test]
    fn tcp_transport_round_trip() {
        let transport = TcpTransport::new();
        let (rx, handle) = transport.listen(n(7)).unwrap();
        assert!(transport.address_of(n(7)).is_some());

        let frame = Frame::Dissemination {
            from: n(3),
            message: Message::new(
                hybridcast_core::message::MessageId::new(n(3), 1),
                b"payload".to_vec(),
            ),
        };
        transport.send(n(7), frame.clone()).unwrap();
        let received = rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        assert_eq!(received, frame);

        // Shutting down stops the listener thread.
        transport.send(n(7), Frame::Shutdown).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn tcp_listener_drops_a_hostile_connection_and_keeps_serving() {
        let transport = TcpTransport::new();
        let (rx, handle) = transport.listen(n(8)).unwrap();
        let addr = transport.address_of(n(8)).unwrap();

        // A peer announcing a 4 GB frame: refused at the prefix. The write
        // after it may or may not fail, depending on when the listener
        // closes; either way nothing is delivered.
        let mut hostile = TcpStream::connect(addr).unwrap();
        hostile.write_all(&u32::MAX.to_be_bytes()).unwrap();
        let _ = hostile.write_all(&[b'x'; 64]);
        drop(hostile);

        transport.send(n(8), Frame::Shutdown).unwrap();
        let received = rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        assert_eq!(received, Frame::Shutdown, "only the honest frame arrives");
        handle.join().unwrap();
    }

    #[test]
    fn tcp_transport_unknown_destination() {
        let transport = TcpTransport::new();
        let err = transport.send(n(1), Frame::Shutdown).unwrap_err();
        assert!(matches!(err, TransportError::UnknownDestination(_)));
    }
}
