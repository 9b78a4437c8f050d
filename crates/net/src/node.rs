//! A node running the full protocol stack in its own thread.
//!
//! Each [`spawn_node`] call starts a thread owning one Cyclon instance, one
//! Vicinity instance and a dissemination-deduplication set. The thread
//! alternates between
//!
//! * **reactive work** — handling incoming frames from its mailbox
//!   (shuffle requests/replies, vicinity exchanges, pushed messages), and
//! * **periodic work** — once per `gossip_interval` it initiates one Cyclon
//!   shuffle and one Vicinity exchange, exactly like a cycle of the
//!   simulator.
//!
//! Freshly received messages are recorded in the shared [`DeliveryLog`] and
//! forwarded to the targets the configured [`DenseSelector`] picks over the
//! node's *local* links: its r-links are its current Cyclon view, its
//! d-links its current ring neighbours — the same information a simulated
//! node exposes through an overlay snapshot.

#![expect(
    clippy::disallowed_methods,
    reason = "D2: the live runtime schedules real gossip periods from the wall clock; no simulation engine runs this code"
)]
#![expect(
    clippy::disallowed_types,
    reason = "D1: the seen-set is only probed for membership, never iterated"
)]

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::slice;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use hybridcast_core::message::MessageId;
use hybridcast_core::protocols::DenseSelector;
use hybridcast_graph::NodeId;
use hybridcast_membership::cyclon::CyclonNode;
use hybridcast_membership::proximity::RingPosition;
use hybridcast_membership::vicinity::{self, PendingExchange, VicinityNode};

use crate::transport::Transport;
use crate::wire::{Frame, WireDescriptor};

/// Configuration of a single networked node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The node's identifier.
    pub id: NodeId,
    /// The node's position on the identifier ring.
    pub ring_position: RingPosition,
    /// How often the node initiates membership gossip (the protocol cycle).
    pub gossip_interval: Duration,
    /// Cyclon view length.
    pub cyclon_view: usize,
    /// Cyclon shuffle length.
    pub cyclon_shuffle: usize,
    /// Vicinity view length.
    pub vicinity_view: usize,
    /// Vicinity gossip length.
    pub vicinity_gossip: usize,
    /// RNG seed for this node.
    pub seed: u64,
}

/// Counters a node reports when it shuts down.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Frames of any kind received.
    pub frames_received: u64,
    /// Dissemination messages received (including duplicates).
    pub messages_received: u64,
    /// Distinct dissemination messages seen.
    pub distinct_messages: u64,
    /// Dissemination messages forwarded to other nodes.
    pub messages_forwarded: u64,
}

/// A shared record of which node received which message, used by tests and
/// examples to measure hit ratios of live runs.
#[derive(Debug, Clone, Default)]
pub struct DeliveryLog {
    inner: Arc<Mutex<BTreeMap<MessageId, BTreeSet<NodeId>>>>,
}

impl DeliveryLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the log, recovering the guard if a node thread panicked while
    /// holding it: every update is a single map operation, so the map is
    /// valid whenever a holder can panic.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<MessageId, BTreeSet<NodeId>>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records that `node` received `message`.
    pub fn record(&self, message: MessageId, node: NodeId) {
        self.lock().entry(message).or_default().insert(node);
    }

    /// Number of distinct nodes that received `message`.
    pub fn count(&self, message: MessageId) -> usize {
        self.lock().get(&message).map(BTreeSet::len).unwrap_or(0)
    }

    /// The nodes that received `message`.
    pub fn receivers(&self, message: MessageId) -> Vec<NodeId> {
        self.lock()
            .get(&message)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// All messages the log has seen.
    pub fn messages(&self) -> Vec<MessageId> {
        self.lock().keys().copied().collect()
    }
}

/// Handle of a spawned node: its id and the join handle returning the
/// node's final statistics.
#[derive(Debug)]
pub struct NodeHandle {
    /// The node's identifier.
    pub id: NodeId,
    handle: JoinHandle<NodeStats>,
}

impl NodeHandle {
    /// Waits for the node thread to finish (after a `Shutdown` frame) and
    /// returns its statistics.
    ///
    /// # Panics
    ///
    /// Panics if the node thread itself panicked.
    pub fn join(self) -> NodeStats {
        self.handle.join().expect("node thread panicked")
    }
}

/// Spawns a node thread.
///
/// `mailbox` is the receiving end registered with the transport;
/// `bootstrap` seeds the Cyclon view (typically a single introducer, the
/// star-topology join of the paper); `selector` decides how dissemination
/// messages are forwarded.
pub fn spawn_node<T>(
    config: NodeConfig,
    transport: T,
    mailbox: Receiver<Frame>,
    bootstrap: Vec<WireDescriptor>,
    selector: DenseSelector,
    log: DeliveryLog,
) -> NodeHandle
where
    T: Transport + Clone + 'static,
{
    let id = config.id;
    let handle = std::thread::spawn(move || {
        NodeWorker::new(config, transport, mailbox, bootstrap, selector, log).run()
    });
    NodeHandle { id, handle }
}

struct NodeWorker<T> {
    config: NodeConfig,
    transport: T,
    mailbox: Receiver<Frame>,
    selector: DenseSelector,
    log: DeliveryLog,
    cyclon: CyclonNode<RingPosition>,
    vicinity: VicinityNode<RingPosition>,
    pending_cyclon: Option<hybridcast_membership::cyclon::PendingShuffle<RingPosition>>,
    pending_vicinity: Option<PendingExchange>,
    seen: HashSet<MessageId>,
    rng: ChaCha8Rng,
    stats: NodeStats,
}

impl<T: Transport> NodeWorker<T> {
    fn new(
        config: NodeConfig,
        transport: T,
        mailbox: Receiver<Frame>,
        bootstrap: Vec<WireDescriptor>,
        selector: DenseSelector,
        log: DeliveryLog,
    ) -> Self {
        let mut cyclon = CyclonNode::new(
            config.id,
            config.ring_position,
            config.cyclon_view,
            config.cyclon_shuffle,
        );
        for contact in bootstrap {
            cyclon.add_bootstrap_contact(contact);
        }
        let vicinity = VicinityNode::new(
            config.id,
            config.ring_position,
            config.vicinity_view,
            config.vicinity_gossip,
        );
        let rng = ChaCha8Rng::seed_from_u64(config.seed);
        NodeWorker {
            config,
            transport,
            mailbox,
            selector,
            log,
            cyclon,
            vicinity,
            pending_cyclon: None,
            pending_vicinity: None,
            seen: HashSet::new(),
            rng,
            stats: NodeStats::default(),
        }
    }

    fn run(mut self) -> NodeStats {
        let mut last_gossip = Instant::now();
        loop {
            let elapsed = last_gossip.elapsed();
            let timeout = self
                .config
                .gossip_interval
                .checked_sub(elapsed)
                .unwrap_or(Duration::from_millis(1))
                .max(Duration::from_millis(1));
            match self.mailbox.recv_timeout(timeout) {
                Ok(Frame::Shutdown) => break,
                Ok(frame) => {
                    self.stats.frames_received += 1;
                    self.handle_frame(frame);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            if last_gossip.elapsed() >= self.config.gossip_interval {
                self.gossip_cycle();
                last_gossip = Instant::now();
            }
        }
        self.stats
    }

    fn cyclon_candidates(&self) -> Vec<WireDescriptor> {
        self.cyclon.view().iter().cloned().collect()
    }

    fn handle_frame(&mut self, frame: Frame) {
        match frame {
            Frame::CyclonRequest { from, payload } => {
                let reply = self
                    .cyclon
                    .handle_shuffle_request(from, &payload, &mut self.rng);
                // Every descriptor that passes by is also a proximity candidate.
                self.vicinity.absorb_candidates(&payload);
                let _ = self.transport.send(
                    from,
                    Frame::CyclonResponse {
                        from: self.config.id,
                        payload: reply,
                    },
                );
            }
            Frame::CyclonResponse { from, payload } => {
                if let Some(pending) = self.pending_cyclon.take() {
                    if pending.target == from {
                        self.cyclon.handle_shuffle_response(&pending, &payload);
                        self.vicinity.absorb_candidates(&payload);
                    } else {
                        self.pending_cyclon = Some(pending);
                    }
                }
            }
            Frame::VicinityRequest {
                from,
                from_position,
                payload,
            } => {
                let candidates = self.cyclon_candidates();
                let reply = self.vicinity.handle_exchange_request(
                    from,
                    Some(&from_position),
                    &payload,
                    &candidates,
                );
                let _ = self.transport.send(
                    from,
                    Frame::VicinityResponse {
                        from: self.config.id,
                        payload: reply,
                    },
                );
            }
            Frame::VicinityResponse { from, payload } => {
                if let Some(pending) = self.pending_vicinity.take() {
                    if pending.target == from {
                        let candidates = self.cyclon_candidates();
                        self.vicinity
                            .handle_exchange_response(&pending, &payload, &candidates);
                    } else {
                        self.pending_vicinity = Some(pending);
                    }
                }
            }
            Frame::Dissemination { from, message } => {
                self.stats.messages_received += 1;
                if !self.seen.insert(message.id) {
                    return;
                }
                self.stats.distinct_messages += 1;
                self.log.record(message.id, self.config.id);
                // A published message arrives "from" its origin itself.
                let d_links = vicinity::d_links(slice::from_ref(&self.vicinity));
                let r_links = self.cyclon.view().node_ids();
                let (mut targets, mut pool) = (Vec::new(), Vec::new());
                self.selector.select(
                    self.config.id,
                    from,
                    (&d_links, &r_links),
                    &mut self.rng,
                    &mut targets,
                    &mut pool,
                );
                for target in targets {
                    self.stats.messages_forwarded += 1;
                    let _ = self.transport.send(
                        target,
                        Frame::Dissemination {
                            from: self.config.id,
                            message: message.clone(),
                        },
                    );
                }
            }
            Frame::Shutdown => unreachable!("handled by the event loop"),
        }
    }

    fn gossip_cycle(&mut self) {
        // Cyclon: an unanswered shuffle from the previous cycle counts as
        // failed (the target was already dropped from the view on initiate).
        if let Some(pending) = self.pending_cyclon.take() {
            self.cyclon.shuffle_failed(&pending);
        }
        self.cyclon.begin_cycle();
        if let Some((target, payload)) = self.cyclon.initiate_shuffle(&mut self.rng) {
            let pending = CyclonNode::pending(target, payload.clone());
            let sent = self.transport.send(
                target,
                Frame::CyclonRequest {
                    from: self.config.id,
                    payload,
                },
            );
            match sent {
                Ok(()) => self.pending_cyclon = Some(pending),
                Err(_) => self.cyclon.shuffle_failed(&pending),
            }
        }

        // Vicinity: an unanswered exchange drops the unresponsive neighbour.
        if let Some(pending) = self.pending_vicinity.take() {
            self.vicinity.exchange_failed(&pending);
        }
        self.vicinity.begin_cycle();
        let candidates = self.cyclon_candidates();
        if let Some((target, payload)) = self.vicinity.initiate_exchange(&candidates, &mut self.rng)
        {
            let pending = PendingExchange { target };
            let sent = self.transport.send(
                target,
                Frame::VicinityRequest {
                    from: self.config.id,
                    from_position: self.config.ring_position,
                    payload,
                },
            );
            match sent {
                Ok(()) => self.pending_vicinity = Some(pending),
                Err(_) => self.vicinity.exchange_failed(&pending),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InMemoryHub;
    use hybridcast_core::message::Message;
    use hybridcast_membership::descriptor::Descriptor;

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    fn descriptor(i: u64, pos: RingPosition) -> WireDescriptor {
        Descriptor::new(n(i), pos)
    }

    fn config(i: u64, pos: RingPosition) -> NodeConfig {
        NodeConfig {
            id: n(i),
            ring_position: pos,
            gossip_interval: Duration::from_millis(5),
            cyclon_view: 10,
            cyclon_shuffle: 4,
            vicinity_view: 10,
            vicinity_gossip: 4,
            seed: i,
        }
    }

    #[test]
    fn delivery_log_counts_distinct_receivers() {
        let log = DeliveryLog::new();
        let msg = MessageId::new(n(0), 1);
        log.record(msg, n(1));
        log.record(msg, n(1));
        log.record(msg, n(2));
        assert_eq!(log.count(msg), 2);
        assert_eq!(log.receivers(msg), vec![n(1), n(2)]);
        assert_eq!(log.messages(), vec![msg]);
        assert_eq!(log.count(MessageId::new(n(0), 9)), 0);
    }

    #[test]
    fn delivery_log_survives_a_panic_while_locked() {
        let log = DeliveryLog::new();
        let msg = MessageId::new(n(0), 1);
        log.record(msg, n(1));
        let held = log.clone();
        let panicked = std::thread::spawn(move || {
            let _guard = held.inner.lock();
            panic!("node thread dies holding the log");
        })
        .join();
        assert!(panicked.is_err());
        log.record(msg, n(2));
        assert_eq!(log.count(msg), 2);
        assert_eq!(log.receivers(msg), vec![n(1), n(2)]);
    }

    #[test]
    fn two_nodes_exchange_membership_and_messages() {
        let hub = InMemoryHub::new();
        let rx0 = hub.register(n(0));
        let rx1 = hub.register(n(1));
        let log = DeliveryLog::new();
        let selector = DenseSelector::ringcast(2);

        let h0 = spawn_node(
            config(0, 100),
            hub.clone(),
            rx0,
            vec![descriptor(1, 200)],
            selector,
            log.clone(),
        );
        let h1 = spawn_node(
            config(1, 200),
            hub.clone(),
            rx1,
            vec![descriptor(0, 100)],
            selector,
            log.clone(),
        );

        // Let a few gossip cycles run, then publish from node 0.
        std::thread::sleep(Duration::from_millis(60));
        let message = Message::marker(n(0), 1);
        hub.send(
            n(0),
            Frame::Dissemination {
                from: n(0),
                message,
            },
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(60));

        let msg_id = MessageId::new(n(0), 1);
        assert_eq!(log.count(msg_id), 2, "both nodes must see the message");

        hub.send(n(0), Frame::Shutdown).unwrap();
        hub.send(n(1), Frame::Shutdown).unwrap();
        let s0 = h0.join();
        let s1 = h1.join();
        assert!(s0.frames_received > 0);
        assert_eq!(s0.distinct_messages, 1);
        assert_eq!(s1.distinct_messages, 1);
        assert!(s0.messages_forwarded >= 1, "origin forwarded the message");
    }
}
