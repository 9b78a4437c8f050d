//! A node running the full protocol stack in its own thread.
//!
//! Each [`spawn_node`] call starts a thread: the shell around one
//! membership [`NodeMachine`] (a single ring) and a
//! dissemination-deduplication set. The thread alternates between
//!
//! * **reactive work** — handing every membership frame to the machine and
//!   pushing fresh dissemination messages on, and
//! * **periodic work** — once per `gossip_interval` it ticks the machine,
//!   which starts one Cyclon shuffle and then the Vicinity exchange,
//!   exactly like a cycle of the simulator.
//!
//! Whatever the machine answers goes out through the hub; a frame the hub
//! cannot deliver is reported back to the machine as undeliverable.
//! Freshly received messages are recorded in the shared [`DeliveryLog`] and
//! forwarded to the targets the configured [`DenseSelector`] picks over the
//! machine's *local* links: its r-links are its current Cyclon view, its
//! d-links its current ring neighbours — the same information a simulated
//! node exposes through an overlay snapshot.

#![expect(
    clippy::disallowed_methods,
    reason = "D2: the thread shell schedules real gossip periods from the wall clock; the machine it drives reads no clock"
)]
#![expect(
    clippy::disallowed_types,
    reason = "D1: the seen-set is only probed for membership, never iterated"
)]

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use hybridcast_core::protocols::DenseSelector;
use hybridcast_graph::NodeId;
use hybridcast_membership::descriptor::Descriptor;
use hybridcast_membership::node::{Gossip, NodeMachine, RingProfile};
use hybridcast_membership::proximity::RingPosition;

use crate::transport::InMemoryHub;
use crate::wire::{Frame, MessageId};

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
/// `mailbox` is the receiving end registered with `hub`;
/// `bootstrap` seeds the Cyclon view (typically a single introducer, the
/// star-topology join of the paper) and every ring's Vicinity view (see
/// [`NodeMachine::add_ring_contact`]); `selector` decides how
/// dissemination messages are forwarded.
pub fn spawn_node(
    config: NodeConfig,
    hub: InMemoryHub,
    mailbox: Receiver<Frame>,
    bootstrap: Vec<Descriptor<RingProfile>>,
    selector: DenseSelector,
    log: DeliveryLog,
) -> NodeHandle {
    let machine = machine(&config, bootstrap);
    let (id, rng) = (config.id, ChaCha8Rng::seed_from_u64(config.seed));
    let worker = NodeWorker {
        config,
        hub,
        mailbox,
        selector,
        log,
        machine,
        seen: HashSet::new(),
        rng,
        stats: NodeStats::default(),
    };
    let handle = std::thread::spawn(move || worker.run());
    NodeHandle { id, handle }
}

/// The single-ring machine a node thread runs, bootstrapped on both layers.
fn machine(config: &NodeConfig, bootstrap: Vec<Descriptor<RingProfile>>) -> NodeMachine {
    let mut machine = NodeMachine::new(
        config.id,
        vec![config.ring_position],
        (config.cyclon_view, config.cyclon_shuffle),
        Some((config.vicinity_view, config.vicinity_gossip)),
    );
    for contact in bootstrap {
        machine.add_ring_contact(&contact);
        machine.add_contact(contact);
    }
    machine
}

struct NodeWorker {
    config: NodeConfig,
    hub: InMemoryHub,
    mailbox: Receiver<Frame>,
    selector: DenseSelector,
    log: DeliveryLog,
    machine: NodeMachine,
    seen: HashSet<MessageId>,
    rng: ChaCha8Rng,
    stats: NodeStats,
}

impl NodeWorker {
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
                let out = self.machine.on_tick(&mut self.rng);
                self.send(out);
                last_gossip = Instant::now();
            }
        }
        self.stats
    }

    /// Sends the machine's outgoing message; a failed send goes back to the
    /// machine, whose next step may send another.
    fn send(&mut self, mut out: Option<(NodeId, Gossip)>) {
        while let Some((to, msg)) = out {
            let frame = Frame::Gossip {
                from: self.config.id,
                msg,
            };
            out = match self.hub.send(to, frame) {
                Ok(()) => None,
                Err(_) => self.machine.on_undeliverable(to, &mut self.rng),
            };
        }
    }

    fn handle_frame(&mut self, frame: Frame) {
        match frame {
            Frame::Gossip { from, msg } => {
                let out = self.machine.on_gossip(from, msg, &mut self.rng);
                self.send(out);
            }
            Frame::Dissemination { from, id } => {
                self.stats.messages_received += 1;
                if !self.seen.insert(id) {
                    return;
                }
                self.stats.distinct_messages += 1;
                self.log.record(id, self.config.id);
                // A published message arrives "from" its origin itself.
                let (d_links, r_links) = self.machine.links();
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
                    let _ = self.hub.send(
                        target,
                        Frame::Dissemination {
                            from: self.config.id,
                            id,
                        },
                    );
                }
            }
            Frame::Shutdown => unreachable!("handled by the event loop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::channel;

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    fn descriptor(i: u64, pos: RingPosition) -> Descriptor<RingProfile> {
        Descriptor::new(n(i), vec![pos])
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
        // Membership: the machines two seeded node threads would run, each
        // knowing the other. Whether their ticks overlap (both requests in
        // flight before either is handled) or not (each tick's messages
        // all delivered before the other node ticks), the two end as each
        // other's ring neighbours; overlapping ticks also keep both Cyclon
        // views full.
        for overlap in [true, false] {
            let mut rngs = [0, 1].map(ChaCha8Rng::seed_from_u64);
            let mut machines = [(0, 100, 1, 200), (1, 200, 0, 100)]
                .map(|(i, pos, peer, at)| machine(&config(i, pos), vec![descriptor(peer, at)]));
            for _ in 0..3 {
                let mut queue = VecDeque::new();
                for i in 0..2 {
                    let out = machines[i].on_tick(&mut rngs[i]);
                    queue.extend(out.map(|(to, msg)| (n(i as u64), to, msg)));
                    if !overlap {
                        deliver(&mut machines, &mut rngs, &mut queue);
                    }
                }
                deliver(&mut machines, &mut rngs, &mut queue);
                for (i, machine) in machines.iter().enumerate() {
                    let peer = n(1 - i as u64);
                    assert_eq!(machine.d_links(), vec![peer], "overlap: {overlap}");
                    if overlap {
                        assert_eq!(machine.cyclon().view().node_ids(), vec![peer]);
                    }
                }
            }
        }

        // Messages: two node threads gossip for 24 shuffles (about a dozen
        // each), then one message is published from node 0. Each mailbox is
        // fed through a relay that counts the shuffle requests it passes on.
        let hub = InMemoryHub::new();
        let shuffles = Arc::new(AtomicUsize::new(0));
        let relays: Vec<_> = (0..2)
            .map(|i| {
                let from_hub = hub.register(n(i));
                let (to_node, mailbox) = channel();
                let shuffles = Arc::clone(&shuffles);
                let relay = std::thread::spawn(move || {
                    for frame in from_hub {
                        if let Frame::Gossip {
                            msg: Gossip::ShuffleRequest(_),
                            ..
                        } = frame
                        {
                            shuffles.fetch_add(1, Ordering::Relaxed);
                        }
                        if to_node.send(frame).is_err() {
                            break;
                        }
                    }
                });
                (mailbox, relay)
            })
            .collect();
        let log = DeliveryLog::new();
        let selector = DenseSelector::ringcast(2);
        let (mut handles, mut relay_threads) = (Vec::new(), Vec::new());
        for (i, (mailbox, relay)) in (0..2).zip(relays) {
            let (pos, peer_pos) = (100 * (i + 1), 100 * (2 - i));
            let bootstrap = vec![descriptor(1 - i, peer_pos)];
            let config = config(i, pos);
            handles.push(spawn_node(
                config,
                hub.clone(),
                mailbox,
                bootstrap,
                selector,
                log.clone(),
            ));
            relay_threads.push(relay);
        }
        let waited = poll(|| shuffles.load(Ordering::Relaxed) >= 24);
        assert!(waited, "the nodes must gossip");
        let msg_id = MessageId::new(n(0), 1);
        hub.send(
            n(0),
            Frame::Dissemination {
                from: n(0),
                id: msg_id,
            },
        )
        .unwrap();
        poll(|| log.count(msg_id) == 2);
        assert_eq!(log.count(msg_id), 2, "both nodes must see the message");

        hub.send(n(0), Frame::Shutdown).unwrap();
        hub.send(n(1), Frame::Shutdown).unwrap();
        let stats: Vec<NodeStats> = handles.into_iter().map(NodeHandle::join).collect();
        drop(hub);
        for relay in relay_threads {
            relay.join().expect("relay thread panicked");
        }
        assert!(stats[0].frames_received > 0);
        assert_eq!(stats[0].distinct_messages, 1);
        assert_eq!(stats[1].distinct_messages, 1);
        assert!(
            stats[0].messages_forwarded >= 1,
            "origin forwarded the message"
        );
    }

    type Queue = VecDeque<(NodeId, NodeId, Gossip)>;

    /// Delivers every queued `(from, to, msg)` first in, first out, as the
    /// hub would, and queues the answers.
    fn deliver(machines: &mut [NodeMachine; 2], rngs: &mut [ChaCha8Rng; 2], queue: &mut Queue) {
        while let Some((from, to, msg)) = queue.pop_front() {
            let j = to.as_index();
            let out = machines[j].on_gossip(from, msg, &mut rngs[j]);
            queue.extend(out.map(|(back, reply)| (to, back, reply)));
        }
    }

    /// Polls `done` every millisecond for up to five seconds; returns
    /// whether it held.
    fn poll(mut done: impl FnMut() -> bool) -> bool {
        (0..5_000).any(|_| {
            done() || {
                std::thread::sleep(Duration::from_millis(1));
                false
            }
        })
    }
}
