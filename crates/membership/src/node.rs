//! [`NodeMachine`]: one node's membership protocol as a sans-IO state
//! machine.
//!
//! A node runs one Cyclon instance (r-links) and one Vicinity instance per
//! identifier ring (d-links). Once per cycle it shuffles with its oldest
//! Cyclon neighbour and then, ring after ring, exchanges with a Vicinity
//! partner; each Vicinity step takes its random-layer candidates from the
//! Cyclon view *after* the shuffle, so the Vicinity step of ring `r` starts
//! only once the step before it has ended (answered or failed).
//!
//! The machine owns the protocol state and the exchange in progress. It has
//! no clock, no thread, no transport and no RNG of its own: the runtime
//! calls [`NodeMachine::on_tick`] once per cycle, hands it every incoming
//! [`Gossip`] through [`NodeMachine::on_gossip`], and reports a message it
//! could not deliver through [`NodeMachine::on_undeliverable`]. Each call
//! returns at most one outgoing message. The id-keyed simulator delivers
//! that message synchronously to the peer's machine; the threaded node of
//! `hybridcast-net` pushes it onto the peer's mailbox.

use rand::Rng;

use hybridcast_graph::NodeId;

use crate::cyclon::CyclonNode;
use crate::descriptor::Descriptor;
use crate::proximity::RingPosition;
use crate::vicinity::{self, VicinityNode};

/// The application profile carried inside Cyclon descriptors: the node's
/// position on every identifier ring. Ring 0 is the primary RingCast ring;
/// further entries exist only in multi-ring configurations.
pub type RingProfile = Vec<RingPosition>;

/// A membership message between two machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Gossip {
    /// Cyclon shuffle request: the initiator's fresh descriptor plus random
    /// entries of its view.
    ShuffleRequest(Vec<Descriptor<RingProfile>>),
    /// Cyclon shuffle reply.
    ShuffleReply(Vec<Descriptor<RingProfile>>),
    /// Vicinity exchange request on the ring it names; the initiator's own
    /// descriptor in the payload carries its key on that ring.
    ExchangeRequest(usize, Vec<Descriptor<RingPosition>>),
    /// Vicinity exchange reply on the ring it names.
    ExchangeReply(usize, Vec<Descriptor<RingPosition>>),
}

/// A step of the node's cycle that waits on a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Shuffle,
    Ring(usize),
}

/// One node's membership state and the exchange it is waiting on.
#[derive(Debug, Clone)]
pub struct NodeMachine {
    cyclon: CyclonNode<RingProfile>,
    vicinity: Vec<VicinityNode<RingPosition>>,
    /// The step waiting on a reply and the peer it waits on.
    pending: Option<(Step, NodeId)>,
    /// The descriptors the last shuffle sent: its reply may overwrite them.
    sent: Vec<Descriptor<RingProfile>>,
}

impl NodeMachine {
    /// Creates the machine of node `id` at `profile` (one position per
    /// ring). `cyclon` is the Cyclon `(view, shuffle)` length pair;
    /// `vicinity`, the Vicinity `(view, gossip)` pair of every ring, or
    /// `None` for a node that runs Cyclon alone.
    ///
    /// # Panics
    ///
    /// Panics if a shuffle or gossip length is zero.
    pub fn new(
        id: NodeId,
        profile: RingProfile,
        cyclon: (usize, usize),
        vicinity: Option<(usize, usize)>,
    ) -> Self {
        let rings = match vicinity {
            Some((view, gossip)) => profile
                .iter()
                .map(|&pos| VicinityNode::new(id, pos, view, gossip))
                .collect(),
            None => Vec::new(),
        };
        NodeMachine {
            cyclon: CyclonNode::new(id, profile, cyclon.0, cyclon.1),
            vicinity: rings,
            pending: None,
            sent: Vec::new(),
        }
    }

    /// Adds a bootstrap contact to the Cyclon view (the paper's join: a
    /// fresh node knows one introducer). Returns `true` if it was added.
    pub fn add_contact(&mut self, contact: Descriptor<RingProfile>) -> bool {
        self.cyclon.add_bootstrap_contact(contact)
    }

    /// Offers `contact` to every ring's Vicinity view too, at its position
    /// on that ring. The simulated join leaves Vicinity views empty; a
    /// threaded node seeds them with its bootstrap contacts, or two nodes
    /// whose ticks never overlap never become ring neighbours.
    pub fn add_ring_contact(&mut self, contact: &Descriptor<RingProfile>) {
        for (vicinity, &pos) in self.vicinity.iter_mut().zip(&contact.profile) {
            vicinity.absorb_candidates(&[Descriptor::with_age(contact.id, contact.age, pos)]);
        }
    }

    /// Starts a cycle: fails the exchange still waiting on a reply, ages
    /// the Cyclon view and starts the shuffle (or, with an empty view, the
    /// first Vicinity exchange).
    pub fn on_tick<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<(NodeId, Gossip)> {
        if let Some((step, target)) = self.pending.take() {
            self.fail(step, target);
        }
        self.cyclon.begin_cycle();
        match self.cyclon.initiate_shuffle(rng) {
            Some((target, request)) => {
                self.sent.clone_from(&request);
                self.pending = Some((Step::Shuffle, target));
                Some((target, Gossip::ShuffleRequest(request)))
            }
            None => self.exchange_from(0, rng),
        }
    }

    /// Handles `msg` from `from`: answers a request, or takes the reply the
    /// node waits on and starts its next step. A reply the node does not
    /// wait on, and a request for a ring the node does not run, are
    /// dropped.
    pub fn on_gossip<R: Rng + ?Sized>(
        &mut self,
        from: NodeId,
        msg: Gossip,
        rng: &mut R,
    ) -> Option<(NodeId, Gossip)> {
        match msg {
            Gossip::ShuffleRequest(payload) => {
                let reply = self.cyclon.handle_shuffle_request(from, &payload, rng);
                Some((from, Gossip::ShuffleReply(reply)))
            }
            Gossip::ExchangeRequest(ring, payload) => {
                let candidates = ring_candidates(&self.cyclon, ring);
                let vicinity = self.vicinity.get_mut(ring)?;
                let payload = vicinity.handle_exchange_request(from, &payload, &candidates);
                Some((from, Gossip::ExchangeReply(ring, payload)))
            }
            Gossip::ShuffleReply(payload) if self.pending == Some((Step::Shuffle, from)) => {
                self.pending = None;
                self.cyclon.handle_shuffle_response(&self.sent, &payload);
                self.exchange_from(0, rng)
            }
            Gossip::ExchangeReply(ring, payload)
                if self.pending == Some((Step::Ring(ring), from)) =>
            {
                self.pending = None;
                let candidates = ring_candidates(&self.cyclon, ring);
                self.vicinity[ring].handle_exchange_response(&payload, &candidates);
                self.exchange_from(ring + 1, rng)
            }
            Gossip::ShuffleReply(_) | Gossip::ExchangeReply(..) => None,
        }
    }

    /// Records that a message to `to` could not be delivered: if the node
    /// waits on `to`, that step fails and the next one starts.
    pub fn on_undeliverable<R: Rng + ?Sized>(
        &mut self,
        to: NodeId,
        rng: &mut R,
    ) -> Option<(NodeId, Gossip)> {
        let (step, _) = self.pending.filter(|&(_, target)| target == to)?;
        self.pending = None;
        self.fail(step, to);
        let next = match step {
            Step::Shuffle => 0,
            Step::Ring(ring) => ring + 1,
        };
        self.exchange_from(next, rng)
    }

    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.cyclon.id()
    }

    /// The node's position on every ring.
    pub fn profile(&self) -> &RingProfile {
        self.cyclon.profile()
    }

    /// The node's position on the primary ring.
    pub fn ring_position(&self) -> RingPosition {
        self.profile()[0]
    }

    /// Read access to the node's Cyclon instance.
    pub fn cyclon(&self) -> &CyclonNode<RingProfile> {
        &self.cyclon
    }

    /// Read access to the node's Vicinity instances (one per ring).
    pub fn vicinity(&self) -> &[VicinityNode<RingPosition>] {
        &self.vicinity
    }

    /// The node's current d-links: [`vicinity::d_links`] of its rings.
    pub fn d_links(&self) -> Vec<NodeId> {
        vicinity::d_links(&self.vicinity)
    }

    /// The node's current `(d-links, r-links)`: its ring neighbours and its
    /// Cyclon view.
    pub fn links(&self) -> (Vec<NodeId>, Vec<NodeId>) {
        (self.d_links(), self.cyclon.view().node_ids())
    }

    /// Applies the failure of `step` towards `target`. A failed shuffle
    /// needs no repair: Cyclon dropped the target when the shuffle started.
    /// A failed exchange drops the target from that ring's Vicinity view.
    fn fail(&mut self, step: Step, target: NodeId) {
        if let Step::Ring(ring) = step {
            self.vicinity[ring].exchange_failed(target);
        }
    }

    /// Runs the Vicinity steps from ring `first` on until one sends a
    /// request; rings with no partner at all are skipped.
    fn exchange_from<R: Rng + ?Sized>(
        &mut self,
        first: usize,
        rng: &mut R,
    ) -> Option<(NodeId, Gossip)> {
        for ring in first..self.vicinity.len() {
            let candidates = ring_candidates(&self.cyclon, ring);
            let vicinity = &mut self.vicinity[ring];
            vicinity.begin_cycle();
            if let Some((target, payload)) = vicinity.initiate_exchange(&candidates, rng) {
                self.pending = Some((Step::Ring(ring), target));
                return Some((target, Gossip::ExchangeRequest(ring, payload)));
            }
        }
        None
    }
}

/// Projects a Cyclon view onto the key space of ring `ring`: each
/// descriptor is re-keyed with the peer's position on that ring.
fn ring_candidates(cyclon: &CyclonNode<RingProfile>, ring: usize) -> Vec<Descriptor<RingPosition>> {
    cyclon
        .view()
        .iter()
        .filter_map(|d| {
            d.profile
                .get(ring)
                .map(|&pos| Descriptor::with_age(d.id, d.age, pos))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    /// A one-ring machine at `pos` whose Cyclon view holds `contacts`, each
    /// an `(id, position, age)`.
    fn machine(id: u64, pos: u64, contacts: &[(u64, u64, u32)]) -> NodeMachine {
        let mut node = NodeMachine::new(n(id), vec![pos], (10, 4), Some((10, 4)));
        for &(peer, pos, age) in contacts {
            assert!(node.add_contact(Descriptor::with_age(n(peer), age, vec![pos])));
        }
        node
    }

    /// Runs one tick of `machines[i]`, delivering every message at once to
    /// the other machine and the reply straight back, as the simulator does.
    fn gossip_once(machines: &mut [NodeMachine; 2], i: usize, rng: &mut ChaCha8Rng) {
        let mut out = machines[i].on_tick(rng);
        while let Some((to, msg)) = out {
            let reply = machines[1 - i].on_gossip(n(i as u64), msg, rng);
            out = reply.and_then(|(_, reply)| machines[i].on_gossip(to, reply, rng));
        }
    }

    #[test]
    fn two_machines_whose_ticks_never_overlap_never_become_ring_neighbours() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut machines = [
            machine(0, 100, &[(1, 200, 0)]),
            machine(1, 200, &[(0, 100, 0)]),
        ];
        for cycle in 0..6 {
            let i = cycle % 2;
            gossip_once(&mut machines, i, &mut rng);
            // The reply excludes the initiator, which dropped its target.
            assert!(machines[i].cyclon().view().is_empty());
            assert_eq!(
                machines[1 - i].cyclon().view().node_ids(),
                vec![n(i as u64)]
            );
            // So no Vicinity step ever has a candidate.
            assert!(machines.iter().all(|m| m.d_links().is_empty()));
        }
    }

    #[test]
    fn ring_contacts_keep_two_machines_ring_neighbours_without_overlapping_ticks() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut machines = [
            machine(0, 100, &[(1, 200, 0)]),
            machine(1, 200, &[(0, 100, 0)]),
        ];
        for (i, m) in machines.iter_mut().enumerate() {
            let peer = 1 - i as u64;
            m.add_ring_contact(&Descriptor::new(n(peer), vec![100 * (peer + 1)]));
        }
        for cycle in 0..6 {
            gossip_once(&mut machines, cycle % 2, &mut rng);
            assert_eq!(machines[0].d_links(), vec![n(1)]);
            assert_eq!(machines[1].d_links(), vec![n(0)]);
        }
    }

    #[test]
    fn a_cyclon_reply_starts_the_ring_zero_request() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut a = machine(1, 100, &[(2, 200, 0)]);
        let mut b = machine(2, 200, &[(3, 300, 0)]);
        let (target, request) = a.on_tick(&mut rng).expect("a knows node 2");
        assert_eq!(target, n(2));
        assert!(matches!(request, Gossip::ShuffleRequest(_)));
        let (back, reply) = b.on_gossip(n(1), request, &mut rng).expect("b answers");
        assert_eq!(back, n(1));
        // The reply hands node 3 over; ring 0 takes its partner from the
        // Cyclon view after the shuffle.
        let (target, exchange) = a.on_gossip(n(2), reply, &mut rng).expect("ring 0 starts");
        assert_eq!(target, n(3));
        let Gossip::ExchangeRequest(0, payload) = exchange else {
            panic!("expected a ring-0 exchange request, got {exchange:?}");
        };
        assert_eq!(payload.last(), Some(&Descriptor::new(n(1), 100)));
    }

    #[test]
    fn an_undeliverable_cyclon_target_still_lets_vicinity_run_in_the_same_tick() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut a = machine(1, 100, &[(2, 200, 5), (3, 300, 0)]);
        let (target, _) = a.on_tick(&mut rng).expect("a knows two peers");
        assert_eq!(target, n(2), "the oldest contact is shuffled with");
        let (target, exchange) = a.on_undeliverable(n(2), &mut rng).expect("ring 0 runs");
        assert_eq!(target, n(3));
        assert!(matches!(exchange, Gossip::ExchangeRequest(0, _)));
        assert_eq!(a.cyclon().view().node_ids(), vec![n(3)]);
        // A second report for a peer the node no longer waits on is a no-op.
        assert_eq!(a.on_undeliverable(n(2), &mut rng), None);
    }

    #[test]
    fn an_exchange_unanswered_at_the_next_tick_fails_and_vicinity_drops_the_peer() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut a = machine(1, 100, &[(2, 200, 5), (3, 300, 0)]);
        let mut c = machine(3, 300, &[]);
        a.on_tick(&mut rng);
        let (_, request) = a.on_undeliverable(n(2), &mut rng).expect("ring 0 runs");
        let (_, reply) = c.on_gossip(n(1), request, &mut rng).expect("c answers");
        assert_eq!(a.on_gossip(n(3), reply, &mut rng), None, "one ring only");
        assert!(a.vicinity()[0].view().contains(n(3)));

        // Next cycle: the shuffle with 3 is answered, the exchange is not.
        let (_, request) = a.on_tick(&mut rng).expect("a shuffles with 3");
        let (_, reply) = c.on_gossip(n(1), request, &mut rng).expect("c answers");
        let (target, _) = a.on_gossip(n(3), reply, &mut rng).expect("ring 0 runs");
        assert_eq!(target, n(3));
        a.on_tick(&mut rng);
        assert!(!a.vicinity()[0].view().contains(n(3)));
    }

    #[test]
    fn a_reply_from_a_peer_that_is_not_the_pending_target_is_ignored() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut a = machine(1, 100, &[(2, 200, 0)]);
        let mut b = machine(2, 200, &[(3, 300, 0)]);
        let (_, request) = a.on_tick(&mut rng).expect("a knows node 2");
        let stray = vec![Descriptor::new(n(7), vec![700])];
        assert_eq!(
            a.on_gossip(n(9), Gossip::ShuffleReply(stray.clone()), &mut rng),
            None
        );
        let wrong_step = Gossip::ExchangeReply(0, vec![Descriptor::new(n(7), 700)]);
        assert_eq!(a.on_gossip(n(2), wrong_step, &mut rng), None);
        assert!(a.cyclon().view().is_empty(), "nothing was merged");
        assert!(a.vicinity()[0].view().is_empty(), "nothing was merged");
        // The awaited reply still completes the step.
        let (_, reply) = b.on_gossip(n(1), request, &mut rng).expect("b answers");
        assert!(a.on_gossip(n(2), reply, &mut rng).is_some());
        // Once answered, the same reply again is stale.
        let again = Gossip::ShuffleReply(stray);
        assert_eq!(a.on_gossip(n(2), again, &mut rng), None);
        assert!(!a.cyclon().view().contains(n(7)));
    }
}
