//! The Vicinity proximity-based topology construction protocol
//! (Voulgaris & van Steen).
//!
//! Vicinity converges each node's view to the `vic` peers *closest* to it
//! according to a proximity metric. In RingCast the metric is the circular
//! order of arbitrarily chosen ring positions: a node's two closest peers —
//! the direct successor and the direct predecessor on the identifier ring —
//! become its d-links, and the remaining view entries (peers slightly
//! further along the ring in both directions) act as backups that let the
//! ring repair itself when nodes fail or churn.
//!
//! Vicinity is layered on top of Cyclon: besides exchanging views with
//! proximity-selected neighbours, each node also considers the entries of
//! its Cyclon view as candidates. The random layer keeps feeding fresh,
//! uniformly sampled peers into the proximity layer, which prevents the
//! greedy "keep the closest" rule from getting stuck in a local optimum and
//! lets a newly joined node find its ring position within a few cycles.

use rand::Rng;

use hybridcast_graph::NodeId;

use crate::descriptor::Descriptor;
use crate::proximity::{rank_by_ring_distance, ring_neighbors};
use crate::view::View;

/// Default Vicinity view length used throughout the paper's evaluation.
pub const DEFAULT_VIEW_LENGTH: usize = 20;

/// Default number of descriptors exchanged per Vicinity gossip.
pub const DEFAULT_GOSSIP_LENGTH: usize = 5;

/// State of one node running the Vicinity protocol over an `Ord` ring-key
/// space `K` (e.g. [`crate::proximity::RingPosition`] or
/// [`crate::proximity::DomainKey`]).
#[derive(Debug, Clone)]
pub struct VicinityNode<K> {
    id: NodeId,
    key: K,
    view: View<K>,
    gossip_len: usize,
}

impl<K: Ord + Clone> VicinityNode<K> {
    /// Creates a Vicinity node with an empty view.
    ///
    /// # Panics
    ///
    /// Panics if `view_len == 0` or `gossip_len == 0`.
    pub fn new(id: NodeId, key: K, view_len: usize, gossip_len: usize) -> Self {
        assert!(gossip_len > 0, "gossip length must be positive");
        VicinityNode {
            id,
            key,
            view: View::new(id, view_len),
            gossip_len: gossip_len.min(view_len),
        }
    }

    /// Creates a Vicinity node with the paper's default parameters
    /// (`vic = 20`, gossip length 5).
    pub fn with_defaults(id: NodeId, key: K) -> Self {
        Self::new(id, key, DEFAULT_VIEW_LENGTH, DEFAULT_GOSSIP_LENGTH)
    }

    /// The local node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The local node's ring key.
    pub fn key(&self) -> &K {
        &self.key
    }

    /// Read access to the current proximity view.
    pub fn view(&self) -> &View<K> {
        &self.view
    }

    /// Starts a new gossip cycle: ages every view entry by one.
    pub fn begin_cycle(&mut self) {
        self.view.increment_ages();
    }

    /// Initiates a Vicinity exchange.
    ///
    /// The gossip partner is the oldest entry of the proximity view; if the
    /// view is still empty the partner is drawn from `cyclon_candidates`
    /// (the random layer bootstraps the proximity layer). Returns `None`
    /// when no partner is known at all.
    ///
    /// The payload contains the node's own fresh descriptor plus up to
    /// `gossip_len - 1` view entries closest to the *target*, which is what
    /// lets proximity information travel towards the region of the ring
    /// where it is relevant.
    pub fn initiate_exchange<R: Rng + ?Sized>(
        &mut self,
        cyclon_candidates: &[Descriptor<K>],
        rng: &mut R,
    ) -> Option<(NodeId, Vec<Descriptor<K>>)> {
        let target = match self.view.oldest() {
            Some(t) => t,
            None => {
                let candidates: Vec<&Descriptor<K>> = cyclon_candidates
                    .iter()
                    .filter(|d| d.id != self.id)
                    .collect();
                if candidates.is_empty() {
                    return None;
                }
                candidates[rng.gen_range(0..candidates.len())].id
            }
        };
        let target_key = self
            .view
            .get(target)
            .map(|d| d.profile.clone())
            .or_else(|| {
                cyclon_candidates
                    .iter()
                    .find(|d| d.id == target)
                    .map(|d| d.profile.clone())
            })
            .unwrap_or_else(|| self.key.clone());

        let payload = self.payload_for(&target_key, target);
        Some((target, payload))
    }

    /// Handles an incoming exchange request from `from`, returning the reply
    /// payload (descriptors useful to `from`, at the key of its own
    /// descriptor in `received`) and merging the received descriptors —
    /// plus the local Cyclon candidates — into the view.
    pub fn handle_exchange_request(
        &mut self,
        from: NodeId,
        received: &[Descriptor<K>],
        cyclon_candidates: &[Descriptor<K>],
    ) -> Vec<Descriptor<K>> {
        let sender_key = received
            .iter()
            .find(|d| d.id == from)
            .map_or_else(|| self.key.clone(), |d| d.profile.clone());
        let reply = self.payload_for(&sender_key, from);
        self.merge(received, cyclon_candidates);
        reply
    }

    /// Handles the reply to an exchange this node initiated.
    pub fn handle_exchange_response(
        &mut self,
        received: &[Descriptor<K>],
        cyclon_candidates: &[Descriptor<K>],
    ) {
        self.merge(received, cyclon_candidates);
    }

    /// Records that an exchange towards the unreachable `target` failed:
    /// the dead peer is dropped from the proximity view so the ring can
    /// re-close around it.
    pub fn exchange_failed(&mut self, target: NodeId) {
        self.view.remove(target);
    }

    /// Merges arbitrary candidate descriptors (e.g. the local Cyclon view)
    /// into the proximity view without gossiping. This is the "use the
    /// random layer as a candidate source" half of the two-layer design.
    pub fn absorb_candidates(&mut self, candidates: &[Descriptor<K>]) {
        self.merge(&[], candidates);
    }

    /// The node's current ring neighbours `(predecessor, successor)`, i.e.
    /// its outgoing d-links. Either side is `None` while the view is empty.
    pub fn ring_neighbors(&self) -> (Option<NodeId>, Option<NodeId>) {
        let pairs: Vec<(K, NodeId)> = self
            .view
            .iter()
            .map(|d| (d.profile.clone(), d.id))
            .collect();
        ring_neighbors(&self.key, &pairs)
    }

    /// The `count` view entries closest to this node on the ring (closest
    /// first, alternating successor/predecessor sides).
    pub fn closest(&self, count: usize) -> Vec<NodeId> {
        let candidates: Vec<(K, NodeId, ())> = self
            .view
            .iter()
            .map(|d| (d.profile.clone(), d.id, ()))
            .collect();
        rank_by_ring_distance(&self.key, &candidates)
            .into_iter()
            .take(count)
            .map(|entry| entry.1)
            .collect()
    }

    /// Builds a payload of descriptors for a peer with key `target_key`:
    /// this node's own fresh descriptor plus the view entries closest to the
    /// target (never the target itself).
    fn payload_for(&self, target_key: &K, target: NodeId) -> Vec<Descriptor<K>> {
        let candidates: Vec<(K, NodeId, u32)> = self
            .view
            .iter()
            .filter(|d| d.id != target)
            .map(|d| (d.profile.clone(), d.id, d.age))
            .collect();
        let mut payload: Vec<Descriptor<K>> = rank_by_ring_distance(target_key, &candidates)
            .into_iter()
            .take(self.gossip_len.saturating_sub(1))
            .map(|(key, id, age)| Descriptor::with_age(id, age, key))
            .collect();
        payload.push(Descriptor::new(self.id, self.key.clone()));
        payload
    }

    /// Merges received descriptors and random-layer candidates into the
    /// view, keeping the `capacity` entries closest to the local key.
    fn merge(&mut self, received: &[Descriptor<K>], cyclon_candidates: &[Descriptor<K>]) {
        let capacity = self.view.capacity();
        let mut pool: Vec<Descriptor<K>> = Vec::new();
        let add = |d: &Descriptor<K>, pool: &mut Vec<Descriptor<K>>| {
            if d.id == self.id {
                return;
            }
            match pool.iter_mut().find(|existing| existing.id == d.id) {
                Some(existing) => {
                    if d.age < existing.age {
                        *existing = d.clone();
                    }
                }
                None => pool.push(d.clone()),
            }
        };
        for d in self.view.iter() {
            add(d, &mut pool);
        }
        for d in received {
            add(d, &mut pool);
        }
        for d in cyclon_candidates {
            add(d, &mut pool);
        }

        let ranked: Vec<(K, NodeId, u32)> = {
            let candidates: Vec<(K, NodeId, u32)> = pool
                .iter()
                .map(|d| (d.profile.clone(), d.id, d.age))
                .collect();
            rank_by_ring_distance(&self.key, &candidates)
        };

        let selected: Vec<Descriptor<K>> = ranked
            .into_iter()
            .take(capacity)
            .map(|(key, id, age)| Descriptor::with_age(id, age, key))
            .collect();
        self.view.replace_with(selected);
    }
}

/// The d-links of a node that runs one Vicinity instance per ring: both
/// ring neighbours of every ring, de-duplicated, in ring order
/// (predecessor before successor).
///
/// This is the one d-link rule of the workspace: the simulator's snapshot
/// export, the live-membership async engine and the real node all call it
/// (a single-ring node with `std::slice::from_ref`).
pub fn d_links<K: Ord + Clone>(rings: &[VicinityNode<K>]) -> Vec<NodeId> {
    let mut links = Vec::new();
    for ring in rings {
        let (pred, succ) = ring.ring_neighbors();
        for link in [pred, succ].into_iter().flatten() {
            if !links.contains(&link) {
                links.push(link);
            }
        }
    }
    links
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    /// A node whose ring key equals 100 * id, view length 4, gossip 3.
    fn vic(id: u64) -> VicinityNode<u64> {
        VicinityNode::new(n(id), id * 100, 4, 3)
    }

    fn desc(id: u64) -> Descriptor<u64> {
        Descriptor::new(n(id), id * 100)
    }

    #[test]
    fn new_node_has_no_ring_neighbors() {
        let node = vic(1);
        assert_eq!(node.ring_neighbors(), (None, None));
        assert!(node.closest(3).is_empty());
    }

    #[test]
    #[should_panic(expected = "gossip length")]
    fn zero_gossip_len_panics() {
        let _ = VicinityNode::new(n(1), 0u64, 4, 0);
    }

    #[test]
    fn absorb_candidates_keeps_closest() {
        let mut node = vic(5); // key 500, capacity 4
        node.absorb_candidates(&[
            desc(1),
            desc(2),
            desc(3),
            desc(4),
            desc(6),
            desc(7),
            desc(8),
        ]);
        assert_eq!(node.view().len(), 4);
        // Closest on both sides of 500: 400, 600, 300, 700.
        let mut kept = node.view().node_ids();
        kept.sort();
        assert_eq!(kept, vec![n(3), n(4), n(6), n(7)]);
        assert_eq!(node.ring_neighbors(), (Some(n(4)), Some(n(6))));
    }

    #[test]
    fn closest_orders_by_alternating_sides() {
        let mut node = vic(5);
        node.absorb_candidates(&[desc(3), desc(4), desc(6), desc(7)]);
        assert_eq!(node.closest(2), vec![n(6), n(4)]);
        assert_eq!(node.closest(10), vec![n(6), n(4), n(7), n(3)]);
    }

    #[test]
    fn d_links_are_every_rings_neighbours_deduplicated_in_ring_order() {
        assert!(d_links::<u64>(&[]).is_empty());
        let mut first = vic(5);
        first.absorb_candidates(&[desc(3), desc(4), desc(6), desc(7)]);
        assert_eq!(d_links(std::slice::from_ref(&first)), vec![n(4), n(6)]);
        // A second ring whose neighbours are 6 (again) and 9.
        let mut second = VicinityNode::new(n(5), 500, 4, 3);
        second.absorb_candidates(&[Descriptor::new(n(6), 400), Descriptor::new(n(9), 600)]);
        assert_eq!(d_links(&[first, second]), vec![n(4), n(6), n(9)]);
        // Predecessor and successor coincide on a two-node ring.
        let mut pair = vic(1);
        pair.absorb_candidates(&[desc(2)]);
        assert_eq!(d_links(&[pair]), vec![n(2)]);
    }

    #[test]
    fn initiate_uses_cyclon_candidates_when_view_empty() {
        let mut node = vic(1);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        assert!(node.initiate_exchange(&[], &mut rng).is_none());
        let (target, payload) = node
            .initiate_exchange(&[desc(7)], &mut rng)
            .expect("bootstrap from the random layer");
        assert_eq!(target, n(7));
        assert_eq!(payload.len(), 1, "only the own descriptor is known");
        assert_eq!(payload[0].id, n(1));
        assert_eq!(payload[0].age, 0);
    }

    #[test]
    fn exchange_round_trip_converges_both_views() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut a = vic(1);
        let mut b = vic(2);
        a.absorb_candidates(&[desc(3), desc(9)]);
        b.absorb_candidates(&[desc(4), desc(8)]);

        a.begin_cycle();
        b.begin_cycle();
        let (_, request) = a.initiate_exchange(&[desc(2)], &mut rng).unwrap();
        let reply = b.handle_exchange_request(a.id(), &request, &[]);
        a.handle_exchange_response(&reply, &[]);

        assert!(b.view().contains(n(1)), "responder learned the initiator");
        assert!(a.view().contains(n(2)), "initiator learned the responder");
        for node in [&a, &b] {
            assert!(node.view().len() <= node.view().capacity());
            assert!(!node.view().contains(node.id()));
        }
    }

    #[test]
    fn reply_targets_the_senders_neighborhood() {
        let mut b = vic(5); // key 500
        b.absorb_candidates(&[desc(1), desc(4), desc(6), desc(9)]);
        // Sender has key 450; the most useful entries for it are 400 and 500-ish.
        let reply = b.handle_exchange_request(n(42), &[Descriptor::new(n(42), 450u64)], &[]);
        assert!(reply.iter().any(|d| d.id == n(5)), "always includes itself");
        assert!(
            reply.iter().any(|d| d.id == n(4)),
            "includes the entry closest to the sender"
        );
        assert!(reply.iter().all(|d| d.id != n(42)));
    }

    #[test]
    fn exchange_failure_drops_dead_ring_neighbor() {
        let mut node = vic(5);
        node.absorb_candidates(&[desc(4), desc(6)]);
        assert_eq!(node.ring_neighbors(), (Some(n(4)), Some(n(6))));
        node.exchange_failed(n(6));
        assert_eq!(node.ring_neighbors(), (Some(n(4)), Some(n(4))));
    }

    #[test]
    fn merge_prefers_younger_duplicate_descriptors() {
        let mut node = vic(5);
        node.absorb_candidates(&[Descriptor::with_age(n(4), 9, 400u64)]);
        node.absorb_candidates(&[Descriptor::with_age(n(4), 2, 400u64)]);
        assert_eq!(node.view().get(n(4)).unwrap().age, 2);
    }

    #[test]
    fn works_with_domain_keys() {
        use crate::proximity::DomainKey;
        let key = |d: &str, nonce: u64| DomainKey::from_domain(d, nonce);
        let mut node = VicinityNode::new(n(0), key("inf.ethz.ch", 5), 2, 2);
        node.absorb_candidates(&[
            Descriptor::new(n(1), key("few.vu.nl", 1)),
            Descriptor::new(n(2), key("phys.ethz.ch", 2)),
            Descriptor::new(n(3), key("cs.uchicago.edu", 3)),
        ]);
        // The same-country peer must be kept in the 2-entry view.
        assert!(node.view().contains(n(2)));
    }
}
