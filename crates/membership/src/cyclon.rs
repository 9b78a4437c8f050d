//! The Cyclon peer sampling protocol (Voulgaris, Gavidia & van Steen, 2005).
//!
//! Cyclon maintains, at every node, a small partial view of `cyc` random
//! other nodes, refreshed by periodic *shuffles*: once per cycle a node
//!
//! 1. increments the age of every view entry,
//! 2. picks its **oldest** neighbour `Q` and removes it from the view,
//! 3. sends `Q` a subset of `shuffle_len` descriptors — `shuffle_len - 1`
//!    random view entries plus a fresh descriptor of itself,
//! 4. `Q` answers with up to `shuffle_len` random entries of its own view and
//!    stores the received ones (filling empty slots first, then replacing the
//!    entries it sent away),
//! 5. the initiator merges the reply the same way.
//!
//! The resulting overlay strongly resembles a random graph: in-degrees
//! concentrate around `cyc` and links are refreshed continuously, which is
//! what the RandCast/RingCast evaluation relies on. Gossiping with the
//! *oldest* neighbour bounds link staleness and flushes dead nodes out of
//! the overlay within at most `cyc` cycles — the property behind the
//! self-healing behaviour discussed in the catastrophic-failure experiments.

use rand::Rng;

use hybridcast_graph::NodeId;

use crate::descriptor::Descriptor;
use crate::view::View;

/// Default Cyclon view length used throughout the paper's evaluation.
pub const DEFAULT_VIEW_LENGTH: usize = 20;

/// Default shuffle length (descriptors exchanged per shuffle).
pub const DEFAULT_SHUFFLE_LENGTH: usize = 5;

/// State of one node running the Cyclon protocol.
///
/// The profile type `P` is carried opaquely inside descriptors so that
/// higher layers (Vicinity) can learn profiles of random peers from Cyclon's
/// view; plain peer sampling uses `P = ()`.
#[derive(Debug, Clone)]
pub struct CyclonNode<P> {
    id: NodeId,
    profile: P,
    view: View<P>,
    shuffle_len: usize,
}

impl<P: Clone> CyclonNode<P> {
    /// Creates a Cyclon node with an empty view.
    ///
    /// `view_len` is the view capacity (`cyc` in the paper, 20 by default)
    /// and `shuffle_len` the number of descriptors exchanged per shuffle
    /// (`l`, at most `view_len`).
    ///
    /// # Panics
    ///
    /// Panics if `view_len == 0` or `shuffle_len == 0`.
    pub fn new(id: NodeId, profile: P, view_len: usize, shuffle_len: usize) -> Self {
        assert!(shuffle_len > 0, "shuffle length must be positive");
        CyclonNode {
            id,
            profile,
            view: View::new(id, view_len),
            shuffle_len: shuffle_len.min(view_len),
        }
    }

    /// Creates a Cyclon node with the paper's default parameters
    /// (`cyc = 20`, `l = 5`).
    pub fn with_defaults(id: NodeId, profile: P) -> Self {
        Self::new(id, profile, DEFAULT_VIEW_LENGTH, DEFAULT_SHUFFLE_LENGTH)
    }

    /// The local node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The local node's profile.
    pub fn profile(&self) -> &P {
        &self.profile
    }

    /// Read access to the current partial view.
    pub fn view(&self) -> &View<P> {
        &self.view
    }

    /// Adds a bootstrap contact (used when joining: a fresh node knows a
    /// single introducer, forming the star topology of the paper's setup).
    /// Returns `true` if the contact was added.
    pub fn add_bootstrap_contact(&mut self, contact: Descriptor<P>) -> bool {
        self.view.insert_or_refresh(contact)
    }

    /// Starts a new gossip cycle: ages every view entry by one.
    pub fn begin_cycle(&mut self) {
        self.view.increment_ages();
    }

    /// Initiates a shuffle: picks the oldest neighbour, removes it from the
    /// view and builds the request payload (own fresh descriptor plus up to
    /// `shuffle_len - 1` random other entries).
    ///
    /// Returns `None` when the view is empty (an isolated node cannot
    /// shuffle). The initiator keeps the payload it sent until the reply
    /// reaches [`CyclonNode::handle_shuffle_response`]; an unreachable
    /// target needs no repair, as its descriptor already left the view.
    pub fn initiate_shuffle<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> Option<(NodeId, Vec<Descriptor<P>>)> {
        let target = self.view.oldest()?;
        // The target's descriptor leaves the view: if it is alive it will be
        // replaced by fresher information, if it is dead the link is gone.
        self.view.remove(target);

        let mut payload =
            self.view
                .random_descriptors(self.shuffle_len.saturating_sub(1), &[target], rng);
        payload.push(Descriptor::new(self.id, self.profile.clone()));
        Some((target, payload))
    }

    /// Handles an incoming shuffle request from `from`, returning the reply
    /// payload (up to `shuffle_len` random entries of the local view).
    ///
    /// The received descriptors are merged into the local view: empty slots
    /// are filled first, then the entries just sent in the reply are
    /// replaced, never evicting anything else.
    pub fn handle_shuffle_request<R: Rng + ?Sized>(
        &mut self,
        from: NodeId,
        received: &[Descriptor<P>],
        rng: &mut R,
    ) -> Vec<Descriptor<P>> {
        let reply = self.view.random_descriptors(self.shuffle_len, &[from], rng);
        self.merge_received(received, &reply);
        reply
    }

    /// Handles the reply to a shuffle this node initiated; `sent` is the
    /// request payload (the reply may overwrite exactly those entries).
    pub fn handle_shuffle_response(&mut self, sent: &[Descriptor<P>], received: &[Descriptor<P>]) {
        self.merge_received(received, sent);
    }

    /// Merges `received` descriptors into the view following the Cyclon
    /// rules: ignore self-descriptors and already-known nodes, fill empty
    /// slots first, then overwrite entries that were shipped out in `sent`.
    fn merge_received(&mut self, received: &[Descriptor<P>], sent: &[Descriptor<P>]) {
        let mut replaceable: Vec<NodeId> = sent
            .iter()
            .map(|d| d.id)
            .filter(|&id| id != self.id)
            .collect();
        for descriptor in received {
            if descriptor.id == self.id || self.view.contains(descriptor.id) {
                continue;
            }
            if self.view.insert(descriptor.clone()) {
                continue;
            }
            // View full: evict one of the descriptors we sent away, if any
            // are still present.
            let evicted = loop {
                match replaceable.pop() {
                    Some(candidate) => {
                        if self.view.remove(candidate).is_some() {
                            break true;
                        }
                    }
                    None => break false,
                }
            };
            if evicted {
                self.view.insert(descriptor.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    fn node_with_view(id: u64, peers: &[u64]) -> CyclonNode<()> {
        let mut node = CyclonNode::new(n(id), (), 20, 5);
        for &p in peers {
            node.add_bootstrap_contact(Descriptor::new(n(p), ()));
        }
        node
    }

    #[test]
    fn new_node_has_empty_view() {
        let node: CyclonNode<()> = CyclonNode::with_defaults(n(1), ());
        assert!(node.view().is_empty());
        assert_eq!(node.view().capacity(), DEFAULT_VIEW_LENGTH);
        assert_eq!(node.id(), n(1));
    }

    #[test]
    #[should_panic(expected = "shuffle length")]
    fn zero_shuffle_len_panics() {
        let _: CyclonNode<()> = CyclonNode::new(n(1), (), 20, 0);
    }

    #[test]
    fn shuffle_len_clamped_to_view_len() {
        let node: CyclonNode<()> = CyclonNode::new(n(1), (), 3, 10);
        assert_eq!(node.shuffle_len, 3);
    }

    #[test]
    fn isolated_node_cannot_initiate() {
        let mut node: CyclonNode<()> = CyclonNode::with_defaults(n(1), ());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(node.initiate_shuffle(&mut rng).is_none());
    }

    #[test]
    fn initiate_targets_oldest_and_removes_it() {
        let mut node = node_with_view(0, &[1, 2, 3]);
        // Age peer 2 the most.
        node.begin_cycle();
        node.view.remove(n(2));
        node.view.insert(Descriptor::with_age(n(2), 10, ()));
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let (target, payload) = node.initiate_shuffle(&mut rng).unwrap();
        assert_eq!(target, n(2));
        assert!(!node.view().contains(n(2)), "target removed from view");
        assert!(payload.iter().any(|d| d.id == n(0) && d.age == 0));
        assert!(payload.len() <= 5);
        assert!(
            payload.iter().all(|d| d.id != n(2)),
            "never send the target its own descriptor"
        );
    }

    #[test]
    fn request_reply_merge_keeps_invariants() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut a = node_with_view(0, &[1, 2, 3, 4]);
        let mut b = node_with_view(9, &[5, 6, 7, 8]);

        a.begin_cycle();
        b.begin_cycle();
        let (_, request) = a.initiate_shuffle(&mut rng).unwrap();
        // Deliver to b even though target may differ; the protocol only
        // requires a shuffle partner.
        let reply = b.handle_shuffle_request(a.id(), &request, &mut rng);
        a.handle_shuffle_response(&request, &reply);

        for node in [&a, &b] {
            let ids = node.view().node_ids();
            let mut dedup = ids.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(ids.len(), dedup.len(), "no duplicate view entries");
            assert!(!node.view().contains(node.id()), "no self entry");
            assert!(node.view().len() <= node.view().capacity());
        }
        // b learned about a.
        assert!(b.view().contains(n(0)));
    }

    #[test]
    fn merge_prefers_empty_slots_then_replaces_sent() {
        let mut node: CyclonNode<()> = CyclonNode::new(n(0), (), 3, 3);
        for p in [1, 2, 3] {
            node.add_bootstrap_contact(Descriptor::new(n(p), ()));
        }
        // View full. Pretend we sent descriptors for 1 and 2.
        let sent = vec![Descriptor::new(n(1), ()), Descriptor::new(n(2), ())];
        let received = vec![
            Descriptor::new(n(7), ()),
            Descriptor::new(n(8), ()),
            Descriptor::new(n(9), ()),
        ];
        node.merge_received(&received, &sent);
        assert_eq!(node.view().len(), 3);
        assert!(node.view().contains(n(3)), "unsent entry is never evicted");
        // Exactly two of the received entries fit (replacing 1 and 2).
        let received_present = [n(7), n(8), n(9)]
            .iter()
            .filter(|&&id| node.view().contains(id))
            .count();
        assert_eq!(received_present, 2);
    }

    #[test]
    fn merge_ignores_self_and_known() {
        let mut node = node_with_view(0, &[1]);
        let before = node.view().node_ids();
        node.merge_received(
            &[Descriptor::new(n(0), ()), Descriptor::with_age(n(1), 9, ())],
            &[],
        );
        assert_eq!(node.view().node_ids(), before);
        assert_eq!(
            node.view().get(n(1)).unwrap().age,
            0,
            "existing entry untouched"
        );
    }

    #[test]
    fn failed_shuffle_leaves_target_forgotten() {
        let mut node = node_with_view(0, &[1]);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        // A shuffle that is never answered needs no repair call.
        let (target, _) = node.initiate_shuffle(&mut rng).unwrap();
        assert!(!node.view().contains(target));
    }
}
