//! Bounded partial views of the network.

use rand::seq::SliceRandom;
use rand::Rng;

use hybridcast_graph::NodeId;

use crate::descriptor::Descriptor;

/// A bounded partial view: at most `capacity` descriptors of *other* nodes,
/// with no duplicates.
///
/// `View` is the data structure both Cyclon and Vicinity maintain. It keeps
/// the invariants the protocols rely on:
///
/// * never contains the owner (`owner` is rejected on insert),
/// * never contains two descriptors for the same node,
/// * never exceeds its capacity.
///
/// # Example
///
/// ```
/// use hybridcast_membership::{Descriptor, View};
/// use hybridcast_graph::NodeId;
///
/// let mut view: View<()> = View::new(NodeId::new(0), 3);
/// view.insert(Descriptor::new(NodeId::new(1), ()));
/// view.insert(Descriptor::new(NodeId::new(2), ()));
/// assert_eq!(view.len(), 2);
/// assert!(view.contains(NodeId::new(1)));
/// assert!(!view.insert(Descriptor::new(NodeId::new(0), ())), "never inserts the owner");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View<P> {
    owner: NodeId,
    capacity: usize,
    entries: Vec<Descriptor<P>>,
}

impl<P: Clone> View<P> {
    /// Creates an empty view owned by `owner` with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(owner: NodeId, capacity: usize) -> Self {
        assert!(capacity > 0, "view capacity must be positive");
        View {
            owner,
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// The node owning this view.
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Maximum number of descriptors the view can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of descriptors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the view holds no descriptors.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if the view is at capacity.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Returns `true` if the view contains a descriptor for `id`.
    pub fn contains(&self, id: NodeId) -> bool {
        self.entries.iter().any(|d| d.id == id)
    }

    /// Returns the descriptor for `id`, if present.
    pub fn get(&self, id: NodeId) -> Option<&Descriptor<P>> {
        self.entries.iter().find(|d| d.id == id)
    }

    /// Iterates over the descriptors in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Descriptor<P>> {
        self.entries.iter()
    }

    /// Returns the node ids currently in the view.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.entries.iter().map(|d| d.id).collect()
    }

    /// Inserts a descriptor if there is room, it is not the owner and the
    /// node is not already present. Returns `true` if the descriptor was
    /// added.
    pub fn insert(&mut self, descriptor: Descriptor<P>) -> bool {
        if descriptor.id == self.owner || self.contains(descriptor.id) || self.is_full() {
            return false;
        }
        self.entries.push(descriptor);
        true
    }

    /// Inserts a descriptor, or — if a descriptor for the same node already
    /// exists — keeps whichever of the two is *younger* (smaller age).
    /// Returns `true` if the view changed.
    pub fn insert_or_refresh(&mut self, descriptor: Descriptor<P>) -> bool {
        if descriptor.id == self.owner {
            return false;
        }
        if let Some(existing) = self.entries.iter_mut().find(|d| d.id == descriptor.id) {
            if descriptor.age < existing.age {
                *existing = descriptor;
                return true;
            }
            return false;
        }
        if self.is_full() {
            return false;
        }
        self.entries.push(descriptor);
        true
    }

    /// Removes the descriptor for `id`, returning it if it was present.
    pub fn remove(&mut self, id: NodeId) -> Option<Descriptor<P>> {
        let pos = self.entries.iter().position(|d| d.id == id)?;
        Some(self.entries.remove(pos))
    }

    /// Removes and returns all descriptors, leaving the view empty.
    pub fn drain(&mut self) -> Vec<Descriptor<P>> {
        std::mem::take(&mut self.entries)
    }

    /// Increments the age of every descriptor by one cycle.
    pub fn increment_ages(&mut self) {
        for d in &mut self.entries {
            d.increment_age();
        }
    }

    /// Returns the id of the descriptor with the highest age (ties broken by
    /// lower node id for determinism), or `None` if the view is empty.
    pub fn oldest(&self) -> Option<NodeId> {
        oldest_descriptor_index(self.entries.iter().map(|d| (d.id.as_u64(), d.age)))
            .map(|i| self.entries[i].id)
    }

    /// Returns up to `count` descriptors drawn uniformly at random without
    /// replacement, excluding any node in `exclude`.
    pub fn random_descriptors<R: Rng + ?Sized>(
        &self,
        count: usize,
        exclude: &[NodeId],
        rng: &mut R,
    ) -> Vec<Descriptor<P>> {
        let mut candidates: Vec<Descriptor<P>> = self
            .entries
            .iter()
            .filter(|d| !exclude.contains(&d.id))
            .cloned()
            .collect();
        candidates.shuffle(rng);
        candidates.truncate(count);
        candidates
    }

    /// Replaces the whole content of the view with (at most `capacity` of)
    /// the given descriptors, filtering out the owner and duplicates.
    pub fn replace_with(&mut self, descriptors: Vec<Descriptor<P>>) {
        self.entries.clear();
        for d in descriptors {
            if self.is_full() {
                break;
            }
            self.insert(d);
        }
    }

    /// Retains only the descriptors for which `keep` returns `true`.
    pub fn retain<F: FnMut(&Descriptor<P>) -> bool>(&mut self, keep: F) {
        self.entries.retain(keep);
    }
}

/// The index of the oldest `(id, age)` descriptor — highest age, ties broken
/// by **lower** node id — or `None` for an empty iterator.
///
/// This is the protocol's oldest-neighbour selection rule (Cyclon picks its
/// shuffle target this way, Vicinity its exchange partner), kept in one
/// place so every runtime agrees on the tie-break: [`View::oldest`]
/// delegates here, and the arena-based simulation runtime applies the same
/// function to its flat descriptor slices.
pub fn oldest_descriptor_index(entries: impl IntoIterator<Item = (u64, u32)>) -> Option<usize> {
    let mut best: Option<(usize, u64, u32)> = None;
    for (i, (id, age)) in entries.into_iter().enumerate() {
        let replace = match best {
            None => true,
            Some((_, bid, bage)) => age > bage || (age == bage && id < bid),
        };
        if replace {
            best = Some((i, id, age));
        }
    }
    best.map(|(i, _, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    fn view_with(ids: &[u64]) -> View<()> {
        let mut v = View::new(n(0), 10);
        for &i in ids {
            v.insert(Descriptor::new(n(i), ()));
        }
        v
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _: View<()> = View::new(n(0), 0);
    }

    #[test]
    fn insert_rejects_owner_duplicates_and_overflow() {
        let mut v: View<()> = View::new(n(0), 2);
        assert!(!v.insert(Descriptor::new(n(0), ())), "owner rejected");
        assert!(v.insert(Descriptor::new(n(1), ())));
        assert!(!v.insert(Descriptor::new(n(1), ())), "duplicate rejected");
        assert!(v.insert(Descriptor::new(n(2), ())));
        assert!(!v.insert(Descriptor::new(n(3), ())), "overflow rejected");
        assert_eq!(v.len(), 2);
        assert!(v.is_full());
    }

    #[test]
    fn insert_or_refresh_keeps_younger_descriptor() {
        let mut v: View<()> = View::new(n(0), 4);
        v.insert(Descriptor::with_age(n(1), 5, ()));
        assert!(v.insert_or_refresh(Descriptor::with_age(n(1), 2, ())));
        assert_eq!(v.get(n(1)).unwrap().age, 2);
        assert!(!v.insert_or_refresh(Descriptor::with_age(n(1), 9, ())));
        assert_eq!(v.get(n(1)).unwrap().age, 2);
    }

    #[test]
    fn remove_returns_descriptor() {
        let mut v = view_with(&[1, 2, 3]);
        let removed = v.remove(n(2)).expect("present");
        assert_eq!(removed.id, n(2));
        assert!(!v.contains(n(2)));
        assert!(v.remove(n(2)).is_none());
    }

    #[test]
    fn ages_and_oldest() {
        let mut v: View<()> = View::new(n(0), 5);
        v.insert(Descriptor::with_age(n(1), 1, ()));
        v.insert(Descriptor::with_age(n(2), 4, ()));
        v.insert(Descriptor::with_age(n(3), 4, ()));
        assert_eq!(v.oldest(), Some(n(2)), "ties broken toward lower id");
        v.increment_ages();
        assert_eq!(v.get(n(1)).unwrap().age, 2);
        assert!(view_with(&[]).oldest().is_none());
    }

    #[test]
    fn random_selection_excludes_and_bounds() {
        let v = view_with(&[1, 2, 3, 4, 5]);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let picked = v.random_descriptors(3, &[n(2), n(4)], &mut rng);
        assert_eq!(picked.len(), 3);
        assert!(picked.iter().all(|d| d.id != n(2) && d.id != n(4)));

        let all = v.random_descriptors(10, &[], &mut rng);
        assert_eq!(all.len(), 5, "bounded by view size");

        let descs = v.random_descriptors(2, &[n(1)], &mut rng);
        assert_eq!(descs.len(), 2);
        assert!(descs.iter().all(|d| d.id != n(1)));
    }

    #[test]
    fn replace_with_filters_owner_and_duplicates() {
        let mut v: View<()> = View::new(n(0), 3);
        v.insert(Descriptor::new(n(9), ()));
        v.replace_with(vec![
            Descriptor::new(n(0), ()),
            Descriptor::new(n(1), ()),
            Descriptor::new(n(1), ()),
            Descriptor::new(n(2), ()),
            Descriptor::new(n(3), ()),
            Descriptor::new(n(4), ()),
        ]);
        assert!(!v.contains(n(9)), "old content replaced");
        assert!(!v.contains(n(0)));
        assert_eq!(v.len(), 3, "bounded by capacity");
        assert!(v.contains(n(1)));
        assert!(v.contains(n(2)));
        assert!(v.contains(n(3)));
    }

    #[test]
    fn drain_empties_the_view() {
        let mut v = view_with(&[1, 2]);
        let drained = v.drain();
        assert_eq!(drained.len(), 2);
        assert!(v.is_empty());
    }

    #[test]
    fn retain_filters_entries() {
        let mut v = view_with(&[1, 2, 3, 4]);
        v.retain(|d| d.id.as_u64() % 2 == 0);
        assert_eq!(v.node_ids(), vec![n(2), n(4)]);
    }
}
