//! Proximity metrics and ring-key spaces for the Vicinity layer.
//!
//! RingCast organizes nodes in a global bidirectional ring ordered by an
//! *arbitrarily chosen* sequence identifier (Section 6 of the paper). The
//! Vicinity protocol converges each node's view to the peers *closest* to it
//! in that identifier space; the two closest — the direct successor and the
//! direct predecessor in the circular order — become the node's d-links.
//!
//! Two key spaces are provided:
//!
//! * [`RingPosition`] — a random 64-bit integer; the default used by the
//!   evaluation harness and the simulator.
//! * [`DomainKey`] — the reversed-domain-name key from the paper's
//!   "proximity-based dissemination" discussion (Section 8): nodes order
//!   themselves by reversed domain name (country first) so that the ring
//!   naturally clusters domains and countries.
//!
//! Both are ordinary `Ord` types: the ring order is the circular extension
//! of their total order, which is all [`ring_neighbors`] and
//! [`rank_by_ring_distance`] need.

use std::fmt;

use hybridcast_graph::NodeId;

/// A position on the RingCast identifier ring: a plain 64-bit integer drawn
/// uniformly at random when a node joins.
pub type RingPosition = u64;

/// Circular (wrap-around) distance between two [`RingPosition`]s: the length
/// of the shorter arc between them on the 2^64 ring.
///
/// # Example
///
/// ```
/// use hybridcast_membership::proximity::circular_distance;
///
/// assert_eq!(circular_distance(10, 14), 4);
/// assert_eq!(circular_distance(14, 10), 4);
/// assert_eq!(circular_distance(u64::MAX, 0), 1, "the ring wraps around");
/// ```
pub fn circular_distance(a: RingPosition, b: RingPosition) -> u64 {
    let clockwise = b.wrapping_sub(a);
    let counter = a.wrapping_sub(b);
    clockwise.min(counter)
}

/// The reversed-domain-name ring key sketched in Section 8 of the paper.
///
/// A node in `inf.ethz.ch` with nonce 1234 gets the key
/// `ch.ethz.inf.1234`: sorting these keys groups nodes by country, then
/// organisation, then department, so a dissemination walking the ring visits
/// whole domains consecutively instead of criss-crossing the planet.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainKey {
    /// Domain labels in reversed order (`["ch", "ethz", "inf"]`).
    pub reversed_labels: Vec<String>,
    /// Random disambiguator appended after the domain labels.
    pub nonce: u64,
}

impl DomainKey {
    /// Builds a key from a regular domain name (`"inf.ethz.ch"`) and a
    /// random nonce.
    ///
    /// Empty labels are dropped, so `"example..com"` and `"example.com"`
    /// produce the same key.
    pub fn from_domain(domain: &str, nonce: u64) -> Self {
        let mut reversed_labels: Vec<String> = domain
            .split('.')
            .filter(|label| !label.is_empty())
            .map(|label| label.to_ascii_lowercase())
            .collect();
        reversed_labels.reverse();
        DomainKey {
            reversed_labels,
            nonce,
        }
    }

    /// Returns the country-level label (the first reversed label), if any.
    pub fn country(&self) -> Option<&str> {
        self.reversed_labels.first().map(String::as_str)
    }
}

impl fmt::Display for DomainKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for label in &self.reversed_labels {
            write!(f, "{label}.")?;
        }
        write!(f, "{}", self.nonce)
    }
}

/// Ranks `candidates` by how close they are to `own_key` on the ring defined
/// by the circular extension of `K`'s total order, closest first.
///
/// "Close" alternates sides: the direct successor and direct predecessor
/// come first, then the second successor and second predecessor, and so on.
/// This is the selection function Vicinity uses to decide which descriptors
/// to keep: retaining the `k` highest-ranked candidates keeps `k / 2`
/// neighbours on each side of the ring, which is exactly what is needed to
/// maintain (and repair) a bidirectional ring under churn.
///
/// Candidates with the same key as `own_key` are ranked by node id so the
/// order stays total and deterministic.
pub fn rank_by_ring_distance<K: Ord + Clone, P>(
    own_key: &K,
    candidates: &[(K, NodeId, P)],
) -> Vec<(K, NodeId, P)>
where
    P: Clone,
{
    // Successors: keys > own, ascending; then wrap to the smallest keys.
    // Predecessors: keys < own, descending; then wrap to the largest keys.
    let mut sorted: Vec<(K, NodeId, P)> = candidates.to_vec();
    sorted.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));

    let split = sorted.partition_point(|entry| entry.0 <= *own_key);
    // Clockwise order starting just after own_key (wrapping).
    let clockwise: Vec<(K, NodeId, P)> = sorted[split..]
        .iter()
        .chain(sorted[..split].iter())
        .cloned()
        .collect();
    // Counter-clockwise order starting just before own_key (wrapping).
    let counter: Vec<(K, NodeId, P)> = sorted[..split]
        .iter()
        .rev()
        .chain(sorted[split..].iter().rev())
        .cloned()
        .collect();

    let mut ranked = Vec::with_capacity(candidates.len());
    let mut seen: Vec<NodeId> = Vec::with_capacity(candidates.len());
    let mut cw = clockwise.into_iter();
    let mut ccw = counter.into_iter();
    loop {
        let mut progressed = false;
        for iter in [&mut cw, &mut ccw] {
            for entry in iter.by_ref() {
                if !seen.contains(&entry.1) {
                    seen.push(entry.1);
                    ranked.push(entry);
                    progressed = true;
                    break;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    ranked
}

/// The direct ring neighbours of a node among `candidates`: `(predecessor,
/// successor)` in the circular order of keys.
///
/// Returns `None` components when there are no candidates. With a single
/// candidate both neighbours are that candidate (a two-node ring).
pub fn ring_neighbors<K: Ord + Clone>(
    own_key: &K,
    candidates: &[(K, NodeId)],
) -> (Option<NodeId>, Option<NodeId>) {
    if candidates.is_empty() {
        return (None, None);
    }
    let mut sorted: Vec<(K, NodeId)> = candidates.to_vec();
    sorted.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));

    let split = sorted.partition_point(|entry| entry.0 <= *own_key);
    let successor = sorted
        .get(split)
        .or_else(|| sorted.first())
        .map(|entry| entry.1);
    let predecessor = if split == 0 {
        sorted.last().map(|entry| entry.1)
    } else {
        sorted.get(split - 1).map(|entry| entry.1)
    };
    (predecessor, successor)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u64) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn circular_distance_is_symmetric_and_wraps() {
        assert_eq!(circular_distance(5, 5), 0);
        assert_eq!(circular_distance(0, u64::MAX), 1);
        assert_eq!(circular_distance(100, 50), 50);
        assert_eq!(
            circular_distance(u64::MAX - 10, 10),
            21,
            "short arc across the wrap point"
        );
    }

    #[test]
    fn domain_key_ordering_groups_by_country_then_org() {
        let ch1 = DomainKey::from_domain("inf.ethz.ch", 5);
        let ch2 = DomainKey::from_domain("phys.ethz.ch", 1);
        let nl = DomainKey::from_domain("few.vu.nl", 9);
        let mut keys = vec![nl.clone(), ch2.clone(), ch1.clone()];
        keys.sort();
        assert_eq!(keys, vec![ch1.clone(), ch2, nl]);
        assert_eq!(ch1.country(), Some("ch"));
        assert_eq!(ch1.to_string(), "ch.ethz.inf.5");
    }

    #[test]
    fn domain_keys_of_one_domain_differ_by_nonce() {
        let a = DomainKey::from_domain("inf.ethz.ch", 1);
        let b = DomainKey::from_domain("INF.ethz.CH", 2);
        assert_ne!(a, b);
    }

    #[test]
    fn domain_key_drops_empty_labels() {
        let a = DomainKey::from_domain("example..com", 0);
        let b = DomainKey::from_domain("example.com", 0);
        assert_eq!(a, b);
    }

    #[test]
    fn ring_neighbors_basic() {
        // Ring order by key: 10(n1) 20(n2) 30(n3) 40(n4)
        let candidates = vec![(10u64, n(1)), (20, n(2)), (30, n(3)), (40, n(4))];
        let (pred, succ) = ring_neighbors(&25u64, &candidates);
        assert_eq!(pred, Some(n(2)));
        assert_eq!(succ, Some(n(3)));
    }

    #[test]
    fn ring_neighbors_wrap_around() {
        let candidates = vec![(10u64, n(1)), (20, n(2)), (30, n(3))];
        // Own key larger than everything: successor wraps to the smallest.
        let (pred, succ) = ring_neighbors(&99u64, &candidates);
        assert_eq!(pred, Some(n(3)));
        assert_eq!(succ, Some(n(1)));
        // Own key smaller than everything: predecessor wraps to the largest.
        let (pred, succ) = ring_neighbors(&1u64, &candidates);
        assert_eq!(pred, Some(n(3)));
        assert_eq!(succ, Some(n(1)));
    }

    #[test]
    fn ring_neighbors_degenerate_cases() {
        let empty: Vec<(u64, NodeId)> = Vec::new();
        assert_eq!(ring_neighbors(&5u64, &empty), (None, None));
        let single = vec![(10u64, n(1))];
        assert_eq!(ring_neighbors(&5u64, &single), (Some(n(1)), Some(n(1))));
    }

    #[test]
    fn rank_alternates_sides() {
        // Own key 50. Ring: 10 20 40 | 60 80 90
        let candidates: Vec<(u64, NodeId, ())> = vec![
            (10, n(1), ()),
            (20, n(2), ()),
            (40, n(4), ()),
            (60, n(6), ()),
            (80, n(8), ()),
            (90, n(9), ()),
        ];
        let ranked = rank_by_ring_distance(&50u64, &candidates);
        let ids: Vec<NodeId> = ranked.iter().map(|e| e.1).collect();
        // successor first (60), then predecessor (40), then 80, 20, 90, 10.
        assert_eq!(ids, vec![n(6), n(4), n(8), n(2), n(9), n(1)]);
    }

    #[test]
    fn rank_handles_duplicated_keys_and_no_duplicate_ids() {
        let candidates: Vec<(u64, NodeId, ())> =
            vec![(10, n(1), ()), (10, n(2), ()), (30, n(3), ())];
        let ranked = rank_by_ring_distance(&10u64, &candidates);
        assert_eq!(ranked.len(), 3);
        let mut ids: Vec<NodeId> = ranked.iter().map(|e| e.1).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 3, "every candidate appears exactly once");
    }
}
