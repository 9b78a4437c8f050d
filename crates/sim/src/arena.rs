//! Slice-based view-arena operations shared by both epoch kernels.
//!
//! The arena runtime stores every node's Cyclon view (and one Vicinity view
//! per ring) as fixed-stride rows of flat parallel arrays. Two kernels
//! operate on those rows:
//!
//! * the shared-stream sequential kernel in [`crate::dense`], which walks
//!   the whole arena through one RNG stream (bit-identical to the BTree
//!   oracle), and
//! * the per-node frontier kernel in [`crate::frontier`], whose phase
//!   workers each own a **contiguous chunk** of the arena so a cycle can be
//!   stepped by several threads without unsafe code.
//!
//! [`CyArena`] and [`ViArena`] own the arrays and hand them out as
//! [`CyChunk`]s and [`ViChunk`]s, the common currency: mutable windows over
//! a contiguous slot range (`base..base + slots`) with all protocol
//! operations — the initiator half of each exchange
//! ([`CyChunk::begin_shuffle`], [`ViChunk::pick_partner`]), the Cyclon
//! payload and merge rules and the Vicinity payload and merge rules —
//! expressed against chunk-relative rows. The sequential kernel takes the
//! chunk covering the whole arena ([`CyArena::full`]), the frontier kernel
//! one chunk per worker
//! ([`CyArena::chunks`]). Every rule is generic over its draw source and
//! stated once, which is what guarantees the two kernels agree on protocol
//! semantics even though their RNG schedules differ.
//!
//! **Row order.** A Cyclon row is in view order, which the payload shuffle
//! and eviction read. A Vicinity row is kept in ascending [`ring_rank`]
//! around its owner's key: [`ViChunk::merge`] writes it so and
//! [`ViChunk::remove_id`]'s shift keeps it. No rule can tell: the partner
//! choice takes (max age, min id), entries are found by id, and the ring
//! neighbours and both selections depend on the set alone. The order is
//! what lets a merge start from the row as it is, a payload be a window
//! read and the ring neighbours be the row's two ends.

// D3: index casts go through `hybridcast_graph::cast`; tests are exempt.
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

use rand::seq::SliceRandom;
use rand::Rng;

use hybridcast_graph::cast::{idx, to_u32};
use hybridcast_graph::NodeId;
use hybridcast_membership::oldest_descriptor_index;

/// A Cyclon view entry or payload descriptor: `(node id, age)`, 8 B. A
/// Cyclon rule never reads a ring key; the Vicinity side looks a
/// candidate's key up in the network's key table ([`RingKeys`]).
pub(crate) type CyDesc = (u32, u32);

/// A Vicinity payload descriptor / merge-pool entry:
/// `(node id, age, ring key)`, 16 B. The key is the one [`RingKeys`] gave
/// for the id, carried along while the descriptor is in flight; the
/// arena's rows store ids and ages only. (An 8 B `(id, age)` shape that
/// looks the key up again at the merge measured slower on the shared
/// kernel.)
pub(crate) type ViDesc = (u32, u32, u64);

/// One ring's column of the network's id-indexed ring-key table: the key a
/// node drew for ring `ring` when it joined, looked up by node id.
///
/// The table is the only place a ring key is stored. Ids are never reused
/// and keys never change, so a departed id keeps the key it had — a view
/// entry outliving its node, or a slot reused by a newcomer, reads the same
/// key for that id as before.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RingKeys<'a> {
    /// Node id -> its keys on every ring (stride `rings`).
    table: &'a [u64],
    rings: usize,
    ring: usize,
}

impl<'a> RingKeys<'a> {
    /// Column `ring` of a table with `rings` keys per id.
    pub fn new(table: &'a [u64], rings: usize, ring: usize) -> Self {
        debug_assert!(ring < rings, "ring {ring} of {rings}");
        RingKeys { table, rings, ring }
    }

    /// The ring this column belongs to.
    pub fn ring(&self) -> usize {
        self.ring
    }

    /// The ring key of node `id` (an id that was assigned at some point).
    #[inline]
    pub fn of(&self, id: u32) -> u64 {
        self.table[idx(id) * self.rings + self.ring]
    }
}

/// The heap bytes a `Vec` holds: its capacity, not its length.
pub(crate) fn heap_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Where a descriptor sits on the ring as seen from `centre`, as one sort
/// key: the clockwise distance of `key` from the position just after
/// `centre` (so the direct successor ranks lowest and a peer sharing
/// `centre`'s own key — the far end of both walks — ranks highest), ties
/// broken by `id`, widened to the `u64` the oracle's `NodeId` compares.
/// Ascending `ring_rank` is the clockwise walk of `rank_by_ring_distance`;
/// its counter-clockwise walk is the reverse.
pub(crate) fn ring_rank(centre: u64, key: u64, id: u32) -> u128 {
    (u128::from(key.wrapping_sub(centre).wrapping_sub(1)) << 64) | u128::from(id)
}

/// Bounded two-ended selection: the `k` descriptors closest to a centre key
/// in `rank_by_ring_distance`'s sense, picked out of a stream of candidates
/// without building, de-duplicating or sorting the whole pool.
///
/// `rank_by_ring_distance` sorts by [`ring_rank`] and emits front, back,
/// front, back, …, so its first `k` entries are the `⌈k/2⌉` lowest and the
/// `⌊k/2⌋` highest ranks. Those are all this keeps, in one sorted buffer:
/// once it holds `k` entries a candidate that falls into the gap between
/// the two halves is rejected by two comparisons and never looked at again
/// (both halves only ever tighten, so neither it nor a later duplicate of it
/// can qualify). A candidate that does qualify is located by its rank; an
/// entry already there is the same peer, and the younger age wins — the
/// oracle's pool rule, "younger duplicate wins".
///
/// Finding a duplicate by position instead of by id rests on **same id ⇒
/// same ring key**: every key comes from the one id-indexed [`RingKeys`]
/// table, so every descriptor of a peer carries one key. One instance per
/// worker keeps the hot path allocation-free.
#[derive(Debug, Clone, Default)]
pub(crate) struct RingSelection {
    /// `(ring rank, age)`, ascending, at most `k`.
    kept: Vec<(u128, u32)>,
    centre: u64,
    k: usize,
    /// The id never selected (the merging node, or a payload's recipient).
    exclude: u32,
}

impl RingSelection {
    /// Starts a selection of the `k` descriptors closest to `centre` from
    /// `row`: at most `k` distinct descriptors, none of them `exclude`, in
    /// ascending [`ring_rank`] around `centre` — a finished selection of
    /// its own set, so it is copied in without a comparison.
    pub fn start(
        &mut self,
        centre: u64,
        k: usize,
        exclude: u32,
        row: impl Iterator<Item = ViDesc>,
    ) {
        self.kept.clear();
        self.kept.reserve(k);
        let rank = |(id, age, key): ViDesc| (ring_rank(centre, key, id), age);
        self.kept.extend(row.map(rank));
        debug_assert!(
            self.kept.len() <= k && self.kept.windows(2).all(|w| w[0].0 < w[1].0),
            "a Vicinity row is a selection in ascending ring order"
        );
        self.centre = centre;
        self.k = k;
        self.exclude = exclude;
    }

    /// Offers one candidate descriptor.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the debug check reads a ring rank's low 64 bits, the widened id"
    )]
    pub fn offer(&mut self, (id, age, key): ViDesc) {
        let k = self.k;
        if id == self.exclude || k == 0 {
            return;
        }
        // Size of the low half once the buffer is full: `⌈k/2⌉`.
        let near = k.div_ceil(2);
        let rank = ring_rank(self.centre, key, id);
        let kept = &mut self.kept;
        let full = kept.len() == k;
        // Where the candidate can land: anywhere until the buffer is full,
        // then the low half, the high half or — mostly — the gap between.
        let (lo, hi) = if !full {
            (0, kept.len())
        } else if rank <= kept[near - 1].0 {
            (0, near)
        } else if near < k && rank >= kept[near].0 {
            (near, k)
        } else {
            return;
        };
        // A payload arrives closest-first on alternating sides, so its
        // entries land near the top of their part: scan down from there.
        let mut p = hi;
        while p > lo && kept[p - 1].0 > rank {
            p -= 1;
        }
        if p > lo && kept[p - 1].0 == rank {
            kept[p - 1].1 = kept[p - 1].1.min(age);
            return;
        }
        debug_assert!(
            kept.iter().all(|e| e.0 as u32 != id),
            "node {id} was offered with two different ring keys"
        );
        if !full {
            kept.insert(p, (rank, age));
        } else if lo == 0 {
            // Joins the low half; its highest entry drops into the gap.
            kept.copy_within(p..near - 1, p + 1);
            kept[p] = (rank, age);
        } else {
            // Joins the high half; its lowest entry drops into the gap.
            kept.copy_within(near + 1..p, near);
            kept[p - 1] = (rank, age);
        }
    }

    /// Number of descriptors selected so far (at most `k`).
    pub fn len(&self) -> usize {
        self.kept.len()
    }

    /// Heap bytes of the selection buffer.
    pub fn resident_bytes(&self) -> usize {
        heap_bytes(&self.kept)
    }

    /// The selected descriptors in ascending [`ring_rank`] around the
    /// centre: the ranker's first `k`, with its front, back, front, …
    /// alternation undone.
    pub fn sorted(&self) -> impl Iterator<Item = ViDesc> + '_ {
        self.kept.iter().map(|&(rank, age)| {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a ring rank's low 64 bits are the widened id: the truncation is the split"
            )]
            let (dist, id) = ((rank >> 64) as u64, rank as u32);
            (id, age, dist.wrapping_add(self.centre).wrapping_add(1))
        })
    }
}

/// The Cyclon descriptor arena: every slot's view is one fixed-stride row
/// of the parallel `id` / `age` arrays.
#[derive(Debug, Clone)]
pub(crate) struct CyArena {
    id: Vec<u32>,
    age: Vec<u32>,
    len: Vec<u32>,
    /// View capacity (row stride of `id` / `age`).
    cyc: usize,
}

impl CyArena {
    /// An empty arena with room for `slots` views of `cyc` descriptors.
    pub fn with_capacity(slots: usize, cyc: usize) -> Self {
        CyArena {
            id: Vec::with_capacity(slots * cyc),
            age: Vec::with_capacity(slots * cyc),
            len: Vec::with_capacity(slots),
            cyc,
        }
    }

    /// Appends one slot with an empty view.
    pub fn push_slot(&mut self) {
        self.id.resize(self.id.len() + self.cyc, 0);
        self.age.resize(self.age.len() + self.cyc, 0);
        self.len.push(0);
    }

    /// Empties the view of `slot` (a reused slot starts from nothing).
    pub fn clear_slot(&mut self, slot: u32) {
        self.len[idx(slot)] = 0;
    }

    /// Heap bytes of the rows and their lengths.
    pub fn resident_bytes(&self) -> usize {
        heap_bytes(&self.id) + heap_bytes(&self.age) + heap_bytes(&self.len)
    }

    /// The one chunk covering every slot.
    pub fn full(&mut self) -> CyChunk<'_> {
        CyChunk {
            id: &mut self.id,
            age: &mut self.age,
            len: &mut self.len,
            cyc: self.cyc,
            base: 0,
        }
    }

    /// Disjoint chunks of `per_worker` slots each, in slot order.
    pub fn chunks(&mut self, per_worker: usize) -> impl ExactSizeIterator<Item = CyChunk<'_>> {
        let cyc = self.cyc;
        self.id
            .chunks_mut(per_worker * cyc)
            .zip(self.age.chunks_mut(per_worker * cyc))
            .zip(self.len.chunks_mut(per_worker))
            .enumerate()
            .map(move |(w, ((id, age), len))| CyChunk {
                id,
                age,
                len,
                cyc,
                base: w * per_worker,
            })
    }

    /// A read-only view of every slot.
    pub fn view(&self) -> CyView<'_> {
        CyView {
            id: &self.id,
            age: &self.age,
            len: &self.len,
            cyc: self.cyc,
        }
    }
}

/// A mutable window over the [`CyArena`] covering the slot range
/// `base..base + len.len()`. All row indices are absolute slots; the chunk
/// translates them to its local range.
pub(crate) struct CyChunk<'a> {
    id: &'a mut [u32],
    age: &'a mut [u32],
    len: &'a mut [u32],
    cyc: usize,
    /// First absolute slot this chunk covers.
    base: usize,
}

impl CyChunk<'_> {
    /// Chunk-local row index of an absolute slot.
    fn l(&self, slot: u32) -> usize {
        idx(slot) - self.base
    }

    /// The absolute slots this chunk covers.
    pub fn slots(&self) -> std::ops::Range<usize> {
        self.base..self.base + self.len.len()
    }

    /// Current view length of `slot`.
    fn view_len(&self, slot: u32) -> usize {
        idx(self.len[self.l(slot)])
    }

    /// The view ids of `slot`, in view order.
    fn ids(&self, slot: u32) -> &[u32] {
        let base = self.l(slot) * self.cyc;
        &self.id[base..base + self.view_len(slot)]
    }

    /// The `(id, age)` of view entry `i` of `slot`.
    fn entry(&self, slot: u32, i: usize) -> CyDesc {
        let base = self.l(slot) * self.cyc;
        (self.id[base + i], self.age[base + i])
    }

    /// `begin_cycle`: age every entry by one (saturating).
    fn age_view(&mut self, slot: u32) {
        let base = self.l(slot) * self.cyc;
        let len = self.view_len(slot);
        for age in &mut self.age[base..base + len] {
            *age = age.saturating_add(1);
        }
    }

    /// The view position of the oldest entry (ties toward lower id), if any
    /// — the protocol's shuffle-target selection rule.
    fn oldest(&self, slot: u32) -> Option<usize> {
        let base = self.l(slot) * self.cyc;
        let len = self.view_len(slot);
        oldest_descriptor_index(
            self.id[base..base + len]
                .iter()
                .zip(&self.age[base..base + len])
                .map(|(&id, &age)| (u64::from(id), age)),
        )
    }

    /// Returns `true` if the slot's view contains `id`.
    fn contains(&self, slot: u32, id: u32) -> bool {
        self.ids(slot).contains(&id)
    }

    /// Appends a descriptor (caller checks room).
    pub fn push(&mut self, slot: u32, (id, age): CyDesc) {
        let s = self.l(slot);
        let len = idx(self.len[s]);
        debug_assert!(len < self.cyc);
        self.id[s * self.cyc + len] = id;
        self.age[s * self.cyc + len] = age;
        self.len[s] = to_u32(len + 1);
    }

    /// Removes the view entry at position `pos`, shifting later entries
    /// left (the arena equivalent of `Vec::remove`, preserving order).
    fn remove_at(&mut self, slot: u32, pos: usize) {
        let s = self.l(slot);
        let len = idx(self.len[s]);
        debug_assert!(pos < len);
        let base = s * self.cyc;
        self.id.copy_within(base + pos + 1..base + len, base + pos);
        self.age.copy_within(base + pos + 1..base + len, base + pos);
        self.len[s] = to_u32(len - 1);
    }

    /// Removes the descriptor for `id` if present. Returns `true` on
    /// removal.
    fn remove_id(&mut self, slot: u32, id: u32) -> bool {
        match self.ids(slot).iter().position(|&e| e == id) {
            Some(pos) => {
                self.remove_at(slot, pos);
                true
            }
            None => false,
        }
    }

    /// The initiator half of a Cyclon shuffle (`CyclonNode::{begin_cycle,
    /// initiate_shuffle}`): age the view, take the oldest entry (ties toward
    /// lower id) out of it as the shuffle target, and append the request to
    /// `out` — `shuf - 1` random remaining entries plus a fresh descriptor
    /// of the initiator `own_id`. Returns the target's id, or `None`
    /// (nothing drawn, nothing appended) for an isolated node.
    pub fn begin_shuffle<R: Rng + ?Sized>(
        &mut self,
        slot: u32,
        own_id: u32,
        shuf: usize,
        rng: &mut R,
        perm: &mut Vec<u32>,
        out: &mut Vec<CyDesc>,
    ) -> Option<u32> {
        self.age_view(slot);
        let best = self.oldest(slot)?;
        let target = self.entry(slot, best).0;
        self.remove_at(slot, best);
        self.random_payload_into(slot, None, shuf.saturating_sub(1), rng, perm, out);
        out.push((own_id, 0));
        Some(target)
    }

    /// The Cyclon request/reply payload rule (`View::random_descriptors`):
    /// a uniform shuffle of the slot's view without `exclude`, cut to its
    /// first `take` entries, appended to `out`.
    ///
    /// Only a permutation of view positions is shuffled — a shuffle's draws
    /// and swaps depend on the length alone, so this consumes `rng` exactly
    /// like shuffling the descriptors themselves — and only the survivors
    /// are copied.
    pub fn random_payload_into<R: Rng + ?Sized>(
        &self,
        slot: u32,
        exclude: Option<u32>,
        take: usize,
        rng: &mut R,
        perm: &mut Vec<u32>,
        out: &mut Vec<CyDesc>,
    ) {
        perm.clear();
        for (i, &id) in self.ids(slot).iter().enumerate() {
            if Some(id) != exclude {
                perm.push(to_u32(i));
            }
        }
        perm.shuffle(rng);
        out.extend(perm.iter().take(take).map(|&i| self.entry(slot, idx(i))));
    }

    /// The Cyclon merge rule (`CyclonNode::merge_received`): fill empty
    /// view slots first, then evict descriptors this node shipped out
    /// (`sent`), never anything else.
    pub fn merge(
        &mut self,
        slot: u32,
        self_id: u32,
        received: &[CyDesc],
        sent: &[CyDesc],
        replaceable: &mut Vec<u32>,
    ) {
        replaceable.clear();
        replaceable.extend(sent.iter().map(|d| d.0).filter(|&id| id != self_id));
        for &desc in received {
            if desc.0 == self_id || self.contains(slot, desc.0) {
                continue;
            }
            let s = self.l(slot);
            if idx(self.len[s]) < self.cyc {
                self.push(slot, desc);
                continue;
            }
            let mut evicted = false;
            while let Some(candidate) = replaceable.pop() {
                if self.remove_id(slot, candidate) {
                    evicted = true;
                    break;
                }
            }
            if evicted {
                self.push(slot, desc);
            }
        }
    }
}

/// A **read-only** view of the whole [`CyArena`]. The Vicinity phases of
/// the frontier kernel read ring candidates out of the (then immutable)
/// Cyclon views from several worker threads at once while the Vicinity
/// arena is split into mutable chunks; a shared view is what makes that
/// possible without unsafe code.
#[derive(Clone, Copy)]
pub(crate) struct CyView<'a> {
    id: &'a [u32],
    age: &'a [u32],
    len: &'a [u32],
    cyc: usize,
}

impl<'a> CyView<'a> {
    /// The view ids (r-links) of `slot`, in view order.
    pub fn ids(&self, slot: u32) -> &'a [u32] {
        let base = idx(slot) * self.cyc;
        &self.id[base..base + idx(self.len[idx(slot)])]
    }

    /// Projects a slot's view onto one ring — every descriptor keyed with
    /// the peer's position on that ring, read from the key table (the
    /// random layer feeding the proximity layer).
    pub fn ring_candidates_into(&self, slot: u32, keys: RingKeys<'_>, out: &mut Vec<ViDesc>) {
        out.clear();
        let base = idx(slot) * self.cyc;
        let len = idx(self.len[idx(slot)]);
        let (id, age) = (&self.id[base..base + len], &self.age[base..base + len]);
        out.extend(id.iter().zip(age).map(|(&id, &age)| (id, age, keys.of(id))));
    }
}

/// The Vicinity descriptor arena: one fixed-stride view per slot and ring
/// (stride `vic_rings * vic` per slot) in parallel `id` / `age` arrays. Each
/// row is in ascending [`ring_rank`] around its owner's key on that ring, an
/// order no protocol rule can observe (see the module doc); the keys it is
/// sorted by live in the network's key table ([`RingKeys`]).
#[derive(Debug, Clone)]
pub(crate) struct ViArena {
    id: Vec<u32>,
    age: Vec<u32>,
    /// View lengths (stride `vic_rings` per slot).
    len: Vec<u32>,
    /// View capacity per ring.
    vic: usize,
    /// Vicinity instances per node (0 when Vicinity is disabled).
    vic_rings: usize,
    /// Exchange payload length (clamped like `VicinityNode`).
    gos: usize,
}

impl ViArena {
    /// An empty arena with room for `slots` nodes of `vic_rings` views each.
    pub fn with_capacity(slots: usize, vic: usize, vic_rings: usize, gos: usize) -> Self {
        ViArena {
            id: Vec::with_capacity(slots * vic_rings * vic),
            age: Vec::with_capacity(slots * vic_rings * vic),
            len: Vec::with_capacity(slots * vic_rings.max(1)),
            vic,
            vic_rings,
            gos,
        }
    }

    /// Vicinity instances per node.
    pub fn rings(&self) -> usize {
        self.vic_rings
    }

    /// Appends one slot with an empty view on every ring.
    pub fn push_slot(&mut self) {
        let stride = self.vic_rings * self.vic;
        self.id.resize(self.id.len() + stride, 0);
        self.age.resize(self.age.len() + stride, 0);
        self.len.resize(self.len.len() + self.vic_rings, 0);
    }

    /// Empties every view of `slot` (a reused slot starts from nothing).
    pub fn clear_slot(&mut self, slot: u32) {
        let first = idx(slot) * self.vic_rings;
        self.len[first..first + self.vic_rings].fill(0);
    }

    /// Heap bytes of the rows and their lengths.
    pub fn resident_bytes(&self) -> usize {
        heap_bytes(&self.id) + heap_bytes(&self.age) + heap_bytes(&self.len)
    }

    /// The one chunk covering every slot.
    pub fn full(&mut self) -> ViChunk<'_> {
        ViChunk {
            id: &mut self.id,
            age: &mut self.age,
            len: &mut self.len,
            vic: self.vic,
            vic_rings: self.vic_rings,
            gos: self.gos,
            base: 0,
        }
    }

    /// Disjoint chunks of `per_worker` slots each, in slot order.
    pub fn chunks(&mut self, per_worker: usize) -> impl ExactSizeIterator<Item = ViChunk<'_>> {
        debug_assert!(
            self.vic_rings > 0,
            "a network without Vicinity has no rings to step"
        );
        let (vic, vic_rings, gos) = (self.vic, self.vic_rings, self.gos);
        let stride = per_worker * vic_rings * vic;
        self.id
            .chunks_mut(stride)
            .zip(self.age.chunks_mut(stride))
            .zip(self.len.chunks_mut(per_worker * vic_rings))
            .enumerate()
            .map(move |(w, ((id, age), len))| ViChunk {
                id,
                age,
                len,
                vic,
                vic_rings,
                gos,
                base: w * per_worker,
            })
    }

    /// The view ids of `slot` on one ring, in ascending ring order.
    pub fn row(&self, slot: u32, ring: usize) -> &[u32] {
        let base = (idx(slot) * self.vic_rings + ring) * self.vic;
        &self.id[base..base + idx(self.len[idx(slot) * self.vic_rings + ring])]
    }

    /// The ring neighbours `(predecessor, successor)` of `slot` on one ring,
    /// as `VicinityNode::ring_neighbors` finds them: the entries of highest
    /// and lowest [`ring_rank`] around the node's key, which are the last
    /// and the first of its ascending row. A single-entry view is its own
    /// two-node ring.
    pub fn ring_neighbors(&self, slot: u32, ring: usize) -> (Option<NodeId>, Option<NodeId>) {
        let row = self.row(slot, ring);
        let node = |&id: &u32| NodeId::new(u64::from(id));
        (row.last().map(node), row.first().map(node))
    }
}

/// A mutable window over the [`ViArena`] covering the slot range
/// `base..base + len.len() / vic_rings` (see [`CyChunk`]).
pub(crate) struct ViChunk<'a> {
    id: &'a mut [u32],
    age: &'a mut [u32],
    len: &'a mut [u32],
    vic: usize,
    vic_rings: usize,
    gos: usize,
    /// First absolute slot this chunk covers.
    base: usize,
}

impl ViChunk<'_> {
    fn l(&self, slot: u32) -> usize {
        idx(slot) - self.base
    }

    /// The absolute slots this chunk covers.
    pub fn slots(&self) -> std::ops::Range<usize> {
        self.base..self.base + self.len.len() / self.vic_rings
    }

    /// Base offset of a slot's view for one ring.
    fn row(&self, slot: u32, ring: usize) -> usize {
        (self.l(slot) * self.vic_rings + ring) * self.vic
    }

    /// Current view length of `slot` on `ring`.
    fn view_len(&self, slot: u32, ring: usize) -> usize {
        idx(self.len[self.l(slot) * self.vic_rings + ring])
    }

    /// `begin_cycle`: age every view entry on `ring`.
    fn age_view(&mut self, slot: u32, ring: usize) {
        let base = self.row(slot, ring);
        let len = self.view_len(slot, ring);
        for age in &mut self.age[base..base + len] {
            *age = age.saturating_add(1);
        }
    }

    /// The id of the oldest view entry (ties toward lower id), if any —
    /// the exchange-partner selection rule.
    fn oldest_id(&self, slot: u32, ring: usize) -> Option<u32> {
        let base = self.row(slot, ring);
        let len = self.view_len(slot, ring);
        oldest_descriptor_index(
            self.id[base..base + len]
                .iter()
                .zip(&self.age[base..base + len])
                .map(|(&id, &age)| (u64::from(id), age)),
        )
        .map(|i| self.id[base + i])
    }

    /// The initiator's partner choice in a Vicinity exchange
    /// (`VicinityNode::{begin_cycle, initiate_exchange}`) on `ring`: age the
    /// view and take its oldest entry (ties toward lower id); only while the
    /// view is still empty, one `pick(cand.len())` draw among the random
    /// layer's candidates `cand` instead. Returns the partner's id, or
    /// `None` (nothing drawn) when no partner is known.
    pub fn pick_partner(
        &mut self,
        slot: u32,
        ring: usize,
        cand: &[ViDesc],
        pick: impl FnOnce(usize) -> usize,
    ) -> Option<u32> {
        self.age_view(slot, ring);
        match self.oldest_id(slot, ring) {
            Some(target) => Some(target),
            None if cand.is_empty() => None,
            None => Some(cand[pick(cand.len())].0),
        }
    }

    /// Removes the descriptor for `id` if present (order-preserving shift).
    pub fn remove_id(&mut self, slot: u32, ring: usize, id: u32) {
        let base = self.row(slot, ring);
        let len = self.view_len(slot, ring);
        if let Some(pos) = self.id[base..base + len].iter().position(|&e| e == id) {
            self.id.copy_within(base + pos + 1..base + len, base + pos);
            self.age.copy_within(base + pos + 1..base + len, base + pos);
            self.len[self.l(slot) * self.vic_rings + ring] = to_u32(len - 1);
        }
    }

    /// The Vicinity request/reply payload rule (`VicinityNode::payload_for`)
    /// on the ring of `keys`: the view entries closest to the target's key
    /// (never the target itself), capped at `gos - 1`, in
    /// `rank_by_ring_distance` order, plus a fresh descriptor of the local
    /// node `own_id`.
    ///
    /// Around the target's key the row's ring order is the same cycle,
    /// rotated: with `δ = target key − own key`, the `p` entries whose
    /// `key − own key − 1` falls below `δ` move to the back, and ties on a
    /// key stay ordered by id. So the payload is a window read of
    /// `row[p..] ++ row[..p]` without the target: with `m` the smaller of
    /// `gos - 1` and the entries left, its first `⌈m/2⌉` and last `⌊m/2⌋`,
    /// emitted front, back, front, ….
    pub fn payload_into(
        &self,
        slot: u32,
        keys: RingKeys<'_>,
        target: u32,
        own_id: u32,
        out: &mut Vec<ViDesc>,
    ) {
        let base = self.row(slot, keys.ring());
        let n = self.view_len(slot, keys.ring());
        let (id, age) = (&self.id[base..base + n], &self.age[base..base + n]);
        let own_key = keys.of(own_id);
        let delta = keys.of(target).wrapping_sub(own_key);
        let p = id.partition_point(|&e| keys.of(e).wrapping_sub(own_key).wrapping_sub(1) < delta);
        // Rotated position -> row position, skipping the target.
        let at = |i: usize| if p + i < n { p + i } else { p + i - n };
        let mut front = (0..n).map(at).filter(|&i| id[i] != target);
        let mut back = (0..n).rev().map(at).filter(|&i| id[i] != target);
        let m = (n - usize::from(id.contains(&target))).min(self.gos.saturating_sub(1));
        out.clear();
        for j in 0..m {
            let i = if j % 2 == 0 {
                front.next()
            } else {
                back.next()
            };
            let i = i.expect("the two ends of the window never meet");
            out.push((id[i], age[i], keys.of(id[i])));
        }
        out.push((own_id, 0, own_key));
    }

    /// The Vicinity merge rule (`VicinityNode::merge`) on the ring of
    /// `keys`: of the own view entries, the received descriptors and the
    /// random-layer candidates (younger duplicate wins), keep the `vic`
    /// closest to the local key, stored in ascending ring order. The row
    /// itself is already such a selection, so only the received descriptors
    /// and the candidates are offered. `own_id` is the local node.
    pub fn merge(
        &mut self,
        slot: u32,
        keys: RingKeys<'_>,
        own_id: u32,
        received: &[ViDesc],
        cyclon_candidates: &[ViDesc],
        sel: &mut RingSelection,
    ) {
        let ring = keys.ring();
        let base = self.row(slot, ring);
        let row = (base..base + self.view_len(slot, ring))
            .map(|i| (self.id[i], self.age[i], keys.of(self.id[i])));
        sel.start(keys.of(own_id), self.vic, own_id, row);
        for &d in received.iter().chain(cyclon_candidates) {
            sel.offer(d);
        }
        for (i, (id, age, _)) in sel.sorted().enumerate() {
            self.id[base + i] = id;
            self.age[base + i] = age;
        }
        self.len[self.l(slot) * self.vic_rings + ring] = to_u32(sel.len());
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    use hybridcast_graph::NodeId;
    use hybridcast_membership::proximity::rank_by_ring_distance;

    use super::*;

    /// The specification: the oracle's pool rule (skip `exclude`; a younger
    /// duplicate replaces the older one in its first-seen position), then
    /// the first `k` of `rank_by_ring_distance`.
    fn oracle(centre: u64, k: usize, exclude: u32, pool: &[ViDesc]) -> Vec<ViDesc> {
        let mut unique: Vec<ViDesc> = Vec::new();
        for &d in pool.iter().filter(|d| d.0 != exclude) {
            match unique.iter_mut().find(|e| e.0 == d.0) {
                Some(e) if d.1 < e.1 => *e = d,
                Some(_) => {}
                None => unique.push(d),
            }
        }
        let candidates: Vec<(u64, NodeId, u32)> = unique
            .iter()
            .map(|&(id, age, key)| (key, NodeId::new(u64::from(id)), age))
            .collect();
        rank_by_ring_distance(&centre, &candidates)
            .into_iter()
            .take(k)
            .map(|(key, id, age)| (id.as_u64() as u32, age, key))
            .collect()
    }

    /// Runs a selection over `pool` and reads it in the ranker's order.
    fn select(
        sel: &mut RingSelection,
        centre: u64,
        k: usize,
        exclude: u32,
        pool: &[ViDesc],
    ) -> Vec<ViDesc> {
        sel.start(centre, k, exclude, std::iter::empty());
        for &d in pool {
            sel.offer(d);
        }
        let sorted: Vec<ViDesc> = sel.sorted().collect();
        assert_eq!(sel.len(), sorted.len());
        let n = sorted.len();
        (0..n)
            .map(|j| sorted[if j % 2 == 0 { j / 2 } else { n - 1 - j / 2 }])
            .collect()
    }

    /// A one-slot, one-ring arena whose row holds the first copy of each id
    /// in `entries` (never `owner`), keyed by [`key_of`], in ascending ring
    /// order around the owner's key and cut to `vic`. Returns the row, with
    /// its keys, too.
    fn one_row(
        entries: &[(u32, u32)],
        owner: u32,
        spread: u64,
        vic: usize,
        gos: usize,
    ) -> (ViArena, Vec<ViDesc>) {
        let own_key = key_of(owner, spread);
        let mut row: Vec<ViDesc> = Vec::new();
        for &(id, age) in entries {
            if id != owner && row.iter().all(|d| d.0 != id) {
                row.push((id, age, key_of(id, spread)));
            }
        }
        row.sort_by_key(|&(id, _, key)| ring_rank(own_key, key, id));
        row.truncate(vic);
        let mut vi = ViArena::with_capacity(1, vic, 1, gos);
        vi.push_slot();
        for (i, &(id, age, _)) in row.iter().enumerate() {
            (vi.id[i], vi.age[i]) = (id, age);
        }
        vi.len[0] = to_u32(row.len());
        (vi, row)
    }

    /// The `(id, age, key)` entries of the one row of a [`one_row`] arena.
    fn row_of(vi: &ViArena, keys: RingKeys<'_>) -> Vec<ViDesc> {
        (0..idx(vi.len[0]))
            .map(|i| (vi.id[i], vi.age[i], keys.of(vi.id[i])))
            .collect()
    }

    /// An id no generated entry, candidate or target uses.
    const SPARE: u32 = 48;

    /// The key table of ids `0..=SPARE`: each id keyed by [`key_of`].
    fn key_table(spread: u64) -> Vec<u64> {
        (0..=SPARE).map(|id| key_of(id, spread)).collect()
    }

    /// Every id has one ring key, seven ids share each key, and the keys
    /// straddle the wrap-around point of the ring.
    fn key_of(id: u32, spread: u64) -> u64 {
        u64::from(id % 7)
            .wrapping_mul(0x2492_4924_9249_2493)
            .wrapping_add(spread)
    }

    #[test]
    fn selection_matches_the_ranker_on_every_prefix_of_an_awkward_pool() {
        // Duplicate ids with the younger copy first (3) and last (5),
        // duplicate keys under different ids (1 / 8 / 15), the centre's own
        // key in the pool (id 4), the excluded id (9) twice.
        let spread = u64::MAX - 5;
        let pool: Vec<ViDesc> = [
            (3, 1),
            (9, 0),
            (1, 4),
            (5, 9),
            (8, 2),
            (3, 6),
            (15, 2),
            (4, 3),
            (12, 0),
            (5, 2),
            (9, 7),
            (6, 1),
            (11, 5),
            (2, 8),
        ]
        .into_iter()
        .map(|(id, age)| (id, age, key_of(id, spread)))
        .collect();
        let mut sel = RingSelection::default();
        for k in 0..=8 {
            for n in 0..=pool.len() {
                for centre in [key_of(4, spread), 0, 17, u64::MAX] {
                    assert_eq!(
                        select(&mut sel, centre, k, 9, &pool[..n]),
                        oracle(centre, k, 9, &pool[..n]),
                        "k {k}, first {n} of the pool, centre {centre}"
                    );
                }
            }
        }
    }

    proptest! {
        /// For random pools — duplicate ids in either age order, shared
        /// keys, the centre key and the excluded id present or not, fewer
        /// candidates than `k` or many more — the selection emits exactly
        /// `rank_by_ring_distance(..).take(k)` over the de-duplicated pool.
        #[test]
        fn selection_equals_rank_by_ring_distance_take_k(
            entries in prop::collection::vec((0u32..40, 0u32..6), 0..70),
            k in 0usize..12,
            exclude in 0u32..48,
            spread in any::<u64>(),
            centre_id in 0u32..40,
            centre_free in any::<u64>(),
            centre_in_pool in any::<bool>(),
        ) {
            let pool: Vec<ViDesc> = entries
                .iter()
                .map(|&(id, age)| (id, age, key_of(id, spread)))
                .collect();
            let centre = if centre_in_pool { key_of(centre_id, spread) } else { centre_free };
            let mut sel = RingSelection::default();
            prop_assert_eq!(
                select(&mut sel, centre, k, exclude, &pool),
                oracle(centre, k, exclude, &pool)
            );
        }
    }

    proptest! {
        /// The payload's window read over an ascending row equals the
        /// ranker around the target's key: shared keys, the target in the
        /// row or not, a target sharing the owner's key, a centre one step
        /// before or after a row key (the rotation's cut), keys on both
        /// sides of the ring's wrap-around point, and `gos - 1` below, at
        /// and above the row's length.
        #[test]
        fn payload_window_equals_the_ranker_around_the_target(
            entries in prop::collection::vec((0u32..40, 0u32..6), 0..40),
            owner in 0u32..40,
            target in 0u32..48,
            target_at_owner_key in any::<bool>(),
            shift in 0u64..3,
            spread in any::<u64>(),
            vic in 0usize..14,
            gos in 0usize..16,
        ) {
            let (mut vi, row) = one_row(&entries, owner, spread, vic, gos);
            // Ids of one residue mod 7 share a key.
            let target = if target_at_owner_key { target - target % 7 + owner % 7 } else { target };
            let mut table = key_table(spread);
            // A centre one step before or after the target's key is the key
            // of a node of its own, which no row holds.
            let target = if shift == 1 {
                target
            } else {
                table[SPARE as usize] = key_of(target, spread).wrapping_add(shift).wrapping_sub(1);
                SPARE
            };
            let keys = RingKeys::new(&table, 1, 0);
            let mut out = Vec::new();
            vi.full().payload_into(0, keys, target, owner, &mut out);
            let mut expected = oracle(keys.of(target), gos.saturating_sub(1), target, &row);
            expected.push((owner, 0, keys.of(owner)));
            prop_assert_eq!(out, expected);
        }

        /// A merge that starts from the stored row keeps what the ranker
        /// keeps over the whole pool (row, received, candidates), stored in
        /// ascending ring order.
        #[test]
        fn merge_from_the_stored_row_equals_the_ranker_over_the_pool(
            entries in prop::collection::vec((0u32..40, 0u32..6), 0..40),
            received in prop::collection::vec((0u32..48, 0u32..6), 0..12),
            cand in prop::collection::vec((0u32..48, 0u32..6), 0..24),
            owner in 0u32..40,
            spread in any::<u64>(),
            vic in 0usize..14,
        ) {
            let (mut vi, row) = one_row(&entries, owner, spread, vic, 1);
            let desc = |&(id, age): &(u32, u32)| (id, age, key_of(id, spread));
            let received: Vec<ViDesc> = received.iter().map(desc).collect();
            let cand: Vec<ViDesc> = cand.iter().map(desc).collect();
            let table = key_table(spread);
            let keys = RingKeys::new(&table, 1, 0);
            vi.full().merge(0, keys, owner, &received, &cand, &mut RingSelection::default());
            let pool: Vec<ViDesc> = row.iter().chain(&received).chain(&cand).copied().collect();
            let own_key = keys.of(owner);
            let mut expected = oracle(own_key, vic, owner, &pool);
            expected.sort_by_key(|&(id, _, key)| ring_rank(own_key, key, id));
            prop_assert_eq!(row_of(&vi, keys), expected);
        }

        /// The row's two ends are the entries of highest and lowest ring
        /// rank, as the min/max fold over the row found them.
        #[test]
        fn ring_neighbors_are_the_min_max_fold_over_the_row(
            entries in prop::collection::vec((0u32..40, 0u32..6), 0..40),
            owner in 0u32..40,
            spread in any::<u64>(),
            vic in 0usize..14,
        ) {
            let (vi, row) = one_row(&entries, owner, spread, vic, 1);
            let own_key = key_of(owner, spread);
            let ends = row
                .iter()
                .map(|&(id, _, key)| ring_rank(own_key, key, id))
                .fold(None, |ends: Option<(u128, u128)>, rank| {
                    let (succ, pred) = ends.unwrap_or((rank, rank));
                    Some((succ.min(rank), pred.max(rank)))
                });
            let id = |rank: u128| NodeId::new(rank as u64);
            prop_assert_eq!(
                vi.ring_neighbors(0, 0),
                (ends.map(|e| id(e.1)), ends.map(|e| id(e.0)))
            );
        }
    }

    #[test]
    fn random_payload_draws_like_a_shuffle_of_the_descriptors() {
        let mut id: Vec<u32> = vec![10, 11, 12, 13, 14, 0];
        let mut age: Vec<u32> = vec![0, 1, 2, 3, 4, 0];
        let mut len = vec![5u32];
        let cy = CyChunk {
            id: &mut id,
            age: &mut age,
            len: &mut len,
            cyc: 6,
            base: 0,
        };
        for (exclude, take) in [(None, 3), (Some(12), 4), (Some(99), 9), (None, 0)] {
            // The rule as `View::random_descriptors` states it: shuffle
            // every eligible descriptor, keep the first `take`.
            let mut expected: Vec<CyDesc> = (0..5)
                .map(|i| cy.entry(0, i))
                .filter(|d| Some(d.0) != exclude)
                .collect();
            let mut expected_rng = ChaCha8Rng::seed_from_u64(3);
            expected.shuffle(&mut expected_rng);
            expected.truncate(take);

            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let (mut perm, mut out) = (Vec::new(), vec![(77, 0)]);
            cy.random_payload_into(0, exclude, take, &mut rng, &mut perm, &mut out);
            assert_eq!(out[1..], expected, "exclude {exclude:?}, take {take}");
            assert_eq!(
                rng.gen::<u64>(),
                expected_rng.gen::<u64>(),
                "both consumed the same number of draws"
            );
        }
    }
}
