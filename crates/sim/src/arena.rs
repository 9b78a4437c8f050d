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
//! payload and merge rules and the Vicinity payload and merge rules (both
//! one [`RingSelection`]) — expressed against chunk-relative rows. The
//! sequential kernel takes the chunk covering the whole arena
//! ([`CyArena::full`]), the frontier kernel one chunk per worker
//! ([`CyArena::chunks`]). Every rule is generic over its draw source and
//! stated once, which is what guarantees the two kernels agree on protocol
//! semantics even though their RNG schedules differ.

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

/// A Cyclon payload descriptor in scratch space: `(node id, age, offset of
/// the ring-position profile in the side pool)`.
pub(crate) type CyDesc = (u64, u32, u32);

/// A Vicinity payload descriptor / merge-pool entry:
/// `(node id, age, ring key)`.
pub(crate) type ViDesc = (u64, u32, u64);

/// Cyclon payload descriptors plus the side pool their profile offsets
/// point into.
#[derive(Debug, Clone, Default)]
pub(crate) struct CyPayload {
    pub descs: Vec<CyDesc>,
    pub profs: Vec<u64>,
}

impl CyPayload {
    pub fn clear(&mut self) {
        self.descs.clear();
        self.profs.clear();
    }

    /// Appends one descriptor and its ring-position profile.
    pub fn push(&mut self, id: u64, age: u32, profile: &[u64]) {
        let pofs = to_u32(self.profs.len());
        self.profs.extend_from_slice(profile);
        self.descs.push((id, age, pofs));
    }
}

/// Where a descriptor sits on the ring as seen from `centre`, as one sort
/// key: the clockwise distance of `key` from the position just after
/// `centre` (so the direct successor ranks lowest and a peer sharing
/// `centre`'s own key — the far end of both walks — ranks highest), ties
/// broken by `id`. Ascending `ring_rank` is the clockwise walk of
/// `rank_by_ring_distance`; its counter-clockwise walk is the reverse.
pub(crate) fn ring_rank(centre: u64, key: u64, id: u64) -> u128 {
    (u128::from(key.wrapping_sub(centre).wrapping_sub(1)) << 64) | u128::from(id)
}

/// Bounded two-ended selection: the `k` descriptors closest to a centre key
/// in `rank_by_ring_distance` order, picked out of a stream of candidates
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
/// same ring key**: ids are never reused and ring positions never change,
/// so every descriptor of a peer carries one key. One instance per worker
/// keeps the hot path allocation-free.
#[derive(Debug, Clone, Default)]
pub(crate) struct RingSelection {
    /// `(ring rank, age)`, ascending, at most `k`.
    kept: Vec<(u128, u32)>,
    centre: u64,
    k: usize,
    /// The id never selected (the merging node, or a payload's recipient).
    exclude: u64,
}

impl RingSelection {
    /// Starts a selection of the `k` descriptors closest to `centre`.
    pub fn start(&mut self, centre: u64, k: usize, exclude: u64) {
        self.kept.clear();
        self.kept.reserve(k);
        self.centre = centre;
        self.k = k;
        self.exclude = exclude;
    }

    /// Offers one candidate descriptor.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the debug check reads a ring rank's low 64 bits, the id"
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
        // A view row arrives closest-first on alternating sides, so its
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
            kept.iter().all(|e| e.0 as u64 != id),
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

    /// The selected descriptors, closest first, alternating successor and
    /// predecessor sides: element for element the first `k` entries of
    /// `rank_by_ring_distance` over the de-duplicated candidates.
    pub fn ranked(&self) -> impl Iterator<Item = ViDesc> + '_ {
        let n = self.kept.len();
        (0..n).map(move |j| {
            let (rank, age) = self.kept[if j % 2 == 0 { j / 2 } else { n - 1 - j / 2 }];
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a ring rank's low 64 bits are the id: the truncation is the split"
            )]
            let (dist, id) = ((rank >> 64) as u64, rank as u64);
            (id, age, dist.wrapping_add(self.centre).wrapping_add(1))
        })
    }
}

/// The Cyclon descriptor arena: every slot's view is one fixed-stride row
/// of the parallel `id` / `age` / profile arrays.
#[derive(Debug, Clone)]
pub(crate) struct CyArena {
    id: Vec<u64>,
    age: Vec<u32>,
    /// Descriptor profiles: ring positions (stride `cyc * rings` per slot).
    pos: Vec<u64>,
    len: Vec<u32>,
    /// View capacity (row stride of `id` / `age`).
    cyc: usize,
    /// Profile width.
    rings: usize,
}

impl CyArena {
    /// An empty arena with room for `slots` views of `cyc` descriptors.
    pub fn with_capacity(slots: usize, cyc: usize, rings: usize) -> Self {
        CyArena {
            id: Vec::with_capacity(slots * cyc),
            age: Vec::with_capacity(slots * cyc),
            pos: Vec::with_capacity(slots * cyc * rings),
            len: Vec::with_capacity(slots),
            cyc,
            rings,
        }
    }

    /// Appends one slot with an empty view.
    pub fn push_slot(&mut self) {
        self.id.resize(self.id.len() + self.cyc, 0);
        self.age.resize(self.age.len() + self.cyc, 0);
        self.pos.resize(self.pos.len() + self.cyc * self.rings, 0);
        self.len.push(0);
    }

    /// Empties the view of `slot` (a reused slot starts from nothing).
    pub fn clear_slot(&mut self, slot: u32) {
        self.len[idx(slot)] = 0;
    }

    /// The one chunk covering every slot.
    pub fn full(&mut self) -> CyChunk<'_> {
        CyChunk {
            id: &mut self.id,
            age: &mut self.age,
            pos: &mut self.pos,
            len: &mut self.len,
            cyc: self.cyc,
            rings: self.rings,
            base: 0,
        }
    }

    /// Disjoint chunks of `per_worker` slots each, in slot order.
    pub fn chunks(&mut self, per_worker: usize) -> impl ExactSizeIterator<Item = CyChunk<'_>> {
        let (cyc, rings) = (self.cyc, self.rings);
        self.id
            .chunks_mut(per_worker * cyc)
            .zip(self.age.chunks_mut(per_worker * cyc))
            .zip(self.pos.chunks_mut(per_worker * cyc * rings))
            .zip(self.len.chunks_mut(per_worker))
            .enumerate()
            .map(move |(w, (((id, age), pos), len))| CyChunk {
                id,
                age,
                pos,
                len,
                cyc,
                rings,
                base: w * per_worker,
            })
    }

    /// A read-only view of every slot.
    pub fn view(&self) -> CyView<'_> {
        CyView {
            id: &self.id,
            age: &self.age,
            pos: &self.pos,
            len: &self.len,
            cyc: self.cyc,
            rings: self.rings,
        }
    }
}

/// A mutable window over the [`CyArena`] covering the slot range
/// `base..base + len.len()`. All row indices are absolute slots; the chunk
/// translates them to its local range.
pub(crate) struct CyChunk<'a> {
    id: &'a mut [u64],
    age: &'a mut [u32],
    pos: &'a mut [u64],
    len: &'a mut [u32],
    cyc: usize,
    rings: usize,
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
    fn ids(&self, slot: u32) -> &[u64] {
        let base = self.l(slot) * self.cyc;
        &self.id[base..base + self.view_len(slot)]
    }

    /// The `(id, age)` of view entry `i` of `slot`.
    fn entry(&self, slot: u32, i: usize) -> (u64, u32) {
        let base = self.l(slot) * self.cyc;
        (self.id[base + i], self.age[base + i])
    }

    /// The ring-position profile of view entry `i` of `slot`.
    fn profile(&self, slot: u32, i: usize) -> &[u64] {
        let src = (self.l(slot) * self.cyc + i) * self.rings;
        &self.pos[src..src + self.rings]
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
                .map(|(&id, &age)| (id, age)),
        )
    }

    /// Returns `true` if the slot's view contains `id`.
    fn contains(&self, slot: u32, id: u64) -> bool {
        self.ids(slot).contains(&id)
    }

    /// Appends a descriptor (caller checks room).
    pub fn push(&mut self, slot: u32, id: u64, age: u32, profile: &[u64]) {
        let s = self.l(slot);
        let len = idx(self.len[s]);
        debug_assert!(len < self.cyc);
        self.id[s * self.cyc + len] = id;
        self.age[s * self.cyc + len] = age;
        let dst = (s * self.cyc + len) * self.rings;
        self.pos[dst..dst + self.rings].copy_from_slice(profile);
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
        let pbase = base * self.rings;
        self.pos.copy_within(
            pbase + (pos + 1) * self.rings..pbase + len * self.rings,
            pbase + pos * self.rings,
        );
        self.len[s] = to_u32(len - 1);
    }

    /// Removes the descriptor for `id` if present. Returns `true` on
    /// removal.
    fn remove_id(&mut self, slot: u32, id: u64) -> bool {
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
    /// of the initiator, `own = (id, ring positions)`. Returns the target's
    /// id, or `None` (nothing drawn, nothing appended) for an isolated node.
    pub fn begin_shuffle<R: Rng + ?Sized>(
        &mut self,
        slot: u32,
        own: (u64, &[u64]),
        shuf: usize,
        rng: &mut R,
        perm: &mut Vec<u32>,
        out: &mut CyPayload,
    ) -> Option<u64> {
        self.age_view(slot);
        let best = self.oldest(slot)?;
        let target = self.entry(slot, best).0;
        self.remove_at(slot, best);
        self.random_payload_into(slot, None, shuf.saturating_sub(1), rng, perm, out);
        out.push(own.0, 0, own.1);
        Some(target)
    }

    /// The Cyclon request/reply payload rule (`View::random_descriptors`):
    /// a uniform shuffle of the slot's view without `exclude`, cut to its
    /// first `take` entries, appended to `out`.
    ///
    /// Only a permutation of view positions is shuffled — a shuffle's draws
    /// and swaps depend on the length alone, so this consumes `rng` exactly
    /// like shuffling the descriptors themselves — and only the survivors
    /// and their profiles are copied.
    pub fn random_payload_into<R: Rng + ?Sized>(
        &self,
        slot: u32,
        exclude: Option<u64>,
        take: usize,
        rng: &mut R,
        perm: &mut Vec<u32>,
        out: &mut CyPayload,
    ) {
        perm.clear();
        for (i, &id) in self.ids(slot).iter().enumerate() {
            if Some(id) != exclude {
                perm.push(to_u32(i));
            }
        }
        perm.shuffle(rng);
        for &i in perm.iter().take(take) {
            let (id, age) = self.entry(slot, idx(i));
            out.push(id, age, self.profile(slot, idx(i)));
        }
    }

    /// The Cyclon merge rule (`CyclonNode::merge_received`): fill empty
    /// view slots first, then evict descriptors this node shipped out
    /// (`sent`), never anything else.
    pub fn merge(
        &mut self,
        slot: u32,
        self_id: u64,
        received: &[CyDesc],
        received_prof: &[u64],
        sent: &[CyDesc],
        replaceable: &mut Vec<u64>,
    ) {
        replaceable.clear();
        replaceable.extend(sent.iter().map(|d| d.0).filter(|&id| id != self_id));
        for &(id, age, pofs) in received {
            if id == self_id || self.contains(slot, id) {
                continue;
            }
            let s = self.l(slot);
            if idx(self.len[s]) < self.cyc {
                let profile = &received_prof[idx(pofs)..idx(pofs) + self.rings];
                self.push(slot, id, age, profile);
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
                let profile = &received_prof[idx(pofs)..idx(pofs) + self.rings];
                self.push(slot, id, age, profile);
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
    id: &'a [u64],
    age: &'a [u32],
    pos: &'a [u64],
    len: &'a [u32],
    cyc: usize,
    rings: usize,
}

impl<'a> CyView<'a> {
    /// The view ids (r-links) of `slot`, in view order.
    pub fn ids(&self, slot: u32) -> &'a [u64] {
        let base = idx(slot) * self.cyc;
        &self.id[base..base + idx(self.len[idx(slot)])]
    }

    /// Projects a slot's view onto ring `ring` — every descriptor re-keyed
    /// with the peer's position on that ring (the random layer feeding the
    /// proximity layer).
    pub fn ring_candidates_into(&self, slot: u32, ring: usize, out: &mut Vec<ViDesc>) {
        out.clear();
        let base = idx(slot) * self.cyc;
        let len = idx(self.len[idx(slot)]);
        for i in 0..len {
            let key = self.pos[(base + i) * self.rings + ring];
            out.push((self.id[base + i], self.age[base + i], key));
        }
    }
}

/// The Vicinity descriptor arena: one fixed-stride view per slot and ring
/// (stride `vic_rings * vic` per slot) in parallel `id` / `age` / `key`
/// arrays.
#[derive(Debug, Clone)]
pub(crate) struct ViArena {
    id: Vec<u64>,
    age: Vec<u32>,
    key: Vec<u64>,
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
            key: Vec::with_capacity(slots * vic_rings * vic),
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
        self.key.resize(self.key.len() + stride, 0);
        self.len.resize(self.len.len() + self.vic_rings, 0);
    }

    /// Empties every view of `slot` (a reused slot starts from nothing).
    pub fn clear_slot(&mut self, slot: u32) {
        let first = idx(slot) * self.vic_rings;
        self.len[first..first + self.vic_rings].fill(0);
    }

    /// The one chunk covering every slot.
    pub fn full(&mut self) -> ViChunk<'_> {
        ViChunk {
            id: &mut self.id,
            age: &mut self.age,
            key: &mut self.key,
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
            .zip(self.key.chunks_mut(stride))
            .zip(self.len.chunks_mut(per_worker * vic_rings))
            .enumerate()
            .map(move |(w, (((id, age), key), len))| ViChunk {
                id,
                age,
                key,
                len,
                vic,
                vic_rings,
                gos,
                base: w * per_worker,
            })
    }

    /// The ring neighbours `(predecessor, successor)` of `slot` on one ring,
    /// computed from its view exactly like `VicinityNode::ring_neighbors`:
    /// the entries of highest and lowest [`ring_rank`] around `own_key` —
    /// the [`RingSelection`] order with `k = 2`, read off in one pass. A
    /// single-entry view is its own two-node ring.
    pub fn ring_neighbors(
        &self,
        slot: u32,
        ring: usize,
        own_key: u64,
    ) -> (Option<NodeId>, Option<NodeId>) {
        let base = (idx(slot) * self.vic_rings + ring) * self.vic;
        let len = idx(self.len[idx(slot) * self.vic_rings + ring]);
        let ends = (base..base + len)
            .map(|i| ring_rank(own_key, self.key[i], self.id[i]))
            .fold(None, |ends: Option<(u128, u128)>, rank| {
                let (succ, pred) = ends.unwrap_or((rank, rank));
                Some((succ.min(rank), pred.max(rank)))
            });
        // The low half of a rank is the id.
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a ring rank's low 64 bits are the id: the truncation is the split"
        )]
        let id = |rank: u128| NodeId::new(rank as u64);
        (ends.map(|e| id(e.1)), ends.map(|e| id(e.0)))
    }
}

/// A mutable window over the [`ViArena`] covering the slot range
/// `base..base + len.len() / vic_rings` (see [`CyChunk`]).
pub(crate) struct ViChunk<'a> {
    id: &'a mut [u64],
    age: &'a mut [u32],
    key: &'a mut [u64],
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
    fn oldest_id(&self, slot: u32, ring: usize) -> Option<u64> {
        let base = self.row(slot, ring);
        let len = self.view_len(slot, ring);
        oldest_descriptor_index(
            self.id[base..base + len]
                .iter()
                .zip(&self.age[base..base + len])
                .map(|(&id, &age)| (id, age)),
        )
        .map(|i| self.id[base + i])
    }

    /// The ring key of `id` in the slot's view, if present.
    fn get_key(&self, slot: u32, ring: usize, id: u64) -> Option<u64> {
        let base = self.row(slot, ring);
        let len = self.view_len(slot, ring);
        self.id[base..base + len]
            .iter()
            .position(|&e| e == id)
            .map(|pos| self.key[base + pos])
    }

    /// The initiator's partner choice in a Vicinity exchange
    /// (`VicinityNode::{begin_cycle, initiate_exchange}`): age the view and
    /// take its oldest entry (ties toward lower id); only while the view is
    /// still empty, one `pick(cand.len())` draw among the random layer's
    /// candidates `cand` instead. Returns the partner's `(id, ring key)` —
    /// the key as the view knows it, else as the candidates do, else
    /// `own_key` — or `None` (nothing drawn) when no partner is known.
    pub fn pick_partner(
        &mut self,
        slot: u32,
        ring: usize,
        own_key: u64,
        cand: &[ViDesc],
        pick: impl FnOnce(usize) -> usize,
    ) -> Option<(u64, u64)> {
        self.age_view(slot, ring);
        let target = match self.oldest_id(slot, ring) {
            Some(target) => target,
            None if cand.is_empty() => return None,
            None => cand[pick(cand.len())].0,
        };
        let key = self
            .get_key(slot, ring, target)
            .or_else(|| cand.iter().find(|d| d.0 == target).map(|d| d.2))
            .unwrap_or(own_key);
        Some((target, key))
    }

    /// Removes the descriptor for `id` if present (order-preserving shift).
    pub fn remove_id(&mut self, slot: u32, ring: usize, id: u64) {
        let base = self.row(slot, ring);
        let len = self.view_len(slot, ring);
        if let Some(pos) = self.id[base..base + len].iter().position(|&e| e == id) {
            self.id.copy_within(base + pos + 1..base + len, base + pos);
            self.age.copy_within(base + pos + 1..base + len, base + pos);
            self.key.copy_within(base + pos + 1..base + len, base + pos);
            self.len[self.l(slot) * self.vic_rings + ring] = to_u32(len - 1);
        }
    }

    /// The Vicinity request/reply payload rule (`VicinityNode::payload_for`):
    /// the view entries closest to the target's key (never the target
    /// itself), capped at `gos - 1`, plus a fresh descriptor of the local
    /// node. `target` and `own` are `(id, ring key)` pairs.
    pub fn payload_into(
        &self,
        slot: u32,
        ring: usize,
        target: (u64, u64),
        own: (u64, u64),
        out: &mut Vec<ViDesc>,
        sel: &mut RingSelection,
    ) {
        sel.start(target.1, self.gos.saturating_sub(1), target.0);
        self.offer_view(slot, ring, sel);
        out.clear();
        out.extend(sel.ranked());
        out.push((own.0, 0, own.1));
    }

    /// The Vicinity merge rule (`VicinityNode::merge`): of the own view
    /// entries, the received descriptors and the random-layer candidates
    /// (younger duplicate wins), keep the `vic` closest to the local key,
    /// closest first. `own` is the local `(id, ring key)`.
    pub fn merge(
        &mut self,
        slot: u32,
        ring: usize,
        own: (u64, u64),
        received: &[ViDesc],
        cyclon_candidates: &[ViDesc],
        sel: &mut RingSelection,
    ) {
        sel.start(own.1, self.vic, own.0);
        self.offer_view(slot, ring, sel);
        for &d in received.iter().chain(cyclon_candidates) {
            sel.offer(d);
        }
        let base = self.row(slot, ring);
        for (i, (id, age, key)) in sel.ranked().enumerate() {
            self.id[base + i] = id;
            self.age[base + i] = age;
            self.key[base + i] = key;
        }
        self.len[self.l(slot) * self.vic_rings + ring] = to_u32(sel.len());
    }

    /// Offers every view entry of `slot` on `ring` to `sel`, in view order.
    fn offer_view(&self, slot: u32, ring: usize, sel: &mut RingSelection) {
        let base = self.row(slot, ring);
        for i in base..base + self.view_len(slot, ring) {
            sel.offer((self.id[i], self.age[i], self.key[i]));
        }
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
    fn oracle(centre: u64, k: usize, exclude: u64, pool: &[ViDesc]) -> Vec<ViDesc> {
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
            .map(|&(id, age, key)| (key, NodeId::new(id), age))
            .collect();
        rank_by_ring_distance(&centre, &candidates)
            .into_iter()
            .take(k)
            .map(|(key, id, age)| (id.as_u64(), age, key))
            .collect()
    }

    fn select(
        sel: &mut RingSelection,
        centre: u64,
        k: usize,
        exclude: u64,
        pool: &[ViDesc],
    ) -> Vec<ViDesc> {
        sel.start(centre, k, exclude);
        for &d in pool {
            sel.offer(d);
        }
        assert_eq!(sel.len(), sel.ranked().count());
        sel.ranked().collect()
    }

    /// Every id has one ring key, seven ids share each key, and the keys
    /// straddle the wrap-around point of the ring.
    fn key_of(id: u64, spread: u64) -> u64 {
        (id % 7)
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
            entries in prop::collection::vec((0u64..40, 0u32..6), 0..70),
            k in 0usize..12,
            exclude in 0u64..48,
            spread in any::<u64>(),
            centre_id in 0u64..40,
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

    #[test]
    fn random_payload_draws_like_a_shuffle_of_the_descriptors() {
        let (cyc, rings) = (6, 2);
        let mut id: Vec<u64> = vec![10, 11, 12, 13, 14, 0];
        let mut age: Vec<u32> = vec![0, 1, 2, 3, 4, 0];
        let mut pos: Vec<u64> = (0..12).collect();
        let mut len = vec![5u32];
        let cy = CyChunk {
            id: &mut id,
            age: &mut age,
            pos: &mut pos,
            len: &mut len,
            cyc,
            rings,
            base: 0,
        };
        for (exclude, take) in [(None, 3), (Some(12), 4), (Some(99), 9), (None, 0)] {
            // The rule as `View::random_descriptors` states it: shuffle
            // every eligible descriptor, keep the first `take`.
            let mut expected: Vec<(u64, u32, Vec<u64>)> = (0..5)
                .filter(|&i| Some(cy.entry(0, i).0) != exclude)
                .map(|i| {
                    (
                        cy.entry(0, i).0,
                        cy.entry(0, i).1,
                        cy.profile(0, i).to_vec(),
                    )
                })
                .collect();
            let mut expected_rng = ChaCha8Rng::seed_from_u64(3);
            expected.shuffle(&mut expected_rng);
            expected.truncate(take);

            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let (mut perm, mut out) = (Vec::new(), CyPayload::default());
            out.push(77, 0, &[1, 2]);
            cy.random_payload_into(0, exclude, take, &mut rng, &mut perm, &mut out);
            let got: Vec<(u64, u32, Vec<u64>)> = out.descs[1..]
                .iter()
                .map(|&(id, age, pofs)| (id, age, out.profs[idx(pofs)..idx(pofs) + rings].to_vec()))
                .collect();
            assert_eq!(got, expected, "exclude {exclude:?}, take {take}");
            assert_eq!(
                rng.gen::<u64>(),
                expected_rng.gen::<u64>(),
                "both consumed the same number of draws"
            );
        }
    }
}
