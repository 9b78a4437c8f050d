//! The arena-based epoch gossip runtime.
//!
//! [`DenseSimNetwork`] is the cycle-driven Cyclon + Vicinity simulation,
//! with **all node state in flat arrays**:
//!
//! * nodes live in a slab of `u32` slots with a free-list, so churn reuses
//!   storage instead of rebalancing a `BTreeMap`,
//! * every node's Cyclon view is a fixed-stride slice of one descriptor
//!   arena (parallel `id` / `age` / `profile` arrays), and likewise one
//!   Vicinity view per ring,
//! * liveness is a bitset, ring positions are a flat array, and the
//!   id-sorted live-slot index (`by_id`) replaces `BTreeMap` iteration,
//! * an epoch step ([`DenseSimNetwork::run_cycles`]) batches all Cyclon
//!   shuffles and Vicinity exchanges of a cycle through one reusable
//!   `EpochScratch` (private scratch), so a warm cycle performs no heap
//!   allocation.
//!
//! # Determinism contract
//!
//! For the same [`SimConfig`] and master seed, `DenseSimNetwork` is
//! **bit-identical** to the id-keyed `BTreeMap` runtime
//! of the test-only `hybridcast-oracle` crate: it consumes the exact same
//! RNG draw sequence (same `shuffle`/`choose`/`gen_range` calls over
//! identically-ordered candidate lists) and therefore produces equal
//! [`OverlaySnapshot`]s at every cycle, including under churn and failure
//! drivers. The differential property tests in `tests/properties.rs` pin
//! this contract.
//!
//! Because each network owns its RNG, independent runs are embarrassingly
//! parallel: derive one seed per run (e.g. with the experiment layer's
//! `run_seed(master, i)` convention) and fan the runs out with
//! [`par_map_seeds`] — results are identical at any thread count.

// D3: index casts go through `hybridcast_graph::cast`; tests are exempt.
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

use std::collections::BTreeMap;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hybridcast_graph::cast::idx;
use hybridcast_graph::NodeId;
use hybridcast_obs::{NullProbe, Probe, TraceEvent};

use crate::arena::{CyArena, CyPayload, RingSelection, ViArena, ViDesc};
use crate::config::SimConfig;
use crate::frontier::{PerNodeState, RngMode};
use crate::runtime::GossipRuntime;
use crate::snapshot::{NodeSnapshot, OverlaySnapshot};

/// A growable bitset over slot indices.
#[derive(Debug, Clone, Default)]
pub(crate) struct SlotBits {
    words: Vec<u64>,
}

impl SlotBits {
    pub(crate) fn grow_to(&mut self, len: usize) {
        let words = len.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    pub(crate) fn get(&self, bit: u32) -> bool {
        self.words[idx(bit) / 64] & (1 << (idx(bit) % 64)) != 0
    }

    pub(crate) fn set(&mut self, bit: u32) {
        self.words[idx(bit) / 64] |= 1 << (idx(bit) % 64);
    }

    pub(crate) fn clear(&mut self, bit: u32) {
        self.words[idx(bit) / 64] &= !(1 << (idx(bit) % 64));
    }
}

/// The slot of a live node, found by binary search over the id-sorted live
/// index. A free function (rather than a method) so kernels holding mutable
/// borrows of the descriptor arenas can still resolve liveness from the
/// untouched `by_id` / `ids` arrays.
pub(crate) fn lookup_live_in(by_id: &[u32], ids: &[u64], id: u64) -> Option<u32> {
    by_id
        .binary_search_by(|&slot| ids[idx(slot)].cmp(&id))
        .ok()
        .map(|i| by_id[i])
}

/// Reusable buffers for one epoch step. All per-exchange payloads, candidate
/// lists and the selection buffer live here, so a warm gossip cycle allocates
/// nothing regardless of population size.
#[derive(Debug, Clone, Default)]
struct EpochScratch {
    /// Shuffled gossip order of one cycle (slots).
    order: Vec<u32>,
    /// View positions under the Cyclon payload shuffle.
    perm: Vec<u32>,
    /// Cyclon shuffle request payload (initiator -> target).
    sent: CyPayload,
    /// Cyclon shuffle reply payload (target -> initiator).
    reply: CyPayload,
    /// Ids the merging node may evict (descriptors it shipped out).
    replaceable: Vec<u64>,
    /// Initiator's Cyclon view projected onto the current ring.
    cand: Vec<ViDesc>,
    /// Responder's Cyclon view projected onto the current ring.
    cand_peer: Vec<ViDesc>,
    /// Vicinity exchange request payload.
    pay: Vec<ViDesc>,
    /// Vicinity exchange reply payload.
    reply_v: Vec<ViDesc>,
    /// Vicinity payload / merge selection buffer.
    sel: RingSelection,
}

/// Flat link arrays of a frozen overlay, the zero-copy export of
/// [`DenseSimNetwork::flat_links`]: live node ids in ascending order plus
/// the r-link and d-link lists in compressed-sparse-row layout
/// (`targets[offsets[i]..offsets[i + 1]]` are node `i`'s links).
///
/// `hybridcast-core` builds its `DenseOverlay` directly from this, skipping
/// the id-keyed [`OverlaySnapshot`] round-trip entirely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatLinks {
    /// Live node ids, ascending.
    pub ids: Vec<NodeId>,
    /// CSR offsets into [`FlatLinks::r_targets`] (`ids.len() + 1` entries).
    pub r_offsets: Vec<u32>,
    /// Concatenated r-links (Cyclon views), in view order.
    pub r_targets: Vec<NodeId>,
    /// CSR offsets into [`FlatLinks::d_targets`] (`ids.len() + 1` entries).
    pub d_offsets: Vec<u32>,
    /// Concatenated d-links (ring neighbours on every ring, deduplicated).
    pub d_targets: Vec<NodeId>,
}

/// The arena-based epoch gossip runtime. See the module documentation for
/// the layout and the determinism contract.
///
/// # Example
///
/// ```
/// use hybridcast_sim::{DenseSimNetwork, SimConfig};
///
/// let config = SimConfig { nodes: 40, ..SimConfig::default() };
/// let mut a = DenseSimNetwork::new(config.clone(), 7);
/// let mut b = DenseSimNetwork::new(config, 7);
/// a.run_cycles(20);
/// b.run_cycles(20);
/// assert_eq!(a.overlay_snapshot(), b.overlay_snapshot(), "a seed fixes the run");
/// assert_eq!(a.flat_links().ids.len(), 40);
/// ```
#[derive(Debug, Clone)]
pub struct DenseSimNetwork {
    config: SimConfig,
    /// Ring positions per node (`config.rings.max(1)`).
    pub(crate) rings: usize,
    /// Cyclon shuffle length (clamped like `CyclonNode`).
    pub(crate) shuf: usize,
    pub(crate) cycle: u64,
    next_id: u64,
    /// The shared simulation stream: bootstrap ring positions, the cycle
    /// gossip order and every draw of the shared-stream kernel. In per-node
    /// mode it serves **only** the driver surface (spawn positions,
    /// [`DenseSimNetwork::random_live_node`]); cycle stepping never touches
    /// it.
    rng: ChaCha8Rng,

    // ---- slot arenas -----------------------------------------------------
    /// Slot -> node id.
    pub(crate) ids: Vec<u64>,
    /// Slot -> join cycle.
    pub(crate) joined: Vec<u64>,
    /// Slot -> ring positions (stride `rings`).
    pub(crate) positions: Vec<u64>,
    /// Liveness bitset over slots.
    pub(crate) live: SlotBits,
    /// Reusable slots of departed nodes.
    free: Vec<u32>,
    /// Live slots in ascending id order (ids are assigned monotonically, so
    /// spawns append and kills remove in place).
    pub(crate) by_id: Vec<u32>,

    /// Every node's Cyclon view.
    pub(crate) cy: CyArena,
    /// Every node's Vicinity views, one per ring.
    pub(crate) vi: ViArena,

    scratch: EpochScratch,

    /// Per-node-stream state (`Some` iff the network was built with
    /// [`DenseSimNetwork::new_per_node`]): counter-based RNG stream
    /// bookkeeping, the due-cycle frontier scheduler and the worker lanes
    /// of the phased kernel.
    pub(crate) per_node: Option<Box<PerNodeState>>,
}

impl DenseSimNetwork {
    /// Boots a network of `config.nodes` nodes with the paper's star
    /// bootstrap topology: every node but the first boots with the first as
    /// its only Cyclon contact.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate.
    pub fn new(config: SimConfig, seed: u64) -> Self {
        config.validate().expect("invalid simulation configuration");
        let rings = config.rings.max(1);
        let vic_rings = if config.run_vicinity { rings } else { 0 };
        // View capacities; the exchange lengths are clamped to them like
        // `CyclonNode` / `VicinityNode` clamp theirs.
        let cyc = config.cyclon_view;
        let shuf = config.cyclon_shuffle.min(cyc);
        let vic = config.vicinity_view;
        let gos = config.vicinity_gossip.min(vic);
        let nodes = config.nodes;
        let mut net = DenseSimNetwork {
            config,
            rings,
            shuf,
            cycle: 0,
            next_id: 0,
            rng: ChaCha8Rng::seed_from_u64(seed),
            ids: Vec::with_capacity(nodes),
            joined: Vec::with_capacity(nodes),
            positions: Vec::with_capacity(nodes * rings),
            live: SlotBits::default(),
            free: Vec::new(),
            by_id: Vec::with_capacity(nodes),
            cy: CyArena::with_capacity(nodes, cyc, rings),
            vi: ViArena::with_capacity(nodes, vic, vic_rings, gos),
            scratch: EpochScratch::default(),
            per_node: None,
        };
        let introducer = net.spawn_node(None);
        for _ in 1..net.config.nodes {
            net.spawn_node(Some(introducer));
        }
        net
    }

    /// Boots a network in **per-node RNG mode** (`--rng per-node`): every
    /// node's draws come from a dedicated counter-based ChaCha8 stream
    /// derived from `(master seed, slot generation id, cycle)`, cycles step
    /// only the sparse frontier of nodes whose gossip timer is due (every
    /// `period` cycles, with stream-derived staggering), and a cycle can be
    /// fanned out across `threads` workers with bit-identical results at
    /// any thread count. See [`crate::frontier`] for the full contract.
    ///
    /// The driver surface (`spawn_node` ring positions,
    /// [`DenseSimNetwork::random_live_node`]) still consumes the shared
    /// stream exactly like [`DenseSimNetwork::new`] — only cycle stepping
    /// differs.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate or `period == 0`.
    pub fn new_per_node(config: SimConfig, seed: u64, period: u64, threads: usize) -> Self {
        assert!(period > 0, "gossip period must be positive");
        let mut net = Self::new(config, seed);
        let mut state = PerNodeState::new(seed, period, threads);
        for i in 0..net.by_id.len() {
            state.on_spawn(net.by_id[i], net.cycle);
        }
        net.per_node = Some(Box::new(state));
        net
    }

    /// The simulation parameters.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The current cycle number.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Returns `true` if no node is alive.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Total number of slots ever allocated (live nodes plus free slots);
    /// the arena's high-water mark under churn.
    pub fn slot_capacity(&self) -> usize {
        self.ids.len()
    }

    /// The ids of all live nodes, ascending.
    pub fn live_ids(&self) -> Vec<NodeId> {
        self.by_id
            .iter()
            .map(|&slot| NodeId::new(self.ids[idx(slot)]))
            .collect()
    }

    /// Returns `true` if the node with the given id is alive.
    pub fn is_live(&self, id: NodeId) -> bool {
        self.lookup_live(id.as_u64()).is_some()
    }

    /// The node's position on the primary identifier ring, if it is alive.
    pub fn ring_position(&self, id: NodeId) -> Option<u64> {
        self.lookup_live(id.as_u64())
            .map(|slot| self.positions[idx(slot) * self.rings])
    }

    /// The cycle at which a live node joined the network.
    pub fn joined_at_cycle(&self, id: NodeId) -> Option<u64> {
        self.lookup_live(id.as_u64())
            .map(|slot| self.joined[idx(slot)])
    }

    /// The node's current Cyclon view (r-links), in view order.
    pub fn r_links(&self, id: NodeId) -> Vec<NodeId> {
        let Some(slot) = self.lookup_live(id.as_u64()) else {
            return Vec::new();
        };
        let ids = self.cy.view().ids(slot);
        ids.iter().map(|&raw| NodeId::new(raw)).collect()
    }

    /// The RNG mode this network was built with.
    pub fn rng_mode(&self) -> RngMode {
        if self.per_node.is_some() {
            RngMode::PerNode
        } else {
            RngMode::Shared
        }
    }

    /// The slot of a live node, found by binary search over the id-sorted
    /// live index.
    fn lookup_live(&self, id: u64) -> Option<u32> {
        lookup_live_in(&self.by_id, &self.ids, id)
    }

    /// Creates a brand-new node, reusing a free slot when one exists.
    /// Exactly `rings` uniform draws for the ring positions, nothing else.
    pub fn spawn_node(&mut self, introducer: Option<NodeId>) -> NodeId {
        let id = self.next_id;
        self.next_id += 1;

        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.ids.len()).expect("slot index fits in u32");
                self.ids.push(0);
                self.joined.push(0);
                self.positions.resize(self.positions.len() + self.rings, 0);
                self.cy.push_slot();
                self.vi.push_slot();
                self.live.grow_to(self.ids.len());
                slot
            }
        };
        let s = idx(slot);
        self.ids[s] = id;
        self.joined[s] = self.cycle;
        let pos_base = s * self.rings;
        for r in 0..self.rings {
            self.positions[pos_base + r] = self.rng.gen();
        }
        self.cy.clear_slot(slot);
        self.vi.clear_slot(slot);

        if let Some(contact) = introducer {
            if let Some(cslot) = self.lookup_live(contact.as_u64()) {
                let src = idx(cslot) * self.rings;
                let profile = &self.positions[src..src + self.rings];
                self.cy.full().push(slot, contact.as_u64(), 0, profile);
            }
        }

        self.live.set(slot);
        // Ids grow monotonically, so appending keeps `by_id` sorted.
        self.by_id.push(slot);
        let cycle = self.cycle;
        if let Some(state) = self.per_node.as_deref_mut() {
            state.on_spawn(slot, cycle);
        }
        NodeId::new(id)
    }

    /// Removes a node for good; its slot goes onto the free-list for the
    /// next join. Returns `true` if the node existed.
    pub fn kill_node(&mut self, id: NodeId) -> bool {
        match self
            .by_id
            .binary_search_by(|&slot| self.ids[idx(slot)].cmp(&id.as_u64()))
        {
            Ok(i) => {
                let slot = self.by_id.remove(i);
                self.live.clear(slot);
                self.free.push(slot);
                true
            }
            Err(_) => false,
        }
    }

    /// Picks a uniformly random live node, if any: one `choose` over the
    /// id-ordered live list.
    ///
    /// This and [`DenseSimNetwork::spawn_node`] are the only draws a driver
    /// can cause: the stream itself is never handed out, so no caller can
    /// silently desync the simulation's draw sequence.
    pub fn random_live_node(&mut self) -> Option<NodeId> {
        let slot = self.by_id.choose(&mut self.rng).copied()?;
        Some(NodeId::new(self.ids[idx(slot)]))
    }

    /// Runs `count` gossip cycles (epoch steps).
    pub fn run_cycles(&mut self, count: usize) {
        self.run_cycles_probed(count, &mut NullProbe);
    }

    /// [`DenseSimNetwork::run_cycles`] with a [`Probe`] attached: one
    /// `ViewExchange` per gossiping node (in shuffle order) and a
    /// `CycleEnd` per cycle — the same stream, record for record, that the
    /// id-keyed oracle runtime emits from the same seed.
    pub fn run_cycles_probed<P: Probe>(&mut self, count: usize, probe: &mut P) {
        for _ in 0..count {
            if self.per_node.is_some() {
                self.run_single_cycle_per_node(probe);
            } else {
                self.run_single_cycle_probed(probe);
            }
        }
    }

    fn run_single_cycle_probed<P: Probe>(&mut self, probe: &mut P) {
        self.cycle += 1;
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.order.clear();
        scratch.order.extend_from_slice(&self.by_id);
        scratch.order.shuffle(&mut self.rng);
        for i in 0..scratch.order.len() {
            let slot = scratch.order[i];
            // Mirrors the id-keyed runtime's "node may have been removed by
            // churn applied mid-cycle" guard.
            if !self.live.get(slot) {
                continue;
            }
            let my_id = self.ids[idx(slot)];
            probe.record(TraceEvent::ViewExchange {
                node: my_id,
                cycle: self.cycle,
            });
            self.cyclon_gossip(slot, my_id, &mut scratch);
            for ring in 0..self.vi.rings() {
                self.vicinity_gossip(slot, my_id, ring, &mut scratch);
            }
        }
        self.scratch = scratch;
        probe.record(TraceEvent::CycleEnd {
            cycle: self.cycle,
            live: self.len() as u64,
        });
    }

    // ---- Cyclon over the arena ------------------------------------------

    /// One Cyclon shuffle initiated by `slot`: the initiator half
    /// ([`crate::arena::CyChunk::begin_shuffle`]), then the reply and both
    /// merges before the next node steps — the arena replay of
    /// `CyclonNode::{begin_cycle, initiate_shuffle, handle_shuffle_request,
    /// handle_shuffle_response}` on the shared stream.
    fn cyclon_gossip(&mut self, slot: u32, my_id: u64, s: &mut EpochScratch) {
        let mut cy = self.cy.full();
        let pos_base = idx(slot) * self.rings;
        let own = (my_id, &self.positions[pos_base..pos_base + self.rings]);
        s.sent.clear();
        let Some(target) = cy.begin_shuffle(
            slot,
            own,
            self.shuf,
            &mut self.rng,
            &mut s.perm,
            &mut s.sent,
        ) else {
            return; // An isolated node cannot shuffle.
        };
        let Some(peer) = lookup_live_in(&self.by_id, &self.ids, target) else {
            // shuffle_failed: nothing to repair — the dead target's
            // descriptor already left the view.
            return;
        };
        // handle_shuffle_request: the reply is `shuf` random entries of the
        // peer's view (never the initiator), captured before the peer
        // merges the request.
        s.reply.clear();
        cy.random_payload_into(
            peer,
            Some(my_id),
            self.shuf,
            &mut self.rng,
            &mut s.perm,
            &mut s.reply,
        );
        let peer_id = self.ids[idx(peer)];
        // Peer merges the request (may evict what it just sent)...
        cy.merge(
            peer,
            peer_id,
            &s.sent.descs,
            &s.sent.profs,
            &s.reply.descs,
            &mut s.replaceable,
        );
        // ...then the initiator merges the reply (may evict what it sent,
        // never its own fresh descriptor).
        cy.merge(
            slot,
            my_id,
            &s.reply.descs,
            &s.reply.profs,
            &s.sent.descs,
            &mut s.replaceable,
        );
    }

    // ---- Vicinity over the arena ----------------------------------------

    /// One Vicinity exchange on ring `ring` initiated by `slot`: the partner
    /// choice ([`crate::arena::ViChunk::pick_partner`]), then both payloads
    /// and both merges before the next node steps — the arena replay of
    /// `VicinityNode::{begin_cycle, initiate_exchange,
    /// handle_exchange_request, handle_exchange_response, exchange_failed}`
    /// on the shared stream.
    fn vicinity_gossip(&mut self, slot: u32, my_id: u64, ring: usize, s: &mut EpochScratch) {
        let EpochScratch {
            cand,
            cand_peer,
            pay,
            reply_v,
            sel,
            ..
        } = s;
        // The random layer feeds candidates into the proximity layer (from
        // the initiator's *current* Cyclon view, after its shuffle).
        let cyv = self.cy.view();
        let mut vi = self.vi.full();
        cyv.ring_candidates_into(slot, ring, cand);

        let own_key = self.positions[idx(slot) * self.rings + ring];
        let rng = &mut self.rng;
        let Some((target, target_key)) =
            vi.pick_partner(slot, ring, own_key, cand, |n| rng.gen_range(0..n))
        else {
            return; // No partner known at all.
        };
        vi.payload_into(slot, ring, (target, target_key), (my_id, own_key), pay, sel);

        match lookup_live_in(&self.by_id, &self.ids, target) {
            Some(peer) => {
                let peer_id = self.ids[idx(peer)];
                let peer_key = self.positions[idx(peer) * self.rings + ring];
                cyv.ring_candidates_into(peer, ring, cand_peer);
                // handle_exchange_request: the reply targets the initiator's
                // neighbourhood and is captured before the peer merges.
                vi.payload_into(
                    peer,
                    ring,
                    (my_id, own_key),
                    (peer_id, peer_key),
                    reply_v,
                    sel,
                );
                vi.merge(peer, ring, (peer_id, peer_key), pay, cand_peer, sel);
                // handle_exchange_response on the initiator.
                vi.merge(slot, ring, (my_id, own_key), reply_v, cand, sel);
            }
            None => {
                // exchange_failed: drop the dead peer so the ring can
                // re-close around it.
                vi.remove_id(slot, ring, target);
            }
        }
    }

    // ---- Exports ---------------------------------------------------------

    /// Appends the node's d-links (ring neighbours on every ring,
    /// deduplicated within the node, predecessor before successor) to `out`.
    fn push_d_links(&self, slot: u32, out: &mut Vec<NodeId>) {
        let start = out.len();
        for ring in 0..self.vi.rings() {
            let own_key = self.positions[idx(slot) * self.rings + ring];
            let (pred, succ) = self.vi.ring_neighbors(slot, ring, own_key);
            for link in [pred, succ].into_iter().flatten() {
                if !out[start..].contains(&link) {
                    out.push(link);
                }
            }
        }
    }

    /// Exports a frozen id-keyed snapshot, bit-identical to the id-keyed
    /// oracle runtime's for the same seed and history.
    pub fn overlay_snapshot(&self) -> OverlaySnapshot {
        let mut entries = BTreeMap::new();
        let view = self.cy.view();
        for &slot in &self.by_id {
            let s = idx(slot);
            let r_links = view.ids(slot).iter().map(|&raw| NodeId::new(raw)).collect();
            let mut d_links = Vec::new();
            self.push_d_links(slot, &mut d_links);
            entries.insert(
                NodeId::new(self.ids[s]),
                NodeSnapshot {
                    ring_position: self.positions[s * self.rings],
                    joined_at_cycle: self.joined[s],
                    r_links,
                    d_links,
                },
            );
        }
        OverlaySnapshot::new(self.cycle, entries)
    }

    /// Exports the current overlay as flat CSR link arrays, skipping the
    /// id-keyed snapshot entirely. `hybridcast-core` builds its dense
    /// dissemination overlay straight from this.
    pub fn flat_links(&self) -> FlatLinks {
        let n = self.by_id.len();
        let mut ids = Vec::with_capacity(n);
        let mut r_offsets = Vec::with_capacity(n + 1);
        let mut r_targets = Vec::new();
        let mut d_offsets = Vec::with_capacity(n + 1);
        let mut d_targets = Vec::new();
        r_offsets.push(0);
        d_offsets.push(0);
        let view = self.cy.view();
        for &slot in &self.by_id {
            ids.push(NodeId::new(self.ids[idx(slot)]));
            r_targets.extend(view.ids(slot).iter().map(|&raw| NodeId::new(raw)));
            self.push_d_links(slot, &mut d_targets);
            r_offsets.push(u32::try_from(r_targets.len()).expect("r-link count fits in u32"));
            d_offsets.push(u32::try_from(d_targets.len()).expect("d-link count fits in u32"));
        }
        FlatLinks {
            ids,
            r_offsets,
            r_targets,
            d_offsets,
            d_targets,
        }
    }
}

impl GossipRuntime for DenseSimNetwork {
    fn cycle(&self) -> u64 {
        DenseSimNetwork::cycle(self)
    }

    fn len(&self) -> usize {
        DenseSimNetwork::len(self)
    }

    fn live_ids(&self) -> Vec<NodeId> {
        DenseSimNetwork::live_ids(self)
    }

    fn is_live(&self, id: NodeId) -> bool {
        DenseSimNetwork::is_live(self, id)
    }

    fn joined_at(&self, id: NodeId) -> Option<u64> {
        DenseSimNetwork::joined_at_cycle(self, id)
    }

    fn spawn_node(&mut self, introducer: Option<NodeId>) -> NodeId {
        DenseSimNetwork::spawn_node(self, introducer)
    }

    fn kill_node(&mut self, id: NodeId) -> bool {
        DenseSimNetwork::kill_node(self, id)
    }

    fn random_live_node(&mut self) -> Option<NodeId> {
        DenseSimNetwork::random_live_node(self)
    }

    fn run_cycles(&mut self, count: usize) {
        DenseSimNetwork::run_cycles(self, count)
    }

    fn rng_mode(&self) -> RngMode {
        DenseSimNetwork::rng_mode(self)
    }

    fn overlay_snapshot(&self) -> OverlaySnapshot {
        DenseSimNetwork::overlay_snapshot(self)
    }
}

/// Runs `f` once per seed, fanned out across `threads` workers, returning
/// the results in seed order.
///
/// Every run is a pure function of its seed (a [`DenseSimNetwork`] owns its
/// RNG), so the result vector is **bit-identical for every thread count** —
/// `threads` only decides wall-clock time. Derive the per-run seeds with the
/// experiment layer's `run_seed(master, i)` mixer (or any other pure
/// scheme) and pass them here.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn par_map_seeds<T, F>(seeds: &[u64], threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let threads = threads.max(1).min(seeds.len().max(1));
    if threads == 1 {
        return seeds.iter().map(|&seed| f(seed)).collect();
    }
    let chunk = seeds.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let workers: Vec<_> = seeds
            .chunks(chunk)
            .map(|chunk_seeds| {
                scope.spawn(move || chunk_seeds.iter().map(|&seed| f(seed)).collect::<Vec<T>>())
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("seeded simulation worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(nodes: usize) -> SimConfig {
        SimConfig {
            nodes,
            warmup_cycles: 0,
            ..SimConfig::default()
        }
    }

    #[test]
    fn flat_links_agree_with_the_snapshot() {
        let mut dense = DenseSimNetwork::new(config(60), 7);
        dense.run_cycles(40);
        let snapshot = dense.overlay_snapshot();
        let flat = dense.flat_links();
        assert_eq!(flat.ids.len(), snapshot.len());
        assert_eq!(flat.r_offsets.len(), flat.ids.len() + 1);
        for (i, &id) in flat.ids.iter().enumerate() {
            let r = &flat.r_targets[flat.r_offsets[i] as usize..flat.r_offsets[i + 1] as usize];
            let d = &flat.d_targets[flat.d_offsets[i] as usize..flat.d_offsets[i + 1] as usize];
            assert_eq!(r, snapshot.r_links(id).as_slice(), "{id} r-links");
            assert_eq!(d, snapshot.d_links(id).as_slice(), "{id} d-links");
        }
    }

    #[test]
    fn same_seed_reproduces_and_different_seeds_differ() {
        let mut a = DenseSimNetwork::new(config(50), 9);
        let mut b = DenseSimNetwork::new(config(50), 9);
        let mut c = DenseSimNetwork::new(config(50), 10);
        a.run_cycles(20);
        b.run_cycles(20);
        c.run_cycles(20);
        assert_eq!(a.overlay_snapshot(), b.overlay_snapshot());
        assert_ne!(a.overlay_snapshot(), c.overlay_snapshot());
    }

    #[test]
    fn r_links_accessor_matches_snapshot() {
        let mut dense = DenseSimNetwork::new(config(30), 11);
        dense.run_cycles(25);
        let snapshot = dense.overlay_snapshot();
        for id in dense.live_ids() {
            assert_eq!(dense.r_links(id), snapshot.r_links(id));
        }
        assert!(dense.r_links(NodeId::new(999)).is_empty());
    }

    #[test]
    fn par_map_seeds_is_thread_count_invariant() {
        let seeds: Vec<u64> = (0..7).map(|i| 1000 + i).collect();
        let run = |seed: u64| {
            let mut net = DenseSimNetwork::new(config(25), seed);
            net.run_cycles(8);
            net.overlay_snapshot()
        };
        let sequential = par_map_seeds(&seeds, 1, run);
        for threads in [2, 3, 8] {
            assert_eq!(
                sequential,
                par_map_seeds(&seeds, threads, run),
                "{threads} threads"
            );
        }
    }
}
