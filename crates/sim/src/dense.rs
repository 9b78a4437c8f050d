//! The arena-based epoch gossip runtime.
//!
//! [`DenseSimNetwork`] is the cycle-driven Cyclon + Vicinity simulation,
//! with **all node state in flat arrays**:
//!
//! * nodes live in a slab of `u32` slots with a free-list, so churn reuses
//!   storage instead of rebalancing a `BTreeMap`,
//! * node ids are `u32` too: they are dense indices counted up from 0, so
//!   every row, table and in-flight descriptor stores 4 B per id (a ring
//!   key stays a `u64`), and an id is widened to [`NodeId`] only where it leaves the crate
//!   ([`DenseSimNetwork::node_links`], [`DenseSimNetwork::flat_links`],
//!   [`DenseSimNetwork::overlay_snapshot`], [`DenseSimNetwork::live_ids`],
//!   [`DenseSimNetwork::spawn_node`]),
//! * every node's Cyclon view is a fixed-stride slice of one descriptor
//!   arena (parallel `id` / `age` arrays, 8 B per entry), and likewise one
//!   Vicinity view per ring,
//! * every ring key is stored once, in an id-indexed table (`keys`, stride
//!   `rings`): a node's keys never change and ids are never reused, so
//!   descriptors carry ids only and every rule that ranks by key looks the
//!   key up by id — a departed id keeps its key,
//! * liveness is a bitset, and the id-sorted live-slot index (`by_id`)
//!   replaces `BTreeMap` iteration; it serves id-ordered walks and the
//!   uniform live-node draw only, while the id-indexed `slot_of` table
//!   resolves a live node in one load,
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
//! parallel: derive one seed per run and fan the runs out with the
//! experiment layer's `fan_out_seeded` — results are identical at any
//! thread count.

// D3: index casts go through `hybridcast_graph::cast`; tests are exempt.
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

use std::collections::BTreeMap;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hybridcast_graph::cast::{idx, idx_u64};
use hybridcast_graph::NodeId;
use hybridcast_obs::{NullProbe, Probe, TraceEvent};

use crate::arena::{heap_bytes, CyArena, CyDesc, RingKeys, RingSelection, ViArena, ViDesc};
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

    pub(crate) fn resident_bytes(&self) -> usize {
        heap_bytes(&self.words)
    }
}

/// The slot of a live node: one load from the id-indexed `slot_of` table,
/// `None` for an id that has left or was never assigned. A free function
/// (rather than a method) so kernels holding mutable borrows of the
/// descriptor arenas can still resolve liveness.
pub(crate) fn lookup_live_in(slot_of: &[u32], id: u32) -> Option<u32> {
    let slot = *slot_of.get(idx(id))?;
    (slot != u32::MAX).then_some(slot)
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
    sent: Vec<CyDesc>,
    /// Cyclon shuffle reply payload (target -> initiator).
    reply: Vec<CyDesc>,
    /// Ids the merging node may evict (descriptors it shipped out).
    replaceable: Vec<u32>,
    /// Initiator's Cyclon view projected onto the current ring.
    cand: Vec<ViDesc>,
    /// Responder's Cyclon view projected onto the current ring.
    cand_peer: Vec<ViDesc>,
    /// Vicinity exchange request payload.
    pay: Vec<ViDesc>,
    /// Vicinity exchange reply payload.
    reply_v: Vec<ViDesc>,
    /// Vicinity merge selection buffer.
    sel: RingSelection,
}

impl EpochScratch {
    fn resident_bytes(&self) -> usize {
        heap_bytes(&self.order)
            + heap_bytes(&self.perm)
            + heap_bytes(&self.sent)
            + heap_bytes(&self.reply)
            + heap_bytes(&self.replaceable)
            + heap_bytes(&self.cand)
            + heap_bytes(&self.cand_peer)
            + heap_bytes(&self.pay)
            + heap_bytes(&self.reply_v)
            + self.sel.resident_bytes()
    }
}

/// Flat link arrays of a frozen overlay, the owned copy of the links that
/// [`DenseSimNetwork::flat_links`] exports: live node ids in ascending
/// order plus the r-link and d-link lists in compressed-sparse-row layout
/// (`targets[offsets[i]..offsets[i + 1]]` are node `i`'s links).
///
/// `hybridcast-core` builds its `DenseOverlay` from these arrays in place,
/// skipping the id-keyed [`OverlaySnapshot`] round-trip entirely; a live
/// network needs no export at all (`DenseOverlay::from_dense_sim` walks
/// [`DenseSimNetwork::node_links`] directly).
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
    next_id: u32,
    /// The shared simulation stream: bootstrap ring positions, the cycle
    /// gossip order and every draw of the shared-stream kernel. In per-node
    /// mode it serves **only** the driver surface (spawn positions,
    /// [`DenseSimNetwork::random_live_node`]); cycle stepping never touches
    /// it.
    rng: ChaCha8Rng,

    // ---- slot arenas -----------------------------------------------------
    /// Slot -> node id, a `u32` like every id inside the simulator.
    pub(crate) ids: Vec<u32>,
    /// Slot -> join cycle.
    pub(crate) joined: Vec<u64>,
    /// Liveness bitset over slots.
    pub(crate) live: SlotBits,
    /// Reusable slots of departed nodes.
    free: Vec<u32>,
    /// Live slots in ascending id order (ids are assigned monotonically, so
    /// spawns append and kills remove in place): the cycle order, the
    /// exports and `random_live_node`'s draw walk it.
    pub(crate) by_id: Vec<u32>,
    /// Node id -> slot, `u32::MAX` once the node has left: the O(1) live
    /// lookup. One entry per id ever assigned, 4 B each: ~60 KB for 10k
    /// nodes after 250 churn cycles at 0.2 %, ~220 KB for 50k nodes with
    /// the benchmark's per-node churn.
    pub(crate) slot_of: Vec<u32>,
    /// Node id -> its ring keys (stride `rings`): the one home of every
    /// ring key. Like `slot_of` it has an entry for every id ever assigned
    /// and keeps a departed id's keys, which views may still name. A key is
    /// a `u64` position on the ring, so this is 8 B per id and ring, twice
    /// the `u32` id that indexes it (~440 KB for the ~55k ids of the
    /// 50k-node figure above).
    pub(crate) keys: Vec<u64>,

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
            live: SlotBits::default(),
            free: Vec::new(),
            by_id: Vec::with_capacity(nodes),
            slot_of: Vec::with_capacity(nodes),
            keys: Vec::with_capacity(nodes * rings),
            cy: CyArena::with_capacity(nodes, cyc),
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
    /// Panics if the configuration does not validate, `period == 0` or
    /// `period` exceeds [`crate::frontier::MAX_GOSSIP_PERIOD`] (checked
    /// before anything is allocated).
    pub fn new_per_node(config: SimConfig, seed: u64, period: u64, threads: usize) -> Self {
        assert!(period > 0, "gossip period must be positive");
        assert!(
            period <= crate::frontier::MAX_GOSSIP_PERIOD,
            "gossip period {period} exceeds {}",
            crate::frontier::MAX_GOSSIP_PERIOD
        );
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
            .map(|&slot| NodeId::new(u64::from(self.ids[idx(slot)])))
            .collect()
    }

    /// Returns `true` if the node with the given id is alive.
    pub fn is_live(&self, id: NodeId) -> bool {
        self.lookup_live(id.as_u64()).is_some()
    }

    /// The node's position on the primary identifier ring, if it is alive.
    pub fn ring_position(&self, id: NodeId) -> Option<u64> {
        self.lookup_live(id.as_u64())
            .map(|_| self.keys[idx_u64(id.as_u64()) * self.rings])
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
        ids.iter().map(|&raw| NodeId::new(u64::from(raw))).collect()
    }

    /// The heap bytes this network holds, summed from the capacities of
    /// its arrays: the slot arrays, `slot_of`, the key table, both view
    /// arenas, the epoch scratch and, in per-node mode, the lanes, indexes
    /// and timer buckets. Allocator overhead and the struct itself are not
    /// counted.
    pub fn resident_bytes(&self) -> usize {
        heap_bytes(&self.ids)
            + heap_bytes(&self.joined)
            + self.live.resident_bytes()
            + heap_bytes(&self.free)
            + heap_bytes(&self.by_id)
            + heap_bytes(&self.slot_of)
            + heap_bytes(&self.keys)
            + self.cy.resident_bytes()
            + self.vi.resident_bytes()
            + self.scratch.resident_bytes()
            + self
                .per_node
                .as_deref()
                .map_or(0, PerNodeState::resident_bytes)
    }

    /// The RNG mode this network was built with.
    pub fn rng_mode(&self) -> RngMode {
        if self.per_node.is_some() {
            RngMode::PerNode
        } else {
            RngMode::Shared
        }
    }

    /// The slot of a live node; an id past the `u32` id space was never
    /// assigned.
    fn lookup_live(&self, id: u64) -> Option<u32> {
        lookup_live_in(&self.slot_of, u32::try_from(id).ok()?)
    }

    /// Creates a brand-new node, reusing a free slot when one exists.
    /// Exactly `rings` uniform draws for the ring positions, nothing else.
    ///
    /// # Panics
    ///
    /// Panics with "node id space exhausted" once every id up to
    /// `u32::MAX - 1` has been assigned: ids are never reused, and inside
    /// the simulator they are `u32` indices of the id-indexed tables.
    pub fn spawn_node(&mut self, introducer: Option<NodeId>) -> NodeId {
        let id = self.next_id;
        assert!(
            id < u32::MAX,
            "node id space exhausted: every id up to {} has been assigned",
            u32::MAX - 1
        );
        self.next_id += 1;

        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.ids.len()).expect("slot index fits in u32");
                self.ids.push(0);
                self.joined.push(0);
                self.cy.push_slot();
                self.vi.push_slot();
                self.live.grow_to(self.ids.len());
                slot
            }
        };
        let s = idx(slot);
        self.ids[s] = id;
        self.joined[s] = self.cycle;
        // Ids grow monotonically, so appending keeps `by_id` sorted and
        // `slot_of` / `keys` indexed by id.
        for _ in 0..self.rings {
            self.keys.push(self.rng.gen());
        }
        self.cy.clear_slot(slot);
        self.vi.clear_slot(slot);

        if let Some(contact) = introducer.and_then(|c| u32::try_from(c.as_u64()).ok()) {
            if lookup_live_in(&self.slot_of, contact).is_some() {
                self.cy.full().push(slot, (contact, 0));
            }
        }

        self.live.set(slot);
        self.by_id.push(slot);
        self.slot_of.push(slot);
        let cycle = self.cycle;
        if let Some(state) = self.per_node.as_deref_mut() {
            state.on_spawn(slot, cycle);
        }
        NodeId::new(u64::from(id))
    }

    /// Sets the next id to assign, so a test can reach the end of the id
    /// space without spawning billions of nodes. Spawning any id below
    /// `u32::MAX` after a jump would misindex the id-indexed tables.
    #[cfg(test)]
    fn set_next_id(&mut self, next: u32) {
        self.next_id = next;
    }

    /// Removes a node for good; its slot goes onto the free-list for the
    /// next join. Returns `true` if the node existed.
    pub fn kill_node(&mut self, id: NodeId) -> bool {
        let Some(slot) = self.lookup_live(id.as_u64()) else {
            return false;
        };
        self.slot_of[idx_u64(id.as_u64())] = u32::MAX;
        let i = self
            .by_id
            .partition_point(|&s| u64::from(self.ids[idx(s)]) < id.as_u64());
        debug_assert_eq!(self.by_id[i], slot, "a live node sits in `by_id`");
        self.by_id.remove(i);
        self.live.clear(slot);
        self.free.push(slot);
        true
    }

    /// Picks a uniformly random live node, if any: one `choose` over the
    /// id-ordered live list.
    ///
    /// This and [`DenseSimNetwork::spawn_node`] are the only draws a driver
    /// can cause: the stream itself is never handed out, so no caller can
    /// silently desync the simulation's draw sequence.
    pub fn random_live_node(&mut self) -> Option<NodeId> {
        let slot = self.by_id.choose(&mut self.rng).copied()?;
        Some(NodeId::new(u64::from(self.ids[idx(slot)])))
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
                node: u64::from(my_id),
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
    fn cyclon_gossip(&mut self, slot: u32, my_id: u32, s: &mut EpochScratch) {
        let mut cy = self.cy.full();
        s.sent.clear();
        let Some(target) = cy.begin_shuffle(
            slot,
            my_id,
            self.shuf,
            &mut self.rng,
            &mut s.perm,
            &mut s.sent,
        ) else {
            return; // An isolated node cannot shuffle.
        };
        let Some(peer) = lookup_live_in(&self.slot_of, target) else {
            // A failed shuffle: nothing to repair — the dead target's
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
        cy.merge(peer, peer_id, &s.sent, &s.reply, &mut s.replaceable);
        // ...then the initiator merges the reply (may evict what it sent,
        // never its own fresh descriptor).
        cy.merge(slot, my_id, &s.reply, &s.sent, &mut s.replaceable);
    }

    // ---- Vicinity over the arena ----------------------------------------

    /// One Vicinity exchange on ring `ring` initiated by `slot`: the partner
    /// choice ([`crate::arena::ViChunk::pick_partner`]), then both payloads
    /// and both merges before the next node steps — the arena replay of
    /// `VicinityNode::{begin_cycle, initiate_exchange,
    /// handle_exchange_request, handle_exchange_response, exchange_failed}`
    /// on the shared stream.
    fn vicinity_gossip(&mut self, slot: u32, my_id: u32, ring: usize, s: &mut EpochScratch) {
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
        let keys = RingKeys::new(&self.keys, self.rings, ring);
        cyv.ring_candidates_into(slot, keys, cand);

        let rng = &mut self.rng;
        let Some(target) = vi.pick_partner(slot, ring, cand, |n| rng.gen_range(0..n)) else {
            return; // No partner known at all.
        };
        vi.payload_into(slot, keys, target, my_id, pay);

        match lookup_live_in(&self.slot_of, target) {
            Some(peer) => {
                cyv.ring_candidates_into(peer, keys, cand_peer);
                // handle_exchange_request: the reply targets the initiator's
                // neighbourhood and is captured before the peer merges.
                vi.payload_into(peer, keys, my_id, target, reply_v);
                vi.merge(peer, keys, target, pay, cand_peer, sel);
                // handle_exchange_response on the initiator.
                vi.merge(slot, keys, my_id, reply_v, cand, sel);
            }
            None => {
                // exchange_failed: drop the dead peer so the ring can
                // re-close around it.
                vi.remove_id(slot, ring, target);
            }
        }
    }

    // ---- Exports ---------------------------------------------------------

    /// The links of the `i`-th live node in ascending id order (`i <
    /// self.len()`): its id, its r-links (its Cyclon view, in view order)
    /// and its d-links (its ring neighbours on every ring, predecessor
    /// before successor, each link once).
    ///
    /// This is the one per-node walk behind [`DenseSimNetwork::flat_links`],
    /// [`DenseSimNetwork::overlay_snapshot`] and `hybridcast-core`'s
    /// `DenseOverlay::from_dense_sim`, which builds its CSR arrays from it
    /// without an intermediate export.
    pub fn node_links(
        &self,
        i: usize,
    ) -> (
        NodeId,
        impl Iterator<Item = NodeId> + '_,
        impl Iterator<Item = NodeId> + '_,
    ) {
        let slot = self.by_id[i];
        let r = self
            .cy
            .view()
            .ids(slot)
            .iter()
            .map(|&raw| NodeId::new(u64::from(raw)));
        // Candidate `k` is ring `k / 2`'s predecessor (even `k`) or
        // successor (odd `k`); a candidate equal to an earlier one is a
        // duplicate.
        let candidate = move |k: usize| {
            let (pred, succ) = self.vi.ring_neighbors(slot, k / 2);
            if k % 2 == 0 {
                pred
            } else {
                succ
            }
        };
        let d = (0..2 * self.vi.rings()).filter_map(move |k| {
            let link = candidate(k)?;
            (0..k).all(|j| candidate(j) != Some(link)).then_some(link)
        });
        (NodeId::new(u64::from(self.ids[idx(slot)])), r, d)
    }

    /// Exports a frozen id-keyed snapshot, bit-identical to the id-keyed
    /// oracle runtime's for the same seed and history.
    pub fn overlay_snapshot(&self) -> OverlaySnapshot {
        let entries = (0..self.len())
            .map(|i| {
                let (id, r, d) = self.node_links(i);
                let s = idx(self.by_id[i]);
                let node = NodeSnapshot {
                    ring_position: self.keys[idx_u64(id.as_u64()) * self.rings],
                    joined_at_cycle: self.joined[s],
                    r_links: r.collect(),
                    d_links: d.collect(),
                };
                (id, node)
            })
            .collect::<BTreeMap<_, _>>();
        OverlaySnapshot::new(self.cycle, entries)
    }

    /// Exports the current overlay as flat CSR link arrays, skipping the
    /// id-keyed snapshot entirely.
    pub fn flat_links(&self) -> FlatLinks {
        let n = self.by_id.len();
        let mut ids = Vec::with_capacity(n);
        let mut r_offsets = Vec::with_capacity(n + 1);
        let mut r_targets = Vec::new();
        let mut d_offsets = Vec::with_capacity(n + 1);
        let mut d_targets = Vec::new();
        r_offsets.push(0);
        d_offsets.push(0);
        for i in 0..n {
            let (id, r, d) = self.node_links(i);
            ids.push(id);
            r_targets.extend(r);
            d_targets.extend(d);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::ring_rank;

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
    fn a_killed_id_never_resolves_again_even_when_its_slot_is_reused() {
        let mut dense = DenseSimNetwork::new(config(20), 3);
        dense.run_cycles(5);
        let victim = NodeId::new(7);
        let slot = dense.lookup_live(7).expect("node 7 is alive");
        assert!(dense.kill_node(victim));
        assert!(!dense.is_live(victim));
        let fresh = dense.spawn_node(Some(NodeId::new(0)));
        assert_eq!(dense.lookup_live(fresh.as_u64()), Some(slot), "slot reused");
        dense.run_cycles(5);
        assert!(!dense.is_live(victim));
        assert_eq!(dense.ring_position(victim), None);
        assert_eq!(dense.joined_at_cycle(victim), None);
        assert!(dense.r_links(victim).is_empty());
        assert!(dense.live_ids().iter().all(|&id| id != victim));
    }

    /// Kills a node that a live node's Cyclon view still names, spawns a
    /// newcomer into the freed slot, and checks that the departed id keeps
    /// the key it drew at join — in the live node's ring candidates, in its
    /// Vicinity merge and in the rows the kernel merges next cycle — and
    /// never takes the new tenant's.
    fn departed_ids_keep_their_keys_after_slot_reuse(mut net: DenseSimNetwork) {
        net.run_cycles(20);
        let (holder, departed) = net
            .live_ids()
            .into_iter()
            .find_map(|id| net.r_links(id).first().map(|&link| (id, link)))
            .expect("a warmed network has Cyclon links");
        let departed_key = net.ring_position(departed).expect("alive");
        let freed = net.lookup_live(departed.as_u64()).expect("alive");
        assert!(net.kill_node(departed));
        let tenant = net.spawn_node(Some(holder));
        assert_eq!(net.lookup_live(tenant.as_u64()), Some(freed), "slot reused");
        assert_ne!(net.ring_position(tenant), Some(departed_key));

        let slot = net.lookup_live(holder.as_u64()).expect("alive");
        let raw = |id: NodeId| u32::try_from(id.as_u64()).expect("a simulator id");
        let keys = RingKeys::new(&net.keys, net.rings, 0);
        let mut cand = Vec::new();
        net.cy.view().ring_candidates_into(slot, keys, &mut cand);
        let named = cand.iter().find(|d| d.0 == raw(departed));
        assert_eq!(named.map(|d| d.2), Some(departed_key), "ring candidate");

        let mut sel = RingSelection::default();
        let mut vi = net.vi.clone();
        vi.full()
            .merge(slot, keys, raw(holder), &[], &cand, &mut sel);
        let merged = sel.sorted().find(|d| d.0 == raw(departed));
        assert_eq!(merged.map(|d| d.2), Some(departed_key), "merge pool");

        // The kernel's own merges: every row naming the departed id is in
        // ascending ring order under the id-indexed keys.
        net.run_cycles(1);
        let keys = RingKeys::new(&net.keys, net.rings, 0);
        let mut rows_naming = 0;
        for id in net.live_ids() {
            let slot = net.lookup_live(id.as_u64()).expect("alive");
            let row = net.vi.row(slot, 0);
            rows_naming += usize::from(row.contains(&raw(departed)));
            let centre = keys.of(raw(id));
            let ranks: Vec<u128> = row
                .iter()
                .map(|&e| ring_rank(centre, keys.of(e), e))
                .collect();
            assert!(ranks.windows(2).all(|w| w[0] < w[1]), "{id}'s row {row:?}");
        }
        assert!(
            rows_naming > 0,
            "some Vicinity row still names the departed id"
        );
    }

    #[test]
    fn departed_ids_keep_their_keys_in_the_shared_kernel() {
        departed_ids_keep_their_keys_after_slot_reuse(DenseSimNetwork::new(config(12), 5));
    }

    #[test]
    fn departed_ids_keep_their_keys_in_the_frontier_kernel() {
        let net = DenseSimNetwork::new_per_node(config(12), 5, 1, 2);
        departed_ids_keep_their_keys_after_slot_reuse(net);
    }

    #[test]
    fn ids_never_assigned_are_not_live() {
        let mut dense = DenseSimNetwork::new(config(10), 5);
        for raw in [10, 11, 1 << 40, u64::MAX - 1, u64::MAX] {
            let id = NodeId::new(raw);
            assert!(!dense.is_live(id), "{raw}");
            assert_eq!(dense.ring_position(id), None);
            assert!(!dense.kill_node(id), "{raw}");
        }
        assert_eq!(dense.len(), 10);
    }

    #[test]
    #[should_panic(
        expected = "node id space exhausted: every id up to 4294967294 has been assigned"
    )]
    fn spawning_past_the_last_u32_id_panics() {
        let mut dense = DenseSimNetwork::new(config(10), 5);
        dense.set_next_id(u32::MAX);
        dense.spawn_node(Some(NodeId::new(0)));
    }

    #[test]
    fn a_second_kill_of_the_same_id_returns_false() {
        let mut dense = DenseSimNetwork::new(config(10), 5);
        assert!(dense.kill_node(NodeId::new(4)));
        assert!(!dense.kill_node(NodeId::new(4)));
        assert_eq!(dense.len(), 9);
        assert_eq!(dense.slot_capacity(), 10);
    }
}
