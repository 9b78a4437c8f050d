//! Per-node counter-based RNG streams, the sparse active-set frontier and
//! the phased intra-cycle parallel kernel (`--rng per-node`).
//!
//! # The two RNG modes
//!
//! In the default **shared** mode every draw of a cycle comes from one
//! ChaCha8 stream in stepping order, which makes the arena runtime
//! bit-identical to the BTree oracle — and also makes every node's
//! randomness depend on every other node's stepping order, so a cycle can
//! neither skip quiescent nodes nor run on more than one thread.
//!
//! **Per-node** mode ([`crate::DenseSimNetwork::new_per_node`]) breaks that
//! dependency: each draw comes from a dedicated counter-based stream whose
//! seed is derived purely from
//!
//! ```text
//! role_seed = stream_seed(stream_seed(master, sgid, cycle), role, cycle)
//! ```
//!
//! where `sgid = generation << 32 | slot` identifies one *occupancy* of an
//! arena slot (churn reuses slots; the generation counter keeps a reused
//! slot's streams disjoint from its previous tenant's) and `role` separates
//! the independent decision points of one node-cycle (Cyclon request,
//! Cyclon reply, one Vicinity instance per ring, spawn scheduling). A
//! shuffle **reply** additionally mixes the initiator's `sgid`
//! (`pair_seed`), so a node answering several requests in one cycle gives
//! each initiator an independent draw sequence regardless of processing
//! order.
//!
//! Because no draw depends on stepping order, per-node mode can:
//!
//! * step only the **frontier** — the nodes whose gossip timer is due this
//!   cycle. Timers live in a bucket ring ([`PerNodeState`]) indexed by
//!   `due % period`; draining a cycle's bucket is `O(frontier)`, not
//!   `O(population)`, and a warm cycle allocates nothing.
//! * fan one cycle out across `threads` workers. Each phase splits the
//!   descriptor arena into contiguous per-worker chunks
//!   (`CyChunk` / `ViChunk` in the arena module); requests are
//!   routed to the worker owning the *target's* chunk and processed in
//!   canonical `(target, initiator)` order, so results are **bit-identical
//!   at any thread count**.
//!
//! Draw sequences legitimately differ from the shared-stream oracle (the
//! exchange semantics are the same — one Cyclon shuffle plus one Vicinity
//! exchange per ring per stepped node — but simultaneous rounds replace
//! sequential stepping), so per-node mode pins its own golden fixtures and
//! statistical-equivalence tests instead of snapshot equality; see
//! `tests/frontier.rs` and DETERMINISM.md.

// D3: index casts go through `hybridcast_graph::cast`; tests are exempt.
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hybridcast_graph::cast::{idx, idx_u64, to_u32};
use hybridcast_obs::{Probe, TraceEvent};

use crate::arena::{heap_bytes, CyChunk, CyDesc, CyView, RingKeys, RingSelection, ViChunk, ViDesc};
use crate::dense::{lookup_live_in, DenseSimNetwork, SlotBits};

// ---- stream derivation ---------------------------------------------------

/// Mixes `(master, stream, cycle)` into one well-distributed 64-bit seed —
/// the counter-based derivation behind `--rng per-node`, kept next to the
/// experiment layer's `run_seed` convention (the same SplitMix64-style
/// finalizer, one extra input).
///
/// The function is pure: a node's draws at a given cycle depend only on the
/// master seed, its stream id and the cycle number, never on how many draws
/// any other node made. Distinct `(stream, cycle)` pairs yield independent
/// ChaCha8 streams for all practical purposes.
pub fn stream_seed(master: u64, stream: u64, cycle: u64) -> u64 {
    let mut z = master
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ cycle.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    z = z.wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream id of one slot occupancy: `generation << 32 | slot`.
fn sgid(generation: u32, slot: u32) -> u64 {
    (u64::from(generation) << 32) | u64::from(slot)
}

/// The largest gossip period per-node mode accepts. [`PerNodeState`] keeps
/// one timer bucket per period unit, so the bound caps that ring at
/// 65,536 empty buckets (1.5 MB) instead of letting a period sized by a typo
/// ask the allocator for gigabytes.
pub const MAX_GOSSIP_PERIOD: u64 = 65_536;

/// Per-cycle spawn-stagger draws.
const ROLE_SCHEDULE: u64 = 0;
/// The Cyclon initiator's request-payload shuffle.
const ROLE_CYCLON_INIT: u64 = 1;
/// The Cyclon responder's reply-payload shuffle (see [`pair_seed`]).
const ROLE_CYCLON_REPLY: u64 = 2;
/// One Vicinity instance per ring: `ROLE_VICINITY_BASE + ring`.
const ROLE_VICINITY_BASE: u64 = 16;

/// The seed of one node's stream for one `role` at one cycle.
fn role_seed(master: u64, sgid: u64, role: u64, cycle: u64) -> u64 {
    stream_seed(stream_seed(master, sgid, cycle), role, cycle)
}

/// The seed of the *pair* stream a responder uses to build its reply for
/// one specific initiator: the responder's reply stream, further keyed by
/// the initiator's stream id so concurrent requests to the same responder
/// draw independently in canonical order.
fn pair_seed(master: u64, responder_sgid: u64, initiator_sgid: u64, cycle: u64) -> u64 {
    stream_seed(
        role_seed(master, responder_sgid, ROLE_CYCLON_REPLY, cycle),
        initiator_sgid,
        cycle,
    )
}

// ---- RNG mode ------------------------------------------------------------

/// Which RNG discipline a runtime steps its cycles with. See the module
/// documentation for the contract of each mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RngMode {
    /// One shared ChaCha8 stream in stepping order — the default, and
    /// bit-identical to the id-keyed BTree oracle.
    #[default]
    Shared,
    /// A dedicated counter-based stream per `(node occupancy, role, cycle)`
    /// plus sparse frontier stepping and optional intra-cycle threading.
    PerNode,
}

impl RngMode {
    /// The CLI spelling (`shared` / `per-node`).
    pub fn as_str(self) -> &'static str {
        match self {
            RngMode::Shared => "shared",
            RngMode::PerNode => "per-node",
        }
    }
}

impl std::fmt::Display for RngMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for RngMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "shared" => Ok(RngMode::Shared),
            "per-node" | "per_node" => Ok(RngMode::PerNode),
            other => Err(format!(
                "unknown rng mode {other:?} (expected \"shared\" or \"per-node\")"
            )),
        }
    }
}

// ---- lanes and worker scratch --------------------------------------------

/// One queued exchange message — a request, or the reply to it — between
/// the `initiator` and `target` slots: payload descriptors `d0..d1` of the
/// lane it sits in.
#[derive(Debug, Clone, Copy)]
struct Rec {
    initiator: u32,
    target: u32,
    d0: u32,
    d1: u32,
}

impl Rec {
    /// The record's descriptor range in its lane's payload buffer.
    fn range(&self) -> std::ops::Range<usize> {
        idx(self.d0)..idx(self.d1)
    }
}

/// One worker's message storage: the worker that writes a lane in one phase
/// is its only writer, and every worker may read it in the next. Cyclon's
/// phases park their payloads in `cy`, then each ring's in `vi`.
///
/// Aligned to 128 B (two cache lines, the unit adjacent-line prefetch
/// pulls in) so that two workers pushing to neighbouring lanes never write
/// the same line.
#[derive(Debug, Clone, Default)]
#[repr(align(128))]
struct Lane {
    recs: Vec<Rec>,
    cy: Vec<CyDesc>,
    vi: Vec<ViDesc>,
}

impl Lane {
    fn clear(&mut self) {
        self.recs.clear();
        self.cy.clear();
        self.vi.clear();
    }

    /// Heap bytes of the lane's buffers.
    fn resident_bytes(&self) -> usize {
        heap_bytes(&self.recs) + heap_bytes(&self.cy) + heap_bytes(&self.vi)
    }

    /// Queues one Vicinity message carrying a copy of `descs`.
    fn push_vi(&mut self, initiator: u32, target: u32, descs: &[ViDesc]) {
        let d0 = to_u32(self.vi.len());
        self.vi.extend_from_slice(descs);
        self.recs.push(Rec {
            initiator,
            target,
            d0,
            d1: to_u32(self.vi.len()),
        });
    }
}

/// Per-worker reusable buffers (candidate lists, payload staging, the
/// selection buffer, the Cyclon shuffle permutation and evictable stack).
/// One instance per worker keeps the warm kernel allocation-free and the
/// workers borrow-disjoint; aligned like [`Lane`] so that neighbouring
/// workers share no cache line.
#[derive(Debug, Clone, Default)]
#[repr(align(128))]
struct WorkerScratch {
    perm: Vec<u32>,
    replaceable: Vec<u32>,
    cand: Vec<ViDesc>,
    cand_peer: Vec<ViDesc>,
    pay: Vec<ViDesc>,
    reply_v: Vec<ViDesc>,
    sel: RingSelection,
}

impl WorkerScratch {
    fn resident_bytes(&self) -> usize {
        heap_bytes(&self.perm)
            + heap_bytes(&self.replaceable)
            + heap_bytes(&self.cand)
            + heap_bytes(&self.cand_peer)
            + heap_bytes(&self.pay)
            + heap_bytes(&self.reply_v)
            + self.sel.resident_bytes()
    }
}

/// One record of a set of lanes, filed under the slot it is looked up by:
/// `(slot, lane, pos)`.
type IndexEntry = (u32, u32, u32);

/// Rebuilds `index` over `lanes`, keyed by `key(rec)`.
///
/// Within a lane, `pos` follows the ascending-slot frontier order and lanes
/// cover ascending contiguous slot ranges, so sorting requests by
/// `(target, lane, pos)` is sorting them by `(target, initiator)` — the
/// same canonical sequence at every thread count.
fn build_index(index: &mut Vec<IndexEntry>, lanes: &[Lane], key: impl Fn(&Rec) -> u32) {
    index.clear();
    for (l, lane) in lanes.iter().enumerate() {
        for (p, rec) in lane.recs.iter().enumerate() {
            index.push((key(rec), to_u32(l), to_u32(p)));
        }
    }
    index.sort_unstable();
}

/// The reply queued for `initiator`, found through the sorted reply index:
/// the lane holding it and its record.
fn reply_for<'a>(rep: &'a [Lane], index: &[IndexEntry], initiator: u32) -> (&'a Lane, Rec) {
    let i = index
        .binary_search_by_key(&initiator, |e| e.0)
        .expect("a queued request always has a reply");
    let lane = &rep[idx(index[i].1)];
    (lane, lane.recs[idx(index[i].2)])
}

/// The part of `sorted` (ascending by `slot_of`) that falls into one
/// worker's slot range.
fn in_slots<T>(sorted: &[T], slots: std::ops::Range<usize>, slot_of: impl Fn(&T) -> u32) -> &[T] {
    let a = sorted.partition_point(|e| idx(slot_of(e)) < slots.start);
    let b = sorted.partition_point(|e| idx(slot_of(e)) < slots.end);
    &sorted[a..b]
}

/// Runs `work(chunk, out)` for every arena chunk and the per-worker output
/// that goes with it: inline when the arena is one chunk (which is what
/// keeps the warm single-thread cycle allocation-free), otherwise on one
/// scoped thread per chunk.
fn fan_out<C: Send, O: Send>(
    chunks: impl ExactSizeIterator<Item = C>,
    outs: impl ExactSizeIterator<Item = O>,
    work: impl Fn(C, O) + Sync,
) {
    let jobs = chunks.zip(outs);
    if jobs.len() == 1 {
        jobs.for_each(|(chunk, out)| work(chunk, out));
    } else {
        std::thread::scope(|scope| {
            for (chunk, out) in jobs {
                let work = &work;
                scope.spawn(move || work(chunk, out));
            }
        });
    }
}

// ---- per-node state ------------------------------------------------------

/// All state specific to per-node RNG mode: stream bookkeeping (slot
/// generations), the due-cycle bucket ring of the sparse frontier
/// scheduler, and the per-worker lanes of the phased kernel.
#[derive(Debug, Clone)]
pub struct PerNodeState {
    master: u64,
    period: u64,
    threads: usize,
    full_sweep: bool,
    /// Slot -> occupancy generation (bumped every time a slot is reused).
    slot_gen: Vec<u32>,
    /// Slot -> cycle its gossip timer fires next.
    next_due: Vec<u64>,
    /// Bucket ring: `buckets[due % period]` holds the slots due then.
    buckets: Vec<Vec<u32>>,
    /// Drain scratch for the current bucket.
    pending: Vec<u32>,
    /// The slots stepped this cycle, ascending.
    frontier: Vec<u32>,
    /// Dedup bitset while building the frontier.
    in_frontier: SlotBits,
    /// Requests: phase 1 writes, phases 2 and 3 read.
    req: Vec<Lane>,
    /// Replies: phase 2 writes, phase 3 reads.
    rep: Vec<Lane>,
    scratch: Vec<WorkerScratch>,
    /// Every queued request by target slot — the canonical processing
    /// order of phase 2.
    req_index: Vec<IndexEntry>,
    /// Every queued reply by initiator slot, for the phase-3 lookup.
    rep_index: Vec<IndexEntry>,
}

impl PerNodeState {
    pub(crate) fn new(master: u64, period: u64, threads: usize) -> Self {
        let mut state = PerNodeState {
            master,
            period,
            threads: 0,
            full_sweep: false,
            slot_gen: Vec::new(),
            next_due: Vec::new(),
            buckets: Vec::new(),
            pending: Vec::new(),
            frontier: Vec::new(),
            in_frontier: SlotBits::default(),
            req: Vec::new(),
            rep: Vec::new(),
            scratch: Vec::new(),
            req_index: Vec::new(),
            rep_index: Vec::new(),
        };
        state.buckets.resize_with(idx_u64(period), Vec::new);
        state.set_threads(threads);
        state
    }

    /// Heap bytes of the per-node state, its own box included: stream and
    /// timer bookkeeping, buckets, frontier, lanes, worker scratch and
    /// indexes.
    pub(crate) fn resident_bytes(&self) -> usize {
        let buckets: usize = self.buckets.iter().map(heap_bytes).sum();
        let lanes: usize = self
            .req
            .iter()
            .chain(&self.rep)
            .map(Lane::resident_bytes)
            .sum();
        let scratch: usize = self.scratch.iter().map(WorkerScratch::resident_bytes).sum();
        std::mem::size_of::<Self>()
            + heap_bytes(&self.slot_gen)
            + heap_bytes(&self.next_due)
            + heap_bytes(&self.buckets)
            + buckets
            + heap_bytes(&self.pending)
            + heap_bytes(&self.frontier)
            + self.in_frontier.resident_bytes()
            + heap_bytes(&self.req)
            + heap_bytes(&self.rep)
            + lanes
            + heap_bytes(&self.scratch)
            + scratch
            + heap_bytes(&self.req_index)
            + heap_bytes(&self.rep_index)
    }

    /// Sets the worker count and gives every worker fresh lanes.
    fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
        self.req = vec![Lane::default(); self.threads];
        self.rep = vec![Lane::default(); self.threads];
        self.scratch = vec![WorkerScratch::default(); self.threads];
    }

    /// Registers a (re)occupied slot: bumps its generation and schedules
    /// its first gossip timer with a stream-derived stagger so a mass join
    /// does not thunder through one bucket.
    pub(crate) fn on_spawn(&mut self, slot: u32, cycle: u64) {
        let s = idx(slot);
        if s >= self.slot_gen.len() {
            debug_assert_eq!(s, self.slot_gen.len(), "slots are appended in order");
            self.slot_gen.resize(s + 1, 0);
            self.next_due.resize(s + 1, 0);
        } else {
            self.slot_gen[s] = self.slot_gen[s].wrapping_add(1);
        }
        self.in_frontier.grow_to(self.slot_gen.len());
        let stagger = if self.period == 1 {
            0
        } else {
            let stream = sgid(self.slot_gen[s], slot);
            role_seed(self.master, stream, ROLE_SCHEDULE, cycle) % self.period
        };
        let due = cycle + 1 + stagger;
        self.next_due[s] = due;
        self.buckets[idx_u64(due % self.period)].push(slot);
    }

    /// Collects this cycle's frontier: the live slots whose timer is due.
    ///
    /// Bucket mode drains `buckets[cycle % period]`, dropping stale entries
    /// (dead slots, or slots rescheduled since the entry was pushed) and
    /// deduplicating through the bitset. Full-sweep mode brute-force scans
    /// `next_due` over all slots — the `O(population)` twin the self-checks
    /// compare against. Both sort ascending, the canonical stepping order.
    fn build_frontier(&mut self, live: &SlotBits, cycle: u64) {
        self.frontier.clear();
        let bucket = idx_u64(cycle % self.period);
        std::mem::swap(&mut self.pending, &mut self.buckets[bucket]);
        if self.full_sweep {
            self.pending.clear();
            for s in 0..self.next_due.len() {
                let slot = to_u32(s);
                if live.get(slot) && self.next_due[s] == cycle {
                    self.frontier.push(slot);
                }
            }
        } else {
            for i in 0..self.pending.len() {
                let slot = self.pending[i];
                if live.get(slot)
                    && self.next_due[idx(slot)] == cycle
                    && !self.in_frontier.get(slot)
                {
                    self.in_frontier.set(slot);
                    self.frontier.push(slot);
                }
            }
            self.pending.clear();
            self.frontier.sort_unstable();
            for i in 0..self.frontier.len() {
                self.in_frontier.clear(self.frontier[i]);
            }
        }
    }

    /// Re-arms the timer of every stepped slot at `cycle + period`.
    fn reschedule(&mut self, cycle: u64) {
        let bucket = idx_u64(cycle % self.period);
        for i in 0..self.frontier.len() {
            let slot = self.frontier[i];
            self.next_due[idx(slot)] = cycle + self.period;
            self.buckets[bucket].push(slot);
        }
    }
}

// ---- shared worker context -----------------------------------------------

/// Read-only context every phase worker gets: the slot arrays the cycle
/// never mutates, plus the derivation inputs.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    ids: &'a [u32],
    /// The network's id-indexed ring-key table (stride `rings`).
    keys: &'a [u64],
    slot_of: &'a [u32],
    slot_gen: &'a [u32],
    master: u64,
    cycle: u64,
    rings: usize,
    shuf: usize,
}

impl Ctx<'_> {
    fn sgid_of(&self, slot: u32) -> u64 {
        sgid(self.slot_gen[idx(slot)], slot)
    }

    fn id(&self, slot: u32) -> u32 {
        self.ids[idx(slot)]
    }

    /// The slot's own stream for one `role` of this cycle.
    fn stream(&self, slot: u32, role: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(role_seed(self.master, self.sgid_of(slot), role, self.cycle))
    }

    /// The live slot of node `id`, if it has one.
    fn lookup(&self, id: u32) -> Option<u32> {
        lookup_live_in(self.slot_of, id)
    }
}

/// What the Vicinity workers of one ring read besides [`Ctx`]: the (now
/// stable) Cyclon views their ring candidates come from and the ring's
/// column of the key table.
#[derive(Clone, Copy)]
struct RingCtx<'a> {
    ctx: Ctx<'a>,
    cyv: CyView<'a>,
    keys: RingKeys<'a>,
}

// ---- the phased kernel ---------------------------------------------------

impl DenseSimNetwork {
    /// One epoch step in per-node mode: build the frontier, run the three
    /// Cyclon phases and (per ring) the three Vicinity phases — each a
    /// [`fan_out`] over disjoint arena chunks, with the sorted request and
    /// reply indexes built in between — emit probe events in frontier
    /// order, re-arm the stepped timers.
    pub(crate) fn run_single_cycle_per_node<P: Probe>(&mut self, probe: &mut P) {
        self.cycle += 1;
        let pn = self
            .per_node
            .as_deref_mut()
            .expect("per-node state present");
        pn.build_frontier(&self.live, self.cycle);
        if !pn.frontier.is_empty() {
            let PerNodeState {
                req,
                rep,
                scratch,
                req_index,
                rep_index,
                ..
            } = pn;
            let frontier: &[u32] = &pn.frontier;
            let ctx = Ctx {
                ids: &self.ids,
                keys: &self.keys,
                slot_of: &self.slot_of,
                slot_gen: &pn.slot_gen,
                master: pn.master,
                cycle: self.cycle,
                rings: self.rings,
                shuf: self.shuf,
            };
            let slots = self.ids.len();
            let per_worker = slots.div_ceil(pn.threads.min(slots));
            let (cy, vi) = (&mut self.cy, &mut self.vi);

            req.iter_mut().chain(rep.iter_mut()).for_each(Lane::clear);
            fan_out(
                cy.chunks(per_worker),
                req.iter_mut().zip(scratch.iter_mut()),
                |cy, (lane, scr)| cy_initiate(cy, frontier, lane, scr, ctx),
            );
            build_index(req_index, req, |rec| rec.target);
            fan_out(
                cy.chunks(per_worker),
                rep.iter_mut().zip(scratch.iter_mut()),
                |cy, (lane, scr)| cy_respond(cy, req_index, req, lane, scr, ctx),
            );
            build_index(rep_index, rep, |rec| rec.initiator);
            fan_out(
                cy.chunks(per_worker),
                req.iter().zip(scratch.iter_mut()),
                |cy, (lane, scr)| cy_merge(cy, lane, (rep, rep_index), scr, ctx),
            );

            for ring in 0..vi.rings() {
                let rc = RingCtx {
                    ctx,
                    cyv: cy.view(),
                    keys: RingKeys::new(ctx.keys, ctx.rings, ring),
                };
                req.iter_mut().chain(rep.iter_mut()).for_each(Lane::clear);
                fan_out(
                    vi.chunks(per_worker),
                    req.iter_mut().zip(scratch.iter_mut()),
                    |vi, (lane, scr)| vi_initiate(vi, frontier, lane, scr, rc),
                );
                build_index(req_index, req, |rec| rec.target);
                fan_out(
                    vi.chunks(per_worker),
                    rep.iter_mut().zip(scratch.iter_mut()),
                    |vi, (lane, scr)| vi_respond(vi, req_index, req, lane, scr, rc),
                );
                build_index(rep_index, rep, |rec| rec.initiator);
                fan_out(
                    vi.chunks(per_worker),
                    req.iter().zip(scratch.iter_mut()),
                    |vi, (lane, scr)| vi_merge(vi, lane, (rep, rep_index), scr, rc),
                );
            }
        }
        for &slot in &pn.frontier {
            probe.record(TraceEvent::ViewExchange {
                node: u64::from(self.ids[idx(slot)]),
                cycle: self.cycle,
            });
        }
        pn.reschedule(self.cycle);
        probe.record(TraceEvent::CycleEnd {
            cycle: self.cycle,
            live: self.by_id.len() as u64,
        });
    }

    /// The gossip period of per-node mode (`None` in shared mode): each
    /// node initiates once every `period` cycles.
    pub fn gossip_period(&self) -> Option<u64> {
        self.per_node.as_deref().map(|pn| pn.period)
    }

    /// The worker count of per-node mode (`None` in shared mode).
    pub fn threads(&self) -> Option<usize> {
        self.per_node.as_deref().map(|pn| pn.threads)
    }

    /// Sets the intra-cycle worker count of per-node mode (no-op in shared
    /// mode). Results are bit-identical at any thread count; this only
    /// trades wall-clock time.
    pub fn set_threads(&mut self, threads: usize) {
        if let Some(pn) = self.per_node.as_deref_mut() {
            pn.set_threads(threads);
        }
    }

    /// Switches per-node mode between the bucket-ring frontier scheduler
    /// and its brute-force full-sweep twin (a scan of every slot's timer).
    /// Both must step exactly the same nodes — the `sched`-style self-check
    /// in the frontier tests and benches pins that. No-op in shared mode.
    pub fn set_frontier_full_sweep(&mut self, full_sweep: bool) {
        if let Some(pn) = self.per_node.as_deref_mut() {
            pn.full_sweep = full_sweep;
        }
    }

    /// Number of nodes stepped by the most recent per-node cycle (`None`
    /// in shared mode).
    pub fn last_frontier_len(&self) -> Option<usize> {
        self.per_node.as_deref().map(|pn| pn.frontier.len())
    }
}

/// Cyclon phase 1 — initiators: the initiator half of the shuffle
/// ([`CyChunk::begin_shuffle`]) on the node's own stream, the request
/// queued toward its (live) target.
fn cy_initiate(
    mut cy: CyChunk<'_>,
    frontier: &[u32],
    lane: &mut Lane,
    scr: &mut WorkerScratch,
    ctx: Ctx<'_>,
) {
    for &slot in in_slots(frontier, cy.slots(), |&slot| slot) {
        let d0 = lane.cy.len();
        let mut rng = ctx.stream(slot, ROLE_CYCLON_INIT);
        let Some(target) = cy.begin_shuffle(
            slot,
            ctx.id(slot),
            ctx.shuf,
            &mut rng,
            &mut scr.perm,
            &mut lane.cy,
        ) else {
            continue; // An isolated node cannot shuffle.
        };
        match ctx.lookup(target) {
            Some(peer) => lane.recs.push(Rec {
                initiator: slot,
                target: peer,
                d0: to_u32(d0),
                d1: to_u32(lane.cy.len()),
            }),
            // A failed shuffle: the dead target's descriptor already left
            // the view; the unsent payload is dropped.
            None => lane.cy.truncate(d0),
        }
    }
}

/// Cyclon phase 2 — responders: in canonical `(target, initiator)` order,
/// build each reply from the pair stream (captured before merging that
/// request), then merge the request into the target's view.
fn cy_respond(
    mut cy: CyChunk<'_>,
    index: &[IndexEntry],
    req: &[Lane],
    lane: &mut Lane,
    scr: &mut WorkerScratch,
    ctx: Ctx<'_>,
) {
    for &(target, l, p) in in_slots(index, cy.slots(), |e| e.0) {
        let rl = &req[idx(l)];
        let rec = rl.recs[idx(p)];

        // handle_shuffle_request: the reply is `shuf` random entries of the
        // responder's current view (never the initiator), captured before
        // the merge below.
        let r0 = lane.cy.len();
        let seed = pair_seed(
            ctx.master,
            ctx.sgid_of(target),
            ctx.sgid_of(rec.initiator),
            ctx.cycle,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        cy.random_payload_into(
            target,
            Some(ctx.id(rec.initiator)),
            ctx.shuf,
            &mut rng,
            &mut scr.perm,
            &mut lane.cy,
        );
        lane.recs.push(Rec {
            d0: to_u32(r0),
            d1: to_u32(lane.cy.len()),
            ..rec
        });

        // The responder merges the request; what it just shipped is its
        // evictable set.
        cy.merge(
            target,
            ctx.id(target),
            &rl.cy[rec.range()],
            &lane.cy[r0..],
            &mut scr.replaceable,
        );
    }
}

/// Cyclon phase 3 — initiators: merge the replies, evicting only what each
/// initiator shipped out (never its own fresh descriptor). `lane` holds the
/// requests this chunk's initiators queued in phase 1.
fn cy_merge(
    mut cy: CyChunk<'_>,
    lane: &Lane,
    (rep, rep_index): (&[Lane], &[IndexEntry]),
    scr: &mut WorkerScratch,
    ctx: Ctx<'_>,
) {
    for rec in &lane.recs {
        let (rlane, reply) = reply_for(rep, rep_index, rec.initiator);
        // handle_shuffle_response.
        cy.merge(
            rec.initiator,
            ctx.id(rec.initiator),
            &rlane.cy[reply.range()],
            &lane.cy[rec.range()],
            &mut scr.replaceable,
        );
    }
}

/// Vicinity phase 1 (one ring) — initiators: project ring candidates out
/// of the Cyclon views, choose the exchange partner
/// ([`ViChunk::pick_partner`], drawing from the node's own stream only
/// while the view is empty), build the request payload, queue it or drop a
/// dead partner.
fn vi_initiate(
    mut vi: ViChunk<'_>,
    frontier: &[u32],
    lane: &mut Lane,
    scr: &mut WorkerScratch,
    rc: RingCtx<'_>,
) {
    let RingCtx { ctx, cyv, keys } = rc;
    let ring = keys.ring();
    let role = ROLE_VICINITY_BASE + u64::try_from(ring).expect("ring index fits in u64");
    for &slot in in_slots(frontier, vi.slots(), |&slot| slot) {
        // The random layer feeds candidates into the proximity layer (from
        // the initiator's *current* Cyclon view, after its shuffle).
        cyv.ring_candidates_into(slot, keys, &mut scr.cand);
        let pick = |n| ctx.stream(slot, role).gen_range(0..n);
        let Some(target) = vi.pick_partner(slot, ring, &scr.cand, pick) else {
            continue; // No partner known at all.
        };
        vi.payload_into(slot, keys, target, ctx.id(slot), &mut scr.pay);
        match ctx.lookup(target) {
            Some(peer) => lane.push_vi(slot, peer, &scr.pay),
            // exchange_failed: drop the dead peer so the ring can re-close
            // around it.
            None => vi.remove_id(slot, ring, target),
        }
    }
}

/// Vicinity phase 2 (one ring) — responders: in canonical
/// `(target, initiator)` order, capture the reply toward each initiator's
/// neighbourhood, then merge the request (own view + received + ring
/// candidates, keep the closest).
fn vi_respond(
    mut vi: ViChunk<'_>,
    index: &[IndexEntry],
    req: &[Lane],
    lane: &mut Lane,
    scr: &mut WorkerScratch,
    rc: RingCtx<'_>,
) {
    for &(target, l, p) in in_slots(index, vi.slots(), |e| e.0) {
        let rl = &req[idx(l)];
        let rec = rl.recs[idx(p)];
        let own_id = rc.ctx.id(target);
        rc.cyv
            .ring_candidates_into(target, rc.keys, &mut scr.cand_peer);
        // handle_exchange_request: the reply targets the initiator's
        // neighbourhood and is captured before the merge below.
        vi.payload_into(
            target,
            rc.keys,
            rc.ctx.id(rec.initiator),
            own_id,
            &mut scr.reply_v,
        );
        lane.push_vi(rec.initiator, target, &scr.reply_v);
        vi.merge(
            target,
            rc.keys,
            own_id,
            &rl.vi[rec.range()],
            &scr.cand_peer,
            &mut scr.sel,
        );
    }
}

/// Vicinity phase 3 (one ring) — initiators: merge the captured replies
/// with their own ring candidates. `lane` holds the requests this chunk's
/// initiators queued in phase 1.
fn vi_merge(
    mut vi: ViChunk<'_>,
    lane: &Lane,
    (rep, rep_index): (&[Lane], &[IndexEntry]),
    scr: &mut WorkerScratch,
    rc: RingCtx<'_>,
) {
    for rec in &lane.recs {
        let (rlane, reply) = reply_for(rep, rep_index, rec.initiator);
        rc.cyv
            .ring_candidates_into(rec.initiator, rc.keys, &mut scr.cand);
        // handle_exchange_response on the initiator.
        vi.merge(
            rec.initiator,
            rc.keys,
            rc.ctx.id(rec.initiator),
            &rlane.vi[reply.range()],
            &scr.cand,
            &mut scr.sel,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn config(nodes: usize) -> SimConfig {
        SimConfig {
            nodes,
            warmup_cycles: 0,
            ..SimConfig::default()
        }
    }

    #[test]
    fn stream_seed_is_pure_and_input_sensitive() {
        assert_eq!(stream_seed(1, 2, 3), stream_seed(1, 2, 3));
        let base = stream_seed(7, 11, 13);
        assert_ne!(base, stream_seed(8, 11, 13), "master matters");
        assert_ne!(base, stream_seed(7, 12, 13), "stream matters");
        assert_ne!(base, stream_seed(7, 11, 14), "cycle matters");
    }

    #[test]
    fn pair_seed_separates_initiators_and_responders() {
        let a = pair_seed(1, sgid(0, 5), sgid(0, 9), 4);
        let b = pair_seed(1, sgid(0, 5), sgid(0, 10), 4);
        let c = pair_seed(1, sgid(0, 6), sgid(0, 9), 4);
        assert_ne!(a, b, "initiator matters");
        assert_ne!(a, c, "responder matters");
        assert_ne!(
            sgid(1, 5),
            sgid(0, 5),
            "slot reuse changes the stream identity"
        );
    }

    #[test]
    fn rng_mode_parses_and_displays() {
        assert_eq!("shared".parse::<RngMode>().unwrap(), RngMode::Shared);
        assert_eq!("per-node".parse::<RngMode>().unwrap(), RngMode::PerNode);
        assert_eq!("per_node".parse::<RngMode>().unwrap(), RngMode::PerNode);
        assert!("fancy".parse::<RngMode>().is_err());
        assert_eq!(RngMode::Shared.to_string(), "shared");
        assert_eq!(RngMode::PerNode.to_string(), "per-node");
        assert_eq!(RngMode::default(), RngMode::Shared);
    }

    #[test]
    #[should_panic(expected = "gossip period 65537 exceeds 65536")]
    fn a_gossip_period_past_the_bound_panics_before_allocating() {
        DenseSimNetwork::new_per_node(config(10), 1, MAX_GOSSIP_PERIOD + 1, 1);
    }

    #[test]
    fn the_largest_gossip_period_boots_and_steps() {
        let mut net = DenseSimNetwork::new_per_node(config(10), 1, MAX_GOSSIP_PERIOD, 1);
        net.run_cycles(2);
        assert_eq!(net.gossip_period(), Some(MAX_GOSSIP_PERIOD));
    }

    #[test]
    fn per_node_mode_reports_itself_and_fills_views() {
        let mut net = DenseSimNetwork::new_per_node(config(60), 3, 1, 1);
        assert_eq!(net.rng_mode(), RngMode::PerNode);
        assert_eq!(net.gossip_period(), Some(1));
        assert_eq!(net.threads(), Some(1));
        net.run_cycles(40);
        assert_eq!(net.len(), 60);
        assert_eq!(net.last_frontier_len(), Some(60), "period 1 steps everyone");
        let snapshot = net.overlay_snapshot();
        for id in net.live_ids() {
            assert!(
                !snapshot.r_links(id).is_empty(),
                "{id} has an empty Cyclon view after warm-up"
            );
            assert!(
                !snapshot.d_links(id).is_empty(),
                "{id} has no ring neighbours after warm-up"
            );
        }
    }

    #[test]
    fn shared_mode_reports_shared() {
        let net = DenseSimNetwork::new(config(10), 1);
        assert_eq!(net.rng_mode(), RngMode::Shared);
        assert_eq!(net.gossip_period(), None);
        assert_eq!(net.threads(), None);
        assert_eq!(net.last_frontier_len(), None);
    }

    #[test]
    fn results_are_bit_identical_at_any_thread_count() {
        let reference = {
            let mut net = DenseSimNetwork::new_per_node(config(80), 11, 2, 1);
            net.run_cycles(30);
            net.flat_links()
        };
        for threads in [2, 3, 4, 8] {
            let mut net = DenseSimNetwork::new_per_node(config(80), 11, 2, threads);
            net.run_cycles(30);
            assert_eq!(reference, net.flat_links(), "{threads} threads");
        }
    }

    #[test]
    fn set_threads_mid_run_keeps_results_identical() {
        let mut a = DenseSimNetwork::new_per_node(config(50), 5, 3, 1);
        let mut b = DenseSimNetwork::new_per_node(config(50), 5, 3, 4);
        a.run_cycles(12);
        b.run_cycles(12);
        b.set_threads(2);
        a.run_cycles(12);
        b.run_cycles(12);
        assert_eq!(a.flat_links(), b.flat_links());
    }

    #[test]
    fn frontier_matches_the_full_sweep_twin() {
        let mut bucketed = DenseSimNetwork::new_per_node(config(70), 9, 4, 2);
        let mut swept = DenseSimNetwork::new_per_node(config(70), 9, 4, 2);
        swept.set_frontier_full_sweep(true);
        for _ in 0..5 {
            bucketed.run_cycles(7);
            swept.run_cycles(7);
            assert_eq!(bucketed.last_frontier_len(), swept.last_frontier_len());
            assert_eq!(bucketed.flat_links(), swept.flat_links());
        }
    }

    #[test]
    fn staggered_period_steps_a_fraction_per_cycle() {
        let nodes = 400;
        let period = 4;
        let mut net = DenseSimNetwork::new_per_node(config(nodes), 21, period, 1);
        net.run_cycles(usize::try_from(period).expect("small period"));
        let mut total = 0;
        for _ in 0..period {
            net.run_cycles(1);
            let frontier = net.last_frontier_len().expect("per-node mode");
            assert!(
                frontier < nodes,
                "a period-{period} cycle must not step everyone ({frontier}/{nodes})"
            );
            total += frontier;
        }
        assert_eq!(total, nodes, "one full period steps each node exactly once");
    }

    #[test]
    fn churn_respawns_get_fresh_streams_and_schedules() {
        let mut net = DenseSimNetwork::new_per_node(config(50), 13, 2, 2);
        net.run_cycles(10);
        let victims: Vec<_> = net.live_ids().into_iter().take(10).collect();
        for v in victims {
            assert!(net.kill_node(v));
        }
        for _ in 0..10 {
            let introducer = net.random_live_node();
            net.spawn_node(introducer);
        }
        assert_eq!(net.len(), 50);
        assert_eq!(net.slot_capacity(), 50, "slots are reused");
        net.run_cycles(30);
        let snapshot = net.overlay_snapshot();
        for id in net.live_ids() {
            assert!(!snapshot.r_links(id).is_empty(), "{id} recovered a view");
        }
    }
}
