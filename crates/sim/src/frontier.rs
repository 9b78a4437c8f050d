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

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hybridcast_graph::cast::{idx, idx_u64, to_u32};
use hybridcast_obs::{Probe, TraceEvent};

use crate::arena::{CyChunk, CyPayload, CyView, RingSelection, ViChunk, ViDesc};
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
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize, Hash,
)]
#[serde(rename_all = "kebab-case")]
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

/// One queued Cyclon shuffle request: descriptor range `d0..d1` in the
/// owning lane's buffers.
#[derive(Debug, Clone, Copy)]
struct CyReq {
    initiator: u32,
    target: u32,
    d0: u32,
    d1: u32,
}

/// One queued reply (Cyclon or Vicinity), keyed by the initiator awaiting
/// it.
#[derive(Debug, Clone, Copy)]
struct Rep {
    initiator: u32,
    d0: u32,
    d1: u32,
}

/// One queued Vicinity exchange request.
#[derive(Debug, Clone, Copy)]
struct ViReq {
    initiator: u32,
    target: u32,
    d0: u32,
    d1: u32,
}

/// Per-worker Cyclon request storage: phase 1 writes, phases 2 and 3 read.
#[derive(Debug, Clone, Default)]
struct CyReqLane {
    recs: Vec<CyReq>,
    pay: CyPayload,
}

/// Per-worker Cyclon reply storage: phase 2 writes, phase 3 reads.
#[derive(Debug, Clone, Default)]
struct CyRepLane {
    recs: Vec<Rep>,
    pay: CyPayload,
}

/// Per-worker Vicinity request storage (one ring at a time).
#[derive(Debug, Clone, Default)]
struct ViReqLane {
    recs: Vec<ViReq>,
    descs: Vec<ViDesc>,
}

/// Per-worker Vicinity reply storage.
#[derive(Debug, Clone, Default)]
struct ViRepLane {
    recs: Vec<Rep>,
    descs: Vec<ViDesc>,
}

/// Per-worker reusable buffers (candidate lists, payload staging, the
/// selection buffer, the Cyclon shuffle permutation and evictable stack).
/// One instance per worker keeps the warm kernel allocation-free and the
/// workers borrow-disjoint.
#[derive(Debug, Clone, Default)]
struct WorkerScratch {
    perm: Vec<u32>,
    replaceable: Vec<u64>,
    cand: Vec<ViDesc>,
    cand_peer: Vec<ViDesc>,
    pay: Vec<ViDesc>,
    reply_v: Vec<ViDesc>,
    sel: RingSelection,
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
    cy_req: Vec<CyReqLane>,
    cy_rep: Vec<CyRepLane>,
    vi_req: Vec<ViReqLane>,
    vi_rep: Vec<ViRepLane>,
    scratch: Vec<WorkerScratch>,
    /// `(target slot, lane, pos)` of every queued request, sorted — the
    /// canonical processing order of phase 2.
    req_index: Vec<(u32, u32, u32)>,
    /// `(initiator slot, lane, pos)` of every queued reply, sorted for the
    /// phase-3 binary search.
    rep_index: Vec<(u32, u32, u32)>,
}

impl PerNodeState {
    pub(crate) fn new(master: u64, period: u64, threads: usize) -> Self {
        let threads = threads.max(1);
        let mut state = PerNodeState {
            master,
            period: period.max(1),
            threads,
            full_sweep: false,
            slot_gen: Vec::new(),
            next_due: Vec::new(),
            buckets: Vec::new(),
            pending: Vec::new(),
            frontier: Vec::new(),
            in_frontier: SlotBits::default(),
            cy_req: Vec::new(),
            cy_rep: Vec::new(),
            vi_req: Vec::new(),
            vi_rep: Vec::new(),
            scratch: Vec::new(),
            req_index: Vec::new(),
            rep_index: Vec::new(),
        };
        state.buckets.resize_with(idx_u64(state.period), Vec::new);
        state.resize_lanes();
        state
    }

    fn resize_lanes(&mut self) {
        let threads = self.threads;
        self.cy_req.clear();
        self.cy_req.resize_with(threads, CyReqLane::default);
        self.cy_rep.clear();
        self.cy_rep.resize_with(threads, CyRepLane::default);
        self.vi_req.clear();
        self.vi_req.resize_with(threads, ViReqLane::default);
        self.vi_rep.clear();
        self.vi_rep.resize_with(threads, ViRepLane::default);
        self.scratch.clear();
        self.scratch.resize_with(threads, WorkerScratch::default);
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

    fn clear_cy_lanes(&mut self) {
        for lane in &mut self.cy_req {
            lane.recs.clear();
            lane.pay.clear();
        }
        for lane in &mut self.cy_rep {
            lane.recs.clear();
            lane.pay.clear();
        }
    }

    fn clear_vi_lanes(&mut self) {
        for lane in &mut self.vi_req {
            lane.recs.clear();
            lane.descs.clear();
        }
        for lane in &mut self.vi_rep {
            lane.recs.clear();
            lane.descs.clear();
        }
    }

    fn build_cy_req_index(&mut self) {
        self.req_index.clear();
        for (l, lane) in self.cy_req.iter().enumerate() {
            for (p, rec) in lane.recs.iter().enumerate() {
                self.req_index.push((rec.target, to_u32(l), to_u32(p)));
            }
        }
        // Within a lane, `pos` follows the ascending-slot frontier order
        // and lanes cover ascending contiguous slot ranges, so sorting by
        // `(target, lane, pos)` is sorting by `(target, initiator)` — the
        // same canonical sequence at every thread count.
        self.req_index.sort_unstable();
    }

    fn build_cy_rep_index(&mut self) {
        self.rep_index.clear();
        for (l, lane) in self.cy_rep.iter().enumerate() {
            for (p, rec) in lane.recs.iter().enumerate() {
                self.rep_index.push((rec.initiator, to_u32(l), to_u32(p)));
            }
        }
        self.rep_index.sort_unstable();
    }

    fn build_vi_req_index(&mut self) {
        self.req_index.clear();
        for (l, lane) in self.vi_req.iter().enumerate() {
            for (p, rec) in lane.recs.iter().enumerate() {
                self.req_index.push((rec.target, to_u32(l), to_u32(p)));
            }
        }
        self.req_index.sort_unstable();
    }

    fn build_vi_rep_index(&mut self) {
        self.rep_index.clear();
        for (l, lane) in self.vi_rep.iter().enumerate() {
            for (p, rec) in lane.recs.iter().enumerate() {
                self.rep_index.push((rec.initiator, to_u32(l), to_u32(p)));
            }
        }
        self.rep_index.sort_unstable();
    }
}

// ---- shared worker context -----------------------------------------------

/// Read-only context every phase worker gets: the slot arrays the cycle
/// never mutates, plus the derivation inputs.
#[derive(Clone, Copy)]
struct Ctx<'a> {
    ids: &'a [u64],
    positions: &'a [u64],
    by_id: &'a [u32],
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
}

/// The sub-slice of the ascending `sorted` slots that falls into the slot
/// range `lo..hi` (one worker's arena chunk).
fn slot_range(sorted: &[u32], lo: usize, hi: usize) -> &[u32] {
    let a = sorted.partition_point(|&s| idx(s) < lo);
    let b = sorted.partition_point(|&s| idx(s) < hi);
    &sorted[a..b]
}

/// The sub-slice of the sorted request index whose targets fall into the
/// slot range `lo..hi`.
fn target_range(index: &[(u32, u32, u32)], lo: usize, hi: usize) -> &[(u32, u32, u32)] {
    let a = index.partition_point(|&(t, _, _)| idx(t) < lo);
    let b = index.partition_point(|&(t, _, _)| idx(t) < hi);
    &index[a..b]
}

/// Splits the Cyclon arena into per-worker [`CyChunk`]s of `chunk` slots.
fn split_cy<'a>(
    id: &'a mut [u64],
    age: &'a mut [u32],
    pos: &'a mut [u64],
    len: &'a mut [u32],
    cyc: usize,
    rings: usize,
    chunk: usize,
) -> impl Iterator<Item = CyChunk<'a>> {
    id.chunks_mut(chunk * cyc)
        .zip(age.chunks_mut(chunk * cyc))
        .zip(pos.chunks_mut(chunk * cyc * rings))
        .zip(len.chunks_mut(chunk))
        .enumerate()
        .map(move |(w, (((id, age), pos), len))| CyChunk {
            id,
            age,
            pos,
            len,
            cyc,
            rings,
            base: w * chunk,
        })
}

/// Splits the Vicinity arena into per-worker [`ViChunk`]s of `chunk` slots.
#[allow(clippy::too_many_arguments)]
fn split_vi<'a>(
    id: &'a mut [u64],
    age: &'a mut [u32],
    key: &'a mut [u64],
    len: &'a mut [u32],
    vic: usize,
    vic_rings: usize,
    gos: usize,
    chunk: usize,
) -> impl Iterator<Item = ViChunk<'a>> {
    let stride = chunk * vic_rings * vic;
    id.chunks_mut(stride)
        .zip(age.chunks_mut(stride))
        .zip(key.chunks_mut(stride))
        .zip(len.chunks_mut(chunk * vic_rings))
        .enumerate()
        .map(move |(w, (((id, age), key), len))| ViChunk {
            id,
            age,
            key,
            len,
            vic,
            vic_rings,
            gos,
            base: w * chunk,
        })
}

// ---- the phased kernel ---------------------------------------------------

impl DenseSimNetwork {
    /// One epoch step in per-node mode: build the frontier, run the three
    /// Cyclon phases and (per ring) the three Vicinity phases, emit probe
    /// events in frontier order, re-arm the stepped timers.
    pub(crate) fn run_single_cycle_per_node<P: Probe>(&mut self, probe: &mut P) {
        self.cycle += 1;
        let mut pn = self.per_node.take().expect("per-node state present");
        pn.build_frontier(&self.live, self.cycle);
        if !pn.frontier.is_empty() {
            pn.clear_cy_lanes();
            cyclon_phase1(self, &mut pn);
            pn.build_cy_req_index();
            cyclon_phase2(self, &mut pn);
            pn.build_cy_rep_index();
            cyclon_phase3(self, &mut pn);
            for ring in 0..self.vic_rings {
                pn.clear_vi_lanes();
                vicinity_phase1(self, &mut pn, ring);
                pn.build_vi_req_index();
                vicinity_phase2(self, &mut pn, ring);
                pn.build_vi_rep_index();
                vicinity_phase3(self, &mut pn, ring);
            }
        }
        for i in 0..pn.frontier.len() {
            probe.record(TraceEvent::ViewExchange {
                node: self.ids[idx(pn.frontier[i])],
                cycle: self.cycle,
            });
        }
        pn.reschedule(self.cycle);
        self.per_node = Some(pn);
        probe.record(TraceEvent::CycleEnd {
            cycle: self.cycle,
            live: self.len() as u64,
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
            pn.threads = threads.max(1);
            pn.resize_lanes();
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

/// Cyclon phase 1 — initiators: age the view, select and remove the oldest
/// neighbour, build the request payload from the node's own stream, queue
/// the request toward its (live) target.
fn cyclon_phase1(net: &mut DenseSimNetwork, pn: &mut PerNodeState) {
    let slots = net.ids.len();
    let threads = pn.threads.max(1).min(slots.max(1));
    let chunk = slots.div_ceil(threads);
    let pn = &mut *pn;
    let ctx = Ctx {
        ids: &net.ids,
        positions: &net.positions,
        by_id: &net.by_id,
        slot_gen: &pn.slot_gen,
        master: pn.master,
        cycle: net.cycle,
        rings: net.rings,
        shuf: net.shuf,
    };
    let frontier: &[u32] = &pn.frontier;
    let lanes = &mut pn.cy_req;
    let scratch = &mut pn.scratch;
    let mut chunks = split_cy(
        &mut net.cy_id,
        &mut net.cy_age,
        &mut net.cy_pos,
        &mut net.cy_len,
        net.cyc,
        net.rings,
        chunk,
    );
    if threads == 1 {
        let cy = chunks.next().expect("arena is non-empty");
        cy_phase1_worker(cy, frontier, &mut lanes[0], &mut scratch[0], ctx);
    } else {
        std::thread::scope(|scope| {
            for (w, ((cy, lane), scr)) in chunks
                .zip(lanes.iter_mut())
                .zip(scratch.iter_mut())
                .enumerate()
            {
                let part = slot_range(frontier, w * chunk, (w + 1) * chunk);
                scope.spawn(move || cy_phase1_worker(cy, part, lane, scr, ctx));
            }
        });
    }
}

fn cy_phase1_worker(
    mut cy: CyChunk<'_>,
    frontier: &[u32],
    lane: &mut CyReqLane,
    scr: &mut WorkerScratch,
    ctx: Ctx<'_>,
) {
    for &slot in frontier {
        // begin_cycle: age every entry by one (saturating).
        cy.age_view(slot);
        if cy.view_len(slot) == 0 {
            continue; // An isolated node cannot shuffle.
        }
        let my_id = ctx.ids[idx(slot)];

        // initiate_shuffle: remove the oldest entry, ship `shuf - 1` random
        // remaining entries plus a fresh descriptor of the initiator.
        let best = cy.oldest(slot).expect("view is non-empty");
        let target = cy.entry(slot, best).0;
        cy.remove_at(slot, best);

        let d0 = lane.pay.descs.len();
        let seed = role_seed(ctx.master, ctx.sgid_of(slot), ROLE_CYCLON_INIT, ctx.cycle);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        cy.random_payload_into(
            slot,
            None,
            ctx.shuf.saturating_sub(1),
            &mut rng,
            &mut scr.perm,
            &mut lane.pay,
        );
        let pos_base = idx(slot) * ctx.rings;
        lane.pay
            .push(my_id, 0, &ctx.positions[pos_base..pos_base + ctx.rings]);
        match lookup_live_in(ctx.by_id, ctx.ids, target) {
            Some(peer) => lane.recs.push(CyReq {
                initiator: slot,
                target: peer,
                d0: to_u32(d0),
                d1: to_u32(lane.pay.descs.len()),
            }),
            None => {
                // shuffle_failed: the dead target's descriptor already left
                // the view; the unsent payload is dropped.
                lane.pay.descs.truncate(d0);
            }
        }
    }
}

/// Cyclon phase 2 — responders: in canonical `(target, initiator)` order,
/// build each reply from the pair stream (captured before merging that
/// request), then merge the request into the target's view.
fn cyclon_phase2(net: &mut DenseSimNetwork, pn: &mut PerNodeState) {
    let slots = net.ids.len();
    let threads = pn.threads.max(1).min(slots.max(1));
    let chunk = slots.div_ceil(threads);
    let pn = &mut *pn;
    let ctx = Ctx {
        ids: &net.ids,
        positions: &net.positions,
        by_id: &net.by_id,
        slot_gen: &pn.slot_gen,
        master: pn.master,
        cycle: net.cycle,
        rings: net.rings,
        shuf: net.shuf,
    };
    let req: &[CyReqLane] = &pn.cy_req;
    let index: &[(u32, u32, u32)] = &pn.req_index;
    let rep = &mut pn.cy_rep;
    let scratch = &mut pn.scratch;
    let mut chunks = split_cy(
        &mut net.cy_id,
        &mut net.cy_age,
        &mut net.cy_pos,
        &mut net.cy_len,
        net.cyc,
        net.rings,
        chunk,
    );
    if threads == 1 {
        let cy = chunks.next().expect("arena is non-empty");
        cy_phase2_worker(cy, index, req, &mut rep[0], &mut scratch[0], ctx);
    } else {
        std::thread::scope(|scope| {
            for (w, ((cy, lane), scr)) in chunks
                .zip(rep.iter_mut())
                .zip(scratch.iter_mut())
                .enumerate()
            {
                let part = target_range(index, w * chunk, (w + 1) * chunk);
                scope.spawn(move || cy_phase2_worker(cy, part, req, lane, scr, ctx));
            }
        });
    }
}

fn cy_phase2_worker(
    mut cy: CyChunk<'_>,
    part: &[(u32, u32, u32)],
    req: &[CyReqLane],
    lane: &mut CyRepLane,
    scr: &mut WorkerScratch,
    ctx: Ctx<'_>,
) {
    for &(target, l, p) in part {
        let rl = &req[idx(l)];
        let rec = rl.recs[idx(p)];
        let init_id = ctx.ids[idx(rec.initiator)];
        let peer_id = ctx.ids[idx(target)];

        // handle_shuffle_request: the reply is `shuf` random entries of the
        // responder's current view (never the initiator), captured before
        // the merge below.
        let r0 = lane.pay.descs.len();
        let seed = pair_seed(
            ctx.master,
            ctx.sgid_of(target),
            ctx.sgid_of(rec.initiator),
            ctx.cycle,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        cy.random_payload_into(
            target,
            Some(init_id),
            ctx.shuf,
            &mut rng,
            &mut scr.perm,
            &mut lane.pay,
        );
        lane.recs.push(Rep {
            initiator: rec.initiator,
            d0: to_u32(r0),
            d1: to_u32(lane.pay.descs.len()),
        });

        // The responder merges the request; what it just shipped is its
        // evictable set.
        cy.merge(
            target,
            peer_id,
            &rl.pay.descs[idx(rec.d0)..idx(rec.d1)],
            &rl.pay.profs,
            &lane.pay.descs[r0..],
            &mut scr.replaceable,
        );
    }
}

/// Cyclon phase 3 — initiators: merge the replies (located through the
/// sorted reply index), evicting only what each initiator shipped out.
fn cyclon_phase3(net: &mut DenseSimNetwork, pn: &mut PerNodeState) {
    let slots = net.ids.len();
    let threads = pn.threads.max(1).min(slots.max(1));
    let chunk = slots.div_ceil(threads);
    let pn = &mut *pn;
    let ctx = Ctx {
        ids: &net.ids,
        positions: &net.positions,
        by_id: &net.by_id,
        slot_gen: &pn.slot_gen,
        master: pn.master,
        cycle: net.cycle,
        rings: net.rings,
        shuf: net.shuf,
    };
    let req: &[CyReqLane] = &pn.cy_req;
    let rep: &[CyRepLane] = &pn.cy_rep;
    let rindex: &[(u32, u32, u32)] = &pn.rep_index;
    let scratch = &mut pn.scratch;
    let mut chunks = split_cy(
        &mut net.cy_id,
        &mut net.cy_age,
        &mut net.cy_pos,
        &mut net.cy_len,
        net.cyc,
        net.rings,
        chunk,
    );
    if threads == 1 {
        let cy = chunks.next().expect("arena is non-empty");
        cy_phase3_worker(cy, 0, req, rep, rindex, &mut scratch[0], ctx);
    } else {
        std::thread::scope(|scope| {
            for (w, (cy, scr)) in chunks.zip(scratch.iter_mut()).enumerate() {
                scope.spawn(move || cy_phase3_worker(cy, w, req, rep, rindex, scr, ctx));
            }
        });
    }
}

fn cy_phase3_worker(
    mut cy: CyChunk<'_>,
    w: usize,
    req: &[CyReqLane],
    rep: &[CyRepLane],
    rindex: &[(u32, u32, u32)],
    scr: &mut WorkerScratch,
    ctx: Ctx<'_>,
) {
    let lane = &req[w];
    for rec in &lane.recs {
        let slot = rec.initiator;
        let my_id = ctx.ids[idx(slot)];
        let Ok(i) = rindex.binary_search_by_key(&slot, |e| e.0) else {
            debug_assert!(false, "a queued request always has a reply");
            continue;
        };
        let (_, l, p) = rindex[i];
        let rlane = &rep[idx(l)];
        let rr = rlane.recs[idx(p)];
        // handle_shuffle_response: merge the reply, evicting only what this
        // initiator shipped out (never its own fresh descriptor).
        cy.merge(
            slot,
            my_id,
            &rlane.pay.descs[idx(rr.d0)..idx(rr.d1)],
            &rlane.pay.profs,
            &lane.pay.descs[idx(rec.d0)..idx(rec.d1)],
            &mut scr.replaceable,
        );
    }
}

/// Vicinity phase 1 (ring `ring`) — initiators: project ring candidates
/// out of the (now stable) Cyclon views, age the view, select the exchange
/// partner (drawing from the node's own stream only while the view is
/// empty), build the request payload, queue it or drop a dead partner.
fn vicinity_phase1(net: &mut DenseSimNetwork, pn: &mut PerNodeState, ring: usize) {
    let slots = net.ids.len();
    let threads = pn.threads.max(1).min(slots.max(1));
    let chunk = slots.div_ceil(threads);
    let pn = &mut *pn;
    let ctx = Ctx {
        ids: &net.ids,
        positions: &net.positions,
        by_id: &net.by_id,
        slot_gen: &pn.slot_gen,
        master: pn.master,
        cycle: net.cycle,
        rings: net.rings,
        shuf: net.shuf,
    };
    let cyv = CyView {
        id: &net.cy_id,
        age: &net.cy_age,
        pos: &net.cy_pos,
        len: &net.cy_len,
        cyc: net.cyc,
        rings: net.rings,
    };
    let frontier: &[u32] = &pn.frontier;
    let lanes = &mut pn.vi_req;
    let scratch = &mut pn.scratch;
    let mut chunks = split_vi(
        &mut net.vi_id,
        &mut net.vi_age,
        &mut net.vi_key,
        &mut net.vi_len,
        net.vic,
        net.vic_rings,
        net.gos,
        chunk,
    );
    if threads == 1 {
        let vi = chunks.next().expect("arena is non-empty");
        vi_phase1_worker(vi, ring, frontier, cyv, &mut lanes[0], &mut scratch[0], ctx);
    } else {
        std::thread::scope(|scope| {
            for (w, ((vi, lane), scr)) in chunks
                .zip(lanes.iter_mut())
                .zip(scratch.iter_mut())
                .enumerate()
            {
                let part = slot_range(frontier, w * chunk, (w + 1) * chunk);
                scope.spawn(move || vi_phase1_worker(vi, ring, part, cyv, lane, scr, ctx));
            }
        });
    }
}

fn vi_phase1_worker(
    mut vi: ViChunk<'_>,
    ring: usize,
    frontier: &[u32],
    cyv: CyView<'_>,
    lane: &mut ViReqLane,
    scr: &mut WorkerScratch,
    ctx: Ctx<'_>,
) {
    for &slot in frontier {
        let my_id = ctx.ids[idx(slot)];
        // The random layer feeds candidates into the proximity layer (from
        // the initiator's *current* Cyclon view, after its shuffle).
        cyv.ring_candidates_into(slot, ring, &mut scr.cand);
        vi.age_view(slot, ring);

        let own_key = ctx.positions[idx(slot) * ctx.rings + ring];
        let target = match vi.oldest_id(slot, ring) {
            Some(target) => target,
            None => {
                if scr.cand.is_empty() {
                    continue; // No partner known at all.
                }
                let seed = role_seed(
                    ctx.master,
                    ctx.sgid_of(slot),
                    ROLE_VICINITY_BASE + u64::try_from(ring).expect("ring index fits in u64"),
                    ctx.cycle,
                );
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                scr.cand[rng.gen_range(0..scr.cand.len())].0
            }
        };
        let target_key = vi
            .get_key(slot, ring, target)
            .or_else(|| scr.cand.iter().find(|d| d.0 == target).map(|d| d.2))
            .unwrap_or(own_key);
        vi.payload_into(
            slot,
            ring,
            (target, target_key),
            (my_id, own_key),
            &mut scr.pay,
            &mut scr.sel,
        );
        match lookup_live_in(ctx.by_id, ctx.ids, target) {
            Some(peer) => {
                let d0 = to_u32(lane.descs.len());
                lane.descs.extend_from_slice(&scr.pay);
                lane.recs.push(ViReq {
                    initiator: slot,
                    target: peer,
                    d0,
                    d1: to_u32(lane.descs.len()),
                });
            }
            None => {
                // exchange_failed: drop the dead peer so the ring can
                // re-close around it.
                vi.remove_id(slot, ring, target);
            }
        }
    }
}

/// Vicinity phase 2 (ring `ring`) — responders: in canonical
/// `(target, initiator)` order, capture the reply toward each initiator's
/// neighbourhood, then merge the request (own view + received + ring
/// candidates, keep the closest).
fn vicinity_phase2(net: &mut DenseSimNetwork, pn: &mut PerNodeState, ring: usize) {
    let slots = net.ids.len();
    let threads = pn.threads.max(1).min(slots.max(1));
    let chunk = slots.div_ceil(threads);
    let pn = &mut *pn;
    let ctx = Ctx {
        ids: &net.ids,
        positions: &net.positions,
        by_id: &net.by_id,
        slot_gen: &pn.slot_gen,
        master: pn.master,
        cycle: net.cycle,
        rings: net.rings,
        shuf: net.shuf,
    };
    let cyv = CyView {
        id: &net.cy_id,
        age: &net.cy_age,
        pos: &net.cy_pos,
        len: &net.cy_len,
        cyc: net.cyc,
        rings: net.rings,
    };
    let req: &[ViReqLane] = &pn.vi_req;
    let index: &[(u32, u32, u32)] = &pn.req_index;
    let rep = &mut pn.vi_rep;
    let scratch = &mut pn.scratch;
    let mut chunks = split_vi(
        &mut net.vi_id,
        &mut net.vi_age,
        &mut net.vi_key,
        &mut net.vi_len,
        net.vic,
        net.vic_rings,
        net.gos,
        chunk,
    );
    if threads == 1 {
        let vi = chunks.next().expect("arena is non-empty");
        vi_phase2_worker(vi, ring, index, cyv, req, &mut rep[0], &mut scratch[0], ctx);
    } else {
        std::thread::scope(|scope| {
            for (w, ((vi, lane), scr)) in chunks
                .zip(rep.iter_mut())
                .zip(scratch.iter_mut())
                .enumerate()
            {
                let part = target_range(index, w * chunk, (w + 1) * chunk);
                scope.spawn(move || vi_phase2_worker(vi, ring, part, cyv, req, lane, scr, ctx));
            }
        });
    }
}

#[allow(clippy::too_many_arguments)]
fn vi_phase2_worker(
    mut vi: ViChunk<'_>,
    ring: usize,
    part: &[(u32, u32, u32)],
    cyv: CyView<'_>,
    req: &[ViReqLane],
    lane: &mut ViRepLane,
    scr: &mut WorkerScratch,
    ctx: Ctx<'_>,
) {
    for &(target, l, p) in part {
        let rl = &req[idx(l)];
        let rec = rl.recs[idx(p)];
        let peer_id = ctx.ids[idx(target)];
        let peer_key = ctx.positions[idx(target) * ctx.rings + ring];
        let init_id = ctx.ids[idx(rec.initiator)];
        let init_key = ctx.positions[idx(rec.initiator) * ctx.rings + ring];

        cyv.ring_candidates_into(target, ring, &mut scr.cand_peer);
        // handle_exchange_request: the reply targets the initiator's
        // neighbourhood and is captured before the merge below.
        vi.payload_into(
            target,
            ring,
            (init_id, init_key),
            (peer_id, peer_key),
            &mut scr.reply_v,
            &mut scr.sel,
        );
        let d0 = to_u32(lane.descs.len());
        lane.descs.extend_from_slice(&scr.reply_v);
        lane.recs.push(Rep {
            initiator: rec.initiator,
            d0,
            d1: to_u32(lane.descs.len()),
        });
        vi.merge(
            target,
            ring,
            (peer_id, peer_key),
            &rl.descs[idx(rec.d0)..idx(rec.d1)],
            &scr.cand_peer,
            &mut scr.sel,
        );
    }
}

/// Vicinity phase 3 (ring `ring`) — initiators: merge the captured replies
/// with their own ring candidates.
fn vicinity_phase3(net: &mut DenseSimNetwork, pn: &mut PerNodeState, ring: usize) {
    let slots = net.ids.len();
    let threads = pn.threads.max(1).min(slots.max(1));
    let chunk = slots.div_ceil(threads);
    let pn = &mut *pn;
    let ctx = Ctx {
        ids: &net.ids,
        positions: &net.positions,
        by_id: &net.by_id,
        slot_gen: &pn.slot_gen,
        master: pn.master,
        cycle: net.cycle,
        rings: net.rings,
        shuf: net.shuf,
    };
    let cyv = CyView {
        id: &net.cy_id,
        age: &net.cy_age,
        pos: &net.cy_pos,
        len: &net.cy_len,
        cyc: net.cyc,
        rings: net.rings,
    };
    let req: &[ViReqLane] = &pn.vi_req;
    let rep: &[ViRepLane] = &pn.vi_rep;
    let rindex: &[(u32, u32, u32)] = &pn.rep_index;
    let scratch = &mut pn.scratch;
    let mut chunks = split_vi(
        &mut net.vi_id,
        &mut net.vi_age,
        &mut net.vi_key,
        &mut net.vi_len,
        net.vic,
        net.vic_rings,
        net.gos,
        chunk,
    );
    if threads == 1 {
        let vi = chunks.next().expect("arena is non-empty");
        vi_phase3_worker(vi, ring, 0, cyv, req, rep, rindex, &mut scratch[0], ctx);
    } else {
        std::thread::scope(|scope| {
            for (w, (vi, scr)) in chunks.zip(scratch.iter_mut()).enumerate() {
                scope.spawn(move || vi_phase3_worker(vi, ring, w, cyv, req, rep, rindex, scr, ctx));
            }
        });
    }
}

#[allow(clippy::too_many_arguments)]
fn vi_phase3_worker(
    mut vi: ViChunk<'_>,
    ring: usize,
    w: usize,
    cyv: CyView<'_>,
    req: &[ViReqLane],
    rep: &[ViRepLane],
    rindex: &[(u32, u32, u32)],
    scr: &mut WorkerScratch,
    ctx: Ctx<'_>,
) {
    let lane = &req[w];
    for rec in &lane.recs {
        let slot = rec.initiator;
        let my_id = ctx.ids[idx(slot)];
        let own_key = ctx.positions[idx(slot) * ctx.rings + ring];
        let Ok(i) = rindex.binary_search_by_key(&slot, |e| e.0) else {
            debug_assert!(false, "a queued exchange always has a reply");
            continue;
        };
        let (_, l, p) = rindex[i];
        let rlane = &rep[idx(l)];
        let rr = rlane.recs[idx(p)];
        cyv.ring_candidates_into(slot, ring, &mut scr.cand);
        // handle_exchange_response on the initiator.
        vi.merge(
            slot,
            ring,
            (my_id, own_key),
            &rlane.descs[idx(rr.d0)..idx(rr.d1)],
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
