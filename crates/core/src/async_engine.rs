//! Event-driven (asynchronous, latency-model) dissemination engines.
//!
//! The hop-synchronous engine ([`crate::engine`]) evaluates dissemination
//! over a frozen overlay, which is how the paper runs its experiments. The
//! paper justifies that simplification in Section 7.1: it varied the message
//! forwarding time from zero to several times the gossip period and
//! "recorded no effect whatsoever on the macroscopic behavior of
//! disseminations". This module provides the machinery to *check* that
//! claim rather than assume it: a discrete-event simulation in which every
//! dissemination forward takes a configurable processing + network delay
//! (jittered per message) and deliveries interleave in timestamp order.
//!
//! Three entry points share the model, over two event loops:
//!
//! * [`disseminate_async`] — the full live-network engine: every node keeps
//!   running its Cyclon and Vicinity gossip on its own (jittered) period,
//!   so the overlay keeps evolving mid-dissemination. This is the engine
//!   that validates the frozen-overlay simplification itself.
//! * [`disseminate_async_frozen`] — the same id-keyed
//!   `BTreeMap`/`BTreeSet` event loop reading liveness and links from a
//!   frozen [`Overlay`] instead: no membership gossip, links fixed for the
//!   whole run. Event-for-event identical to [`disseminate_async`] with
//!   [`AsyncConfig::run_membership_gossip`]` = false` over the matching
//!   snapshot, and the **oracle** the dense engine is differentially
//!   tested against.
//! * [`disseminate_async_dense`] — the allocation-free rewrite over a CSR
//!   [`DenseOverlay`] and a reusable [`DenseAsyncScratch`]: bitset notified
//!   set, flat `f64` notification-time array, retained calendar event queue
//!   ([`crate::sched`]), flat per-hop counters. It returns `Copy`
//!   [`DenseAsyncRunStats`]; [`DenseAsyncRunStats::report`] materialises
//!   an [`AsyncReport`] bit-identical to [`disseminate_async_frozen`]'s for
//!   the same overlay, selector and seed, at a fraction of the cost — this
//!   is what makes the latency ablation runnable at 100k+ nodes.
//!
//! The `ablation_async_latency` harness sweeps the forwarding delay from a
//! small fraction of the gossip period to several periods and shows that
//! hit ratio and message overhead stay put — only wall-clock completion
//! time scales.
//!
//! # Adversarial network models
//!
//! Each engine threads [`AsyncConfig::net`] — a [`NetModel`] — through its
//! per-message hot path: scripted partitions drop messages whose endpoints
//! are separated at *send* time, a loss process ([`crate::netmodel::LossModel`])
//! drops messages per sender, and a delay distribution
//! ([`crate::netmodel::DelayModel`]) replaces the legacy fixed-jitter draw.
//! Dropped messages still count in [`AsyncReport::messages_sent`] and the
//! per-hop totals (they were sent; the network ate them), and are broken
//! out in [`AsyncReport::dropped_loss`] / [`AsyncReport::dropped_partition`].
//! Membership gossip in [`disseminate_async`] is *not* subject to the model:
//! it abstracts the overlay-maintenance plane, and the model targets the
//! dissemination plane. The default model is bit-identical to the engines
//! before the model existed — same draws, same reports — and the dense/BTree
//! pair stays bit-identical under every model; both contracts are pinned by
//! the differential property tests.

// D3: index casts go through `hybridcast_graph::cast`; tests are exempt.
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

use std::collections::{BTreeMap, BTreeSet};

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use hybridcast_graph::cast::{idx, to_u32};
use hybridcast_graph::NodeId;
use hybridcast_obs::{DeliveryOutcome, NullProbe, Probe, TraceEvent};
use hybridcast_sim::Network;

use crate::netmodel::{jittered, partition_recovery, NetModel};
use crate::overlay::{DenseBits, DenseOverlay, Overlay, NO_NODE};
use crate::protocols::DenseSelector;
use crate::sched::{CalendarQueue, SchedConfig, Scheduled};

/// Configuration of an event-driven dissemination run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsyncConfig {
    /// Gossip period of the membership protocols (time units).
    pub gossip_period: f64,
    /// Mean processing + network delay of one dissemination forward.
    pub forwarding_delay: f64,
    /// Relative jitter applied to both periods and delays (0.1 = ±10 %).
    pub jitter: f64,
    /// Whether membership gossip keeps running during the dissemination
    /// (`false` reproduces the frozen-overlay setting event-by-event).
    /// Only [`disseminate_async`] reads this flag: the frozen and dense
    /// engines run over an immutable overlay by construction.
    pub run_membership_gossip: bool,
    /// Hard cap on simulated time, as a safety net. A run cut off by the
    /// cap sets [`AsyncReport::truncated`].
    pub max_time: f64,
    /// Adversarial network model: per-message delay distribution, loss
    /// process and scripted partitions. The default model reproduces the
    /// pre-model engines bit for bit.
    pub net: NetModel,
    /// Calendar event-queue geometry and memory budget
    /// ([`crate::sched::SchedConfig`]). The geometry (bucket width, bucket
    /// count) is a pure performance knob — pop order, and therefore every
    /// report bit, is identical for any valid geometry. The event budget
    /// caps how many deliveries may be queued at once: a forward that
    /// survives the network model but finds the queue full is *not*
    /// scheduled, counts in [`AsyncReport::truncated_sends`], and flags the
    /// run [`AsyncReport::truncated`] — identically in all three engines.
    /// The default (unbounded) reproduces the pre-budget engines bit for
    /// bit.
    pub sched: SchedConfig,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            gossip_period: 10.0,
            forwarding_delay: 1.0,
            jitter: 0.1,
            run_membership_gossip: true,
            max_time: 10_000.0,
            net: NetModel::default(),
            sched: SchedConfig::default(),
        }
    }
}

impl AsyncConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if any duration is non-positive (except the
    /// forwarding delay, which may be zero), the jitter is not in
    /// `[0, 1)`, the scheduler geometry is malformed (negative or
    /// non-finite bucket width, zero buckets), or the network model is
    /// malformed (negative loss rates, out-of-range burst parameters,
    /// non-positive partition durations).
    pub fn validate(&self) -> Result<(), String> {
        if self.gossip_period <= 0.0 {
            return Err("gossip period must be positive".into());
        }
        if self.forwarding_delay < 0.0 {
            return Err("forwarding delay cannot be negative".into());
        }
        if !(0.0..1.0).contains(&self.jitter) {
            return Err("jitter must be within [0, 1)".into());
        }
        if self.max_time <= 0.0 {
            return Err("max time must be positive".into());
        }
        self.sched.validate()?;
        self.net.validate()
    }

    /// The calendar bucket width this configuration resolves to:
    /// [`SchedConfig::resolved_width`] over the mean forwarding delay,
    /// falling back to the gossip period for zero-delay runs.
    fn bucket_width(&self) -> f64 {
        self.sched
            .resolved_width(self.forwarding_delay, self.gossip_period)
    }
}

/// Result of an event-driven dissemination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsyncReport {
    /// Live nodes at the start of the dissemination.
    pub population: usize,
    /// Nodes that received the message.
    pub reached: usize,
    /// Total dissemination messages sent.
    pub messages_sent: usize,
    /// Messages that arrived at nodes which had already seen the message.
    pub messages_redundant: usize,
    /// Messages sent to nodes that were dead at delivery time.
    pub messages_to_dead: usize,
    /// Messages sent per hop: entry `h` counts the forwards of nodes first
    /// notified at hop `h − 1` (the origin counts as hop 0, so entry 0 is
    /// always 0). The entries sum to exactly
    /// [`AsyncReport::total_messages`], mirroring the synchronous engine's
    /// [`crate::metrics::DisseminationReport::per_hop_messages`] contract.
    pub per_hop_messages: Vec<usize>,
    /// Simulated time at which the last node was notified, if the
    /// dissemination completed.
    pub completion_time: Option<f64>,
    /// Per-node notification time.
    pub notification_times: BTreeMap<NodeId, f64>,
    /// Messages dropped by the loss process ([`crate::netmodel::LossModel`]).
    /// Dropped messages still count in [`AsyncReport::messages_sent`] and
    /// the per-hop totals.
    pub dropped_loss: usize,
    /// Messages dropped because a scripted partition separated the
    /// endpoints at send time.
    pub dropped_partition: usize,
    /// Per scripted [`crate::netmodel::PartitionEvent`] (in script order):
    /// how long after the heal instant the last notification landed —
    /// the re-convergence time — or `None` if no node was notified at or
    /// after the heal.
    pub partition_recovery: Vec<Option<f64>>,
    /// Forwards that survived the network model but were *not* scheduled
    /// because the event queue was at its configured budget
    /// ([`crate::sched::SchedConfig::event_budget`]). Budget-truncated
    /// sends still count in [`AsyncReport::messages_sent`] and the per-hop
    /// totals, but never in [`AsyncReport::dropped_loss`] /
    /// [`AsyncReport::dropped_partition`]: the network delivered its
    /// verdict, the *simulator* declined the memory. Always zero under the
    /// default (unbounded) budget.
    pub truncated_sends: usize,
    /// `true` if the run understates what an unbounded run would have
    /// achieved: the event queue was cut off by [`AsyncConfig::max_time`]
    /// with dissemination deliveries still pending, and/or the event
    /// budget refused at least one scheduling
    /// ([`AsyncReport::truncated_sends`]` > 0`).
    pub truncated: bool,
}

impl AsyncReport {
    /// Hit ratio in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        if self.population == 0 {
            return 1.0;
        }
        self.reached as f64 / self.population as f64
    }

    /// Miss ratio.
    pub fn miss_ratio(&self) -> f64 {
        1.0 - self.hit_ratio()
    }

    /// `true` if every live node was notified.
    pub fn is_complete(&self) -> bool {
        self.reached == self.population
    }

    /// Total number of dissemination messages sent (the same quantity as
    /// [`AsyncReport::messages_sent`], named to match
    /// [`crate::metrics::DisseminationReport::total_messages`]).
    pub fn total_messages(&self) -> usize {
        self.messages_sent
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Event {
    /// A node's periodic membership gossip fires.
    GossipTick { node: NodeId },
    /// A dissemination message from `from` arrives at `to`; if `to` has not
    /// seen the message yet, `hop` becomes its notification depth.
    Deliver { to: NodeId, from: NodeId, hop: u32 },
}

/// What the id-keyed engine disseminates over: where it reads liveness and
/// a notified node's links from, and which nodes (if any) keep gossiping
/// while the message spreads. The live [`Network`] and a frozen
/// [`Overlay`] are the two implementations; the event loop, the send path
/// and the accounting are shared.
trait Substrate {
    /// Live nodes at the start of the run.
    fn live_count(&self) -> usize;

    /// Whether `node` is alive right now.
    fn is_live(&self, node: NodeId) -> bool;

    /// The nodes whose membership gossip timers run during the
    /// dissemination. Each costs one RNG draw (its timer offset), so a
    /// substrate that gossips nothing must return nothing.
    fn gossiping_nodes(&self, config: &AsyncConfig) -> Vec<NodeId>;

    /// One membership gossip round initiated by the live node `node`.
    fn gossip_once(&mut self, node: NodeId);

    /// The live node `node`'s links at this moment, as
    /// `(d_links, r_links)`.
    fn links(&self, node: NodeId) -> (Vec<NodeId>, Vec<NodeId>);
}

impl Substrate for &mut Network {
    fn live_count(&self) -> usize {
        self.len()
    }

    fn is_live(&self, node: NodeId) -> bool {
        Network::is_live(self, node)
    }

    fn gossiping_nodes(&self, config: &AsyncConfig) -> Vec<NodeId> {
        if config.run_membership_gossip {
            self.live_ids()
        } else {
            Vec::new()
        }
    }

    fn gossip_once(&mut self, node: NodeId) {
        Network::gossip_once(self, node);
    }

    /// The node's *current* ring neighbours and Cyclon view.
    fn links(&self, node: NodeId) -> (Vec<NodeId>, Vec<NodeId>) {
        let sim_node = self.node(node).expect("a live node has membership state");
        (sim_node.d_links(), sim_node.cyclon().view().node_ids())
    }
}

impl Substrate for &dyn Overlay {
    fn live_count(&self) -> usize {
        Overlay::live_count(*self)
    }

    fn is_live(&self, node: NodeId) -> bool {
        Overlay::is_live(*self, node)
    }

    fn gossiping_nodes(&self, _config: &AsyncConfig) -> Vec<NodeId> {
        Vec::new()
    }

    fn gossip_once(&mut self, _node: NodeId) {
        unreachable!("a frozen overlay schedules no gossip ticks");
    }

    fn links(&self, node: NodeId) -> (Vec<NodeId>, Vec<NodeId>) {
        (self.d_links(node), self.r_links(node))
    }
}

/// Announces the scripted partition schedule of `net` into `probe`, right
/// after a run's `RunStart`: one `PartitionOpen`/`PartitionHeal` pair per
/// scripted [`crate::netmodel::PartitionEvent`], in script order.
fn emit_partition_schedule<P: Probe>(net: &NetModel, probe: &mut P) {
    for event in &net.partitions {
        let heal = event.start + event.duration;
        probe.record(TraceEvent::PartitionOpen {
            start: event.start,
            heal,
        });
        probe.record(TraceEvent::PartitionHeal { heal });
    }
}

/// Runs one event-driven dissemination of a message originating at `origin`
/// over the live `network`.
///
/// The network is mutated (its membership protocols keep gossiping while
/// the message spreads) unless `config.run_membership_gossip` is `false`.
///
/// # Panics
///
/// Panics if the configuration is invalid or `origin` is not a live node.
pub fn disseminate_async(
    network: &mut Network,
    selector: &DenseSelector,
    origin: NodeId,
    config: &AsyncConfig,
    rng: &mut ChaCha8Rng,
) -> AsyncReport {
    disseminate_id_keyed(network, selector, origin, config, rng, &mut NullProbe)
}

/// Runs one event-driven dissemination over a **frozen** overlay: the
/// latency model of [`disseminate_async`] without the live membership
/// machinery.
///
/// For a snapshot taken from a live network, this produces the exact
/// [`AsyncReport`] that [`disseminate_async`] produces with
/// [`AsyncConfig::run_membership_gossip`]` = false` and the same RNG seed —
/// event for event, draw for draw: both are the same event loop. It is the
/// id-keyed oracle the dense engine ([`disseminate_async_dense`]) is
/// differentially tested against.
///
/// # Panics
///
/// Panics if the configuration is invalid or `origin` is not a live node.
pub fn disseminate_async_frozen(
    overlay: &dyn Overlay,
    selector: &DenseSelector,
    origin: NodeId,
    config: &AsyncConfig,
    rng: &mut ChaCha8Rng,
) -> AsyncReport {
    disseminate_async_frozen_probed(overlay, selector, origin, config, rng, &mut NullProbe)
}

/// [`disseminate_async_frozen`] with a [`Probe`] attached. The probe
/// observes the run — it never feeds back into the RNG or the event queue —
/// so the report is bit-identical to the unprobed call for any probe. Given
/// the same overlay pair, selector, origin, configuration and seed, the
/// event stream is identical — record for record — to the one
/// [`disseminate_async_dense_probed`] emits: the differential property
/// tests pin that down alongside the report equality.
pub fn disseminate_async_frozen_probed<P: Probe>(
    overlay: &dyn Overlay,
    selector: &DenseSelector,
    origin: NodeId,
    config: &AsyncConfig,
    rng: &mut ChaCha8Rng,
    probe: &mut P,
) -> AsyncReport {
    disseminate_id_keyed(overlay, selector, origin, config, rng, probe)
}

/// The id-keyed event loop behind [`disseminate_async`] and
/// [`disseminate_async_frozen`], generic over the [`Substrate`] it reads
/// liveness and links from.
fn disseminate_id_keyed<W: Substrate, P: Probe>(
    mut world: W,
    selector: &DenseSelector,
    origin: NodeId,
    config: &AsyncConfig,
    rng: &mut ChaCha8Rng,
    probe: &mut P,
) -> AsyncReport {
    config.validate().expect("invalid async configuration");
    assert!(
        world.is_live(origin),
        "dissemination origin {origin} is not a live node"
    );

    let population = world.live_count();
    let mut queue: CalendarQueue<Event> =
        CalendarQueue::new(config.bucket_width(), config.sched.num_buckets);

    // Desynchronised gossip timers, as in the paper ("nodes have
    // independent, non-synchronized timers").
    for node in world.gossiping_nodes(config) {
        let offset = rng.gen::<f64>() * config.gossip_period;
        queue.push(offset, Event::GossipTick { node });
    }
    // The origin "receives" the message from itself at time zero.
    queue.push(
        0.0,
        Event::Deliver {
            to: origin,
            from: origin,
            hop: 0,
        },
    );
    probe.record(TraceEvent::RunStart {
        origin: origin.as_u64(),
        population: population as u64,
    });
    emit_partition_schedule(&config.net, probe);

    let mut notified: BTreeSet<NodeId> = BTreeSet::new();
    let mut notification_times: BTreeMap<NodeId, f64> = BTreeMap::new();
    let mut messages_sent = 0usize;
    let mut messages_redundant = 0usize;
    let mut messages_to_dead = 0usize;
    let mut dropped_loss = 0usize;
    let mut dropped_partition = 0usize;
    let mut ge_bad: BTreeMap<NodeId, bool> = BTreeMap::new();
    let mut per_hop_messages = vec![0usize];
    let (mut targets, mut pool) = (Vec::new(), Vec::new());
    // Queued `Deliver` events; equals `queue.len()` whenever no gossip
    // ticks are scheduled.
    let mut pending_deliveries = 1usize;
    let mut truncated_sends = 0usize;
    let mut completion_time = None;
    let mut truncated = false;

    while let Some(Scheduled {
        time,
        payload: event,
        ..
    }) = queue.pop()
    {
        if time > config.max_time {
            // Leftover gossip ticks alone are not a truncated
            // *dissemination*.
            truncated = pending_deliveries > 0;
            break;
        }
        let (to, from, hop) = match event {
            Event::GossipTick { node } => {
                // Once the dissemination is over there is no need to keep
                // the membership machinery spinning.
                if pending_deliveries > 0 && world.is_live(node) {
                    world.gossip_once(node);
                    let next = time + jittered(config.gossip_period, rng, config.jitter);
                    queue.push(next, Event::GossipTick { node });
                }
                continue;
            }
            Event::Deliver { to, from, hop } => (to, from, hop),
        };
        pending_deliveries -= 1;
        if !world.is_live(to) {
            messages_to_dead += 1;
            probe.record(TraceEvent::Delivered {
                node: to.as_u64(),
                from: from.as_u64(),
                hop,
                outcome: DeliveryOutcome::Dead,
            });
            continue;
        }
        if !notified.insert(to) {
            messages_redundant += 1;
            probe.record(TraceEvent::Delivered {
                node: to.as_u64(),
                from: from.as_u64(),
                hop,
                outcome: DeliveryOutcome::Duplicate,
            });
            continue;
        }
        probe.record(TraceEvent::Delivered {
            node: to.as_u64(),
            from: from.as_u64(),
            hop,
            outcome: DeliveryOutcome::Virgin,
        });
        notification_times.insert(to, time);
        if notified.len() == population {
            completion_time = Some(time);
        }
        // The origin's self-delivery names it as its own sender.
        let (d_links, r_links) = world.links(to);
        selector.select(to, from, (&d_links, &r_links), rng, &mut targets, &mut pool);
        let hop_idx = idx(hop) + 1;
        if per_hop_messages.len() <= hop_idx {
            per_hop_messages.resize(hop_idx + 1, 0);
        }
        per_hop_messages[hop_idx] += targets.len();
        for &target in &targets {
            messages_sent += 1;
            probe.record(TraceEvent::Sent {
                from: to.as_u64(),
                to: target.as_u64(),
                hop: hop + 1,
            });
            if config.net.blocks(to, target, time) {
                dropped_partition += 1;
                probe.record(TraceEvent::DroppedPartition {
                    from: to.as_u64(),
                    to: target.as_u64(),
                    hop: hop + 1,
                });
                continue;
            }
            if !config.net.loss.is_none() {
                let bad = ge_bad.entry(to).or_insert(false);
                if config.net.loss.sample(bad, rng) {
                    dropped_loss += 1;
                    probe.record(TraceEvent::DroppedLoss {
                        from: to.as_u64(),
                        to: target.as_u64(),
                        hop: hop + 1,
                    });
                    continue;
                }
            }
            if config.sched.budget_exhausted(pending_deliveries) {
                // The forward survived the network model, but the queue
                // sits at its event budget: refuse the scheduling (no
                // delay draw) and account for it. The budget caps queued
                // deliveries, not gossip ticks — the same boundary the
                // dense engine caps on.
                truncated_sends += 1;
                continue;
            }
            pending_deliveries += 1;
            let delay = config
                .net
                .delay
                .sample(config.forwarding_delay, config.jitter, rng);
            queue.push(
                time + delay,
                Event::Deliver {
                    to: target,
                    from: to,
                    hop: hop + 1,
                },
            );
        }
    }

    probe.record(TraceEvent::RunEnd {
        reached: notified.len() as u64,
    });
    let partition_recovery =
        partition_recovery(&config.net.partitions, notification_times.values().copied());
    AsyncReport {
        population,
        reached: notified.len(),
        messages_sent,
        messages_redundant,
        messages_to_dead,
        per_hop_messages,
        completion_time,
        notification_times,
        dropped_loss,
        dropped_partition,
        partition_recovery,
        truncated_sends,
        truncated: truncated || truncated_sends > 0,
    }
}

/// A delivery in the dense event queue: node identities are dense `u32`
/// indices, the hop rides along for per-hop accounting. Due time and the
/// FIFO tie-break sequence live in the queue's [`Scheduled`] wrapper, so
/// the payload itself carries no ordering.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DenseEvent {
    to: u32,
    from: u32,
    hop: u32,
}

/// Reusable scratch buffers for [`disseminate_async_dense`].
///
/// One complete run over a warm scratch performs no heap allocation in its
/// event loop: the notified set is a bitset, notification times live in a
/// flat `f64` array indexed by dense node index, the event queue is a
/// [`CalendarQueue`] whose chunk pool, bucket ring, day run and heaps are
/// all retained across runs, and the per-hop message counters are a flat
/// vector. Create one per worker thread and pass it to every run.
#[derive(Debug, Clone, Default)]
pub struct DenseAsyncScratch {
    notified: DenseBits,
    notify_time: Vec<f64>,
    per_hop: Vec<usize>,
    queue: CalendarQueue<DenseEvent>,
    targets: Vec<u32>,
    pool: Vec<u32>,
    /// Per-sender Gilbert–Elliott chain state (`false` = good), the dense
    /// mirror of the oracle's id-keyed state map.
    ge_bad: Vec<bool>,
}

impl DenseAsyncScratch {
    /// Creates an empty scratch; buffers grow to the overlay size on first
    /// use and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Messages sent at each hop distance of the most recent run.
    pub fn per_hop_messages(&self) -> &[usize] {
        &self.per_hop
    }

    /// Peak number of simultaneously queued deliveries during the most
    /// recent run. The queue's retained storage follows the largest such
    /// peak (see [`CalendarQueue::resident_bytes`] for the bound) and never
    /// shrinks below it — this is the high-water mark `scale_smoke`
    /// reports, and the quantity [`SchedConfig::event_budget`] caps.
    pub fn event_queue_high_water(&self) -> usize {
        self.queue.high_water()
    }

    /// Peak population of the calendar queue's far-future overflow tier
    /// during the most recent run: how hard the delay distribution's tail
    /// exercised the spill path. Zero when every drawn delay lands inside
    /// the bucket window.
    pub fn overflow_high_water(&self) -> usize {
        self.queue.overflow_high_water()
    }

    /// Approximate resident storage of the retained event queue in bytes
    /// ([`CalendarQueue::resident_bytes`]).
    pub fn event_resident_bytes(&self) -> usize {
        self.queue.resident_bytes()
    }

    /// Bytes one queued event occupies — the unit
    /// [`SchedConfig::event_budget`] is denominated in.
    pub const fn event_footprint() -> usize {
        CalendarQueue::<DenseEvent>::event_footprint()
    }

    fn reset(&mut self, len: usize, width: f64, num_buckets: usize) {
        self.notified.reset(len);
        self.notify_time.clear();
        self.notify_time.resize(len, f64::NAN);
        self.per_hop.clear();
        self.per_hop.push(0);
        self.queue.reset(width, num_buckets);
        self.targets.clear();
        self.pool.clear();
        self.ge_bad.clear();
        self.ge_bad.resize(len, false);
    }
}

/// Scalar accounting of one dense event-driven run: everything
/// [`disseminate_async_dense`] returns is `Copy`, so the run never touches
/// the allocator.
///
/// The per-hop series, the notified bitset and the flat notification-time
/// array stay behind in the [`DenseAsyncScratch`];
/// [`DenseAsyncRunStats::report`] reads them back into the id-keyed
/// [`AsyncReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DenseAsyncRunStats {
    /// Live nodes at dissemination time.
    pub population: usize,
    /// Nodes notified before the run died out or was truncated.
    pub reached: usize,
    /// Total messages handed to the network model.
    pub messages_sent: usize,
    /// Deliveries to already-notified nodes.
    pub messages_redundant: usize,
    /// Deliveries absorbed by dead nodes.
    pub messages_to_dead: usize,
    /// Messages eaten by the loss process.
    pub dropped_loss: usize,
    /// Messages blocked by an active scripted partition.
    pub dropped_partition: usize,
    /// Time the last live node was notified, if the run completed.
    pub completion_time: Option<f64>,
    /// Forwards refused by the event budget
    /// ([`SchedConfig::event_budget`]); see
    /// [`AsyncReport::truncated_sends`].
    pub truncated_sends: usize,
    /// `true` if the run hit `max_time` with deliveries still queued,
    /// and/or the event budget refused at least one scheduling.
    pub truncated: bool,
}

impl DenseAsyncRunStats {
    /// Total number of dissemination messages sent (the same quantity as
    /// [`DenseAsyncRunStats::messages_sent`], named to match
    /// [`AsyncReport::total_messages`]).
    pub fn total_messages(&self) -> usize {
        self.messages_sent
    }

    /// Materialises the id-keyed [`AsyncReport`], equal field for field to
    /// what [`disseminate_async_frozen`] returns for the same overlay,
    /// selector, origin, configuration and seed. `overlay`, `config` and
    /// `scratch` must be the ones the run was given, and the scratch must
    /// not have served another run since. This is the only part of a dense
    /// run that allocates, and it is O(population) — independent of message
    /// count.
    pub fn report(
        &self,
        overlay: &DenseOverlay,
        config: &AsyncConfig,
        scratch: &DenseAsyncScratch,
    ) -> AsyncReport {
        let mut notification_times: BTreeMap<NodeId, f64> = BTreeMap::new();
        for i in 0..to_u32(overlay.len()) {
            if scratch.notified.get(i) {
                notification_times.insert(overlay.node_id(i), scratch.notify_time[idx(i)]);
            }
        }
        let partition_recovery =
            partition_recovery(&config.net.partitions, notification_times.values().copied());
        AsyncReport {
            population: self.population,
            reached: self.reached,
            messages_sent: self.messages_sent,
            messages_redundant: self.messages_redundant,
            messages_to_dead: self.messages_to_dead,
            per_hop_messages: scratch.per_hop.clone(),
            completion_time: self.completion_time,
            notification_times,
            dropped_loss: self.dropped_loss,
            dropped_partition: self.dropped_partition,
            partition_recovery,
            truncated_sends: self.truncated_sends,
            truncated: self.truncated,
        }
    }
}

/// Runs one event-driven dissemination over a frozen [`DenseOverlay`]: the
/// allocation-free rewrite of [`disseminate_async_frozen`].
///
/// The latency model, the accounting and the RNG draw sequence are
/// identical to the frozen oracle's; given the same overlay (converted),
/// selector, origin, configuration and seed, [`DenseAsyncRunStats::report`]
/// is equal to the oracle's [`AsyncReport`] field for field — the contract
/// the differential property tests pin down. The difference is purely
/// mechanical: node identities are dense `u32` indices, link access is
/// borrowed slices, and all per-run state lives in the caller-provided
/// [`DenseAsyncScratch`].
///
/// Over a warm scratch (one prior run of at least this overlay size and
/// event volume) the call performs **zero heap allocations** — the
/// invariant `tests/zero_alloc.rs` pins with a counting allocator.
///
/// # Panics
///
/// Panics if the configuration is invalid or `origin` is not a live node.
///
/// # Example
///
/// ```
/// use hybridcast_core::async_engine::{
///     disseminate_async_dense, disseminate_async_frozen, AsyncConfig, DenseAsyncScratch,
/// };
/// use hybridcast_core::overlay::{DenseOverlay, StaticOverlay};
/// use hybridcast_core::protocols::DenseSelector;
/// use hybridcast_graph::{builders, NodeId};
/// use rand::SeedableRng;
///
/// let ids: Vec<NodeId> = (0..32).map(NodeId::new).collect();
/// let ring = builders::bidirectional_ring(&ids);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let random = builders::random_out_degree(&ids, 4, &mut rng);
/// let sparse = StaticOverlay::from_graphs(&ring, &random);
/// let dense = DenseOverlay::from(&sparse);
/// let selector = DenseSelector::ringcast(3);
/// let config = AsyncConfig { run_membership_gossip: false, ..AsyncConfig::default() };
///
/// let mut scratch = DenseAsyncScratch::new();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let fast = disseminate_async_dense(&dense, &selector, ids[0], &config, &mut rng, &mut scratch);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let slow = disseminate_async_frozen(&sparse, &selector, ids[0], &config, &mut rng);
/// assert_eq!(fast.report(&dense, &config, &scratch), slow);
/// assert_eq!(fast.reached, fast.population);
/// ```
pub fn disseminate_async_dense(
    overlay: &DenseOverlay,
    selector: &DenseSelector,
    origin: NodeId,
    config: &AsyncConfig,
    rng: &mut ChaCha8Rng,
    scratch: &mut DenseAsyncScratch,
) -> DenseAsyncRunStats {
    disseminate_async_dense_probed(
        overlay,
        selector,
        origin,
        config,
        rng,
        scratch,
        &mut NullProbe,
    )
}

/// [`disseminate_async_dense`] with a [`Probe`] attached. Events use raw
/// node ids (`overlay.node_id(..)`), and the origin's self-delivery reports
/// itself as the sender, so the stream matches
/// [`disseminate_async_frozen_probed`]'s bit for bit. With a recording
/// probe attached the zero-allocation contract is the probe's to keep:
/// over a warmed [`hybridcast_obs::RingSink`] the run still performs no
/// heap allocation (pinned in `tests/zero_alloc.rs`).
pub fn disseminate_async_dense_probed<P: Probe>(
    overlay: &DenseOverlay,
    selector: &DenseSelector,
    origin: NodeId,
    config: &AsyncConfig,
    rng: &mut ChaCha8Rng,
    scratch: &mut DenseAsyncScratch,
    probe: &mut P,
) -> DenseAsyncRunStats {
    config.validate().expect("invalid async configuration");
    let origin_idx = overlay.index_of(origin).filter(|&i| overlay.is_live_idx(i));
    let Some(origin_idx) = origin_idx else {
        panic!("dissemination origin {origin} is not a live node");
    };

    let population = overlay.live_len();
    let len = overlay.len();
    scratch.reset(len, config.bucket_width(), config.sched.num_buckets);
    let DenseAsyncScratch {
        notified,
        notify_time,
        per_hop,
        queue,
        targets,
        pool,
        ge_bad,
    } = scratch;

    queue.push(
        0.0,
        DenseEvent {
            to: origin_idx,
            from: NO_NODE,
            hop: 0,
        },
    );
    probe.record(TraceEvent::RunStart {
        origin: origin.as_u64(),
        population: population as u64,
    });
    emit_partition_schedule(&config.net, probe);

    let mut reached = 0usize;
    let mut messages_sent = 0usize;
    let mut messages_redundant = 0usize;
    let mut messages_to_dead = 0usize;
    let mut dropped_loss = 0usize;
    let mut dropped_partition = 0usize;
    let mut truncated_sends = 0usize;
    let mut completion_time = None;
    let mut truncated = false;

    while let Some(Scheduled {
        time,
        payload: event,
        ..
    }) = queue.pop()
    {
        if time > config.max_time {
            // Every queued event is a pending delivery here.
            truncated = true;
            break;
        }
        // The origin's self-delivery carries the `NO_NODE` sentinel; the
        // oracle reports the origin as its own sender, so mirror that.
        let node_id = overlay.node_id(event.to).as_u64();
        let from_id = if event.from == NO_NODE {
            node_id
        } else {
            overlay.node_id(event.from).as_u64()
        };
        if !overlay.is_live_idx(event.to) {
            messages_to_dead += 1;
            probe.record(TraceEvent::Delivered {
                node: node_id,
                from: from_id,
                hop: event.hop,
                outcome: DeliveryOutcome::Dead,
            });
            continue;
        }
        if !notified.set(event.to) {
            messages_redundant += 1;
            probe.record(TraceEvent::Delivered {
                node: node_id,
                from: from_id,
                hop: event.hop,
                outcome: DeliveryOutcome::Duplicate,
            });
            continue;
        }
        probe.record(TraceEvent::Delivered {
            node: node_id,
            from: from_id,
            hop: event.hop,
            outcome: DeliveryOutcome::Virgin,
        });
        notify_time[idx(event.to)] = time;
        reached += 1;
        if reached == population {
            completion_time = Some(time);
        }
        let links = (overlay.d_links_of(event.to), overlay.r_links_of(event.to));
        selector.select(event.to, event.from, links, rng, targets, pool);
        let hop_idx = idx(event.hop) + 1;
        if per_hop.len() <= hop_idx {
            per_hop.resize(hop_idx + 1, 0);
        }
        per_hop[hop_idx] += targets.len();
        for &target in targets.iter() {
            messages_sent += 1;
            let target_id = overlay.node_id(target).as_u64();
            probe.record(TraceEvent::Sent {
                from: node_id,
                to: target_id,
                hop: event.hop + 1,
            });
            if config
                .net
                .blocks(overlay.node_id(event.to), overlay.node_id(target), time)
            {
                dropped_partition += 1;
                probe.record(TraceEvent::DroppedPartition {
                    from: node_id,
                    to: target_id,
                    hop: event.hop + 1,
                });
                continue;
            }
            if !config.net.loss.is_none() {
                let bad = &mut ge_bad[idx(event.to)];
                if config.net.loss.sample(bad, rng) {
                    dropped_loss += 1;
                    probe.record(TraceEvent::DroppedLoss {
                        from: node_id,
                        to: target_id,
                        hop: event.hop + 1,
                    });
                    continue;
                }
            }
            if config.sched.budget_exhausted(queue.len()) {
                // Every queued event is a pending delivery here, so the
                // queue length is the quantity the budget caps — the same
                // boundary the oracle engines cap on.
                truncated_sends += 1;
                continue;
            }
            let delay = config
                .net
                .delay
                .sample(config.forwarding_delay, config.jitter, rng);
            queue.push(
                time + delay,
                DenseEvent {
                    to: target,
                    from: event.to,
                    hop: event.hop + 1,
                },
            );
        }
    }

    probe.record(TraceEvent::RunEnd {
        reached: reached as u64,
    });
    DenseAsyncRunStats {
        population,
        reached,
        messages_sent,
        messages_redundant,
        messages_to_dead,
        dropped_loss,
        dropped_partition,
        completion_time,
        truncated_sends,
        truncated: truncated || truncated_sends > 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::SnapshotOverlay;
    use hybridcast_sim::SimConfig;
    use rand::SeedableRng;

    fn warmed_network(nodes: usize, seed: u64) -> Network {
        let mut network = Network::new(
            SimConfig {
                nodes,
                ..SimConfig::default()
            },
            seed,
        );
        network.run_cycles(120);
        network
    }

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn config_validation() {
        assert!(AsyncConfig::default().validate().is_ok());
        assert!(AsyncConfig {
            gossip_period: 0.0,
            ..AsyncConfig::default()
        }
        .validate()
        .is_err());
        assert!(AsyncConfig {
            jitter: 1.5,
            ..AsyncConfig::default()
        }
        .validate()
        .is_err());
        assert!(AsyncConfig {
            forwarding_delay: -1.0,
            ..AsyncConfig::default()
        }
        .validate()
        .is_err());
        assert!(AsyncConfig {
            max_time: 0.0,
            ..AsyncConfig::default()
        }
        .validate()
        .is_err());
        assert!(AsyncConfig {
            sched: SchedConfig {
                num_buckets: 0,
                ..SchedConfig::default()
            },
            ..AsyncConfig::default()
        }
        .validate()
        .is_err());
        assert!(AsyncConfig {
            sched: SchedConfig {
                bucket_width: f64::NAN,
                ..SchedConfig::default()
            },
            ..AsyncConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    #[should_panic(expected = "not a live node")]
    fn dead_origin_panics() {
        let mut network = warmed_network(50, 1);
        let victim = NodeId::new(3);
        network.kill_node(victim);
        disseminate_async(
            &mut network,
            &DenseSelector::ringcast(2),
            victim,
            &AsyncConfig::default(),
            &mut rng(1),
        );
    }

    #[test]
    #[should_panic(expected = "not a live node")]
    fn dense_dead_origin_panics() {
        let network = warmed_network(50, 1);
        let overlay = SnapshotOverlay::new(network.overlay_snapshot());
        let dense = DenseOverlay::from(&overlay);
        let mut scratch = DenseAsyncScratch::new();
        disseminate_async_dense(
            &dense,
            &DenseSelector::ringcast(2),
            NodeId::new(u64::MAX),
            &AsyncConfig::default(),
            &mut rng(1),
            &mut scratch,
        );
    }

    #[test]
    fn ringcast_completes_asynchronously_with_live_gossip() {
        let mut network = warmed_network(250, 2);
        let origin = network.live_ids()[7];
        let report = disseminate_async(
            &mut network,
            &DenseSelector::ringcast(3),
            origin,
            &AsyncConfig::default(),
            &mut rng(3),
        );
        assert!(
            report.is_complete(),
            "missed {}",
            report.population - report.reached
        );
        assert!(report.completion_time.is_some());
        assert_eq!(report.notification_times.len(), report.reached);
        assert_eq!(report.notification_times[&origin], 0.0);
        assert_eq!(
            report.per_hop_messages.iter().sum::<usize>(),
            report.total_messages(),
            "per-hop messages must account for every message sent"
        );
        assert_eq!(report.per_hop_messages[0], 0, "nobody sends at hop 0");
    }

    #[test]
    fn forwarding_delay_changes_latency_but_not_coverage() {
        // The Section 7.1 claim: macroscopic behaviour (hit ratio, message
        // overhead) is insensitive to the forwarding delay; only the
        // wall-clock completion time scales with it.
        let mut coverages = Vec::new();
        let mut times = Vec::new();
        for (idx, delay) in [0.5f64, 5.0, 20.0].into_iter().enumerate() {
            let mut network = warmed_network(250, 4);
            let origin = network.live_ids()[11];
            let config = AsyncConfig {
                forwarding_delay: delay,
                ..AsyncConfig::default()
            };
            let report = disseminate_async(
                &mut network,
                &DenseSelector::ringcast(3),
                origin,
                &config,
                &mut rng(100 + idx as u64),
            );
            coverages.push(report.reached);
            times.push(report.completion_time.expect("completes"));
        }
        assert!(
            coverages.iter().all(|&c| c == coverages[0]),
            "{coverages:?}"
        );
        assert!(
            times[2] > times[0] * 5.0,
            "a 40x larger delay must slow completion substantially: {times:?}"
        );
    }

    #[test]
    fn randcast_async_misses_roughly_like_the_synchronous_model() {
        let mut network = warmed_network(300, 5);
        let origin = network.live_ids()[3];
        let report = disseminate_async(
            &mut network,
            &DenseSelector::randcast(2),
            origin,
            &AsyncConfig::default(),
            &mut rng(6),
        );
        assert!(report.miss_ratio() > 0.0, "fanout 2 should miss someone");
        assert!(report.miss_ratio() < 0.5, "but reach most of the network");
        assert_eq!(
            report.messages_sent,
            report.reached * 2,
            "every notified node forwards F = 2 messages"
        );
    }

    #[test]
    fn frozen_and_live_membership_agree_macroscopically() {
        let build_report = |run_gossip: bool, seed: u64| {
            let mut network = warmed_network(250, 7);
            let origin = network.live_ids()[0];
            let config = AsyncConfig {
                run_membership_gossip: run_gossip,
                ..AsyncConfig::default()
            };
            disseminate_async(
                &mut network,
                &DenseSelector::ringcast(3),
                origin,
                &config,
                &mut rng(seed),
            )
        };
        let frozen = build_report(false, 8);
        let live = build_report(true, 9);
        assert_eq!(frozen.reached, live.reached);
        // Message overhead is F * reached in both cases (ring links may add
        // a couple of extra messages at most).
        let bound = |r: &AsyncReport| (r.messages_sent as f64) / (r.reached as f64);
        assert!((bound(&frozen) - bound(&live)).abs() < 0.2);
    }

    #[test]
    fn frozen_oracle_equals_live_engine_with_gossip_disabled() {
        use crate::netmodel::{DelayModel, LossModel, PartitionEvent};
        use hybridcast_obs::VecProbe;

        // The frozen-overlay oracle must reproduce the live engine with
        // membership gossip off, event for event: the snapshot exports
        // exactly the links the momentary views would hand out. That has
        // to hold along the whole send path — partition, loss, budget,
        // delay draw, `max_time` cut-off — so every stage gets an input
        // that makes it fire (checked by the third tuple element).
        type Fires = fn(&AsyncReport) -> bool;
        let base = AsyncConfig {
            run_membership_gossip: false,
            ..AsyncConfig::default()
        };
        let with_net = |net: NetModel| AsyncConfig {
            net,
            ..base.clone()
        };
        let configs: [(&str, AsyncConfig, Fires); 6] = [
            ("default", base.clone(), |r| r.is_complete()),
            (
                "gilbert-elliott loss",
                with_net(NetModel {
                    loss: LossModel::GilbertElliott {
                        p_enter_bad: 0.2,
                        p_exit_bad: 0.3,
                        loss_good: 0.02,
                        loss_bad: 0.6,
                    },
                    ..NetModel::default()
                }),
                |r| r.dropped_loss > 0,
            ),
            (
                "scripted partition",
                with_net(NetModel {
                    partitions: vec![PartitionEvent::bisection(1.0, 4.0, 0xC0FFEE)],
                    ..NetModel::default()
                }),
                |r| r.dropped_partition > 0 && r.partition_recovery.len() == 1,
            ),
            (
                "log-normal delay",
                with_net(NetModel {
                    delay: DelayModel::LogNormal {
                        mu: 0.0,
                        sigma: 0.75,
                    },
                    ..NetModel::default()
                }),
                |r| r.is_complete(),
            ),
            (
                "event budget",
                AsyncConfig {
                    sched: SchedConfig {
                        event_budget: 8,
                        ..SchedConfig::default()
                    },
                    ..base.clone()
                },
                |r| r.truncated_sends > 0,
            ),
            (
                "max_time",
                AsyncConfig {
                    max_time: 2.5,
                    ..base.clone()
                },
                |r| r.truncated && r.truncated_sends == 0,
            ),
        ];
        for (seed, fanout) in [(21u64, 2usize), (22, 3), (23, 4)] {
            // With gossip off the live engine leaves the network untouched,
            // so one warmed network serves every configuration.
            let mut network = warmed_network(200, seed);
            let overlay = SnapshotOverlay::new(network.overlay_snapshot());
            let origin = network.live_ids()[5];
            for (name, config, fires) in &configs {
                let mut live_probe = VecProbe::new();
                let live = disseminate_id_keyed(
                    &mut network,
                    &DenseSelector::ringcast(fanout),
                    origin,
                    config,
                    &mut rng(seed ^ 0xF0),
                    &mut live_probe,
                );
                let mut frozen_probe = VecProbe::new();
                let frozen = disseminate_async_frozen_probed(
                    &overlay,
                    &DenseSelector::ringcast(fanout),
                    origin,
                    config,
                    &mut rng(seed ^ 0xF0),
                    &mut frozen_probe,
                );
                assert_eq!(live, frozen, "{name}: seed {seed} fanout {fanout}");
                assert_eq!(
                    live_probe.events, frozen_probe.events,
                    "{name}: event streams diverge at seed {seed} fanout {fanout}"
                );
                assert!(
                    fires(&live),
                    "{name} never fired at seed {seed} fanout {fanout}"
                );
            }
        }
    }

    #[test]
    fn dense_engine_matches_frozen_oracle_on_warmed_overlay() {
        let network = warmed_network(250, 12);
        let overlay = SnapshotOverlay::new(network.overlay_snapshot());
        let dense = DenseOverlay::from(&overlay);
        let origin = overlay.live_node_ids()[9];
        let config = AsyncConfig {
            run_membership_gossip: false,
            ..AsyncConfig::default()
        };
        let mut scratch = DenseAsyncScratch::new();
        for selector in [
            DenseSelector::randcast(2),
            DenseSelector::ringcast(3),
            DenseSelector::Flooding,
        ] {
            let slow = disseminate_async_frozen(&overlay, &selector, origin, &config, &mut rng(77));
            let fast = disseminate_async_dense(
                &dense,
                &selector,
                origin,
                &config,
                &mut rng(77),
                &mut scratch,
            )
            .report(&dense, &config, &scratch);
            assert_eq!(slow, fast, "{} reports diverge", selector.name());
            assert_eq!(
                fast.per_hop_messages.iter().sum::<usize>(),
                fast.total_messages()
            );
        }
    }

    #[test]
    fn dense_async_scratch_is_reusable_across_runs_and_overlays() {
        let config = AsyncConfig {
            run_membership_gossip: false,
            ..AsyncConfig::default()
        };
        let mut scratch = DenseAsyncScratch::new();
        let big_net = warmed_network(150, 30);
        let big = DenseOverlay::from_snapshot(&big_net.overlay_snapshot());
        let origin = big.live_node_ids()[0];
        let selector = DenseSelector::ringcast(3);
        let first =
            disseminate_async_dense(&big, &selector, origin, &config, &mut rng(1), &mut scratch)
                .report(&big, &config, &scratch);
        // A smaller overlay afterwards: buffers shrink correctly.
        let small_net = warmed_network(40, 31);
        let small = DenseOverlay::from_snapshot(&small_net.overlay_snapshot());
        let small_origin = small.live_node_ids()[3];
        let report = disseminate_async_dense(
            &small,
            &selector,
            small_origin,
            &config,
            &mut rng(2),
            &mut scratch,
        )
        .report(&small, &config, &scratch);
        assert!(report.is_complete());
        assert_eq!(report.population, 40);
        // And the big overlay again, identical to the first run.
        let again =
            disseminate_async_dense(&big, &selector, origin, &config, &mut rng(1), &mut scratch)
                .report(&big, &config, &scratch);
        assert_eq!(first, again);
    }

    #[test]
    fn tiny_max_time_sets_the_truncated_flag_in_all_three_engines() {
        // With a forwarding delay of 1.0 and a max_time well below the
        // network diameter, every engine must cut the run short and say so.
        let tiny = AsyncConfig {
            run_membership_gossip: false,
            max_time: 1.5,
            ..AsyncConfig::default()
        };
        let mut network = warmed_network(200, 40);
        let overlay = SnapshotOverlay::new(network.overlay_snapshot());
        let dense = DenseOverlay::from(&overlay);
        let origin = overlay.live_node_ids()[0];

        let frozen = disseminate_async_frozen(
            &overlay,
            &DenseSelector::ringcast(3),
            origin,
            &tiny,
            &mut rng(41),
        );
        assert!(frozen.truncated, "frozen engine must flag the cutoff");
        assert!(!frozen.is_complete());

        let mut scratch = DenseAsyncScratch::new();
        let fast = disseminate_async_dense(
            &dense,
            &DenseSelector::ringcast(3),
            origin,
            &tiny,
            &mut rng(41),
            &mut scratch,
        )
        .report(&dense, &tiny, &scratch);
        assert_eq!(frozen, fast, "truncated reports must stay bit-identical");

        let live = disseminate_async(
            &mut network,
            &DenseSelector::ringcast(3),
            origin,
            &AsyncConfig {
                run_membership_gossip: true,
                ..tiny.clone()
            },
            &mut rng(41),
        );
        assert!(live.truncated, "live engine must flag the cutoff");

        // A generous max_time leaves the flag clear.
        let full = disseminate_async_frozen(
            &overlay,
            &DenseSelector::ringcast(3),
            origin,
            &AsyncConfig {
                run_membership_gossip: false,
                ..AsyncConfig::default()
            },
            &mut rng(41),
        );
        assert!(!full.truncated);
        assert!(full.is_complete());
    }

    #[test]
    fn live_engine_is_not_truncated_when_only_gossip_ticks_remain() {
        // Gossip ticks keep firing past the dissemination's end; cutting
        // those off is not a truncated *dissemination*.
        let mut network = warmed_network(100, 42);
        let origin = network.live_ids()[0];
        let config = AsyncConfig {
            max_time: 500.0,
            ..AsyncConfig::default()
        };
        let report = disseminate_async(
            &mut network,
            &DenseSelector::ringcast(3),
            origin,
            &config,
            &mut rng(43),
        );
        assert!(report.is_complete());
        assert!(
            !report.truncated,
            "leftover gossip ticks at max_time are not a truncation"
        );
    }

    #[test]
    fn iid_loss_drops_messages_and_keeps_the_accounting_consistent() {
        use crate::netmodel::LossModel;
        let network = warmed_network(250, 44);
        let overlay = SnapshotOverlay::new(network.overlay_snapshot());
        let origin = overlay.live_node_ids()[2];
        let config = AsyncConfig {
            run_membership_gossip: false,
            net: NetModel {
                loss: LossModel::Iid { rate: 0.3 },
                ..NetModel::default()
            },
            ..AsyncConfig::default()
        };
        let lossy = disseminate_async_frozen(
            &overlay,
            &DenseSelector::ringcast(3),
            origin,
            &config,
            &mut rng(45),
        );
        assert!(lossy.dropped_loss > 0, "30% loss must drop something");
        assert_eq!(lossy.dropped_partition, 0);
        // Dropped messages still count as sent and per-hop totals balance.
        assert_eq!(
            lossy.per_hop_messages.iter().sum::<usize>(),
            lossy.messages_sent
        );
        // Deliveries = sent − dropped; each is redundant, dead, or a
        // first notification (reached includes the origin's self-notify).
        assert_eq!(
            lossy.messages_sent - lossy.dropped_loss - lossy.dropped_partition,
            lossy.messages_redundant + lossy.messages_to_dead + lossy.reached - 1
        );
    }

    #[test]
    fn partition_drops_cross_cut_messages_and_reports_recovery() {
        use crate::netmodel::PartitionEvent;
        let network = warmed_network(300, 46);
        let overlay = SnapshotOverlay::new(network.overlay_snapshot());
        let origin = overlay.live_node_ids()[0];
        // Partition from t=0 outlasting the whole run: the origin's side
        // disseminates normally, the far side stays dark.
        let config = AsyncConfig {
            run_membership_gossip: false,
            net: NetModel {
                partitions: vec![PartitionEvent::bisection(0.0, 50.0, 0xFEED)],
                ..NetModel::default()
            },
            ..AsyncConfig::default()
        };
        let report = disseminate_async_frozen(
            &overlay,
            &DenseSelector::ringcast(3),
            origin,
            &config,
            &mut rng(47),
        );
        assert!(
            report.dropped_partition > 0,
            "a bisection from t=0 must cut cross-side forwards"
        );
        assert_eq!(report.partition_recovery.len(), 1);
        assert!(!report.is_complete(), "the far side is unreachable");
        // The bisection is roughly balanced: the origin's side alone is
        // notified, so coverage sits near half the population.
        assert!(report.reached > report.population / 4);
        assert!(report.reached < 3 * report.population / 4);

        // A partition that heals mid-run only delays the far side: the
        // frontier is still active at the heal and crosses the cut.
        let healing = AsyncConfig {
            run_membership_gossip: false,
            net: NetModel {
                partitions: vec![PartitionEvent::bisection(0.0, 6.0, 0xFEED)],
                ..NetModel::default()
            },
            ..AsyncConfig::default()
        };
        let healed = disseminate_async_frozen(
            &overlay,
            &DenseSelector::ringcast(3),
            origin,
            &healing,
            &mut rng(47),
        );
        assert!(healed.dropped_partition > 0);
        assert!(healed.is_complete(), "the heal lets the frontier cross");
        let recovery =
            healed.partition_recovery[0].expect("notifications land after the heal at t = 6");
        assert!(recovery > 0.0);

        // No partitions → empty recovery vector.
        let clean = disseminate_async_frozen(
            &overlay,
            &DenseSelector::ringcast(3),
            origin,
            &AsyncConfig {
                run_membership_gossip: false,
                ..AsyncConfig::default()
            },
            &mut rng(47),
        );
        assert!(clean.partition_recovery.is_empty());
        assert_eq!(clean.dropped_partition, 0);
    }

    #[test]
    fn invalid_net_model_is_rejected_by_config_validation() {
        use crate::netmodel::{LossModel, PartitionEvent};
        let mut config = AsyncConfig::default();
        assert!(config.validate().is_ok());
        config.net.loss = LossModel::Iid { rate: -0.5 };
        assert!(config.validate().is_err());
        config.net.loss = LossModel::None;
        config.net.partitions = vec![PartitionEvent::bisection(1.0, -1.0, 0)];
        assert!(config.validate().is_err());
    }

    #[test]
    fn event_budget_caps_scheduling_identically_in_all_three_engines() {
        let mut network = warmed_network(200, 50);
        let overlay = SnapshotOverlay::new(network.overlay_snapshot());
        let dense = DenseOverlay::from(&overlay);
        let origin = overlay.live_node_ids()[0];
        let capped = AsyncConfig {
            run_membership_gossip: false,
            sched: SchedConfig {
                event_budget: 8,
                ..SchedConfig::default()
            },
            ..AsyncConfig::default()
        };

        let frozen = disseminate_async_frozen(
            &overlay,
            &DenseSelector::ringcast(3),
            origin,
            &capped,
            &mut rng(51),
        );
        assert!(
            frozen.truncated_sends > 0,
            "a budget of 8 must refuse forwards on a 200-node RingCast run"
        );
        assert!(frozen.truncated, "budget truncation must flag the run");
        assert_eq!(frozen.dropped_loss, 0, "the budget is not a loss process");
        assert_eq!(frozen.dropped_partition, 0);
        // Every sent message is delivered, dropped, or budget-refused —
        // never silently lost: with no drops the accounting balances.
        assert_eq!(
            frozen.messages_sent - frozen.truncated_sends,
            frozen.messages_redundant + frozen.messages_to_dead + frozen.reached - 1
        );

        let mut scratch = DenseAsyncScratch::new();
        let fast = disseminate_async_dense(
            &dense,
            &DenseSelector::ringcast(3),
            origin,
            &capped,
            &mut rng(51),
            &mut scratch,
        )
        .report(&dense, &capped, &scratch);
        assert_eq!(
            frozen, fast,
            "budget-capped reports must stay bit-identical"
        );
        assert!(
            scratch.event_queue_high_water() <= 8,
            "the queue must never grow past the budget, got {}",
            scratch.event_queue_high_water()
        );

        let live = disseminate_async(
            &mut network,
            &DenseSelector::ringcast(3),
            origin,
            &capped,
            &mut rng(51),
        );
        assert_eq!(
            frozen, live,
            "the live engine must cap on the same boundary"
        );
    }

    #[test]
    fn budget_at_the_high_water_mark_schedules_everything() {
        // The cap refuses a push only when the queue already holds
        // `event_budget` deliveries, so a budget equal to the uncapped
        // run's high-water mark changes nothing — and one below it must
        // refuse at least the push that would have set that mark.
        let network = warmed_network(150, 52);
        let overlay = SnapshotOverlay::new(network.overlay_snapshot());
        let dense = DenseOverlay::from(&overlay);
        let origin = overlay.live_node_ids()[4];
        let free = AsyncConfig {
            run_membership_gossip: false,
            ..AsyncConfig::default()
        };
        let selector = DenseSelector::ringcast(3);
        let mut scratch = DenseAsyncScratch::new();
        let uncapped =
            disseminate_async_dense(&dense, &selector, origin, &free, &mut rng(53), &mut scratch)
                .report(&dense, &free, &scratch);
        assert_eq!(uncapped.truncated_sends, 0);
        assert!(!uncapped.truncated);
        let high_water = scratch.event_queue_high_water();
        assert!(high_water > 1, "the run must actually queue events");

        let exact = AsyncConfig {
            sched: SchedConfig {
                event_budget: high_water,
                ..SchedConfig::default()
            },
            ..free.clone()
        };
        let at_cap = disseminate_async_dense(
            &dense,
            &selector,
            origin,
            &exact,
            &mut rng(53),
            &mut scratch,
        )
        .report(&dense, &exact, &scratch);
        assert_eq!(
            uncapped, at_cap,
            "a budget at the high-water mark refuses nothing"
        );

        let below = AsyncConfig {
            sched: SchedConfig {
                event_budget: high_water - 1,
                ..SchedConfig::default()
            },
            ..free.clone()
        };
        let capped = disseminate_async_dense(
            &dense,
            &selector,
            origin,
            &below,
            &mut rng(53),
            &mut scratch,
        );
        assert!(
            capped.truncated_sends > 0,
            "one below the high-water mark must refuse at least one forward"
        );
        assert!(capped.truncated);
        assert!(scratch.event_queue_high_water() < high_water);
    }

    #[test]
    fn event_ordering_is_deterministic_for_a_fixed_seed() {
        let run = || {
            let mut network = warmed_network(150, 10);
            let origin = network.live_ids()[5];
            disseminate_async(
                &mut network,
                &DenseSelector::ringcast(2),
                origin,
                &AsyncConfig::default(),
                &mut rng(11),
            )
        };
        assert_eq!(run(), run());
    }
}
