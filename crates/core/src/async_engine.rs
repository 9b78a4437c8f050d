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
//! [`disseminate_async_dense`] runs that model over a frozen CSR
//! [`DenseOverlay`] and a reusable [`DenseAsyncScratch`]: bitset notified
//! set, flat `f64` notification-time array, retained calendar event queue
//! ([`crate::sched`]), flat per-hop counters. It returns `Copy`
//! [`DenseAsyncRunStats`]; [`DenseAsyncRunStats::report`] materialises the
//! id-keyed [`AsyncReport`] — this is what makes the latency ablation
//! runnable at 100k+ nodes. The test-only `hybridcast-oracle` crate keeps
//! the readable `BTreeMap` event loop, over a frozen overlay (the reference
//! this engine is checked against bit for bit per seed) or over a live
//! membership network whose gossip keeps running mid-dissemination (the
//! check that freezing the overlay changes nothing macroscopic).
//!
//! The `ablation_async_latency` harness sweeps the forwarding delay from a
//! small fraction of the gossip period to several periods and shows that
//! hit ratio and message overhead stay put — only wall-clock completion
//! time scales.
//!
//! # Adversarial network models
//!
//! The engine threads [`AsyncConfig::net`] — a [`NetModel`] — through its
//! per-message hot path: scripted partitions drop messages whose endpoints
//! are separated at *send* time, a loss process ([`crate::netmodel::LossModel`])
//! drops messages per sender, and a delay distribution
//! ([`crate::netmodel::DelayModel`]) replaces the legacy fixed-jitter draw.
//! Dropped messages still count in [`AsyncReport::messages_sent`] and the
//! per-hop totals (they were sent; the network ate them), and are broken
//! out in [`AsyncReport::dropped_loss`] / [`AsyncReport::dropped_partition`].
//! The oracle's live membership gossip is *not* subject to the model: it
//! abstracts the overlay-maintenance plane, and the model targets the
//! dissemination plane. The default model is bit-identical to the engines
//! before the model existed — same draws, same reports — and the dense
//! engine stays bit-identical to the oracle under every model; both
//! contracts are pinned by the differential property tests.

// D3: index casts go through `hybridcast_graph::cast`; tests are exempt.
#![cfg_attr(
    not(test),
    deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)
)]

use std::collections::BTreeMap;

use rand_chacha::ChaCha8Rng;

use hybridcast_graph::cast::{idx, to_u32};
use hybridcast_graph::NodeId;
use hybridcast_obs::{DeliveryOutcome, NullProbe, Probe, TraceEvent};

use crate::netmodel::{partition_recovery, NetModel};
use crate::overlay::{DenseBits, DenseOverlay, NO_NODE};
use crate::protocols::DenseSelector;
use crate::sched::{CalendarQueue, SchedConfig, Scheduled};

/// Configuration of an event-driven dissemination run.
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncConfig {
    /// Gossip period of the membership protocols (time units).
    pub gossip_period: f64,
    /// Mean processing + network delay of one dissemination forward.
    pub forwarding_delay: f64,
    /// Relative jitter applied to both periods and delays (0.1 = ±10 %).
    pub jitter: f64,
    /// Whether membership gossip keeps running during the dissemination
    /// (`false` reproduces the frozen-overlay setting event-by-event).
    /// Only the live engine of the test-only `hybridcast-oracle` crate
    /// reads this flag: [`disseminate_async_dense`] runs over an immutable
    /// overlay by construction.
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
    /// run [`AsyncReport::truncated`] — identically in the dense engine and
    /// the oracle.
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
    /// Returns an error if any duration is non-finite or non-positive
    /// (except the forwarding delay, which may be zero), the jitter is not
    /// in `[0, 1)`, the scheduler geometry is malformed (negative or
    /// non-finite bucket width, zero buckets), or the network model is
    /// malformed (negative loss rates, out-of-range burst parameters,
    /// non-positive partition durations).
    pub fn validate(&self) -> Result<(), String> {
        if !(self.gossip_period.is_finite() && self.gossip_period > 0.0) {
            return Err("gossip period must be finite and positive".into());
        }
        if !(self.forwarding_delay.is_finite() && self.forwarding_delay >= 0.0) {
            return Err("forwarding delay must be finite and non-negative".into());
        }
        if !(0.0..1.0).contains(&self.jitter) {
            return Err("jitter must be within [0, 1)".into());
        }
        if !(self.max_time.is_finite() && self.max_time > 0.0) {
            return Err("max time must be finite and positive".into());
        }
        self.sched.validate()?;
        self.net.validate()
    }
}

/// Result of an event-driven dissemination.
#[derive(Debug, Clone, PartialEq)]
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

/// Announces the scripted partition schedule of `net` into `probe`, right
/// after a run's `RunStart`: one `PartitionOpen`/`PartitionHeal` pair per
/// scripted [`crate::netmodel::PartitionEvent`], in script order. Public so
/// that the id-keyed oracle engines emit the same records.
pub fn emit_partition_schedule<P: Probe>(net: &NetModel, probe: &mut P) {
    for event in &net.partitions {
        let heal = event.start + event.duration;
        probe.record(TraceEvent::PartitionOpen {
            start: event.start,
            heal,
        });
        probe.record(TraceEvent::PartitionHeal { heal });
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
    /// what the id-keyed oracle returns for the same overlay, selector,
    /// origin, configuration and seed. `overlay`, `config` and
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

/// Runs one event-driven dissemination of a message originating at `origin`
/// over a frozen [`DenseOverlay`].
///
/// Node identities are dense `u32` indices, link access is borrowed
/// slices, and all per-run state lives in the caller-provided
/// [`DenseAsyncScratch`]. The latency model, the accounting and the RNG
/// draw sequence are those of the frozen id-keyed oracle in
/// `hybridcast-oracle`: for the same overlay, selector, origin,
/// configuration and seed, [`DenseAsyncRunStats::report`] equals its
/// [`AsyncReport`] field for field — the contract the differential
/// property tests pin down.
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
/// use hybridcast_core::async_engine::{disseminate_async_dense, AsyncConfig, DenseAsyncScratch};
/// use hybridcast_core::overlay::DenseOverlay;
/// use hybridcast_core::protocols::DenseSelector;
/// use hybridcast_graph::{builders, NodeId};
/// use rand::SeedableRng;
///
/// let ids: Vec<NodeId> = (0..32).map(NodeId::new).collect();
/// let ring = builders::bidirectional_ring(&ids);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let random = builders::random_out_degree(&ids, 4, &mut rng);
/// let overlay = DenseOverlay::from_graphs(&ring, &random);
/// let selector = DenseSelector::ringcast(3);
/// let config = AsyncConfig { run_membership_gossip: false, ..AsyncConfig::default() };
///
/// let mut scratch = DenseAsyncScratch::new();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let stats = disseminate_async_dense(&overlay, &selector, ids[0], &config, &mut rng, &mut scratch);
/// assert_eq!(stats.reached, stats.population, "RingCast completes");
/// let report = stats.report(&overlay, &config, &scratch);
/// assert_eq!(report.notification_times[&ids[0]], 0.0);
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
/// itself as the sender, so the stream matches the id-keyed oracle's bit
/// for bit. With a recording
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
    let width = config
        .sched
        .resolved_width(config.forwarding_delay, config.gossip_period);
    scratch.reset(len, width, config.sched.num_buckets);
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
    use crate::overlay::tests::warmed_overlay;
    use crate::overlay::Overlay;
    use rand::SeedableRng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// One run over a fresh scratch, as the id-keyed report.
    fn disseminate(
        overlay: &DenseOverlay,
        selector: &DenseSelector,
        origin: NodeId,
        config: &AsyncConfig,
        rng: &mut ChaCha8Rng,
    ) -> AsyncReport {
        let mut scratch = DenseAsyncScratch::new();
        disseminate_async_dense(overlay, selector, origin, config, rng, &mut scratch)
            .report(overlay, config, &scratch)
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
    fn config_validation_rejects_non_finite_durations() {
        type Break = fn(&mut AsyncConfig);
        let breaks: [(&str, Break); 6] = [
            ("NaN gossip period", |c| c.gossip_period = f64::NAN),
            ("infinite gossip period", |c| {
                c.gossip_period = f64::INFINITY
            }),
            ("NaN forwarding delay", |c| c.forwarding_delay = f64::NAN),
            ("infinite forwarding delay", |c| {
                c.forwarding_delay = f64::INFINITY
            }),
            ("NaN max time", |c| c.max_time = f64::NAN),
            ("infinite max time", |c| c.max_time = f64::INFINITY),
        ];
        for (name, break_it) in breaks {
            let mut config = AsyncConfig::default();
            break_it(&mut config);
            assert!(config.validate().is_err(), "{name} must be rejected");
        }
    }

    #[test]
    #[should_panic(expected = "not a live node")]
    fn dead_origin_panics() {
        let mut overlay = warmed_overlay(50, 1);
        let victim = NodeId::new(3);
        overlay.kill_node(victim);
        disseminate(
            &overlay,
            &DenseSelector::ringcast(2),
            victim,
            &AsyncConfig::default(),
            &mut rng(1),
        );
    }

    #[test]
    #[should_panic(expected = "not a live node")]
    fn dense_dead_origin_panics() {
        let dense = warmed_overlay(50, 1);
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
    fn dense_async_scratch_is_reusable_across_runs_and_overlays() {
        let config = AsyncConfig {
            run_membership_gossip: false,
            ..AsyncConfig::default()
        };
        let mut scratch = DenseAsyncScratch::new();
        let big = warmed_overlay(150, 30);
        let origin = big.live_node_ids()[0];
        let selector = DenseSelector::ringcast(3);
        let first =
            disseminate_async_dense(&big, &selector, origin, &config, &mut rng(1), &mut scratch)
                .report(&big, &config, &scratch);
        // A smaller overlay afterwards: buffers shrink correctly.
        let small = warmed_overlay(40, 31);
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
    fn iid_loss_drops_messages_and_keeps_the_accounting_consistent() {
        use crate::netmodel::LossModel;
        let overlay = warmed_overlay(250, 44);
        let origin = overlay.live_node_ids()[2];
        let config = AsyncConfig {
            run_membership_gossip: false,
            net: NetModel {
                loss: LossModel::Iid { rate: 0.3 },
                ..NetModel::default()
            },
            ..AsyncConfig::default()
        };
        let lossy = disseminate(
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
        let overlay = warmed_overlay(300, 46);
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
        let report = disseminate(
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
        let healed = disseminate(
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
        let clean = disseminate(
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
    fn budget_at_the_high_water_mark_schedules_everything() {
        // The cap refuses a push only when the queue already holds
        // `event_budget` deliveries, so a budget equal to the uncapped
        // run's high-water mark changes nothing — and one below it must
        // refuse at least the push that would have set that mark.
        let dense = warmed_overlay(150, 52);
        let origin = dense.live_node_ids()[4];
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
}
