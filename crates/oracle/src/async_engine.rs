//! The id-keyed event-driven engine: one `BTreeMap` / `BTreeSet` event loop
//! over two [`Substrate`]s.
//!
//! * Over a live [`Network`] with [`AsyncConfig::run_membership_gossip`]
//!   set, every node keeps running its Cyclon and Vicinity gossip on its
//!   own (jittered) period while the message spreads, so the overlay keeps
//!   evolving mid-dissemination. This is the engine that checks the
//!   frozen-overlay simplification of the paper's Section 7.1.
//! * Over a frozen [`Overlay`], liveness and links are fixed for the whole
//!   run. This is the reference
//!   `hybridcast_core::async_engine::disseminate_async_dense` is checked
//!   against, event for event and draw for draw. Over a live network with
//!   gossip off, the two coincide.

use std::collections::{BTreeMap, BTreeSet};

use rand::Rng;
use rand_chacha::ChaCha8Rng;

use hybridcast_core::async_engine::{emit_partition_schedule, AsyncConfig, AsyncReport};
use hybridcast_core::netmodel::{jittered, partition_recovery};
use hybridcast_core::overlay::Overlay;
use hybridcast_core::protocols::DenseSelector;
use hybridcast_core::sched::{CalendarQueue, Scheduled};
use hybridcast_graph::cast::idx;
use hybridcast_graph::NodeId;
use hybridcast_obs::{DeliveryOutcome, Probe, TraceEvent};
use hybridcast_sim::GossipRuntime;

use crate::network::Network;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// A node's periodic membership gossip fires.
    GossipTick { node: NodeId },
    /// A dissemination message from `from` arrives at `to`; if `to` has not
    /// seen the message yet, `hop` becomes its notification depth.
    Deliver { to: NodeId, from: NodeId, hop: u32 },
}

/// What the id-keyed engine disseminates over: where it reads liveness and
/// a notified node's links from, and which nodes (if any) keep gossiping
/// while the message spreads. A live `&mut` [`Network`] and a frozen
/// `&impl` [`Overlay`] are the two implementations; the event loop, the
/// send path and the accounting are shared.
pub trait Substrate {
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
        GossipRuntime::is_live(&**self, node)
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

impl<T: Overlay + ?Sized> Substrate for &T {
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

/// Runs one event-driven dissemination of a message originating at `origin`
/// over `world`: a live `&mut` [`Network`] (mutated while its membership
/// keeps gossiping, unless `config.run_membership_gossip` is `false`) or a
/// frozen `&` [`Overlay`].
///
/// The probe observes the run — it never feeds back into the RNG or the
/// event queue — so the report is the same for any probe. Over a frozen
/// overlay the report and the event stream equal, record for record, what
/// `hybridcast_core::async_engine::disseminate_async_dense_probed` returns
/// and emits for the same overlay, selector, origin, configuration and
/// seed.
///
/// # Panics
///
/// Panics if the configuration is invalid or `origin` is not a live node.
pub fn disseminate_async<W: Substrate, P: Probe>(
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
    let width = config
        .sched
        .resolved_width(config.forwarding_delay, config.gossip_period);
    let mut queue: CalendarQueue<Event> = CalendarQueue::new(width, config.sched.num_buckets);

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
            if config.net.loss.sample(rng) {
                dropped_loss += 1;
                probe.record(TraceEvent::DroppedLoss {
                    from: to.as_u64(),
                    to: target.as_u64(),
                    hop: hop + 1,
                });
                continue;
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
        partition_recovery(config.net.partition, notification_times.values().copied());
    AsyncReport {
        population,
        reached: notified.len(),
        messages_sent,
        messages_redundant,
        messages_to_dead,
        per_hop_messages,
        completion_time,
        notification_times: notification_times.into_iter().collect(),
        dropped_loss,
        dropped_partition,
        partition_recovery,
        truncated_sends,
        truncated: truncated || truncated_sends > 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::tests::warmed_network;
    use hybridcast_core::async_engine::{disseminate_async_dense, DenseAsyncScratch};
    use hybridcast_core::netmodel::NetModel;
    use hybridcast_core::overlay::{DenseOverlay, SnapshotOverlay};
    use hybridcast_core::sched::SchedConfig;
    use hybridcast_obs::NullProbe;
    use rand::SeedableRng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// One unobserved run over `world` with the RNG seeded by `seed`.
    fn run<W: Substrate>(
        world: W,
        selector: &DenseSelector,
        origin: NodeId,
        config: &AsyncConfig,
        seed: u64,
    ) -> AsyncReport {
        let rng = &mut rng(seed);
        disseminate_async(world, selector, origin, config, rng, &mut NullProbe)
    }

    #[test]
    fn ringcast_completes_asynchronously_with_live_gossip() {
        let mut network = warmed_network(250, 2);
        let origin = network.live_ids()[7];
        let report = run(
            &mut network,
            &DenseSelector::ringcast(3),
            origin,
            &AsyncConfig::default(),
            3,
        );
        assert!(
            report.is_complete(),
            "missed {}",
            report.population - report.reached
        );
        assert!(report.completion_time.is_some());
        assert_eq!(report.notification_times.len(), report.reached);
        let at = report
            .notification_times
            .binary_search_by_key(&origin, |&(id, _)| id)
            .expect("origin notified");
        assert_eq!(report.notification_times[at].1, 0.0);
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
            let report = run(
                &mut network,
                &DenseSelector::ringcast(3),
                origin,
                &config,
                100 + idx as u64,
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
        let report = run(
            &mut network,
            &DenseSelector::randcast(2),
            origin,
            &AsyncConfig::default(),
            6,
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
            run(
                &mut network,
                &DenseSelector::ringcast(3),
                origin,
                &config,
                seed,
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
        use hybridcast_core::netmodel::{DelayModel, LossModel, PartitionEvent};
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
                "i.i.d. loss",
                with_net(NetModel {
                    loss: LossModel::Iid { rate: 0.2 },
                    ..NetModel::default()
                }),
                |r| r.dropped_loss > 0,
            ),
            (
                "scripted partition",
                with_net(NetModel {
                    partition: Some(PartitionEvent::bisection(1.0, 4.0, 0xC0FFEE)),
                    ..NetModel::default()
                }),
                |r| r.dropped_partition > 0,
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
                let live = disseminate_async(
                    &mut network,
                    &DenseSelector::ringcast(fanout),
                    origin,
                    config,
                    &mut rng(seed ^ 0xF0),
                    &mut live_probe,
                );
                let mut frozen_probe = VecProbe::new();
                let frozen = disseminate_async(
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
            let slow = run(&overlay, &selector, origin, &config, 77);
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

        let frozen = run(&overlay, &DenseSelector::ringcast(3), origin, &tiny, 41);
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

        let live = run(
            &mut network,
            &DenseSelector::ringcast(3),
            origin,
            &AsyncConfig {
                run_membership_gossip: true,
                ..tiny.clone()
            },
            41,
        );
        assert!(live.truncated, "live engine must flag the cutoff");

        // A generous max_time leaves the flag clear.
        let full = run(
            &overlay,
            &DenseSelector::ringcast(3),
            origin,
            &AsyncConfig {
                run_membership_gossip: false,
                ..AsyncConfig::default()
            },
            41,
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
        let report = run(
            &mut network,
            &DenseSelector::ringcast(3),
            origin,
            &config,
            43,
        );
        assert!(report.is_complete());
        assert!(
            !report.truncated,
            "leftover gossip ticks at max_time are not a truncation"
        );
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

        let frozen = run(&overlay, &DenseSelector::ringcast(3), origin, &capped, 51);
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

        let live = run(
            &mut network,
            &DenseSelector::ringcast(3),
            origin,
            &capped,
            51,
        );
        assert_eq!(
            frozen, live,
            "the live engine must cap on the same boundary"
        );
    }

    #[test]
    fn event_ordering_is_deterministic_for_a_fixed_seed() {
        let run = || {
            let mut network = warmed_network(150, 10);
            let origin = network.live_ids()[5];
            run(
                &mut network,
                &DenseSelector::ringcast(2),
                origin,
                &AsyncConfig::default(),
                11,
            )
        };
        assert_eq!(run(), run());
    }
}
