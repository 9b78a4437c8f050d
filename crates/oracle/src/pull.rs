//! The id-keyed push + pull anti-entropy engine: the reference
//! `hybridcast_core::pull::disseminate_push_pull_dense` is checked against.

use std::collections::{BTreeMap, BTreeSet};

use rand::seq::SliceRandom;
use rand::RngCore;

use hybridcast_core::overlay::Overlay;
use hybridcast_core::protocols::DenseSelector;
use hybridcast_core::pull::{PullConfig, PushPullReport};
use hybridcast_graph::cast::to_u32;
use hybridcast_graph::NodeId;
use hybridcast_obs::{Probe, TraceEvent};

use crate::engine::disseminate;

/// Runs a push dissemination followed by pull-based anti-entropy rounds.
///
/// During each pull round every live node that does not yet hold the
/// message polls `config.fanout` random neighbours from its r-links; if at
/// least one of them already holds the message, the node obtains it at the
/// end of the round (rounds are synchronous, matching the cycle-based model
/// of the rest of the evaluation).
///
/// The probe sees the push phase's usual stream, then per pull round
/// `PullRequest`, `PollBlocked` / `PollLost`, `PullTransfer` and `RoundEnd`
/// events. Probes never touch the RNG, so the report is identical for any
/// probe.
///
/// # Panics
///
/// Panics if `origin` is not live or the pull configuration is invalid.
pub fn disseminate_push_pull<P: Probe>(
    overlay: &dyn Overlay,
    selector: &DenseSelector,
    origin: NodeId,
    config: &PullConfig,
    rng: &mut dyn RngCore,
    probe: &mut P,
) -> PushPullReport {
    config.validate().expect("invalid pull configuration");
    let push = disseminate(overlay, selector, origin, rng, probe);

    let mut holders: BTreeSet<NodeId> = overlay
        .live_node_ids()
        .into_iter()
        .filter(|id| !push.unreached.contains(id))
        .collect();
    let live: Vec<NodeId> = overlay.live_node_ids();

    let mut pull_rounds = 0usize;
    let mut pull_requests = 0usize;
    let mut pull_transfers = 0usize;
    let mut polls_lost = 0usize;
    let mut polls_blocked = 0usize;
    let mut ge_bad: BTreeMap<NodeId, bool> = BTreeMap::new();
    let mut per_round_new = Vec::new();

    while holders.len() < live.len() && pull_rounds < config.max_rounds {
        pull_rounds += 1;
        // Partitions read the 1-based round index as their time axis.
        let round_time = pull_rounds as f64;
        let mut obtained_this_round = Vec::new();
        for &node in live.iter().filter(|id| !holders.contains(id)) {
            let mut neighbours: Vec<NodeId> = overlay
                .r_links(node)
                .into_iter()
                .filter(|&peer| peer != node && overlay.is_live(peer))
                .collect();
            neighbours.shuffle(rng);
            neighbours.truncate(config.fanout);
            pull_requests += neighbours.len();
            let round_u = to_u32(pull_rounds);
            // Every poll draws its loss sample (no short-circuit): the
            // draw schedule must not depend on holder state, or the dense
            // engine's stream would drift from the oracle's.
            let mut serving: Option<NodeId> = None;
            for &peer in &neighbours {
                probe.record(TraceEvent::PullRequest {
                    from: node.as_u64(),
                    to: peer.as_u64(),
                    round: round_u,
                });
                if config.net.blocks(node, peer, round_time) {
                    polls_blocked += 1;
                    probe.record(TraceEvent::PollBlocked {
                        from: node.as_u64(),
                        to: peer.as_u64(),
                        round: round_u,
                    });
                    continue;
                }
                if !config.net.loss.is_none() {
                    let bad = ge_bad.entry(node).or_insert(false);
                    if config.net.loss.sample(bad, rng) {
                        polls_lost += 1;
                        probe.record(TraceEvent::PollLost {
                            from: node.as_u64(),
                            to: peer.as_u64(),
                            round: round_u,
                        });
                        continue;
                    }
                }
                if holders.contains(&peer) && serving.is_none() {
                    serving = Some(peer);
                }
            }
            if let Some(peer) = serving {
                pull_transfers += 1;
                obtained_this_round.push(node);
                probe.record(TraceEvent::PullTransfer {
                    from: node.as_u64(),
                    to: peer.as_u64(),
                    round: round_u,
                });
            }
        }
        per_round_new.push(obtained_this_round.len());
        probe.record(TraceEvent::RoundEnd {
            round: to_u32(pull_rounds),
            new: obtained_this_round.len() as u64,
        });
        if obtained_this_round.is_empty()
            && per_round_new.len() >= 3
            && per_round_new.iter().rev().take(3).all(|&n| n == 0)
        {
            // Three consecutive dry rounds: the remaining nodes almost
            // certainly have no live links into the holder set (isolated by
            // failures); polling further cannot help. Fewer than three
            // recorded rounds never trigger the cutoff — a single unlucky
            // all-miss round must not end the phase.
            break;
        }
        holders.extend(obtained_this_round);
    }

    let unreached_after_pull: Vec<NodeId> = live
        .iter()
        .copied()
        .filter(|id| !holders.contains(id))
        .collect();

    PushPullReport {
        push,
        pull_rounds,
        pull_requests,
        pull_transfers,
        per_round_new,
        reached_after_pull: holders.len(),
        unreached_after_pull,
        polls_lost,
        polls_blocked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::tests::warmed_network;
    use hybridcast_core::overlay::{DenseOverlay, SnapshotOverlay};
    use hybridcast_core::pull::{disseminate_push_pull_dense, DensePullScratch};
    use hybridcast_obs::NullProbe;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn warmed_overlay(nodes: usize, seed: u64) -> SnapshotOverlay {
        SnapshotOverlay::new(warmed_network(nodes, seed).overlay_snapshot())
    }

    #[test]
    fn dense_pull_matches_generic_engine() {
        let overlay = warmed_overlay(300, 11);
        let dense = DenseOverlay::from(&overlay);
        let origin = overlay.snapshot().live_nodes().next().unwrap();
        let mut scratch = DensePullScratch::new();
        for (seed, selector) in [
            (20u64, DenseSelector::randcast(2)),
            (21, DenseSelector::ringcast(1)),
            (22, DenseSelector::randcast(1)),
        ] {
            let config = PullConfig {
                fanout: 1,
                max_rounds: 40,
                ..PullConfig::default()
            };
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let slow = disseminate_push_pull(
                &overlay,
                &selector,
                origin,
                &config,
                &mut rng,
                &mut NullProbe,
            );
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let fast = disseminate_push_pull_dense(
                &dense,
                &selector,
                origin,
                &config,
                &mut rng,
                &mut scratch,
            )
            .report(&dense, &scratch);
            assert_eq!(slow, fast, "{} diverged at seed {seed}", selector.name());
        }
    }

    #[test]
    fn dense_pull_matches_generic_engine_after_failures() {
        let mut overlay = warmed_overlay(300, 12);
        let mut failure_rng = ChaCha8Rng::seed_from_u64(13);
        hybridcast_sim::failure::kill_fraction_in_snapshot(
            overlay.snapshot_mut(),
            0.10,
            &mut failure_rng,
        );
        let dense = DenseOverlay::from(&overlay);
        let origin = overlay.snapshot().live_nodes().next().unwrap();
        let selector = DenseSelector::randcast(3);
        let config = PullConfig {
            fanout: 2,
            max_rounds: 30,
            ..PullConfig::default()
        };
        let mut scratch = DensePullScratch::new();
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let slow = disseminate_push_pull(
            &overlay,
            &selector,
            origin,
            &config,
            &mut rng,
            &mut NullProbe,
        );
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let fast =
            disseminate_push_pull_dense(&dense, &selector, origin, &config, &mut rng, &mut scratch)
                .report(&dense, &scratch);
        assert_eq!(slow, fast);
        assert!(fast.push.messages_to_dead > 0, "stale links hit dead nodes");
    }

    #[test]
    fn lossy_polls_slow_the_pull_phase_but_equality_holds_across_engines() {
        use hybridcast_core::netmodel::{LossModel, NetModel};
        let overlay = warmed_overlay(400, 19);
        let dense = DenseOverlay::from(&overlay);
        let origin = overlay.snapshot().live_nodes().next().unwrap();
        let clean = PullConfig {
            fanout: 1,
            max_rounds: 60,
            ..PullConfig::default()
        };
        let lossy = PullConfig {
            net: NetModel {
                loss: LossModel::Iid { rate: 0.5 },
                ..NetModel::default()
            },
            ..clean.clone()
        };
        let baseline = disseminate_push_pull(
            &overlay,
            &DenseSelector::randcast(2),
            origin,
            &clean,
            &mut ChaCha8Rng::seed_from_u64(20),
            &mut NullProbe,
        );
        let degraded = disseminate_push_pull(
            &overlay,
            &DenseSelector::randcast(2),
            origin,
            &lossy,
            &mut ChaCha8Rng::seed_from_u64(20),
            &mut NullProbe,
        );
        assert!(degraded.polls_lost > 0, "half the polls should be eaten");
        assert_eq!(degraded.polls_blocked, 0);
        assert!(
            degraded.pull_rounds >= baseline.pull_rounds,
            "loss cannot speed up anti-entropy: {} < {}",
            degraded.pull_rounds,
            baseline.pull_rounds
        );
        // Dense engine stays bit-identical under the lossy model.
        let mut scratch = DensePullScratch::new();
        let fast = disseminate_push_pull_dense(
            &dense,
            &DenseSelector::randcast(2),
            origin,
            &lossy,
            &mut ChaCha8Rng::seed_from_u64(20),
            &mut scratch,
        )
        .report(&dense, &scratch);
        assert_eq!(degraded, fast);
    }
}
