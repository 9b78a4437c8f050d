//! Adversarial network models for the event-driven and pull engines.
//!
//! The paper evaluates reliability under *node* failure and churn but
//! assumes an idealized network: every message arrives, after a uniformly
//! jittered delay. Real deployments lose, delay and partition *messages*.
//! This module provides the pluggable [`NetModel`] that the async engines
//! ([`crate::async_engine`]) and the pull engines ([`crate::pull`]) thread
//! through their per-message hot paths:
//!
//! * [`DelayModel`] — per-message forwarding delays: the legacy uniform
//!   jitter, a log-normal heavy tail, or a bimodal same-DC/WAN mixture;
//! * [`LossModel`] — per-message loss: i.i.d. Bernoulli or a bursty
//!   Gilbert–Elliott two-state chain (one chain per sending node);
//! * [`PartitionEvent`] — a scripted timeline of node-set bisections:
//!   during `[start, start + duration)` every message whose endpoints fall
//!   on opposite sides of the (salt-keyed, pseudo-random) bisection is
//!   dropped.
//!
//! Everything samples from the caller's per-run `ChaCha8` stream with a
//! *fixed draw schedule* (a given model variant always consumes the same
//! number of draws per message), which is what keeps the dense engines
//! bit-identical to their BTree oracles under every model, and every
//! scenario seed-reproducible and thread-fan-out invariant.
//!
//! The contract the test layer pins: [`NetModel::default()`] — no loss, no
//! partitions, legacy fixed-jitter delays — consumes *exactly* the draws the
//! pre-model engines consumed, so default-model reports are bit-identical
//! to the engines as they existed before the model was introduced.

use rand::{Rng, RngCore};

use hybridcast_graph::NodeId;

/// The shared jitter rule of the async engines: a multiplicative uniform
/// perturbation of ±`jitter`, drawn as exactly one `f64` — or no draw at
/// all when the jitter or the base duration is zero. Keeping this in one
/// place is what keeps the RNG streams of all engines aligned: the delay
/// models draw through it, and so do the gossip timers of the id-keyed
/// live-membership oracle, which is why it is public.
pub fn jittered<R: RngCore + ?Sized>(base: f64, rng: &mut R, jitter: f64) -> f64 {
    if jitter == 0.0 || base == 0.0 {
        base
    } else {
        base * (1.0 + jitter * (rng.gen::<f64>() * 2.0 - 1.0))
    }
}

/// Per-message forwarding-delay distribution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DelayModel {
    /// The legacy model: the configured base delay under the configured
    /// multiplicative uniform jitter. Draw schedule: one `f64`, or none
    /// when the jitter or the base delay is zero — exactly the pre-model
    /// engines' schedule, which is what makes this the bit-identity
    /// default.
    #[default]
    FixedJitter,
    /// Heavy-tailed log-normal delays: `exp(mu + sigma * Z)` with `Z`
    /// standard normal (Box–Muller). Ignores the base delay and jitter.
    /// Draw schedule: exactly two `f64`s per message.
    LogNormal {
        /// Mean of the underlying normal (log of the median delay).
        mu: f64,
        /// Standard deviation of the underlying normal; larger means a
        /// heavier tail.
        sigma: f64,
    },
    /// Bimodal same-datacenter vs WAN delays: with probability
    /// `wan_fraction` the message takes `wan_delay`, otherwise
    /// `local_delay`, each under the configured multiplicative jitter.
    /// Draw schedule: one `f64` for the mode, plus the fixed-jitter
    /// schedule for the chosen base.
    Bimodal {
        /// Base delay of the fast (same-DC) mode.
        local_delay: f64,
        /// Base delay of the slow (WAN) mode.
        wan_delay: f64,
        /// Probability that a message takes the WAN mode, in `[0, 1]`.
        wan_fraction: f64,
    },
}

impl DelayModel {
    /// Samples one forwarding delay. `base` and `jitter` are the engine
    /// configuration's legacy parameters, used by [`DelayModel::FixedJitter`]
    /// and (jitter only, around the chosen mode) [`DelayModel::Bimodal`].
    pub fn sample<R: RngCore + ?Sized>(&self, base: f64, jitter: f64, rng: &mut R) -> f64 {
        match *self {
            DelayModel::FixedJitter => jittered(base, rng, jitter),
            DelayModel::LogNormal { mu, sigma } => {
                // Box–Muller; 1 - u keeps the argument of ln in (0, 1].
                let u1 = 1.0 - rng.gen::<f64>();
                let u2 = rng.gen::<f64>();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (mu + sigma * z).exp()
            }
            DelayModel::Bimodal {
                local_delay,
                wan_delay,
                wan_fraction,
            } => {
                let mode = if rng.gen::<f64>() < wan_fraction {
                    wan_delay
                } else {
                    local_delay
                };
                jittered(mode, rng, jitter)
            }
        }
    }

    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if any parameter is non-finite, a delay is
    /// negative, `sigma` is negative, or `wan_fraction` is outside
    /// `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            DelayModel::FixedJitter => Ok(()),
            DelayModel::LogNormal { mu, sigma } => {
                if !mu.is_finite() || !sigma.is_finite() {
                    return Err("log-normal delay parameters must be finite".into());
                }
                if sigma < 0.0 {
                    return Err("log-normal sigma cannot be negative".into());
                }
                Ok(())
            }
            DelayModel::Bimodal {
                local_delay,
                wan_delay,
                wan_fraction,
            } => {
                if !local_delay.is_finite() || !wan_delay.is_finite() || !wan_fraction.is_finite() {
                    return Err("bimodal delay parameters must be finite".into());
                }
                if local_delay < 0.0 || wan_delay < 0.0 {
                    return Err("bimodal delays cannot be negative".into());
                }
                if !(0.0..=1.0).contains(&wan_fraction) {
                    return Err("bimodal wan fraction must be within [0, 1]".into());
                }
                Ok(())
            }
        }
    }
}

/// Per-message loss model.
///
/// Stateful variants (Gilbert–Elliott) keep one chain per *sending* node —
/// the model of a node's flaky uplink, where consecutive messages from the
/// same sender see correlated conditions. The engines own the state (a
/// `bool` per node, `false` = good) and pass it to [`LossModel::sample`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LossModel {
    /// No loss, no draws — the bit-identity default.
    #[default]
    None,
    /// Independent per-message loss with probability `rate`. Draw
    /// schedule: exactly one `f64` per message.
    Iid {
        /// Loss probability in `[0, 1]`.
        rate: f64,
    },
    /// Bursty Gilbert–Elliott loss: a two-state (good/bad) Markov chain
    /// advanced once per message sent, with state-dependent loss
    /// probabilities. Stationary loss rate:
    /// `π_bad * loss_bad + (1 - π_bad) * loss_good` with
    /// `π_bad = p_enter_bad / (p_enter_bad + p_exit_bad)`.
    /// Draw schedule: exactly two `f64`s per message (transition, loss).
    GilbertElliott {
        /// Probability of moving good → bad at each message.
        p_enter_bad: f64,
        /// Probability of moving bad → good at each message.
        p_exit_bad: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state (the burst).
        loss_bad: f64,
    },
}

impl LossModel {
    /// `true` for [`LossModel::None`] — engines use this to skip the
    /// per-sender state bookkeeping entirely on the default path.
    pub fn is_none(&self) -> bool {
        matches!(self, LossModel::None)
    }

    /// Samples whether one message is lost. `bad` is the sending node's
    /// Gilbert–Elliott state (`false` = good), updated in place; it is
    /// ignored by the stateless variants.
    pub fn sample<R: RngCore + ?Sized>(&self, bad: &mut bool, rng: &mut R) -> bool {
        match *self {
            LossModel::None => false,
            LossModel::Iid { rate } => rng.gen::<f64>() < rate,
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                let u = rng.gen::<f64>();
                *bad = if *bad {
                    u >= p_exit_bad
                } else {
                    u < p_enter_bad
                };
                let loss = if *bad { loss_bad } else { loss_good };
                rng.gen::<f64>() < loss
            }
        }
    }

    /// The long-run fraction of messages lost under this model.
    pub fn stationary_loss_rate(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Iid { rate } => rate,
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                let denom = p_enter_bad + p_exit_bad;
                if denom == 0.0 {
                    // The chain never leaves its initial (good) state.
                    return loss_good;
                }
                let pi_bad = p_enter_bad / denom;
                pi_bad * loss_bad + (1.0 - pi_bad) * loss_good
            }
        }
    }

    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if any probability is non-finite or outside
    /// `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        let prob = |name: &str, p: f64| -> Result<(), String> {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be a probability within [0, 1]"));
            }
            Ok(())
        };
        match *self {
            LossModel::None => Ok(()),
            LossModel::Iid { rate } => prob("loss rate", rate),
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                prob("burst entry probability", p_enter_bad)?;
                prob("burst exit probability", p_exit_bad)?;
                prob("good-state loss probability", loss_good)?;
                prob("bad-state loss probability", loss_bad)
            }
        }
    }
}

/// SplitMix64 finalizer, used to derive partition sides from node ids.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One scripted partition: a pseudo-random bisection of the node set that
/// is in force during `[start, start + duration)` and heals afterwards.
///
/// The side of a node is a pure function of its id and the event's `salt`
/// (a SplitMix64 hash bit), so the cut is identical in the id-keyed and
/// dense engines, splits any node population roughly in half, and two
/// events with different salts cut along independent bisections. In the
/// event-driven engines `start`/`duration` are simulated time; the
/// round-based pull engines read them as pull-round indices (round `r`
/// is blocked when `start <= r < start + duration`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionEvent {
    /// Time (or pull round) at which the partition appears.
    pub start: f64,
    /// How long the partition lasts; it heals at `start + duration`.
    pub duration: f64,
    /// Seed of the bisection: different salts cut different halves.
    pub salt: u64,
}

impl PartitionEvent {
    /// A bisection of the node set active during `[start, start + duration)`.
    pub fn bisection(start: f64, duration: f64, salt: u64) -> Self {
        PartitionEvent {
            start,
            duration,
            salt,
        }
    }

    /// The instant the partition heals.
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }

    /// `true` while the partition is in force (`start <= time < end`).
    pub fn active_at(&self, time: f64) -> bool {
        time >= self.start && time < self.end()
    }

    /// Which side of the bisection `node` falls on.
    pub fn side(&self, node: NodeId) -> bool {
        mix(node.as_u64() ^ self.salt) & 1 == 1
    }

    /// `true` if the two nodes fall on opposite sides of the bisection.
    pub fn separates(&self, a: NodeId, b: NodeId) -> bool {
        self.side(a) != self.side(b)
    }

    /// Validates the event.
    ///
    /// # Errors
    ///
    /// Returns an error if the start is negative or non-finite, or the
    /// duration is non-positive or non-finite.
    pub fn validate(&self) -> Result<(), String> {
        if !self.start.is_finite() || self.start < 0.0 {
            return Err("partition start must be finite and non-negative".into());
        }
        if !self.duration.is_finite() || self.duration <= 0.0 {
            return Err("partition duration must be finite and positive".into());
        }
        Ok(())
    }
}

/// The full adversarial network model of one run: delay distribution,
/// loss process and scripted partition timeline.
///
/// The default — fixed-jitter delays, no loss, no partitions — is the
/// bit-identity contract: engines running it consume exactly the RNG
/// draws of the pre-model engines and produce identical reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetModel {
    /// Per-message forwarding-delay distribution.
    pub delay: DelayModel,
    /// Per-message loss process.
    pub loss: LossModel,
    /// Scripted partition/heal timeline. Events may overlap; a message is
    /// dropped if *any* active event separates its endpoints at send time.
    pub partitions: Vec<PartitionEvent>,
}

impl NetModel {
    /// `true` when the model is the bit-identity default (fixed-jitter
    /// delays, no loss, no partitions).
    pub fn is_default(&self) -> bool {
        self.delay == DelayModel::FixedJitter && self.loss.is_none() && self.partitions.is_empty()
    }

    /// `true` if a message sent from `a` to `b` at `time` is cut by an
    /// active partition. Decided at *send* time: a link into a partition
    /// fails immediately, while messages already in flight (sent before
    /// the partition, however long their delay) still arrive.
    pub fn blocks(&self, a: NodeId, b: NodeId, time: f64) -> bool {
        self.partitions
            .iter()
            .any(|p| p.active_at(time) && p.separates(a, b))
    }

    /// Validates every component of the model.
    ///
    /// # Errors
    ///
    /// Returns an error if the delay model, the loss model or any
    /// partition event is invalid.
    pub fn validate(&self) -> Result<(), String> {
        self.delay.validate()?;
        self.loss.validate()?;
        for event in &self.partitions {
            event.validate()?;
        }
        Ok(())
    }
}

/// Per-partition re-convergence times: for each scripted event, how long
/// after its heal instant the last notification landed (`None` if nothing
/// was notified at or after the heal). `times` is the run's notification
/// times in any order; the result is order-insensitive.
pub fn partition_recovery(
    partitions: &[PartitionEvent],
    times: impl Iterator<Item = f64>,
) -> Vec<Option<f64>> {
    let mut last_after: Vec<Option<f64>> = vec![None; partitions.len()];
    for time in times {
        for (slot, event) in last_after.iter_mut().zip(partitions) {
            if time >= event.end() && slot.map_or(true, |current| time > current) {
                *slot = Some(time);
            }
        }
    }
    last_after
        .iter()
        .zip(partitions)
        .map(|(last, event)| last.map(|t| t - event.end()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn fixed_jitter_matches_legacy_rule_draw_for_draw() {
        let model = DelayModel::FixedJitter;
        let mut a = rng(1);
        let mut b = rng(1);
        for _ in 0..100 {
            assert_eq!(model.sample(2.0, 0.1, &mut a), jittered(2.0, &mut b, 0.1));
        }
        // Zero jitter and zero base consume no draws.
        let before = rng(2).gen::<f64>();
        let mut r = rng(2);
        assert_eq!(model.sample(2.0, 0.0, &mut r), 2.0);
        assert_eq!(model.sample(0.0, 0.1, &mut r), 0.0);
        assert_eq!(r.gen::<f64>(), before, "no draws were consumed");
    }

    #[test]
    fn log_normal_mean_and_tail_quantile_are_sane() {
        let (mu, sigma) = (0.0f64, 1.0f64);
        let model = DelayModel::LogNormal { mu, sigma };
        let mut r = rng(3);
        let n = 40_000usize;
        let samples: Vec<f64> = (0..n).map(|_| model.sample(1.0, 0.1, &mut r)).collect();
        assert!(samples.iter().all(|&d| d > 0.0));
        let mean = samples.iter().sum::<f64>() / n as f64;
        let expected_mean = (mu + sigma * sigma / 2.0).exp();
        assert!(
            (mean - expected_mean).abs() < 0.1 * expected_mean,
            "log-normal mean {mean} far from {expected_mean}"
        );
        // 90th percentile of LogNormal(0, 1) is exp(1.2816) ≈ 3.602.
        let q90 = (mu + 1.281_551_6 * sigma).exp();
        let above = samples.iter().filter(|&&d| d > q90).count() as f64 / n as f64;
        assert!(
            (above - 0.10).abs() < 0.01,
            "tail mass above the 90th percentile was {above}"
        );
        // Heavy tail: the maximum dwarfs the median.
        let median = (mu).exp();
        assert!(samples.iter().cloned().fold(0.0, f64::max) > 10.0 * median);
    }

    #[test]
    fn bimodal_mixes_the_two_modes_at_the_configured_fraction() {
        let model = DelayModel::Bimodal {
            local_delay: 1.0,
            wan_delay: 20.0,
            wan_fraction: 0.25,
        };
        // With zero jitter the support is exactly the two modes.
        let mut r = rng(4);
        let n = 20_000usize;
        let mut wan = 0usize;
        for _ in 0..n {
            let d = model.sample(999.0, 0.0, &mut r);
            assert!(d == 1.0 || d == 20.0, "unexpected delay {d}");
            if d == 20.0 {
                wan += 1;
            }
        }
        let fraction = wan as f64 / n as f64;
        assert!(
            (fraction - 0.25).abs() < 0.02,
            "WAN fraction was {fraction}"
        );
        // Mean under jitter stays near the mixture mean (jitter is
        // symmetric around 1).
        let mut r = rng(5);
        let mean = (0..n).map(|_| model.sample(1.0, 0.1, &mut r)).sum::<f64>() / n as f64;
        let expected = 0.75 * 1.0 + 0.25 * 20.0;
        assert!((mean - expected).abs() < 0.15 * expected, "mean {mean}");
    }

    #[test]
    fn iid_loss_hits_the_configured_rate() {
        let model = LossModel::Iid { rate: 0.2 };
        let mut r = rng(6);
        let mut state = false;
        let n = 50_000usize;
        let lost = (0..n).filter(|_| model.sample(&mut state, &mut r)).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.01, "iid loss rate was {rate}");
        assert!(!state, "iid loss never touches the chain state");
        assert_eq!(model.stationary_loss_rate(), 0.2);
    }

    #[test]
    fn gilbert_elliott_stationary_loss_rate_within_tolerance() {
        let model = LossModel::GilbertElliott {
            p_enter_bad: 0.05,
            p_exit_bad: 0.20,
            loss_good: 0.01,
            loss_bad: 0.60,
        };
        // π_bad = 0.05 / 0.25 = 0.2 → rate = 0.2*0.6 + 0.8*0.01 = 0.128.
        let expected = model.stationary_loss_rate();
        assert!((expected - 0.128).abs() < 1e-12);
        let mut r = rng(7);
        let mut bad = false;
        let n = 200_000usize;
        let lost = (0..n).filter(|_| model.sample(&mut bad, &mut r)).count();
        let rate = lost as f64 / n as f64;
        assert!(
            (rate - expected).abs() < 0.01,
            "empirical GE loss rate {rate} vs stationary {expected}"
        );
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Same stationary rate as an i.i.d. model, but losses must clump:
        // the probability that a loss is followed by another loss exceeds
        // the marginal loss rate.
        let model = LossModel::GilbertElliott {
            p_enter_bad: 0.02,
            p_exit_bad: 0.10,
            loss_good: 0.0,
            loss_bad: 0.72,
        };
        let mut r = rng(8);
        let mut bad = false;
        let outcomes: Vec<bool> = (0..100_000)
            .map(|_| model.sample(&mut bad, &mut r))
            .collect();
        let rate = outcomes.iter().filter(|&&l| l).count() as f64 / outcomes.len() as f64;
        let after_loss: Vec<bool> = outcomes.windows(2).filter(|w| w[0]).map(|w| w[1]).collect();
        let burst_rate = after_loss.iter().filter(|&&l| l).count() as f64 / after_loss.len() as f64;
        assert!(
            burst_rate > 2.0 * rate,
            "burstiness missing: P(loss|loss) = {burst_rate}, P(loss) = {rate}"
        );
    }

    #[test]
    fn partition_blocks_exactly_during_its_window() {
        let event = PartitionEvent::bisection(5.0, 3.0, 0xC0FFEE);
        assert!(!event.active_at(4.999_999));
        assert!(event.active_at(5.0), "closed at the start instant");
        assert!(event.active_at(7.999_999));
        assert!(!event.active_at(8.0), "open at the heal instant");
        assert_eq!(event.end(), 8.0);

        // Find a separated pair and check the model-level gate.
        let a = NodeId::new(0);
        let b = (1..100)
            .map(NodeId::new)
            .find(|&n| event.separates(a, n))
            .expect("some node falls on the other side");
        let model = NetModel {
            partitions: vec![event],
            ..NetModel::default()
        };
        assert!(!model.blocks(a, b, 4.0), "before the partition");
        assert!(model.blocks(a, b, 5.0), "at the start");
        assert!(model.blocks(a, b, 6.5), "mid-partition");
        assert!(!model.blocks(a, b, 8.0), "healed");
        // Same-side pairs are never blocked.
        let c = (1..100)
            .map(NodeId::new)
            .find(|&n| !event.separates(a, n))
            .expect("some node shares the side");
        assert!(!model.blocks(a, c, 6.5));
        // The cut is symmetric.
        assert!(model.blocks(b, a, 6.5));
    }

    #[test]
    fn bisection_splits_roughly_in_half_and_depends_on_the_salt() {
        let event = PartitionEvent::bisection(0.0, 1.0, 77);
        let n = 10_000u64;
        let ones = (0..n).filter(|&i| event.side(NodeId::new(i))).count();
        assert!(
            (ones as f64 / n as f64 - 0.5).abs() < 0.03,
            "bisection is unbalanced: {ones}/{n}"
        );
        let other = PartitionEvent::bisection(0.0, 1.0, 78);
        let differing = (0..n)
            .filter(|&i| event.side(NodeId::new(i)) != other.side(NodeId::new(i)))
            .count();
        assert!(
            (differing as f64 / n as f64 - 0.5).abs() < 0.03,
            "salts should cut independent halves, differing = {differing}"
        );
    }

    #[test]
    fn partition_recovery_measures_time_past_the_heal() {
        let partitions = vec![
            PartitionEvent::bisection(2.0, 4.0, 1),  // heals at 6.0
            PartitionEvent::bisection(10.0, 5.0, 2), // heals at 15.0
        ];
        let times = [0.0, 3.0, 6.0, 9.5];
        let recovery = partition_recovery(&partitions, times.iter().copied());
        assert_eq!(recovery.len(), 2);
        assert_eq!(recovery[0], Some(3.5), "last notification 9.5, heal 6.0");
        assert_eq!(recovery[1], None, "nothing landed after 15.0");
        assert!(partition_recovery(&[], times.iter().copied()).is_empty());
    }

    #[test]
    fn zero_width_partition_windows_are_rejected_and_inert() {
        // A zero-duration window fails validation outright: it can never be
        // active (`start <= t < start` has no solutions), so accepting it
        // would silently script a no-op the experimenter believed ran.
        let degenerate = PartitionEvent::bisection(5.0, 0.0, 9);
        assert!(degenerate.validate().is_err());
        assert_eq!(degenerate.end(), degenerate.start);
        assert!(!degenerate.active_at(5.0), "empty window is never active");
        assert!(!degenerate.active_at(4.999_999));
        assert!(!degenerate.active_at(5.000_001));

        // Even if one sneaks past validation, the model-level gate stays
        // open: no pair is ever blocked by an empty window.
        let model = NetModel {
            partitions: vec![degenerate],
            ..NetModel::default()
        };
        for n in 1..50 {
            assert!(!model.blocks(NodeId::new(0), NodeId::new(n), 5.0));
        }

        // And recovery measurement treats every notification as landing
        // after the (instantaneous) heal.
        let recovery = partition_recovery(&[degenerate], [5.0, 7.5].into_iter());
        assert_eq!(recovery, vec![Some(2.5)]);

        // A positive duration below one ULP of the start passes validation
        // but is absorbed by the addition in `end()` — the window still
        // collapses to empty. Pin that float-rounding edge explicitly.
        let sliver = PartitionEvent::bisection(5.0, f64::MIN_POSITIVE, 9);
        assert!(sliver.validate().is_ok());
        assert_eq!(sliver.end(), 5.0, "sub-ULP duration rounds away");
        assert!(!sliver.active_at(5.0));

        // The smallest *effective* window: a duration of at least one ULP
        // survives the addition, and the half-open interval contains only
        // times in `[start, start + duration)`.
        let narrow = PartitionEvent::bisection(5.0, 1e-9, 9);
        assert!(narrow.validate().is_ok());
        assert!(narrow.end() > 5.0);
        assert!(narrow.active_at(5.0));
        assert!(!narrow.active_at(5.000_001));
    }

    #[test]
    fn degenerate_gilbert_elliott_rates_behave_as_documented() {
        // Frozen chain: with both transition probabilities zero the chain
        // never leaves its initial good state, so the stationary rate is
        // exactly `loss_good` (the 0/0 branch) and sampling never flips the
        // state bit.
        let frozen = LossModel::GilbertElliott {
            p_enter_bad: 0.0,
            p_exit_bad: 0.0,
            loss_good: 0.25,
            loss_bad: 1.0,
        };
        assert!(frozen.validate().is_ok());
        assert_eq!(frozen.stationary_loss_rate(), 0.25);
        let mut bad = false;
        let mut r = rng(101);
        for _ in 0..10_000 {
            frozen.sample(&mut bad, &mut r);
            assert!(!bad, "a frozen chain must never enter the bad state");
        }

        // Absorbing chain: entry probability 1, exit probability 0 — the
        // first draw lands in the bad state and stays there, so with
        // `loss_bad = 1` every message after the first draw is lost.
        let absorbing = LossModel::GilbertElliott {
            p_enter_bad: 1.0,
            p_exit_bad: 0.0,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        assert!(absorbing.validate().is_ok());
        assert_eq!(absorbing.stationary_loss_rate(), 1.0);
        let mut bad = false;
        let mut r = rng(102);
        for _ in 0..100 {
            assert!(absorbing.sample(&mut bad, &mut r));
            assert!(bad);
        }

        // Equal-loss states: when both states lose at the same rate the
        // chain is irrelevant and the stationary rate collapses to it.
        let flat = LossModel::GilbertElliott {
            p_enter_bad: 0.3,
            p_exit_bad: 0.6,
            loss_good: 0.2,
            loss_bad: 0.2,
        };
        assert!((flat.stationary_loss_rate() - 0.2).abs() < 1e-12);

        // NaN probabilities are rejected, in every parameter slot.
        for slot in 0..4 {
            let p = |i: usize| if i == slot { f64::NAN } else { 0.1 };
            let model = LossModel::GilbertElliott {
                p_enter_bad: p(0),
                p_exit_bad: p(1),
                loss_good: p(2),
                loss_bad: p(3),
            };
            assert!(model.validate().is_err(), "NaN in slot {slot} accepted");
        }
    }

    #[test]
    fn validation_rejects_malformed_models() {
        assert!(NetModel::default().validate().is_ok());
        assert!(NetModel::default().is_default());

        assert!(LossModel::Iid { rate: -0.1 }.validate().is_err());
        assert!(LossModel::Iid { rate: 1.5 }.validate().is_err());
        assert!(LossModel::Iid { rate: f64::NAN }.validate().is_err());
        assert!(LossModel::Iid { rate: 0.0 }.validate().is_ok());
        assert!(LossModel::GilbertElliott {
            p_enter_bad: 1.2,
            p_exit_bad: 0.5,
            loss_good: 0.0,
            loss_bad: 0.5,
        }
        .validate()
        .is_err());
        assert!(LossModel::GilbertElliott {
            p_enter_bad: 0.1,
            p_exit_bad: 0.5,
            loss_good: 0.0,
            loss_bad: -0.5,
        }
        .validate()
        .is_err());

        assert!(DelayModel::LogNormal {
            mu: 0.0,
            sigma: -1.0
        }
        .validate()
        .is_err());
        assert!(DelayModel::LogNormal {
            mu: f64::INFINITY,
            sigma: 1.0
        }
        .validate()
        .is_err());
        assert!(DelayModel::Bimodal {
            local_delay: -1.0,
            wan_delay: 5.0,
            wan_fraction: 0.1,
        }
        .validate()
        .is_err());
        assert!(DelayModel::Bimodal {
            local_delay: 1.0,
            wan_delay: 5.0,
            wan_fraction: 1.1,
        }
        .validate()
        .is_err());

        assert!(PartitionEvent::bisection(-1.0, 2.0, 0).validate().is_err());
        assert!(PartitionEvent::bisection(1.0, 0.0, 0).validate().is_err());
        assert!(PartitionEvent::bisection(1.0, -2.0, 0).validate().is_err());
        assert!(PartitionEvent::bisection(f64::NAN, 2.0, 0)
            .validate()
            .is_err());
        assert!(PartitionEvent::bisection(1.0, 2.0, 0).validate().is_ok());
        let model = NetModel {
            partitions: vec![PartitionEvent::bisection(1.0, -2.0, 0)],
            ..NetModel::default()
        };
        assert!(model.validate().is_err());
        assert!(!model.is_default());
    }
}
