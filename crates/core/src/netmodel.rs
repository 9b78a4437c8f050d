//! Adversarial network models for the event-driven engine.
//!
//! The paper evaluates reliability under *node* failure and churn but
//! assumes an idealized network: every message arrives, after a uniformly
//! jittered delay. Real deployments lose, delay and partition *messages*.
//! This module provides the [`NetModel`] that the async engine
//! ([`crate::async_engine`]) threads through its per-message hot path:
//!
//! * [`DelayModel`] — per-message forwarding delays: the legacy uniform
//!   jitter or a log-normal heavy tail;
//! * [`LossModel`] — independent (i.i.d. Bernoulli) per-message loss;
//! * [`PartitionEvent`] — one scripted bisection of the node set: during
//!   `[start, start + duration)` every message whose endpoints fall on
//!   opposite sides of the (salt-keyed, pseudo-random) cut is dropped.
//!
//! Everything samples from the caller's per-run `ChaCha8` stream with a
//! *fixed draw schedule* (a given model variant always consumes the same
//! number of draws per message), which is what keeps the dense engine
//! bit-identical to its BTree oracle under every model, and every
//! scenario seed-reproducible and thread-fan-out invariant.
//!
//! The contract the test layer pins: [`NetModel::default()`] — no loss, no
//! partition, legacy fixed-jitter delays — consumes *exactly* the draws the
//! pre-model engines consumed, so default-model reports are bit-identical
//! to the engines as they existed before the model was introduced.

use rand::{Rng, RngCore};

use hybridcast_graph::NodeId;

/// The shared jitter rule of the async engines: a multiplicative uniform
/// perturbation of ±`jitter`, drawn as exactly one `f64` — or no draw at
/// all when the jitter or the base duration is zero. Keeping this in one
/// place is what keeps the RNG streams of all engines aligned: the
/// fixed-jitter delay model draws through it, and so do the gossip timers
/// of the id-keyed live-membership oracle, which is why it is public.
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
}

impl DelayModel {
    /// Samples one forwarding delay. `base` and `jitter` are the engine
    /// configuration's legacy parameters, used by [`DelayModel::FixedJitter`].
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
        }
    }

    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if a log-normal parameter is non-finite or `sigma`
    /// is negative.
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
        }
    }
}

/// Per-message loss model.
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
}

impl LossModel {
    /// Samples whether one message is lost. [`LossModel::None`] draws
    /// nothing.
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> bool {
        match *self {
            LossModel::None => false,
            LossModel::Iid { rate } => rng.gen::<f64>() < rate,
        }
    }

    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns an error if the loss rate is non-finite or outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            LossModel::None => Ok(()),
            LossModel::Iid { rate } => {
                if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                    return Err("loss rate must be a probability within [0, 1]".into());
                }
                Ok(())
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
/// is in force during `[start, start + duration)` (simulated time) and
/// heals afterwards.
///
/// The side of a node is a pure function of its id and the event's `salt`
/// (a SplitMix64 hash bit), so the cut is identical in the id-keyed and
/// dense engines, splits any node population roughly in half, and
/// different salts cut along independent bisections.
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
/// loss process and an optional scripted partition.
///
/// The default — fixed-jitter delays, no loss, no partition — is the
/// bit-identity contract: engines running it consume exactly the RNG
/// draws of the pre-model engines and produce identical reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetModel {
    /// Per-message forwarding-delay distribution.
    pub delay: DelayModel,
    /// Per-message loss process.
    pub loss: LossModel,
    /// Scripted bisection that opens and heals mid-run, if any.
    pub partition: Option<PartitionEvent>,
}

impl NetModel {
    /// `true` if a message sent from `a` to `b` at `time` is cut by the
    /// active partition. Decided at *send* time: a link into a partition
    /// fails immediately, while messages already in flight (sent before
    /// the partition, however long their delay) still arrive.
    pub fn blocks(&self, a: NodeId, b: NodeId, time: f64) -> bool {
        self.partition
            .is_some_and(|p| p.active_at(time) && p.separates(a, b))
    }

    /// Validates every component of the model.
    ///
    /// # Errors
    ///
    /// Returns an error if the delay model, the loss model or the
    /// partition event is invalid.
    pub fn validate(&self) -> Result<(), String> {
        self.delay.validate()?;
        self.loss.validate()?;
        self.partition.map_or(Ok(()), |event| event.validate())
    }
}

/// The re-convergence time of a scripted partition: how long after its
/// heal instant the last notification landed (`None` without a partition,
/// or if nothing was notified at or after the heal). `times` is the run's
/// notification times in any order; the result is order-insensitive.
pub fn partition_recovery(
    partition: Option<PartitionEvent>,
    times: impl Iterator<Item = f64>,
) -> Option<f64> {
    let heal = partition?.end();
    times
        .filter(|&time| time >= heal)
        .reduce(f64::max)
        .map(|last| last - heal)
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
    fn iid_loss_hits_the_configured_rate() {
        let model = LossModel::Iid { rate: 0.2 };
        let mut r = rng(6);
        let n = 50_000usize;
        let lost = (0..n).filter(|_| model.sample(&mut r)).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.01, "iid loss rate was {rate}");
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
            partition: Some(event),
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
        let times = [0.0, 3.0, 6.0, 9.5];
        let early = PartitionEvent::bisection(2.0, 4.0, 1); // heals at 6.0
        let recovery = partition_recovery(Some(early), times.iter().copied());
        assert_eq!(recovery, Some(3.5), "last notification 9.5, heal 6.0");
        let late = PartitionEvent::bisection(10.0, 5.0, 2); // heals at 15.0
        let recovery = partition_recovery(Some(late), times.iter().copied());
        assert_eq!(recovery, None, "nothing landed after 15.0");
        assert_eq!(partition_recovery(None, times.iter().copied()), None);
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
            partition: Some(degenerate),
            ..NetModel::default()
        };
        for n in 1..50 {
            assert!(!model.blocks(NodeId::new(0), NodeId::new(n), 5.0));
        }

        // And recovery measurement treats every notification as landing
        // after the (instantaneous) heal.
        let recovery = partition_recovery(Some(degenerate), [5.0, 7.5].into_iter());
        assert_eq!(recovery, Some(2.5));

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
    fn validation_rejects_malformed_models() {
        assert!(NetModel::default().validate().is_ok());

        assert!(LossModel::Iid { rate: -0.1 }.validate().is_err());
        assert!(LossModel::Iid { rate: 1.5 }.validate().is_err());
        assert!(LossModel::Iid { rate: f64::NAN }.validate().is_err());
        assert!(LossModel::Iid { rate: 0.0 }.validate().is_ok());

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

        assert!(PartitionEvent::bisection(-1.0, 2.0, 0).validate().is_err());
        assert!(PartitionEvent::bisection(1.0, 0.0, 0).validate().is_err());
        assert!(PartitionEvent::bisection(1.0, -2.0, 0).validate().is_err());
        assert!(PartitionEvent::bisection(f64::NAN, 2.0, 0)
            .validate()
            .is_err());
        assert!(PartitionEvent::bisection(1.0, 2.0, 0).validate().is_ok());
        let model = NetModel {
            partition: Some(PartitionEvent::bisection(1.0, -2.0, 0)),
            ..NetModel::default()
        };
        assert!(model.validate().is_err());
    }
}
