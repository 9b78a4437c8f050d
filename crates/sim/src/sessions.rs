//! Session-based churn: a trace-like alternative to the artificial model.
//!
//! The paper calibrates its artificial churn model (a fixed fraction of the
//! nodes replaced per cycle, [`crate::churn`]) against the Gnutella
//! measurements of Saroiu et al. Those measurements also show that real
//! session lengths are heavily skewed: most peers stay only briefly while a
//! few stay for a very long time. This module provides a churn driver in
//! which every node draws an explicit *session length* at join time from a
//! configurable distribution — exponential or Pareto (heavy-tailed) — and
//! departs when its session expires, while new nodes keep arriving at a
//! constant rate.
//!
//! Compared to the artificial model this produces the realistic lifetime
//! mix of Figure 12 (many young nodes, a long tail of old ones) without
//! assuming that the departing nodes are chosen uniformly at random.

use std::collections::BTreeMap;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use hybridcast_graph::NodeId;

use crate::runtime::GossipRuntime;

/// Distribution of session lengths (in gossip cycles).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SessionLength {
    /// Every session lasts exactly this many cycles.
    Fixed(u64),
    /// Exponentially distributed with the given mean.
    Exponential {
        /// Mean session length in cycles.
        mean: f64,
    },
    /// Pareto (heavy-tailed) with the given minimum and shape; the shape
    /// must be above 1 for the mean to exist.
    Pareto {
        /// Minimum session length in cycles.
        scale: f64,
        /// Tail index; smaller values give heavier tails.
        shape: f64,
    },
}

impl SessionLength {
    /// Samples a session length (at least one cycle).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let value = match *self {
            SessionLength::Fixed(cycles) => cycles as f64,
            SessionLength::Exponential { mean } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                -mean * u.ln()
            }
            SessionLength::Pareto { scale, shape } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                scale / u.powf(1.0 / shape)
            }
        };
        value.max(1.0).round() as u64
    }

    /// Validates the distribution parameters.
    ///
    /// # Errors
    ///
    /// Returns an error for non-positive means/scales, a Pareto shape not
    /// above 1, or a zero fixed length.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            SessionLength::Fixed(0) => Err("fixed session length must be positive".into()),
            SessionLength::Exponential { mean } if mean <= 0.0 => {
                Err("exponential mean must be positive".into())
            }
            SessionLength::Pareto { scale, shape } if scale <= 0.0 || shape <= 1.0 => {
                Err("pareto requires scale > 0 and shape > 1".into())
            }
            _ => Ok(()),
        }
    }
}

/// Configuration of the session-based churn process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionChurnConfig {
    /// Number of new nodes joining per cycle (may be fractional; arrivals
    /// are accumulated so that e.g. 0.5 yields one join every two cycles).
    pub arrivals_per_cycle: f64,
    /// Distribution of session lengths.
    pub session_length: SessionLength,
}

impl SessionChurnConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if the arrival rate is negative or the session
    /// length distribution is invalid.
    pub fn validate(&self) -> Result<(), String> {
        if self.arrivals_per_cycle < 0.0 {
            return Err("arrival rate cannot be negative".into());
        }
        self.session_length.validate()
    }
}

/// Drives a [`GossipRuntime`] (the id-keyed [`crate::Network`] or the
/// arena-based [`crate::DenseSimNetwork`]) under session-based churn.
#[derive(Debug)]
pub struct SessionChurnDriver {
    config: SessionChurnConfig,
    rng: ChaCha8Rng,
    /// cycle at which each live node's session expires.
    departures: BTreeMap<NodeId, u64>,
    arrival_credit: f64,
    departed: u64,
    arrived: u64,
}

impl SessionChurnDriver {
    /// Creates a driver and assigns a session length to every node already
    /// in the network (measured from the current cycle).
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate.
    pub fn new<N: GossipRuntime + ?Sized>(
        config: SessionChurnConfig,
        network: &N,
        seed: u64,
    ) -> Self {
        config
            .validate()
            .expect("invalid session churn configuration");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let now = network.cycle();
        let departures = network
            .live_ids()
            .into_iter()
            .map(|id| (id, now + config.session_length.sample(&mut rng)))
            .collect();
        SessionChurnDriver {
            config,
            rng,
            departures,
            arrival_credit: 0.0,
            departed: 0,
            arrived: 0,
        }
    }

    /// Total number of departures processed so far.
    pub fn departed(&self) -> u64 {
        self.departed
    }

    /// Total number of arrivals processed so far.
    pub fn arrived(&self) -> u64 {
        self.arrived
    }

    /// The scheduled departure cycle of a live node, if it is tracked.
    pub fn departure_cycle(&self, id: NodeId) -> Option<u64> {
        self.departures.get(&id).copied()
    }

    /// Applies one churn step: removes every node whose session has expired
    /// at the network's current cycle, and admits the accumulated arrivals
    /// (each bootstrapped with a random live introducer and a freshly
    /// sampled session length).
    pub fn apply_step<N: GossipRuntime + ?Sized>(
        &mut self,
        network: &mut N,
    ) -> (Vec<NodeId>, Vec<NodeId>) {
        let now = network.cycle();

        let expired: Vec<NodeId> = self
            .departures
            .iter()
            .filter(|&(_, &deadline)| deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        for &id in &expired {
            self.departures.remove(&id);
            network.kill_node(id);
        }
        self.departed += expired.len() as u64;

        self.arrival_credit += self.config.arrivals_per_cycle;
        let mut joined = Vec::new();
        while self.arrival_credit >= 1.0 {
            self.arrival_credit -= 1.0;
            let introducer = network.random_live_node();
            let id = network.spawn_node(introducer);
            let deadline = now + self.config.session_length.sample(&mut self.rng);
            self.departures.insert(id, deadline);
            joined.push(id);
        }
        self.arrived += joined.len() as u64;

        (expired, joined)
    }

    /// Runs `cycles` gossip cycles, applying one churn step before each.
    pub fn run_cycles<N: GossipRuntime + ?Sized>(&mut self, network: &mut N, cycles: usize) {
        for _ in 0..cycles {
            self.apply_step(network);
            network.run_cycles(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::network::Network;

    fn network(nodes: usize, seed: u64) -> Network {
        Network::new(
            SimConfig {
                nodes,
                ..SimConfig::default()
            },
            seed,
        )
    }

    #[test]
    fn session_length_sampling_respects_parameters() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(SessionLength::Fixed(7).sample(&mut rng), 7);

        let exponential = SessionLength::Exponential { mean: 50.0 };
        let samples: Vec<u64> = (0..2_000).map(|_| exponential.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((mean - 50.0).abs() < 5.0, "empirical mean {mean}");
        assert!(samples.iter().all(|&s| s >= 1));

        let pareto = SessionLength::Pareto {
            scale: 10.0,
            shape: 2.0,
        };
        let samples: Vec<u64> = (0..2_000).map(|_| pareto.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&s| s >= 10));
        // Heavy tail: some sessions far exceed the scale.
        assert!(samples.iter().any(|&s| s > 50));
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(SessionLength::Fixed(0).validate().is_err());
        assert!(SessionLength::Exponential { mean: 0.0 }.validate().is_err());
        assert!(SessionLength::Pareto {
            scale: 1.0,
            shape: 1.0
        }
        .validate()
        .is_err());
        assert!(SessionChurnConfig {
            arrivals_per_cycle: -1.0,
            session_length: SessionLength::Fixed(5),
        }
        .validate()
        .is_err());
        assert!(SessionChurnConfig {
            arrivals_per_cycle: 2.0,
            session_length: SessionLength::Exponential { mean: 100.0 },
        }
        .validate()
        .is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid session churn configuration")]
    fn driver_rejects_invalid_config() {
        let net = network(10, 1);
        SessionChurnDriver::new(
            SessionChurnConfig {
                arrivals_per_cycle: 1.0,
                session_length: SessionLength::Fixed(0),
            },
            &net,
            1,
        );
    }

    #[test]
    fn expired_sessions_depart_and_arrivals_replace_them() {
        let mut net = network(100, 2);
        let config = SessionChurnConfig {
            arrivals_per_cycle: 2.0,
            session_length: SessionLength::Fixed(10),
        };
        let mut driver = SessionChurnDriver::new(config, &net, 3);
        driver.run_cycles(&mut net, 25);

        // Every bootstrap node's fixed 10-cycle session has expired.
        assert_eq!(driver.departed(), 100 + driver.arrived() - net.len() as u64);
        for node in net.nodes() {
            assert!(
                node.joined_at_cycle() > 0,
                "bootstrap node {} should have departed",
                node.id()
            );
        }
        // Arrivals: 2 per cycle for 25 cycles.
        assert_eq!(driver.arrived(), 50);
    }

    #[test]
    fn fractional_arrival_rates_accumulate() {
        let mut net = network(50, 4);
        let config = SessionChurnConfig {
            arrivals_per_cycle: 0.25,
            session_length: SessionLength::Exponential { mean: 200.0 },
        };
        let mut driver = SessionChurnDriver::new(config, &net, 5);
        driver.run_cycles(&mut net, 40);
        assert_eq!(driver.arrived(), 10, "0.25 arrivals/cycle over 40 cycles");
    }

    #[test]
    fn heavy_tailed_sessions_keep_some_old_nodes_alive() {
        let mut net = network(200, 6);
        let config = SessionChurnConfig {
            arrivals_per_cycle: 4.0,
            session_length: SessionLength::Pareto {
                scale: 5.0,
                shape: 1.5,
            },
        };
        let mut driver = SessionChurnDriver::new(config, &net, 7);
        driver.run_cycles(&mut net, 100);

        let now = net.cycle();
        let old_nodes = net
            .nodes()
            .filter(|n| now - n.joined_at_cycle() >= 80)
            .count();
        let young_nodes = net
            .nodes()
            .filter(|n| now - n.joined_at_cycle() < 20)
            .count();
        assert!(
            old_nodes > 0,
            "a heavy tail must keep some long-lived nodes around"
        );
        assert!(
            young_nodes > old_nodes,
            "most nodes are young ({young_nodes} young vs {old_nodes} old)"
        );
        assert!(driver.departure_cycle(net.live_ids()[0]).is_some());
    }

    #[test]
    fn dissemination_still_works_under_session_churn() {
        let mut net = network(150, 8);
        let config = SessionChurnConfig {
            arrivals_per_cycle: 1.0,
            session_length: SessionLength::Exponential { mean: 120.0 },
        };
        let mut driver = SessionChurnDriver::new(config, &net, 9);
        driver.run_cycles(&mut net, 120);

        // The overlay under churn is still healthy: views are populated and
        // mostly point at live nodes.
        let mut live_links = 0usize;
        let mut total_links = 0usize;
        for node in net.nodes() {
            for peer in node.cyclon().view().node_ids() {
                total_links += 1;
                if net.is_live(peer) {
                    live_links += 1;
                }
            }
        }
        assert!(total_links > 0);
        assert!(
            live_links as f64 > 0.8 * total_links as f64,
            "{live_links}/{total_links} live links"
        );
    }
}
