//! Simulation parameters.

use hybridcast_graph::cast::idx;

/// Parameters of a simulated network, mirroring the experimental setup of
/// Section 7 of the paper.
///
/// The defaults reproduce the paper's per-node protocol parameters
/// (`cyc = vic = 20`, 100 warm-up cycles) with a smaller default population
/// so unit tests stay fast; the figure-reproduction harnesses override
/// [`SimConfig::nodes`] to 10,000.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of nodes instantiated at bootstrap (`N`).
    pub nodes: usize,
    /// Cyclon view length (`cyc`).
    pub cyclon_view: usize,
    /// Number of descriptors exchanged per Cyclon shuffle (`l`).
    pub cyclon_shuffle: usize,
    /// Vicinity view length (`vic`).
    pub vicinity_view: usize,
    /// Number of descriptors exchanged per Vicinity gossip.
    pub vicinity_gossip: usize,
    /// Number of warm-up cycles before dissemination experiments
    /// (the paper uses 100 for static scenarios).
    pub warmup_cycles: usize,
    /// Number of independent identifier rings each node participates in.
    ///
    /// `1` reproduces plain RingCast; higher values implement the
    /// "multiple rings" reliability extension from the paper's conclusions.
    pub rings: usize,
    /// Whether nodes run Vicinity at all. RandCast-only experiments can
    /// disable it to halve the gossip traffic.
    pub run_vicinity: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nodes: 1_000,
            cyclon_view: 20,
            cyclon_shuffle: 5,
            vicinity_view: 20,
            vicinity_gossip: 5,
            warmup_cycles: 100,
            rings: 1,
            run_vicinity: true,
        }
    }
}

impl SimConfig {
    /// A small configuration for quick tests (500 nodes, 60 warm-up cycles).
    pub fn small() -> Self {
        SimConfig {
            nodes: 500,
            warmup_cycles: 60,
            ..SimConfig::default()
        }
    }

    /// Validates the configuration, returning a human-readable description
    /// of the first problem found.
    ///
    /// # Errors
    ///
    /// Returns an error if any parameter is zero (except `rings`, which may
    /// be zero only when `run_vicinity` is `false`), if `rings` is zero
    /// while Vicinity is enabled, or if `nodes` is `u32::MAX` or more.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("node count must be positive".into());
        }
        // Dense node slots and the simulator's node ids are `u32` indices
        // (a boot assigns ids `0..nodes`; `spawn_node` refuses one past
        // `u32::MAX - 1`), and `u32::MAX` is the engines' "no node"
        // sentinel.
        if self.nodes >= idx(u32::MAX) {
            return Err(format!(
                "node count must be below {}, got {}",
                u32::MAX,
                self.nodes
            ));
        }
        if self.cyclon_view == 0 || self.cyclon_shuffle == 0 {
            return Err("cyclon view and shuffle lengths must be positive".into());
        }
        if self.run_vicinity {
            if self.vicinity_view == 0 || self.vicinity_gossip == 0 {
                return Err("vicinity view and gossip lengths must be positive".into());
            }
            if self.rings == 0 {
                return Err("at least one ring is required when vicinity runs".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_protocol_parameters() {
        let c = SimConfig::default();
        assert_eq!(c.cyclon_view, 20);
        assert_eq!(c.vicinity_view, 20);
        assert_eq!(c.warmup_cycles, 100);
        assert_eq!(c.rings, 1);
        assert!(c.run_vicinity);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_zero_parameters() {
        let c = SimConfig {
            nodes: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SimConfig {
            cyclon_view: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SimConfig {
            rings: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());

        // Zero rings is fine when vicinity does not run.
        let c = SimConfig {
            rings: 0,
            run_vicinity: false,
            ..SimConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_node_counts_past_the_dense_index_range() {
        let at = |nodes: usize| {
            SimConfig {
                nodes,
                ..SimConfig::default()
            }
            .validate()
        };
        assert!(at(u32::MAX as usize - 1).is_ok());
        assert_eq!(
            at(u32::MAX as usize),
            Err(format!("node count must be below {0}, got {0}", u32::MAX))
        );
        assert!(at(1 << 32).is_err());
    }
}
