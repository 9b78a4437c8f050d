//! The experiment parameters and the worlds of Section 7.
//!
//! The paper evaluates dissemination on three worlds: a static overlay,
//! that overlay after a catastrophic failure applied *after* freezing, and
//! churn steady state. Each is grown once on the arena runtime
//! ([`DenseSimNetwork`]) in the RNG mode [`ExperimentParams::rng`] selects,
//! and frozen once into the CSR [`DenseOverlay`] every engine runs over:
//!
//! * [`warmed_network`] grows the static world and `churned_network` the
//!   churn one — the only two growth bodies, each generic over a [`Probe`]
//!   (pass `&mut NullProbe` to observe nothing; its `record` compiles away);
//! * [`frozen_overlay`] is `warmed_network` +
//!   [`DenseOverlay::from_dense_sim`] for the figures that never look at
//!   the runtime again;
//! * [`fail_nodes`] marks a seeded random fraction of a frozen overlay
//!   dead, so one grown overlay serves every failure fraction.
//!
//! Outside the paper's evaluation, [`synthetic_links`] writes a converged
//! overlay's CSR arrays down directly — the million-node scale gate's input.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hybridcast_core::overlay::{DenseOverlay, Overlay};
use hybridcast_graph::{cast, NodeId};
use hybridcast_obs::{Heartbeat, Probe, StageProfiler};
use hybridcast_sim::churn::{ChurnConfig, ChurnDriver};
use hybridcast_sim::failure::select_victims;
use hybridcast_sim::{DenseSimNetwork, FlatLinks, RngMode, SimConfig};

use crate::cli::Args;

/// The engine every experiment runs on: the arena membership runtime plus
/// the allocation-free CSR dissemination engines. The id-keyed BTree
/// engines are test oracles, not a harness option.
///
/// Nothing reads [`ExperimentParams::engine`]; the enum and the field stay
/// only so `ExperimentParams { .. }` literals in the frozen `benchmark/`
/// adapter keep compiling, and a later `benchmark` PR removes both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Arena runtime + CSR engines, seeded runs fanned across threads.
    Dense,
}

/// The largest `--threads` value a binary accepts. Each configuration
/// starts up to this many OS threads, so a fixed bound keeps a typo from
/// asking the OS for thousands, the same way on every machine.
pub const MAX_THREADS: usize = 1024;

/// Common parameters of every experiment, derived from the command line.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentParams {
    /// Network size (`N`).
    pub nodes: usize,
    /// Disseminations per configuration.
    pub runs: usize,
    /// Warm-up gossip cycles before freezing the overlay.
    pub warmup_cycles: usize,
    /// Fanouts to sweep.
    pub fanouts: Vec<usize>,
    /// Master seed; every derived quantity is deterministic given it.
    pub seed: u64,
    /// Churn rate (fraction of nodes replaced per cycle) for churn
    /// experiments.
    pub churn_rate: f64,
    /// Upper bound on churn warm-up cycles (the paper runs until every
    /// bootstrap node has been replaced, which the quick scale caps).
    pub churn_max_cycles: usize,
    /// Always [`EngineKind::Dense`]; read by nothing (see [`EngineKind`]).
    pub engine: EngineKind,
    /// Worker threads for the seeded dissemination runs — and, in
    /// `--rng per-node` mode, for the membership simulation's intra-cycle
    /// fan-out; 0 means "use the machine's available parallelism". Results
    /// are identical for every value (`--threads`).
    pub threads: usize,
    /// RNG discipline of the membership phase (`--rng shared|per-node`).
    /// `shared` (the default) steps one shared stream in stepping order and
    /// is bit-identical to the BTree oracle; `per-node` derives one
    /// counter-based stream per node and cycle, which unlocks the sparse
    /// frontier and intra-cycle threading.
    pub rng: RngMode,
    /// Silence the progress heartbeat on stderr (`--quiet`). Progress is
    /// still counted in the metrics registry either way; the flag only
    /// controls the printing, never the computation.
    pub quiet: bool,
}

impl ExperimentParams {
    /// The paper's full experimental scale: 10,000 nodes, 100 runs per
    /// configuration, fanouts 1–20.
    pub fn paper() -> Self {
        ExperimentParams {
            nodes: 10_000,
            runs: 100,
            warmup_cycles: 100,
            fanouts: (1..=20).collect(),
            seed: 1,
            churn_rate: 0.002,
            churn_max_cycles: 20_000,
            engine: EngineKind::Dense,
            threads: 0,
            rng: RngMode::Shared,
            quiet: false,
        }
    }

    /// A reduced scale that keeps every qualitative trend of the paper but
    /// runs in seconds: 2,000 nodes, 30 runs, fanouts 1–12.
    pub fn quick() -> Self {
        ExperimentParams {
            nodes: 2_000,
            runs: 30,
            warmup_cycles: 100,
            fanouts: (1..=12).collect(),
            seed: 1,
            churn_rate: 0.002,
            churn_max_cycles: 3_000,
            engine: EngineKind::Dense,
            threads: 0,
            rng: RngMode::Shared,
            quiet: false,
        }
    }

    /// Builds parameters from command-line arguments: `--paper` selects the
    /// full scale, and `--nodes`, `--runs`, `--warmup`, `--fanouts`,
    /// `--seed`, `--churn-rate`, `--churn-max-cycles`, `--threads`, `--rng`
    /// override individual fields; `--quiet` silences the progress
    /// heartbeat.
    ///
    /// # Errors
    ///
    /// Returns an error if any override fails to parse or the resulting
    /// parameters fail [`Self::validate`].
    pub fn from_args(args: &Args) -> Result<Self, String> {
        let base = if args.flag("paper") {
            Self::paper()
        } else {
            Self::quick()
        };
        let params = ExperimentParams {
            nodes: args.get_or("nodes", base.nodes)?,
            runs: args.get_or("runs", base.runs)?,
            warmup_cycles: args.get_or("warmup", base.warmup_cycles)?,
            fanouts: args.get_list_or("fanouts", base.fanouts)?,
            seed: args.get_or("seed", base.seed)?,
            churn_rate: args.get_or("churn-rate", base.churn_rate)?,
            churn_max_cycles: args.get_or("churn-max-cycles", base.churn_max_cycles)?,
            engine: EngineKind::Dense,
            threads: args.get_or("threads", base.threads)?,
            rng: args.get_or("rng", base.rng)?,
            quiet: args.flag("quiet"),
        };
        params.validate()?;
        Ok(params)
    }

    /// Rejects parameters no experiment can run with, so that degenerate
    /// command-line input ends in an `error:` line instead of a panic deep
    /// inside an engine.
    ///
    /// # Errors
    ///
    /// Returns an error if `runs` is zero (nothing to aggregate), `fanouts`
    /// is empty or contains a zero, `threads` exceeds [`MAX_THREADS`], the
    /// simulator rejects the network size ([`SimConfig::validate`]), or the
    /// churn rate is outside `[0, 1]` ([`ChurnConfig::validate`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.runs == 0 {
            return Err("--runs must be at least 1".into());
        }
        if self.threads > MAX_THREADS {
            return Err(format!(
                "--threads must be in [0, {MAX_THREADS}], got {}",
                self.threads
            ));
        }
        if self.fanouts.is_empty() {
            return Err("--fanouts must list at least one fanout".into());
        }
        if self.fanouts.contains(&0) {
            return Err("--fanouts entries must be at least 1".into());
        }
        self.sim_config().validate()?;
        ChurnConfig {
            rate: self.churn_rate,
        }
        .validate()
    }

    /// The number of dissemination worker threads to use: the `--threads`
    /// override, or the machine's available parallelism when it is 0.
    pub fn thread_count(&self) -> usize {
        if self.threads == 0 {
            hybridcast_core::experiment::default_threads()
        } else {
            self.threads
        }
    }

    /// The simulator configuration corresponding to these parameters.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            nodes: self.nodes,
            warmup_cycles: self.warmup_cycles,
            ..SimConfig::default()
        }
    }

    /// Builds the arena membership runtime over `config`
    /// ([`Self::sim_config`] or an ablation's variation of it) in the RNG
    /// mode these parameters select: the shared-stream runtime, or the
    /// per-node frontier runtime at gossip period 1 (every node steps every
    /// cycle — the same cadence the shared runtime and the BTree oracle
    /// use) with the `--threads` worker count.
    pub fn dense_network(&self, config: SimConfig) -> DenseSimNetwork {
        match self.rng {
            RngMode::Shared => DenseSimNetwork::new(config, self.seed),
            RngMode::PerNode => {
                DenseSimNetwork::new_per_node(config, self.seed, 1, self.thread_count())
            }
        }
    }
}

/// Chunk size for the warm-up progress heartbeat. Running `run_cycles` in
/// chunks produces the exact same RNG stream as one big call, so the
/// heartbeat can never perturb a result.
const WARMUP_HEARTBEAT_CHUNK: usize = 25;

/// Grows the static scenario's runtime: builds the arena runtime over
/// `config`, gossips `params.warmup_cycles` cycles with every membership
/// `ViewExchange`/`CycleEnd` landing in `probe`, and records the "overlay
/// build" / "warm-up" stages on `profiler`. The caller freezes the result
/// (or, like the frozen-overlay ablation, keeps it gossiping).
pub fn warmed_network<P: Probe>(
    params: &ExperimentParams,
    config: SimConfig,
    probe: &mut P,
    profiler: &mut StageProfiler,
) -> DenseSimNetwork {
    profiler.stage("overlay build");
    let mut network = params.dense_network(config);
    profiler.stage("warm-up");
    let mut heartbeat = Heartbeat::new(params.warmup_cycles as u64, "cycles", params.quiet);
    let mut done = 0usize;
    while done < params.warmup_cycles {
        let step = (params.warmup_cycles - done).min(WARMUP_HEARTBEAT_CHUNK);
        network.run_cycles_probed(step, probe);
        done += step;
        heartbeat.advance(step as u64, "warm-up");
    }
    network
}

/// The static world frozen straight into the dense engine input:
/// [`warmed_network`] over `config` ([`ExperimentParams::sim_config`], or an
/// ablation's variation of it), exported as flat CSR links with no id-keyed
/// snapshot in between. The runtime is dropped before this returns, so a
/// sweep over the result holds only the overlay.
pub fn frozen_overlay<P: Probe>(
    params: &ExperimentParams,
    config: SimConfig,
    probe: &mut P,
    profiler: &mut StageProfiler,
) -> DenseOverlay {
    DenseOverlay::from_dense_sim(&warmed_network(params, config, probe, profiler))
}

/// A RingCast-ready overlay directly in CSR form, skipping the membership
/// layer: ids `0..nodes`, a bidirectional ring as d-links plus `r_degree`
/// uniform random r-links per node — the topology class the gossip stack
/// converges to. Growing a million nodes through the full stack takes far
/// longer than a CI job; this is what `scale_smoke --overlay synthetic` and
/// the `overlay_build` bench feed [`DenseOverlay::from_flat_links`].
pub fn synthetic_links(nodes: usize, r_degree: usize, seed: u64) -> FlatLinks {
    let n = nodes as u64;
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5E7);
    let ids: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let mut r_offsets = Vec::with_capacity(nodes + 1);
    let mut r_targets = Vec::with_capacity(nodes * r_degree);
    let mut d_offsets = Vec::with_capacity(nodes + 1);
    let mut d_targets = Vec::with_capacity(nodes * 2);
    r_offsets.push(0u32);
    d_offsets.push(0u32);
    for i in 0..n {
        let prev = if i == 0 { n - 1 } else { i - 1 };
        let next = if i + 1 == n { 0 } else { i + 1 };
        d_targets.push(NodeId::new(prev));
        d_targets.push(NodeId::new(next));
        d_offsets.push(cast::to_u32(d_targets.len()));
        for _ in 0..r_degree {
            let mut target = rng.gen_range(0..n);
            while target == i {
                target = rng.gen_range(0..n);
            }
            r_targets.push(NodeId::new(target));
        }
        r_offsets.push(cast::to_u32(r_targets.len()));
    }
    FlatLinks {
        ids,
        r_offsets,
        r_targets,
        d_offsets,
        d_targets,
    }
}

/// The catastrophic failure of Section 7.2: marks a uniformly random
/// `fraction` of the overlay's live nodes dead *after* freezing, so every
/// link to a victim stays in place as a dead link and the overlay gets no
/// chance to heal (the paper's worst case). The victims are a pure function
/// of the live ids, `fraction` and `seed`, so failing clones of one overlay
/// is the same as failing freshly grown ones.
///
/// # Panics
///
/// Panics if `fraction` is not within `[0, 1]`.
pub fn fail_nodes(overlay: &mut DenseOverlay, fraction: f64, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(0xFA11));
    for victim in select_victims(&overlay.live_node_ids(), fraction, &mut rng) {
        overlay.kill_node(victim);
    }
}

/// Grows the churn world (Section 7.3): gossip under continuous artificial
/// churn until every bootstrap node has been replaced at least once (capped
/// at `params.churn_max_cycles`). Every churn `Join`/`Leave` and every
/// membership `ViewExchange`/`CycleEnd` lands in `probe`. Returns the
/// runtime — which knows every node's join cycle, what figures 12 and 13
/// read — and the number of churn cycles executed.
///
/// The loop mirrors [`ChurnDriver::run_until_all_replaced`] cycle for
/// cycle; it is inlined here only so a progress heartbeat can tick between
/// cycles (churn warm-up dominates the wall-clock of the churn figures).
pub(crate) fn churned_network<P: Probe>(
    params: &ExperimentParams,
    probe: &mut P,
    profiler: &mut StageProfiler,
) -> (DenseSimNetwork, usize) {
    profiler.stage("overlay build");
    let mut network = params.dense_network(params.sim_config());
    profiler.stage("warm-up");
    let mut driver = ChurnDriver::new(ChurnConfig {
        rate: params.churn_rate,
    });
    let initial: Vec<_> = network.live_ids();
    let mut heartbeat = Heartbeat::new(params.churn_max_cycles as u64, "cycles", params.quiet);
    let mut executed = 0usize;
    while executed < params.churn_max_cycles {
        driver.apply_churn_step_probed(&mut network, probe);
        network.run_cycles_probed(1, probe);
        executed += 1;
        heartbeat.advance(1, "churn warm-up");
        if initial.iter().all(|&id| !network.is_live(id)) {
            break;
        }
    }
    (network, executed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcast_obs::NullProbe;

    /// The static world of `params` with nothing observing its growth.
    fn static_world(params: &ExperimentParams) -> DenseOverlay {
        frozen_overlay(
            params,
            params.sim_config(),
            &mut NullProbe,
            &mut StageProfiler::new(),
        )
    }

    fn assert_same_links(a: &DenseOverlay, b: &DenseOverlay) {
        assert_eq!(a.live_node_ids(), b.live_node_ids());
        for id in a.live_node_ids() {
            assert_eq!(a.r_links(id), b.r_links(id));
            assert_eq!(a.d_links(id), b.d_links(id));
        }
    }

    fn tiny() -> ExperimentParams {
        ExperimentParams {
            nodes: 150,
            runs: 5,
            warmup_cycles: 60,
            fanouts: vec![2, 3],
            seed: 3,
            churn_rate: 0.02,
            churn_max_cycles: 400,
            engine: EngineKind::Dense,
            threads: 2,
            rng: RngMode::Shared,
            quiet: true,
        }
    }

    #[test]
    fn paper_and_quick_presets() {
        assert_eq!(ExperimentParams::paper().nodes, 10_000);
        assert_eq!(ExperimentParams::paper().fanouts.len(), 20);
        assert!(ExperimentParams::quick().nodes < 5_000);
    }

    #[test]
    fn from_args_applies_overrides() {
        let args = Args::parse(["--nodes", "123", "--fanouts", "2,4", "--seed", "9"]).unwrap();
        let params = ExperimentParams::from_args(&args).unwrap();
        assert_eq!(params.nodes, 123);
        assert_eq!(params.fanouts, vec![2, 4]);
        assert_eq!(params.seed, 9);
        assert_eq!(params.runs, ExperimentParams::quick().runs);

        let paper = Args::parse(["--paper"]).unwrap();
        assert_eq!(ExperimentParams::from_args(&paper).unwrap().nodes, 10_000);
    }

    #[test]
    fn degenerate_parameters_are_rejected_not_run() {
        assert!(ExperimentParams::paper().validate().is_ok());
        assert!(ExperimentParams::quick().validate().is_ok());
        assert!(tiny().validate().is_ok());
        for bad in [
            ["--runs", "0"],
            ["--nodes", "0"],
            ["--fanouts", "0"],
            ["--fanouts", "2,0,3"],
            ["--fanouts", ""],
            ["--fanouts", ","],
            ["--churn-rate", "1.5"],
            ["--churn-rate", "-0.1"],
            ["--churn-rate", "NaN"],
        ] {
            let args = Args::parse(bad).unwrap();
            assert!(
                ExperimentParams::from_args(&args).is_err(),
                "{bad:?} must be rejected"
            );
        }
        let err = ExperimentParams::from_args(&Args::parse(["--runs", "0"]).unwrap()).unwrap_err();
        assert!(err.contains("--runs"), "unexpected error text: {err}");
    }

    #[test]
    fn thread_counts_past_the_fixed_bound_are_rejected() {
        let at_bound = ExperimentParams {
            threads: MAX_THREADS,
            ..tiny()
        };
        assert!(at_bound.validate().is_ok());
        let past = ExperimentParams {
            threads: MAX_THREADS + 1,
            ..tiny()
        };
        assert_eq!(
            past.validate().unwrap_err(),
            "--threads must be in [0, 1024], got 1025"
        );
    }

    #[test]
    fn engine_and_threads_parse_from_args() {
        let args = Args::parse(["--threads", "3"]).unwrap();
        let params = ExperimentParams::from_args(&args).unwrap();
        assert_eq!(params.threads, 3);
        assert_eq!(params.thread_count(), 3);
        args.finish().unwrap();

        let auto = ExperimentParams::quick();
        assert!(auto.thread_count() >= 1, "auto thread count");

        // The engine is no longer an option: the key is left unread, so
        // `Args::finish` turns it into an error.
        let stale = Args::parse(["--engine", "dense", "--threads", "3"]).unwrap();
        assert_eq!(ExperimentParams::from_args(&stale).unwrap(), params);
        assert!(stale.finish().unwrap_err().contains("--engine"));
    }

    #[test]
    fn rng_mode_parses_and_rejects_the_btree_engine() {
        let args = Args::parse(["--rng", "per-node"]).unwrap();
        let params = ExperimentParams::from_args(&args).unwrap();
        assert_eq!(params.rng, RngMode::PerNode);

        assert_eq!(ExperimentParams::quick().rng, RngMode::Shared);
        assert_eq!(ExperimentParams::paper().rng, RngMode::Shared);

        let bad = Args::parse(["--rng", "warp"]).unwrap();
        assert!(ExperimentParams::from_args(&bad).is_err());

        let clash = Args::parse(["--rng", "per-node", "--engine", "btree"]).unwrap();
        ExperimentParams::from_args(&clash).unwrap();
        let err = clash.finish().unwrap_err();
        assert!(err.contains("test oracles"), "unexpected error text: {err}");
    }

    #[test]
    fn per_node_overlays_are_thread_invariant() {
        let base = ExperimentParams {
            rng: RngMode::PerNode,
            threads: 1,
            ..tiny()
        };
        let four = ExperimentParams {
            threads: 4,
            ..base.clone()
        };
        assert_same_links(&static_world(&base), &static_world(&four));
    }

    #[test]
    fn static_overlay_has_all_nodes_live() {
        assert_eq!(static_world(&tiny()).live_count(), 150);
    }

    #[test]
    fn catastrophic_overlay_kills_the_requested_fraction() {
        let params = tiny();
        let mut overlay = static_world(&params);
        let intact = overlay.clone();
        fail_nodes(&mut overlay, 0.10, params.seed);
        assert_eq!(overlay.live_count(), 135);
        // Failing happens after freezing: the dead keep their index and
        // every link, theirs and the ones pointing at them, stays in place.
        assert_eq!(overlay.len(), intact.len());
        for idx in 0..overlay.len() as u32 {
            assert_eq!(overlay.r_links_of(idx), intact.r_links_of(idx));
            assert_eq!(overlay.d_links_of(idx), intact.d_links_of(idx));
        }
        // The victims depend on the seed alone, not on the overlay's history.
        let mut again = intact.clone();
        fail_nodes(&mut again, 0.10, params.seed);
        assert_eq!(again.live_node_ids(), overlay.live_node_ids());
        fail_nodes(&mut again, 0.0, params.seed);
        assert_eq!(again.live_count(), 135, "a zero fraction fails nobody");
    }

    #[test]
    fn churn_overlay_replaces_every_bootstrap_node() {
        let (network, cycles) = churned_network(&tiny(), &mut NullProbe, &mut StageProfiler::new());
        assert_eq!(network.len(), 150);
        assert!(cycles > 0);
        assert_eq!(network.cycle(), cycles as u64);
        // All bootstrap ids (0..150) have been replaced by later joiners.
        let min_id = network.live_ids()[0];
        assert!(min_id.as_u64() >= 150, "bootstrap nodes should be gone");
    }

    #[test]
    fn probed_scenario_builders_match_unprobed() {
        use hybridcast_obs::{TraceEvent, VecProbe};

        let params = tiny();
        let mut probe = VecProbe::new();
        let mut profiler = StageProfiler::new();
        let probed = frozen_overlay(&params, params.sim_config(), &mut probe, &mut profiler);
        assert_same_links(&probed, &static_world(&params));
        let count = |probe: &VecProbe, wanted: fn(&TraceEvent) -> bool| {
            probe.events.iter().filter(|e| wanted(e)).count()
        };
        assert_eq!(
            count(&probe, |e| matches!(e, TraceEvent::CycleEnd { .. })),
            params.warmup_cycles
        );
        profiler.finish();
        let stages: Vec<&str> = profiler.stages().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(stages, ["overlay build", "warm-up"]);

        let mut churn_probe = VecProbe::new();
        let (churn_probed, cycles_probed) =
            churned_network(&params, &mut churn_probe, &mut StageProfiler::new());
        let (churn_plain, cycles_plain) =
            churned_network(&params, &mut NullProbe, &mut StageProfiler::new());
        assert_eq!(cycles_probed, cycles_plain);
        assert_same_links(
            &DenseOverlay::from_dense_sim(&churn_probed),
            &DenseOverlay::from_dense_sim(&churn_plain),
        );
        let joins = count(&churn_probe, |e| matches!(e, TraceEvent::Join { .. }));
        assert!(joins > 0, "churn warm-up must record joins");
        assert_eq!(
            joins,
            count(&churn_probe, |e| matches!(e, TraceEvent::Leave { .. })),
            "population-preserving churn"
        );
    }

    #[test]
    fn same_seed_same_overlay() {
        assert_same_links(&static_world(&tiny()), &static_world(&tiny()));
    }
}
