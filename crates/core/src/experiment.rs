//! Repetition and aggregation helpers for dissemination experiments.
//!
//! Every figure of the paper's evaluation averages over 100 disseminations
//! started from random origins. This module provides the shared machinery:
//! run a protocol `runs` times over a frozen overlay, collect the per-run
//! [`DisseminationReport`]s, and reduce them to the aggregate quantities the
//! figures plot (mean miss ratio, fraction of complete disseminations, mean
//! hop count, virgin/redundant message counts).
//!
//! The `run_seeded_*` drivers are what the figure harness calls: each runs
//! one dense engine `runs` times — fanned across threads, or sequentially
//! under a recording probe — with run `r` a pure function of
//! `(master_seed, r)`, and materialises every run's id-keyed report.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use hybridcast_graph::NodeId;
use hybridcast_obs::Probe;

use crate::async_engine::{
    disseminate_async_dense, disseminate_async_dense_probed, AsyncConfig, AsyncReport,
    DenseAsyncScratch,
};
use crate::engine::{disseminate_dense, disseminate_dense_probed, DenseScratch};
use crate::metrics::DisseminationReport;
use crate::overlay::DenseOverlay;
use crate::protocols::DenseSelector;
use crate::pull::{disseminate_push_pull_dense, DensePullScratch, PullConfig, PushPullReport};

/// Aggregate statistics over a set of disseminations with identical
/// configuration (same overlay, protocol and fanout).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregateStats {
    /// Protocol name.
    pub protocol: String,
    /// Fanout the protocol was configured with.
    pub fanout: usize,
    /// Number of disseminations aggregated.
    pub runs: usize,
    /// Live population the disseminations ran over.
    pub population: usize,
    /// Mean miss ratio (Figures 6a, 9 left, 11 left).
    pub mean_miss_ratio: f64,
    /// Fraction of runs that reached every live node (Figures 6b, 9 right,
    /// 11 right).
    pub complete_fraction: f64,
    /// Mean number of hops to reach the last newly notified node.
    pub mean_last_hop: f64,
    /// Largest hop count observed.
    pub max_last_hop: usize,
    /// Mean number of messages that notified a new node (Figure 8, shaded).
    pub mean_messages_to_virgin: f64,
    /// Mean number of messages that hit an already notified node
    /// (Figure 8, striped).
    pub mean_messages_to_notified: f64,
    /// Mean number of messages sent to dead nodes.
    pub mean_messages_to_dead: f64,
    /// Mean total number of messages.
    pub mean_total_messages: f64,
}

impl AggregateStats {
    /// Reduces a set of reports (all produced with the same protocol and
    /// fanout) to aggregate statistics.
    ///
    /// # Panics
    ///
    /// Panics if `reports` is empty.
    pub fn from_reports(protocol: &str, fanout: usize, reports: &[DisseminationReport]) -> Self {
        assert!(!reports.is_empty(), "cannot aggregate zero reports");
        let runs = reports.len();
        let mean = |f: &dyn Fn(&DisseminationReport) -> f64| -> f64 {
            reports.iter().map(f).sum::<f64>() / runs as f64
        };
        AggregateStats {
            protocol: protocol.to_owned(),
            fanout,
            runs,
            population: reports[0].population,
            mean_miss_ratio: mean(&|r| r.miss_ratio()),
            complete_fraction: reports.iter().filter(|r| r.is_complete()).count() as f64
                / runs as f64,
            mean_last_hop: mean(&|r| r.last_hop as f64),
            max_last_hop: reports.iter().map(|r| r.last_hop).max().unwrap_or(0),
            mean_messages_to_virgin: mean(&|r| r.messages_to_virgin as f64),
            mean_messages_to_notified: mean(&|r| r.messages_to_notified as f64),
            mean_messages_to_dead: mean(&|r| r.messages_to_dead as f64),
            mean_total_messages: mean(&|r| r.total_messages() as f64),
        }
    }
}

/// Derives the RNG seed of run `run` from a master seed (SplitMix64-style
/// mixing).
///
/// Every run of a seeded experiment is a pure function of
/// `(master_seed, run)` — not of any shared RNG stream — which is what makes
/// [`run_seeded_disseminations`] bit-identical at any thread count. The
/// same mixer is also used to decorrelate experiment configurations (one
/// master seed per protocol/fanout pair) in the figure harness.
pub fn run_seed(master_seed: u64, run: u64) -> u64 {
    let mut z = master_seed
        ^ run
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The simulation-side sibling of [`run_seed`]: mixes
/// `(master_seed, stream, cycle)` into the seed of one counter-based
/// per-node RNG stream (`--rng per-node`). Re-exported here so the two
/// derivation conventions of the workspace — per-*run* seeds for
/// dissemination experiments, per-*node-cycle* seeds for the membership
/// simulation — live side by side.
pub use hybridcast_sim::stream_seed;

/// A sensible worker count for [`run_seeded_disseminations`]: the machine's
/// available parallelism, or 1 if it cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The seeding contract of every `run_seeded_*` driver, in one place: run
/// `r` draws its origin (uniformly from the overlay's live nodes) and then
/// all its dissemination randomness from a private `ChaCha8` generator
/// seeded with [`run_seed`]`(master_seed, r)`. The returned closure maps a
/// run index to that generator, already advanced past the origin draw, and
/// the origin.
///
/// # Panics
///
/// Panics if the overlay has no live nodes.
fn seeded_starts(
    overlay: &DenseOverlay,
    master_seed: u64,
) -> impl Fn(usize) -> (ChaCha8Rng, NodeId) + '_ {
    let live = overlay.live_indices();
    assert!(!live.is_empty(), "overlay has no live nodes");
    move |run| {
        let mut rng = ChaCha8Rng::seed_from_u64(run_seed(master_seed, run as u64));
        let origin = overlay.node_id(live[rng.gen_range(0..live.len())]);
        (rng, origin)
    }
}

/// Runs `runs` independent disseminations of `selector` over a dense
/// overlay, fanned out across `threads` worker threads, and returns the
/// reports in run order.
///
/// Run `r` is a pure function of `(master_seed, r)` (see [`run_seed`]), so
/// the result vector is **bit-identical for every thread count** —
/// `threads` only decides wall-clock time, never data. Each worker reuses
/// one [`DenseScratch`], so only materialising each run's report
/// allocates.
///
/// # Panics
///
/// Panics if the overlay has no live nodes, or if a worker thread panics.
pub fn run_seeded_disseminations(
    overlay: &DenseOverlay,
    selector: &DenseSelector,
    runs: usize,
    master_seed: u64,
    threads: usize,
) -> Vec<DisseminationReport> {
    let start = seeded_starts(overlay, master_seed);
    fan_out_seeded(runs, threads, DenseScratch::new, |run, scratch| {
        let (mut rng, origin) = start(run);
        disseminate_dense(overlay, selector, origin, &mut rng, scratch).report(overlay, scratch)
    })
}

/// The sequential, probed twin of [`run_seeded_disseminations`]: same
/// seeding contract, so the reports are bit-identical to the parallel
/// driver at any thread count — the probe merely observes every run, in
/// run order, through one shared scratch.
pub fn run_seeded_disseminations_probed<P: Probe>(
    overlay: &DenseOverlay,
    selector: &DenseSelector,
    runs: usize,
    master_seed: u64,
    probe: &mut P,
) -> Vec<DisseminationReport> {
    let start = seeded_starts(overlay, master_seed);
    let mut scratch = DenseScratch::new();
    (0..runs)
        .map(|run| {
            let (mut rng, origin) = start(run);
            disseminate_dense_probed(overlay, selector, origin, &mut rng, &mut scratch, probe)
                .report(overlay, &scratch)
        })
        .collect()
}

/// Runs `runs` independent event-driven (latency-model) disseminations over
/// a frozen dense overlay, fanned out across `threads` worker threads, and
/// returns the [`AsyncReport`]s in run order.
///
/// Seeding and origin choice follow the same contract as
/// [`run_seeded_disseminations`], so the result vector is bit-identical for
/// every thread count. Each worker reuses one [`DenseAsyncScratch`].
///
/// # Panics
///
/// Panics if the overlay has no live nodes, the configuration is invalid,
/// or a worker thread panics.
pub fn run_seeded_async(
    overlay: &DenseOverlay,
    selector: &DenseSelector,
    config: &AsyncConfig,
    runs: usize,
    master_seed: u64,
    threads: usize,
) -> Vec<AsyncReport> {
    let start = seeded_starts(overlay, master_seed);
    fan_out_seeded(runs, threads, DenseAsyncScratch::new, |run, scratch| {
        let (mut rng, origin) = start(run);
        disseminate_async_dense(overlay, selector, origin, config, &mut rng, scratch)
            .report(overlay, config, scratch)
    })
}

/// The sequential, probed twin of [`run_seeded_async`]: bit-identical
/// reports, with every run's event stream observed in run order.
pub fn run_seeded_async_probed<P: Probe>(
    overlay: &DenseOverlay,
    selector: &DenseSelector,
    config: &AsyncConfig,
    runs: usize,
    master_seed: u64,
    probe: &mut P,
) -> Vec<AsyncReport> {
    let start = seeded_starts(overlay, master_seed);
    let mut scratch = DenseAsyncScratch::new();
    (0..runs)
        .map(|run| {
            let (mut rng, origin) = start(run);
            disseminate_async_dense_probed(
                overlay,
                selector,
                origin,
                config,
                &mut rng,
                &mut scratch,
                probe,
            )
            .report(overlay, config, &scratch)
        })
        .collect()
}

/// Runs `runs` independent push + pull-anti-entropy disseminations over a
/// frozen dense overlay, fanned out across `threads` worker threads, and
/// returns the [`PushPullReport`]s in run order.
///
/// Seeding and origin choice follow the same contract as
/// [`run_seeded_disseminations`], so the result vector is bit-identical for
/// every thread count. Each worker reuses one [`DensePullScratch`].
///
/// # Panics
///
/// Panics if the overlay has no live nodes, the configuration is invalid,
/// or a worker thread panics.
pub fn run_seeded_push_pulls(
    overlay: &DenseOverlay,
    selector: &DenseSelector,
    config: &PullConfig,
    runs: usize,
    master_seed: u64,
    threads: usize,
) -> Vec<PushPullReport> {
    let start = seeded_starts(overlay, master_seed);
    fan_out_seeded(runs, threads, DensePullScratch::new, |run, scratch| {
        let (mut rng, origin) = start(run);
        disseminate_push_pull_dense(overlay, selector, origin, config, &mut rng, scratch)
            .report(overlay, scratch)
    })
}

/// The shared thread fan-out of every seeded driver: splits `runs` into
/// contiguous chunks, gives each worker its own scratch (built by
/// `make_scratch`), and concatenates the per-worker results back in run
/// order.
///
/// When run `r` is a pure function of `r` (each run draws from a private
/// RNG seeded from its index, e.g. with [`run_seed`], and the scratch holds
/// no state between runs), the result vector is **bit-identical for every
/// thread count** — `threads` only decides wall-clock time.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn fan_out_seeded<T, S, M, F>(
    runs: usize,
    threads: usize,
    make_scratch: M,
    one_run: F,
) -> Vec<T>
where
    T: Send,
    M: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    let threads = threads.max(1).min(runs.max(1));
    if threads == 1 {
        let mut scratch = make_scratch();
        return (0..runs).map(|run| one_run(run, &mut scratch)).collect();
    }

    let chunk = runs.div_ceil(threads);
    let one_run = &one_run;
    let make_scratch = &make_scratch;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|worker| {
                let lo = worker * chunk;
                let hi = runs.min(lo + chunk);
                scope.spawn(move || {
                    let mut scratch = make_scratch();
                    (lo..hi)
                        .map(|run| one_run(run, &mut scratch))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("dissemination worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::tests::warmed_overlay;
    use hybridcast_graph::{builders, DiGraph};

    fn ring(count: u64) -> DenseOverlay {
        let ids: Vec<NodeId> = (0..count).map(NodeId::new).collect();
        DenseOverlay::from_graphs(&builders::bidirectional_ring(&ids), &DiGraph::new())
    }

    /// `runs` seeded disseminations of `selector` from random origins,
    /// aggregated.
    fn run_experiment(
        overlay: &DenseOverlay,
        selector: DenseSelector,
        runs: usize,
        master_seed: u64,
    ) -> AggregateStats {
        let reports = run_seeded_disseminations(overlay, &selector, runs, master_seed, 1);
        AggregateStats::from_reports(selector.name(), selector.fanout(), &reports)
    }

    #[test]
    #[should_panic(expected = "zero reports")]
    fn aggregate_of_nothing_panics() {
        AggregateStats::from_reports("X", 1, &[]);
    }

    #[test]
    fn aggregate_over_complete_disseminations() {
        let stats = run_experiment(&ring(20), DenseSelector::DeterministicFlooding, 10, 3);
        assert_eq!(stats.runs, 10);
        assert_eq!(stats.population, 20);
        assert_eq!(stats.mean_miss_ratio, 0.0);
        assert_eq!(stats.complete_fraction, 1.0);
        assert_eq!(stats.protocol, "DeterministicFlooding");
        assert!(stats.mean_last_hop >= 9.0);
        assert!(stats.max_last_hop <= 10);
    }

    #[test]
    fn ringcast_beats_randcast_at_equal_fanout() {
        let overlay = warmed_overlay(300, 4);
        let rand_stats = run_experiment(&overlay, DenseSelector::randcast(2), 10, 5);
        let ring_stats = run_experiment(&overlay, DenseSelector::ringcast(2), 10, 5);
        assert_eq!(ring_stats.mean_miss_ratio, 0.0);
        assert_eq!(ring_stats.complete_fraction, 1.0);
        assert!(rand_stats.mean_miss_ratio > ring_stats.mean_miss_ratio);
        assert!(rand_stats.complete_fraction < 1.0);
    }

    #[test]
    fn message_counts_scale_with_fanout() {
        let overlay = warmed_overlay(200, 6);
        let low = run_experiment(&overlay, DenseSelector::randcast(2), 5, 7);
        let high = run_experiment(&overlay, DenseSelector::randcast(8), 5, 7);
        assert!(high.mean_total_messages > 3.0 * low.mean_total_messages);
        // Virgin messages are bounded by the population.
        assert!(high.mean_messages_to_virgin <= high.population as f64);
        assert!(high.mean_messages_to_notified > low.mean_messages_to_notified);
    }

    #[test]
    fn seeded_runs_are_thread_count_invariant() {
        let dense = warmed_overlay(200, 10);
        let selector = DenseSelector::ringcast(3);
        let sequential = run_seeded_disseminations(&dense, &selector, 13, 42, 1);
        for threads in [2, 3, 8, 64] {
            let parallel = run_seeded_disseminations(&dense, &selector, 13, 42, threads);
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
        assert_eq!(sequential.len(), 13);
    }

    #[test]
    fn seeded_runs_depend_only_on_master_seed_and_index() {
        let dense = warmed_overlay(150, 11);
        let selector = DenseSelector::randcast(4);
        // Run r is a pure function of (master, r): a longer experiment is a
        // prefix-extension of a shorter one, and a different master seed
        // changes the runs.
        let short = run_seeded_disseminations(&dense, &selector, 4, 7, 2);
        let long = run_seeded_disseminations(&dense, &selector, 9, 7, 3);
        assert_eq!(short.as_slice(), &long[..4]);
        let other = run_seeded_disseminations(&dense, &selector, 4, 8, 2);
        assert_ne!(short, other);
    }

    #[test]
    fn seeded_async_runs_are_thread_count_invariant() {
        let dense = warmed_overlay(150, 20);
        let selector = DenseSelector::ringcast(3);
        let config = AsyncConfig {
            run_membership_gossip: false,
            ..AsyncConfig::default()
        };
        let sequential = run_seeded_async(&dense, &selector, &config, 9, 33, 1);
        for threads in [2, 4, 16] {
            let parallel = run_seeded_async(&dense, &selector, &config, 9, 33, threads);
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
        assert!(sequential.iter().all(AsyncReport::is_complete));
    }

    #[test]
    fn seeded_push_pull_runs_are_thread_count_invariant() {
        let dense = warmed_overlay(150, 21);
        let selector = DenseSelector::randcast(2);
        let config = PullConfig {
            fanout: 1,
            max_rounds: 30,
        };
        let sequential = run_seeded_push_pulls(&dense, &selector, &config, 9, 34, 1);
        for threads in [2, 4, 16] {
            let parallel = run_seeded_push_pulls(&dense, &selector, &config, 9, 34, threads);
            assert_eq!(sequential, parallel, "threads = {threads}");
        }
        // Pull rounds only ever improve on the push phase.
        for report in &sequential {
            assert!(report.reached_after_pull >= report.push.reached);
        }
    }

    #[test]
    fn fan_out_seeded_is_thread_count_invariant() {
        use hybridcast_sim::{DenseSimNetwork, SimConfig};
        let seeds: Vec<u64> = (0..7).map(|i| 1000 + i).collect();
        let run = |run: usize, _: &mut ()| {
            let config = SimConfig {
                nodes: 25,
                warmup_cycles: 0,
                ..SimConfig::default()
            };
            let mut net = DenseSimNetwork::new(config, seeds[run]);
            net.run_cycles(8);
            net.overlay_snapshot()
        };
        let sequential = fan_out_seeded(seeds.len(), 1, || (), run);
        for threads in [2, 3, 8] {
            assert_eq!(
                sequential,
                fan_out_seeded(seeds.len(), threads, || (), run),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn aggregate_serializes_for_the_harness() {
        let stats = run_experiment(&ring(10), DenseSelector::DeterministicFlooding, 3, 8);
        let json = serde_json::to_string(&stats).unwrap();
        let back: AggregateStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }
}
