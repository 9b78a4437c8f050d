//! One function per figure of the paper's evaluation (plus ablations).
//!
//! Every function takes [`ExperimentParams`] and returns plain data
//! structures; the binaries in `src/bin/` only parse arguments, call one of
//! these functions and print the result with [`crate::output`].
//!
//! Every figure grows its world once ([`crate::scenario`]), freezes it once
//! into a [`DenseOverlay`] and measures that; a catastrophic failure is
//! [`fail_nodes`] applied to the frozen overlay, never a second growth.
//!
//! The sweeps that can be traced are one body generic over a [`Probe`];
//! callers with nothing to observe pass `&mut NullProbe`. Only
//! [`static_effectiveness`] and [`churn_effectiveness`] keep a plain name
//! beside their `_probed` body. Whether a configuration's seeded runs go
//! through the probe one after another or fan out across threads is decided
//! in exactly one place, the private `seeded_runs` helper.

use std::collections::BTreeMap;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use hybridcast_core::async_engine::{AsyncConfig, AsyncReport};
use hybridcast_core::experiment::{
    run_seed, run_seeded_async, run_seeded_async_probed, run_seeded_disseminations,
    run_seeded_disseminations_probed, run_seeded_push_pulls, AggregateStats,
};
use hybridcast_core::metrics::DisseminationReport;
use hybridcast_core::netmodel::{DelayModel, LossModel, NetModel, PartitionEvent};
use hybridcast_core::overlay::DenseOverlay;
use hybridcast_core::protocols::DenseSelector;
use hybridcast_core::pull::{PullConfig, PushPullReport};
use hybridcast_graph::{builders, harary, NodeId};
use hybridcast_obs::{Heartbeat, NullProbe, Probe, ProtocolKind, StageProfiler, TraceEvent};
use hybridcast_sim::churn::lifetime_histogram;
use hybridcast_sim::SimConfig;

use crate::scenario::{
    churned_network, fail_nodes, frozen_overlay, warmed_network, ExperimentParams,
};

/// The two protocols every figure compares side by side.
fn protocols(fanout: usize) -> [DenseSelector; 2] {
    [
        DenseSelector::randcast(fanout),
        DenseSelector::ringcast(fanout),
    ]
}

/// The `(tag, fanout, protocol)` configurations of a sweep over `fanouts`,
/// in table order. The tag numbers the configurations so each gets its own
/// master seed ([`run_seed`]`(params.seed, tag)`) and no two ever share a
/// per-run RNG stream.
fn configurations(fanouts: &[usize]) -> impl Iterator<Item = (u64, usize, DenseSelector)> + '_ {
    fanouts
        .iter()
        .flat_map(|&fanout| protocols(fanout).map(|protocol| (fanout, protocol)))
        .zip(0u64..)
        .map(|((fanout, protocol), tag)| (tag, fanout, protocol))
}

/// Runs one configuration's seeded runs through the driver the probe calls
/// for: a recording probe must see one totally ordered event stream, so its
/// runs go through the sequential `probed` driver; an inert one
/// ([`Probe::enabled`] is `false`) observes nothing, so the runs fan out
/// across [`ExperimentParams::thread_count`] workers. Both drivers derive
/// run `r` from `(master_seed, r)` alone, so the choice decides wall-clock
/// time and never a report.
fn seeded_runs<P: Probe, R>(
    params: &ExperimentParams,
    probe: &mut P,
    probed: impl FnOnce(&mut P) -> Vec<R>,
    fan_out: impl FnOnce(usize) -> Vec<R>,
) -> Vec<R> {
    if probe.enabled() {
        probed(probe)
    } else {
        fan_out(params.thread_count())
    }
}

/// `params.runs` hop-synchronous disseminations of `protocol` over `dense`,
/// seeded from `(params.seed, tag)`.
fn dissemination_runs<P: Probe>(
    dense: &DenseOverlay,
    protocol: &DenseSelector,
    params: &ExperimentParams,
    tag: u64,
    probe: &mut P,
) -> Vec<DisseminationReport> {
    let seed = run_seed(params.seed, tag);
    seeded_runs(
        params,
        probe,
        |probe| run_seeded_disseminations_probed(dense, protocol, params.runs, seed, probe),
        |threads| run_seeded_disseminations(dense, protocol, params.runs, seed, threads),
    )
}

/// `params.runs` event-driven RingCast disseminations over `dense` under
/// `config`, seeded from `(params.seed, tag)`.
fn async_runs<P: Probe>(
    dense: &DenseOverlay,
    fanout: usize,
    config: &AsyncConfig,
    params: &ExperimentParams,
    tag: u64,
    probe: &mut P,
) -> Vec<AsyncReport> {
    let selector = DenseSelector::ringcast(fanout);
    let seed = run_seed(params.seed, tag);
    seeded_runs(
        params,
        probe,
        |probe| run_seeded_async_probed(dense, &selector, config, params.runs, seed, probe),
        |threads| run_seeded_async(dense, &selector, config, params.runs, seed, threads),
    )
}

/// A table of aggregate effectiveness results: one row per
/// (protocol, fanout) pair, as plotted in Figures 6, 9 and 11.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EffectivenessTable {
    /// Scenario description (e.g. "static failure-free").
    pub scenario: String,
    /// One row per (protocol, fanout) combination.
    pub rows: Vec<AggregateStats>,
}

impl EffectivenessTable {
    /// The row for a given protocol and fanout, if present.
    pub fn row(&self, protocol: &str, fanout: usize) -> Option<&AggregateStats> {
        self.rows
            .iter()
            .find(|r| r.protocol == protocol && r.fanout == fanout)
    }
}

/// The averaged per-hop progress of a set of disseminations, one series per
/// (protocol, fanout), as plotted in Figures 7 and 10.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProgressSeries {
    /// Protocol name.
    pub protocol: String,
    /// Fanout.
    pub fanout: usize,
    /// Number of disseminations averaged.
    pub runs: usize,
    /// Mean fraction of nodes *not yet reached* after each hop
    /// (index 0 = after hop 0, i.e. only the origin notified).
    pub mean_not_reached: Vec<f64>,
    /// Worst-case (maximum) fraction not reached after each hop.
    pub max_not_reached: Vec<f64>,
}

/// A lifetime histogram (Figure 12) or miss-lifetime histogram (Figure 13).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LifetimeHistogram {
    /// Description of what is being counted.
    pub label: String,
    /// `lifetime in cycles -> number of nodes`.
    pub counts: BTreeMap<u64, usize>,
}

impl LifetimeHistogram {
    /// Total number of nodes counted.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }
}

/// Maps a selector to its trace [`ProtocolKind`] (same display name).
fn protocol_kind(selector: &DenseSelector) -> ProtocolKind {
    match selector {
        DenseSelector::Flooding => ProtocolKind::Flooding,
        DenseSelector::DeterministicFlooding => ProtocolKind::DeterministicFlooding,
        DenseSelector::RandCast(_) => ProtocolKind::RandCast,
        DenseSelector::RingCast(_) => ProtocolKind::RingCast,
    }
}

/// The effectiveness sweep (miss ratio, completeness, message counts) over
/// an already built dense overlay: one `Section` event per (fanout,
/// protocol) configuration followed by its `params.runs` seeded
/// disseminations, with the "dissemination" / "aggregation" stages
/// recorded on `profiler`.
fn effectiveness_sweep<P: Probe>(
    dense: &DenseOverlay,
    scenario: &str,
    params: &ExperimentParams,
    probe: &mut P,
    profiler: &mut StageProfiler,
) -> EffectivenessTable {
    profiler.stage("dissemination");
    let configs = configurations(&params.fanouts).count() as u64;
    let mut heartbeat = Heartbeat::new(configs, "configs", params.quiet);
    let mut rows = Vec::new();
    for (tag, fanout, protocol) in configurations(&params.fanouts) {
        probe.record(TraceEvent::Section {
            protocol: protocol_kind(&protocol),
            fanout: fanout as u32,
            param: 0.0,
        });
        let reports = dissemination_runs(dense, &protocol, params, tag, probe);
        rows.push(AggregateStats::from_reports(
            protocol.name(),
            fanout,
            &reports,
        ));
        heartbeat.advance(1, "dissemination");
    }
    profiler.stage("aggregation");
    let table = EffectivenessTable {
        scenario: scenario.to_owned(),
        rows,
    };
    profiler.finish();
    table
}

/// [`effectiveness_sweep`] with nothing observing it.
fn effectiveness_of(
    dense: &DenseOverlay,
    scenario: &str,
    params: &ExperimentParams,
) -> EffectivenessTable {
    effectiveness_sweep(
        dense,
        scenario,
        params,
        &mut NullProbe,
        &mut StageProfiler::new(),
    )
}

/// The static world grown from `config` and frozen, with nothing observing
/// its growth.
fn overlay_of(params: &ExperimentParams, config: SimConfig) -> DenseOverlay {
    frozen_overlay(params, config, &mut NullProbe, &mut StageProfiler::new())
}

/// **Figure 6 (and the data of Figure 8)**: dissemination effectiveness as a
/// function of the fanout in a static failure-free network.
pub fn static_effectiveness(params: &ExperimentParams) -> EffectivenessTable {
    static_effectiveness_probed(params, &mut NullProbe, &mut StageProfiler::new())
}

/// [`static_effectiveness`] with a trace probe attached to the membership
/// warm-up and the sweep, and the four stages recorded on `profiler`.
pub fn static_effectiveness_probed<P: Probe>(
    params: &ExperimentParams,
    probe: &mut P,
    profiler: &mut StageProfiler,
) -> EffectivenessTable {
    let dense = frozen_overlay(params, params.sim_config(), probe, profiler);
    effectiveness_sweep(&dense, "static failure-free", params, probe, profiler)
}

/// Averages the per-hop "not reached yet" series of many disseminations,
/// padding shorter runs with their final value.
fn average_progress(
    protocol_name: &str,
    fanout: usize,
    reports: &[DisseminationReport],
) -> ProgressSeries {
    let series: Vec<Vec<f64>> = reports.iter().map(|r| r.not_reached_after_hop()).collect();
    let max_len = series.iter().map(Vec::len).max().unwrap_or(0);
    let mut mean = vec![0.0; max_len];
    let mut max = vec![0.0f64; max_len];
    for run in &series {
        for hop in 0..max_len {
            let value = run
                .get(hop)
                .copied()
                .unwrap_or_else(|| *run.last().unwrap_or(&0.0));
            mean[hop] += value;
            if value > max[hop] {
                max[hop] = value;
            }
        }
    }
    for value in &mut mean {
        *value /= series.len() as f64;
    }
    ProgressSeries {
        protocol: protocol_name.to_owned(),
        fanout,
        runs: reports.len(),
        mean_not_reached: mean,
        max_not_reached: max,
    }
}

/// Per-hop progress over an already built overlay, for the given fanouts.
fn progress_of(
    dense: &DenseOverlay,
    params: &ExperimentParams,
    fanouts: &[usize],
) -> Vec<ProgressSeries> {
    configurations(fanouts)
        .map(|(tag, fanout, protocol)| {
            let reports = dissemination_runs(dense, &protocol, params, tag, &mut NullProbe);
            average_progress(protocol.name(), fanout, &reports)
        })
        .collect()
}

/// **Figure 7**: dissemination progress (fraction of nodes not yet reached
/// per hop) in a static failure-free network, for the paper's four fanouts.
pub fn static_progress(params: &ExperimentParams, fanouts: &[usize]) -> Vec<ProgressSeries> {
    progress_of(&overlay_of(params, params.sim_config()), params, fanouts)
}

/// **Figure 9**: dissemination effectiveness after catastrophic failures of
/// the given fractions of the network. The overlay is grown and frozen
/// once; every fraction fails its own copy of it.
pub fn catastrophic_effectiveness(
    params: &ExperimentParams,
    fail_fractions: &[f64],
) -> Vec<(f64, EffectivenessTable)> {
    let intact = overlay_of(params, params.sim_config());
    fail_fractions
        .iter()
        .map(|&fraction| {
            let mut dense = intact.clone();
            fail_nodes(&mut dense, fraction, params.seed);
            let scenario = format!("catastrophic failure of {:.0}%", fraction * 100.0);
            (fraction, effectiveness_of(&dense, &scenario, params))
        })
        .collect()
}

/// **Figure 10**: dissemination progress after a catastrophic failure of
/// `fail_fraction` of the nodes.
pub fn catastrophic_progress(
    params: &ExperimentParams,
    fail_fraction: f64,
    fanouts: &[usize],
) -> Vec<ProgressSeries> {
    let mut dense = overlay_of(params, params.sim_config());
    fail_nodes(&mut dense, fail_fraction, params.seed);
    progress_of(&dense, params, fanouts)
}

/// **Figure 11**: dissemination effectiveness in churn steady state.
/// Returns the table plus the number of churn cycles it took to reach
/// steady state. Both the churn warm-up (the dominant cost) and the
/// dissemination sweep run on the arena/CSR hot paths.
pub fn churn_effectiveness(params: &ExperimentParams) -> (EffectivenessTable, usize) {
    churn_effectiveness_probed(params, &mut NullProbe, &mut StageProfiler::new())
}

/// [`churn_effectiveness`] with a trace probe attached — churn
/// `Join`/`Leave` events included — and the four stages recorded on
/// `profiler`.
pub fn churn_effectiveness_probed<P: Probe>(
    params: &ExperimentParams,
    probe: &mut P,
    profiler: &mut StageProfiler,
) -> (EffectivenessTable, usize) {
    // The runtime ends with this block: the sweep holds the overlay alone.
    let (dense, cycles) = {
        let (network, cycles) = churned_network(params, probe, profiler);
        (DenseOverlay::from_dense_sim(&network), cycles)
    };
    let scenario = format!(
        "churn steady state ({}% per cycle, {} cycles)",
        params.churn_rate * 100.0,
        cycles
    );
    let table = effectiveness_sweep(&dense, &scenario, params, probe, profiler);
    (table, cycles)
}

/// **Figure 12**: the distribution of node lifetimes in churn steady state,
/// aggregated over `repeats` independently seeded experiments. The repeats
/// fan out across `params.thread_count()` workers; the histogram is
/// identical for every thread count (repeat `r` is a pure function of
/// `seed + r`).
pub fn lifetime_distribution(params: &ExperimentParams, repeats: usize) -> LifetimeHistogram {
    let seeds: Vec<u64> = (0..repeats as u64)
        .map(|repeat| params.seed.wrapping_add(repeat))
        .collect();
    let per_repeat = hybridcast_sim::dense::par_map_seeds(&seeds, params.thread_count(), |seed| {
        let seeded = ExperimentParams {
            seed,
            ..params.clone()
        };
        let (network, _) = churned_network(&seeded, &mut NullProbe, &mut StageProfiler::new());
        lifetime_histogram(&network)
    });
    let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
    for repeat_counts in per_repeat {
        for (lifetime, count) in repeat_counts {
            *counts.entry(lifetime).or_insert(0) += count;
        }
    }
    LifetimeHistogram {
        label: "lifetimes of live nodes in churn steady state".to_owned(),
        counts,
    }
}

/// **Figure 13**: the lifetime distribution of the nodes that were *not*
/// notified, per protocol, for the given fanouts.
pub fn miss_lifetimes(
    params: &ExperimentParams,
    fanouts: &[usize],
) -> Vec<(String, usize, LifetimeHistogram)> {
    let (network, _) = churned_network(params, &mut NullProbe, &mut StageProfiler::new());
    let dense = DenseOverlay::from_dense_sim(&network);
    let now = network.cycle();
    configurations(fanouts)
        .map(|(tag, fanout, protocol)| {
            let reports = dissemination_runs(&dense, &protocol, params, tag, &mut NullProbe);
            let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
            for report in &reports {
                for &missed in &report.unreached {
                    if let Some(joined) = network.joined_at_cycle(missed) {
                        *counts.entry(now.saturating_sub(joined)).or_insert(0) += 1;
                    }
                }
            }
            let label = format!(
                "lifetimes of non-notified nodes ({} fanout {fanout}, {} runs)",
                protocol.name(),
                params.runs
            );
            let histogram = LifetimeHistogram { label, counts };
            (protocol.name().to_owned(), fanout, histogram)
        })
        .collect()
}

/// Result row of the push/pull extension experiment.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PushPullRow {
    /// Protocol used for the push phase.
    pub protocol: String,
    /// Push fanout.
    pub fanout: usize,
    /// Scenario description.
    pub scenario: String,
    /// Mean miss ratio after the push phase alone.
    pub push_miss_ratio: f64,
    /// Mean miss ratio after the pull phase.
    pub final_miss_ratio: f64,
    /// Mean number of pull rounds executed.
    pub mean_pull_rounds: f64,
    /// Mean total messages including polls and transfers.
    pub mean_total_messages: f64,
}

/// Reduces one configuration's [`PushPullReport`]s to a result row.
fn push_pull_row(
    protocol: &DenseSelector,
    fanout: usize,
    scenario: &str,
    reports: &[PushPullReport],
) -> PushPullRow {
    let n = reports.len() as f64;
    PushPullRow {
        protocol: protocol.name().to_owned(),
        fanout,
        scenario: scenario.to_owned(),
        push_miss_ratio: reports.iter().map(|r| r.push.miss_ratio()).sum::<f64>() / n,
        final_miss_ratio: reports.iter().map(|r| r.miss_ratio()).sum::<f64>() / n,
        mean_pull_rounds: reports.iter().map(|r| r.pull_rounds as f64).sum::<f64>() / n,
        mean_total_messages: reports
            .iter()
            .map(|r| r.total_messages() as f64)
            .sum::<f64>()
            / n,
    }
}

/// **Future-work extension (Section 8)**: push dissemination followed by
/// pull-based anti-entropy. For each fanout and both protocols, reports the
/// miss ratio before and after the pull phase together with its cost in
/// rounds and messages, over a static overlay with a catastrophic failure of
/// `fail_fraction` (use `0.0` for the failure-free case).
///
/// Each (protocol, fanout) configuration fans `params.runs` seeded push +
/// pull runs across [`ExperimentParams::thread_count`] worker threads over
/// the allocation-free pull engine.
pub fn push_pull_extension(params: &ExperimentParams, fail_fraction: f64) -> Vec<PushPullRow> {
    let scenario = if fail_fraction > 0.0 {
        format!("after {:.0}% catastrophic failure", fail_fraction * 100.0)
    } else {
        "static failure-free".to_owned()
    };
    let pull_config = PullConfig {
        fanout: 1,
        max_rounds: 50,
        ..PullConfig::default()
    };
    let mut dense = overlay_of(params, params.sim_config());
    fail_nodes(&mut dense, fail_fraction, params.seed);
    configurations(&params.fanouts)
        .map(|(tag, fanout, protocol)| {
            let reports = run_seeded_push_pulls(
                &dense,
                &protocol,
                &pull_config,
                params.runs,
                run_seed(params.seed, tag),
                params.thread_count(),
            );
            push_pull_row(&protocol, fanout, &scenario, &reports)
        })
        .collect()
}

/// **Section 7.1 ablation**: freezing the overlay at different instants does
/// not change macroscopic dissemination behaviour. Returns one table per
/// extra-warm-up offset; one overlay keeps gossiping from offset to offset.
///
/// # Panics
///
/// Panics if `extra_cycles` descends: the overlay cannot gossip backwards.
pub fn frozen_overlay_ablation(
    params: &ExperimentParams,
    extra_cycles: &[usize],
) -> Vec<(usize, EffectivenessTable)> {
    let mut network = warmed_network(
        params,
        params.sim_config(),
        &mut NullProbe,
        &mut StageProfiler::new(),
    );
    let mut out = Vec::new();
    let mut elapsed = 0usize;
    for &extra in extra_cycles {
        assert!(extra >= elapsed, "extra_cycles must not descend");
        network.run_cycles(extra - elapsed);
        elapsed = extra;
        let dense = DenseOverlay::from_dense_sim(&network);
        let scenario = format!("frozen {} cycles after warm-up", extra);
        out.push((extra, effectiveness_of(&dense, &scenario, params)));
    }
    out
}

/// Result row of the asynchronous-latency ablation: macroscopic
/// dissemination quantities for one forwarding-delay setting.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LatencyAblationRow {
    /// Forwarding delay as a fraction of the gossip period.
    pub delay_over_period: f64,
    /// Whether membership gossip kept running during the dissemination.
    /// Always `false` here: [`latency_ablation`] runs over a frozen
    /// overlay. The field stays in the row (and its JSON) for tables built
    /// from live-membership runs, such as the oracle comparison in the
    /// tests.
    pub live_membership: bool,
    /// Mean hit ratio over the runs.
    pub mean_hit_ratio: f64,
    /// Mean number of dissemination messages per run.
    pub mean_messages: f64,
    /// Mean simulated completion time (only over completed runs).
    pub mean_completion_time: Option<f64>,
    /// Number of runs aggregated.
    pub runs: usize,
}

impl LatencyAblationRow {
    /// The async configuration of one latency-ablation arm: a forwarding
    /// delay of `ratio` gossip periods (10 time units each), ±10 % jitter,
    /// membership gossip frozen.
    pub fn config(ratio: f64) -> AsyncConfig {
        AsyncConfig {
            gossip_period: 10.0,
            forwarding_delay: 10.0 * ratio,
            jitter: 0.1,
            run_membership_gossip: false,
            max_time: 1_000_000.0,
            ..AsyncConfig::default()
        }
    }

    /// Folds one delay setting's reports into its result row.
    pub fn from_reports(ratio: f64, live_membership: bool, reports: &[AsyncReport]) -> Self {
        let runs = reports.len();
        let completed: Vec<f64> = reports.iter().filter_map(|r| r.completion_time).collect();
        LatencyAblationRow {
            delay_over_period: ratio,
            live_membership,
            mean_hit_ratio: reports.iter().map(AsyncReport::hit_ratio).sum::<f64>() / runs as f64,
            mean_messages: reports.iter().map(|r| r.messages_sent as f64).sum::<f64>()
                / runs as f64,
            mean_completion_time: if completed.is_empty() {
                None
            } else {
                Some(completed.iter().sum::<f64>() / completed.len() as f64)
            },
            runs,
        }
    }
}

/// The smallest configured fanout: the one fanout the single-fanout sweeps
/// (latency, adversarial, connectivity) run at.
fn smallest_fanout(params: &ExperimentParams) -> usize {
    params
        .fanouts
        .iter()
        .copied()
        .min()
        .expect("ExperimentParams::validate rejects an empty fanout list")
}

/// **Section 7.1 ablation (asynchronous)**: the paper claims that varying
/// the message forwarding time from zero to several gossip periods has no
/// effect on the macroscopic dissemination behaviour. This experiment
/// re-runs RingCast (at the smallest configured fanout) in the event-driven
/// latency-model engine, sweeping the forwarding delay over the given
/// multiples of the gossip period.
///
/// The overlay is grown once by the arena runtime, frozen, exported
/// straight to CSR, and the seeded runs of every delay setting fan out
/// across [`ExperimentParams::thread_count`] worker threads over
/// [`hybridcast_core::async_engine::disseminate_async_dense`] — the
/// frozen-overlay setting whose equivalence to live membership the paper
/// asserts (a test in `tests/figure_golden.rs` checks it against the
/// id-keyed live-membership engine of the test-only oracle crate).
pub fn latency_ablation(
    params: &ExperimentParams,
    delay_ratios: &[f64],
) -> Vec<LatencyAblationRow> {
    let fanout = smallest_fanout(params);
    let dense = overlay_of(params, params.sim_config());
    delay_ratios
        .iter()
        .zip(0u64..)
        .map(|(&ratio, tag)| {
            let config = LatencyAblationRow::config(ratio);
            let reports = async_runs(&dense, fanout, &config, params, tag, &mut NullProbe);
            LatencyAblationRow::from_reports(ratio, false, &reports)
        })
        .collect()
}

/// Result row of the adversarial loss sweep: macroscopic dissemination
/// quantities for one i.i.d. per-message loss rate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AdversarialLossRow {
    /// Probability that any single message is dropped in flight.
    pub loss_rate: f64,
    /// Mean hit ratio over the runs.
    pub mean_hit_ratio: f64,
    /// Mean number of dissemination messages sent per run (drops included).
    pub mean_messages: f64,
    /// Mean number of messages eaten by the loss process per run.
    pub mean_dropped_loss: f64,
    /// Runs in which every live node was notified.
    pub completed_runs: usize,
    /// Mean simulated completion time (only over completed runs).
    pub mean_completion_time: Option<f64>,
    /// Number of runs aggregated.
    pub runs: usize,
}

/// Result row of the partition sweep: dissemination behaviour for one
/// scripted network-bisection duration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AdversarialPartitionRow {
    /// How long the bisection stayed up (0 = no partition, the baseline).
    pub duration: f64,
    /// Mean hit ratio over the runs.
    pub mean_hit_ratio: f64,
    /// Mean number of messages dropped at the cut per run.
    pub mean_dropped_partition: f64,
    /// Runs whose last first-notification landed after the heal — the runs
    /// for which a re-convergence time is defined.
    pub recovered_runs: usize,
    /// Mean re-convergence time after the heal, over `recovered_runs`.
    pub mean_recovery_time: Option<f64>,
    /// Number of runs aggregated.
    pub runs: usize,
}

/// The shared body of the two adversarial sweeps: grows and freezes the
/// overlay once, then for every sweep point opens a `Section` (`param` =
/// the point) and runs `params.runs` seeded RingCast disseminations (at the
/// smallest configured fanout) in the event-driven engine under
/// `config_for(point)`, folding them with `row_for`.
fn adversarial_sweep<P: Probe, Row>(
    params: &ExperimentParams,
    points: &[f64],
    config_for: impl Fn(f64) -> AsyncConfig,
    row_for: impl Fn(f64, &[AsyncReport]) -> Row,
    probe: &mut P,
    profiler: &mut StageProfiler,
) -> Vec<Row> {
    let fanout = smallest_fanout(params);
    let overlay = frozen_overlay(params, params.sim_config(), probe, profiler);
    profiler.stage("dissemination");
    let mut heartbeat = Heartbeat::new(points.len() as u64, "configs", params.quiet);
    let mut rows = Vec::new();
    for (&point, tag) in points.iter().zip(0u64..) {
        let config = config_for(point);
        config.validate().expect("adversarial sweep config");
        probe.record(TraceEvent::Section {
            protocol: ProtocolKind::RingCast,
            fanout: fanout as u32,
            param: point,
        });
        let reports = async_runs(&overlay, fanout, &config, params, tag, probe);
        rows.push(row_for(point, &reports));
        heartbeat.advance(1, "dissemination");
    }
    profiler.stage("aggregation");
    profiler.finish();
    rows
}

/// **Adversarial extension (loss)**: hit ratio and message overhead of
/// RingCast in the event-driven engine as an i.i.d. per-message loss
/// process eats a growing fraction of the traffic.
///
/// A rate of `0.0` uses [`LossModel::None`], so the first row of the usual
/// sweep is byte-for-byte the unmodelled engine — the zero-cost default the
/// fixture baselines pin. The overlay is grown once and frozen; each rate
/// gets its own master seed and `params.runs` seeded runs. In the trace
/// each rate opens a `Section` (`param` = loss rate) followed by its runs.
pub fn adversarial_loss_sweep<P: Probe>(
    params: &ExperimentParams,
    loss_rates: &[f64],
    probe: &mut P,
    profiler: &mut StageProfiler,
) -> Vec<AdversarialLossRow> {
    adversarial_sweep(params, loss_rates, loss_config, loss_row, probe, profiler)
}

/// The async configuration of one loss-sweep arm: i.i.d. per-message loss
/// at `rate` (exactly [`LossModel::None`] at 0.0, the unmodelled baseline).
fn loss_config(rate: f64) -> AsyncConfig {
    AsyncConfig {
        run_membership_gossip: false,
        net: NetModel {
            loss: if rate > 0.0 {
                LossModel::Iid { rate }
            } else {
                LossModel::None
            },
            ..NetModel::default()
        },
        ..AsyncConfig::default()
    }
}

/// Folds one loss-sweep arm's reports into its result row.
fn loss_row(rate: f64, reports: &[AsyncReport]) -> AdversarialLossRow {
    let runs = reports.len();
    let completed: Vec<f64> = reports.iter().filter_map(|r| r.completion_time).collect();
    AdversarialLossRow {
        loss_rate: rate,
        mean_hit_ratio: reports.iter().map(AsyncReport::hit_ratio).sum::<f64>() / runs as f64,
        mean_messages: reports.iter().map(|r| r.messages_sent as f64).sum::<f64>() / runs as f64,
        mean_dropped_loss: reports.iter().map(|r| r.dropped_loss as f64).sum::<f64>() / runs as f64,
        completed_runs: completed.len(),
        mean_completion_time: if completed.is_empty() {
            None
        } else {
            Some(completed.iter().sum::<f64>() / completed.len() as f64)
        },
        runs,
    }
}

/// **Adversarial extension (partitions)**: re-convergence of RingCast after
/// a scripted network bisection of varying duration.
///
/// Every row splits the overlay into the same salt-keyed halves at time
/// `start` and heals it `duration` later; a duration of `0.0` runs with no
/// partition at all (the baseline row). Per-link delays are heavy-tailed
/// ([`DelayModel::LogNormal`], σ = 1.25) so a tail of messages is still in
/// flight when the cut heals and the measured re-convergence time — last
/// first-notification minus heal time — is not an artifact of the cut
/// killing the run outright. In the trace each duration opens a `Section`
/// (`param` = duration) followed by its seeded runs, whose
/// `PartitionOpen`/`PartitionHeal` events announce the scripted timeline.
pub fn adversarial_partition_sweep<P: Probe>(
    params: &ExperimentParams,
    durations: &[f64],
    start: f64,
    probe: &mut P,
    profiler: &mut StageProfiler,
) -> Vec<AdversarialPartitionRow> {
    adversarial_sweep(
        params,
        durations,
        |duration| partition_config(duration, start),
        partition_row,
        probe,
        profiler,
    )
}

/// The async configuration of one partition-sweep arm: a salt-keyed
/// bisection from `start` for `duration` (none at 0.0) under heavy-tailed
/// per-link delays.
fn partition_config(duration: f64, start: f64) -> AsyncConfig {
    let partitions = if duration > 0.0 {
        vec![PartitionEvent::bisection(start, duration, 0x00C0_FFEE)]
    } else {
        Vec::new()
    };
    AsyncConfig {
        run_membership_gossip: false,
        net: NetModel {
            delay: DelayModel::LogNormal {
                mu: 0.0,
                sigma: 1.25,
            },
            partitions,
            ..NetModel::default()
        },
        ..AsyncConfig::default()
    }
}

/// Folds one partition-sweep arm's reports into its result row.
fn partition_row(duration: f64, reports: &[AsyncReport]) -> AdversarialPartitionRow {
    let runs = reports.len();
    let recoveries: Vec<f64> = reports
        .iter()
        .filter_map(|r| r.partition_recovery.first().copied().flatten())
        .collect();
    AdversarialPartitionRow {
        duration,
        mean_hit_ratio: reports.iter().map(AsyncReport::hit_ratio).sum::<f64>() / runs as f64,
        mean_dropped_partition: reports
            .iter()
            .map(|r| r.dropped_partition as f64)
            .sum::<f64>()
            / runs as f64,
        recovered_runs: recoveries.len(),
        mean_recovery_time: if recoveries.is_empty() {
            None
        } else {
            Some(recoveries.iter().sum::<f64>() / recoveries.len() as f64)
        },
        runs,
    }
}

/// **Section 8 ablation**: reliability of different d-link structures under
/// catastrophic failure — a single ring, multiple independent rings and a
/// static Harary graph of connectivity 4.
///
/// Every configuration is evaluated with RingCast after killing
/// `fail_fraction` of the nodes. To keep the comparison fair, every arm is
/// given the same *random-link budget*: the configured base fanout
/// (smallest entry of `params.fanouts`, raised to 2 if it is 1, so that
/// `base - 2` below is never negative) is the fanout of the single-ring
/// arm, and arms with more deterministic links get their fanout increased
/// by the extra d-degree, so each arm forwards over `base - 2` random links
/// plus all of its deterministic links. The extra messages the denser
/// d-link structures send are exactly the "increased gossip traffic" the
/// paper predicts for the multi-ring extension.
pub fn connectivity_ablation(
    params: &ExperimentParams,
    fail_fraction: f64,
) -> Vec<(String, AggregateStats)> {
    let base_fanout = smallest_fanout(params).max(2);

    let mut out = Vec::new();
    // Fails `fail_fraction` of one arm's overlay and measures RingCast over
    // what is left. The arm's position is its master-seed tag, so no two
    // arms ever share a per-run RNG stream however the arm list evolves.
    let mut measure = |label: String, name: &str, fanout: usize, mut dense: DenseOverlay| {
        fail_nodes(&mut dense, fail_fraction, params.seed);
        let protocol = DenseSelector::ringcast(fanout);
        let tag = out.len() as u64;
        let reports = dissemination_runs(&dense, &protocol, params, tag, &mut NullProbe);
        out.push((label, AggregateStats::from_reports(name, fanout, &reports)));
    };

    // Vicinity-maintained rings: 1, 2 and 3 independent rings (d-degree 2k).
    for rings in [1usize, 2, 3] {
        let config = SimConfig {
            rings,
            ..params.sim_config()
        };
        measure(
            format!("{rings}-ring RingCast"),
            &format!("RingCast x{rings}"),
            base_fanout + 2 * (rings - 1),
            overlay_of(params, config),
        );
    }

    // A statically built Harary graph H(n, 4) as the d-link set (d-degree 4),
    // with the same random r-link density as Cyclon would provide.
    let nodes: Vec<NodeId> = (0..params.nodes as u64).map(NodeId::new).collect();
    let h = harary::harary_graph(&nodes, 4);
    let mut overlay_rng = ChaCha8Rng::seed_from_u64(params.seed.wrapping_add(0xAB1E));
    let random = builders::random_out_degree(&nodes, 20, &mut overlay_rng);
    measure(
        "static Harary(4) hybrid".to_owned(),
        "RingCast/H4",
        base_fanout + 2,
        DenseOverlay::from_graphs(&h, &random),
    );

    out
}

/// **Section 6 ablation**: sensitivity to the membership view length
/// (`cyc = vic`), evaluated at a fixed small fanout.
pub fn view_length_ablation(
    params: &ExperimentParams,
    view_lengths: &[usize],
    fanout: usize,
) -> Vec<(usize, EffectivenessTable)> {
    let single = ExperimentParams {
        fanouts: vec![fanout],
        ..params.clone()
    };
    view_lengths
        .iter()
        .map(|&view| {
            let config = SimConfig {
                cyclon_view: view,
                vicinity_view: view,
                ..params.sim_config()
            };
            let dense = overlay_of(params, config);
            let scenario = format!("view length {view}");
            (view, effectiveness_of(&dense, &scenario, &single))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::scenario::EngineKind;

    fn tiny() -> ExperimentParams {
        ExperimentParams {
            nodes: 200,
            runs: 8,
            warmup_cycles: 80,
            fanouts: vec![2, 4],
            seed: 5,
            churn_rate: 0.02,
            churn_max_cycles: 500,
            engine: EngineKind::Dense,
            threads: 2,
            rng: hybridcast_sim::RngMode::Shared,
            quiet: true,
        }
    }

    #[test]
    fn probed_static_effectiveness_matches_unprobed_bit_for_bit() {
        use hybridcast_obs::VecProbe;

        // The plain sweep fans its runs across threads; a recording probe
        // forces the sequential driver. Same table either way.
        let params = tiny();
        let mut profiler = StageProfiler::new();
        let traced = static_effectiveness_probed(&params, &mut VecProbe::new(), &mut profiler);
        assert_eq!(static_effectiveness(&params), traced);
        let names: Vec<&str> = profiler.stages().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["overlay build", "warm-up", "dissemination", "aggregation"]
        );
    }

    #[test]
    fn probed_churn_effectiveness_matches_unprobed_bit_for_bit() {
        use hybridcast_obs::VecProbe;

        let params = tiny();
        let mut probe = VecProbe::new();
        let traced = churn_effectiveness_probed(&params, &mut probe, &mut StageProfiler::new());
        assert_eq!(churn_effectiveness(&params), traced);
        assert!(
            probe
                .events
                .iter()
                .any(|e| matches!(e, TraceEvent::Join { .. })),
            "the churn warm-up must be part of the trace"
        );
    }

    #[test]
    fn probed_adversarial_sweeps_match_unprobed_bit_for_bit() {
        use hybridcast_obs::VecProbe;

        let params = ExperimentParams {
            runs: 4,
            fanouts: vec![4],
            ..tiny()
        };
        let rates = [0.0, 0.2];
        let plain =
            adversarial_loss_sweep(&params, &rates, &mut NullProbe, &mut StageProfiler::new());
        let mut probe = VecProbe::new();
        let mut profiler = StageProfiler::new();
        let probed = adversarial_loss_sweep(&params, &rates, &mut probe, &mut profiler);
        assert_eq!(plain, probed);
        let sections: Vec<f64> = probe
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Section { param, .. } => Some(*param),
                _ => None,
            })
            .collect();
        assert_eq!(sections, rates);

        let durations = [0.0, 3.0];
        let plain = adversarial_partition_sweep(
            &params,
            &durations,
            2.0,
            &mut NullProbe,
            &mut StageProfiler::new(),
        );
        let mut probe = VecProbe::new();
        let mut profiler = StageProfiler::new();
        let probed =
            adversarial_partition_sweep(&params, &durations, 2.0, &mut probe, &mut profiler);
        assert_eq!(plain, probed);
        assert!(
            probe
                .events
                .iter()
                .any(|e| matches!(e, TraceEvent::PartitionOpen { .. })),
            "the scripted bisection must be announced in the trace"
        );
    }

    #[test]
    fn single_fanout_sweeps_run_at_the_smallest_fanout_not_the_first() {
        let descending = ExperimentParams {
            nodes: 100,
            runs: 3,
            warmup_cycles: 40,
            fanouts: vec![4, 2],
            ..tiny()
        };
        let smallest = ExperimentParams {
            fanouts: vec![2],
            ..descending.clone()
        };
        let latency = |p: &ExperimentParams| latency_ablation(p, &[0.5]);
        assert_eq!(latency(&descending), latency(&smallest));
        let first = ExperimentParams {
            fanouts: vec![4],
            ..descending.clone()
        };
        assert_ne!(latency(&descending), latency(&first));
        let loss = |p: &ExperimentParams| {
            adversarial_loss_sweep(p, &[0.1], &mut NullProbe, &mut StageProfiler::new())
        };
        assert_eq!(loss(&descending), loss(&smallest));
        assert_eq!(
            connectivity_ablation(&descending, 0.05),
            connectivity_ablation(&smallest, 0.05)
        );
    }

    #[test]
    fn dense_results_are_thread_count_invariant_end_to_end() {
        let mut sequential = tiny();
        sequential.threads = 1;
        let mut parallel = tiny();
        parallel.threads = 4;
        assert_eq!(
            static_effectiveness(&sequential).rows,
            static_effectiveness(&parallel).rows,
            "thread count must never change experiment data"
        );
    }

    #[test]
    fn static_effectiveness_shows_the_papers_headline_result() {
        let table = static_effectiveness(&tiny());
        assert_eq!(table.rows.len(), 4, "2 fanouts x 2 protocols");
        for fanout in [2, 4] {
            let ring = table.row("RingCast", fanout).unwrap();
            assert_eq!(ring.mean_miss_ratio, 0.0, "RingCast always complete");
            assert_eq!(ring.complete_fraction, 1.0);
        }
        let rand2 = table.row("RandCast", 2).unwrap();
        let rand4 = table.row("RandCast", 4).unwrap();
        assert!(rand2.mean_miss_ratio >= rand4.mean_miss_ratio);
        assert!(rand2.mean_miss_ratio > 0.0, "fanout 2 misses nodes");
    }

    #[test]
    fn progress_series_are_monotone_and_end_low() {
        let series = static_progress(&tiny(), &[3]);
        assert_eq!(series.len(), 2);
        for s in &series {
            assert_eq!(s.runs, 8);
            assert!((s.mean_not_reached[0] - (1.0 - 1.0 / 200.0)).abs() < 1e-9);
            for window in s.mean_not_reached.windows(2) {
                assert!(window[1] <= window[0] + 1e-12, "progress is monotone");
            }
            if s.protocol == "RingCast" {
                assert!(s.mean_not_reached.last().unwrap() < &1e-9);
            }
        }
    }

    #[test]
    fn catastrophic_effectiveness_degrades_gracefully() {
        let tables = catastrophic_effectiveness(&tiny(), &[0.05]);
        assert_eq!(tables.len(), 1);
        let (fraction, table) = &tables[0];
        assert_eq!(*fraction, 0.05);
        let ring = table.row("RingCast", 2).unwrap();
        let rand = table.row("RandCast", 2).unwrap();
        assert!(ring.mean_miss_ratio <= rand.mean_miss_ratio);
        assert_eq!(ring.population, 190);
    }

    #[test]
    fn churn_figures_produce_consistent_histograms() {
        let params = tiny();
        let histogram = lifetime_distribution(&params, 1);
        assert_eq!(histogram.total(), params.nodes);

        let tables = miss_lifetimes(&params, &[2]);
        assert_eq!(tables.len(), 2);
        for (_protocol, fanout, hist) in &tables {
            assert_eq!(*fanout, 2);
            // Any missed node must have a recorded lifetime >= 0; the
            // histogram may legitimately be empty if nothing was missed.
            for (&lifetime, &count) in &hist.counts {
                assert!(count > 0);
                assert!(lifetime <= params.churn_max_cycles as u64);
            }
        }
    }

    #[test]
    fn dense_latency_ablation_is_thread_invariant_and_delay_insensitive() {
        let mut params = tiny();
        params.fanouts = vec![3];
        params.runs = 6;
        let rows = latency_ablation(&params, &[0.1, 3.0]);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(!row.live_membership, "dense runs over a frozen overlay");
            assert_eq!(row.runs, 6);
            assert_eq!(row.mean_hit_ratio, 1.0, "RingCast f=3 completes");
        }
        // The Section 7.1 claim, in the dense engine: messages identical,
        // only completion time stretches with the forwarding delay.
        assert_eq!(rows[0].mean_messages, rows[1].mean_messages);
        assert!(
            rows[1].mean_completion_time.unwrap() > rows[0].mean_completion_time.unwrap() * 5.0
        );
        // Thread-count invariance end to end.
        let mut sequential = params.clone();
        sequential.threads = 1;
        assert_eq!(rows, latency_ablation(&sequential, &[0.1, 3.0]));
    }

    #[test]
    fn dense_push_pull_extension_closes_randcast_misses() {
        let mut params = tiny();
        params.fanouts = vec![2];
        let rows = push_pull_extension(&params, 0.0);
        assert_eq!(rows.len(), 2);
        let rand = rows.iter().find(|r| r.protocol == "RandCast").unwrap();
        assert!(rand.push_miss_ratio > 0.0, "fanout 2 push leaves misses");
        assert!(
            rand.final_miss_ratio < rand.push_miss_ratio / 2.0,
            "pull closes most of the gap: {} -> {}",
            rand.push_miss_ratio,
            rand.final_miss_ratio
        );
        assert!(rand.mean_pull_rounds >= 1.0);
        // Thread-count invariance end to end.
        let mut sequential = params.clone();
        sequential.threads = 1;
        assert_eq!(rows, push_pull_extension(&sequential, 0.0));
    }

    #[test]
    fn ablations_run_at_small_scale() {
        let mut params = tiny();
        params.fanouts = vec![2];
        params.runs = 5;

        let frozen = frozen_overlay_ablation(&params, &[0, 20]);
        assert_eq!(frozen.len(), 2);
        let miss_a = frozen[0].1.row("RingCast", 2).unwrap().mean_miss_ratio;
        let miss_b = frozen[1].1.row("RingCast", 2).unwrap().mean_miss_ratio;
        assert_eq!(miss_a, 0.0);
        assert_eq!(miss_b, 0.0);

        let connectivity = connectivity_ablation(&params, 0.05);
        assert_eq!(connectivity.len(), 4);
        for (_, stats) in &connectivity {
            assert!(stats.mean_miss_ratio < 0.3);
        }

        let views = view_length_ablation(&params, &[5, 20], 2);
        assert_eq!(views.len(), 2);
        for (_, table) in &views {
            assert_eq!(table.rows.len(), 2);
        }

        // The ablations grow their overlays like every other figure, so the
        // membership RNG mode reaches them.
        params.rng = hybridcast_sim::RngMode::PerNode;
        assert_ne!(views, view_length_ablation(&params, &[5, 20], 2));
    }

    #[test]
    fn adversarial_loss_sweep_degrades_hit_ratio_and_is_thread_invariant() {
        let mut params = tiny();
        params.fanouts = vec![3];
        params.runs = 6;
        let rates = [0.0, 0.2, 0.6];
        let rows =
            adversarial_loss_sweep(&params, &rates, &mut NullProbe, &mut StageProfiler::new());
        assert_eq!(rows.len(), 3);

        // The lossless row is the unmodelled engine: complete and drop-free.
        assert_eq!(rows[0].mean_hit_ratio, 1.0);
        assert_eq!(rows[0].mean_dropped_loss, 0.0);
        assert_eq!(rows[0].completed_runs, params.runs);
        // Heavier loss eats a larger fraction of the traffic (absolute
        // counts can shrink — at 60% the dissemination dies early) and at
        // 60% the hit ratio visibly degrades.
        assert!(rows[1].mean_dropped_loss > 0.0);
        let fraction = |row: &AdversarialLossRow| row.mean_dropped_loss / row.mean_messages;
        assert!(fraction(&rows[2]) > fraction(&rows[1]));
        assert!(
            (fraction(&rows[1]) - 0.2).abs() < 0.1,
            "drops track the rate"
        );
        assert!(rows[2].mean_hit_ratio < rows[0].mean_hit_ratio);

        let mut sequential = params.clone();
        sequential.threads = 1;
        assert_eq!(
            rows,
            adversarial_loss_sweep(
                &sequential,
                &rates,
                &mut NullProbe,
                &mut StageProfiler::new()
            )
        );
    }

    #[test]
    fn adversarial_partition_sweep_reports_recovery_and_is_thread_invariant() {
        let mut params = tiny();
        params.fanouts = vec![3];
        params.runs = 6;
        let durations = [0.0, 4.0];
        let rows = adversarial_partition_sweep(
            &params,
            &durations,
            2.0,
            &mut NullProbe,
            &mut StageProfiler::new(),
        );
        assert_eq!(rows.len(), 2);

        // Baseline: no partition, nothing dropped at a cut, no recovery axis.
        assert_eq!(rows[0].mean_dropped_partition, 0.0);
        assert_eq!(rows[0].recovered_runs, 0);
        assert_eq!(rows[0].mean_recovery_time, None);
        // A healed bisection drops traffic at the cut but the heavy-tailed
        // in-flight messages carry the dissemination across the heal.
        assert!(rows[1].mean_dropped_partition > 0.0);
        assert!(rows[1].recovered_runs > 0);
        assert!(rows[1].mean_recovery_time.unwrap() > 0.0);
        // Forwarding is one-shot (no anti-entropy), so a few nodes whose
        // only notifications were eaten at the cut can stay unreached —
        // but the late heavy-tail deliveries carry most runs across.
        assert!(rows[1].mean_hit_ratio > 0.9, "heal mostly recovers");

        let mut sequential = params.clone();
        sequential.threads = 1;
        assert_eq!(
            rows,
            adversarial_partition_sweep(
                &sequential,
                &durations,
                2.0,
                &mut NullProbe,
                &mut StageProfiler::new()
            )
        );
    }
}
