//! The adapter: **every** call the benchmark makes into the hybridcast
//! libraries lives in this module, so a library API change (ROADMAP item 2
//! intends to collapse the `disseminate_*` quartets) is absorbed here and
//! nowhere else. The pinned surface is listed in `benchmark/README.md`.
//!
//! Preference order: the highest-level entry points first (`figures::*`,
//! `output::render_effectiveness`, `run_seeded_*`, `DenseSimNetwork`,
//! `ChurnDriver`, `DenseOverlay::from_*`); the single-run `disseminate_*`
//! functions only where a scratch accessor is the thing being measured.

use std::time::Instant;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use hybridcast_bench::figures::{self, EffectivenessTable};
use hybridcast_bench::output;
use hybridcast_bench::scenario::{EngineKind, ExperimentParams};
use hybridcast_core::async_engine::{disseminate_async_dense, AsyncConfig, DenseAsyncScratch};
use hybridcast_core::experiment::{
    run_seed, run_seeded_async, run_seeded_disseminations, run_seeded_disseminations_probed,
    AggregateStats,
};
use hybridcast_core::metrics::DisseminationReport;
use hybridcast_core::overlay::{DenseOverlay, Overlay, SnapshotOverlay};
use hybridcast_core::protocols::DenseSelector;
use hybridcast_core::sched::{CalendarQueue, SchedConfig};
use hybridcast_graph::NodeId;
use hybridcast_obs::{MetricsProbe, NullProbe};
use hybridcast_sim::churn::{ChurnConfig, ChurnDriver};
use hybridcast_sim::{DenseSimNetwork, FlatLinks, OverlaySnapshot, RngMode, SimConfig};

/// Opaque handles the workloads pass around without looking inside.
pub type Params = ExperimentParams;
/// A figure's result table.
pub type Table = EffectivenessTable;
/// The arena membership runtime (shared-stream or per-node mode).
pub type Network = DenseSimNetwork;
/// The frozen CSR overlay every dissemination engine runs over.
pub type Dense = DenseOverlay;
/// The churn policy driver.
pub type Churn = ChurnDriver;
/// Flat CSR link arrays.
pub type Links = FlatLinks;
/// The frozen id-keyed overlay.
pub type Snapshot = SnapshotOverlay;
/// One configuration's aggregate row.
pub type Row = AggregateStats;
/// One hop-synchronous dissemination's report.
pub type Report = DisseminationReport;
/// Latency-model engine configuration.
pub type AsyncCfg = AsyncConfig;

/// The two protocols the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Purely probabilistic forwarding over r-links.
    RandCast,
    /// Hybrid: both ring d-links plus random r-links.
    RingCast,
}

impl Protocol {
    /// Display name, as the figure tables print it.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::RandCast => "RandCast",
            Protocol::RingCast => "RingCast",
        }
    }

    fn selector(self, fanout: usize) -> DenseSelector {
        match self {
            Protocol::RandCast => DenseSelector::randcast(fanout),
            Protocol::RingCast => DenseSelector::ringcast(fanout),
        }
    }
}

/// Sizes of one figure-shaped run.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureSizes {
    /// Network size.
    pub nodes: usize,
    /// Disseminations per (protocol, fanout).
    pub runs: usize,
    /// Static warm-up cycles (fig06).
    pub warmup_cycles: usize,
    /// Fanouts swept.
    pub fanouts: Vec<usize>,
    /// Fraction of nodes replaced per cycle (fig11).
    pub churn_rate: f64,
    /// Cap on churn warm-up cycles (fig11).
    pub churn_max_cycles: usize,
}

/// The figure binaries' `--paper` parameters with the given sizes, seed and
/// thread count: dense engine, shared-stream membership, heartbeat silenced.
pub fn figure_params(sizes: &FigureSizes, seed: u64, threads: usize) -> Params {
    ExperimentParams {
        nodes: sizes.nodes,
        runs: sizes.runs,
        warmup_cycles: sizes.warmup_cycles,
        fanouts: sizes.fanouts.clone(),
        seed,
        churn_rate: sizes.churn_rate,
        churn_max_cycles: sizes.churn_max_cycles,
        engine: EngineKind::Dense,
        threads,
        rng: RngMode::Shared,
        quiet: true,
    }
}

// ---- figure entry points (the untraced timed regions) ---------------------

/// `figures::static_effectiveness` — what `fig06_static_effectiveness` runs.
pub fn static_effectiveness(params: &Params) -> Table {
    figures::static_effectiveness(params)
}

/// `figures::churn_effectiveness` — what `fig11_churn_effectiveness` runs.
pub fn churn_effectiveness(params: &Params) -> (Table, usize) {
    figures::churn_effectiveness(params)
}

/// `output::render_effectiveness`.
pub fn render(table: &Table) -> String {
    output::render_effectiveness(table)
}

/// Assembles a result table from rows, as the figure functions do.
pub fn table(scenario: String, rows: Vec<Row>) -> Table {
    EffectivenessTable { scenario, rows }
}

/// The scenario label `figures::churn_effectiveness` prints.
pub fn churn_scenario_label(params: &Params, cycles: usize) -> String {
    format!(
        "churn steady state ({}% per cycle, {} cycles)",
        params.churn_rate * 100.0,
        cycles
    )
}

/// The fields of a result row the checks and event counts read.
#[derive(Debug, Clone, PartialEq)]
pub struct RowView {
    /// Protocol name.
    pub protocol: String,
    /// Runs aggregated.
    pub runs: usize,
    /// Live population the runs saw.
    pub population: usize,
    /// Mean miss ratio.
    pub mean_miss_ratio: f64,
    /// Fraction of complete runs.
    pub complete_fraction: f64,
    /// Mean messages per run.
    pub mean_total_messages: f64,
}

/// Plain views of a table's rows.
pub fn rows(table: &Table) -> Vec<RowView> {
    table
        .rows
        .iter()
        .map(|r| RowView {
            protocol: r.protocol.clone(),
            runs: r.runs,
            population: r.population,
            mean_miss_ratio: r.mean_miss_ratio,
            complete_fraction: r.complete_fraction,
            mean_total_messages: r.mean_total_messages,
        })
        .collect()
}

// ---- membership layer -----------------------------------------------------

/// `DenseSimNetwork::new` for the figure's parameters (shared stream).
pub fn boot_shared(params: &Params) -> Network {
    DenseSimNetwork::new(params.sim_config(), params.seed)
}

/// `DenseSimNetwork::new_per_node`: counter-based per-node streams, sparse
/// frontier, `threads` intra-cycle workers.
pub fn boot_per_node(nodes: usize, seed: u64, period: u64, threads: usize) -> Network {
    let config = SimConfig {
        nodes,
        ..SimConfig::default()
    };
    DenseSimNetwork::new_per_node(config, seed, period, threads)
}

/// `run_cycles(1)`.
pub fn run_cycle(net: &mut Network) {
    net.run_cycles(1);
}

/// Nodes stepped by the most recent per-node cycle (0 in shared mode).
pub fn last_frontier_len(net: &Network) -> usize {
    net.last_frontier_len().unwrap_or(0)
}

/// Live population.
pub fn live_len(net: &Network) -> usize {
    net.len()
}

/// Ids of the live nodes, ascending.
pub fn live_ids(net: &Network) -> Vec<NodeId> {
    net.live_ids()
}

/// The churn warm-up's stop criterion: every bootstrap node replaced?
pub fn all_replaced(net: &Network, initial: &[NodeId]) -> bool {
    initial.iter().all(|&id| !net.is_live(id))
}

/// `ChurnDriver::new`.
pub fn churn_driver(rate: f64) -> Churn {
    ChurnDriver::new(ChurnConfig { rate })
}

/// `ChurnDriver::apply_churn_step`; returns how many nodes were replaced.
pub fn churn_step(driver: &mut Churn, net: &mut Network) -> usize {
    let (removed, _added) = driver.apply_churn_step(net);
    removed.len()
}

/// `overlay_snapshot()` wrapped as the id-keyed overlay the figures build.
pub fn snapshot(net: &Network) -> Snapshot {
    let snapshot: OverlaySnapshot = net.overlay_snapshot();
    SnapshotOverlay::new(snapshot)
}

/// `flat_links()`.
pub fn flat_links(net: &Network) -> Links {
    net.flat_links()
}

/// Folds the exported link arrays into `sink` (digest input).
pub fn fold_links(links: &Links, mut sink: impl FnMut(u64)) {
    for id in &links.ids {
        sink(id.as_u64());
    }
    for &o in links.r_offsets.iter().chain(&links.d_offsets) {
        sink(u64::from(o));
    }
    for id in links.r_targets.iter().chain(&links.d_targets) {
        sink(id.as_u64());
    }
}

// ---- overlay conversion ---------------------------------------------------

/// `DenseOverlay::from_snapshot` (what `figures::effectiveness_over` does).
pub fn overlay_from_snapshot(overlay: &Snapshot) -> Dense {
    DenseOverlay::from_snapshot(overlay.snapshot())
}

/// `DenseOverlay::from_dense_sim`.
pub fn overlay_from_dense_sim(net: &Network) -> Dense {
    DenseOverlay::from_dense_sim(net)
}

/// `DenseOverlay::from_flat_links`.
pub fn overlay_from_flat_links(links: &Links) -> Dense {
    DenseOverlay::from_flat_links(links)
}

/// Live nodes of a frozen overlay.
pub fn overlay_live_len(overlay: &Dense) -> usize {
    overlay.live_len()
}

/// The `scale_smoke --overlay synthetic` generator: a bidirectional ring as
/// d-links plus `r_degree` uniform random r-links per node, directly in CSR
/// form. Input generation — the library only receives the arrays.
pub fn synthetic_links(nodes: usize, r_degree: usize, seed: u64) -> Links {
    assert!(nodes >= 3, "a ring needs at least 3 nodes");
    let n = nodes as u64;
    let offset = |len: usize| u32::try_from(len).expect("link count fits in u32");
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5E7);
    let ids: Vec<NodeId> = (0..n).map(NodeId::new).collect();
    let mut r_offsets = Vec::with_capacity(nodes + 1);
    let mut r_targets = Vec::with_capacity(nodes * r_degree);
    let mut d_offsets = Vec::with_capacity(nodes + 1);
    let mut d_targets = Vec::with_capacity(nodes * 2);
    r_offsets.push(0u32);
    d_offsets.push(0u32);
    for i in 0..n {
        d_targets.push(NodeId::new(if i == 0 { n - 1 } else { i - 1 }));
        d_targets.push(NodeId::new(if i + 1 == n { 0 } else { i + 1 }));
        d_offsets.push(offset(d_targets.len()));
        for _ in 0..r_degree {
            let mut target = rng.gen_range(0..n);
            while target == i {
                target = rng.gen_range(0..n);
            }
            r_targets.push(NodeId::new(target));
        }
        r_offsets.push(offset(r_targets.len()));
    }
    FlatLinks {
        ids,
        r_offsets,
        r_targets,
        d_offsets,
        d_targets,
    }
}

// ---- hop-synchronous dissemination ----------------------------------------

/// The per-configuration master seed the figure harness derives.
pub fn config_seed(seed: u64, tag: u64) -> u64 {
    run_seed(seed, tag)
}

/// `run_seeded_disseminations`: `runs` seeded runs of one (protocol,
/// fanout) configuration fanned across `threads` workers.
pub fn sweep_config(
    overlay: &Dense,
    protocol: Protocol,
    fanout: usize,
    runs: usize,
    master_seed: u64,
    threads: usize,
) -> Vec<Report> {
    run_seeded_disseminations(
        overlay,
        &protocol.selector(fanout),
        runs,
        master_seed,
        threads,
    )
}

/// `AggregateStats::from_reports`.
pub fn aggregate(protocol: Protocol, fanout: usize, reports: &[Report]) -> Row {
    AggregateStats::from_reports(protocol.name(), fanout, reports)
}

/// Messages sent across a set of reports.
pub fn total_messages(reports: &[Report]) -> u64 {
    reports.iter().map(|r| r.total_messages() as u64).sum()
}

/// Hit ratios of a set of reports, in run order.
pub fn hit_ratios(reports: &[Report]) -> Vec<f64> {
    reports.iter().map(Report::hit_ratio).collect()
}

/// Which probe a probed sweep records into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// `NullProbe`: disabled, compiles to nothing.
    Null,
    /// `MetricsProbe`: folds events into counters.
    Metrics,
}

/// `run_seeded_disseminations_probed` with the chosen probe; returns the
/// messages sent (so the two arms can be checked to agree).
pub fn probed_sweep(
    overlay: &Dense,
    protocol: Protocol,
    fanout: usize,
    runs: usize,
    master_seed: u64,
    probe: ProbeKind,
) -> u64 {
    let selector = protocol.selector(fanout);
    let reports = match probe {
        ProbeKind::Null => {
            run_seeded_disseminations_probed(overlay, &selector, runs, master_seed, &mut NullProbe)
        }
        ProbeKind::Metrics => run_seeded_disseminations_probed(
            overlay,
            &selector,
            runs,
            master_seed,
            &mut MetricsProbe::new(),
        ),
    };
    total_messages(&reports)
}

// ---- latency-model dissemination ------------------------------------------

/// The async configuration of the million-node workload: unit forwarding
/// delay, ±10 % jitter, no membership gossip, default scheduler geometry.
pub fn async_config() -> AsyncCfg {
    AsyncConfig {
        gossip_period: 10.0,
        forwarding_delay: 1.0,
        jitter: 0.1,
        run_membership_gossip: false,
        max_time: 1_000_000.0,
        ..AsyncConfig::default()
    }
}

/// One latency-model run reduced to counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsyncCounts {
    /// Live population.
    pub population: u64,
    /// Nodes notified.
    pub reached: u64,
    /// Messages sent.
    pub messages: u64,
    /// Forwards refused by the event budget.
    pub truncated_sends: u64,
    /// Bit pattern of the completion time (0 if the run did not complete).
    pub completion_bits: u64,
}

/// One **single-run** call of `run_seeded_async` (1 run, 1 thread); the
/// report is reduced to counts and dropped.
pub fn async_run(
    overlay: &Dense,
    protocol: Protocol,
    fanout: usize,
    config: &AsyncCfg,
    master_seed: u64,
) -> AsyncCounts {
    let reports = run_seeded_async(
        overlay,
        &protocol.selector(fanout),
        config,
        1,
        master_seed,
        1,
    );
    let report = &reports[0];
    AsyncCounts {
        population: report.population as u64,
        reached: report.reached as u64,
        messages: report.total_messages() as u64,
        truncated_sends: report.truncated_sends as u64,
        completion_bits: report.completion_time.map_or(0, f64::to_bits),
    }
}

/// What the scheduler looked like after one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedStats {
    /// Peak simultaneously queued deliveries.
    pub queue_high_water: usize,
    /// Peak population of the far-future overflow tier.
    pub overflow_high_water: usize,
    /// Retained queue storage, bytes.
    pub resident_bytes: usize,
    /// Messages the run sent.
    pub messages: u64,
}

/// One `disseminate_async_dense` over a private scratch, read back through
/// the `DenseAsyncScratch` accessors.
pub fn sched_probe(
    overlay: &Dense,
    protocol: Protocol,
    fanout: usize,
    config: &AsyncCfg,
    seed: u64,
) -> SchedStats {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let origin = overlay.live_node_ids()[0];
    let mut scratch = DenseAsyncScratch::new();
    let report = disseminate_async_dense(
        overlay,
        &protocol.selector(fanout),
        origin,
        config,
        &mut rng,
        &mut scratch,
    );
    SchedStats {
        queue_high_water: scratch.event_queue_high_water(),
        overflow_high_water: scratch.overflow_high_water(),
        resident_bytes: scratch.event_resident_bytes(),
        messages: report.total_messages() as u64,
    }
}

/// Hold-model **replay** (not a measurement inside the engine): a
/// `CalendarQueue` of the run's `SchedConfig` geometry is pre-filled to
/// `backlog` events, then `holds` times the earliest event is popped and a
/// new one pushed one jittered forwarding delay ahead. Returns nanoseconds
/// per hold (one pop + one push).
pub fn sched_hold_replay(config: &AsyncCfg, backlog: usize, holds: u64, seed: u64) -> f64 {
    let sched: SchedConfig = config.sched;
    let width = sched.resolved_width(config.forwarding_delay, config.gossip_period);
    let mut queue: CalendarQueue<u32> = CalendarQueue::new(width, sched.num_buckets);
    // A fixed table of jittered delays keeps RNG cost out of the timed loop.
    const TABLE: usize = 1 << 16;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let delays: Vec<f64> = (0..TABLE)
        .map(|_| config.forwarding_delay * (1.0 + config.jitter * (2.0 * rng.gen::<f64>() - 1.0)))
        .collect();
    for i in 0..backlog.max(1) {
        queue.push(delays[i % TABLE], 0);
    }
    let start = Instant::now();
    let mut checksum = 0.0f64;
    for i in 0..holds {
        let event = queue.pop().expect("backlog never empties");
        checksum += event.time;
        queue.push(event.time + delays[(i as usize) % TABLE], 0);
    }
    let elapsed = start.elapsed();
    std::hint::black_box(checksum);
    elapsed.as_nanos() as f64 / holds.max(1) as f64
}

// ---- process memory -------------------------------------------------------

/// `obs::mem::peak_rss_kb` (`VmHWM`), 0 where unavailable.
pub fn peak_rss_kb() -> u64 {
    hybridcast_obs::mem::peak_rss_kb().unwrap_or(0)
}

/// `obs::mem::current_rss_kb` (`VmRSS`), 0 where unavailable.
pub fn current_rss_kb() -> u64 {
    hybridcast_obs::mem::current_rss_kb().unwrap_or(0)
}
