//! Scale smoke test for the arena-based epoch runtime: builds a large
//! overlay, exports it straight to the dense dissemination engine and
//! pushes one RingCast message through it.
//!
//! This is the "millions of users" sanity gate. CI runs it twice: at
//! 100,000 nodes grown under the paper's churn model for 50 cycles, and at
//! 1,000,000 nodes over a synthetic ring + random-links overlay pushing a
//! message through the event-driven latency engine under an explicit
//! memory budget. Flags: `--nodes`, `--cycles`, `--churn-rate`, `--seed`,
//! `--fanout`, `--overlay grown|synthetic` (`synthetic` skips the gossip stack and builds the CSR
//! directly: a bidirectional ring as d-links plus `--r-degree` random
//! r-links per node, which is what makes the million-node gate a CI-sized
//! job), `--rng shared|per-node` (RNG discipline of the grown membership
//! phase — `per-node` selects the counter-based per-node stream kernel
//! with its sparse frontier), `--threads` (worker
//! threads for the per-node kernel's intra-cycle fan-out, 0 = auto),
//! `--gossip-period` (per-node mode only: each node gossips every N
//! cycles on a seeded stagger, so only ~1/N of the population steps per
//! cycle — the quiescent-network regime the sparse frontier exists for),
//! `--check-thread-invariance` (regrows the per-node overlay at
//! `--threads 1` and fails unless the exported link arrays are
//! bit-identical), `--async` (additionally pushes one message through the dense
//! event-driven latency-model engine and gates on its coverage),
//! `--event-budget` (caps the number of simultaneously queued deliveries —
//! [`hybridcast_core::sched::SchedConfig::event_budget`]) and
//! `--mem-budget-mb` (fails the run if the process's peak RSS exceeds the
//! budget).
//!
//! Each gate line also reports the process's peak resident set size
//! (`VmHWM` from `/proc/self/status`, Linux only) so scale regressions
//! show up as memory numbers, not just time; the async gate additionally
//! reports the calendar queue's high-water mark — the largest in-flight
//! message backlog of the run, the quantity that bounds the latency
//! engine's memory at the million-node scale — and its overflow-tier peak.

#![expect(
    clippy::disallowed_methods,
    reason = "D2: wall-clock throughput is what this binary measures; no result it gates on reads the clock"
)]

use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use hybridcast_bench::scenario::synthetic_links;
use hybridcast_bench::Args;
use hybridcast_core::async_engine::{disseminate_async_dense, AsyncConfig, DenseAsyncScratch};
use hybridcast_core::engine::{disseminate_dense, DenseScratch};
use hybridcast_core::overlay::{DenseOverlay, Overlay};
use hybridcast_core::protocols::DenseSelector;
use hybridcast_core::sched::SchedConfig;
use hybridcast_sim::churn::{ChurnConfig, ChurnDriver};
use hybridcast_sim::{DenseSimNetwork, FlatLinks, RngMode, SimConfig};

fn main() {
    hybridcast_bench::cli::run_main(run)
}

fn run() -> Result<(), String> {
    let args = Args::from_env()?;
    let nodes: usize = args.get_in("nodes", 100_000, 1.., ">= 1")?;
    let cycles: usize = args.get_or("cycles", 50)?;
    let churn_rate: f64 = args.get_in("churn-rate", 0.002, 0.0..=1.0, "in [0, 1]")?;
    let seed: u64 = args.get_or("seed", 1)?;
    let fanout: usize = args.get_in("fanout", 3, 1.., ">= 1")?;
    let overlay: String = args.get_or("overlay", String::from("grown"))?;
    let r_degree: usize = args.get_or("r-degree", 8)?;
    let event_budget: usize = args.get_or("event-budget", 0)?;
    let mem_budget_mb: u64 = args.get_or("mem-budget-mb", 0)?;
    let rng_mode: RngMode = args.get_or("rng", RngMode::Shared)?;
    let threads: usize = args.get_or("threads", 0)?;
    let gossip_period: u64 = args.get_in("gossip-period", 1, 1.., ">= 1")?;
    let check_thread_invariance = args.flag("check-thread-invariance");
    let run_async = args.flag("async");
    args.finish()?;

    // The synthetic CSR indexes its r-links with u32 offsets; refuse the
    // product before asking the allocator for the array.
    if nodes
        .checked_mul(r_degree)
        .and_then(|links| u32::try_from(links).ok())
        .is_none()
    {
        return Err(format!(
            "--nodes {nodes} × --r-degree {r_degree} r-links exceed the u32 link offsets"
        ));
    }
    if check_thread_invariance && rng_mode != RngMode::PerNode {
        return Err(String::from(
            "--check-thread-invariance only applies to --rng per-node (the shared stream is \
             single-threaded by construction)",
        ));
    }
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        threads
    };

    eprintln!(
        "# scale_smoke: {nodes} nodes, {cycles} cycles, churn {churn_rate}, overlay {overlay}, \
         rng {rng_mode}"
    );

    let start = Instant::now();
    let (dense, churned, boot, gossip, export) = match overlay.as_str() {
        "synthetic" => {
            if nodes < 3 {
                return Err("--overlay synthetic needs at least 3 nodes for a ring".into());
            }
            let dense = DenseOverlay::from_flat_links(&synthetic_links(nodes, r_degree, seed));
            (dense, 0u64, start.elapsed(), Duration::ZERO, Duration::ZERO)
        }
        "grown" => {
            let config = SimConfig {
                nodes,
                ..SimConfig::default()
            };
            let mut network = match rng_mode {
                RngMode::Shared => DenseSimNetwork::new(config, seed),
                RngMode::PerNode => {
                    DenseSimNetwork::new_per_node(config, seed, gossip_period, threads)
                }
            };
            let boot = start.elapsed();

            let gossip_start = Instant::now();
            let mut driver = ChurnDriver::new(ChurnConfig { rate: churn_rate });
            driver.run_cycles(&mut network, cycles);
            let gossip = gossip_start.elapsed();

            let export_start = Instant::now();
            // Zero-round-trip export: arena -> CSR, no id-keyed snapshot.
            let dense = DenseOverlay::from_dense_sim(&network);
            let export = export_start.elapsed();

            if check_thread_invariance {
                check_invariance(
                    &network.flat_links(),
                    threads,
                    nodes,
                    seed,
                    gossip_period,
                    churn_rate,
                    cycles,
                )?;
            }
            (dense, driver.removed(), boot, gossip, export)
        }
        other => {
            return Err(format!(
                "unknown --overlay '{other}', expected grown or synthetic"
            ));
        }
    };

    if dense.live_len() != nodes {
        return Err(format!(
            "population drifted: expected {nodes} live nodes, got {}",
            dense.live_len()
        ));
    }

    let disseminate_start = Instant::now();
    let origin = dense.live_node_ids()[0];
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD15E);
    let mut scratch = DenseScratch::new();
    let report = disseminate_dense(
        &dense,
        &DenseSelector::ringcast(fanout),
        origin,
        &mut rng,
        &mut scratch,
    );
    let dissemination = disseminate_start.elapsed();

    // 50 cycles from a star bootstrap is not full ring convergence at this
    // scale (the paper warms 10k nodes for 100 cycles), so require broad
    // coverage rather than completeness: the gate is that the run finishes
    // and the overlay it grew is healthy enough to carry a dissemination.
    if (report.reached as f64 / report.population as f64) < 0.9 {
        return Err(format!(
            "RingCast f={fanout} reached only {}/{} nodes — overlay did not converge",
            report.reached, report.population
        ));
    }

    println!(
        "nodes={} cycles={} churned={} boot={:.2}s gossip={:.2}s ({:.1} ms/cycle) export={:.2}s \
         dissemination={:.3}s hops={} messages={} peak_rss={}",
        nodes,
        cycles,
        churned,
        boot.as_secs_f64(),
        gossip.as_secs_f64(),
        gossip.as_secs_f64() * 1000.0 / cycles.max(1) as f64,
        export.as_secs_f64(),
        dissemination.as_secs_f64(),
        report.last_hop,
        report.total_messages(),
        render_rss(),
    );

    if run_async {
        // The latency-model gate: the same overlay must also carry an
        // event-driven dissemination (timestamped deliveries through the
        // calendar event queue) at this scale.
        let config = AsyncConfig {
            gossip_period: 10.0,
            forwarding_delay: 1.0,
            jitter: 0.1,
            run_membership_gossip: false,
            max_time: 1_000_000.0,
            sched: SchedConfig {
                event_budget,
                ..SchedConfig::default()
            },
            ..AsyncConfig::default()
        };
        let async_start = Instant::now();
        let mut async_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA51C);
        let mut async_scratch = DenseAsyncScratch::new();
        let async_report = disseminate_async_dense(
            &dense,
            &DenseSelector::ringcast(fanout),
            origin,
            &config,
            &mut async_rng,
            &mut async_scratch,
        );
        let async_time = async_start.elapsed();
        if (async_report.reached as f64 / async_report.population as f64) < 0.9 {
            return Err(format!(
                "async RingCast f={fanout} reached only {}/{} nodes",
                async_report.reached, async_report.population
            ));
        }
        println!(
            "async: dissemination={:.3}s reached={}/{} messages={} truncated_sends={} \
             completion_time={} event_queue_high_water={} overflow_high_water={} \
             queue_resident={:.1}MB peak_rss={}",
            async_time.as_secs_f64(),
            async_report.reached,
            async_report.population,
            async_report.total_messages(),
            async_report.truncated_sends,
            async_report
                .completion_time
                .map(|t| format!("{t:.1}"))
                .unwrap_or_else(|| "-".to_owned()),
            async_scratch.event_queue_high_water(),
            async_scratch.overflow_high_water(),
            async_scratch.event_resident_bytes() as f64 / (1024.0 * 1024.0),
            render_rss(),
        );
        if event_budget != 0 && async_scratch.event_queue_high_water() > event_budget {
            return Err(format!(
                "event queue grew to {} past the --event-budget of {event_budget}",
                async_scratch.event_queue_high_water()
            ));
        }
    }

    if mem_budget_mb != 0 {
        let peak_kb = hybridcast_obs::mem::peak_rss_kb().ok_or_else(|| {
            String::from("peak-RSS accounting unavailable, cannot enforce --mem-budget-mb")
        })?;
        if peak_kb > mem_budget_mb * 1024 {
            return Err(format!(
                "peak RSS {:.1}MB exceeds the configured {mem_budget_mb}MB budget",
                peak_kb as f64 / 1024.0
            ));
        }
        println!(
            "mem_budget: peak_rss={:.1}MB <= budget={mem_budget_mb}MB",
            peak_kb as f64 / 1024.0
        );
    }
    Ok(())
}

/// Regrows the per-node overlay from scratch at `--threads 1` and fails
/// unless the exported flat link arrays are bit-identical to the original
/// run's: the per-node kernel's thread-invariance contract, checked at
/// gate scale rather than test scale.
fn check_invariance(
    reference: &FlatLinks,
    threads: usize,
    nodes: usize,
    seed: u64,
    gossip_period: u64,
    churn_rate: f64,
    cycles: usize,
) -> Result<(), String> {
    let regrow_start = Instant::now();
    let config = SimConfig {
        nodes,
        ..SimConfig::default()
    };
    let mut single = DenseSimNetwork::new_per_node(config, seed, gossip_period, 1);
    let mut driver = ChurnDriver::new(ChurnConfig { rate: churn_rate });
    driver.run_cycles(&mut single, cycles);
    if single.flat_links() != *reference {
        return Err(format!(
            "per-node overlay diverged between --threads {threads} and --threads 1: the \
             exported link arrays differ"
        ));
    }
    println!(
        "thread_invariance: threads={threads} vs 1 identical ({} live nodes, regrow={:.2}s)",
        reference.ids.len(),
        regrow_start.elapsed().as_secs_f64(),
    );
    Ok(())
}

/// Peak RSS (`VmHWM`) as a human-readable figure, `-` where
/// `/proc/self/status` is unavailable.
fn render_rss() -> String {
    hybridcast_obs::mem::peak_rss_kb()
        .map(|kb| format!("{:.1}MB", kb as f64 / 1024.0))
        .unwrap_or_else(|| "-".to_owned())
}
