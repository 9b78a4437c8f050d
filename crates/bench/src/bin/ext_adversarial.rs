//! Extension experiment: RingCast dissemination under adversarial network
//! conditions — i.i.d. per-message loss and scripted network bisections —
//! in the event-driven latency-model engine.
//!
//! Two sweeps run back to back:
//!
//! 1. **Loss**: hit ratio, message overhead and drop counts as the i.i.d.
//!    loss rate grows (`--loss-rates 0,0.05,0.2`). Rate `0` is byte-for-byte
//!    the unmodelled engine.
//! 2. **Partitions**: a salt-keyed bisection opens at `--partition-start`
//!    and heals after each of `--durations` (`0` = no partition baseline);
//!    per-link delays are heavy-tailed (log-normal, σ = 1.25) so late
//!    deliveries carry the dissemination across the heal and the reported
//!    re-convergence time is meaningful.
//!
//! The overlay is grown once per sweep and frozen; every sweep point fans
//! its seeded runs across `--threads` workers.
//!
//! `--trace <path>` streams both sweeps' structured event records —
//! including the scripted `PartitionOpen`/`PartitionHeal` timelines — as
//! JSON Lines, `--profile` prints the wall-clock stage breakdown (one
//! stage group per sweep), and `--quiet` silences the progress heartbeat;
//! none of the three changes a single result byte.

use hybridcast_bench::probing::ProbeOptions;
use hybridcast_bench::{figures, output, Args, ExperimentParams};

fn main() {
    hybridcast_bench::cli::run_main(run)
}

fn run() -> Result<(), String> {
    let args = Args::from_env()?;
    let mut params = ExperimentParams::from_args(&args)?;
    // The presets start their fanout range at 1, where RingCast degenerates
    // to a single forwarding chain that any one lost message severs — a
    // property of fanout 1, not of the network model. Sweep at the paper's
    // working fanout unless the caller picks one.
    if args.value("fanouts").is_none() {
        params.fanouts = vec![3];
    }
    let loss_rates = args.get_list_in(
        "loss-rates",
        vec![0.0, 0.05, 0.1, 0.2, 0.4],
        0.0..=1.0,
        "in [0, 1]",
    )?;
    let durations = args.get_list_in(
        "durations",
        vec![0.0, 2.0, 4.0, 8.0],
        0.0..f64::INFINITY,
        "finite and >= 0",
    )?;
    let start = args.get_in(
        "partition-start",
        2.0,
        0.0..f64::INFINITY,
        "finite and >= 0",
    )?;

    let probing = ProbeOptions::from_args(&args);
    let json = args.value("json");
    args.finish()?;
    eprintln!(
        "# ext: adversarial models, {} nodes, {} runs each",
        params.nodes, params.runs
    );

    eprintln!("# sweep 1: i.i.d. loss rates {loss_rates:?}");
    eprintln!("# sweep 2: bisection at t={start}, durations {durations:?}");
    let (loss_rows, part_rows) = probing.run_probed(|probe, profiler| {
        let loss = figures::adversarial_loss_sweep(&params, &loss_rates, probe, profiler);
        let partitions =
            figures::adversarial_partition_sweep(&params, &durations, start, probe, profiler);
        (loss, partitions)
    })?;
    println!(
        "{:<12} {:>12} {:>14} {:>14} {:>10} {:>18}",
        "loss_rate", "hit_ratio", "messages", "dropped", "complete", "completion_time"
    );
    for row in &loss_rows {
        println!(
            "{:<12} {:>12.6} {:>14.1} {:>14.1} {:>7}/{:<2} {:>18}",
            row.loss_rate,
            row.mean_hit_ratio,
            row.mean_messages,
            row.mean_dropped_loss,
            row.completed_runs,
            row.runs,
            row.mean_completion_time
                .map(|t| format!("{t:.1}"))
                .unwrap_or_else(|| "-".to_owned()),
        );
    }

    println!(
        "{:<12} {:>12} {:>16} {:>11} {:>16}",
        "duration", "hit_ratio", "dropped_at_cut", "recovered", "recovery_time"
    );
    for row in &part_rows {
        println!(
            "{:<12} {:>12.6} {:>16.1} {:>8}/{:<2} {:>16}",
            row.duration,
            row.mean_hit_ratio,
            row.mean_dropped_partition,
            row.recovered_runs,
            row.runs,
            row.mean_recovery_time
                .map(|t| format!("{t:.2}"))
                .unwrap_or_else(|| "-".to_owned()),
        );
    }

    if let Some(path) = json {
        #[derive(serde::Serialize)]
        struct Combined {
            loss: Vec<figures::AdversarialLossRow>,
            partitions: Vec<figures::AdversarialPartitionRow>,
        }
        let combined = Combined {
            loss: loss_rows,
            partitions: part_rows,
        };
        output::write_json(std::path::Path::new(path), &combined).map_err(|e| e.to_string())?;
    }
    Ok(())
}
