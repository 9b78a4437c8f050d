//! Extension experiment (the paper's future work, Section 8): push
//! dissemination followed by pull-based anti-entropy.
//!
//! For every fanout in the sweep and both protocols, prints the miss ratio
//! after the push phase alone and after the pull phase, plus the pull cost
//! in rounds and messages. `--fraction 0.05` adds a catastrophic failure
//! before disseminating.
//!
//! Runs on the allocation-free dense pull engine, fanning the seeded runs
//! of each configuration across worker threads (`--threads`).

use hybridcast_bench::{figures, output, Args, ExperimentParams};

fn main() {
    hybridcast_bench::cli::run_main(run)
}

fn run() -> Result<(), String> {
    let args = Args::from_env()?;
    let mut params = ExperimentParams::from_args(&args)?;
    if args.value("fanouts").is_none() {
        params.fanouts = vec![1, 2, 3, 4];
    }
    let fraction = args.get_in("fraction", 0.0, 0.0..1.0, "in [0, 1)")?;
    let json = args.value("json");
    args.finish()?;
    eprintln!(
        "# ext: push + pull anti-entropy, {} nodes, {} runs/fanout, failure {:.0}%",
        params.nodes,
        params.runs,
        fraction * 100.0
    );
    let rows = figures::push_pull_extension(&params, fraction);
    println!(
        "{:<12} {:>6} {:>16} {:>16} {:>12} {:>14}",
        "protocol", "fanout", "push_miss", "final_miss", "pull_rounds", "msgs_total"
    );
    for row in &rows {
        println!(
            "{:<12} {:>6} {:>16.6} {:>16.6} {:>12.2} {:>14.1}",
            row.protocol,
            row.fanout,
            row.push_miss_ratio,
            row.final_miss_ratio,
            row.mean_pull_rounds,
            row.mean_total_messages
        );
    }
    if let Some(path) = json {
        output::write_json(std::path::Path::new(path), &rows).map_err(|e| e.to_string())?;
    }
    Ok(())
}
