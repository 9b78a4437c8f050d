//! Ablation for the reliability extension of Section 8: how the d-link
//! structure (single ring, 2 or 3 independent rings, a static Harary graph
//! of connectivity 4) affects RingCast's miss ratio after a catastrophic
//! failure (`--fraction`, default 5 %).

use hybridcast_bench::{figures, output, Args, ExperimentParams};

fn main() {
    hybridcast_bench::cli::run_main(run)
}

fn run() -> Result<(), String> {
    let args = Args::from_env()?;
    let params = ExperimentParams::from_args(&args)?;
    // The Harary arm builds H(n, 4), which needs more than 4 nodes.
    args.get_in(
        "nodes",
        params.nodes,
        5..,
        ">= 5 (the Harary arm needs n > 4)",
    )?;
    let fraction = args.get_in("fraction", 0.05, 0.0..1.0, "in [0, 1)")?;
    let json = args.value("json");
    args.finish()?;
    eprintln!(
        "# ablation: d-link connectivity under {:.0}% failure, {} nodes, {} runs",
        fraction * 100.0,
        params.nodes,
        params.runs
    );
    let rows = figures::connectivity_ablation(&params, fraction);
    println!(
        "{:<24} {:>6} {:>12} {:>10} {:>14}",
        "d-link structure", "fanout", "miss_ratio", "complete", "msgs_total"
    );
    for (label, stats) in &rows {
        println!(
            "{:<24} {:>6} {:>12.6} {:>9.1}% {:>14.1}",
            label,
            stats.fanout,
            stats.mean_miss_ratio,
            stats.complete_fraction * 100.0,
            stats.mean_total_messages
        );
    }
    if let Some(path) = json {
        output::write_json(std::path::Path::new(path), &rows).map_err(|e| e.to_string())?;
    }
    Ok(())
}
