//! Reproduces **Figure 11** of the paper: dissemination effectiveness as a
//! function of the fanout in churn steady state (0.2 % of the nodes replaced
//! per cycle, the rate the paper derives from the Gnutella traces).
//!
//! `--trace <path>` streams the structured event record — churn
//! `Join`/`Leave` events included — as JSON Lines, `--profile` prints the
//! wall-clock stage breakdown, and `--quiet` silences the progress
//! heartbeat; none of the three changes a single result byte.

use hybridcast_bench::probing::ProbeOptions;
use hybridcast_bench::{figures, output, Args, ExperimentParams};

fn main() {
    hybridcast_bench::cli::run_main(run)
}

fn run() -> Result<(), String> {
    let args = Args::from_env()?;
    let params = ExperimentParams::from_args(&args)?;
    let probing = ProbeOptions::from_args(&args);
    let json = args.value("json");
    args.finish()?;
    eprintln!(
        "# fig11: churn {}%/cycle, {} nodes, {} runs/fanout",
        params.churn_rate * 100.0,
        params.nodes,
        params.runs
    );
    let (table, cycles) = probing.run_probed(|probe, profiler| {
        figures::churn_effectiveness_probed(&params, probe, profiler)
    })?;
    eprintln!("# churn warm-up took {cycles} cycles");
    print!("{}", output::render_effectiveness(&table));
    if let Some(path) = json {
        output::write_json(std::path::Path::new(path), &table).map_err(|e| e.to_string())?;
    }
    Ok(())
}
