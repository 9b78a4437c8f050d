//! Reproduces **Figure 6** of the paper: dissemination effectiveness (miss
//! ratio and percentage of complete disseminations) as a function of the
//! fanout, for RandCast and RingCast, in a static failure-free network.
//!
//! Run with `--paper` for the paper's full scale (10,000 nodes, 100 runs per
//! fanout); the default is a quick 2,000-node sweep. `--json <path>` dumps
//! the raw table. `--trace <path>` streams the structured event record as
//! JSON Lines (fold it back with `trace_summary`), `--profile` prints the
//! wall-clock stage breakdown, and `--quiet` silences the progress
//! heartbeat — none of the three changes a single result byte.

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
        "# fig06: static failure-free, {} nodes, {} runs/fanout, fanouts {:?}",
        params.nodes, params.runs, params.fanouts
    );
    let table = probing.run_probed(|probe, profiler| {
        figures::static_effectiveness_probed(&params, probe, profiler)
    })?;
    print!("{}", output::render_effectiveness(&table));
    if let Some(path) = json {
        output::write_json(std::path::Path::new(path), &table).map_err(|e| e.to_string())?;
    }
    Ok(())
}
