//! Reproduces **Figure 10** of the paper: dissemination progress after a
//! catastrophic failure killing 5 % of the nodes (override with
//! `--fraction`), for fanouts 2, 3, 5 and 10.

use hybridcast_bench::{figures, output, Args, ExperimentParams};

fn main() {
    hybridcast_bench::cli::run_main(run)
}

fn run() -> Result<(), String> {
    let args = Args::from_env()?;
    let params = ExperimentParams::from_args(&args)?;
    let fraction = args.get_in("fraction", 0.05, 0.0..1.0, "in [0, 1)")?;
    let fanouts = args.get_list_or("fanouts", vec![2usize, 3, 5, 10])?;
    let json = args.value("json");
    args.finish()?;
    eprintln!(
        "# fig10: progress after {:.0}% failure, {} nodes, {} runs, fanouts {:?}",
        fraction * 100.0,
        params.nodes,
        params.runs,
        fanouts
    );
    let series = figures::catastrophic_progress(&params, fraction, &fanouts);
    print!("{}", output::render_progress(&series));
    if let Some(path) = json {
        output::write_json(std::path::Path::new(path), &series).map_err(|e| e.to_string())?;
    }
    Ok(())
}
