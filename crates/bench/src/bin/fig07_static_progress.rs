//! Reproduces **Figure 7** of the paper: dissemination progress (fraction of
//! nodes not yet reached after each hop) in a static failure-free network,
//! for fanouts 2, 3, 5 and 10 (override with `--fanouts`).

use hybridcast_bench::{figures, output, Args, ExperimentParams};

fn main() {
    hybridcast_bench::cli::run_main(run)
}

fn run() -> Result<(), String> {
    let args = Args::from_env()?;
    let params = ExperimentParams::from_args(&args)?;
    let fanouts = args.get_list_or("fanouts", vec![2usize, 3, 5, 10])?;
    let json = args.value("json");
    args.finish()?;
    eprintln!(
        "# fig07: static progress, {} nodes, {} runs, fanouts {:?}",
        params.nodes, params.runs, fanouts
    );
    let series = figures::static_progress(&params, &fanouts);
    print!("{}", output::render_progress(&series));
    if let Some(path) = json {
        output::write_json(std::path::Path::new(path), &series).map_err(|e| e.to_string())?;
    }
    Ok(())
}
