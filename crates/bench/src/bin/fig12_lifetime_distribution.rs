//! Reproduces **Figure 12** of the paper: the distribution of node lifetimes
//! in churn steady state (`--repeats` controls how many independently
//! seeded experiments are aggregated; the paper uses 100).

use hybridcast_bench::{figures, output, Args, ExperimentParams};

fn main() {
    hybridcast_bench::cli::run_main(run)
}

fn run() -> Result<(), String> {
    let args = Args::from_env()?;
    let params = ExperimentParams::from_args(&args)?;
    let repeats: usize = args.get_in("repeats", 1, 1.., ">= 1")?;
    let json = args.value("json");
    args.finish()?;
    eprintln!(
        "# fig12: lifetime distribution, {} nodes, churn {}%/cycle, {} repeats",
        params.nodes,
        params.churn_rate * 100.0,
        repeats
    );
    let histogram = figures::lifetime_distribution(&params, repeats);
    print!("{}", output::render_histogram(&histogram));
    if let Some(path) = json {
        output::write_json(std::path::Path::new(path), &histogram).map_err(|e| e.to_string())?;
    }
    Ok(())
}
