//! Reproduces **Figure 13** of the paper: the lifetime distribution of the
//! nodes that were *not* notified during disseminations under churn, for
//! RandCast and RingCast at fanouts 3 and 6 (override with `--fanouts`).

use hybridcast_bench::{figures, output, Args, ExperimentParams};

fn main() {
    hybridcast_bench::cli::run_main(run)
}

fn run() -> Result<(), String> {
    let args = Args::from_env()?;
    let params = ExperimentParams::from_args(&args)?;
    let fanouts = args.get_list_or("fanouts", vec![3usize, 6])?;
    let json = args.value("json");
    args.finish()?;
    eprintln!(
        "# fig13: miss lifetimes under churn, {} nodes, {} runs, fanouts {:?}",
        params.nodes, params.runs, fanouts
    );
    let tables = figures::miss_lifetimes(&params, &fanouts);
    for (protocol, fanout, histogram) in &tables {
        println!("## {protocol}, fanout {fanout}");
        print!("{}", output::render_histogram(histogram));
        println!();
    }
    if let Some(path) = json {
        output::write_json(std::path::Path::new(path), &tables).map_err(|e| e.to_string())?;
    }
    Ok(())
}
