//! Reproduces **Figure 9** of the paper: dissemination effectiveness as a
//! function of the fanout after catastrophic failures of 1 %, 2 %, 5 % and
//! 10 % of the nodes (override with `--fractions 0.01,0.05`).

use hybridcast_bench::{figures, output, Args, ExperimentParams};

fn main() {
    hybridcast_bench::cli::run_main(run)
}

fn run() -> Result<(), String> {
    let args = Args::from_env()?;
    let params = ExperimentParams::from_args(&args)?;
    // Killing every node (1.0) leaves no origin to disseminate from.
    let fractions = args.get_list_in(
        "fractions",
        vec![0.01, 0.02, 0.05, 0.10],
        0.0..1.0,
        "in [0, 1)",
    )?;
    let json = args.value("json");
    args.finish()?;
    eprintln!(
        "# fig09: catastrophic failures {:?}, {} nodes, {} runs/fanout",
        fractions, params.nodes, params.runs
    );
    let tables = figures::catastrophic_effectiveness(&params, &fractions);
    for (fraction, table) in &tables {
        println!("## failed nodes: {:.0}%", fraction * 100.0);
        print!("{}", output::render_effectiveness(table));
        println!();
    }
    if let Some(path) = json {
        output::write_json(std::path::Path::new(path), &tables).map_err(|e| e.to_string())?;
    }
    Ok(())
}
