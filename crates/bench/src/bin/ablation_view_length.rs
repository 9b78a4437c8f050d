//! Ablation for the remark of Section 6/7 that the membership view lengths
//! (`cyc = vic`) are not crucial: dissemination effectiveness at a fixed
//! fanout for view lengths 5, 10, 20 and 40 (override with `--views`,
//! `--fanout`).

use hybridcast_bench::{figures, output, Args, ExperimentParams};

fn main() {
    hybridcast_bench::cli::run_main(run)
}

fn run() -> Result<(), String> {
    let args = Args::from_env()?;
    let params = ExperimentParams::from_args(&args)?;
    let views = args.get_list_in("views", vec![5usize, 10, 20, 40], 1.., ">= 1")?;
    let fanout: usize = args.get_in("fanout", 3, 1.., ">= 1")?;
    let json = args.value("json");
    args.finish()?;
    eprintln!(
        "# ablation: view lengths {:?} at fanout {}, {} nodes, {} runs",
        views, fanout, params.nodes, params.runs
    );
    let tables = figures::view_length_ablation(&params, &views, fanout);
    for (view, table) in &tables {
        println!("## cyc = vic = {view}");
        print!("{}", output::render_effectiveness(table));
        println!();
    }
    if let Some(path) = json {
        output::write_json(std::path::Path::new(path), &tables).map_err(|e| e.to_string())?;
    }
    Ok(())
}
