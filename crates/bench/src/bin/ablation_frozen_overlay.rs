//! Ablation for the claim of Section 7.1: freezing the membership overlay at
//! different instants (0, 20, 50 extra cycles after warm-up; override with
//! `--extra-cycles`, in ascending order) does not change the macroscopic
//! dissemination behaviour.

use hybridcast_bench::{figures, output, Args, ExperimentParams};

fn main() {
    hybridcast_bench::cli::run_main(run)
}

fn run() -> Result<(), String> {
    let args = Args::from_env()?;
    let params = ExperimentParams::from_args(&args)?;
    // One overlay gossips on from offset to offset; it cannot go back.
    let extra = args.get_ascending_list_or("extra-cycles", vec![0usize, 20, 50])?;
    let json = args.value("json");
    args.finish()?;
    eprintln!(
        "# ablation: frozen-overlay instants {:?}, {} nodes, {} runs/fanout",
        extra, params.nodes, params.runs
    );
    let tables = figures::frozen_overlay_ablation(&params, &extra);
    for (offset, table) in &tables {
        println!("## frozen {offset} cycles after warm-up");
        print!("{}", output::render_effectiveness(table));
        println!();
    }
    if let Some(path) = json {
        output::write_json(std::path::Path::new(path), &tables).map_err(|e| e.to_string())?;
    }
    Ok(())
}
