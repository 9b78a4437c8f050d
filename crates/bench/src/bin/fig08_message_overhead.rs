//! Reproduces **Figure 8** of the paper: the total number of messages sent
//! during a dissemination, split into messages reaching "virgin" (not yet
//! notified) nodes and redundant messages, as a function of the fanout.
//!
//! The underlying sweep is the same as Figure 6; this binary prints the
//! message-accounting view of it.

use hybridcast_bench::{figures, output, Args, ExperimentParams};

fn main() {
    hybridcast_bench::cli::run_main(run)
}

fn run() -> Result<(), String> {
    let args = Args::from_env()?;
    let params = ExperimentParams::from_args(&args)?;
    let json = args.value("json");
    args.finish()?;
    eprintln!(
        "# fig08: message overhead, {} nodes, {} runs/fanout, fanouts {:?}",
        params.nodes, params.runs, params.fanouts
    );
    let table = figures::static_effectiveness(&params);
    println!("# scenario: {}", table.scenario);
    println!(
        "{:<12} {:>6} {:>14} {:>16} {:>12} {:>14}",
        "protocol", "fanout", "msgs_virgin", "msgs_redundant", "msgs_dead", "msgs_total"
    );
    for row in &table.rows {
        println!(
            "{:<12} {:>6} {:>14.1} {:>16.1} {:>12.1} {:>14.1}",
            row.protocol,
            row.fanout,
            row.mean_messages_to_virgin,
            row.mean_messages_to_notified,
            row.mean_messages_to_dead,
            row.mean_total_messages
        );
    }
    if let Some(path) = json {
        output::write_json(std::path::Path::new(path), &table).map_err(|e| e.to_string())?;
    }
    Ok(())
}
