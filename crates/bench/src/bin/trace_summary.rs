//! Folds a JSONL event trace (`--trace` on a figure binary) back into the
//! paper's aggregate metrics.
//!
//! Reads the trace named by `--trace <path>`, reconstructs the per-run
//! dissemination reports from the event stream, aggregates them with the
//! engines' own arithmetic, and prints the resulting effectiveness table.
//! For hop-synchronous traces (fig06/fig08/fig11) the reconstruction is
//! lossless, which `--check <table.json>` turns into a gate: it loads the
//! table the traced run wrote with `--json` and fails unless every folded
//! row is bit-identical to the corresponding engine row.

use hybridcast_bench::figures::EffectivenessTable;
use hybridcast_bench::{output, trace, Args};
use hybridcast_obs::parse_jsonl;

fn main() {
    hybridcast_bench::cli::run_main(run)
}

fn run() -> Result<(), String> {
    let args = Args::from_env()?;
    let path = args
        .value("trace")
        .ok_or("usage: trace_summary --trace <events.jsonl> [--check <table.json>]")?;
    let check = args.value("check");
    args.finish()?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let events = parse_jsonl(&text)?;
    let sections = trace::fold_trace(&events)?;
    let summary = trace::summarize(&sections);
    eprintln!(
        "# trace_summary: {} events, {} sections, {} runs",
        events.len(),
        sections.len(),
        sections.iter().map(|s| s.reports.len()).sum::<usize>()
    );
    print!("{}", output::render_effectiveness(&summary));

    if let Some(check) = check {
        let text = std::fs::read_to_string(check).map_err(|e| format!("{check}: {e}"))?;
        let reference: EffectivenessTable =
            serde_json::from_str(&text).map_err(|e| format!("{check}: {e}"))?;
        if summary.rows != reference.rows {
            return Err(format!(
                "folded trace disagrees with {check}: {} folded rows vs {} reference rows{}",
                summary.rows.len(),
                reference.rows.len(),
                first_mismatch(&summary, &reference)
                    .map(|m| format!("; first mismatch: {m}"))
                    .unwrap_or_default()
            ));
        }
        eprintln!(
            "# check: {} rows bit-identical to {check}",
            summary.rows.len()
        );
    }
    Ok(())
}

/// Names the first row that differs between the folded and reference
/// tables, for actionable failure output.
fn first_mismatch(summary: &EffectivenessTable, reference: &EffectivenessTable) -> Option<String> {
    summary
        .rows
        .iter()
        .zip(&reference.rows)
        .find(|(a, b)| a != b)
        .map(|(a, _)| format!("{} fanout {}", a.protocol, a.fanout))
}
