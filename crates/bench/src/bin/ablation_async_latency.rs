//! Ablation for the claim of Section 7.1, checked in the event-driven
//! latency-model engine: varying the message forwarding delay from a
//! fraction of the gossip period to several periods leaves hit ratio and
//! message overhead unchanged and only stretches the wall-clock completion
//! time.
//!
//! The overlay is grown once, frozen into CSR form and the seeded runs of
//! every delay setting fan out across worker threads (`--threads`), which
//! makes the sweep runnable at 100k+ nodes. That freezing the overlay
//! changes nothing macroscopic — the same table with membership gossip
//! running live during every dissemination — is checked by a test against
//! the id-keyed live-membership engine, not by this binary.
//!
//! `--ratios 0.1,1,5` overrides the delay/period ratios swept; `--runs` and
//! `--nodes` control the scale.

use hybridcast_bench::figures::{self, LatencyAblationRow};
use hybridcast_bench::{output, Args, ExperimentParams};

fn main() {
    hybridcast_bench::cli::run_main(run)
}

/// The ratio as a row label that fits its 18-character column: `Display`
/// when it fits (every default ratio does), else the shortest exponent
/// form, else the exponent form rounded to 12 significant digits, which
/// fits every finite non-negative `f64`.
fn label(ratio: f64) -> String {
    [format!("{ratio}"), format!("{ratio:e}")]
        .into_iter()
        .find(|s| s.len() <= 18)
        .unwrap_or_else(|| format!("{ratio:.11e}"))
}

fn run() -> Result<(), String> {
    let args = Args::from_env()?;
    let params = ExperimentParams::from_args(&args)?;
    let ratios = args.get_list_in(
        "ratios",
        vec![0.1, 0.5, 1.0, 3.0],
        0.0..f64::INFINITY,
        "finite and >= 0",
    )?;
    let json = args.value("json");
    args.finish()?;
    // A finite ratio can still overflow the delay it scales.
    for &ratio in &ratios {
        LatencyAblationRow::config(ratio)
            .validate()
            .map_err(|e| format!("--ratios {ratio:?}: {e}"))?;
    }
    eprintln!(
        "# ablation: async forwarding delay ratios {:?}, {} nodes, {} runs each, frozen membership",
        ratios, params.nodes, params.runs,
    );
    let rows = figures::latency_ablation(&params, &ratios);
    println!(
        "{:<18} {:>12} {:>14} {:>20}",
        "delay/period", "hit_ratio", "messages", "completion_time"
    );
    for row in &rows {
        println!(
            "{:<18} {:>12.6} {:>14.1} {:>20}",
            label(row.delay_over_period),
            row.mean_hit_ratio,
            row.mean_messages,
            row.mean_completion_time
                .map(|t| format!("{t:.1}"))
                .unwrap_or_else(|| "-".to_owned()),
        );
    }
    if let Some(path) = json {
        output::write_json(std::path::Path::new(path), &rows).map_err(|e| e.to_string())?;
    }
    Ok(())
}
