//! Experiment harness reproducing the evaluation of the Middleware 2007
//! paper.
//!
//! Every figure of Section 7 has a dedicated binary in `src/bin/` that is a
//! thin wrapper around a function in [`figures`]; the shared machinery lives
//! here so the experiments are unit-testable:
//!
//! * [`cli`] — a dependency-free `--key value` argument parser that
//!   rejects options no accessor asked for,
//! * [`scenario`] — the experiment parameters and the three worlds of the
//!   evaluation: two growth bodies on the arena runtime (static warm-up,
//!   churn steady state), one freeze into the CSR overlay, and one failure
//!   helper that kills a seeded fraction of a frozen overlay,
//! * [`figures`] — one function per figure, each returning serializable
//!   result tables; every figure grows its world once, freezes it once
//!   and has a single code path over the dense engines (the id-keyed BTree engines in `core`/`sim` are test oracles,
//!   compared by `benches/engine.rs` and `benches/membership.rs`),
//! * [`probing`] — turns `--trace` / `--profile` into the probe and
//!   profiler the traceable sweeps are generic over,
//! * [`output`] — plain-text/CSV rendering of those tables, matching the
//!   rows and series the paper plots,
//! * [`trace`] — folds the JSONL event traces the probed sweeps export
//!   (`--trace`) back into the same aggregate tables (`trace_summary`).
//!
//! | figure | binary | function |
//! |---|---|---|
//! | Fig. 6 (a, b) | `fig06_static_effectiveness` | [`figures::static_effectiveness`] |
//! | Fig. 7 | `fig07_static_progress` | [`figures::static_progress`] |
//! | Fig. 8 | `fig08_message_overhead` | [`figures::static_effectiveness`] (message columns) |
//! | Fig. 9 | `fig09_catastrophic_effectiveness` | [`figures::catastrophic_effectiveness`] |
//! | Fig. 10 | `fig10_catastrophic_progress` | [`figures::catastrophic_progress`] |
//! | Fig. 11 | `fig11_churn_effectiveness` | [`figures::churn_effectiveness`] |
//! | Fig. 12 | `fig12_lifetime_distribution` | [`figures::lifetime_distribution`] |
//! | Fig. 13 | `fig13_miss_lifetimes` | [`figures::miss_lifetimes`] |
//! | §7.1 ablation | `ablation_frozen_overlay` | [`figures::frozen_overlay_ablation`] |
//! | §7.1 ablation | `ablation_async_latency` | [`figures::latency_ablation`], [`figures::live_latency_ablation`] |
//! | §8 ablation | `ablation_connectivity` | [`figures::connectivity_ablation`] |
//! | §6 ablation | `ablation_view_length` | [`figures::view_length_ablation`] |

//! # Example: parse experiment parameters from CLI-style arguments
//!
//! ```
//! use hybridcast_bench::{Args, ExperimentParams};
//!
//! let args = Args::parse(["--nodes", "500", "--runs", "3"]).unwrap();
//! let params = ExperimentParams::from_args(&args).unwrap();
//! assert_eq!(params.nodes, 500);
//! assert_eq!(params.runs, 3);
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod figures;
pub mod output;
pub mod probing;
pub mod scenario;
pub mod trace;

pub use cli::Args;
pub use scenario::{EngineKind, ExperimentParams};
