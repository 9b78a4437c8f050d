//! `--trace` / `--profile` plumbing shared by the probed figure binaries.
//!
//! Each probed figure function is one body generic over a
//! [`Probe`](hybridcast_obs::Probe); this module turns the two flags into
//! that probe. [`ProbeOptions::run_probed`] is the only way a binary calls
//! its sweep, always with a [`TraceProbe`]: `Some` JSONL writer under
//! `--trace <path>`, inert `None` otherwise. The sweep itself asks
//! `Probe::enabled` whether its seeded runs must go through one probe in
//! order or may fan out across threads, so `--profile` alone times exactly
//! the parallel run the flagless binary performs.
//!
//! The probe type is static, so a binary monomorphizes its sweep once and
//! an absent trace costs the membership kernels one predictable branch per
//! event rather than a virtual call.

use std::fs::File;
use std::io::BufWriter;

use hybridcast_obs::{JsonlProbe, StageProfiler};

use crate::cli::Args;

/// The probe every figure binary runs its sweep with: a JSON Lines trace
/// writer when `--trace` names a file, absent (and inert) otherwise.
pub type TraceProbe = Option<JsonlProbe<BufWriter<File>>>;

/// The observability options of a figure binary.
#[derive(Debug)]
pub struct ProbeOptions {
    /// Stream the structured event record to this JSONL file (`--trace`).
    pub trace: Option<String>,
    /// Render the wall-clock stage breakdown to stderr (`--profile`).
    pub profile: bool,
}

impl ProbeOptions {
    /// Parses `--trace <path>` and `--profile`.
    pub fn from_args(args: &Args) -> Self {
        ProbeOptions {
            trace: args.value("trace").map(str::to_owned),
            profile: args.flag("profile"),
        }
    }

    /// Runs `f` with the configured probe and profiler, finalizes the
    /// trace file, and renders the profile to stderr when requested.
    ///
    /// # Errors
    ///
    /// Returns an error if the trace file cannot be created, written or
    /// flushed.
    pub fn run_probed<T>(
        &self,
        f: impl FnOnce(&mut TraceProbe, &mut StageProfiler) -> T,
    ) -> Result<T, String> {
        let trace_error = |e: std::io::Error| {
            format!("--trace {}: {e}", self.trace.as_deref().unwrap_or_default())
        };
        let mut probe: TraceProbe = match &self.trace {
            Some(path) => Some(
                File::create(path)
                    .and_then(|file| JsonlProbe::new(BufWriter::new(file)))
                    .map_err(trace_error)?,
            ),
            None => None,
        };
        let mut profiler = StageProfiler::new();
        let result = f(&mut probe, &mut profiler);
        if let Some(probe) = probe {
            probe.finish().map_err(trace_error)?;
        }
        if self.profile {
            eprint!("{}", profiler.render());
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_and_btree_is_rejected() {
        let args = Args::parse(["--trace", "/tmp/t.jsonl", "--profile"]).unwrap();
        let options = ProbeOptions::from_args(&args);
        assert!(options.profile);
        assert_eq!(options.trace.as_deref(), Some("/tmp/t.jsonl"));
        args.finish().unwrap();

        let none = ProbeOptions::from_args(&Args::parse([] as [&str; 0]).unwrap());
        assert!(none.trace.is_none() && !none.profile);

        let btree = Args::parse(["--profile", "--engine", "btree"]).unwrap();
        assert!(ProbeOptions::from_args(&btree).profile);
        assert!(btree.finish().is_err(), "the engine is not an option");
    }

    #[test]
    fn run_probed_without_trace_uses_the_null_probe() {
        use hybridcast_obs::Probe;

        let options = ProbeOptions {
            trace: None,
            profile: true,
        };
        let seen = options
            .run_probed(|probe, profiler| {
                profiler.stage("work");
                probe.enabled()
            })
            .unwrap();
        assert!(!seen, "no --trace means an inert probe, --profile or not");
    }
}
