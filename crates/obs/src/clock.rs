//! The workspace's one sanctioned wall-clock module for the experiment
//! harness: stage profiling and progress heartbeats.
//!
//! Rule D2 (see `docs/DETERMINISM.md`) bans `Instant::now` through the
//! root `clippy.toml` because wall-clock reads break run reproducibility.
//! This module is the harness's exception: it only ever *times* work, the
//! timings never feed back into a seeded simulation, and every simulation
//! result stays a pure function of its seed whether or not a profiler is
//! attached.

#![expect(
    clippy::disallowed_methods,
    reason = "D2: the stage profiler and heartbeat measure wall time by design; no engine result reads them"
)]

use std::time::{Duration, Instant};

use crate::metrics::{CounterId, MetricsRegistry};

/// Wall-clock profiler for the coarse stages of a figure binary
/// (overlay build, warm-up, dissemination, aggregation).
///
/// Stages are sequential: starting one closes the previous.
#[derive(Debug)]
pub struct StageProfiler {
    stages: Vec<(String, Duration)>,
    current: Option<(String, Instant)>,
}

impl Default for StageProfiler {
    fn default() -> Self {
        StageProfiler::new()
    }
}

impl StageProfiler {
    /// Creates an empty profiler.
    #[must_use]
    pub fn new() -> Self {
        StageProfiler {
            stages: Vec::new(),
            current: None,
        }
    }

    /// Closes the current stage (if any) and starts `name`.
    pub fn stage(&mut self, name: &str) {
        self.finish();
        self.current = Some((name.to_string(), Instant::now()));
    }

    /// Closes the current stage.
    pub fn finish(&mut self) {
        if let Some((name, started)) = self.current.take() {
            self.stages.push((name, started.elapsed()));
        }
    }

    /// The completed stages in order, as `(name, duration)`.
    #[must_use]
    pub fn stages(&self) -> &[(String, Duration)] {
        &self.stages
    }

    /// Renders the per-stage breakdown with percentages of the total.
    #[must_use]
    pub fn render(&self) -> String {
        let total: Duration = self.stages.iter().map(|(_, d)| *d).sum();
        let mut out = String::from("# profile:\n");
        for (name, d) in &self.stages {
            let pct = if total.as_secs_f64() > 0.0 {
                d.as_secs_f64() / total.as_secs_f64() * 100.0
            } else {
                0.0
            };
            out.push_str(&format!(
                "#   {:<24} {:>9.3}s {:>5.1}%\n",
                name,
                d.as_secs_f64(),
                pct
            ));
        }
        out.push_str(&format!(
            "#   {:<24} {:>9.3}s\n",
            "total",
            total.as_secs_f64()
        ));
        out
    }
}

/// Rate-limited progress heartbeat for long-running figure binaries.
///
/// Progress is accumulated in a [`MetricsRegistry`] counter; at most one
/// line per `interval` is printed to stderr with the current rate and an
/// ETA. `quiet` silences the output while the counter keeps counting.
#[derive(Debug)]
pub struct Heartbeat {
    registry: MetricsRegistry,
    progress: CounterId,
    total: u64,
    unit: &'static str,
    started: Instant,
    last_print: Option<Instant>,
    interval: Duration,
    quiet: bool,
}

impl Heartbeat {
    /// Creates a heartbeat for `total` units of work (`unit` is the label
    /// printed after the rate, e.g. `"cycles"` or `"configs"`).
    #[must_use]
    pub fn new(total: u64, unit: &'static str, quiet: bool) -> Self {
        let mut registry = MetricsRegistry::new();
        let progress = registry.counter(
            "hybridcast_progress_units_total",
            "Work units completed by the running experiment",
        );
        Heartbeat {
            registry,
            progress,
            total,
            unit,
            started: Instant::now(),
            last_print: None,
            interval: Duration::from_secs(2),
            quiet,
        }
    }

    /// Work units completed so far.
    #[must_use]
    pub fn done(&self) -> u64 {
        self.registry.counter_value(self.progress)
    }

    /// Records `n` completed units and prints a rate-limited progress
    /// line (`label` names the current phase).
    pub fn advance(&mut self, n: u64, label: &str) {
        self.registry.add(self.progress, n);
        if self.quiet {
            return;
        }
        let due = match self.last_print {
            None => self.started.elapsed() >= self.interval,
            Some(at) => at.elapsed() >= self.interval,
        };
        if !due {
            return;
        }
        self.last_print = Some(Instant::now());
        let done = self.done();
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        let eta = if rate > 0.0 && self.total > done {
            format!(", eta {:.0}s", (self.total - done) as f64 / rate)
        } else {
            String::new()
        };
        eprintln!(
            "# heartbeat: {label}: {done}/{} ({rate:.1} {}/s{eta})",
            self.total, self.unit
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_records_stages_in_order() {
        let mut p = StageProfiler::new();
        p.stage("overlay build");
        p.stage("dissemination");
        p.finish();
        let names: Vec<&str> = p.stages().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["overlay build", "dissemination"]);
        let text = p.render();
        assert!(text.contains("overlay build"));
        assert!(text.contains("total"));
    }

    #[test]
    fn heartbeat_counts_through_the_registry_even_when_quiet() {
        let mut hb = Heartbeat::new(100, "cycles", true);
        hb.advance(10, "warm-up");
        hb.advance(5, "warm-up");
        assert_eq!(hb.done(), 15);
    }
}
