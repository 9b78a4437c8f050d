//! The metric catalogue — names, units and directions exactly as
//! `BENCHMARK.json` lists them (a unit test pins the two together) — and the
//! fold from a traced run's spans and counts to the per-layer values.

use std::collections::BTreeMap;

use crate::stats::Distribution;
use crate::trace::Fold;
use crate::workloads::{Extras, Pass};

/// `(name, unit, better)` of one metric.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// End-to-end metrics: what a user running a figure sees.
pub const END_TO_END: [MetricDef; 5] = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_events_per_s", "1/s", "higher"),
];

/// Per-layer metrics, measured by the traced run only. Every traced run
/// prints all of them; a metric whose layer the workload does not enter
/// reads 0.
pub const PER_LAYER: [MetricDef; 51] = [
    ("sim.dense.boot_s", "s", "lower"),
    ("sim.dense.busy_s", "s", "lower"),
    ("sim.dense.cycle_ms_p50", "ms", "lower"),
    ("sim.dense.cycle_ms_hi", "ms", "lower"),
    ("sim.dense.node_cycles_per_s", "1/s", "higher"),
    ("sim.dense.snapshot_s", "s", "lower"),
    ("sim.dense.flat_links_s", "s", "lower"),
    ("sim.dense.share", "ratio", "lower"),
    ("sim.churn.busy_s", "s", "lower"),
    ("sim.churn.step_ms_p50", "ms", "lower"),
    ("sim.churn.replaced", "count", "higher"),
    ("sim.churn.share", "ratio", "lower"),
    ("bench.scenario.replaced_check_s", "s", "lower"),
    ("sim.frontier.busy_s", "s", "lower"),
    ("sim.frontier.cycle_ms_p50", "ms", "lower"),
    ("sim.frontier.cycle_ms_hi", "ms", "lower"),
    ("sim.frontier.node_steps_per_s", "1/s", "higher"),
    ("sim.frontier.frontier_len_mean", "count", "lower"),
    ("sim.frontier.thread_speedup", "ratio", "higher"),
    ("sim.frontier.share", "ratio", "lower"),
    ("core.overlay.from_snapshot_s", "s", "lower"),
    ("core.overlay.from_dense_sim_s", "s", "lower"),
    ("core.overlay.from_flat_links_s", "s", "lower"),
    ("core.engine.busy_s", "s", "lower"),
    ("core.engine.config_ms_p50", "ms", "lower"),
    ("core.engine.config_ms_hi", "ms", "lower"),
    ("core.engine.ns_per_msg", "ns", "lower"),
    ("core.engine.msgs_per_s", "1/s", "higher"),
    ("core.experiment.busy_s", "s", "lower"),
    ("core.experiment.fanout_speedup", "ratio", "higher"),
    ("core.experiment.aggregate_s", "s", "lower"),
    ("core.experiment.share", "ratio", "lower"),
    ("core.async_engine.busy_s", "s", "lower"),
    ("core.async_engine.run_ms_p50", "ms", "lower"),
    ("core.async_engine.run_ms_max", "ms", "lower"),
    ("core.async_engine.ns_per_msg", "ns", "lower"),
    ("core.async_engine.truncated_sends", "count", "lower"),
    ("core.async_engine.share", "ratio", "lower"),
    ("core.sched.queue_high_water", "count", "lower"),
    ("core.sched.overflow_high_water", "count", "lower"),
    ("core.sched.resident_mb", "MB", "lower"),
    ("core.sched.hold_ns_per_event", "ns", "lower"),
    ("bench.output.render_s", "s", "lower"),
    ("bench.setup.synthetic_links_s", "s", "lower"),
    ("obs.mem.rss_after_setup_mb", "MB", "lower"),
    ("obs.mem.rss_after_membership_mb", "MB", "lower"),
    ("obs.probe.recording_overhead_ratio", "ratio", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.span_coverage_ratio", "ratio", "higher"),
    ("trace.span_count", "count", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
];

/// Unit of a metric of either catalogue.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _, _)| *n == name)
        .map_or("", |(_, unit, _)| unit)
}

/// Everything outside the spans that the per-layer fold needs.
pub struct TracedRun<'a> {
    /// The traced pass's counts.
    pub pass: &'a Pass,
    /// Counts of the extra measurements.
    pub extras: &'a Extras,
    /// Wall time of the untraced pass this process ran first, seconds.
    pub untraced_wall_s: f64,
    /// `VmRSS` when set-up ended, kB.
    pub rss_after_setup_kb: u64,
    /// Spans recorded in total.
    pub span_count: usize,
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn kb_to_mb(kb: u64) -> f64 {
    kb as f64 / 1024.0
}

/// Folds a traced run into every [`PER_LAYER`] metric, plus a `label` for
/// each `*_hi` metric stating its sample count and percentile.
///
/// `pass` holds the spans below `bench.pass`, `setup` those below
/// `bench.setup` and `extras` those below `bench.extras`.
pub fn per_layer(
    pass: &Fold,
    setup: &Fold,
    extras: &Fold,
    run: &TracedRun<'_>,
) -> (BTreeMap<&'static str, f64>, BTreeMap<&'static str, String>) {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|(n, _, _)| (*n, 0.0)).collect();
    let mut labels = BTreeMap::new();
    // A timing distribution in milliseconds: its median under `p50`, its
    // qualifying high percentile (and that percentile's label) under `hi`.
    let mut distribution = |m: &mut BTreeMap<&'static str, f64>,
                            p50: &'static str,
                            hi: &'static str,
                            samples: &[f64]| {
        if let Some(d) = Distribution::of(samples) {
            m.insert(p50, d.p50 * 1e3);
            m.insert(hi, d.hi_value() * 1e3);
            labels.insert(hi, d.hi_label());
        }
    };

    // sim.dense — the shared-stream full sweep.
    let dense_busy = pass.busy_s("sim.dense.cycle");
    distribution(
        &mut m,
        "sim.dense.cycle_ms_p50",
        "sim.dense.cycle_ms_hi",
        pass.durations("sim.dense.cycle"),
    );
    m.insert("sim.dense.boot_s", pass.busy_s("sim.dense.boot"));
    m.insert("sim.dense.busy_s", dense_busy);
    if dense_busy > 0.0 {
        m.insert(
            "sim.dense.node_cycles_per_s",
            ratio(run.pass.node_steps as f64, dense_busy),
        );
    }
    m.insert("sim.dense.snapshot_s", pass.busy_s("sim.dense.snapshot"));
    m.insert(
        "sim.dense.flat_links_s",
        pass.busy_s("sim.dense.flat_links"),
    );
    m.insert("sim.dense.share", pass.layer_share("sim.dense"));

    // sim.churn.
    m.insert("sim.churn.busy_s", pass.busy_s("sim.churn.step"));
    m.insert(
        "sim.churn.step_ms_p50",
        Distribution::of(pass.durations("sim.churn.step")).map_or(0.0, |d| d.p50 * 1e3),
    );
    m.insert("sim.churn.replaced", run.pass.replaced as f64);
    m.insert("sim.churn.share", pass.layer_share("sim.churn"));
    m.insert(
        "bench.scenario.replaced_check_s",
        pass.busy_s("bench.scenario.replaced_check"),
    );

    // sim.frontier — per-node streams, sparse frontier, intra-cycle threads.
    let frontier_cycles = pass.durations("sim.frontier.cycle");
    let frontier_busy = pass.busy_s("sim.frontier.cycle");
    distribution(
        &mut m,
        "sim.frontier.cycle_ms_p50",
        "sim.frontier.cycle_ms_hi",
        frontier_cycles,
    );
    m.insert("sim.frontier.busy_s", frontier_busy);
    if frontier_busy > 0.0 {
        m.insert(
            "sim.frontier.node_steps_per_s",
            ratio(run.pass.node_steps as f64, frontier_busy),
        );
        m.insert(
            "sim.frontier.frontier_len_mean",
            ratio(run.pass.node_steps as f64, frontier_cycles.len() as f64),
        );
        let single = extras.busy_s("extra.frontier_t1.cycle");
        // On a one-core box there is no second arm; the speed-up is 1.
        m.insert(
            "sim.frontier.thread_speedup",
            if single > 0.0 {
                single / frontier_busy
            } else {
                1.0
            },
        );
    }
    m.insert("sim.frontier.share", pass.layer_share("sim.frontier"));

    // core.overlay.
    m.insert(
        "core.overlay.from_snapshot_s",
        pass.busy_s("core.overlay.from_snapshot"),
    );
    m.insert(
        "core.overlay.from_dense_sim_s",
        pass.busy_s("core.overlay.from_dense_sim"),
    );
    m.insert(
        "core.overlay.from_flat_links_s",
        setup.busy_s("core.overlay.from_flat_links"),
    );
    m.insert(
        "bench.setup.synthetic_links_s",
        setup.busy_s("bench.setup.synthetic_links"),
    );

    // core.engine (sequential sweep, an extra) and core.experiment (the
    // threaded fan-out inside the traced pass).
    let engine_busy = extras.busy_s("extra.engine_seq.config");
    distribution(
        &mut m,
        "core.engine.config_ms_p50",
        "core.engine.config_ms_hi",
        extras.durations("extra.engine_seq.config"),
    );
    m.insert("core.engine.busy_s", engine_busy);
    let engine_msgs = run.extras.engine_seq_messages as f64;
    m.insert(
        "core.engine.ns_per_msg",
        ratio(engine_busy * 1e9, engine_msgs),
    );
    m.insert("core.engine.msgs_per_s", ratio(engine_msgs, engine_busy));
    let fan_out_busy = pass.busy_s("core.experiment.config");
    m.insert("core.experiment.busy_s", fan_out_busy);
    m.insert(
        "core.experiment.fanout_speedup",
        ratio(engine_busy, fan_out_busy),
    );
    m.insert(
        "core.experiment.aggregate_s",
        pass.busy_s("core.experiment.aggregate"),
    );
    m.insert("core.experiment.share", pass.layer_share("core.experiment"));

    // core.async_engine and core.sched.
    let async_runs = pass.durations("core.async_engine.run");
    let async_busy = pass.busy_s("core.async_engine.run");
    if let Some(d) = Distribution::of(async_runs) {
        m.insert("core.async_engine.run_ms_p50", d.p50 * 1e3);
        m.insert("core.async_engine.run_ms_max", d.max * 1e3);
        m.insert(
            "core.async_engine.ns_per_msg",
            ratio(async_busy * 1e9, run.pass.messages as f64),
        );
    }
    m.insert("core.async_engine.busy_s", async_busy);
    m.insert(
        "core.async_engine.truncated_sends",
        run.pass.truncated_sends as f64,
    );
    m.insert(
        "core.async_engine.share",
        pass.layer_share("core.async_engine"),
    );
    let sched = &run.extras.sched;
    let peak =
        |f: fn(&crate::api::SchedStats) -> usize| sched.iter().map(f).max().unwrap_or(0) as f64;
    m.insert("core.sched.queue_high_water", peak(|s| s.queue_high_water));
    m.insert(
        "core.sched.overflow_high_water",
        peak(|s| s.overflow_high_water),
    );
    m.insert(
        "core.sched.resident_mb",
        peak(|s| s.resident_bytes) / (1024.0 * 1024.0),
    );
    m.insert("core.sched.hold_ns_per_event", run.extras.hold_ns_per_event);

    // Output, memory, probe overhead, and the trace's own validity.
    m.insert("bench.output.render_s", pass.busy_s("bench.output.render"));
    m.insert(
        "obs.mem.rss_after_setup_mb",
        kb_to_mb(run.rss_after_setup_kb),
    );
    m.insert(
        "obs.mem.rss_after_membership_mb",
        kb_to_mb(run.pass.rss_after_membership_kb),
    );
    m.insert(
        "obs.probe.recording_overhead_ratio",
        ratio(
            extras.busy_s("extra.probe.metrics"),
            extras.busy_s("extra.probe.null"),
        ),
    );
    m.insert("trace.traced_wall_s", pass.root_s);
    m.insert("trace.span_coverage_ratio", pass.coverage());
    m.insert("trace.span_count", run.span_count as f64);
    m.insert(
        "trace_overhead_ratio",
        ratio(pass.root_s, run.untraced_wall_s),
    );
    (m, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_contract_shaped() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(matches!(*better, "lower" | "higher"));
        }
        assert_eq!(unit_of("peak_rss_mb"), "MB");
        assert_eq!(unit_of("core.engine.ns_per_msg"), "ns");
    }

    #[test]
    fn per_layer_fold_emits_every_metric_and_zero_for_unentered_layers() {
        let pass = Pass {
            node_steps: 1_000,
            messages: 10,
            ..Pass::default()
        };
        let extras = Extras::default();
        let run = TracedRun {
            pass: &pass,
            extras: &extras,
            untraced_wall_s: 2.0,
            rss_after_setup_kb: 2_048,
            span_count: 3,
        };
        let mut fold = Fold {
            root_s: 2.1,
            root_self_s: 0.1,
            ..Fold::default()
        };
        fold.by_name
            .insert("sim.dense.cycle".to_owned(), vec![0.5, 1.5]);
        fold.layer_self_s.insert("sim.dense".to_owned(), 2.0);
        let (m, labels) = per_layer(&fold, &Fold::default(), &Fold::default(), &run);
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m["sim.dense.busy_s"], 2.0);
        assert_eq!(m["sim.dense.cycle_ms_p50"], 1_000.0);
        assert_eq!(m["sim.dense.node_cycles_per_s"], 500.0);
        assert!((m["sim.dense.share"] - 2.0 / 2.1).abs() < 1e-12);
        assert_eq!(m["core.async_engine.busy_s"], 0.0);
        assert_eq!(m["sim.frontier.thread_speedup"], 0.0);
        assert_eq!(m["obs.mem.rss_after_setup_mb"], 2.0);
        assert!((m["trace_overhead_ratio"] - 1.05).abs() < 1e-12);
        assert!(labels["sim.dense.cycle_ms_hi"].starts_with("n=2"));
    }
}
