//! The four figure-shaped workloads: their sizes, input generation, one
//! *pass* (the timed region), the invariant checks, and the extra
//! measurements only the traced run makes.
//!
//! A pass is a closed loop in one process. With the tracer off, `fig06_paper`
//! and `fig11_churn` call the same `figures::*` entry point the shipped
//! binary calls; with the tracer on they run the same computation composed
//! from the layers' public functions with a span around each call, and must
//! reproduce the untraced digest bit for bit. The other two workloads run
//! identical code either way.

use crate::api::{self, FigureSizes, Protocol};
use crate::stats::{fnv_text, median, Fnv};
use crate::trace::Tracer;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 6 at paper scale: static warm-up plus the full fanout sweep.
    Fig06Paper,
    /// Fig. 11 at paper scale with the churn warm-up capped at 250 cycles.
    Fig11Churn,
    /// 12 latency-model runs over a synthetic 1,000,000-node overlay.
    AsyncMillion,
    /// 50,000 nodes grown on per-node streams with a sparse frontier.
    PernodeFrontier,
}

impl Workload {
    /// Every workload, in the order the matrix interleaves them.
    pub const ALL: [Workload; 4] = [
        Workload::Fig06Paper,
        Workload::Fig11Churn,
        Workload::AsyncMillion,
        Workload::PernodeFrontier,
    ];

    /// The name used on the command line and in every output file.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig06Paper => "fig06_paper",
            Workload::Fig11Churn => "fig11_churn",
            Workload::AsyncMillion => "async_million",
            Workload::PernodeFrontier => "pernode_frontier",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of the synthetic latency-model workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsyncSizes {
    /// Overlay size.
    pub nodes: usize,
    /// Random r-links per node.
    pub r_degree: usize,
    /// Single-run calls, alternating RingCast F=3 / RandCast F=5.
    pub runs: usize,
}

/// Sizes of the per-node frontier workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PernodeSizes {
    /// Network size.
    pub nodes: usize,
    /// Gossip period: each node initiates every `period` cycles.
    pub period: u64,
    /// Fraction of nodes replaced per cycle.
    pub churn_rate: f64,
    /// Cycles grown under churn.
    pub cycles: usize,
    /// RingCast F=3 runs over the frozen result.
    pub runs: usize,
}

fn figure_sizes(workload: Workload, smoke: bool) -> FigureSizes {
    // `ExperimentParams::paper()`: what `fig06 --paper` runs.
    let paper = FigureSizes {
        nodes: 10_000,
        runs: 100,
        warmup_cycles: 100,
        fanouts: (1..=20).collect(),
        churn_rate: 0.002,
        churn_max_cycles: 20_000,
    };
    let nodes = if smoke { 500 } else { paper.nodes };
    match workload {
        Workload::Fig06Paper => FigureSizes {
            nodes,
            runs: if smoke { 10 } else { paper.runs },
            ..paper
        },
        // fig11: the warm-up is capped so that membership, not the sweep,
        // is what the ~14 s go to.
        _ => FigureSizes {
            nodes,
            runs: if smoke { 4 } else { 20 },
            fanouts: vec![1, 2, 3, 5, 10],
            churn_max_cycles: if smoke { 100 } else { 250 },
            ..paper
        },
    }
}

fn async_sizes(smoke: bool) -> AsyncSizes {
    AsyncSizes {
        nodes: if smoke { 20_000 } else { 1_000_000 },
        r_degree: 8,
        runs: 12,
    }
}

fn pernode_sizes(smoke: bool) -> PernodeSizes {
    PernodeSizes {
        nodes: if smoke { 1_000 } else { 50_000 },
        period: 4,
        churn_rate: 0.0005,
        cycles: 240,
        runs: 20,
    }
}

/// Generated inputs of one workload: everything a pass needs, made from the
/// seed alone. The library only ever receives these and seeds.
// One value exists per process, so the size gap between variants is moot.
#[allow(clippy::large_enum_variant)]
pub enum Inputs {
    /// `fig06_paper` / `fig11_churn`: the figure's parameters.
    Figure(api::Params),
    /// `async_million`: the frozen synthetic overlay.
    Async {
        /// The overlay the runs go over.
        overlay: api::Dense,
        /// Engine configuration.
        config: api::AsyncCfg,
        /// Sizes.
        sizes: AsyncSizes,
        /// Workload seed.
        seed: u64,
    },
    /// `pernode_frontier`: growing the overlay *is* the workload.
    Pernode {
        /// Sizes.
        sizes: PernodeSizes,
        /// Workload seed.
        seed: u64,
        /// Intra-cycle and fan-out worker threads.
        threads: usize,
    },
}

/// Generates a workload's inputs. `smoke` selects the ~1/50 scale.
pub fn generate(
    workload: Workload,
    smoke: bool,
    seed: u64,
    threads: usize,
    tracer: &mut Tracer,
) -> Inputs {
    match workload {
        Workload::Fig06Paper | Workload::Fig11Churn => Inputs::Figure(api::figure_params(
            &figure_sizes(workload, smoke),
            seed,
            threads,
        )),
        Workload::AsyncMillion => {
            let sizes = async_sizes(smoke);
            let links = tracer.time("bench.setup.synthetic_links", || {
                api::synthetic_links(sizes.nodes, sizes.r_degree, seed)
            });
            let overlay = tracer.time("core.overlay.from_flat_links", || {
                api::overlay_from_flat_links(&links)
            });
            Inputs::Async {
                overlay,
                config: api::async_config(),
                sizes,
                seed,
            }
        }
        Workload::PernodeFrontier => Inputs::Pernode {
            sizes: pernode_sizes(smoke),
            seed,
            threads,
        },
    }
}

/// What one pass produced.
#[derive(Default)]
pub struct Pass {
    /// Gossip cycles plus disseminations attempted.
    pub ops: u64,
    /// Ops violating the workload's check.
    pub failed: u64,
    /// One line per violated check.
    pub failures: Vec<String>,
    /// Node gossip steps plus dissemination messages sent — exact per seed.
    pub events: u64,
    /// FNV-1a-64 of the pass's checked output.
    pub digest: u64,
    /// Node gossip steps (shared mode: cycles × population).
    pub node_steps: u64,
    /// Nodes replaced by churn.
    pub replaced: u64,
    /// Dissemination messages sent.
    pub messages: u64,
    /// Forwards refused by the event budget (latency engine).
    pub truncated_sends: u64,
    /// FNV-1a-64 of the exported link arrays alone (`pernode_frontier`).
    pub links_digest: u64,
    /// `VmRSS` when the membership phase ended, kB (traced pass only).
    pub rss_after_membership_kb: u64,
    /// The frozen overlay, kept by the traced figure passes for the extras.
    pub overlay: Option<api::Dense>,
}

impl Pass {
    fn fail(&mut self, ops: u64, reason: String) {
        self.failed += ops;
        self.failures.push(reason);
    }
}

/// Runs one pass of `workload` over `inputs`. Spans go to `tracer`; with a
/// disabled tracer the figure workloads take the high-level entry point.
pub fn run_pass(workload: Workload, inputs: &Inputs, tracer: &mut Tracer) -> Pass {
    let root = tracer.begin("bench.pass");
    let mut pass = match (workload, inputs) {
        (Workload::Fig06Paper, Inputs::Figure(params)) => fig06(params, tracer),
        (Workload::Fig11Churn, Inputs::Figure(params)) => fig11(params, tracer),
        (
            Workload::AsyncMillion,
            Inputs::Async {
                overlay,
                config,
                sizes,
                seed,
            },
        ) => async_million(overlay, config, *sizes, *seed, tracer),
        (
            Workload::PernodeFrontier,
            Inputs::Pernode {
                sizes,
                seed,
                threads,
            },
        ) => pernode(*sizes, *seed, *threads, tracer),
        _ => unreachable!("inputs were generated for another workload"),
    };
    tracer.end(root);
    pass.failed = pass.failed.min(pass.ops);
    pass
}

const PROTOCOLS: [Protocol; 2] = [Protocol::RandCast, Protocol::RingCast];

/// The (fanout × protocol) sweep of `figures::effectiveness_with_dense`,
/// one span per configuration. Returns the rows and the messages sent.
fn sweep(
    dense: &api::Dense,
    params: &api::Params,
    threads: usize,
    span: &str,
    tracer: &mut Tracer,
) -> (Vec<api::Row>, u64) {
    let mut rows = Vec::new();
    let mut messages = 0u64;
    let mut tag = 0u64;
    for &fanout in &params.fanouts {
        for protocol in PROTOCOLS {
            tracer.set_run(tag as u32);
            let reports = tracer.time(span, || {
                api::sweep_config(
                    dense,
                    protocol,
                    fanout,
                    params.runs,
                    api::config_seed(params.seed, tag),
                    threads,
                )
            });
            tag += 1;
            messages += api::total_messages(&reports);
            rows.push(tracer.time("core.experiment.aggregate", || {
                api::aggregate(protocol, fanout, &reports)
            }));
            // Each report owns per-node maps; freeing a configuration's
            // worth is measurable, and the figure code pays it too.
            tracer.time("core.experiment.release", || drop(reports));
        }
    }
    (rows, messages)
}

/// Accounts a finished figure table: ops, events, digest and the checks
/// both figure workloads share.
fn account_table(
    pass: &mut Pass,
    params: &api::Params,
    table: &api::Table,
    text: &str,
    cycles: usize,
) {
    let rows = api::rows(table);
    let disseminations: u64 = rows.iter().map(|r| r.runs as u64).sum();
    pass.ops = cycles as u64 + disseminations;
    pass.node_steps = (cycles * params.nodes) as u64;
    pass.messages = rows
        .iter()
        .map(|r| (r.mean_total_messages * r.runs as f64).round() as u64)
        .sum();
    pass.events = pass.node_steps + pass.messages;
    pass.digest = fnv_text(text);
    for row in &rows {
        if row.population != params.nodes {
            pass.fail(
                row.runs as u64,
                format!(
                    "{}: population {} != {}",
                    row.protocol, row.population, params.nodes
                ),
            );
        }
    }
}

fn fig06(params: &api::Params, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let (table, text) = if tracer.enabled() {
        // `scenario::static_overlay` + `figures::effectiveness_over`.
        let mut net = tracer.time("sim.dense.boot", || api::boot_shared(params));
        for cycle in 0..params.warmup_cycles {
            tracer.set_run(cycle as u32);
            tracer.time("sim.dense.cycle", || api::run_cycle(&mut net));
        }
        pass.rss_after_membership_kb = api::current_rss_kb();
        let snapshot = tracer.time("sim.dense.snapshot", || api::snapshot(&net));
        drop(net);
        let dense = tracer.time("core.overlay.from_snapshot", || {
            api::overlay_from_snapshot(&snapshot)
        });
        let (rows, _) = sweep(
            &dense,
            params,
            params.thread_count(),
            "core.experiment.config",
            tracer,
        );
        let table = api::table("static failure-free".to_owned(), rows);
        let text = tracer.time("bench.output.render", || api::render(&table));
        pass.overlay = Some(dense);
        (table, text)
    } else {
        let table = api::static_effectiveness(params);
        let text = api::render(&table);
        (table, text)
    };
    account_table(&mut pass, params, &table, &text, params.warmup_cycles);
    // The paper's §7.1 claim: RingCast never misses in a failure-free network.
    for row in api::rows(&table) {
        if row.protocol == Protocol::RingCast.name()
            && (row.mean_miss_ratio != 0.0 || row.complete_fraction != 1.0)
        {
            pass.fail(
                row.runs as u64,
                format!(
                    "RingCast row incomplete: miss {} complete {}",
                    row.mean_miss_ratio, row.complete_fraction
                ),
            );
        }
    }
    pass
}

fn fig11(params: &api::Params, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let (table, text, cycles) = if tracer.enabled() {
        // `scenario::churn_scenario` + `figures::effectiveness_with_dense`.
        let mut net = tracer.time("sim.dense.boot", || api::boot_shared(params));
        let mut driver = api::churn_driver(params.churn_rate);
        let initial = api::live_ids(&net);
        let mut executed = 0usize;
        let mut drifted = 0u64;
        while executed < params.churn_max_cycles {
            tracer.set_run(executed as u32);
            pass.replaced +=
                tracer.time("sim.churn.step", || api::churn_step(&mut driver, &mut net)) as u64;
            tracer.time("sim.dense.cycle", || api::run_cycle(&mut net));
            executed += 1;
            if api::live_len(&net) != params.nodes {
                drifted += 1;
            }
            if tracer.time("bench.scenario.replaced_check", || {
                api::all_replaced(&net, &initial)
            }) {
                break;
            }
        }
        if drifted > 0 {
            pass.fail(drifted, format!("population drifted in {drifted} cycles"));
        }
        pass.rss_after_membership_kb = api::current_rss_kb();
        let dense = tracer.time("core.overlay.from_dense_sim", || {
            api::overlay_from_dense_sim(&net)
        });
        let snapshot = tracer.time("sim.dense.snapshot", || api::snapshot(&net));
        drop(net);
        let (rows, _) = sweep(
            &dense,
            params,
            params.thread_count(),
            "core.experiment.config",
            tracer,
        );
        drop(snapshot);
        let table = api::table(api::churn_scenario_label(params, executed), rows);
        let text = tracer.time("bench.output.render", || api::render(&table));
        pass.overlay = Some(dense);
        (table, text, executed)
    } else {
        let (table, cycles) = api::churn_effectiveness(params);
        let text = api::render(&table);
        (table, text, cycles)
    };
    account_table(&mut pass, params, &table, &text, cycles);
    if cycles != params.churn_max_cycles {
        pass.fail(
            cycles as u64,
            format!(
                "churn warm-up ran {cycles} cycles, expected the cap of {}",
                params.churn_max_cycles
            ),
        );
    }
    pass
}

/// RingCast fanout of the latency-model and per-node workloads.
const RING_FANOUT: usize = 3;
/// RandCast fanout of the latency-model workload.
const RAND_FANOUT: usize = 5;

fn async_million(
    overlay: &api::Dense,
    config: &api::AsyncCfg,
    sizes: AsyncSizes,
    seed: u64,
    tracer: &mut Tracer,
) -> Pass {
    let mut pass = Pass::default();
    let mut digest = Fnv::default();
    for run in 0..sizes.runs {
        let (protocol, fanout) = if run % 2 == 0 {
            (Protocol::RingCast, RING_FANOUT)
        } else {
            (Protocol::RandCast, RAND_FANOUT)
        };
        tracer.set_run(run as u32);
        let counts = tracer.time("core.async_engine.run", || {
            api::async_run(
                overlay,
                protocol,
                fanout,
                config,
                api::config_seed(seed, run as u64),
            )
        });
        pass.ops += 1;
        pass.messages += counts.messages;
        pass.truncated_sends += counts.truncated_sends;
        digest.u64(counts.reached);
        digest.u64(counts.messages);
        digest.u64(counts.completion_bits);
        let complete =
            counts.reached == counts.population && counts.population == sizes.nodes as u64;
        let ok = match protocol {
            Protocol::RingCast => complete,
            Protocol::RandCast => counts.reached as f64 >= 0.99 * sizes.nodes as f64,
        };
        if !ok || counts.truncated_sends != 0 {
            pass.fail(
                1,
                format!(
                    "run {run} ({} F={fanout}): reached {}/{} truncated_sends {}",
                    protocol.name(),
                    counts.reached,
                    counts.population,
                    counts.truncated_sends
                ),
            );
        }
    }
    pass.events = pass.messages;
    pass.digest = digest.finish();
    pass
}

/// What growing the per-node overlay produced.
struct Grown {
    net: api::Network,
    node_steps: u64,
    replaced: u64,
    drifted: u64,
}

/// Span names of one growth of the per-node overlay.
struct GrowSpans {
    boot: &'static str,
    churn: &'static str,
    cycle: &'static str,
}

/// The timed pass, at the workload's thread count.
const PASS_SPANS: GrowSpans = GrowSpans {
    boot: "sim.frontier.boot",
    churn: "sim.churn.step",
    cycle: "sim.frontier.cycle",
};

/// The traced run's regrow at `threads = 1`.
const SINGLE_THREAD_SPANS: GrowSpans = GrowSpans {
    boot: "extra.frontier_t1.boot",
    churn: "extra.frontier_t1.churn_step",
    cycle: "extra.frontier_t1.cycle",
};

/// Grows the per-node overlay under churn, one span per call.
fn grow_pernode(
    sizes: PernodeSizes,
    seed: u64,
    threads: usize,
    spans: &GrowSpans,
    tracer: &mut Tracer,
) -> Grown {
    let mut net = tracer.time(spans.boot, || {
        api::boot_per_node(sizes.nodes, seed, sizes.period, threads)
    });
    let mut driver = api::churn_driver(sizes.churn_rate);
    let (mut node_steps, mut replaced, mut drifted) = (0u64, 0u64, 0u64);
    for cycle in 0..sizes.cycles {
        tracer.set_run(cycle as u32);
        replaced += tracer.time(spans.churn, || api::churn_step(&mut driver, &mut net)) as u64;
        tracer.time(spans.cycle, || api::run_cycle(&mut net));
        node_steps += api::last_frontier_len(&net) as u64;
        if api::live_len(&net) != sizes.nodes {
            drifted += 1;
        }
    }
    Grown {
        net,
        node_steps,
        replaced,
        drifted,
    }
}

fn pernode(sizes: PernodeSizes, seed: u64, threads: usize, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let grown = grow_pernode(sizes, seed, threads, &PASS_SPANS, tracer);
    pass.rss_after_membership_kb = if tracer.enabled() {
        api::current_rss_kb()
    } else {
        0
    };
    let net = grown.net;
    let links = tracer.time("sim.dense.flat_links", || api::flat_links(&net));
    let dense = tracer.time("core.overlay.from_dense_sim", || {
        api::overlay_from_dense_sim(&net)
    });
    tracer.set_run(0);
    let reports = tracer.time("core.experiment.config", || {
        api::sweep_config(
            &dense,
            Protocol::RingCast,
            RING_FANOUT,
            sizes.runs,
            api::config_seed(seed, 0),
            threads,
        )
    });
    let hits = api::hit_ratios(&reports);
    (pass.links_digest, pass.digest) = tracer.time("bench.check.digest", || {
        let mut digest = Fnv::default();
        api::fold_links(&links, |v| digest.u64(v));
        let links_only = digest.finish();
        for hit in &hits {
            digest.u64(hit.to_bits());
        }
        (links_only, digest.finish())
    });

    pass.ops = (sizes.cycles + sizes.runs) as u64;
    pass.node_steps = grown.node_steps;
    pass.replaced = grown.replaced;
    pass.messages = api::total_messages(&reports);
    pass.events = pass.node_steps + pass.messages;
    if grown.drifted > 0 || api::overlay_live_len(&dense) != sizes.nodes {
        pass.fail(
            grown.drifted.max(1),
            format!(
                "population drifted: {} cycles off, frozen overlay has {} live nodes",
                grown.drifted,
                api::overlay_live_len(&dense)
            ),
        );
    }
    // The median, not the mean: a run whose origin is a node that joined in
    // the last cycles and knows nobody reaches only itself (the per-node
    // mode's documented introducer-death / fresh-joiner artifact, about one
    // origin in a few hundred), and one such run would sink a mean of 20.
    let typical_hit = median(&hits);
    if typical_hit < 0.95 {
        pass.fail(
            sizes.runs as u64,
            format!("median RingCast hit ratio {typical_hit} < 0.95"),
        );
    }
    pass
}

/// Counts the traced run's extra measurements produce (their timings are
/// spans below the `bench.extras` root).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Extras {
    /// Messages of the sequential (`threads = 1`) engine sweep.
    pub engine_seq_messages: u64,
    /// Scheduler state after one run per protocol (RingCast, RandCast).
    pub sched: Vec<api::SchedStats>,
    /// Hold-model replay cost, ns per pop + push.
    pub hold_ns_per_event: f64,
    /// One line per violated check.
    pub failures: Vec<String>,
}

/// Runs the measurements that only the traced run makes, after its traced
/// pass: the sequential engine sweep and probe-overhead pair (figure
/// workloads), the scheduler probes and hold replay (`async_million`), the
/// `threads = 1` regrow (`pernode_frontier`).
pub fn run_extras(
    workload: Workload,
    inputs: &Inputs,
    traced: &Pass,
    tracer: &mut Tracer,
) -> Extras {
    let root = tracer.begin("bench.extras");
    let mut extras = Extras::default();
    match (workload, inputs) {
        (Workload::Fig06Paper | Workload::Fig11Churn, Inputs::Figure(params)) => {
            let dense = traced
                .overlay
                .as_ref()
                .expect("traced figure pass keeps its overlay");
            let (_, messages) = sweep(dense, params, 1, "extra.engine_seq.config", tracer);
            extras.engine_seq_messages = messages;
            if messages != traced.messages {
                extras.failures.push(format!(
                    "sequential sweep sent {messages} messages, threaded sweep {}",
                    traced.messages
                ));
            }
            if workload == Workload::Fig06Paper {
                // ROADMAP item 5's budget: a recording probe against the
                // disabled one, same runs, same overlay.
                let probed = |kind| {
                    api::probed_sweep(
                        dense,
                        Protocol::RingCast,
                        RING_FANOUT,
                        20,
                        api::config_seed(params.seed, 0),
                        kind,
                    )
                };
                // One unmeasured run first, so neither arm pays first-touch;
                // then alternate the arms so drift hits both alike.
                let (mut null, mut metrics) = (probed(api::ProbeKind::Null), 0);
                for _ in 0..5 {
                    null = tracer.time("extra.probe.null", || probed(api::ProbeKind::Null));
                    metrics =
                        tracer.time("extra.probe.metrics", || probed(api::ProbeKind::Metrics));
                }
                if null != metrics {
                    extras.failures.push(format!(
                        "probe perturbed the sweep: {null} vs {metrics} messages"
                    ));
                }
            }
        }
        (
            Workload::AsyncMillion,
            Inputs::Async {
                overlay,
                config,
                seed,
                ..
            },
        ) => {
            for (protocol, fanout) in [
                (Protocol::RingCast, RING_FANOUT),
                (Protocol::RandCast, RAND_FANOUT),
            ] {
                extras.sched.push(tracer.time("extra.sched.probe", || {
                    api::sched_probe(overlay, protocol, fanout, config, *seed ^ 0xA51C)
                }));
            }
            let ring = extras.sched[0];
            // Replay at the run's mean backlog is not observable from
            // outside; the high-water mark is, and bounds it from above.
            extras.hold_ns_per_event = tracer.time("extra.sched.hold_replay", || {
                api::sched_hold_replay(config, ring.queue_high_water, ring.messages, *seed)
            });
        }
        (
            Workload::PernodeFrontier,
            Inputs::Pernode {
                sizes,
                seed,
                threads,
            },
        ) if *threads > 1 => {
            let single = grow_pernode(*sizes, *seed, 1, &SINGLE_THREAD_SPANS, tracer);
            let mut digest = Fnv::default();
            api::fold_links(&api::flat_links(&single.net), |v| digest.u64(v));
            if digest.finish() != traced.links_digest {
                extras.failures.push(format!(
                    "per-node overlay diverged between threads = {threads} and threads = 1"
                ));
            }
        }
        _ => {}
    }
    tracer.end(root);
    extras
}
