//! The repository benchmark. Three modes, one binary (`run.sh` builds it
//! and forwards its arguments):
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` — one run of
//!   one workload in this process; the last line of standard output is the
//!   result object `BENCHMARK.json`'s contract describes.
//! * no `--workload` — the matrix: every workload in a fresh child process,
//!   interleaved A B C D for three rounds, then one traced run each;
//!   writes `benchmark/out/result.json` and exits non-zero on a failed check.
//! * `--compare old.json new.json` — per-metric deltas against the bounds.
//!
//! `--smoke` runs every workload at ~1/50 scale (golden check skipped,
//! invariants kept).

mod api;
mod compare;
mod json;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use serde::Value;

use json::{as_f64, as_str, as_u64, at, get, hex, obj, text};
use metrics::{TracedRun, END_TO_END, PER_LAYER};
use stats::median;
use trace::{Fold, TraceFile, Tracer};
use workloads::{generate, run_extras, run_pass, Inputs, Pass, Workload};

/// Measured seconds per run when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;
/// Set-up is repeated until it has run this often (twice under `--smoke`,
/// which exercises the plumbing, not the numbers) …
const SETUP_MAX_REPEATS: usize = 5;
/// … or for this long in total, whichever comes first.
const SETUP_REPEAT_BUDGET: Duration = Duration::from_secs(2);

fn main() -> ExitCode {
    let process_start = Instant::now();
    match run(process_start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Parsed command line.
struct Options {
    workload: Option<Workload>,
    seed: u64,
    /// Measured seconds per run; `None`: `DEFAULT_SECONDS`, or a single pass
    /// with `--smoke`.
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    /// Worker threads of the threaded layers: `min(nproc, 2)`.
    threads: usize,
    compare: Option<(PathBuf, PathBuf)>,
    root: PathBuf,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, String> {
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let mut o = Options {
            workload: None,
            seed: 1,
            seconds: None,
            trace: false,
            smoke: false,
            threads: nproc.min(2),
            compare: None,
            // run.sh exports the repo root; from a bare `cargo run` in
            // benchmark/ it is the parent directory.
            root: std::env::var_os("HYBRIDCAST_BENCH_ROOT")
                .map_or_else(|| PathBuf::from(".."), PathBuf::from),
        };
        let mut it = args.iter();
        let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
            raw.parse()
                .map_err(|_| format!("invalid value '{raw}' for {flag}"))
        }
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--workload" => {
                    let name = value(&mut it, flag)?;
                    o.workload = Some(
                        Workload::from_name(&name)
                            .ok_or_else(|| format!("unknown workload '{name}'"))?,
                    );
                }
                "--seed" => o.seed = number(flag, &value(&mut it, flag)?)?,
                "--seconds" => o.seconds = Some(number(flag, &value(&mut it, flag)?)?),
                "--trace" => o.trace = number::<u8>(flag, &value(&mut it, flag)?)? != 0,
                "--smoke" => o.smoke = true,
                "--compare" => {
                    let old = PathBuf::from(value(&mut it, flag)?);
                    let new = PathBuf::from(value(&mut it, flag)?);
                    o.compare = Some((old, new));
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(o)
    }

    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.smoke { 0.0 } else { DEFAULT_SECONDS })
    }

    fn out_dir(&self) -> PathBuf {
        self.root.join("benchmark").join("out")
    }
}

fn run(process_start: Instant) -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = Options::parse(&args)?;
    if let Some((old, new)) = &options.compare {
        let benchmark = json::read(&options.root.join("BENCHMARK.json"))?;
        return compare::compare(&benchmark, &json::read(old)?, &json::read(new)?);
    }
    match options.workload {
        Some(workload) => single_run(&options, workload, process_start),
        None => matrix(&options),
    }
}

// ---- one run of one workload, in this process -----------------------------

/// User + system CPU seconds of this process (all threads, including ended
/// ones), from `/proc/self/stat`; 0 where unavailable.
fn cpu_seconds() -> f64 {
    // Fields 14 and 15 (utime, stime) in clock ticks; the command name
    // (field 2) may contain spaces, so count from the closing parenthesis.
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / TICKS_PER_SECOND
}

/// One timed pass and what the process spent on it.
struct TimedPass {
    pass: Pass,
    wall_s: f64,
    cpu_s: f64,
}

fn timed_pass(workload: Workload, inputs: &Inputs, tracer: &mut Tracer) -> TimedPass {
    let cpu = cpu_seconds();
    let start = Instant::now();
    let pass = run_pass(workload, inputs, tracer);
    TimedPass {
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu,
        pass,
    }
}

fn median_of(passes: &[TimedPass], field: fn(&TimedPass) -> f64) -> f64 {
    median(&passes.iter().map(field).collect::<Vec<_>>())
}

/// The seed-1 digest `golden.json` records for `workload`, if any.
fn golden_digest(root: &Path, workload: Workload, seed: u64) -> Result<Option<String>, String> {
    let golden = json::read(&root.join("benchmark").join("golden.json"))?;
    if get(&golden, "seed").and_then(as_u64) != Some(seed) {
        return Ok(None);
    }
    Ok(at(&golden, &["digests", workload.name()])
        .and_then(as_str)
        .map(str::to_owned))
}

fn single_run(o: &Options, workload: Workload, process_start: Instant) -> Result<bool, String> {
    let mut tracer = if o.trace { Tracer::on() } else { Tracer::off() };
    let mut failures: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Set-up: generate the inputs, then one smoke-scale pass of the same
    // workload so code pages, allocator arenas and worker threads are warm
    // before anything is timed. Repeated, and the median reported.
    let before_setup = process_start.elapsed();
    let mut setup_times = Vec::new();
    let mut inputs = None;
    let max_repeats = if o.smoke { 2 } else { SETUP_MAX_REPEATS };
    while setup_times.len() < max_repeats
        && setup_times.iter().sum::<Duration>() < SETUP_REPEAT_BUDGET
    {
        drop(inputs.take());
        let start = Instant::now();
        let root = tracer.begin("bench.setup");
        inputs = Some(generate(workload, o.smoke, o.seed, o.threads, &mut tracer));
        let warm_up = tracer.begin("bench.setup.warmup");
        let small = generate(workload, true, o.seed, o.threads, &mut Tracer::off());
        let warm = run_pass(workload, &small, &mut Tracer::off());
        drop(small);
        tracer.end(warm_up);
        tracer.end(root);
        setup_times.push(start.elapsed());
        attempted += warm.ops;
        failed += warm.failed;
        failures.extend(warm.failures.into_iter().map(|f| format!("warm-up: {f}")));
    }
    let inputs = inputs.expect("set-up ran at least once");
    let setup_reps: Vec<f64> = setup_times.iter().map(Duration::as_secs_f64).collect();
    let setup_s = before_setup.as_secs_f64() + median(&setup_reps);
    let rss_after_setup_kb = api::current_rss_kb();

    // The timed region: whole passes until the next would overrun
    // `--seconds` (always at least one; a traced run makes exactly one).
    let region = Instant::now();
    let mut passes: Vec<TimedPass> = Vec::new();
    loop {
        passes.push(timed_pass(workload, &inputs, &mut Tracer::off()));
        if o.trace
            || region.elapsed().as_secs_f64() + median_of(&passes, |p| p.wall_s) > o.seconds()
        {
            break;
        }
    }
    let peak_rss_kb = api::peak_rss_kb();
    let first = &passes[0].pass;
    let (ops, events, digest) = (first.ops, first.events, first.digest);
    for (i, timed) in passes.iter().enumerate() {
        attempted += timed.pass.ops;
        failed += timed.pass.failed;
        failures.extend(timed.pass.failures.iter().map(|f| format!("pass {i}: {f}")));
        if timed.pass.digest != digest {
            failed += timed.pass.ops;
            failures.push(format!("pass {i}: digest differs from pass 0"));
        }
    }
    let wall_s = median_of(&passes, |p| p.wall_s);
    let cpu_s = median_of(&passes, |p| p.cpu_s);

    // Golden digest: default seed at full scale only.
    let golden = if o.smoke {
        "skipped (smoke)".to_owned()
    } else {
        match golden_digest(&o.root, workload, o.seed)? {
            None => "skipped (seed without golden)".to_owned(),
            Some(expected) if expected == hex(digest) => "match".to_owned(),
            Some(expected) => {
                failed = attempted;
                failures.push(format!("result_digest differs from golden {expected}"));
                "MISMATCH".to_owned()
            }
        }
    };

    let end_to_end: BTreeMap<&str, f64> = BTreeMap::from([
        ("setup_s", setup_s),
        ("wall_s", wall_s),
        ("cpu_s", cpu_s),
        ("peak_rss_mb", peak_rss_kb as f64 / 1024.0),
        ("sim_events_per_s", events as f64 / wall_s),
    ]);

    // The traced pass and its extras.
    let mut per_layer = BTreeMap::new();
    let mut labels = BTreeMap::new();
    if o.trace {
        let traced = timed_pass(workload, &inputs, &mut tracer);
        attempted += traced.pass.ops;
        failed += traced.pass.failed;
        failures.extend(traced.pass.failures.iter().map(|f| format!("traced: {f}")));
        if traced.pass.digest != digest {
            failed += traced.pass.ops;
            failures.push(format!(
                "traced pass digest {} differs from untraced {}",
                hex(traced.pass.digest),
                hex(digest)
            ));
        }
        let extras = run_extras(workload, &inputs, &traced.pass, &mut tracer);
        if !extras.failures.is_empty() {
            failed += 1;
            failures.extend(extras.failures.iter().map(|f| format!("extras: {f}")));
        }
        let spans = tracer.spans();
        let fold = |root| Fold::below(spans, root).unwrap_or_default();
        (per_layer, labels) = metrics::per_layer(
            &fold("bench.pass"),
            &fold("bench.setup"),
            &fold("bench.extras"),
            &TracedRun {
                pass: &traced.pass,
                extras: &extras,
                untraced_wall_s: wall_s,
                rss_after_setup_kb,
                span_count: spans.len(),
            },
        );
        let file = TraceFile {
            workload: workload.name().to_owned(),
            seed: o.seed,
            spans: spans.to_vec(),
        };
        let dir = o.out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.json", workload.name()));
        let body = serde_json::to_string(&file).map_err(|e| e.to_string())?;
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    failed = failed.min(attempted);
    let correct = failed == 0;

    // Every metric by name and unit, then the machine-readable lines.
    println!(
        "# {} seed={} threads={} smoke={} passes={} setup_repeats={} ops={ops} events={events}",
        workload.name(),
        o.seed,
        o.threads,
        o.smoke,
        passes.len(),
        setup_reps.len(),
    );
    for (name, unit, _) in END_TO_END {
        println!("{name:<40} {:>18.6} {unit}", end_to_end[name]);
    }
    for (name, unit, _) in PER_LAYER.iter().filter(|_| o.trace) {
        let label = labels
            .get(name)
            .map_or(String::new(), |l| format!("  ({l})"));
        println!("{name:<40} {:>18.6} {unit}{label}", per_layer[name]);
    }
    println!("result_digest {} golden: {golden}", hex(digest));
    for failure in &failures {
        println!("FAILED {failure}");
    }
    let metric_map = |values: &BTreeMap<&str, f64>| {
        obj(values.iter().map(|(name, &v)| {
            (
                *name,
                obj([
                    ("value", Value::F64(v)),
                    ("unit", text(metrics::unit_of(name))),
                ]),
            )
        }))
    };
    let detail = obj([
        ("workload", text(workload.name())),
        ("seed", Value::U64(o.seed)),
        ("threads", Value::U64(o.threads as u64)),
        ("passes", Value::U64(passes.len() as u64)),
        ("ops", Value::U64(ops)),
        ("events", Value::U64(events)),
        ("result_digest", text(hex(digest))),
        ("golden", text(golden)),
        (
            "pass_wall_s",
            Value::Seq(passes.iter().map(|p| Value::F64(p.wall_s)).collect()),
        ),
        ("failures", Value::Seq(failures.iter().map(text).collect())),
    ]);
    println!("# detail {}", json::compact(&detail));
    let result = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        (
            "metrics",
            metric_map(if o.trace { &per_layer } else { &end_to_end }),
        ),
    ]);
    println!("{}", json::compact(&result));
    Ok(correct)
}

// ---- the matrix: fresh child process per run ------------------------------

/// What one child run reported.
struct ChildRun {
    result: Value,
    detail: Value,
}

fn child_run(o: &Options, workload: Workload, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("HYBRIDCAST_BENCH_ROOT", &o.root)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if o.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with("FAILED")) {
        println!("    {line}");
    }
    let last = stdout.lines().last().unwrap_or("");
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("# detail "))
        .ok_or_else(|| format!("{}: child printed no detail line", workload.name()))?;
    Ok(ChildRun {
        result: json::parse(last).map_err(|e| format!("{}: {e}", workload.name()))?,
        detail: json::parse(detail)?,
    })
}

fn metric_value(run: &Value, name: &str) -> Option<f64> {
    at(run, &["metrics", name, "value"]).and_then(as_f64)
}

/// Machine metadata recorded beside the numbers. `rustc -V` and the git
/// commit come from `run.sh` through the environment.
fn machine(o: &Options) -> Value {
    let env = |key: &str| text(std::env::var(key).unwrap_or_else(|_| "unknown".to_owned()));
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    obj([
        (
            "nproc",
            Value::U64(
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as u64,
            ),
        ),
        ("cpu_model", text(cpu_model)),
        ("rustc", env("HYBRIDCAST_BENCH_RUSTC")),
        ("git_commit", env("HYBRIDCAST_BENCH_COMMIT")),
        ("threads", Value::U64(o.threads as u64)),
    ])
}

fn matrix(o: &Options) -> Result<bool, String> {
    let mut ok = true;
    // Three fresh-process repeats fit the contract's time cap; on a slower
    // machine drop repeats before shrinking any workload.
    let repeats = if o.smoke { 1 } else { 3 };
    let mut untraced: BTreeMap<&str, Vec<ChildRun>> = BTreeMap::new();
    for repeat in 1..=repeats {
        for workload in Workload::ALL {
            let run = child_run(o, workload, false)?;
            println!(
                "[{repeat}/{repeats}] {:<18} wall_s={:.3} setup_s={:.3} peak_rss_mb={:.1} failed={}",
                workload.name(),
                metric_value(&run.result, "wall_s").unwrap_or(0.0),
                metric_value(&run.result, "setup_s").unwrap_or(0.0),
                metric_value(&run.result, "peak_rss_mb").unwrap_or(0.0),
                get(&run.result, "failed").and_then(as_u64).unwrap_or(0),
            );
            ok &= get(&run.result, "correct") == Some(&Value::Bool(true));
            untraced.entry(workload.name()).or_default().push(run);
        }
    }

    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let runs = &untraced[workload.name()];
        let traced = child_run(o, workload, true)?;
        ok &= get(&traced.result, "correct") == Some(&Value::Bool(true));
        let digest = |run: &ChildRun| get(&run.detail, "result_digest").cloned();
        let first_digest = digest(&runs[0]).ok_or("child reported no digest")?;
        if runs
            .iter()
            .any(|r| digest(r).as_ref() != Some(&first_digest))
        {
            println!(
                "FAILED {}: result_digest differs between repeats",
                workload.name()
            );
            ok = false;
        }

        println!("{}", workload.name());
        let mut end_to_end = Vec::new();
        for (name, unit, _) in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| metric_value(&r.result, name))
                .collect();
            if values.len() != runs.len() {
                return Err(format!("{}: a run did not report {name}", workload.name()));
            }
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let mid = median(&values);
            println!(
                "  {name:<38} {mid:>18.6} {unit:<5} [{lo:.6} .. {hi:.6}] n={}",
                values.len()
            );
            end_to_end.push((
                name,
                obj([
                    ("median", Value::F64(mid)),
                    ("min", Value::F64(lo)),
                    ("max", Value::F64(hi)),
                    ("spread", Value::F64((hi - lo) / mid)),
                    ("unit", text(unit)),
                    (
                        "values",
                        Value::Seq(values.into_iter().map(Value::F64).collect()),
                    ),
                ]),
            ));
        }
        for (name, unit, _) in PER_LAYER {
            let value = metric_value(&traced.result, name).unwrap_or(0.0);
            if value != 0.0 {
                println!("  {name:<38} {value:>18.6} {unit}");
            }
        }
        let traced_wall = metric_value(&traced.result, "trace.traced_wall_s").unwrap_or(0.0);
        let untraced_median = median(
            &runs
                .iter()
                .filter_map(|r| metric_value(&r.result, "wall_s"))
                .collect::<Vec<_>>(),
        );
        let sum = |key: &str| -> u64 {
            runs.iter()
                .chain([&traced])
                .filter_map(|r| get(&r.result, key).and_then(as_u64))
                .sum()
        };
        println!(
            "  ops={} attempted={} failed={} result_digest={} golden={}",
            get(&runs[0].detail, "ops").and_then(as_u64).unwrap_or(0),
            sum("attempted"),
            sum("failed"),
            as_str(&first_digest).unwrap_or("?"),
            get(&runs[0].detail, "golden")
                .and_then(as_str)
                .unwrap_or("?"),
        );
        workloads.push((
            workload.name(),
            obj([
                (
                    "ops",
                    get(&runs[0].detail, "ops").cloned().unwrap_or(Value::Null),
                ),
                ("attempted", Value::U64(sum("attempted"))),
                ("failed", Value::U64(sum("failed"))),
                ("result_digest", first_digest),
                (
                    "golden",
                    get(&runs[0].detail, "golden")
                        .cloned()
                        .unwrap_or(Value::Null),
                ),
                ("end_to_end", obj(end_to_end)),
                (
                    "per_layer",
                    get(&traced.result, "metrics")
                        .cloned()
                        .unwrap_or(Value::Null),
                ),
                (
                    "traced",
                    obj([
                        ("wall_s", Value::F64(traced_wall)),
                        (
                            "overhead_vs_untraced_median",
                            Value::F64(traced_wall / untraced_median),
                        ),
                        ("result_digest", digest(&traced).unwrap_or(Value::Null)),
                    ]),
                ),
            ]),
        ));
    }

    let out = o.out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let result = obj([
        ("schema", Value::U64(1)),
        ("seed", Value::U64(o.seed)),
        ("smoke", Value::Bool(o.smoke)),
        ("repeats", Value::U64(repeats as u64)),
        ("run_seconds", Value::F64(o.seconds())),
        ("machine", machine(o)),
        ("workloads", obj(workloads)),
    ]);
    let path = out.join("result.json");
    std::fs::write(&path, json::pretty(&result) + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    println!(
        "{}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let benchmark = json::read(&root.join("BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            get(&benchmark, key)
                .and_then(Value::as_seq)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k| get(m, k).and_then(as_str).unwrap().to_owned();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let catalogue = |defs: &[metrics::MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), catalogue(&END_TO_END));
        assert_eq!(listed("per_layer"), catalogue(&PER_LAYER));
        let names: Vec<&str> = get(&benchmark, "workloads")
            .and_then(Value::as_seq)
            .unwrap()
            .iter()
            .map(|w| get(w, "name").and_then(as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        assert_eq!(
            get(&benchmark, "run_seconds").and_then(as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn options_parse_the_contract_flags_and_reject_unknown_ones() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let o = Options::parse(&args(
            "--workload async_million --seed 7 --seconds 3 --trace 1 --smoke",
        ))
        .unwrap();
        assert_eq!(o.workload, Some(Workload::AsyncMillion));
        assert_eq!(
            (o.seed, o.seconds(), o.trace, o.smoke),
            (7, 3.0, true, true)
        );
        assert!(Options::parse(&args("--workload nope")).is_err());
        assert!(Options::parse(&args("--frobnicate")).is_err());
        assert!(Options::parse(&args("--seed")).is_err());
        let o = Options::parse(&args("--compare a.json b.json")).unwrap();
        assert_eq!(o.compare, Some(("a.json".into(), "b.json".into())));
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = cpu_seconds();
        let start = Instant::now();
        let mut x = 0u64;
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(
            cpu_seconds() > before,
            "60 ms of spinning is at least one tick"
        );
    }
}
