//! Golden fixture pinning the **bytes every figure, ablation and extension
//! binary prints** at a tiny scale.
//!
//! `figure_golden.rs` pins what the figure functions return; this file pins
//! what reaches stdout once a binary has parsed its options, applied its own
//! defaults (fanouts, fractions, ratios, ...) and rendered the result. Each
//! binary runs as a child process at `--threads 1` and `--threads 4` with
//! `--json <file>`, and the FNV-1a-64 digests of its stdout and of the figure
//! JSON it wrote must equal the pinned ones — "byte-identical to the parent
//! commit" as an assertion instead of a diff done by hand. Two more cases
//! fold a `--trace` back through `trace_summary`: fig06's against its own
//! figure JSON (`--check`), and `ext_adversarial`'s loss and partition
//! sweeps against a pinned digest. A last case checks that an option no
//! arm can run is refused with an `error:` line, not a panic.
//!
//! The digests were produced by this code base; they are a regression
//! fence, not an external ground truth. If an intentional change shifts
//! one, run the binary with the arguments the failure prints, check the
//! output and update the constant.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The common scale: small enough for a debug build, large enough that
/// every binary prints non-trivial rows (RandCast misses nodes, churn
/// replaces the whole bootstrap population well inside the cap).
const SCALE: [&str; 11] = [
    "--nodes",
    "120",
    "--runs",
    "2",
    "--warmup",
    "30",
    "--churn-rate",
    "0.05",
    "--churn-max-cycles",
    "200",
    "--quiet",
];

/// A binary's name and the path Cargo built it at.
macro_rules! bin {
    ($name:literal) => {
        ($name, env!(concat!("CARGO_BIN_EXE_", $name)))
    };
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// A scratch file for one binary's output, private to this test binary.
fn scratch(file: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(file)
}

/// Runs `exe` with `args`, panicking with its stderr unless it succeeds.
fn run(name: &str, exe: &str, args: &[&str]) -> Output {
    let output = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{name}: cannot run {exe}: {e}"));
    assert!(
        output.status.success(),
        "{name} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

/// Runs the binary at [`SCALE`] plus `extra` and `--json <file>`, and
/// asserts the digests of its stdout and of that file at 1 and at 4 worker
/// threads.
fn assert_stdout((name, exe): (&str, &str), extra: &[&str], golden: u64, golden_json: u64) {
    for threads in ["1", "4"] {
        let json = scratch(&format!("{name}-threads{threads}.json"));
        let json_arg = json.to_str().expect("UTF-8 scratch path");
        let args: Vec<&str> = SCALE
            .iter()
            .chain(extra)
            .chain(&["--threads", threads, "--json", json_arg])
            .copied()
            .collect();
        let output = run(name, exe, &args);
        let digest = fnv1a(&output.stdout);
        assert_eq!(
            digest,
            golden,
            "{name} {} {} --threads {threads} drifted: digest {digest:#018X}, stdout:\n{}",
            SCALE.join(" "),
            extra.join(" "),
            String::from_utf8_lossy(&output.stdout)
        );
        let bytes = std::fs::read(&json).unwrap_or_else(|e| panic!("{name}: {json_arg}: {e}"));
        let digest = fnv1a(&bytes);
        assert_eq!(
            digest,
            golden_json,
            "{name} {} {} --threads {threads} --json drifted: digest {digest:#018X}, JSON:\n{}",
            SCALE.join(" "),
            extra.join(" "),
            String::from_utf8_lossy(&bytes)
        );
    }
}

#[test]
fn static_figures_print_pinned_bytes() {
    assert_stdout(
        bin!("fig06_static_effectiveness"),
        &[],
        0x2989_4EC5_6F2A_3FFE,
        0xE29D_B1E9_DFA6_E395,
    );
    assert_stdout(
        bin!("fig07_static_progress"),
        &[],
        0xB7B9_5FF8_1051_8ACE,
        0x8A77_5BE7_8042_CD4D,
    );
    assert_stdout(
        bin!("fig08_message_overhead"),
        &[],
        0x7CAC_44EF_8F72_7169,
        0xE29D_B1E9_DFA6_E395,
    );
}

#[test]
fn catastrophic_figures_print_pinned_bytes() {
    // The default four fractions: one overlay, four failures.
    assert_stdout(
        bin!("fig09_catastrophic_effectiveness"),
        &[],
        0xABC4_730A_6A17_F9C2,
        0x6D33_C5F5_7D88_3594,
    );
    assert_stdout(
        bin!("fig10_catastrophic_progress"),
        &[],
        0x68F8_4C3C_8918_8327,
        0x4110_91E9_D328_1142,
    );
}

#[test]
fn churn_figures_print_pinned_bytes() {
    assert_stdout(
        bin!("fig11_churn_effectiveness"),
        &[],
        0xCDEB_6CB3_FA35_71FE,
        0x65BE_3C6C_A9B8_B575,
    );
    assert_stdout(
        bin!("fig12_lifetime_distribution"),
        &["--repeats", "2"],
        0x44A7_2DAE_1A5F_D9D7,
        0x0255_06DF_1844_46D5,
    );
    assert_stdout(
        bin!("fig13_miss_lifetimes"),
        &[],
        0xC9EA_A633_2974_DCFF,
        0x36AA_B67C_45D2_EA53,
    );
}

#[test]
fn ablations_print_pinned_bytes() {
    assert_stdout(
        bin!("ablation_frozen_overlay"),
        &[],
        0x0E1C_915E_01FF_DFCA,
        0xABD8_ECAC_58C3_9D33,
    );
    assert_stdout(
        bin!("ablation_async_latency"),
        &[],
        0xDDB2_2520_B51B_137F,
        0x9393_7AE3_C2AC_4E91,
    );
    assert_stdout(
        bin!("ablation_connectivity"),
        &[],
        0x31E9_E1AC_1A0D_FBD8,
        0x9DC8_B379_B9C3_B787,
    );
    assert_stdout(
        bin!("ablation_view_length"),
        &[],
        0xAC5A_4673_5A6E_8495,
        0xF8CF_AECE_BACE_A543,
    );
}

#[test]
fn extensions_print_pinned_bytes() {
    assert_stdout(
        bin!("ext_push_pull"),
        &[],
        0xE06D_D789_8B9A_3BC4,
        0x3492_E343_6FEA_2601,
    );
    assert_stdout(
        bin!("ext_push_pull"),
        &["--fraction", "0.05"],
        0xF54E_5F3B_24CA_013A,
        0x3716_0A28_3EB3_8AF7,
    );
    assert_stdout(
        bin!("ext_adversarial"),
        &[],
        0x6B68_762C_9321_3F1D,
        0xB852_76A5_24BF_852F,
    );
}

#[test]
fn traced_run_folds_back_to_its_json_table() {
    let (name, exe) = bin!("fig06_static_effectiveness");
    let trace = scratch("round-trip.jsonl");
    let json = scratch("round-trip.json");
    let trace = trace.to_str().expect("UTF-8 scratch path");
    let json = json.to_str().expect("UTF-8 scratch path");
    let args: Vec<&str> = SCALE
        .iter()
        .chain(&["--trace", trace, "--json", json])
        .copied()
        .collect();
    run(name, exe, &args);
    let (name, exe) = bin!("trace_summary");
    let output = run(name, exe, &["--trace", trace, "--check", json]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("bit-identical"), "{name}: {stderr}");
}

#[test]
fn adversarial_trace_folds_to_pinned_sections() {
    // The event-driven side of the read-back: loss and partition sweeps,
    // with their drop, open and heal events, fold into 4 sections of 2 runs.
    let (name, exe) = bin!("ext_adversarial");
    let trace = scratch("adversarial.jsonl");
    let trace = trace.to_str().expect("UTF-8 scratch path");
    run(
        name,
        exe,
        &[
            "--nodes",
            "100",
            "--runs",
            "2",
            "--loss-rates",
            "0,0.2",
            "--durations",
            "0,4",
            "--trace",
            trace,
        ],
    );
    let (name, exe) = bin!("trace_summary");
    let output = run(name, exe, &["--trace", trace]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("4 sections, 8 runs"), "{name}: {stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let digest = fnv1a(&output.stdout);
    assert_eq!(
        digest, 0xE9AE_7465_D3DE_4CD1,
        "{name} --trace {trace} drifted: digest {digest:#018X}, stdout:\n{stdout}"
    );
}

#[test]
fn connectivity_ablation_rejects_too_few_nodes() {
    // The Harary arm builds H(n, 4): below 5 nodes the binary must refuse
    // the option with one `error:` line instead of panicking in the builder.
    let (name, exe) = bin!("ablation_connectivity");
    for nodes in ["4", "3"] {
        let output = Command::new(exe)
            .args(["--nodes", nodes, "--runs", "2"])
            .output()
            .unwrap_or_else(|e| panic!("{name}: cannot run {exe}: {e}"));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{name} --nodes {nodes} ran");
        assert!(
            stderr.lines().any(|line| line.starts_with("error:")),
            "{name} --nodes {nodes}: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{name} --nodes {nodes}: {stderr}"
        );
    }
}

#[test]
fn figures_reject_node_counts_past_the_dense_index_range() {
    // Dense node slots are `u32`: a population of 2^32 must end in one
    // `error:` line before anything is sized by it, not in an abort on a
    // 32 GiB allocation.
    let (name, exe) = bin!("fig06_static_effectiveness");
    let output = Command::new(exe)
        .args(["--nodes", "4294967296", "--runs", "1", "--fanouts", "1"])
        .output()
        .unwrap_or_else(|e| panic!("{name}: cannot run {exe}: {e}"));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{name} ran: {stderr}");
    assert_eq!(
        stderr
            .lines()
            .filter(|line| line.starts_with("error:"))
            .count(),
        1,
        "{name}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    assert!(!stderr.contains("memory allocation"), "{name}: {stderr}");
}

#[test]
fn figures_reject_thread_counts_past_the_fixed_bound() {
    // `--threads` sizes the worker pools: a value past 1024 must end in one
    // `error:` line before any worker starts. `--nodes 10 --runs 1` keeps
    // even a missing check down to a handful of threads.
    let (name, exe) = bin!("fig06_static_effectiveness");
    let output = Command::new(exe)
        .args([
            "--nodes",
            "10",
            "--runs",
            "1",
            "--fanouts",
            "1",
            "--threads",
            "1025",
        ])
        .output()
        .unwrap_or_else(|e| panic!("{name}: cannot run {exe}: {e}"));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{name} ran: {stderr}");
    assert_eq!(
        stderr
            .lines()
            .filter(|line| line.starts_with("error:"))
            .count(),
        1,
        "{name}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{name}: {stderr}");
}

#[test]
fn scale_smoke_rejects_a_gossip_period_past_the_fixed_bound() {
    // Per-node mode keeps one timer bucket per period unit: a period past
    // 65,536 must end in one `error:` line before the bucket ring is
    // sized, not in a `capacity overflow` panic or a huge allocation.
    let (name, exe) = bin!("scale_smoke");
    for period in ["65537", "18446744073709551615"] {
        let output = Command::new(exe)
            .args(["--nodes", "10", "--cycles", "1", "--rng", "per-node"])
            .args(["--threads", "1", "--gossip-period", period])
            .output()
            .unwrap_or_else(|e| panic!("{name}: cannot run {exe}: {e}"));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            !output.status.success(),
            "{name} --gossip-period {period} ran"
        );
        assert_eq!(
            stderr
                .lines()
                .filter(|line| line.starts_with("error:"))
                .count(),
            1,
            "{name} --gossip-period {period}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}

#[test]
fn async_ablation_rejects_ratios_that_overflow_the_delay() {
    // `--ratios` accepts any finite ratio, but the delay is the ratio times
    // the gossip period: 1e308 of them is infinite and must end in one
    // `error:` line before any overlay is built.
    let (name, exe) = bin!("ablation_async_latency");
    let output = Command::new(exe)
        .args(["--nodes", "200", "--runs", "2", "--ratios", "1e308"])
        .output()
        .unwrap_or_else(|e| panic!("{name}: cannot run {exe}: {e}"));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{name} ran: {stderr}");
    assert_eq!(
        stderr
            .lines()
            .filter(|line| line.starts_with("error:"))
            .count(),
        1,
        "{name}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{name}: {stderr}");
}

#[test]
fn async_ablation_row_labels_fit_their_column() {
    // `Display` spells 1e307 with 308 digits and 1e-300 with 302; the
    // label falls back to an exponent form, rounded when even that is too
    // long, so every row keeps the table's columns.
    let (name, exe) = bin!("ablation_async_latency");
    let ratios = "0.5,1e307,1e-300,1.2345678901234567e-300";
    let output = run(
        name,
        exe,
        &["--nodes", "200", "--runs", "2", "--ratios", ratios],
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let labels: Vec<&str> = stdout
        .lines()
        .skip(1)
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    assert_eq!(
        labels,
        ["0.5", "1e307", "1e-300", "1.23456789012e-300"],
        "{stdout}"
    );
    assert!(labels.iter().all(|label| label.len() <= 18), "{stdout}");
}
