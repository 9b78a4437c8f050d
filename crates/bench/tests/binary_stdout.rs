//! Golden fixture pinning the **bytes every figure, ablation and extension
//! binary prints** at a tiny scale.
//!
//! `figure_golden.rs` pins what the figure functions return; this file pins
//! what reaches stdout once a binary has parsed its options, applied its own
//! defaults (fanouts, fractions, ratios, ...) and rendered the result. Each
//! binary runs as a child process at `--threads 1` and `--threads 4` and the
//! FNV-1a-64 digest of its stdout must equal the pinned one — "byte-identical
//! to the parent commit" as an assertion instead of a diff done by hand.
//!
//! The digests were produced by this code base; they are a regression
//! fence, not an external ground truth. If an intentional change shifts
//! one, run the binary with the arguments the failure prints, check the
//! output and update the constant.

use std::process::Command;

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

/// Runs the binary at [`SCALE`] plus `extra` and asserts the digest of its
/// stdout at 1 and at 4 worker threads.
fn assert_stdout((name, exe): (&str, &str), extra: &[&str], golden: u64) {
    for threads in ["1", "4"] {
        let output = Command::new(exe)
            .args(SCALE)
            .args(extra)
            .args(["--threads", threads])
            .output()
            .unwrap_or_else(|e| panic!("{name}: cannot run {exe}: {e}"));
        assert!(
            output.status.success(),
            "{name} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let digest = fnv1a(&output.stdout);
        assert_eq!(
            digest,
            golden,
            "{name} {} {} --threads {threads} drifted: digest {digest:#018X}, stdout:\n{}",
            SCALE.join(" "),
            extra.join(" "),
            String::from_utf8_lossy(&output.stdout)
        );
    }
}

#[test]
fn static_figures_print_pinned_bytes() {
    assert_stdout(
        bin!("fig06_static_effectiveness"),
        &[],
        0x2989_4EC5_6F2A_3FFE,
    );
    assert_stdout(bin!("fig07_static_progress"), &[], 0xB7B9_5FF8_1051_8ACE);
    assert_stdout(bin!("fig08_message_overhead"), &[], 0x7CAC_44EF_8F72_7169);
}

#[test]
fn catastrophic_figures_print_pinned_bytes() {
    // The default four fractions: one overlay, four failures.
    assert_stdout(
        bin!("fig09_catastrophic_effectiveness"),
        &[],
        0xABC4_730A_6A17_F9C2,
    );
    assert_stdout(
        bin!("fig10_catastrophic_progress"),
        &[],
        0x68F8_4C3C_8918_8327,
    );
}

#[test]
fn churn_figures_print_pinned_bytes() {
    assert_stdout(
        bin!("fig11_churn_effectiveness"),
        &[],
        0xCDEB_6CB3_FA35_71FE,
    );
    assert_stdout(
        bin!("fig12_lifetime_distribution"),
        &["--repeats", "2"],
        0x44A7_2DAE_1A5F_D9D7,
    );
    assert_stdout(bin!("fig13_miss_lifetimes"), &[], 0xC9EA_A633_2974_DCFF);
}

#[test]
fn ablations_print_pinned_bytes() {
    assert_stdout(bin!("ablation_frozen_overlay"), &[], 0x0E1C_915E_01FF_DFCA);
    assert_stdout(bin!("ablation_async_latency"), &[], 0xDDB2_2520_B51B_137F);
    assert_stdout(bin!("ablation_connectivity"), &[], 0x31E9_E1AC_1A0D_FBD8);
    assert_stdout(bin!("ablation_view_length"), &[], 0xAC5A_4673_5A6E_8495);
}

#[test]
fn extensions_print_pinned_bytes() {
    assert_stdout(bin!("ext_push_pull"), &[], 0xE06D_D789_8B9A_3BC4);
    assert_stdout(
        bin!("ext_push_pull"),
        &["--fraction", "0.05"],
        0xF54E_5F3B_24CA_013A,
    );
    assert_stdout(bin!("ext_adversarial"), &[], 0x6B68_762C_9321_3F1D);
}
