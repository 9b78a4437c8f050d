//! Golden tests pinning one `ext_adversarial` output row per sweep.
//!
//! The adversarial sweeps (`figures::adversarial_loss_sweep`,
//! `figures::adversarial_partition_sweep`) back the `ext_adversarial`
//! binary; every value they emit is a pure function of
//! [`ExperimentParams`]. These tests freeze one row per sweep at a small
//! scale so any change to the seeded run pipeline — overlay warm-up, RNG
//! draw order, loss/partition bookkeeping — shows up as an exact-value
//! diff instead of a silent drift in published figures.
//!
//! All comparisons are exact, floats included: the engines are bit-
//! deterministic per seed, so any deviation at all is a contract break.
//! (That the id-keyed oracle engines replay the same seeded runs bit for
//! bit is pinned by the dense-vs-frozen differentials in
//! `crates/core/tests/properties.rs`.)
//!
//! The pinned numbers were produced by this very code; they are a
//! regression fence, not an external ground truth. If an intentional
//! engine change shifts them, re-run the failing test with
//! `-- --nocapture`, verify the shift is expected, and update the
//! constants.

use hybridcast_bench::figures::{
    adversarial_loss_sweep, adversarial_partition_sweep, AdversarialLossRow,
    AdversarialPartitionRow,
};
use hybridcast_bench::scenario::{EngineKind, ExperimentParams};
use hybridcast_obs::{NullProbe, StageProfiler};

/// Small but non-trivial scale: enough nodes for the bisection to matter,
/// few enough runs to keep this in tier-1 time.
fn params() -> ExperimentParams {
    ExperimentParams {
        nodes: 300,
        runs: 3,
        warmup_cycles: 40,
        fanouts: vec![3],
        seed: 42,
        churn_rate: 0.0,
        churn_max_cycles: 0,
        engine: EngineKind::Dense,
        threads: 1,
        rng: hybridcast_sim::RngMode::Shared,
        quiet: true,
    }
}

/// The pinned loss-sweep row at IID loss rate 0.1.
fn golden_loss_row() -> AdversarialLossRow {
    AdversarialLossRow {
        loss_rate: 0.1,
        mean_hit_ratio: 0.998_888_888_888_888_8,
        mean_messages: 899.0,
        mean_dropped_loss: 81.0,
        completed_runs: 2,
        mean_completion_time: Some(8.945_205_976_470_163),
        runs: 3,
    }
}

/// The pinned partition-sweep row for a bisection of duration 4.0 starting
/// at t = 2.0.
fn golden_partition_row() -> AdversarialPartitionRow {
    AdversarialPartitionRow {
        duration: 4.0,
        mean_hit_ratio: 0.989_999_999_999_999_9,
        mean_dropped_partition: 122.0,
        recovered_runs: 3,
        mean_recovery_time: Some(15.751_258_368_224_967),
        runs: 3,
    }
}

#[test]
fn dense_loss_row_is_pinned() {
    let rows = adversarial_loss_sweep(&params(), &[0.1], &mut NullProbe, &mut StageProfiler::new());
    assert_eq!(rows.len(), 1);
    println!("loss row: {:?}", rows[0]);
    assert_eq!(rows[0], golden_loss_row(), "loss row drifted");
}

#[test]
fn dense_partition_row_is_pinned() {
    let rows = adversarial_partition_sweep(
        &params(),
        &[4.0],
        2.0,
        &mut NullProbe,
        &mut StageProfiler::new(),
    );
    assert_eq!(rows.len(), 1);
    println!("partition row: {:?}", rows[0]);
    assert_eq!(rows[0], golden_partition_row(), "partition row drifted");
}
