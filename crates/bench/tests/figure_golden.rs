//! Golden fixture pinning every figure function's output at a tiny scale.
//!
//! Each figure is a pure function of [`ExperimentParams`], so its whole
//! result — every `f64` included — is frozen here as one FNV-1a-64 digest
//! of its `Debug` rendering. Rust prints an `f64` as the shortest decimal
//! that parses back to the same bits, so two results share a digest only
//! if they agree bit for bit; a failing assertion prints the full result
//! so the shift can be inspected.
//!
//! Every figure is asserted at `threads` 1 and 4 (the thread count decides
//! wall-clock time, never data). The sweeps that accept a probe are also
//! asserted through their `_probed` entry point with the inert
//! [`NullProbe`] and with a recording [`VecProbe`], whose event stream
//! must carry one `Section` per configuration and one `RunStart` per run.
//!
//! The digests were produced by this code base; they are a regression
//! fence, not an external ground truth. If an intentional engine change
//! shifts one, re-run the failing test, verify the printed result is
//! expected, and update the constant.

use std::collections::BTreeMap;
use std::fmt::Debug;

use hybridcast_bench::figures;
use hybridcast_bench::scenario::{EngineKind, ExperimentParams};
use hybridcast_obs::{NullProbe, StageProfiler, TraceEvent, VecProbe};
use hybridcast_sim::churn::{lifetime_histogram, ChurnConfig, ChurnDriver};

fn params(threads: usize) -> ExperimentParams {
    ExperimentParams {
        nodes: 160,
        runs: 6,
        warmup_cycles: 50,
        fanouts: vec![2, 3],
        seed: 7,
        churn_rate: 0.02,
        churn_max_cycles: 400,
        engine: EngineKind::Dense,
        threads,
        rng: hybridcast_sim::RngMode::Shared,
        quiet: true,
    }
}

fn assert_golden<T: Debug>(what: &str, value: &T, golden: u64) {
    let text = format!("{value:?}");
    let digest = text.bytes().fold(0xCBF2_9CE4_8422_2325u64, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    });
    assert_eq!(
        digest, golden,
        "{what} drifted: digest {digest:#018X}, result {text}"
    );
}

/// Asserts `figure` against `golden` at 1 and 4 worker threads.
fn assert_thread_invariant_golden<T: Debug>(
    what: &str,
    golden: u64,
    figure: impl Fn(&ExperimentParams) -> T,
) {
    for threads in [1, 4] {
        assert_golden(
            &format!("{what} (threads {threads})"),
            &figure(&params(threads)),
            golden,
        );
    }
}

/// Asserts a probed effectiveness sweep against `golden` with the inert
/// probe and with a recording one, and checks the recorded stream's shape.
fn assert_probed_golden<T: Debug>(
    what: &str,
    golden: u64,
    figure: impl Fn(&ExperimentParams, &mut dyn hybridcast_obs::Probe, &mut StageProfiler) -> T,
) {
    let params = params(2);
    let inert = figure(&params, &mut NullProbe, &mut StageProfiler::new());
    assert_golden(&format!("{what} (NullProbe)"), &inert, golden);

    let mut probe = VecProbe::new();
    let traced = figure(&params, &mut probe, &mut StageProfiler::new());
    assert_golden(&format!("{what} (VecProbe)"), &traced, golden);
    let count = |wanted: fn(&TraceEvent) -> bool| probe.events.iter().filter(|e| wanted(e)).count();
    let sections = count(|e| matches!(e, TraceEvent::Section { .. }));
    assert_eq!(sections, params.fanouts.len() * 2, "{what}: sections");
    assert_eq!(
        count(|e| matches!(e, TraceEvent::RunStart { .. })),
        sections * params.runs,
        "{what}: runs"
    );
}

const STATIC_EFFECTIVENESS: u64 = 0x42C3_4FB4_5D82_9449;
const CHURN_EFFECTIVENESS: u64 = 0x3BBF_42FA_F1B6_C936;

#[test]
fn static_effectiveness_is_pinned() {
    assert_thread_invariant_golden(
        "static_effectiveness",
        STATIC_EFFECTIVENESS,
        figures::static_effectiveness,
    );
    assert_probed_golden(
        "static_effectiveness_probed",
        STATIC_EFFECTIVENESS,
        |params, mut probe, profiler| {
            figures::static_effectiveness_probed(params, &mut probe, profiler)
        },
    );
}

#[test]
fn churn_effectiveness_is_pinned() {
    assert_thread_invariant_golden(
        "churn_effectiveness",
        CHURN_EFFECTIVENESS,
        figures::churn_effectiveness,
    );
    assert_probed_golden(
        "churn_effectiveness_probed",
        CHURN_EFFECTIVENESS,
        |params, mut probe, profiler| {
            figures::churn_effectiveness_probed(params, &mut probe, profiler)
        },
    );
}

#[test]
fn progress_and_catastrophic_figures_are_pinned() {
    assert_thread_invariant_golden("static_progress", 0x13C8_8BBC_A9A0_4602, |p| {
        figures::static_progress(p, &[3])
    });
    assert_thread_invariant_golden("catastrophic_effectiveness", 0x572E_47D0_D07E_5948, |p| {
        figures::catastrophic_effectiveness(p, &[0.05])
    });
    assert_thread_invariant_golden("catastrophic_progress", 0xD0B0_DC45_BAD3_E509, |p| {
        figures::catastrophic_progress(p, 0.05, &[3])
    });
}

/// Figure 9 applies every failure fraction to the same seeded overlay, so a
/// sweep over several fractions is the single-fraction sweeps side by side.
#[test]
fn catastrophic_fractions_are_independent_of_each_other() {
    let p = params(2);
    let both = figures::catastrophic_effectiveness(&p, &[0.05, 0.10]);
    let mut one_by_one = figures::catastrophic_effectiveness(&p, &[0.05]);
    one_by_one.extend(figures::catastrophic_effectiveness(&p, &[0.10]));
    assert_eq!(both, one_by_one);
    assert_eq!(both[1].1.rows[0].population, 144, "10% of 160 failed");
}

/// Figure 12 is the lifetime histogram of the churn runtime itself, summed
/// over the repeats' seeds (`seed`, `seed + 1`, ...).
#[test]
fn lifetime_distribution_sums_the_runtimes_own_histograms() {
    let p = params(2);
    let mut expected: BTreeMap<u64, usize> = BTreeMap::new();
    for repeat in 0..2 {
        let seeded = ExperimentParams {
            seed: p.seed + repeat,
            ..p.clone()
        };
        let mut network = seeded.dense_network(seeded.sim_config());
        ChurnDriver::new(ChurnConfig { rate: p.churn_rate })
            .run_until_all_replaced(&mut network, p.churn_max_cycles);
        for (lifetime, count) in lifetime_histogram(&network) {
            *expected.entry(lifetime).or_insert(0) += count;
        }
    }
    assert_eq!(figures::lifetime_distribution(&p, 2).counts, expected);
}

#[test]
fn churn_lifetime_figures_are_pinned() {
    assert_thread_invariant_golden("lifetime_distribution", 0x59B2_0B94_1CB8_E14F, |p| {
        figures::lifetime_distribution(p, 2)
    });
    assert_thread_invariant_golden("miss_lifetimes", 0x267D_66A5_83F1_5F53, |p| {
        figures::miss_lifetimes(p, &[2])
    });
}

#[test]
fn push_pull_extension_is_pinned() {
    assert_thread_invariant_golden(
        "push_pull_extension (failure-free)",
        0xB77B_B4C1_7AF3_DF51,
        |p| figures::push_pull_extension(p, 0.0),
    );
    assert_thread_invariant_golden(
        "push_pull_extension (5% failed)",
        0x9C73_44DB_961E_E213,
        |p| figures::push_pull_extension(p, 0.05),
    );
}

#[test]
fn latency_ablation_is_pinned_frozen_and_live() {
    assert_thread_invariant_golden("latency_ablation", 0x33C8_0D57_B7A3_8854, |p| {
        figures::latency_ablation(p, &[0.1, 3.0])
    });
    // The live arm is sequential by construction: one thread count suffices.
    let live = ExperimentParams {
        runs: 2,
        ..params(1)
    };
    assert_golden(
        "live_latency_ablation",
        &figures::live_latency_ablation(&live, &[0.5, 2.0]),
        0x356E_92E5_5783_070D,
    );
}

#[test]
fn membership_ablations_are_pinned() {
    assert_thread_invariant_golden("frozen_overlay_ablation", 0x501B_5417_61B4_53D9, |p| {
        figures::frozen_overlay_ablation(p, &[0, 10, 25])
    });
    assert_thread_invariant_golden("connectivity_ablation", 0xB821_EF1B_BB72_FF04, |p| {
        figures::connectivity_ablation(p, 0.05)
    });
    assert_thread_invariant_golden("view_length_ablation", 0x82AC_F626_980F_89B2, |p| {
        figures::view_length_ablation(p, &[5, 20], 2)
    });
}
