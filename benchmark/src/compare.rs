//! `--compare old.json new.json`: per-metric deltas between two result
//! files of the matrix run, judged against the bounds `BENCHMARK.json`
//! fixes (ROADMAP item 1's `perf_report --compare`).

use serde::Value;

use crate::json::{as_f64, at, get};

/// `setup_s` is allowed to worsen by its relative bound **or** by this many
/// seconds, whichever is larger: most workloads set up in well under a
/// second, where a relative bound alone would flag scheduler noise.
pub const SETUP_ABS_FLOOR_S: f64 = 0.25;

/// Median and range of one metric over a result file's repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// Median over the repeats.
    pub median: f64,
    /// Smallest repeat.
    pub min: f64,
    /// Largest repeat.
    pub max: f64,
}

/// Outcome of comparing one end-to-end metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is within the bound of the old one.
    Within,
    /// Better by more than the bound (or every new run beats every old one).
    Improved,
    /// Worse by more than the bound (and the absolute floor, if any).
    Regressed,
    /// Not worse beyond the bound, but the run-to-run spread is wider than
    /// the bound, so "unchanged" cannot be claimed.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `old`. Returns the share of the old median by which
/// the metric got worse (negative: better) and the verdict.
pub fn judge(
    lower_is_better: bool,
    bound: f64,
    abs_floor: f64,
    old: Side,
    new: Side,
) -> (f64, Verdict) {
    let worse_by = if lower_is_better {
        new.median - old.median
    } else {
        old.median - new.median
    };
    let worse_frac = worse_by / old.median;
    if worse_by > (bound * old.median).max(abs_floor) {
        return (worse_frac, Verdict::Regressed);
    }
    let every_new_run_better = if lower_is_better {
        new.max < old.min
    } else {
        new.min > old.max
    };
    let spread = |s: Side| (s.max - s.min) / s.median;
    let verdict = if every_new_run_better && worse_frac < 0.0 {
        Verdict::Improved
    } else if spread(old).max(spread(new)) > bound {
        Verdict::Unresolved
    } else if worse_frac < -bound {
        Verdict::Improved
    } else {
        Verdict::Within
    };
    (worse_frac, verdict)
}

fn side(metric: &Value) -> Option<Side> {
    Some(Side {
        median: as_f64(get(metric, "median")?)?,
        min: as_f64(get(metric, "min")?)?,
        max: as_f64(get(metric, "max")?)?,
    })
}

/// Prints the comparison; returns `Ok(true)` if nothing regressed.
///
/// # Errors
///
/// Returns an error if a file lacks the expected structure.
pub fn compare(benchmark: &Value, old: &Value, new: &Value) -> Result<bool, String> {
    let end_to_end = get(benchmark, "end_to_end")
        .and_then(Value::as_seq)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads = get(old, "workloads")
        .and_then(Value::as_map)
        .ok_or("old result has no workloads")?;
    if get(old, "smoke") != get(new, "smoke") || get(old, "seed") != get(new, "seed") {
        return Err("the two results differ in scale (--smoke) or seed: not comparable".into());
    }
    let mut clean = true;
    for (workload, old_w) in workloads {
        let Some(new_w) = at(new, &["workloads", workload]) else {
            println!("{workload}: missing from the new result");
            clean = false;
            continue;
        };
        println!("{workload}");
        for def in end_to_end {
            let text = |key| get(def, key).and_then(crate::json::as_str);
            let (Some(name), Some(better)) = (text("name"), text("better")) else {
                return Err("malformed end_to_end entry in BENCHMARK.json".into());
            };
            let bound = get(def, "bound")
                .and_then(as_f64)
                .ok_or("metric without bound")?;
            let sides = (
                at(old_w, &["end_to_end", name]).and_then(side),
                at(new_w, &["end_to_end", name]).and_then(side),
            );
            let (Some(o), Some(n)) = sides else {
                return Err(format!("{workload}: {name} missing from a result file"));
            };
            let floor = if name == "setup_s" {
                SETUP_ABS_FLOOR_S
            } else {
                0.0
            };
            let (worse, verdict) = judge(better == "lower", bound, floor, o, n);
            clean &= verdict != Verdict::Regressed;
            println!(
                "  {name:<18} {:>14.6} -> {:>14.6} {:<5} {:>+8.2}% worse (bound {:.0}%)  {}",
                o.median,
                n.median,
                text("unit").unwrap_or(""),
                worse * 100.0,
                bound * 100.0,
                verdict.label()
            );
        }
        // Per-layer numbers carry no bound: deltas only, to show where an
        // end-to-end change comes from.
        let layers = get(old_w, "per_layer").and_then(Value::as_map);
        for (name, old_m) in layers.into_iter().flatten() {
            let value = |m: &Value| get(m, "value").and_then(as_f64);
            let (Some(o), Some(n)) = (
                value(old_m),
                at(new_w, &["per_layer", name]).and_then(value),
            ) else {
                continue;
            };
            if o == 0.0 && n == 0.0 {
                continue;
            }
            let delta = if o != 0.0 { (n - o) / o * 100.0 } else { 0.0 };
            println!("    {name:<38} {o:>16.6} -> {n:>16.6}  {delta:>+8.2}%");
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(value: f64) -> Side {
        Side {
            median: value,
            min: value * 0.99,
            max: value * 1.01,
        }
    }

    #[test]
    fn lower_is_better_metrics_regress_past_the_bound_only() {
        let (worse, v) = judge(true, 0.10, 0.0, flat(10.0), flat(10.9));
        assert!((worse - 0.09).abs() < 1e-12);
        assert_eq!(v, Verdict::Within);
        assert_eq!(
            judge(true, 0.10, 0.0, flat(10.0), flat(11.2)).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(true, 0.10, 0.0, flat(10.0), flat(8.0)).1,
            Verdict::Improved
        );
    }

    #[test]
    fn higher_is_better_metrics_flip_the_direction() {
        assert_eq!(
            judge(false, 0.10, 0.0, flat(100.0), flat(85.0)).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(false, 0.10, 0.0, flat(100.0), flat(120.0)).1,
            Verdict::Improved
        );
        assert_eq!(
            judge(false, 0.10, 0.0, flat(100.0), flat(95.0)).1,
            Verdict::Within
        );
    }

    #[test]
    fn setup_has_an_absolute_floor_under_its_relative_bound() {
        // 0.30 s -> 0.45 s is +50 %, but only 0.15 s: under the 0.25 s floor.
        let v = judge(true, 0.25, SETUP_ABS_FLOOR_S, flat(0.30), flat(0.45)).1;
        assert_eq!(v, Verdict::Within, "worse, but inside the absolute floor");
        // 0.30 s -> 0.60 s exceeds both the bound and the floor.
        let v = judge(true, 0.25, SETUP_ABS_FLOOR_S, flat(0.30), flat(0.60)).1;
        assert_eq!(v, Verdict::Regressed);
        // For a long set-up the relative bound is the larger allowance:
        // 5.5 s may worsen by 1.375 s.
        let v = judge(true, 0.25, SETUP_ABS_FLOOR_S, flat(5.5), flat(6.5)).1;
        assert_eq!(v, Verdict::Within);
        let v = judge(true, 0.25, SETUP_ABS_FLOOR_S, flat(5.5), flat(7.0)).1;
        assert_eq!(v, Verdict::Regressed);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_new_run_wins() {
        let noisy = |median: f64| Side {
            median,
            min: median * 0.9,
            max: median * 1.1,
        };
        // Medians equal, but a 20 % spread cannot support "unchanged".
        assert_eq!(
            judge(true, 0.10, 0.0, noisy(10.0), noisy(10.0)).1,
            Verdict::Unresolved
        );
        // Every new run (max 7.7) beats every old run (min 9.0).
        assert_eq!(
            judge(true, 0.10, 0.0, noisy(10.0), noisy(7.0)).1,
            Verdict::Improved
        );
    }
}
