//! Small statistics helpers: medians, the percentile selection rule and the
//! FNV-1a result digest.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of zero samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// A timing summarised the way the benchmark reports every distribution:
/// the median, and the highest percentile that still has at least ten
/// samples beyond it, with the sample count stated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Distribution {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Largest sample.
    pub max: f64,
    /// `(percentile, value)` of the highest percentile with at least ten
    /// samples beyond it; `None` when no percentile above the median
    /// qualifies (fewer than 21 samples).
    pub hi: Option<(f64, f64)>,
}

impl Distribution {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let hi = high_percentile_index(n).map(|i| ((i + 1) as f64 * 100.0 / n as f64, sorted[i]));
        Some(Distribution {
            n,
            p50: median(&sorted),
            max: sorted[n - 1],
            hi,
        })
    }

    /// The value the `*_hi` metrics report: the qualifying high percentile,
    /// or the median when the sample is too small to have one.
    pub fn hi_value(&self) -> f64 {
        self.hi.map_or(self.p50, |(_, v)| v)
    }

    /// `"n=100 p90"`-style label printed beside the `*_hi` metrics.
    pub fn hi_label(&self) -> String {
        match self.hi {
            Some((p, _)) => format!("n={} p{:.1}", self.n, p),
            None => format!("n={} (<21 samples: median reported)", self.n),
        }
    }
}

/// Index (into the ascending sample) of the highest percentile that has at
/// least ten samples strictly beyond it and lies above the median.
pub fn high_percentile_index(n: usize) -> Option<usize> {
    // Index i has n - 1 - i samples beyond it; need >= 10, so i <= n - 11.
    let i = n.checked_sub(11)?;
    (i > (n - 1) / 2).then_some(i)
}

/// Incremental FNV-1a-64, the digest every workload's checked output is
/// reduced to.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds raw bytes into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer (little-endian bytes).
    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a-64 of a rendered text.
pub fn fnv_text(text: &str) -> u64 {
    let mut h = Fnv::default();
    h.bytes(text.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // Fewer than 21 samples: nothing above the median has ten beyond it.
        assert_eq!(high_percentile_index(0), None);
        assert_eq!(high_percentile_index(10), None);
        assert_eq!(high_percentile_index(20), None);
        // 21 samples: index 10 is the median itself -> still none.
        assert_eq!(high_percentile_index(21), None);
        assert_eq!(high_percentile_index(22), Some(11));
        // 40 samples -> the 30th value (p75); 100 -> p90; 1000 -> p99.
        assert_eq!(high_percentile_index(40), Some(29));
        assert_eq!(high_percentile_index(100), Some(89));
        assert_eq!(high_percentile_index(1000), Some(989));
    }

    #[test]
    fn distribution_reports_count_and_percentile() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let d = Distribution::of(&samples).unwrap();
        assert_eq!(d.n, 100);
        assert_eq!(d.p50, 50.5);
        assert_eq!(d.max, 100.0);
        assert_eq!(d.hi, Some((90.0, 90.0)));
        assert_eq!(d.hi_label(), "n=100 p90.0");

        let small = Distribution::of(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!(small.hi, None);
        assert_eq!(small.hi_value(), 3.0, "falls back to the median");
        assert!(Distribution::of(&[]).is_none());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Reference vectors of FNV-1a-64.
        assert_eq!(fnv_text(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv_text("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv_text("foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv::default();
        h.u64(1);
        let mut g = Fnv::default();
        g.bytes(&[1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(h.finish(), g.finish());
    }
}
