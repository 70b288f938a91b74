//! Two-sample Kolmogorov–Smirnov test.
//!
//! Used exactly as in §4 of the paper: the access-delay sample of each
//! probe-packet index is compared against the steady-state sample (the
//! delays of the last packets of long trains). Per the paper's footnote
//! 2, one of the two empirical discrete distributions is converted to a
//! continuous one by linear interpolation before computing the
//! statistic; the 95 % critical value is
//! `c(α)·√((n+m)/(n·m))` with `c(0.05) = 1.358`.
//!
//! A profile tests many samples (one per packet index) against one
//! reference, so [`KsReference`] sorts the reference once and each
//! [`KsReference::test`] sorts only its sample, then computes the
//! statistic in one forward walk over both sorted samples.
//! [`ks_statistic`], which evaluates each ECDF by binary search, is the
//! definition the walk is tested against, bit for bit.

use crate::ecdf::{interpolated_at, Ecdf};

/// Result of a two-sample KS comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsOutcome {
    /// The KS statistic `sup |F₁ − F₂|`.
    pub statistic: f64,
    /// The critical value at the requested significance.
    pub threshold: f64,
    /// Whether the null hypothesis (same distribution) is rejected,
    /// i.e. `statistic > threshold`.
    pub reject: bool,
}

/// `c(α)` coefficients for the large-sample two-sample KS critical
/// value. Values from the NIST/SEMATECH handbook the paper cites.
pub fn ks_coefficient(alpha: f64) -> f64 {
    // Exact inversion of the Kolmogorov distribution tail:
    // c(α) = sqrt(-ln(α/2) / 2).
    debug_assert!(alpha > 0.0 && alpha < 1.0);
    (-(alpha / 2.0).ln() / 2.0).sqrt()
}

/// The large-sample critical value `c(α)·√((n+m)/(n·m))`.
pub fn ks_critical_value(n: usize, m: usize, alpha: f64) -> f64 {
    debug_assert!(n > 0 && m > 0);
    ks_coefficient(alpha) * ((n + m) as f64 / (n as f64 * m as f64)).sqrt()
}

/// Two-sample KS statistic between `sample` (step ECDF) and `reference`
/// (linearly interpolated ECDF), evaluated at the observation points of
/// both samples including left limits at the step discontinuities.
///
/// The reference implementation: two binary searches per evaluation
/// point. The program goes through [`KsReference`], which must return
/// the same bits.
pub fn ks_statistic(sample: &Ecdf, reference: &Ecdf) -> f64 {
    let mut sup: f64 = 0.0;
    let n = sample.len() as f64;
    // At each of the sample's jump points evaluate both the pre-jump
    // and post-jump difference.
    for (i, &x) in sample.values().iter().enumerate() {
        let f_ref = reference.eval_interpolated(x);
        let f_post = sample.eval(x);
        let f_pre = i as f64 / n; // left limit of the step function
        sup = sup.max((f_post - f_ref).abs());
        sup = sup.max((f_pre - f_ref).abs());
    }
    // The interpolated ECDF has kinks at the reference's points;
    // evaluate there too.
    for &x in reference.values() {
        let f_ref = reference.eval_interpolated(x);
        let f_s = sample.eval(x);
        sup = sup.max((f_s - f_ref).abs());
    }
    sup
}

/// Run the full two-sample KS comparison at significance `alpha`
/// (0.05 for the paper's 95 % confidence threshold).
///
/// `sample` is tested against `reference`; the reference ECDF is the
/// linearly-interpolated one, per the paper's methodology. To test
/// several samples against one reference, build a [`KsReference`] once.
pub fn two_sample_ks(sample: &[f64], reference: &[f64], alpha: f64) -> KsOutcome {
    KsReference::new(reference).test(sample, alpha)
}

/// A KS reference sample, sorted once, to test any number of samples
/// against (the steady-state pool of a per-index KS profile).
#[derive(Debug, Clone)]
pub struct KsReference {
    sorted: Ecdf,
}

impl KsReference {
    /// Sort `reference`. Panics if it is empty or contains NaN.
    pub fn new(reference: &[f64]) -> Self {
        KsReference {
            sorted: Ecdf::new(reference.to_vec()),
        }
    }

    /// [`two_sample_ks`] of `sample` against this reference: the same
    /// outcome, bit for bit. Panics if `sample` is empty or contains
    /// NaN.
    pub fn test(&self, sample: &[f64], alpha: f64) -> KsOutcome {
        let s = Ecdf::new(sample.to_vec());
        let statistic = self.statistic(s.values());
        let threshold = ks_critical_value(s.len(), self.sorted.len(), alpha);
        KsOutcome {
            statistic,
            threshold,
            reject: statistic > threshold,
        }
    }

    /// [`ks_statistic`] of the sorted sample `s`, in one forward walk.
    ///
    /// It visits the points in the order [`ks_statistic`] does: the
    /// sample's (ascending), then the reference's (ascending). So the
    /// counts `#{r ≤ x}` and `#{s ≤ x}` the ECDFs need can come from
    /// cursors that only move forward instead of binary searches; they
    /// stop at the same indices as `partition_point(|v| v <= x)`, so
    /// every evaluated `f64` is the same.
    fn statistic(&self, s: &[f64]) -> f64 {
        // Advance `k` past every value of `v` at or below `x`.
        fn count_to(v: &[f64], k: &mut usize, x: f64) -> usize {
            while *k < v.len() && v[*k] <= x {
                *k += 1;
            }
            *k
        }
        let r = self.sorted.values();
        let nf = s.len() as f64;
        let mut sup: f64 = 0.0;
        let (mut kr, mut ks) = (0, 0);
        for (i, &x) in s.iter().enumerate() {
            let f_ref = interpolated_at(r, count_to(r, &mut kr, x), x);
            let f_post = count_to(s, &mut ks, x) as f64 / nf;
            let f_pre = i as f64 / nf; // left limit of the step function
            sup = sup.max((f_post - f_ref).abs());
            sup = sup.max((f_pre - f_ref).abs());
        }
        let (mut kr, mut ks) = (0, 0);
        for &x in r {
            let f_ref = interpolated_at(r, count_to(r, &mut kr, x), x);
            let f_s = count_to(s, &mut ks, x) as f64 / nf;
            sup = sup.max((f_s - f_ref).abs());
        }
        sup
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// [`KsReference::test`] against the oracle: the statistic and the
    /// threshold bit for bit, and the verdict they give.
    fn assert_walk_is_oracle(sample: &[f64], reference: &[f64]) {
        let walked = KsReference::new(reference).test(sample, 0.05);
        let statistic = ks_statistic(&Ecdf::new(sample.to_vec()), &Ecdf::new(reference.to_vec()));
        let threshold = ks_critical_value(sample.len(), reference.len(), 0.05);
        assert_eq!(
            walked.statistic.to_bits(),
            statistic.to_bits(),
            "statistic {} vs oracle {statistic} (n = {}, m = {})",
            walked.statistic,
            sample.len(),
            reference.len()
        );
        assert_eq!(walked.threshold.to_bits(), threshold.to_bits());
        assert_eq!(walked.reject, statistic > threshold);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // Values sit on a grid of `levels` points, so ties within and
        // across the samples are common (one level makes every value
        // equal); the sample's offset ranges from wholly below the
        // reference to wholly above it.
        #[test]
        fn walk_equals_ks_statistic_bit_for_bit(
            sample in prop::collection::vec(any::<u64>(), 1..301),
            reference in prop::collection::vec(any::<u64>(), 1..2001),
            levels in 1u64..600,
            offset in 0u64..2400,
        ) {
            let at = |v: &u64, shift: f64| (v % levels) as f64 * 0.25 + shift;
            let shift = (offset as f64 - 1200.0) * 0.25;
            let s: Vec<f64> = sample.iter().map(|v| at(v, shift)).collect();
            let r: Vec<f64> = reference.iter().map(|v| at(v, 0.0)).collect();
            assert_walk_is_oracle(&s, &r);
        }
    }

    #[test]
    fn walk_equals_ks_statistic_on_the_edges() {
        let grid = uniform_grid(200, 0.0, 1.0);
        let ties = [0.5, 0.25, 0.5, 0.75, 0.5, 0.25];
        let cases: [(&[f64], &[f64]); 9] = [
            (&[0.3], &grid),
            (&grid, &[0.3]),
            (&[0.3], &[0.3]),
            (&[0.3], &[0.7]),
            (&grid, &grid),
            (&ties, &ties),
            (&[-2.0, -1.0, -1.0], &grid),
            (&[5.0, 5.0, 6.0], &grid),
            (&[0.5; 7], &[0.5; 3]),
        ];
        for (sample, reference) in cases {
            assert_walk_is_oracle(sample, reference);
        }
    }

    fn uniform_grid(n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n)
            .map(|i| lo + (hi - lo) * (i as f64 + 0.5) / n as f64)
            .collect()
    }

    #[test]
    fn coefficient_reference_values() {
        // NIST table: c(0.10)=1.224, c(0.05)=1.358, c(0.01)=1.628.
        assert!((ks_coefficient(0.10) - 1.2238).abs() < 1e-3);
        assert!((ks_coefficient(0.05) - 1.3581).abs() < 1e-3);
        assert!((ks_coefficient(0.01) - 1.6276).abs() < 1e-3);
    }

    #[test]
    fn identical_samples_accept() {
        let xs = uniform_grid(500, 0.0, 1.0);
        let out = two_sample_ks(&xs, &xs, 0.05);
        // Statistic is not exactly 0 because one ECDF is interpolated,
        // but must be well below the threshold.
        assert!(!out.reject, "stat={} thr={}", out.statistic, out.threshold);
    }

    #[test]
    fn same_distribution_accepts() {
        // Two independent uniform samples.
        let mut state = 12345u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let a: Vec<f64> = (0..800).map(|_| next()).collect();
        let b: Vec<f64> = (0..800).map(|_| next()).collect();
        let out = two_sample_ks(&a, &b, 0.05);
        assert!(!out.reject, "stat={} thr={}", out.statistic, out.threshold);
    }

    #[test]
    fn shifted_distribution_rejects() {
        let a = uniform_grid(400, 0.0, 1.0);
        let b = uniform_grid(400, 0.5, 1.5);
        let out = two_sample_ks(&a, &b, 0.05);
        assert!(out.reject);
        // A shift of 0.5 on unit uniforms gives sup-difference ~0.5.
        assert!((out.statistic - 0.5).abs() < 0.05, "{}", out.statistic);
    }

    #[test]
    fn statistic_bounded_by_one() {
        let a = uniform_grid(100, 0.0, 1.0);
        let b = uniform_grid(100, 100.0, 101.0);
        let out = two_sample_ks(&a, &b, 0.05);
        assert!(out.statistic <= 1.0 + 1e-12);
        assert!(out.statistic > 0.99);
    }

    #[test]
    fn critical_value_shrinks_with_sample_size() {
        assert!(ks_critical_value(1000, 1000, 0.05) < ks_critical_value(100, 100, 0.05));
        // Symmetric in n and m.
        assert!(
            (ks_critical_value(50, 200, 0.05) - ks_critical_value(200, 50, 0.05)).abs() < 1e-15
        );
    }

    #[test]
    fn small_vs_large_reference() {
        // A tight cluster inside a wide reference must reject.
        let sample = vec![0.50, 0.51, 0.52, 0.49, 0.505, 0.495, 0.515, 0.485];
        let reference = uniform_grid(1000, 0.0, 1.0);
        let out = two_sample_ks(&sample, &reference, 0.05);
        assert!(out.reject);
    }
}
