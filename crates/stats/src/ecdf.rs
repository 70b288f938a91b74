//! Empirical cumulative distribution functions.
//!
//! [`Ecdf`] supports both the classic right-continuous step evaluation
//! and a **linearly interpolated** evaluation. The paper's footnote 2
//! notes that when comparing two empirical discrete distributions with
//! the KS test, one of them is converted to a continuous one by linear
//! interpolation — [`Ecdf::eval_interpolated`] is that conversion.

/// An empirical CDF over a sorted sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from a sample (need not be sorted; NaNs are rejected).
    ///
    /// Panics if the sample is empty or contains NaN.
    pub fn new(mut sample: Vec<f64>) -> Self {
        assert!(!sample.is_empty(), "ECDF of an empty sample");
        assert!(
            sample.iter().all(|x| !x.is_nan()),
            "ECDF sample contains NaN"
        );
        sample.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Ecdf { sorted: sample }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false (construction rejects empty samples); present for
    /// API completeness.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted observations.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// Right-continuous step evaluation: `F(x) = #{X_i ≤ x} / n`.
    pub fn eval(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Linearly interpolated evaluation.
    ///
    /// The interpolation nodes are `(X_(k), k/n)` for the sorted sample
    /// `X_(1) ≤ … ≤ X_(n)`, with `F = 0` below `X_(1)`'s left
    /// neighbourhood: between consecutive distinct order statistics the
    /// CDF rises linearly instead of jumping. At and beyond `X_(n)` the
    /// value is 1; strictly below `X_(1)` it approaches `1/n` linearly
    /// from `(X_(0) := X_(1))`, i.e. evaluates to values in `(0, 1/n]`
    /// only at `X_(1)` itself (0 below).
    pub fn eval_interpolated(&self, x: f64) -> f64 {
        // Find the segment [X_(k), X_(k+1)) containing x (1-based k).
        let k = self.sorted.partition_point(|&v| v <= x); // #{X_i <= x}
        interpolated_at(&self.sorted, k, x)
    }

    /// The `p`-quantile by inverted step ECDF (type-1). `p` in `[0,1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile p={p}");
        let n = self.sorted.len();
        if p <= 0.0 {
            return self.sorted[0];
        }
        let k = ((p * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[k - 1]
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }
}

/// [`Ecdf::eval_interpolated`] over the sorted sample `sorted`, given
/// `k = #{X_i ≤ x}`. Callers that know `k` from a forward walk get the
/// same `f64` as the binary search, bit for bit.
pub(crate) fn interpolated_at(sorted: &[f64], k: usize, x: f64) -> f64 {
    let n = sorted.len();
    if x < sorted[0] {
        return 0.0;
    }
    if x >= sorted[n - 1] {
        return 1.0;
    }
    let x_k = sorted[k - 1];
    let x_next = sorted[k];
    let f_k = k as f64 / n as f64;
    let f_next = (k + 1) as f64 / n as f64;
    if x_next == x_k {
        return f_k;
    }
    f_k + (f_next - f_k) * (x - x_k) / (x_next - x_k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_eval_counts_correctly() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 2.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(1.5), 0.25);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(3.0), 1.0);
        assert_eq!(e.eval(99.0), 1.0);
    }

    #[test]
    fn interpolation_is_continuous_and_monotone() {
        let e = Ecdf::new(vec![0.0, 1.0, 2.0, 3.0]);
        // At the sample points: k/n.
        assert_eq!(e.eval_interpolated(0.0), 0.25);
        assert_eq!(e.eval_interpolated(1.0), 0.5);
        assert!((e.eval_interpolated(0.5) - 0.375).abs() < 1e-12);
        // Monotone on a fine grid.
        let mut prev = -1.0;
        for i in -10..50 {
            let x = i as f64 / 10.0;
            let f = e.eval_interpolated(x);
            assert!(f >= prev);
            assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
        assert_eq!(e.eval_interpolated(-0.1), 0.0);
        assert_eq!(e.eval_interpolated(3.0), 1.0);
        assert_eq!(e.eval_interpolated(10.0), 1.0);
    }

    #[test]
    fn interpolation_handles_ties() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 3.0]);
        // At x slightly above 2, F should be >= 0.75 (three obs <= 2).
        assert!(e.eval_interpolated(2.0) >= 0.74);
        assert!(e.eval_interpolated(2.5) > e.eval_interpolated(2.0));
    }

    #[test]
    fn quantiles() {
        let e = Ecdf::new(vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(e.quantile(0.0), 10.0);
        assert_eq!(e.quantile(0.25), 10.0);
        assert_eq!(e.quantile(0.5), 20.0);
        assert_eq!(e.quantile(0.75), 30.0);
        assert_eq!(e.quantile(1.0), 40.0);
    }

    #[test]
    fn mean_matches() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0]);
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        Ecdf::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_sample_panics() {
        Ecdf::new(vec![1.0, f64::NAN]);
    }
}
