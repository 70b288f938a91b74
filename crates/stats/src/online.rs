//! Online (single-pass) moment accumulation.
//!
//! [`OnlineStats`] implements Welford's numerically stable streaming
//! mean/variance, plus min/max tracking, accumulator merging (for
//! combining per-thread partials), and a normal-theory 95% confidence
//! interval for the mean.

/// The two-sided 95% standard-normal quantile Φ⁻¹(0.975), frozen to
/// the bits Acklam's rational approximation gives it
/// (`0x3fff5c03325b95a6`), so `grid_bias`'s `ci95_mbps` column and
/// every session row's `ci95_bps` keep their bits.
const Z95: f64 = 1.959963986120195;

/// Streaming mean/variance/min/max accumulator (Welford).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Build an accumulator from a slice in one pass.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Add one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Merge another accumulator into this one (Chan et al. parallel
    /// update). The result is identical to having pushed both streams
    /// into a single accumulator, up to floating-point rounding.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    #[inline]
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    #[inline]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[inline]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    #[inline]
    pub fn std_err(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Smallest observation seen (`+inf` when empty).
    #[inline]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation seen (`-inf` when empty).
    #[inline]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Normal-theory 95% confidence half-width for the mean:
    /// Φ⁻¹(0.975) ≈ 1.96 standard errors (infinite with fewer than two
    /// observations).
    ///
    /// The normal quantile is accurate for the replication counts used
    /// throughout this workspace (hundreds to tens of thousands).
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            return f64::INFINITY;
        }
        Z95 * self.std_err()
    }
}

impl crate::accumulate::Accumulate for OnlineStats {
    /// Exact (up to floating-point rounding): Chan et al. parallel
    /// update, identical to pushing both streams into one accumulator.
    fn merge(&mut self, other: Self) {
        OnlineStats::merge(self, &other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.ci95_half_width().is_infinite());
    }

    #[test]
    fn mean_and_variance_match_two_pass() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = OnlineStats::from_slice(&xs);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_equals_single_stream() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 3.0 + 1.0).collect();
        let whole = OnlineStats::from_slice(&xs);
        let mut a = OnlineStats::from_slice(&xs[..313]);
        let b = OnlineStats::from_slice(&xs[313..]);
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let xs = [1.0, 2.0, 3.0];
        let mut a = OnlineStats::from_slice(&xs);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn ci95_is_z95_standard_errors() {
        // Acklam's Φ⁻¹(1 − (1 − 0.95)/2) to the bit: every ci95 value
        // in the payloads rests on it.
        assert_eq!(Z95.to_bits(), 0x3fff_5c03_325b_95a6);
        assert!((Z95 - 1.959964).abs() < 1e-6);
        let s = OnlineStats::from_slice(&[1.0, 2.5, 3.25, 7.0]);
        assert_eq!(s.ci95_half_width().to_bits(), (Z95 * s.std_err()).to_bits());
        assert_eq!(
            s.ci95_half_width().to_bits(),
            2.501474823426332f64.to_bits()
        );
        assert!(OnlineStats::from_slice(&[3.0])
            .ci95_half_width()
            .is_infinite());
    }

    #[test]
    fn ci_shrinks_with_n() {
        let mut small = OnlineStats::new();
        let mut large = OnlineStats::new();
        for i in 0..100 {
            small.push((i % 10) as f64);
        }
        for i in 0..10_000 {
            large.push((i % 10) as f64);
        }
        assert!(large.ci95_half_width() < small.ci95_half_width());
    }
}
