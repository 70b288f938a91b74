//! Fixed-width histograms (used to reproduce Fig 7: access-delay
//! histograms of the first vs. the 500th probe packet).

/// A fixed-width histogram over `[lo, hi)` with values outside the
/// range clamped into the edge bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Create an empty histogram with `bins` equal-width bins over
    /// `[lo, hi)`. Panics unless `lo < hi` and `bins ≥ 1`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "invalid range [{lo}, {hi})");
        assert!(bins >= 1, "need at least one bin");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Insert one observation.
    pub fn add(&mut self, x: f64) {
        debug_assert!(!x.is_nan());
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        let idx = if x < self.lo {
            0
        } else {
            (((x - self.lo) / w) as usize).min(self.counts.len() - 1)
        };
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The centre of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + w * (i as f64 + 0.5)
    }

    /// `(bin_center, count)` rows — what the figure harness prints.
    pub fn rows(&self) -> Vec<(f64, u64)> {
        (0..self.counts.len())
            .map(|i| (self.bin_center(i), self.counts[i]))
            .collect()
    }

    /// Merge another histogram's counts into this one. Panics unless
    /// both share the same range and bin count (merging differently
    /// binned histograms has no meaningful result).
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.counts.len() == other.counts.len(),
            "merging histograms with different binning: [{}, {})/{} vs [{}, {})/{}",
            self.lo,
            self.hi,
            self.counts.len(),
            other.lo,
            other.hi,
            other.counts.len()
        );
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
    }

    /// The mode's bin centre (first maximal bin on ties).
    pub fn mode(&self) -> f64 {
        let (idx, _) = self
            .counts
            .iter()
            .enumerate()
            .max_by_key(|(i, &c)| (c, std::cmp::Reverse(*i)))
            .unwrap();
        self.bin_center(idx)
    }
}

impl crate::accumulate::Accumulate for Histogram {
    /// Exact: bin-wise count addition (same-binning histograms only).
    fn merge(&mut self, other: Self) {
        Histogram::merge(self, &other);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        a.add(1.0);
        b.add(1.5);
        b.add(9.0);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.counts()[0], 2);
        assert_eq!(a.counts()[4], 1);
    }

    #[test]
    #[should_panic(expected = "different binning")]
    fn merge_rejects_mismatched_bins() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let b = Histogram::new(0.0, 10.0, 6);
        a.merge(&b);
    }

    #[test]
    fn counts_land_in_right_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.5, 1.5, 1.7, 9.9] {
            h.add(x);
        }
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[1], 2);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn out_of_range_clamps() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(-5.0);
        h.add(99.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[3], 1);
    }

    #[test]
    fn bin_centers_are_centred() {
        let h = Histogram::new(0.0, 10.0, 5);
        assert!((h.bin_center(0) - 1.0).abs() < 1e-12);
        assert!((h.bin_center(4) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn mode_finds_heaviest_bin() {
        let mut h = Histogram::new(0.0, 3.0, 3);
        for _ in 0..5 {
            h.add(1.5);
        }
        h.add(0.5);
        assert!((h.mode() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rows_align_with_counts() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        h.add(0.1);
        h.add(1.9);
        h.add(1.5);
        let rows = h.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], (0.5, 1));
        assert_eq!(rows[1], (1.5, 2));
    }
}
