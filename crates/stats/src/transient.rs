//! Per-packet-index statistics across replications and the
//! transient-length estimator of §4.1.
//!
//! The paper's Fig 6/8/9 machinery: run the same probing experiment
//! thousands of times, collect the access delay of the *i*-th packet of
//! every replication into sample *i*, and study how the per-index
//! distribution evolves toward steady state. [`IndexedSeries`] is that
//! collection; [`IndexedSeries::transient_length`] implements the §4.1
//! rule — "the first packet whose average access delay lays within
//! (tolerance) of the expected access delay in steady-state conditions".

use crate::ks::{KsOutcome, KsReference};
use crate::online::OnlineStats;
use crate::p2::P2Quantile;

/// Samples of some per-packet quantity (access delay, queue size, …)
/// indexed by position in the probing sequence, accumulated across
/// replications.
///
/// Optionally capped: [`IndexedSeries::with_cap`] bounds the samples
/// retained per index. When an index exceeds the cap it is decimated by
/// keeping every other sample (deterministic, unbiased for i.i.d.
/// replications), so memory stays O(indices × cap) at any replication
/// count.
#[derive(Debug, Clone)]
pub struct IndexedSeries {
    /// `samples[i]` holds the observations of packet index `i` (0-based)
    /// across replications.
    samples: Vec<Vec<f64>>,
    /// Maximum samples retained per index (`usize::MAX` = unbounded).
    cap: usize,
}

impl Default for IndexedSeries {
    fn default() -> Self {
        IndexedSeries {
            samples: Vec::new(),
            cap: usize::MAX,
        }
    }
}

/// Outcome of a transient-length estimation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientEstimate {
    /// First 0-based packet index whose mean is within tolerance of the
    /// steady-state mean (`None` when no index qualifies).
    pub first_within: Option<usize>,
    /// First 0-based index from which *all* later indices stay within
    /// tolerance (robust variant).
    pub first_sustained: Option<usize>,
    /// The steady-state mean the comparison used.
    pub steady_mean: f64,
}

impl IndexedSeries {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty collection retaining at most `cap` samples per index
    /// (the dense-path reservoir of the scenario engine). Panics when
    /// `cap == 0`.
    pub fn with_cap(cap: usize) -> Self {
        assert!(cap >= 1, "per-index cap must be at least 1");
        IndexedSeries {
            samples: Vec::new(),
            cap,
        }
    }

    /// The per-index retention cap (`usize::MAX` when unbounded).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Record one replication's trajectory: `values[i]` is the quantity
    /// observed for packet index `i` in this replication. Shorter
    /// trajectories are allowed (replications where fewer packets were
    /// observed).
    pub fn push_replication(&mut self, values: &[f64]) {
        if self.samples.len() < values.len() {
            self.samples.resize_with(values.len(), Vec::new);
        }
        for (i, &v) in values.iter().enumerate() {
            self.samples[i].push(v);
            decimate_to_cap(&mut self.samples[i], self.cap);
        }
    }

    /// Absorb another collection: index-wise sample concatenation
    /// (exact when uncapped; decimated deterministically when over the
    /// cap). Used by the scenario engine's chunk-ordered reduce — with
    /// chunks merged in replication order, the uncapped result is
    /// identical to sequential [`IndexedSeries::push_replication`]
    /// calls.
    pub fn merge(&mut self, mut other: IndexedSeries) {
        if self.samples.len() < other.samples.len() {
            self.samples.resize_with(other.samples.len(), Vec::new);
        }
        for (i, src) in other.samples.iter_mut().enumerate() {
            self.samples[i].append(src);
            decimate_to_cap(&mut self.samples[i], self.cap);
        }
    }

    /// Number of packet indices tracked.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no replication has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The observations recorded for packet index `i`.
    pub fn sample(&self, i: usize) -> &[f64] {
        &self.samples[i]
    }

    /// Per-index means.
    pub fn means(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| OnlineStats::from_slice(s).mean())
            .collect()
    }

    /// Per-index summary statistics.
    pub fn stats(&self) -> Vec<OnlineStats> {
        self.samples
            .iter()
            .map(|s| OnlineStats::from_slice(s))
            .collect()
    }

    /// Pool the observations of indices `[from, to)` into one sample —
    /// used for the paper's "steady-state distribution of the last 500
    /// probing packets".
    pub fn pooled(&self, from: usize, to: usize) -> Vec<f64> {
        let to = to.min(self.samples.len());
        let mut out = Vec::new();
        for i in from..to {
            out.extend_from_slice(&self.samples[i]);
        }
        out
    }

    /// KS-test every index against a reference sample (§4, Figs 8/9):
    /// returns one [`KsOutcome`] per index, comparing the per-index
    /// sample (step ECDF) with the reference (interpolated ECDF). The
    /// reference is sorted once for all indices.
    pub fn ks_profile(&self, reference: &[f64], alpha: f64) -> Vec<KsOutcome> {
        let reference = KsReference::new(reference);
        self.samples
            .iter()
            .map(|s| reference.test(s, alpha))
            .collect()
    }

    /// The §4.1 transient length: first index whose mean is within
    /// `tolerance` (relative) of `steady_mean`, plus the sustained
    /// variant (first index after which every index stays within).
    pub fn transient_length(&self, steady_mean: f64, tolerance: f64) -> TransientEstimate {
        let means = self.means();
        transient_length_of_means(&means, steady_mean, tolerance)
    }
}

impl crate::accumulate::Accumulate for IndexedSeries {
    fn merge(&mut self, other: Self) {
        IndexedSeries::merge(self, other);
    }
}

/// Deterministically thin `v` (keep every other sample) until it fits
/// `cap`. For i.i.d. replications this is an unbiased subsample: the
/// kept positions never depend on the values.
fn decimate_to_cap(v: &mut Vec<f64>, cap: usize) {
    while v.len() > cap {
        let mut keep = 0;
        for i in (0..v.len()).step_by(2) {
            v[keep] = v[i];
            keep += 1;
        }
        v.truncate(keep);
    }
}

/// Streaming per-packet-index moments across replications: the O(train
/// length) heart of the scenario engine's summary path. Where
/// [`IndexedSeries`] stores every observation, `IndexedStats` keeps one
/// [`OnlineStats`] per index — constant memory per index no matter the
/// replication count — and merges exactly (up to rounding) under the
/// chunk-ordered reduce.
#[derive(Debug, Clone, Default)]
pub struct IndexedStats {
    stats: Vec<OnlineStats>,
}

impl IndexedStats {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one replication's trajectory (shorter trajectories are
    /// allowed, as in [`IndexedSeries::push_replication`]).
    pub fn push_replication(&mut self, values: &[f64]) {
        if self.stats.len() < values.len() {
            self.stats.resize_with(values.len(), OnlineStats::new);
        }
        for (i, &v) in values.iter().enumerate() {
            self.stats[i].push(v);
        }
    }

    /// Record a single observation for packet index `i`.
    pub fn push(&mut self, i: usize, value: f64) {
        if self.stats.len() <= i {
            self.stats.resize_with(i + 1, OnlineStats::new);
        }
        self.stats[i].push(value);
    }

    /// Number of packet indices tracked.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// The accumulated moments of packet index `i`.
    pub fn stat(&self, i: usize) -> &OnlineStats {
        &self.stats[i]
    }

    /// All per-index accumulators.
    pub fn stats(&self) -> &[OnlineStats] {
        &self.stats
    }

    /// Per-index means.
    pub fn means(&self) -> Vec<f64> {
        self.stats.iter().map(|s| s.mean()).collect()
    }

    /// Pooled moments of indices `[from, to)` — e.g. the paper's
    /// "steady-state statistics over the last 500 packets" without
    /// holding the pooled sample.
    pub fn pooled_stats(&self, from: usize, to: usize) -> OnlineStats {
        let to = to.min(self.stats.len());
        let mut pooled = OnlineStats::new();
        for s in &self.stats[from..to] {
            pooled.merge(s);
        }
        pooled
    }

    /// Absorb another collection (index-wise [`OnlineStats`] merge).
    pub fn merge(&mut self, other: IndexedStats) {
        if self.stats.len() < other.stats.len() {
            self.stats.resize_with(other.stats.len(), OnlineStats::new);
        }
        for (i, s) in other.stats.iter().enumerate() {
            self.stats[i].merge(s);
        }
    }

    /// The §4.1 transient length against an explicit steady-state mean
    /// (relative tolerance), as in [`IndexedSeries::transient_length`].
    pub fn transient_length(&self, steady_mean: f64, tolerance: f64) -> TransientEstimate {
        transient_length_of_means(&self.means(), steady_mean, tolerance)
    }
}

impl crate::accumulate::Accumulate for IndexedStats {
    fn merge(&mut self, other: Self) {
        IndexedStats::merge(self, other);
    }
}

/// Streaming per-packet-index quantile estimates across replications:
/// one [`P2Quantile`] per index, O(1) memory per index no matter the
/// replication count — the tail-percentile companion of
/// [`IndexedStats`] (e.g. the p95 access delay per probe packet).
///
/// Merging is index-wise [`P2Quantile::merge`] — approximate by nature
/// (P² keeps five markers), but deterministic: under the engine's
/// chunk-ordered reduce the merged estimate is a pure function of the
/// replication set, bit-identical across worker counts.
#[derive(Debug, Clone)]
pub struct IndexedQuantile {
    p: f64,
    est: Vec<P2Quantile>,
}

impl IndexedQuantile {
    /// An empty collection estimating the `p`-quantile per index,
    /// `0 < p < 1`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "p = {p} out of (0,1)");
        IndexedQuantile { p, est: Vec::new() }
    }

    /// The quantile being estimated.
    pub fn quantile(&self) -> f64 {
        self.p
    }

    /// Record a single observation for packet index `i`.
    pub fn push(&mut self, i: usize, value: f64) {
        if self.est.len() <= i {
            let p = self.p;
            self.est.resize_with(i + 1, || P2Quantile::new(p));
        }
        self.est[i].push(value);
    }

    /// Record one replication's trajectory (shorter trajectories are
    /// allowed, as in [`IndexedSeries::push_replication`]).
    pub fn push_replication(&mut self, values: &[f64]) {
        for (i, &v) in values.iter().enumerate() {
            self.push(i, v);
        }
    }

    /// Number of packet indices tracked.
    pub fn len(&self) -> usize {
        self.est.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.est.is_empty()
    }

    /// The estimator of packet index `i`.
    pub fn estimator(&self, i: usize) -> &P2Quantile {
        &self.est[i]
    }

    /// Per-index quantile estimates (NaN for indices with no samples).
    pub fn values(&self) -> Vec<f64> {
        self.est.iter().map(|e| e.value()).collect()
    }

    /// Absorb another collection (index-wise [`P2Quantile`] merge).
    ///
    /// # Panics
    /// If the two collections estimate different quantiles.
    pub fn merge(&mut self, other: IndexedQuantile) {
        assert!(
            (self.p - other.p).abs() < 1e-12,
            "merging IndexedQuantile of different quantiles ({} vs {})",
            self.p,
            other.p
        );
        if self.est.len() < other.est.len() {
            let p = self.p;
            self.est.resize_with(other.est.len(), || P2Quantile::new(p));
        }
        for (i, e) in other.est.into_iter().enumerate() {
            self.est[i].merge(e);
        }
    }
}

impl crate::accumulate::Accumulate for IndexedQuantile {
    /// Approximate (index-wise P² marker merge); deterministic under
    /// the chunk-ordered reduce.
    fn merge(&mut self, other: Self) {
        IndexedQuantile::merge(self, other);
    }
}

/// Transient length from a pre-computed per-index mean profile.
///
/// `tolerance` is relative: index `i` is "converged" when
/// `|mean_i − steady| ≤ tolerance·steady` (for `steady > 0`; indices
/// with non-finite means never converge).
pub fn transient_length_of_means(
    means: &[f64],
    steady_mean: f64,
    tolerance: f64,
) -> TransientEstimate {
    debug_assert!(steady_mean > 0.0, "steady-state mean must be positive");
    transient_length_with(means, steady_mean, tolerance * steady_mean)
}

/// Transient length with an **absolute** tolerance (same unit as the
/// means): index `i` is "converged" when `|mean_i − steady| ≤ tol`.
///
/// The paper's Fig 10 tolerances ("0.1" and "0.01") are best read as
/// absolute milliseconds against millisecond-scale access delays; this
/// variant supports that reading directly.
pub fn transient_length_of_means_abs(
    means: &[f64],
    steady_mean: f64,
    tol_abs: f64,
) -> TransientEstimate {
    transient_length_with(means, steady_mean, tol_abs)
}

fn transient_length_with(means: &[f64], steady_mean: f64, band: f64) -> TransientEstimate {
    let within = |m: f64| m.is_finite() && (m - steady_mean).abs() <= band;
    let first_within = means.iter().position(|&m| within(m));
    // Scan backwards for the sustained point: the first index such that
    // all indices from it onward are within tolerance.
    let mut first_sustained = None;
    for i in (0..means.len()).rev() {
        if within(means[i]) {
            first_sustained = Some(i);
        } else {
            break;
        }
    }
    TransientEstimate {
        first_within,
        first_sustained,
        steady_mean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_series(reps: usize, n: usize, steady: f64) -> IndexedSeries {
        // Mean profile: steady * (1 - exp(-i/10)) plus small deterministic
        // wiggle per replication.
        let mut s = IndexedSeries::new();
        for r in 0..reps {
            let wiggle = (r as f64 * 0.37).sin() * 0.01 * steady;
            let traj: Vec<f64> = (0..n)
                .map(|i| steady * (1.0 - (-(i as f64) / 10.0).exp()) + wiggle)
                .collect();
            s.push_replication(&traj);
        }
        s
    }

    #[test]
    fn push_and_index() {
        let mut s = IndexedSeries::new();
        s.push_replication(&[1.0, 2.0, 3.0]);
        s.push_replication(&[2.0, 3.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.sample(0), &[1.0, 2.0]);
        assert_eq!(s.sample(2), &[3.0]);
        let means = s.means();
        assert!((means[0] - 1.5).abs() < 1e-12);
        assert!((means[1] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn pooled_combines_ranges() {
        let mut s = IndexedSeries::new();
        s.push_replication(&[1.0, 10.0, 100.0]);
        s.push_replication(&[2.0, 20.0, 200.0]);
        let pool = s.pooled(1, 3);
        assert_eq!(pool.len(), 4);
        assert!((OnlineStats::from_slice(&pool).mean() - 82.5).abs() < 1e-12);
        // Out-of-range `to` clamps.
        assert_eq!(s.pooled(0, 99).len(), 6);
    }

    #[test]
    fn transient_length_finds_knee() {
        let s = ramp_series(50, 100, 4.0e-3);
        // The profile reaches 90% of steady at i = ceil(10*ln 10) ≈ 23.
        let est = s.transient_length(4.0e-3, 0.1);
        let first = est.first_within.unwrap();
        assert!(
            (20..=26).contains(&first),
            "expected knee near 23, got {first}"
        );
        // Tighter tolerance converges later.
        let tight = s.transient_length(4.0e-3, 0.01);
        assert!(tight.first_within.unwrap() > first);
        // Sustained point is at or after the first crossing.
        assert!(est.first_sustained.unwrap() >= first);
    }

    #[test]
    fn transient_none_when_never_converges() {
        let means = vec![1.0, 1.1, 1.2];
        let est = transient_length_of_means(&means, 10.0, 0.05);
        assert_eq!(est.first_within, None);
        assert_eq!(est.first_sustained, None);
    }

    #[test]
    fn sustained_ignores_early_lucky_crossing() {
        // Index 1 dips within tolerance then leaves again.
        let means = vec![0.5, 1.0, 0.5, 0.98, 1.01, 0.99];
        let est = transient_length_of_means(&means, 1.0, 0.05);
        assert_eq!(est.first_within, Some(1));
        assert_eq!(est.first_sustained, Some(3));
    }

    #[test]
    fn merge_equals_sequential_pushes() {
        let trajs: Vec<Vec<f64>> = (0..40)
            .map(|r| (0..7).map(|i| (r * 7 + i) as f64).collect())
            .collect();
        let mut whole = IndexedSeries::new();
        for t in &trajs {
            whole.push_replication(t);
        }
        let mut a = IndexedSeries::new();
        let mut b = IndexedSeries::new();
        for t in &trajs[..23] {
            a.push_replication(t);
        }
        for t in &trajs[23..] {
            b.push_replication(t);
        }
        a.merge(b);
        assert_eq!(a.len(), whole.len());
        for i in 0..whole.len() {
            assert_eq!(a.sample(i), whole.sample(i), "index {i}");
        }
    }

    #[test]
    fn cap_bounds_memory_deterministically() {
        let mut s = IndexedSeries::with_cap(8);
        for r in 0..100 {
            s.push_replication(&[r as f64, (r * 2) as f64]);
        }
        assert!(s.sample(0).len() <= 8);
        assert!(s.sample(1).len() <= 8);
        // Deterministic: the same pushes give the same retained set.
        let mut t = IndexedSeries::with_cap(8);
        for r in 0..100 {
            t.push_replication(&[r as f64, (r * 2) as f64]);
        }
        assert_eq!(s.sample(0), t.sample(0));
        // Retained samples are a subset of what was pushed.
        assert!(s.sample(0).iter().all(|&x| x.fract() == 0.0 && x < 100.0));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_cap_rejected() {
        IndexedSeries::with_cap(0);
    }

    #[test]
    fn indexed_stats_matches_indexed_series_means() {
        let trajs: Vec<Vec<f64>> = (0..30)
            .map(|r| (0..5).map(|i| ((r + 1) * (i + 2)) as f64).collect())
            .collect();
        let mut series = IndexedSeries::new();
        let mut stats = IndexedStats::new();
        for t in &trajs {
            series.push_replication(t);
            stats.push_replication(t);
        }
        let a = series.means();
        let b = stats.means();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9);
        }
        // Pooled stats over a range match the pooled-sample mean.
        let pooled = stats.pooled_stats(2, 5);
        let pooled_mean = OnlineStats::from_slice(&series.pooled(2, 5)).mean();
        assert!((pooled.mean() - pooled_mean).abs() < 1e-9);
        assert_eq!(pooled.count(), 3 * 30);
    }

    #[test]
    fn indexed_stats_merge_is_exact_up_to_rounding() {
        let trajs: Vec<Vec<f64>> = (0..50)
            .map(|r| {
                (0..4)
                    .map(|i| ((r as f64) * 0.37 + i as f64).sin())
                    .collect()
            })
            .collect();
        let mut whole = IndexedStats::new();
        for t in &trajs {
            whole.push_replication(t);
        }
        let mut a = IndexedStats::new();
        let mut b = IndexedStats::new();
        for t in &trajs[..31] {
            a.push_replication(t);
        }
        for t in &trajs[31..] {
            b.push_replication(t);
        }
        a.merge(b);
        for i in 0..4 {
            assert_eq!(a.stat(i).count(), whole.stat(i).count());
            assert!((a.stat(i).mean() - whole.stat(i).mean()).abs() < 1e-12);
            assert!((a.stat(i).variance() - whole.stat(i).variance()).abs() < 1e-9);
        }
    }

    #[test]
    fn indexed_quantile_tracks_per_index_p95() {
        let mut q = IndexedQuantile::new(0.95);
        // Index 0: uniform 0..100; index 1: uniform 0..200.
        for r in 0..500 {
            let u = (r as f64 * 0.618_033_988_749_895).fract();
            q.push_replication(&[u * 100.0, u * 200.0]);
        }
        assert_eq!(q.len(), 2);
        let v = q.values();
        assert!(
            (v[0] - 95.0).abs() < 5.0,
            "p95 of U[0,100] ≈ 95, got {}",
            v[0]
        );
        assert!(
            (v[1] - 190.0).abs() < 10.0,
            "p95 of U[0,200] ≈ 190, got {}",
            v[1]
        );
    }

    #[test]
    fn indexed_quantile_merge_close_to_sequential() {
        let obs: Vec<f64> = (0..400)
            .map(|r| ((r as f64 * 0.37).sin() + 1.5) * 3.0)
            .collect();
        let mut whole = IndexedQuantile::new(0.95);
        let mut a = IndexedQuantile::new(0.95);
        let mut b = IndexedQuantile::new(0.95);
        for (r, &x) in obs.iter().enumerate() {
            whole.push(0, x);
            if r < 170 {
                a.push(0, x);
            } else {
                b.push(0, x);
            }
        }
        a.merge(b);
        assert_eq!(a.estimator(0).count(), whole.estimator(0).count());
        let (va, vw) = (a.values()[0], whole.values()[0]);
        assert!((va - vw).abs() / vw < 0.1, "merged {va} vs sequential {vw}");
        // Determinism: the same split merges to the same bits.
        let mut a2 = IndexedQuantile::new(0.95);
        let mut b2 = IndexedQuantile::new(0.95);
        for (r, &x) in obs.iter().enumerate() {
            if r < 170 {
                a2.push(0, x);
            } else {
                b2.push(0, x);
            }
        }
        a2.merge(b2);
        assert_eq!(a.values()[0].to_bits(), a2.values()[0].to_bits());
    }

    #[test]
    #[should_panic(expected = "different quantiles")]
    fn indexed_quantile_merge_rejects_mismatched_p() {
        let mut a = IndexedQuantile::new(0.95);
        a.merge(IndexedQuantile::new(0.5));
    }

    #[test]
    fn ks_profile_detects_transient() {
        // Index 0 from a shifted distribution, later indices match the
        // reference.
        let mut s = IndexedSeries::new();
        let mut state = 7u64;
        let mut unif = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..300 {
            let traj = vec![unif() * 0.3, unif(), unif()];
            s.push_replication(&traj);
        }
        let reference: Vec<f64> = (0..1000).map(|_| unif()).collect();
        let prof = s.ks_profile(&reference, 0.05);
        assert!(prof[0].reject, "index 0 should differ");
        assert!(!prof[2].reject, "index 2 should match");
    }
}
