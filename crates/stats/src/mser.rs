//! MSER-m warm-up truncation (White's Marginal Standard Error Rule).
//!
//! §7.4 of the paper treats the access-delay transient as a classic
//! *simulation warm-up* problem and applies **MSER-2** to the
//! inter-arrival times of a 20-packet train: the observations that the
//! heuristic flags as warm-up are removed before computing the output
//! dispersion, which pulls the short-train rate-response curve back
//! onto the steady-state one (Fig 17).
//!
//! Definition (Joines & Barton et al., WSC 2000 — the paper's ref \[32\]):
//! batch the raw series into means of `m` consecutive observations,
//! `y_1..y_k`; for each truncation point `d` compute
//!
//! ```text
//! MSER(d) = s²_(d) / (k − d)      where s²_(d) is the variance of y_{d+1..k}
//!         = Σ_{j>d} (y_j − ȳ_d)² / (k − d)²
//! ```
//!
//! and truncate at the `d*` minimising `MSER(d)`, searching `d` over the
//! first half of the series (the standard guard against degenerate
//! truncation of everything).

/// Result of an MSER-m analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct MserResult {
    /// Batch size `m` used.
    pub m: usize,
    /// Batch means `y_1..y_k`.
    pub batch_means: Vec<f64>,
    /// Optimal truncation point in *batches*.
    pub truncate_batches: usize,
    /// Optimal truncation point in *raw observations*
    /// (`truncate_batches · m`).
    pub truncate_raw: usize,
    /// The MSER statistic at the optimum.
    pub min_statistic: f64,
}

/// Run MSER-m on `series` with batch size `m`.
///
/// Returns `None` when the series is too short to form at least two
/// batches (no meaningful truncation decision exists).
///
/// ```
/// use csmaprobe_stats::mser::mser_m;
///
/// // A warm-up ramp followed by a stationary tail.
/// let mut series = vec![9.0, 7.0, 5.0, 3.0];
/// series.extend(std::iter::repeat(1.0).take(40));
/// let r = mser_m(&series, 2).unwrap();
/// assert!(r.truncate_raw >= 4); // the ramp is flagged as warm-up
/// ```
pub fn mser_m(series: &[f64], m: usize) -> Option<MserResult> {
    assert!(m >= 1, "batch size must be >= 1");
    let k = series.len() / m;
    if k < 2 {
        return None;
    }
    let batch_means: Vec<f64> = (0..k)
        .map(|j| series[j * m..(j + 1) * m].iter().sum::<f64>() / m as f64)
        .collect();

    // Suffix sums let each candidate d be evaluated in O(1).
    let mut suf_sum = vec![0.0; k + 1];
    let mut suf_sq = vec![0.0; k + 1];
    for j in (0..k).rev() {
        suf_sum[j] = suf_sum[j + 1] + batch_means[j];
        suf_sq[j] = suf_sq[j + 1] + batch_means[j] * batch_means[j];
    }

    // Search d in [0, k/2] per the standard MSER guard.
    let d_max = k / 2;
    let mut best_d = 0usize;
    let mut best_stat = f64::INFINITY;
    for d in 0..=d_max {
        let n = (k - d) as f64;
        if n < 1.0 {
            break;
        }
        let mean = suf_sum[d] / n;
        let ss = suf_sq[d] - n * mean * mean;
        let stat = ss.max(0.0) / (n * n);
        if stat < best_stat {
            best_stat = stat;
            best_d = d;
        }
    }

    Some(MserResult {
        m,
        batch_means,
        truncate_batches: best_d,
        truncate_raw: best_d * m,
        min_statistic: best_stat,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stationary_series_keeps_everything() {
        // Constant series: MSER(0) already minimal.
        let xs = vec![5.0; 40];
        let r = mser_m(&xs, 2).unwrap();
        assert_eq!(r.truncate_batches, 0);
        assert_eq!(r.truncate_raw, 0);
    }

    #[test]
    fn obvious_warmup_is_cut() {
        // A big initial transient followed by a flat tail.
        let mut xs = vec![100.0, 80.0, 60.0, 40.0, 20.0, 10.0];
        xs.extend(std::iter::repeat(1.0).take(60));
        let r = mser_m(&xs, 2).unwrap();
        assert!(
            r.truncate_raw >= 4,
            "should cut most of the ramp, got {}",
            r.truncate_raw
        );
        // After truncation the series is (nearly) flat.
        let tail = &xs[r.truncate_raw..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(mean < 5.0, "tail mean {mean}");
    }

    #[test]
    fn truncation_capped_at_half() {
        // Monotone ramp: variance keeps shrinking, but d <= k/2.
        let xs: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let r = mser_m(&xs, 2).unwrap();
        assert!(r.truncate_batches <= 10); // k = 20, d_max = 10
    }

    #[test]
    fn batch_means_are_correct() {
        let xs = vec![1.0, 3.0, 5.0, 7.0, 2.0, 4.0];
        let r = mser_m(&xs, 2).unwrap();
        assert_eq!(r.batch_means, vec![2.0, 6.0, 3.0]);
        assert_eq!(r.m, 2);
    }

    #[test]
    fn too_short_series_returns_none() {
        assert!(mser_m(&[1.0], 2).is_none());
        assert!(mser_m(&[1.0, 2.0, 3.0], 2).is_none()); // k = 1
        assert!(mser_m(&[], 1).is_none());
    }

    #[test]
    fn mser_one_equals_no_batching() {
        let mut xs = vec![50.0, 25.0, 12.0];
        xs.extend(std::iter::repeat(2.0).take(30));
        let r = mser_m(&xs, 1).unwrap();
        assert_eq!(r.truncate_raw, r.truncate_batches);
        assert!(r.truncate_raw >= 3);
    }
}
