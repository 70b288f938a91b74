//! An iterative available-bandwidth estimator in the SLoPS/pathload
//! style (self-loading periodic streams).
//!
//! The tool binary-searches for the largest input rate at which the
//! flow still gets through undistorted (`ro/ri ≥ 1 − ε`, judged from
//! train dispersion). On the FIFO paths these tools were designed for,
//! that turning point is the **available bandwidth** `A`. §7.2 of the
//! paper shows that, run unchanged on a CSMA/CA link, the same
//! procedure converges to the **achievable throughput** `B` instead —
//! the two only coincide in special cases. This module exists to
//! demonstrate exactly that.

use crate::train::TrainProbe;
use csmaprobe_core::link::ProbeTarget;
use csmaprobe_desim::rng::derive_seed;

/// Iterative rate-search configuration.
#[derive(Debug, Clone, Copy)]
pub struct SlopsEstimator {
    /// Lower bracket of the search, bits/s.
    pub lo_bps: f64,
    /// Upper bracket of the search, bits/s.
    pub hi_bps: f64,
    /// Packets per probing train.
    pub n: usize,
    /// Probe payload, bytes.
    pub bytes: u32,
    /// Replications per rate decision.
    pub reps: usize,
    /// Relative distortion tolerated before declaring congestion
    /// (`ro/ri < 1 − epsilon` ⇒ rate too high).
    pub epsilon: f64,
    /// Binary-search iterations (each halves the bracket).
    pub iterations: usize,
}

impl Default for SlopsEstimator {
    fn default() -> Self {
        SlopsEstimator {
            lo_bps: 100e3,
            hi_bps: 11e6,
            n: 100,
            bytes: 1500,
            reps: 10,
            epsilon: 0.06,
            iterations: 10,
        }
    }
}

/// Result of a SLoPS-style search.
#[derive(Debug, Clone)]
pub struct SlopsResult {
    /// The converged estimate, bits/s.
    pub estimate_bps: f64,
    /// Every probed `(rate, ro/ri, congested)` decision, in order.
    pub trace: Vec<(f64, f64, bool)>,
}

impl SlopsEstimator {
    /// Run the search against `target`.
    pub fn run<T: ProbeTarget + ?Sized>(&self, target: &T, seed: u64) -> SlopsResult {
        let mut lo = self.lo_bps;
        let mut hi = self.hi_bps;
        let mut trace = Vec::with_capacity(self.iterations);
        for k in 0..self.iterations {
            let rate = 0.5 * (lo + hi);
            let ro = TrainProbe::new(self.n, self.bytes, rate).measure_output_rate_bps(
                target,
                self.reps,
                derive_seed(seed, k as u64),
            );
            let ratio = ro / rate;
            let congested = ratio < 1.0 - self.epsilon;
            trace.push((rate, ratio, congested));
            if congested {
                hi = rate;
            } else {
                lo = rate;
            }
        }
        SlopsResult {
            estimate_bps: 0.5 * (lo + hi),
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmaprobe_core::link::{LinkConfig, WiredLink, WlanLink};

    #[test]
    fn finds_available_bandwidth_on_fifo_path() {
        // C = 10, cross = 4 ⇒ A = 6 Mb/s.
        let link = WiredLink::new(10e6, 4e6);
        let est = SlopsEstimator {
            n: 300,
            reps: 6,
            ..Default::default()
        };
        let r = est.run(&link, 21);
        assert!(
            (5.0e6..7.0e6).contains(&r.estimate_bps),
            "A estimate {}",
            r.estimate_bps
        );
        // The search actually explored both congested and clear rates.
        assert!(r.trace.iter().any(|&(_, _, c)| c));
        assert!(r.trace.iter().any(|&(_, _, c)| !c));
    }

    #[test]
    fn finds_achievable_throughput_on_wlan() {
        // Paper Fig 1 setting: 4.5 Mb/s contender ⇒ A ≈ 1.7 Mb/s,
        // B ≈ 3.3 Mb/s. The unchanged FIFO-era tool lands on B, not A —
        // the paper's §7.2 point.
        let link = WlanLink::new(LinkConfig::default().contending_bps(4.5e6));
        let est = SlopsEstimator {
            n: 200,
            reps: 6,
            ..Default::default()
        };
        let r = est.run(&link, 23);
        assert!(
            (2.5e6..4.0e6).contains(&r.estimate_bps),
            "B estimate {}",
            r.estimate_bps
        );
        // Clearly above the available bandwidth.
        assert!(r.estimate_bps > 2.2e6);
    }

    #[test]
    fn bracket_narrows_monotonically() {
        let link = WiredLink::new(10e6, 2e6);
        let est = SlopsEstimator {
            n: 60,
            reps: 3,
            iterations: 6,
            ..Default::default()
        };
        let r = est.run(&link, 29);
        assert_eq!(r.trace.len(), 6);
        // Each probed rate lies inside the previous bracket: the probed
        // rates' spread shrinks.
        let first_step = (r.trace[1].0 - r.trace[0].0).abs();
        let last_step = (r.trace[5].0 - r.trace[4].0).abs();
        assert!(last_step < first_step);
    }
}
