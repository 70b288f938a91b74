//! TOPP — Trains of Packet Pairs / regression-based available-bandwidth
//! and capacity estimation (Melander, Björkman, Gunningberg — the
//! paper's ref \[13\]).
//!
//! TOPP probes at increasing rates and exploits the FIFO fluid model
//! (eq 1): beyond the available bandwidth,
//!
//! ```text
//! ri/ro = ri/C + (C − A)/C
//! ```
//!
//! is linear in `ri`, so a least-squares fit of `ri/ro` against `ri`
//! over the congested segment yields **C = 1/slope** and
//! **A = C·(1 − intercept)**.
//!
//! On a CSMA/CA link the congested segment instead follows `ro = B`,
//! i.e. `ri/ro = ri/B` — slope `1/B`, intercept 0 — so TOPP reports
//! `C ≈ B` **and** `A ≈ B`: both of its outputs collapse onto the
//! achievable throughput. This module exists to demonstrate exactly
//! that (§7.2 across tool families).

use crate::train::TrainProbe;
use csmaprobe_core::link::ProbeTarget;
use csmaprobe_desim::rng::derive_seed;

/// TOPP configuration.
#[derive(Debug, Clone)]
pub struct ToppEstimator {
    /// Probing rates, bits/s (must be increasing).
    pub rates_bps: Vec<f64>,
    /// Packets per train at each rate.
    pub n: usize,
    /// Probe payload, bytes.
    pub bytes: u32,
    /// Replications per rate.
    pub reps: usize,
    /// Relative `ri/ro` excess marking the congested segment
    /// (points with `ri/ro > 1 + epsilon` enter the regression).
    pub epsilon: f64,
}

impl Default for ToppEstimator {
    fn default() -> Self {
        ToppEstimator {
            rates_bps: (1..=20).map(|k| k as f64 * 0.5e6).collect(),
            n: 150,
            bytes: 1500,
            reps: 8,
            epsilon: 0.03,
        }
    }
}

/// TOPP's outputs.
#[derive(Debug, Clone)]
pub struct ToppResult {
    /// Estimated capacity `1/slope`, bits/s.
    pub capacity_bps: f64,
    /// Estimated available bandwidth `C·(1 − intercept)`, bits/s.
    pub available_bps: f64,
    /// The measured `(ri, ri/ro)` points.
    pub curve: Vec<(f64, f64)>,
    /// Number of points used in the regression.
    pub congested_points: usize,
}

impl ToppEstimator {
    /// Run TOPP against `target`.
    ///
    /// Returns `None` when fewer than two rates show congestion (no
    /// regression possible — the sweep never exceeded the turning
    /// point).
    pub fn run<T: ProbeTarget + ?Sized>(&self, target: &T, seed: u64) -> Option<ToppResult> {
        let mut curve = Vec::with_capacity(self.rates_bps.len());
        for (k, &ri) in self.rates_bps.iter().enumerate() {
            let ro = TrainProbe::new(self.n, self.bytes, ri).measure_output_rate_bps(
                target,
                self.reps,
                derive_seed(seed, k as u64),
            );
            curve.push((ri, ri / ro));
        }

        // Congested segment: ri/ro clearly above 1.
        let pts: Vec<(f64, f64)> = curve
            .iter()
            .filter(|(_, ratio)| *ratio > 1.0 + self.epsilon)
            .cloned()
            .collect();
        if pts.len() < 2 {
            return None;
        }

        // Least squares of ratio on ri.
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|(x, _)| x).sum();
        let sy: f64 = pts.iter().map(|(_, y)| y).sum();
        let sxx: f64 = pts.iter().map(|(x, _)| x * x).sum();
        let sxy: f64 = pts.iter().map(|(x, y)| x * y).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-30 {
            return None;
        }
        let slope = (n * sxy - sx * sy) / denom;
        let intercept = (sy - slope * sx) / n;
        if slope <= 0.0 {
            return None;
        }
        let capacity = 1.0 / slope;
        let available = capacity * (1.0 - intercept);
        Some(ToppResult {
            capacity_bps: capacity,
            available_bps: available,
            curve,
            congested_points: pts.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmaprobe_core::link::{LinkConfig, WiredLink, WlanLink};

    #[test]
    fn topp_recovers_c_and_a_on_fifo_path() {
        // C = 10 Mb/s, cross 4 Mb/s => A = 6 Mb/s.
        let link = WiredLink::new(10e6, 4e6);
        let est = ToppEstimator {
            rates_bps: (1..=18).map(|k| k as f64 * 0.5e6).collect(),
            n: 300,
            reps: 6,
            ..Default::default()
        };
        let r = est.run(&link, 3).expect("congestion must be reached");
        assert!(
            (r.capacity_bps - 10e6).abs() / 10e6 < 0.1,
            "C estimate {:.0}",
            r.capacity_bps
        );
        assert!(
            (r.available_bps - 6e6).abs() / 6e6 < 0.15,
            "A estimate {:.0}",
            r.available_bps
        );
        assert!(r.congested_points >= 2);
    }

    #[test]
    fn topp_collapses_to_b_on_wlan() {
        // Paper Fig 1 point: B ≈ 3.3 Mb/s, A ≈ 1.7, C ≈ 6.2.
        let link = WlanLink::new(LinkConfig::default().contending_bps(4.5e6));
        let est = ToppEstimator {
            rates_bps: (2..=16).map(|k| k as f64 * 0.5e6).collect(),
            n: 200,
            reps: 6,
            ..Default::default()
        };
        let r = est.run(&link, 5).expect("congestion must be reached");
        // Both outputs land on the achievable throughput: far from the
        // true capacity, far from the true available bandwidth.
        assert!(
            (2.6e6..4.2e6).contains(&r.capacity_bps),
            "C-estimate {:.0} should be ~B",
            r.capacity_bps
        );
        assert!(
            (2.2e6..4.2e6).contains(&r.available_bps),
            "A-estimate {:.0} should be ~B",
            r.available_bps
        );
        // They collapse onto each other (intercept ~0).
        let gap = (r.capacity_bps - r.available_bps).abs() / r.capacity_bps;
        assert!(gap < 0.25, "C and A estimates should collapse: {gap:.3}");
    }

    #[test]
    fn topp_returns_none_without_congestion() {
        let link = WiredLink::new(10e6, 0.0);
        let est = ToppEstimator {
            rates_bps: vec![1e6, 2e6, 3e6], // all far below C
            n: 60,
            reps: 3,
            ..Default::default()
        };
        assert!(est.run(&link, 7).is_none());
    }
}
