//! pathChirp-style probing (Ribeiro et al., the paper's ref \[19\]):
//! a single "chirp" train whose instantaneous rate sweeps a whole range
//! exponentially, so one train localises the congestion turning point.
//!
//! Packet `k` and `k+1` are spaced `L/r_k` apart with
//! `r_k = r_min·γ^k`; the *excursion analysis* finds the packet index
//! from which one-way delays grow persistently — the instantaneous rate
//! there is the estimate. On FIFO paths that is the available
//! bandwidth; on CSMA/CA links the growth starts only when the chirp
//! exceeds the fair share, so the estimate lands on the achievable
//! throughput once more.

use csmaprobe_core::link::{ProbeTarget, TrainObservation};
use csmaprobe_desim::replicate;
use csmaprobe_desim::time::Dur;
use csmaprobe_stats::online::OnlineStats;

/// A chirp-probing estimator.
#[derive(Debug, Clone, Copy)]
pub struct ChirpProbe {
    /// Packets per chirp.
    pub n: usize,
    /// Probe payload, bytes.
    pub bytes: u32,
    /// Instantaneous rate of the first gap, bits/s.
    pub r_min_bps: f64,
    /// Instantaneous rate of the last gap, bits/s.
    pub r_max_bps: f64,
    /// Chirps to send (independent replications).
    pub chirps: usize,
}

impl Default for ChirpProbe {
    fn default() -> Self {
        ChirpProbe {
            n: 60,
            bytes: 1500,
            r_min_bps: 0.5e6,
            r_max_bps: 11e6,
            chirps: 30,
        }
    }
}

/// Result of a chirp measurement.
#[derive(Debug, Clone)]
pub struct ChirpResult {
    /// Across-chirp statistics of the turning-point rate, bits/s.
    pub estimate: OnlineStats,
    /// Chirps where no turning point was found (delays never grew):
    /// these contribute `r_max` to the estimate.
    pub saturated_high: usize,
    /// Chirps congested from the very first packets: contribute
    /// `r_min`.
    pub saturated_low: usize,
}

impl ChirpProbe {
    /// The instantaneous rate of gap `k` (0-based), bits/s.
    pub fn rate_at(&self, k: usize) -> f64 {
        debug_assert!(self.n >= 2);
        let gamma = (self.r_max_bps / self.r_min_bps).powf(1.0 / (self.n as f64 - 2.0).max(1.0));
        self.r_min_bps * gamma.powi(k as i32)
    }

    /// Arrival offsets of one chirp (first packet at offset 0).
    pub fn offsets(&self) -> Vec<Dur> {
        let mut out = Vec::with_capacity(self.n);
        let mut t = Dur::ZERO;
        out.push(t);
        for k in 0..self.n - 1 {
            let gap = Dur::from_secs_f64(self.bytes as f64 * 8.0 / self.rate_at(k));
            t += gap;
            out.push(t);
        }
        out
    }

    /// Excursion analysis of one chirp's observation: the rate carried
    /// by the last packet whose one-way delay was still at the
    /// baseline level.
    ///
    /// Simplified from pathChirp, made robust to CSMA/CA access-delay
    /// jitter: the noise floor is taken from the slowest (first)
    /// quarter of the chirp — presumed uncongested — and the turning
    /// point is the **last** index whose excess delay is within that
    /// floor. Queueing beyond the turning point accumulates
    /// monotonically in expectation, so everything after it stays
    /// elevated. Returns `+inf` when the chirp never leaves the
    /// baseline (no congestion up to `r_max`).
    pub fn turning_point(&self, obs: &TrainObservation) -> f64 {
        let n = obs.rx_times.len();
        if n < 8 {
            return f64::NAN;
        }
        let delays: Vec<f64> = obs
            .rx_times
            .iter()
            .zip(&obs.arrivals)
            .map(|(rx, a)| (*rx - *a).as_secs_f64())
            .collect();
        let base = delays.iter().cloned().fold(f64::INFINITY, f64::min);
        let q: Vec<f64> = delays.iter().map(|d| d - base).collect();
        // Noise floor: the spread of the slowest quarter of the chirp.
        let head = &q[..(n / 4).max(4)];
        let mut sorted = head.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let floor = sorted[(sorted.len() * 9 / 10).min(sorted.len() - 1)].max(1e-6);

        // Require the chirp to end clearly congested; otherwise report
        // "no turning point".
        let tail = &q[n - 3..];
        let tail_min = tail.iter().cloned().fold(f64::INFINITY, f64::min);
        if tail_min <= 2.0 * floor {
            return f64::INFINITY;
        }
        // Last index still at the baseline.
        let j = q.iter().rposition(|&x| x <= floor).unwrap_or(0);
        self.rate_at(j.min(self.n.saturating_sub(2)))
    }

    /// Run the measurement: send `chirps` chirps, average the
    /// turning-point rates (chirps without a turning point count as
    /// `r_max`; fully congested ones as `r_min`).
    pub fn measure<T: ProbeTarget + ?Sized>(&self, target: &T, seed: u64) -> ChirpResult {
        let offsets = self.offsets();
        let probe = *self;
        let per_chirp = replicate::run_reduce(
            self.chirps,
            seed,
            |_, s, acc: &mut Vec<f64>| {
                let obs = target.probe_sequence(&offsets, probe.bytes, s);
                acc.push(probe.turning_point(&obs));
            },
            Vec::new,
            |a, b| a.extend(b),
        );
        let mut stats = OnlineStats::new();
        let mut hi = 0;
        let mut lo = 0;
        for v in per_chirp {
            if v.is_nan() {
                continue;
            }
            if v.is_infinite() {
                hi += 1;
                stats.push(self.r_max_bps);
            } else {
                if v <= self.r_min_bps * 1.0001 {
                    lo += 1;
                }
                stats.push(v);
            }
        }
        ChirpResult {
            estimate: stats,
            saturated_high: hi,
            saturated_low: lo,
        }
    }
}

impl ChirpResult {
    /// The mean turning-point rate, bits/s.
    pub fn estimate_bps(&self) -> f64 {
        self.estimate.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmaprobe_core::link::{LinkConfig, WiredLink, WlanLink};

    #[test]
    fn chirp_rates_sweep_exponentially() {
        let c = ChirpProbe::default();
        assert!((c.rate_at(0) - c.r_min_bps).abs() < 1.0);
        let last = c.rate_at(c.n - 2);
        assert!((last - c.r_max_bps).abs() / c.r_max_bps < 1e-9, "{last}");
        // Monotone increasing.
        for k in 0..c.n - 2 {
            assert!(c.rate_at(k + 1) > c.rate_at(k));
        }
        // Offsets monotone, n of them.
        let off = c.offsets();
        assert_eq!(off.len(), c.n);
        for w in off.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn chirp_finds_available_bandwidth_on_fifo() {
        let link = WiredLink::new(10e6, 4e6); // A = 6 Mb/s
        let probe = ChirpProbe {
            n: 80,
            chirps: 40,
            ..Default::default()
        };
        let r = probe.measure(&link, 11);
        let est = r.estimate_bps();
        assert!(
            (4.0e6..8.5e6).contains(&est),
            "chirp estimate {est:.0} should be ~A=6e6"
        );
    }

    #[test]
    fn chirp_lands_on_achievable_throughput_on_wlan() {
        // Fig 1 point: A ≈ 1.7 Mb/s, B ≈ 3.3 Mb/s.
        let link = WlanLink::new(LinkConfig::default().contending_bps(4.5e6));
        let probe = ChirpProbe {
            n: 80,
            chirps: 40,
            ..Default::default()
        };
        let r = probe.measure(&link, 13);
        let est = r.estimate_bps();
        // Above the available bandwidth: the chirp is not delayed until
        // it pushes past the fair share.
        assert!(est > 2.2e6, "chirp estimate {est:.0} must exceed A = 1.7e6");
        assert!(est < 6.5e6, "chirp estimate {est:.0} should stay near B");
    }

    #[test]
    fn idle_link_reports_no_turning_point_mostly() {
        let link = WiredLink::new(10e6, 0.0);
        let probe = ChirpProbe {
            n: 40,
            r_max_bps: 8e6, // below C: nothing should congest
            chirps: 20,
            ..Default::default()
        };
        let r = probe.measure(&link, 17);
        assert!(
            r.saturated_high >= 15,
            "most chirps should see no excursion, got {}",
            r.saturated_high
        );
    }
}
