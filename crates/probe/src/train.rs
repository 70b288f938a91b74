//! Packet-train dispersion measurement.
//!
//! The estimator of §5.2–5.3: send `m` replications of an `n`-packet
//! train at input gap `gI`, estimate `E[gO]` as the across-replication
//! average of eq (16), and report the dispersion-inferred output rate
//! `L/E[gO]`. Replications are independently seeded (the Poisson
//! train-spacing of the paper's methodology serves the same purpose:
//! fresh, stationary cross-traffic interaction per train).

use csmaprobe_core::link::ProbeTarget;
use csmaprobe_desim::replicate;
use csmaprobe_stats::accumulate::Accumulate;
use csmaprobe_stats::online::OnlineStats;
use csmaprobe_stats::transient::IndexedSeries;
use csmaprobe_traffic::probe::ProbeTrain;

/// A packet-train probe: `n` packets of `bytes` at `rate_bps`.
///
/// ```
/// use csmaprobe_core::link::{LinkConfig, WlanLink};
/// use csmaprobe_probe::train::TrainProbe;
///
/// let link = WlanLink::new(LinkConfig::default());
/// // 5-packet trains at 2 Mb/s on an idle link: ro ≈ ri.
/// let m = TrainProbe::new(5, 1500, 2e6).measure(&link, 3, 7);
/// let ro = m.output_rate_bps();
/// assert!((ro - 2e6).abs() / 2e6 < 0.1, "{ro}");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TrainProbe {
    /// The train shape sent on every replication.
    pub train: ProbeTrain,
}

/// Streaming accumulator of a train measurement: what one sweep cell
/// (or one `run_reduce` chunk) folds its replications into, merged in
/// chunk order by the scenario engine.
#[derive(Debug, Clone, Default)]
pub struct TrainAccumulator {
    gaps: OnlineStats,
    incomplete: usize,
    delays: IndexedSeries,
    receiver_gaps: IndexedSeries,
}

impl Accumulate for TrainAccumulator {
    fn merge(&mut self, other: Self) {
        OnlineStats::merge(&mut self.gaps, &other.gaps);
        self.incomplete += other.incomplete;
        self.delays.merge(other.delays);
        self.receiver_gaps.merge(other.receiver_gaps);
    }
}

impl TrainProbe {
    /// A probe of `n` packets of `bytes` payload at input rate
    /// `rate_bps`.
    pub fn new(n: usize, bytes: u32, rate_bps: f64) -> Self {
        TrainProbe {
            train: ProbeTrain::from_rate(n, bytes, rate_bps),
        }
    }

    /// Run **one** replication with `seed` and fold its observations
    /// into `acc` — the cell body a sweep scenario calls with
    /// `derive_seed(cell_seed, rep)`. [`TrainProbe::measure`] is exactly
    /// `reps` of these reduced over the chunk grid.
    pub fn sample_into<T: ProbeTarget + ?Sized>(
        &self,
        target: &T,
        seed: u64,
        acc: &mut TrainAccumulator,
    ) {
        let obs = target.probe_train(self.train, seed);
        match obs.output_gap_s() {
            Some(g) => acc.gaps.push(g),
            None => acc.incomplete += 1,
        }
        acc.receiver_gaps.push_replication(&obs.receiver_gaps_s());
        if let Some(mu) = &obs.access_delays {
            acc.delays.push_replication(mu);
        }
    }

    /// Seal a fully-reduced accumulator into a [`TrainMeasurement`]
    /// (`reps` is the replication budget that fed `acc`).
    pub fn finish(&self, reps: usize, acc: TrainAccumulator) -> TrainMeasurement {
        TrainMeasurement {
            train: self.train,
            reps,
            incomplete: acc.incomplete,
            output_gap: acc.gaps,
            access_delays: acc.delays,
            receiver_gaps: acc.receiver_gaps,
        }
    }

    /// Run `reps` independent replications against `target`.
    pub fn measure<T: ProbeTarget + ?Sized>(
        &self,
        target: &T,
        reps: usize,
        seed: u64,
    ) -> TrainMeasurement {
        // Streaming map-reduce: each replication folds straight into a
        // chunk accumulator; nothing per-replication is materialised.
        let acc = replicate::run_reduce(
            reps,
            seed,
            |_, s, acc: &mut TrainAccumulator| self.sample_into(target, s, acc),
            TrainAccumulator::default,
            Accumulate::merge,
        );
        self.finish(reps, acc)
    }
}

/// Aggregated result of a packet-train measurement.
#[derive(Debug, Clone)]
pub struct TrainMeasurement {
    /// The train shape used.
    pub train: ProbeTrain,
    /// Replications attempted.
    pub reps: usize,
    /// Replications where fewer than 2 probe packets were delivered.
    pub incomplete: usize,
    /// Across-replication statistics of the output gap `gO` (seconds).
    pub output_gap: OnlineStats,
    /// Per-index access delays (seconds; CSMA/CA targets only).
    pub access_delays: IndexedSeries,
    /// Per-position receiver inter-arrival gaps (seconds).
    pub receiver_gaps: IndexedSeries,
}

impl TrainMeasurement {
    /// The input rate `ri = L/gI` of the train, bits/s.
    pub fn input_rate_bps(&self) -> f64 {
        self.train.input_rate_bps()
    }

    /// The estimate of `E[gO]`, seconds.
    pub fn mean_output_gap_s(&self) -> f64 {
        self.output_gap.mean()
    }

    /// The dispersion-inferred output rate `L/E[gO]`, bits/s — the
    /// `y`-axis of Figs 13/15/17.
    pub fn output_rate_bps(&self) -> f64 {
        let g = self.mean_output_gap_s();
        if g <= 0.0 {
            return f64::NAN;
        }
        self.train.bytes as f64 * 8.0 / g
    }

    /// 95% confidence half-width of the mean output gap.
    pub fn gap_ci95_s(&self) -> f64 {
        self.output_gap.ci_half_width(0.95)
    }

    /// Per-index mean access delays `E[μ_i]` (empty for wired targets)
    /// — the input to the §6 bounds.
    pub fn mean_mu_profile(&self) -> Vec<f64> {
        self.access_delays.means()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmaprobe_core::link::{LinkConfig, WiredLink, WlanLink};

    #[test]
    fn identity_region_on_wired_link() {
        let link = WiredLink::new(10e6, 2e6);
        // 3 Mb/s < A = 8 Mb/s.
        let m = TrainProbe::new(40, 1500, 3e6).measure(&link, 40, 1);
        let ro = m.output_rate_bps();
        assert!((ro - 3e6).abs() / 3e6 < 0.08, "ro {ro}");
        assert_eq!(m.incomplete, 0);
        assert_eq!(m.receiver_gaps.len(), 39);
    }

    #[test]
    fn wlan_flattens_at_fair_share() {
        // The paper's Fig 1 setting: ~4.5 Mb/s contending cross-traffic
        // gives C≈6.2, A≈1.7, B≈3.3 — fair share well below available.
        let link = WlanLink::new(LinkConfig::default().contending_bps(4_500_000.0));
        let long = TrainProbe::new(400, 1500, 9e6).measure(&link, 12, 3);
        let ro_long = long.output_rate_bps();
        assert!((2.8e6..3.8e6).contains(&ro_long), "long-train B {ro_long}");
        let short = TrainProbe::new(3, 1500, 9e6).measure(&link, 300, 3);
        let ro_short = short.output_rate_bps();
        assert!(
            ro_short > ro_long * 1.05,
            "short trains must over-estimate: {ro_short} vs {ro_long}"
        );
    }

    #[test]
    fn mu_profile_collected_on_wlan_only() {
        let wlan = WlanLink::new(LinkConfig::default().contending_bps(1e6));
        let m = TrainProbe::new(10, 1500, 2e6).measure(&wlan, 25, 5);
        assert_eq!(m.mean_mu_profile().len(), 10);

        let wired = WiredLink::new(10e6, 1e6);
        let m2 = TrainProbe::new(10, 1500, 2e6).measure(&wired, 5, 5);
        assert!(m2.mean_mu_profile().is_empty());
    }

    #[test]
    fn measurement_is_deterministic() {
        let link = WlanLink::new(LinkConfig::default().contending_bps(2e6));
        let probe = TrainProbe::new(15, 1500, 4e6);
        let a = probe.measure(&link, 10, 77).mean_output_gap_s();
        let b = probe.measure(&link, 10, 77).mean_output_gap_s();
        assert_eq!(a, b);
    }

    #[test]
    fn ci_shrinks_with_reps() {
        let link = WlanLink::new(LinkConfig::default().contending_bps(2e6));
        let probe = TrainProbe::new(10, 1500, 5e6);
        let small = probe.measure(&link, 10, 9).gap_ci95_s();
        let large = probe.measure(&link, 80, 9).gap_ci95_s();
        assert!(large < small);
    }
}
