//! The packet-pair technique (the paper's ref \[23\], Dovrolis et al.).
//!
//! Two back-to-back packets are queued; on a wired FIFO path their
//! output dispersion equals the bottleneck serialisation time, so
//! `L/gO` estimates the **capacity** `C`. §7.3 of the paper shows that
//! on a CSMA/CA link a packet pair — a probe of infinite input rate —
//! instead targets the **achievable throughput**, and over-estimates
//! even that, because the pair rides the accelerated early transient
//! (Fig 16).

use csmaprobe_core::link::ProbeTarget;
use csmaprobe_desim::replicate;
use csmaprobe_stats::ecdf::Ecdf;
use csmaprobe_stats::online::OnlineStats;
use csmaprobe_traffic::probe::ProbeTrain;

/// A packet-pair capacity probe.
#[derive(Debug, Clone, Copy)]
pub struct PacketPairProbe {
    /// Probe packet payload, bytes.
    pub bytes: u32,
    /// Number of pairs to send (each in a fresh replication).
    pub pairs: usize,
}

/// Result of a packet-pair measurement.
#[derive(Debug, Clone)]
pub struct PairMeasurement {
    /// Probe payload, bytes.
    pub bytes: u32,
    /// Statistics of the pair dispersions, seconds.
    pub dispersion: OnlineStats,
    /// All pair dispersions (for the median estimate), seconds.
    pub samples: Vec<f64>,
}

impl PacketPairProbe {
    /// A probe sending `pairs` pairs of `bytes`-byte packets.
    pub fn new(bytes: u32, pairs: usize) -> Self {
        PacketPairProbe { bytes, pairs }
    }

    /// Run the measurement.
    pub fn measure<T: ProbeTarget + ?Sized>(&self, target: &T, seed: u64) -> PairMeasurement {
        let train = ProbeTrain::packet_pair(self.bytes);
        let samples = replicate::run_reduce(
            self.pairs,
            seed,
            |_, s, acc: &mut Vec<f64>| acc.extend(target.probe_train(train, s).output_gap_s()),
            Vec::new,
            |a, b| a.extend(b),
        );
        PairMeasurement {
            bytes: self.bytes,
            dispersion: OnlineStats::from_slice(&samples),
            samples,
        }
    }
}

impl PairMeasurement {
    /// Mean-dispersion estimate `L / E[gO]`, bits/s — the estimator
    /// plotted in Fig 16.
    pub fn rate_from_mean_bps(&self) -> f64 {
        self.bytes as f64 * 8.0 / self.dispersion.mean()
    }

    /// Median-dispersion estimate, bits/s (robust variant used by
    /// classic capacity tools).
    pub fn rate_from_median_bps(&self) -> f64 {
        let med = Ecdf::new(self.samples.clone()).quantile(0.5);
        self.bytes as f64 * 8.0 / med
    }

    /// Minimum-dispersion estimate, bits/s (the classic "no
    /// interference" filter).
    pub fn rate_from_min_bps(&self) -> f64 {
        self.bytes as f64 * 8.0 / self.dispersion.min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmaprobe_core::link::{LinkConfig, WiredLink, WlanLink};

    #[test]
    fn wired_pair_measures_capacity() {
        // Idle wired link: dispersion = serialisation time exactly.
        let link = WiredLink::new(10e6, 0.0);
        let m = PacketPairProbe::new(1500, 20).measure(&link, 1);
        let c = m.rate_from_mean_bps();
        assert!((c - 10e6).abs() / 10e6 < 1e-9, "C = {c}");
        // With cross-traffic, the mean is biased low (expansion), but
        // the minimum filter still finds C.
        let busy = WiredLink::new(10e6, 5e6);
        let m2 = PacketPairProbe::new(1500, 200).measure(&busy, 2);
        let cmin = m2.rate_from_min_bps();
        assert!((cmin - 10e6).abs() / 10e6 < 0.01, "C_min = {cmin}");
        assert!(m2.rate_from_mean_bps() <= cmin);
    }

    #[test]
    fn wlan_pair_tracks_achievable_not_capacity() {
        // On an idle WLAN link the pair measures the per-frame channel
        // rate (≈ the 6.2 Mb/s DCF capacity), far below the 11 Mb/s PHY.
        let idle = WlanLink::new(LinkConfig::default());
        let m = PacketPairProbe::new(1500, 50).measure(&idle, 3);
        let c = m.rate_from_mean_bps();
        assert!((5.0e6..7.0e6).contains(&c), "idle WLAN pair: {c}");

        // With contention the estimate drops toward (but stays above)
        // the fair share — the §7.3 overestimation.
        let contended = WlanLink::new(LinkConfig::default().contending_bps(4e6));
        let m2 = PacketPairProbe::new(1500, 200).measure(&contended, 4);
        let est = m2.rate_from_mean_bps();
        assert!(est < c, "contention must lower the pair estimate");
        assert!(est > 2.0e6, "estimate {est} too low");
    }

    #[test]
    fn median_and_mean_close_on_idle_link() {
        let link = WiredLink::new(10e6, 0.0);
        let m = PacketPairProbe::new(1000, 11).measure(&link, 5);
        assert!((m.rate_from_mean_bps() - m.rate_from_median_bps()).abs() < 1.0);
    }
}
