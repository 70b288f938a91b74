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
    /// All pair dispersions (for mode/median analyses), seconds.
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

    /// Dovrolis-style histogram-mode analysis: convert every pair
    /// dispersion to a rate, bin the rates, and return the bin-centre
    /// rates of the local maxima (strongest first).
    ///
    /// On a wired path the *capacity mode* (a spike at `C`) survives
    /// cross-traffic that drags the mean down; on CSMA/CA links the
    /// modes track the contention structure instead.
    pub fn rate_modes_bps(&self, bins: usize) -> Vec<f64> {
        if self.samples.len() < 4 {
            return vec![self.rate_from_mean_bps()];
        }
        let rates: Vec<f64> = self
            .samples
            .iter()
            .map(|g| self.bytes as f64 * 8.0 / g)
            .collect();
        let hist = csmaprobe_stats::histogram::Histogram::from_sample(&rates, bins);
        let counts = hist.counts();
        let mut modes: Vec<(u64, f64)> = Vec::new();
        for i in 0..counts.len() {
            let left = if i == 0 { 0 } else { counts[i - 1] };
            let right = if i + 1 == counts.len() {
                0
            } else {
                counts[i + 1]
            };
            if counts[i] > 0 && counts[i] >= left && counts[i] >= right {
                modes.push((counts[i], hist.bin_center(i)));
            }
        }
        modes.sort_by_key(|m| std::cmp::Reverse(m.0));
        modes.into_iter().map(|(_, rate)| rate).collect()
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

    #[test]
    fn histogram_mode_recovers_capacity_under_cross_traffic() {
        // Pair expansion needs the pair to be spread out before meeting
        // cross-traffic (on a single hop, back-to-back packets can never
        // be split in FIFO order): probe a 2-hop path whose first hop
        // spaces the pair and whose second (narrow, loaded) hop lets
        // cross packets slip in between. Expanded pairs drag the mean
        // down, but untouched pairs spike exactly at C: the strongest
        // histogram mode still reads the narrow-link capacity.
        use csmaprobe_core::multihop::{Hop, WiredPath};
        let path = WiredPath::new(vec![Hop::new(20e6, 0.0), Hop::new(10e6, 6e6)]);
        let m = PacketPairProbe::new(1500, 500).measure(&path, 7);
        assert!(
            m.rate_from_mean_bps() < 9.5e6,
            "mean should be dragged down, got {:.0}",
            m.rate_from_mean_bps()
        );
        let modes = m.rate_modes_bps(40);
        assert!(!modes.is_empty());
        let top = modes[0];
        assert!(
            (top - 10e6).abs() / 10e6 < 0.05,
            "capacity mode {top:.0} should be ~10 Mb/s (modes: {modes:?})"
        );
    }

    #[test]
    fn modes_fall_back_for_tiny_samples() {
        let link = WiredLink::new(10e6, 0.0);
        let m = PacketPairProbe::new(1500, 2).measure(&link, 9);
        let modes = m.rate_modes_bps(10);
        assert_eq!(modes.len(), 1);
    }
}
