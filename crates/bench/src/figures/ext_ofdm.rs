//! Extension E14 — the paper's claim that its findings "not only apply
//! to wireless environments, but also to any CSMA/CA-based system":
//! rerun the core transient + short-train experiments on an 802.11g
//! OFDM PHY (54 Mb/s, 9 µs slots), a very different timing point of the
//! same CSMA/CA family.
//!
//! Expected: the same qualitative picture — accelerated first packets,
//! short trains over-estimating the steady-state achievable throughput
//! — at OFDM scales.

use crate::report::FigureReport;
use crate::scaled;
use crate::scenarios::FRAME;
use csmaprobe_core::link::{LinkConfig, WlanLink};
use csmaprobe_core::transient::{Columns, TransientExperiment};
use csmaprobe_desim::rng::derive_seed;
use csmaprobe_mac::measured_standalone_capacity_bps;
use csmaprobe_phy::Phy;
use csmaprobe_probe::train::TrainProbe;
use csmaprobe_traffic::probe::ProbeTrain;

/// Run the extension experiment.
pub fn run(scale: f64, seed: u64) -> FigureReport {
    let mut rep = FigureReport::new(
        "ext_ofdm",
        "Transient and short-train bias on an 802.11g OFDM channel (54 Mb/s)",
        "the CSMA/CA transient and the short-train optimism are not 802.11b \
         artifacts: both reproduce at OFDM timing",
        &["packet_index", "mean_access_delay_us"],
    );

    let phy = Phy::ofdm_g(54_000_000);
    let c = measured_standalone_capacity_bps(&phy, FRAME, 3000, seed ^ 0x0FD);
    rep.scalar("capacity_mbps", c / 1e6);

    // Contending cross-traffic at ~70% of capacity; probe at ~80%.
    let link = WlanLink::new(
        LinkConfig::default()
            .phy(phy.clone())
            .contending_bps(0.7 * c),
    );
    let exp = TransientExperiment {
        link: link.clone(),
        train: ProbeTrain::from_rate(200, FRAME, 0.8 * c),
        reps: scaled(1500, scale, 250),
        seed,
    };
    let data = exp.run_columns(Columns::DELAYS);
    let profile = data.mean_profile();
    let steady = data.steady_mean(100);
    rep.scalar("steady_mean_us", steady * 1e6);
    for (i, &mean_us) in profile.iter().take(60).enumerate() {
        rep.row(vec![(i + 1) as f64, mean_us * 1e6]);
    }

    rep.check(
        "first packet accelerated on OFDM too",
        profile[0] < 0.92 * steady,
        format!(
            "mu_1 = {:.1} us vs steady {:.1} us",
            profile[0] * 1e6,
            steady * 1e6
        ),
    );

    // Short-train optimism at saturating rate.
    let steady_rate = TrainProbe::new(1000, FRAME, 1.2 * c)
        .measure(&link, scaled(6, scale, 3), derive_seed(seed, 1))
        .output_rate_bps();
    let short_rate = TrainProbe::new(5, FRAME, 1.2 * c)
        .measure(&link, scaled(600, scale, 120), derive_seed(seed, 2))
        .output_rate_bps();
    rep.scalar("steady_B_mbps", steady_rate / 1e6);
    rep.scalar("train5_mbps", short_rate / 1e6);
    rep.check(
        "short trains over-estimate on OFDM too",
        short_rate > 1.05 * steady_rate,
        format!(
            "5-pkt {:.2} vs steady {:.2} Mb/s",
            short_rate / 1e6,
            steady_rate / 1e6
        ),
    );

    // The OFDM capacity itself is far below the nominal 54 Mb/s (MAC
    // overhead dominates) — the classic 802.11 efficiency observation.
    rep.check(
        "DCF overhead dominates at 54 Mb/s",
        c < 0.6 * 54e6,
        format!("C = {:.1} Mb/s of nominal 54", c / 1e6),
    );

    rep
}

#[cfg(test)]
mod tests {
    #[test]
    fn ofdm_extension_holds_at_small_scale() {
        let rep = super::run(0.3, 56);
        assert!(rep.all_passed(), "{}", rep.render());
    }
}
