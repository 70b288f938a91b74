//! Quickstart: build a WLAN link, measure its steady-state operating
//! point and probe it with a short train — the 60-second tour of the
//! library.
//!
//! Run with: `cargo run --release --example quickstart`

use csmaprobe::core::link::{LinkConfig, WlanLink};
use csmaprobe::desim::outln;
use csmaprobe::mac::BianchiModel;
use csmaprobe::phy::Phy;
use csmaprobe::probe::train::TrainProbe;

fn main() {
    // The paper's testbed: 802.11b at 11 Mb/s, long preamble, no
    // RTS/CTS, 1500-byte frames.
    let phy = Phy::dsss_11mbps();
    outln!("PHY: 11 Mb/s DSSS — DIFS {}, slot {}", phy.difs(), phy.slot);
    outln!(
        "stand-alone capacity C ≈ {:.2} Mb/s (paper: ~6.5 on its testbed)",
        phy.standalone_capacity_bps(1500) / 1e6
    );

    // Analytical cross-check: Bianchi's model for 2 saturated stations.
    let bianchi = BianchiModel::solve(&phy, 2, 1500);
    outln!(
        "Bianchi n=2: p = {:.3}, aggregate {:.2} Mb/s, fair share {:.2} Mb/s",
        bianchi.p,
        bianchi.throughput_bps / 1e6,
        bianchi.fair_share_bps / 1e6
    );

    // A link with one contending station offering 4.5 Mb/s of Poisson
    // cross-traffic (the paper's Fig 1 setting: A ≈ 2, B ≈ 3.4 Mb/s).
    let link = WlanLink::new(LinkConfig::default().contending_bps(4_500_000.0));

    // Steady state at ri = 5 Mb/s: the probe only gets its fair share.
    let pt = link.steady_state(5e6, csmaprobe::desim::Dur::from_secs(6), 0xC0FFEE);
    outln!(
        "\nsteady state @ ri = 5 Mb/s: probe {:.2} Mb/s, cross {:.2} Mb/s",
        pt.output_rate_bps / 1e6,
        pt.contending_bps[0] / 1e6
    );

    // The same rate probed with a short train over-estimates: the first
    // packets ride the access-delay transient (the paper's headline
    // result).
    for n in [3, 10, 50, 400] {
        let m = TrainProbe::new(n, 1500, 5e6).measure(&link, 200.min(4000 / n), 7);
        outln!(
            "{n:>4}-packet train: L/E[gO] = {:.2} Mb/s (±{:.2})",
            m.output_rate_bps() / 1e6,
            m.gap_ci95_s() * m.output_rate_bps() / m.mean_output_gap_s() / 1e6
        );
    }
    outln!(
        "\nshorter trains → more optimistic estimates; see examples/mser_truncation.rs for the fix"
    );
}
