//! The §7.2 consequence: available-bandwidth tools built on the FIFO
//! rate-response model measure *available bandwidth* on wired paths
//! but *achievable throughput* on CSMA/CA links — and those two
//! metrics can sit far apart.
//!
//! Run with: `cargo run --release --example wired_vs_wireless`

use csmaprobe::core::link::{LinkConfig, WiredLink, WlanLink};
use csmaprobe::desim::outln;
use csmaprobe::mac::measured_standalone_capacity_bps;
use csmaprobe::phy::Phy;
use csmaprobe::probe::slops::SlopsEstimator;
use csmaprobe::probe::train::TrainProbe;

fn main() {
    let tool = SlopsEstimator {
        n: 200,
        reps: 8,
        ..Default::default()
    };

    // Wired: C = 10 Mb/s, 4 Mb/s cross ⇒ A = 6 Mb/s. The tool finds A.
    let wired = WiredLink::new(10e6, 4e6);
    let wired_result = tool.run(&wired, 31);
    outln!(
        "wired FIFO link:   true A = {:.2} Mb/s, tool estimate = {:.2} Mb/s",
        wired.available_bps() / 1e6,
        wired_result.estimate_bps / 1e6
    );

    // WLAN: C ≈ 6.2 Mb/s, 4.5 Mb/s contending cross ⇒ A ≈ 1.7 Mb/s,
    // but the fair share is B ≈ 3.3 Mb/s. The SAME tool now reports B.
    let phy = Phy::dsss_11mbps();
    let c = measured_standalone_capacity_bps(&phy, 1500, 3000, 1);
    let wlan = WlanLink::new(LinkConfig::default().contending_bps(4.5e6));
    let b = TrainProbe::new(1000, 1500, 10e6)
        .measure(&wlan, 6, 33)
        .output_rate_bps();
    let wlan_result = tool.run(&wlan, 35);
    outln!(
        "CSMA/CA link:      C = {:.2}, A = {:.2}, fair share B = {:.2} Mb/s",
        c / 1e6,
        (c - 4.5e6) / 1e6,
        b / 1e6
    );
    outln!(
        "                   tool estimate = {:.2} Mb/s  <-- lands on B, not A",
        wlan_result.estimate_bps / 1e6
    );

    outln!("\nsearch trace (rate probed -> ro/ri -> congested?):");
    for (rate, ratio, congested) in &wlan_result.trace {
        outln!(
            "  {:>6.2} Mb/s -> {:.3} -> {}",
            rate / 1e6,
            ratio,
            if *congested { "congested" } else { "clear" }
        );
    }
}
