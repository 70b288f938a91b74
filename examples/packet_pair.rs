//! Packet pairs on CSMA/CA links (§7.3 / Fig 16): the classic capacity
//! technique stops measuring capacity and starts (over-)estimating the
//! achievable throughput.
//!
//! Run with: `cargo run --release --example packet_pair`

use csmaprobe::core::link::{LinkConfig, WiredLink, WlanLink};
use csmaprobe::desim::{derive_seed, outln};
use csmaprobe::probe::pair::PacketPairProbe;
use csmaprobe::probe::train::TrainProbe;

fn main() {
    // On a wired FIFO link, packet pairs measure capacity — the minimum
    // filter recovers C = 10 Mb/s exactly even under cross-traffic.
    let wired = WiredLink::new(10e6, 5e6);
    let m = PacketPairProbe::new(1500, 200).measure(&wired, 1);
    outln!(
        "wired link (C = 10 Mb/s, 5 Mb/s cross): pair mean {:.2} Mb/s, min-filter {:.2} Mb/s",
        m.rate_from_mean_bps() / 1e6,
        m.rate_from_min_bps() / 1e6
    );

    // On a WLAN link the pair tracks the achievable throughput instead,
    // and over-estimates it (Fig 16).
    outln!("\ncross_mbps\tfluid_B_mbps\tpair_mbps\tpair_minus_B");
    for k in 0..=10 {
        let cross = k as f64 * 1e6;
        let link = if cross > 0.0 {
            WlanLink::new(LinkConfig::default().contending_bps(cross))
        } else {
            WlanLink::new(LinkConfig::default())
        };
        // Actual achievable throughput: long saturating train.
        let fluid = TrainProbe::new(800, 1500, 10.5e6)
            .measure(&link, 5, derive_seed(3, k))
            .output_rate_bps();
        let pair = PacketPairProbe::new(1500, 300)
            .measure(&link, derive_seed(4, k))
            .rate_from_mean_bps();
        outln!(
            "{:.1}\t{:.3}\t{:.3}\t{:+.3}",
            cross / 1e6,
            fluid / 1e6,
            pair / 1e6,
            (pair - fluid) / 1e6
        );
    }
    outln!("\nthe pair estimate touches the DCF capacity only at zero cross-traffic and");
    outln!("sits above the fluid achievable throughput elsewhere — the §7.3 bias.");
}
