//! The paper's §7.4 fix (Fig 17): treat the transient as a simulation
//! warm-up problem and truncate it with MSER-2 — better estimates from
//! the *same* 20-packet trains.
//!
//! Run with: `cargo run --release --example mser_truncation`

use csmaprobe::core::link::{LinkConfig, WlanLink};
use csmaprobe::desim::{derive_seed, outln};
use csmaprobe::probe::mser::MserProbe;
use csmaprobe::probe::train::TrainProbe;

fn main() {
    let link = WlanLink::new(LinkConfig::default().contending_bps(4.5e6));

    outln!("20-packet trains vs steady state, with and without MSER-2 truncation");
    outln!("ri_mbps\tsteady\traw20\tmser2\tcut_pkts");
    let mut raw_err = 0.0;
    let mut cor_err = 0.0;
    for k in 1..=10 {
        let ri = k as f64 * 1e6;
        let steady = TrainProbe::new(1000, 1500, ri)
            .measure(&link, 5, derive_seed(11, k))
            .output_rate_bps();
        let m = MserProbe::new(20, 1500, ri, 2).measure(&link, 400, derive_seed(12, k));
        outln!(
            "{:.1}\t{:.3}\t{:.3}\t{:.3}\t{:.1}",
            ri / 1e6,
            steady / 1e6,
            m.raw_rate_bps() / 1e6,
            m.corrected_rate_bps() / 1e6,
            m.mean_truncated
        );
        if ri >= 4e6 {
            raw_err += (m.raw_rate_bps() - steady).abs();
            cor_err += (m.corrected_rate_bps() - steady).abs();
        }
    }
    outln!(
        "\nsummed |error| beyond the knee: raw {:.3} Mb/s -> MSER-2 {:.3} Mb/s",
        raw_err / 1e6,
        cor_err / 1e6
    );
    outln!("accuracy improves with no extra probing traffic — the transient packets");
    outln!("flagged by MSER are simply removed from the dispersion average.");
}
