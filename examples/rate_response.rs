//! Rate-response curves, steady-state vs short trains (the Figs 13/15
//! experiment as a library walkthrough).
//!
//! Prints a TSV table: input rate, steady-state response, and the
//! dispersion-inferred response of 3/10/50-packet trains, first on a
//! contention-only link and then with FIFO cross-traffic sharing the
//! probe's queue.
//!
//! Run with: `cargo run --release --example rate_response`

use csmaprobe::core::link::{LinkConfig, WlanLink};
use csmaprobe::core::rate_response::achievable_from_curve;
use csmaprobe::desim::{derive_seed, outln};
use csmaprobe::probe::train::TrainProbe;

/// Print the table and return the steady-state `(ri, ro)` curve.
fn sweep(link: &WlanLink, label: &str) -> Vec<(f64, f64)> {
    outln!("## {label}");
    outln!("ri_mbps\tsteady\ttrain3\ttrain10\ttrain50");
    let mut curve = Vec::new();
    for k in 1..=10 {
        let ri = k as f64 * 1e6;
        let steady = TrainProbe::new(1000, 1500, ri)
            .measure(link, 4, derive_seed(1, k))
            .output_rate_bps();
        let mut row = format!("{:.1}\t{:.3}", ri / 1e6, steady / 1e6);
        for (j, n) in [3usize, 10, 50].into_iter().enumerate() {
            let m = TrainProbe::new(n, 1500, ri).measure(
                link,
                (1500 / n).max(20),
                derive_seed(2, (j * 10 + k as usize) as u64),
            );
            row += &format!("\t{:.3}", m.output_rate_bps() / 1e6);
        }
        outln!("{row}");
        curve.push((ri, steady));
    }
    curve
}

fn main() {
    // Part I (Fig 13): contention only.
    let contention_only = WlanLink::new(LinkConfig::default().contending_bps(4.5e6));
    let steady = sweep(&contention_only, "no FIFO cross-traffic (Fig 13 scenario)");

    // The eq (2) achievable throughput from the steady-state column.
    outln!(
        "# achievable throughput B (eq 2, 5% tolerance): {:.2} Mb/s\n",
        achievable_from_curve(&steady, 0.05) / 1e6
    );

    // Part II (Fig 15): FIFO cross-traffic reintroduced.
    let complete = WlanLink::new(
        LinkConfig::default()
            .contending_bps(3e6)
            .fifo_cross_bps(1.5e6),
    );
    sweep(&complete, "with FIFO cross-traffic (Fig 15 scenario)");
    outln!("# note the knee below the no-FIFO case: B = Bf(1 - u_fifo), eq (5)");
}
