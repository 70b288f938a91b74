//! Detecting the access-delay transient (the §4 methodology end to
//! end): replicate a probing train, track the per-packet access-delay
//! distribution, KS-test it against steady state, and measure the
//! transient length at the paper's tolerances.
//!
//! Run with: `cargo run --release --example transient_detection`

use csmaprobe::core::link::{LinkConfig, WlanLink};
use csmaprobe::core::transient::{Columns, TransientExperiment};
use csmaprobe::traffic::probe::ProbeTrain;

fn main() {
    // Fig 6 setting: probe 5 Mb/s against 4 Mb/s of contending
    // Poisson cross-traffic.
    let exp = TransientExperiment {
        link: WlanLink::new(LinkConfig::default().contending_bps(4e6)),
        train: ProbeTrain::from_rate(300, 1500, 5e6),
        reps: 1500,
        seed: 0x715A,
    };
    println!("running {} replications of a 300-packet train...", exp.reps);
    // Dense mode: the KS profile below needs raw per-index samples.
    // (`exp.run()` gives the O(train-length) streaming summary when
    // only mean profiles are needed.) Besides the delays this example
    // reads the contender's queue, so it asks for that column alone.
    let data = exp.run_dense_columns(
        25_000,
        Columns {
            queue: true,
            p95: false,
        },
    );

    let profile = data.mean_profile();
    let steady = data.steady_mean(150);
    println!("\npacket\tmean access delay (ms)");
    for i in [0, 1, 2, 4, 9, 19, 49, 99, 149] {
        println!("{}\t{:.4}", i + 1, profile[i] * 1e3);
    }
    println!("steady\t{:.4}", steady * 1e3);

    // KS profile: how many packets until the per-index distribution is
    // indistinguishable from steady state (95%)?
    let ks = data.ks_profile(150, 0.05);
    let first_accept = ks.iter().position(|o| !o.reject);
    println!(
        "\nKS: packet 1 statistic {:.4} (threshold {:.4}); first accepted index: {:?}",
        ks[0].statistic,
        ks[0].threshold,
        first_accept.map(|i| i + 1)
    );

    // The §4.1 transient length at the paper's two tolerances.
    for tol in [0.1, 0.01] {
        let est = data.transient_length(150, tol);
        println!(
            "transient length at tolerance {tol}: {:?} packets (sustained: {:?})",
            est.first_within.map(|i| i + 1),
            est.first_sustained.map(|i| i + 1)
        );
    }

    // The contending station's queue builds up over the same horizon.
    let q = data.queue_profile();
    println!(
        "\ncontending queue at probe packet 1: {:.2} pkts; at packet 100: {:.2} pkts",
        q[0], q[99]
    );
    println!("\nconsequence: the first packets of a probing train are biased samples —");
    println!("see examples/mser_truncation.rs for the warm-up-removal fix.");
}
