//! Fig 8 — KS-test evolution of the per-packet access-delay
//! distribution against steady state (top) and the mean queue size of
//! the contending node (bottom).
//!
//! Setting: probe 8 Mb/s, contending cross-traffic 2 Mb/s, 1000-packet
//! trains. The KS statistic starts above the 95 % threshold and decays
//! below it after ~10 packets, tracking the time the contending queue
//! takes to reach its stationary size.

use crate::report::FigureReport;
use crate::scaled;
use crate::scenarios::{self, FRAME};
use csmaprobe_core::transient::{Columns, TransientExperiment};
use csmaprobe_stats::ks::KsReference;
use csmaprobe_traffic::probe::ProbeTrain;

/// Run the experiment.
pub fn run(scale: f64, seed: u64) -> FigureReport {
    let mut rep = FigureReport::new(
        "fig08",
        "KS test vs steady state + contending queue size (probe 8 Mb/s, cross 2 Mb/s)",
        "KS statistic above the 95% threshold for the first packets, decaying below it \
         within ~10 packets; contending queue size stabilises on the same horizon",
        &[
            "packet_index",
            "ks_value",
            "ks_threshold_95",
            "mean_contending_queue",
            "p95_access_delay_ms",
        ],
    );

    let n = 1000;
    let exp = TransientExperiment {
        link: scenarios::fig8_link(),
        train: ProbeTrain::from_rate(n, FRAME, 8e6),
        reps: scaled(1000, scale, 150),
        seed,
    };
    // Dense mode: the KS profile needs raw per-index samples; the rows
    // also show the contender's queue and the streamed p95.
    let data = exp.run_dense_columns(
        scenarios::DENSE_SAMPLE_CAP,
        Columns {
            queue: true,
            p95: true,
        },
    );

    // Steady-state reference: the pooled delays of the last 500
    // indices, strided down so each per-index KS test stays cheap, and
    // sorted once for all of them.
    let pooled = data.steady_sample(500);
    let stride = (pooled.len() / 20_000).max(1);
    let strided: Vec<f64> = pooled.iter().step_by(stride).cloned().collect();
    let reference = KsReference::new(&strided);

    let queue_profile = data.queue_profile();
    let p95 = data.p95_profile();
    let show = 100;
    let mut first_below: Option<usize> = None;
    let mut ks1 = None;
    for (i, &queued) in queue_profile.iter().take(show).enumerate() {
        let ks = reference.test(data.delays.sample(i), 0.05);
        if i == 0 {
            ks1 = Some(ks);
        }
        if first_below.is_none() && !ks.reject {
            first_below = Some(i + 1);
        }
        rep.row(vec![
            (i + 1) as f64,
            ks.statistic,
            ks.threshold,
            queued,
            p95[i] * 1e3,
        ]);
    }

    rep.scalar(
        "first_packet_below_threshold",
        first_below.map(|v| v as f64).unwrap_or(f64::NAN),
    );

    // Check 1: packet 1 rejected.
    let ks1 = ks1.expect("the profile has a first packet");
    rep.check(
        "first packet off steady state",
        ks1.reject,
        format!("KS_1 = {:.4} > {:.4}", ks1.statistic, ks1.threshold),
    );

    // Check 2: the transient ends within tens of packets.
    rep.check(
        "KS decays below threshold within 30 packets",
        first_below.map(|v| v <= 30).unwrap_or(false),
        format!("first below at {:?}", first_below),
    );

    // Check 4: the streamed p95 access-delay tail rises from the first
    // packets to its stationary level on the same horizon the KS test
    // sees (the transient is a tail effect too, not just a mean shift).
    let p95_plateau = p95[40..show].iter().sum::<f64>() / (show - 40) as f64;
    rep.check(
        "streamed p95 access delay rises to its plateau",
        p95[0] < p95_plateau,
        format!(
            "p95_1 = {:.3} ms vs p95_40..100 = {:.3} ms",
            p95[0] * 1e3,
            p95_plateau * 1e3
        ),
    );

    // Check 3: contending queue grows to a stationary plateau.
    let early_q = queue_profile[0];
    let plateau: f64 = queue_profile[40..100].iter().sum::<f64>() / 60.0;
    let mid: f64 = queue_profile[10..20].iter().sum::<f64>() / 10.0;
    rep.check(
        "contending queue rises to a plateau",
        plateau > early_q && (mid - plateau).abs() / plateau < 0.35,
        format!("q_1 = {early_q:.2}, q_10..20 = {mid:.2}, plateau = {plateau:.2}"),
    );

    rep
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig08_shape_holds_at_small_scale() {
        let rep = super::run(0.25, 46);
        assert!(rep.all_passed(), "{}", rep.render());
    }
}
