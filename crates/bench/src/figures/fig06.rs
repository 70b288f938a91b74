//! Fig 6 — mean access delay versus probe packet number.
//!
//! NS2 setting: 1000-probe trains at 5 Mb/s against 4 Mb/s contending
//! cross-traffic, 25 000 repetitions; the figure plots the mean access
//! delay of packets 1..150. The first packets see clearly lower delays
//! (≈2.9 ms in the paper) than the steady plateau (≈3.7 ms).

use crate::report::FigureReport;
use crate::scaled;
use crate::scenarios::{self, FRAME};
use csmaprobe_core::transient::{Columns, TransientExperiment};
use csmaprobe_traffic::probe::ProbeTrain;

/// The Fig 6/7 experiment definition (shared scenario).
fn experiment_def(scale: f64, seed: u64, n: usize) -> TransientExperiment {
    TransientExperiment {
        link: scenarios::fig6_link(),
        train: ProbeTrain::from_rate(n, FRAME, 5e6),
        reps: scaled(2000, scale, 200),
        seed,
    }
}

/// Run the Fig 6/7 experiment in streaming-summary mode (per-index
/// moments, O(train length) memory), with the streamed p95 Fig 6 plots.
pub fn experiment(scale: f64, seed: u64, n: usize) -> csmaprobe_core::transient::TransientSummary {
    experiment_def(scale, seed, n).run_columns(Columns {
        queue: false,
        p95: true,
    })
}

/// Shared with fig07: the dense variant retaining raw per-index delay
/// samples (capped at [`scenarios::DENSE_SAMPLE_CAP`]) and nothing else.
pub fn experiment_dense(
    scale: f64,
    seed: u64,
    n: usize,
) -> csmaprobe_core::transient::TransientData {
    experiment_def(scale, seed, n).run_dense_columns(scenarios::DENSE_SAMPLE_CAP, Columns::DELAYS)
}

/// Run the experiment.
pub fn run(scale: f64, seed: u64) -> FigureReport {
    let mut rep = FigureReport::new(
        "fig06",
        "Mean access delay vs probe packet number",
        "mean access delay of the first packets is clearly below the steady plateau, \
         rising over the first tens of packets (paper: ~2.9 ms -> ~3.7 ms); the \
         streamed p95 tail shows the same transient above the mean",
        &[
            "packet_index",
            "mean_access_delay_ms",
            "p95_access_delay_ms",
        ],
    );

    let data = experiment(scale, seed, 400);
    let profile = data.mean_profile();
    let p95 = data.p95_profile();
    let steady = data.steady_mean(200);
    rep.scalar("steady_mean_ms", steady * 1e3);
    let steady_p95 = p95[200..].iter().sum::<f64>() / (p95.len() - 200) as f64;
    rep.scalar("steady_p95_ms", steady_p95 * 1e3);

    for (i, (mu, q)) in profile.iter().zip(&p95).take(150).enumerate() {
        rep.row(vec![(i + 1) as f64, mu * 1e3, q * 1e3]);
    }

    // Check 1: the first packet is accelerated.
    rep.check(
        "first packet below steady state",
        profile[0] < 0.92 * steady,
        format!(
            "mu_1 = {:.3} ms vs steady {:.3} ms",
            profile[0] * 1e3,
            steady * 1e3
        ),
    );

    // Check 2: monotone-ish rise over the first packets (packet 1 below
    // the level of packets 10-20).
    let early_plateau =
        profile[9..20.min(profile.len())].iter().sum::<f64>() / (20.min(profile.len()) - 9) as f64;
    rep.check(
        "delay rises over first packets",
        profile[0] < early_plateau,
        format!(
            "mu_1 = {:.3} ms vs mu_10..20 = {:.3} ms",
            profile[0] * 1e3,
            early_plateau * 1e3
        ),
    );

    // Check 3: packets beyond ~50 sit at the plateau.
    let late = profile[50..150].iter().sum::<f64>() / 100.0;
    rep.check(
        "plateau reached within 50 packets",
        (late - steady).abs() / steady < 0.05,
        format!(
            "mean mu_50..150 = {:.3} ms vs steady {:.3} ms",
            late * 1e3,
            steady * 1e3
        ),
    );

    // Check 4: the streamed p95 column is a real tail (above the mean
    // at steady state) and shows the same acceleration on packet 1.
    rep.check(
        "streamed p95 tail above mean and accelerated early",
        steady_p95 > steady && p95[0] < steady_p95,
        format!(
            "p95_1 = {:.3} ms, steady p95 = {:.3} ms (mean {:.3} ms)",
            p95[0] * 1e3,
            steady_p95 * 1e3,
            steady * 1e3
        ),
    );

    rep
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig06_shape_holds_at_small_scale() {
        let rep = super::run(0.2, 44);
        assert!(rep.all_passed(), "{}", rep.render());
    }
}
