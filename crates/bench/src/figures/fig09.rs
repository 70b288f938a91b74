//! Fig 9 — KS-test evolution in the complex case: probe at 0.5 Mb/s
//! against four contending stations with heterogeneous packet sizes
//! {40, 576, 1000, 1500} B and rates {0.1, 0.5, 0.75, 2} Mb/s.
//!
//! This mix offers ≈0.87 Erlang of channel airtime before the probe
//! starts, so the system operates near saturation and the probe's
//! extra load builds up slowly: a transitory regime of tens of packets
//! appears even at this low probing rate. The KS magnitude we measure
//! is smaller than the paper's (see EXPERIMENTS.md), so beyond the
//! significance test the checks also assert the scale-robust shape:
//! the first packet is the farthest from steady state and the KS
//! profile decays with the packet index.

use crate::report::FigureReport;
use crate::scaled;
use crate::scenarios::{self, FRAME};
use csmaprobe_core::transient::{Columns, TransientExperiment};
use csmaprobe_stats::ks::KsReference;
use csmaprobe_traffic::probe::ProbeTrain;

/// Run the experiment.
pub fn run(scale: f64, seed: u64) -> FigureReport {
    let mut rep = FigureReport::new(
        "fig09",
        "KS test vs steady state, 4 heterogeneous contending stations (probe 0.5 Mb/s)",
        "a transient of tens of packets exists even at low probe rate in a complex \
         multi-station mix; the first packet is the farthest from steady state",
        &["packet_index", "ks_value", "ks_threshold_95"],
    );

    let n = 200;
    let reps = scaled(4000, scale, 600);
    let exp = TransientExperiment {
        link: scenarios::fig9_link(),
        train: ProbeTrain::from_rate(n, FRAME, 0.5e6),
        reps,
        seed,
    };
    // Dense mode: the KS profile needs raw per-index samples.
    let data = exp.run_dense_columns(scenarios::DENSE_SAMPLE_CAP, Columns::DELAYS);

    let pooled = data.steady_sample(100);
    let stride = (pooled.len() / 20_000).max(1);
    let strided: Vec<f64> = pooled.iter().step_by(stride).cloned().collect();
    let reference = KsReference::new(&strided);

    let show = 50;
    let mut ks_values = Vec::with_capacity(show);
    for i in 0..show {
        let ks = reference.test(data.delays.sample(i), 0.05);
        ks_values.push(ks);
        rep.row(vec![(i + 1) as f64, ks.statistic, ks.threshold]);
    }

    let profile = data.mean_profile();
    let steady = data.steady_mean(100);
    rep.scalar("mu_first_ms", profile[0] * 1e3);
    rep.scalar("steady_mean_ms", steady * 1e3);
    rep.scalar("ks_first", ks_values[0].statistic);
    rep.scalar("reps", reps as f64);

    // Check 1: the first packet's mean access delay is accelerated.
    rep.check(
        "first packet accelerated",
        profile[0] < 0.97 * steady,
        format!(
            "mu_1 = {:.3} ms vs steady {:.3} ms",
            profile[0] * 1e3,
            steady * 1e3
        ),
    );

    // Check 2: the KS profile decays — early indices farther from
    // steady state than late ones.
    let early: f64 = ks_values[..3].iter().map(|k| k.statistic).sum::<f64>() / 3.0;
    let late: f64 = ks_values[show - 10..]
        .iter()
        .map(|k| k.statistic)
        .sum::<f64>()
        / 10.0;
    rep.check(
        "KS decays with packet index",
        early > late,
        format!("mean KS first 3 = {early:.4} vs last 10 shown = {late:.4}"),
    );

    // Check 3: statistical significance of the first packet's
    // deviation. The effect is smaller than in the paper's plot, so
    // detecting it needs replications; with enough of them, demand a
    // proper rejection, otherwise demand the first packet dominate the
    // profile.
    if reps >= 2500 {
        rep.check(
            "first packet off steady state (95% KS)",
            ks_values[0].reject,
            format!(
                "KS_1 = {:.4} vs threshold {:.4} at {reps} reps",
                ks_values[0].statistic, ks_values[0].threshold
            ),
        );
    } else {
        // At few hundred reps every statistic carries ~√(1/reps) noise,
        // and the max over 40 late indices is extreme-value inflated —
        // comparing against it is a coin flip. Demand instead that the
        // first packet clear the late-index noise *floor* (their mean),
        // the scale-robust form of "farthest from steady state".
        let late = &ks_values[10..];
        let mean_late = late.iter().map(|k| k.statistic).sum::<f64>() / late.len() as f64;
        rep.check(
            "first packet farthest from steady state",
            ks_values[0].statistic > 1.1 * mean_late,
            format!(
                "KS_1 = {:.4} vs mean KS_11.. = {mean_late:.4} ({reps} reps; \
                 significance requires scale >= 0.7)",
                ks_values[0].statistic
            ),
        );
    }

    rep
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig09_shape_holds_at_small_scale() {
        let rep = super::run(0.25, 47);
        assert!(rep.all_passed(), "{}", rep.render());
    }
}
