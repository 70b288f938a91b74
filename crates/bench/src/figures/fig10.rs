//! Fig 10 — estimated duration of the transitory (in packets) versus
//! offered cross-traffic load, at tolerances 0.1 and 0.01, with the
//! probing flow offering 1 Erlang.
//!
//! Tolerance interpretation: the paper states "the first packet whose
//! average access delay is within 0.1 or 0.01 of the steady-state
//! average value" with access delays on a millisecond scale; we read
//! the tolerances as **absolute milliseconds**. At scale 1 and the
//! default seed that reading peaks at 49 packets, at 0.5 Erlang, at
//! tolerance 0.1; the gap to the paper's ~150-packet peak is open. A
//! relative reading (10 %/1 %) yields the same shape at much smaller
//! values; both readings are reported (columns 2-3 absolute ms, 4-5
//! relative).
//!
//! Expected shape: the transient length peaks when the cross-traffic
//! load approaches its fair share (~0.5 Erlang with one contender,
//! where the contending queue is critically loaded and relaxes the
//! slowest), the 0.01 curve sits far above the 0.1 curve, and the
//! 0.1-tolerance length stays within ~150 packets.

use crate::report::FigureReport;
use crate::scaled;
use crate::scenarios::{self, FRAME};
use csmaprobe_core::link::{LinkConfig, WlanLink};
use csmaprobe_core::transient::{Columns, TransientExperiment};
use csmaprobe_desim::rng::derive_seed;
use csmaprobe_traffic::probe::ProbeTrain;

/// Run the experiment.
pub fn run(scale: f64, seed: u64) -> FigureReport {
    let mut rep = FigureReport::new(
        "fig10",
        "Transitory length vs offered cross-traffic load (probe at 1 Erlang)",
        "length peaks near the cross-traffic fair share; tolerance 0.01 lies far above \
         0.1; at 0.1 (ms) tolerance the transient stays within ~150 packets",
        &[
            "cross_load_erlang",
            "len_0.1ms_pkts",
            "len_0.01ms_pkts",
            "len_rel10pct_pkts",
            "len_rel1pct_pkts",
        ],
    );

    let c = scenarios::capacity_bps(FRAME);
    rep.scalar("capacity_mbps", c / 1e6);
    let n = 1000;
    let reps = scaled(1000, scale, 150);

    let loads: Vec<f64> = (1..=10).map(|k| k as f64 * 0.1).collect();
    let mut peak = (0.0f64, 0.0f64); // (load, length at 0.1 ms)
    for (k, &load) in loads.iter().enumerate() {
        let link = WlanLink::new(LinkConfig::default().contending_bps(load * c));
        let exp = TransientExperiment {
            link,
            train: ProbeTrain::from_rate(n, FRAME, c), // 1 Erlang offered probe load
            reps,
            seed: derive_seed(seed, k as u64),
        };
        let data = exp.run_columns(Columns::DELAYS);
        let len = |est: csmaprobe_stats::transient::TransientEstimate| {
            est.first_within.map(|v| (v + 1) as f64).unwrap_or(n as f64)
        };
        let abs01 = len(data.transient_length_abs(n / 4, 0.1e-3));
        let abs001 = len(data.transient_length_abs(n / 4, 0.01e-3));
        let rel10 = len(data.transient_length(n / 4, 0.1));
        let rel1 = len(data.transient_length(n / 4, 0.01));
        if abs01 > peak.1 {
            peak = (load, abs01);
        }
        rep.row(vec![load, abs01, abs001, rel10, rel1]);
    }

    rep.scalar("peak_load_tol0.1ms", peak.0);
    rep.scalar("peak_length_tol0.1ms", peak.1);

    // Check 1: 0.1 ms tolerance transient bounded by ~150 packets (the
    // paper's §4.1 bound), allowing Monte-Carlo noise headroom.
    let max01 = rep.rows.iter().map(|r| r[1]).fold(0.0f64, f64::max);
    rep.check(
        "tolerance 0.1 (ms) bounded by ~150 packets",
        max01 <= 200.0,
        format!("max length {max01}"),
    );

    // Check 2: tighter tolerance needs longer transients.
    let mean01: f64 = rep.rows.iter().map(|r| r[1]).sum::<f64>() / rep.rows.len() as f64;
    let mean001: f64 = rep.rows.iter().map(|r| r[2]).sum::<f64>() / rep.rows.len() as f64;
    rep.check(
        "0.01 tolerance needs longer transients",
        mean001 > 1.5 * mean01,
        format!("mean length {mean001:.1} (0.01 ms) vs {mean01:.1} (0.1 ms)"),
    );

    // Check 3: the transient peaks at an intermediate load (the
    // fair-share maximisation property), clearly above the extremes.
    let light = rep.rows[0][1];
    let heavy = rep.rows.last().unwrap()[1];
    rep.check(
        "transient maximal near the fair share",
        (0.3..=0.8).contains(&peak.0) && peak.1 >= light && peak.1 >= heavy,
        format!(
            "peak {} pkts at {} Erlang (vs {} at 0.1 E, {} at 1.0 E)",
            peak.1, peak.0, light, heavy
        ),
    );

    rep
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig10_shape_holds_at_small_scale() {
        let rep = super::run(0.15, 48);
        assert!(rep.all_passed(), "{}", rep.render());
    }
}
