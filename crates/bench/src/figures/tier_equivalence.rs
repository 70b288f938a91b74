//! Tier equivalence — the engine-stack contract, as a figure: across
//! the steady-state regime matrix the analytic tier lands within its
//! documented 5 % band of the simulator — the Bianchi model on
//! saturated symmetric cells, the non-saturated fixed point on the
//! certified finite-load cells.
//!
//! The analytic comparison for finite-load cells runs a seed-averaged
//! event mean: a fixed point is a long-run expectation, while one
//! finite Poisson window carries several percent of arrival noise, so
//! gating on a single seed would measure the simulator's variance
//! rather than the model's error.
//!
//! This is the cheap, always-regenerated companion of the tolerance
//! rows in `tests/tier_equivalence.rs`: it publishes the per-regime
//! deltas into `EXPERIMENTS.md`.

use crate::report::FigureReport;
use crate::tier::regime_matrix;
use csmaprobe_core::engine::{self, EngineTier};
use csmaprobe_desim::time::Dur;

fn total_mbps(p: &csmaprobe_core::link::SteadyPoint) -> f64 {
    (p.output_rate_bps + p.contending_bps.iter().sum::<f64>() + p.fifo_cross_bps) / 1e6
}

/// Event seeds averaged into the analytic comparison on finite-load
/// cells (the first one is also the single-seed reference elsewhere).
const EVENT_REPS: u64 = 8;

/// Run the experiment. `scale` multiplies measurement duration.
pub fn run(scale: f64, seed: u64) -> FigureReport {
    let mut rep = FigureReport::new(
        "tier_equivalence",
        "Analytic tier vs the simulator across the regime matrix",
        "analytic tier within 5% of the simulator on saturated symmetric cells \
         and certified finite-load cells (seed-averaged event mean)",
        &[
            "contenders",
            "ri_mbps",
            "event_mbps",
            "analytic_mbps",
            "analytic_rel_err",
        ],
    );

    let duration = Dur::from_secs_f64((4.0 * scale).clamp(0.4, 30.0));
    let regimes = regime_matrix();

    let mut sat_ok = true;
    let mut sat_worst = 0.0f64;
    let mut nonsat_ok = true;
    let mut nonsat_worst = 0.0f64;

    for r in &regimes {
        let event = r
            .steady_with_tier(EngineTier::Event, duration, seed)
            .expect("the simulator covers everything");
        let analytic = r.steady_with_tier(EngineTier::Analytic, duration, seed);

        // Which analytic model serves this cell decides the event
        // reference: saturated cells are load-independent (one seed is
        // representative); finite-load cells compare against a
        // seed-averaged event mean.
        let saturated = engine::saturation_covers(r.link.config(), r.ri_bps);
        let event_ref = if analytic.is_some() && !saturated {
            let mut acc = total_mbps(&event);
            for k in 1..EVENT_REPS {
                let p = r
                    .steady_with_tier(EngineTier::Event, duration, seed + k)
                    .expect("the simulator covers everything");
                acc += total_mbps(&p);
            }
            acc / EVENT_REPS as f64
        } else {
            total_mbps(&event)
        };
        let analytic_rel = analytic.as_ref().map(|a| {
            let rel = (total_mbps(a) - event_ref).abs() / event_ref;
            if saturated {
                sat_worst = sat_worst.max(rel);
                sat_ok &= rel < 0.05;
            } else {
                nonsat_worst = nonsat_worst.max(rel);
                nonsat_ok &= rel < 0.05;
            }
            rel
        });

        rep.row(vec![
            r.contenders as f64,
            r.ri_bps / 1e6,
            event_ref,
            analytic.as_ref().map(total_mbps).unwrap_or(f64::NAN),
            analytic_rel.unwrap_or(f64::NAN),
        ]);
    }

    rep.scalar("regimes", regimes.len() as f64);
    rep.scalar("analytic_worst_rel_err", sat_worst.max(nonsat_worst));
    rep.scalar("nonsat_worst_rel_err", nonsat_worst);

    rep.check(
        "analytic tier within 5% on saturated cells",
        sat_ok,
        format!("worst relative error {sat_worst:.4}"),
    );
    rep.check(
        "finite-load fixed point within 5% of the seed-averaged event mean",
        nonsat_ok,
        format!("worst relative error {nonsat_worst:.4}"),
    );

    rep
}

#[cfg(test)]
mod tests {
    #[test]
    fn tier_equivalence_holds_at_small_scale() {
        let rep = super::run(0.25, 7);
        assert!(rep.all_passed(), "{}", rep.render());
    }
}
