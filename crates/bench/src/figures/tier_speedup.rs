//! Tier speedup — what the analytic tier buys: wall-clock time of the
//! simulator vs the analytic tier on representative steady-state
//! cells, and across a finite-load rate-response sweep.
//!
//! Timings go into the report's non-deterministic `wallclock` channel,
//! never into the deterministic rows: `tests/determinism.rs` compares
//! `experiments.json` byte-for-byte modulo exactly those fields. The
//! pass/fail checks only assert *robust* margins — the analytic tier
//! replaces a multi-second simulation with a fixed-point solve, so its
//! ≥10× margin holds on any host. Check outcomes are part of the
//! byte-compared deterministic payload, so no check may gate on a
//! host-dependent timing: a sub-millisecond margin flips under the
//! determinism suite's 8× oversubscribed leg. The benchmark
//! (`perfbench/run.py`) is what watches for wall-clock regressions.

use crate::report::FigureReport;
use crate::tier::regime_matrix;
use csmaprobe_core::engine::{self, EngineTier};
use csmaprobe_core::link::{LinkConfig, SteadyPoint, WlanLink};
use csmaprobe_desim::time::Dur;

/// Analytic solves per timed cell; the cell's time is their minimum.
const ANALYTIC_SOLVES: usize = 5;

/// Whether two steady points carry the same output and contending
/// rates, bit for bit.
fn same_bits(a: &SteadyPoint, b: &SteadyPoint) -> bool {
    a.output_rate_bps.to_bits() == b.output_rate_bps.to_bits()
        && a.contending_bps.len() == b.contending_bps.len()
        && a.contending_bps
            .iter()
            .zip(&b.contending_bps)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Run the experiment. `scale` multiplies measurement duration.
pub fn run(scale: f64, seed: u64) -> FigureReport {
    let mut rep = FigureReport::new(
        "tier_speedup",
        "Wall-clock speedup of the analytic tier over the simulator",
        "analytic tier >= 10x faster than the simulator on saturated cells \
         (the 10-100x tiering claim)",
        &["contenders", "ri_mbps", "event_mbps", "analytic_mbps"],
    );

    let duration = Dur::from_secs_f64((6.0 * scale).clamp(0.6, 30.0));
    let mut analytic_speedup_min = f64::INFINITY;

    for r in regime_matrix() {
        // Only analytic-covered cells have a faster tier to time; the
        // router leaves the rest on the simulator.
        if !r.covered_by(EngineTier::Analytic) {
            continue;
        }
        let (event, event_s) = r
            .timed_steady(EngineTier::Event, duration, seed)
            .expect("the simulator covers everything");
        // One solve takes microseconds, so a single preemption during it
        // could outlast a tenth of the simulation: time the fastest of
        // `ANALYTIC_SOLVES`, which must all give the same point.
        let (point, mut fast_s) = r
            .timed_steady(EngineTier::Analytic, duration, seed)
            .expect("covered");
        for _ in 1..ANALYTIC_SOLVES {
            let (again, s) = r
                .timed_steady(EngineTier::Analytic, duration, seed)
                .expect("covered");
            assert!(
                same_bits(&again, &point),
                "{}: analytic re-solve differs",
                r.name
            );
            fast_s = fast_s.min(s);
        }

        let speedup = event_s / fast_s.max(1e-9);
        rep.wallclock(&format!("{}_event_s", r.name), event_s);
        rep.wallclock(&format!("{}_fast_s", r.name), fast_s);
        rep.wallclock(&format!("{}_speedup", r.name), speedup);

        // Only the saturated cells enter the gated minimum: there the
        // simulator must run seconds of a fully loaded channel, so the
        // 100-200x margin is structural. The finite-load cells simulate
        // mostly idle air — the simulator finishes them in fractions of
        // a millisecond, and their 0.3-10x factors are trajectory data
        // (wallclock channel), not a robust gate.
        if engine::saturation_covers(r.link.config(), r.ri_bps) {
            analytic_speedup_min = analytic_speedup_min.min(speedup);
        }

        rep.row(vec![
            r.contenders as f64,
            r.ri_bps / 1e6,
            event.output_rate_bps / 1e6,
            point.output_rate_bps / 1e6,
        ]);
    }

    // ---- finite-load rate-response sweep leg: the paper's Fig 1 curve
    // across the knee (probe 0.5–6 Mb/s vs one 4.5 Mb/s Poisson
    // contender), simulated vs the analytic route the router takes on
    // these cells. Hard gates are deterministic: every swept cell must
    // carry the fixed point's convergence certificate, and the
    // analytic points must be bit-reproducible run-to-run. The
    // sweep speedup itself is wallclock-channel data only: light
    // finite-load cells simulate mostly idle air, so the event core is
    // fast there and the measured factor is host-dependent — gating on
    // it would violate the deterministic-check doctrine above. ----
    let sweep_link = WlanLink::new(LinkConfig::default().contending_bps(4_500_000.0));
    let sweep_rates: Vec<f64> = (1..=12).map(|k| k as f64 * 500_000.0).collect();
    let mut sweep_certified = true;
    let t0 = std::time::Instant::now();
    let event_pts: Vec<SteadyPoint> = sweep_rates
        .iter()
        .map(|&ri| sweep_link.steady_state_event(ri, duration, seed))
        .collect();
    let sweep_event_s = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    let auto_pts: Vec<SteadyPoint> = sweep_rates
        .iter()
        .map(|&ri| {
            sweep_certified &= engine::analytic_covers(sweep_link.config(), ri);
            sweep_link.steady_state_analytic(ri)
        })
        .collect();
    let sweep_analytic_s = t0.elapsed().as_secs_f64();
    let sweep_speedup = sweep_event_s / sweep_analytic_s.max(1e-9);
    rep.wallclock("nonsat_sweep_event_s", sweep_event_s);
    rep.wallclock("nonsat_sweep_analytic_s", sweep_analytic_s);
    rep.wallclock("nonsat_sweep_speedup", sweep_speedup);
    let sweep_repro = sweep_rates
        .iter()
        .zip(&auto_pts)
        .all(|(&ri, p)| same_bits(&sweep_link.steady_state_analytic(ri), p));
    for (ri, (e, a)) in sweep_rates.iter().zip(event_pts.iter().zip(&auto_pts)) {
        rep.row(vec![
            1.0,
            ri / 1e6,
            e.output_rate_bps / 1e6,
            a.output_rate_bps / 1e6,
        ]);
    }
    rep.check(
        "analytic tier at least 10x faster than event core",
        analytic_speedup_min >= 10.0,
        "margin is structural on the saturated cells (fixed-point solve vs seconds \
         of fully loaded channel simulation; measured 100-200x); finite-load cell \
         and knee-sweep factors are host-dependent and live in the wallclock field \
         only"
            .into(),
    );
    rep.check(
        "knee sweep: every finite-load cell carries the convergence certificate",
        sweep_certified,
        format!(
            "{} rate points across the knee, all analytic-covered \
             (auto routes the whole curve off the simulator)",
            sweep_rates.len()
        ),
    );
    rep.check(
        "knee sweep: analytic points bit-reproducible",
        sweep_repro,
        "fixed point re-solved per cell, outputs compared by bits".into(),
    );

    rep
}

#[cfg(test)]
mod tests {
    #[test]
    fn tier_speedup_holds_at_small_scale() {
        let rep = super::run(0.25, 9);
        assert!(rep.all_passed(), "{}", rep.render());
    }
}
