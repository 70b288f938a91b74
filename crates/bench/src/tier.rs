//! The engine-tier regime matrix: named steady-state cells spanning
//! offered load × station count × coverage class, with explicit
//! per-tier execution.
//!
//! The router (`csmaprobe_core::engine`) picks the tier that serves a
//! cell; this module instead runs a cell on a **named** tier so the
//! tier-equivalence and tier-speedup figures (and the fixed-point
//! tolerance rows in `tests/tier_equivalence.rs`) can compare the
//! analytic tier with the simulator side by side.

use csmaprobe_core::engine::{self, EngineTier};
use csmaprobe_core::link::{CrossShape, CrossSpec, LinkConfig, SteadyPoint, WlanLink};
use csmaprobe_desim::time::Dur;

use crate::scenarios::FRAME;

/// One steady-state cell of the tier matrix.
pub struct TierRegime {
    /// Short identifier used in figure rows and the equivalence table.
    pub name: &'static str,
    /// The link under test.
    pub link: WlanLink,
    /// Probe offered rate, bits/s.
    pub ri_bps: f64,
    /// Number of contending stations (excluding the probe station).
    pub contenders: usize,
}

impl TierRegime {
    fn new(name: &'static str, cfg: LinkConfig, ri_bps: f64) -> Self {
        let contenders = cfg.contending.len();
        TierRegime {
            name,
            link: WlanLink::new(cfg),
            ri_bps,
            contenders,
        }
    }

    /// Does `tier` cover this cell? ([`EngineTier::Event`] covers
    /// everything; the retired [`EngineTier::Slotted`] covers nothing.)
    pub fn covered_by(&self, tier: EngineTier) -> bool {
        match tier {
            EngineTier::Event => true,
            EngineTier::Slotted => false,
            EngineTier::Analytic => engine::analytic_covers(self.link.config(), self.ri_bps),
        }
    }

    /// Run this cell on an explicit tier. Returns `None` when the tier
    /// does not cover the cell (the router would fall back to the
    /// simulator there).
    pub fn steady_with_tier(
        &self,
        tier: EngineTier,
        duration: Dur,
        seed: u64,
    ) -> Option<SteadyPoint> {
        if !self.covered_by(tier) {
            return None;
        }
        Some(match tier {
            EngineTier::Analytic => self.link.steady_state_analytic(self.ri_bps),
            _ => self.link.steady_state_event(self.ri_bps, duration, seed),
        })
    }

    /// Run the cell on `tier` and report `(point, wall_clock_seconds)`.
    pub fn timed_steady(
        &self,
        tier: EngineTier,
        duration: Dur,
        seed: u64,
    ) -> Option<(SteadyPoint, f64)> {
        let t0 = std::time::Instant::now();
        let p = self.steady_with_tier(tier, duration, seed)?;
        Some((p, t0.elapsed().as_secs_f64()))
    }
}

/// The regime matrix the tier figures sweep: offered loads below /
/// around / above the fair share, with and without FIFO cross-traffic,
/// saturated symmetric cells (`analytic-*`, served by the Bianchi
/// model) and the finite-load cells of the non-saturated fixed point's
/// certified matrix (`nonsat-*`: sub-knee / knee / above-knee loads at
/// 2–10 stations). `fifo-1` and `mixed-2` (CBR contender) are the
/// simulation-only shapes.
pub fn regime_matrix() -> Vec<TierRegime> {
    vec![
        // Light load, one Poisson contender: identity region.
        TierRegime::new(
            "light-1",
            LinkConfig::default().contending_bps(2_000_000.0),
            1_000_000.0,
        ),
        // The Fig 1 knee: probe pushed past the available bandwidth.
        TierRegime::new(
            "knee-1",
            LinkConfig::default().contending_bps(4_500_000.0),
            3_000_000.0,
        ),
        // Complete picture: contending + FIFO cross sharing the probe
        // queue (the Fig 4 topology). Simulation only.
        TierRegime::new(
            "fifo-1",
            LinkConfig::default()
                .contending_bps(3_000_000.0)
                .fifo_cross_bps(1_500_000.0),
            2_000_000.0,
        ),
        // Heterogeneous CBR + Poisson contenders, probe saturating.
        TierRegime::new(
            "mixed-2",
            LinkConfig::default()
                .contending_bps(2_000_000.0)
                .contending(CrossSpec::shaped(1_000_000.0, CrossShape::Cbr)),
            9_000_000.0,
        ),
        // Saturated symmetric cells — the saturation model's home turf.
        TierRegime::new(
            "analytic-2",
            LinkConfig::default().contending(CrossSpec::poisson_sized(12_000_000.0, FRAME)),
            12_000_000.0,
        ),
        TierRegime::new(
            "analytic-4",
            LinkConfig::default()
                .contending(CrossSpec::poisson_sized(12_000_000.0, FRAME))
                .contending(CrossSpec::poisson_sized(12_000_000.0, FRAME))
                .contending(CrossSpec::poisson_sized(12_000_000.0, FRAME)),
            12_000_000.0,
        ),
        // Finite-load cells — the non-saturated fixed point's regime
        // matrix (sub-knee / knee / above-knee × station count, names
        // counting total stations as in bianchi_nonsat_oracle.rs).
        TierRegime::new(
            "nonsat-sub-2",
            LinkConfig::default().contending_bps(2_000_000.0),
            1_000_000.0,
        ),
        TierRegime::new(
            "nonsat-knee-2",
            LinkConfig::default().contending_bps(4_500_000.0),
            1_000_000.0,
        ),
        TierRegime::new(
            "nonsat-above-2",
            LinkConfig::default().contending_bps(4_500_000.0),
            9_000_000.0,
        ),
        TierRegime::new(
            "nonsat-sub-5",
            {
                let mut cfg = LinkConfig::default();
                for _ in 0..4 {
                    cfg = cfg.contending_bps(700_000.0);
                }
                cfg
            },
            700_000.0,
        ),
        TierRegime::new(
            "nonsat-knee-5",
            {
                let mut cfg = LinkConfig::default();
                for _ in 0..4 {
                    cfg = cfg.contending_bps(1_200_000.0);
                }
                cfg
            },
            1_500_000.0,
        ),
        TierRegime::new(
            "nonsat-above-10",
            {
                let mut cfg = LinkConfig::default();
                for _ in 0..9 {
                    cfg = cfg.contending_bps(550_000.0);
                }
                cfg
            },
            4_000_000.0,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_exercises_every_tier() {
        let regimes = regime_matrix();
        assert!(regimes.iter().all(|r| r.covered_by(EngineTier::Event)));
        assert!(!regimes.iter().any(|r| r.covered_by(EngineTier::Slotted)));
        let analytic: Vec<&str> = regimes
            .iter()
            .filter(|r| r.covered_by(EngineTier::Analytic))
            .map(|r| r.name)
            .collect();
        // `light-1`/`knee-1` are Poisson finite-load shapes, so the
        // non-saturated fixed point now covers them too; `fifo-1` and
        // `mixed-2` (CBR contender) remain simulation-only.
        assert_eq!(
            analytic,
            [
                "light-1",
                "knee-1",
                "analytic-2",
                "analytic-4",
                "nonsat-sub-2",
                "nonsat-knee-2",
                "nonsat-above-2",
                "nonsat-sub-5",
                "nonsat-knee-5",
                "nonsat-above-10",
            ]
        );
        // The `nonsat-*` cells must reach the finite-load model (not
        // the saturation model the dispatch prefers when both cover).
        for r in &regimes {
            let cfg = r.link.config();
            let sat = engine::saturation_covers(cfg, r.ri_bps);
            let nonsat = engine::nonsat_certified(cfg, r.ri_bps);
            if r.name.starts_with("nonsat-") {
                assert!(nonsat && !sat, "{} should be finite-load-covered", r.name);
            }
            if r.name.starts_with("analytic-") {
                assert!(sat, "{} should be saturation-covered", r.name);
            }
        }
    }

    #[test]
    fn uncovered_tier_returns_none() {
        let regimes = regime_matrix();
        let fifo = regimes.iter().find(|r| r.name == "fifo-1").unwrap();
        assert!(fifo
            .steady_with_tier(EngineTier::Analytic, Dur::from_secs_f64(0.1), 1)
            .is_none());
    }

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for r in regime_matrix() {
            assert!(seen.insert(r.name), "duplicate regime {}", r.name);
        }
    }
}
