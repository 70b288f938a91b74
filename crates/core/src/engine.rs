//! The **tiered DCF engine** selector: route each measurement cell to
//! the cheapest engine tier whose documented error bound covers it.
//!
//! Two tiers exist:
//!
//! | tier | implementation | covers |
//! |------|----------------|--------|
//! | `Event` | [`csmaprobe_mac::WlanSim`] | everything (the one DCF kernel) |
//! | `Analytic` | [`csmaprobe_mac::BianchiModel`] / [`csmaprobe_mac::NonSatModel`] | saturated symmetric cells / certified Poisson finite-load cells |
//!
//! The analytic tier replaces simulation entirely and is only trusted
//! for throughput scalars, within the tolerances pinned by
//! `crates/mac/tests/bianchi_oracle.rs` (saturated symmetric cells,
//! ±5 %) and `crates/mac/tests/bianchi_nonsat_oracle.rs` (certified
//! Poisson finite-load cells, ±5 %); the finite-load fixed point
//! additionally requires its per-cell convergence certificate
//! ([`nonsat_certified`]), so an unconverged cell can never leave the
//! simulator. Every other cell — every probe train, probe sequence and
//! uncovered steady cell — runs on `WlanSim`.
//!
//! # Selection
//!
//! Routing is a pure function of the cell: a steady-state cell runs on
//! the analytic tier exactly when [`analytic_covers`] holds.

use crate::link::{CrossShape, LinkConfig};
use csmaprobe_mac::{NonSatModel, NonSatStation};

/// One engine tier, cheapest-to-most-expensive ordering not implied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineTier {
    /// The DCF simulator (`WlanSim`).
    Event,
    /// Retired: the slot-quantised kernel this named is gone and no
    /// route returns it. The variant stays only because the benchmark's
    /// per-layer replay names it. Delete with the next benchmark
    /// revision.
    Slotted,
    /// Closed-form Bianchi saturation model.
    Analytic,
}

/// Structural preconditions shared by both analytic models: no FIFO
/// cross-traffic in the probe queue, at least one contender, and none
/// of the MAC ablations (frame errors, RTS/CTS) the fixed points do
/// not model.
fn analytic_shape_ok(cfg: &LinkConfig) -> bool {
    cfg.fifo_cross.is_none()
        && !cfg.contending.is_empty()
        && cfg.mac.frame_error_rate == 0.0
        && !cfg.mac.uses_rts(cfg.probe_bytes)
}

/// Whether the **saturation** (Bianchi) model's error bound covers a
/// steady-state cell at probe input rate `ri_bps`: the cell must be a
/// **fully saturated symmetric** collision domain — every station
/// (probe included) offers at least the stand-alone capacity of its
/// frame size, all frames are the probe size, no FIFO cross-traffic
/// shares the probe queue, and none of the MAC ablations (frame
/// errors, RTS/CTS) are active.
pub fn saturation_covers(cfg: &LinkConfig, ri_bps: f64) -> bool {
    if !analytic_shape_ok(cfg) {
        return false;
    }
    let capacity = cfg.phy.standalone_capacity_bps(cfg.probe_bytes);
    if ri_bps < capacity {
        return false;
    }
    cfg.contending.iter().all(|s| {
        matches!(s.shape, CrossShape::Poisson | CrossShape::Cbr)
            && s.bytes == cfg.probe_bytes
            && s.rate_bps >= capacity
    })
}

/// Whether the **finite-load** fixed point
/// ([`csmaprobe_mac::NonSatModel`]) structurally covers a steady-state
/// cell: the measured ±5 % throughput tolerance table
/// (`crates/mac/tests/bianchi_nonsat_oracle.rs`) describes cells with
/// **Poisson** contenders of the probe's frame size, 2–10 stations
/// total, positive offered loads, and the same no-FIFO / no-ablation
/// shape as the saturation tier. CBR or bursty contenders, asymmetric
/// frame sizes and larger domains have no certified rows and stay on
/// the simulator.
///
/// This is the *structural* predicate; actual routing additionally
/// requires the solver's convergence certificate
/// ([`nonsat_certified`]).
pub fn nonsat_covers(cfg: &LinkConfig, ri_bps: f64) -> bool {
    analytic_shape_ok(cfg)
        && ri_bps > 0.0
        && cfg.contending.len() <= 9
        && cfg.contending.iter().all(|s| {
            s.shape == CrossShape::Poisson && s.bytes == cfg.probe_bytes && s.rate_bps > 0.0
        })
}

/// The station vector the finite-load fixed point solves for a covered
/// cell: the probe (station 0, offered `ri_bps`) followed by the
/// contenders in configuration order — the station layout of
/// `WlanLink::steady_state_event`.
pub fn nonsat_stations(cfg: &LinkConfig, ri_bps: f64) -> Vec<NonSatStation> {
    let mut v = Vec::with_capacity(cfg.contending.len() + 1);
    v.push(NonSatStation {
        rate_bps: ri_bps,
        bytes: cfg.probe_bytes,
    });
    v.extend(cfg.contending.iter().map(|s| NonSatStation {
        rate_bps: s.rate_bps,
        bytes: s.bytes,
    }));
    v
}

/// Whether the finite-load tier actually certifies this cell: it must
/// be structurally covered ([`nonsat_covers`]) *and* the fixed point
/// must converge with its residual certificate — a cell the solver
/// refuses routes to the simulator, never to an uncertified number.
pub fn nonsat_certified(cfg: &LinkConfig, ri_bps: f64) -> bool {
    nonsat_covers(cfg, ri_bps)
        && NonSatModel::solve(&cfg.phy, &nonsat_stations(cfg, ri_bps)).is_ok()
}

/// Whether *some* analytic model's error bound covers a steady-state
/// cell at probe input rate `ri_bps`: the saturation (Bianchi) model
/// for fully saturated symmetric cells, or the finite-load fixed point
/// ([`nonsat_certified`]) for Poisson finite-load cells it certifies.
pub fn analytic_covers(cfg: &LinkConfig, ri_bps: f64) -> bool {
    saturation_covers(cfg, ri_bps) || nonsat_certified(cfg, ri_bps)
}

/// The tier a **steady-state** cell routes to: `Analytic` where
/// [`analytic_covers`] holds, else `Event`.
pub fn steady_tier(cfg: &LinkConfig, ri_bps: f64) -> EngineTier {
    if analytic_covers(cfg, ri_bps) {
        EngineTier::Analytic
    } else {
        EngineTier::Event
    }
}

/// The tier a **probe-train** cell routes to: always `Event`, since no
/// analytic model reproduces per-packet access delays. Kept as the one
/// place callers that tally routing decisions per train ask.
pub fn train_tier(_cfg: &LinkConfig) -> EngineTier {
    EngineTier::Event
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::CrossSpec;

    fn steady_cfg() -> LinkConfig {
        LinkConfig::default().contending_bps(2_000_000.0)
    }

    fn saturated_cfg() -> LinkConfig {
        LinkConfig::default().contending_bps(9_000_000.0)
    }

    #[test]
    fn trains_and_uncovered_steady_cells_stay_on_event() {
        // Certified finite-load steady cells go to the fixed point; an
        // uncertifiable shape (CBR contender) stays on the simulator.
        assert_eq!(steady_tier(&steady_cfg(), 1.5e6), EngineTier::Analytic);
        let cbr = LinkConfig::default().contending(CrossSpec::shaped(2e6, CrossShape::Cbr));
        assert_eq!(steady_tier(&cbr, 1.5e6), EngineTier::Event);
        // Trains never leave the simulator, FIFO cross-traffic or not.
        assert_eq!(train_tier(&steady_cfg()), EngineTier::Event);
        let fifo = steady_cfg().fifo_cross_bps(1_500_000.0);
        assert_eq!(train_tier(&fifo), EngineTier::Event);
    }

    #[test]
    fn saturated_symmetric_cells_route_to_analytic() {
        let cfg = saturated_cfg();
        assert!(saturation_covers(&cfg, 9e6));
        assert!(analytic_covers(&cfg, 9e6));
        assert_eq!(steady_tier(&cfg, 9e6), EngineTier::Analytic);
        // An unsaturated probe leaves the saturation model's coverage —
        // the cell now belongs to the finite-load fixed point instead.
        assert!(!saturation_covers(&cfg, 1e6));
        assert!(nonsat_certified(&cfg, 1e6));
        assert_eq!(steady_tier(&cfg, 1e6), EngineTier::Analytic);
    }

    #[test]
    fn certified_finite_load_cells_route_to_analytic() {
        // A finite-load Poisson cell (nobody saturated) is the
        // fixed point's home regime.
        let cfg = steady_cfg();
        assert!(!saturation_covers(&cfg, 1.5e6));
        assert!(nonsat_covers(&cfg, 1.5e6));
        assert!(nonsat_certified(&cfg, 1.5e6));
        assert_eq!(steady_tier(&cfg, 1.5e6), EngineTier::Analytic);
        // The station vector mirrors the event layout: probe first.
        let st = nonsat_stations(&cfg, 1.5e6);
        assert_eq!(st.len(), 2);
        assert_eq!(st[0].rate_bps, 1.5e6);
        assert_eq!(st[1].rate_bps, 2_000_000.0);
    }

    #[test]
    fn finite_load_coverage_requires_certified_shape() {
        // CBR contenders have no certified oracle rows: only Poisson
        // arrivals match the fixed point's queue model.
        let cbr = LinkConfig::default().contending(CrossSpec::shaped(2e6, CrossShape::Cbr));
        assert!(!nonsat_covers(&cbr, 1.5e6));
        assert_eq!(steady_tier(&cbr, 1.5e6), EngineTier::Event);
        // Asymmetric frame sizes, FIFO cross-traffic and idle probes
        // stay structural exclusions.
        let asym = LinkConfig::default().contending(CrossSpec::poisson_sized(2e6, 500));
        assert!(!nonsat_covers(&asym, 1.5e6));
        let fifo = steady_cfg().fifo_cross_bps(1e6);
        assert!(!nonsat_covers(&fifo, 1.5e6));
        assert!(!nonsat_covers(&steady_cfg(), 0.0));
        // Domains beyond the certified 10-station matrix keep the
        // simulator.
        let mut big = LinkConfig::default();
        for _ in 0..10 {
            big = big.contending_bps(300_000.0);
        }
        assert!(!nonsat_covers(&big, 1.5e6));
        assert_eq!(steady_tier(&big, 1.5e6), EngineTier::Event);
    }

    #[test]
    fn bursty_shapes_stay_on_event() {
        let cfg = LinkConfig::default()
            .contending(CrossSpec::shaped(2e6, CrossShape::ExpOnOff { duty: 0.3 }));
        assert!(!analytic_covers(&cfg, 1.5e6));
        assert_eq!(steady_tier(&cfg, 1.5e6), EngineTier::Event);
    }

    #[test]
    fn analytic_coverage_requires_full_symmetric_saturation() {
        // FIFO cross-traffic breaks the single-queue assumption.
        let fifo = saturated_cfg().fifo_cross_bps(1e6);
        assert!(!analytic_covers(&fifo, 9e6));
        // Asymmetric frame sizes break symmetry.
        let asym = LinkConfig::default().contending(CrossSpec::poisson_sized(9e6, 500));
        assert!(!analytic_covers(&asym, 9e6));
        // An idle channel (no contenders) is not a Bianchi system here:
        // the probe alone is the standalone-capacity calibration, which
        // the simulator already answers exactly.
        assert!(!analytic_covers(&LinkConfig::default(), 9e6));
        // Frame errors / RTS are modelled only by the simulator.
        let err = {
            let mut c = saturated_cfg();
            c.mac = c.mac.with_frame_error_rate(0.1);
            c
        };
        assert!(!analytic_covers(&err, 9e6));
    }
}
