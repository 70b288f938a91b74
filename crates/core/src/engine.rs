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
//! # Selection policy
//!
//! The process-wide policy follows the `CSMAPROBE_ENGINE` environment
//! variable at first use (`auto` or `event`; anything else, the retired
//! `slotted` and `analytic` included, is refused by [`check_env`]),
//! overridable at runtime with [`set_policy`] — the same
//! read-env-once-then-atomic pattern as the executor's
//! `CSMAPROBE_WORKERS`.
//!
//! * **Auto** (default): steady-state cells route to `Analytic` when
//!   [`analytic_covers`] holds, else to `Event`. Probe-train cells
//!   always run on `Event`.
//! * **Event**: everything runs the simulator — the routing layer is
//!   provably a no-op on every figure but the analytic-served fig01
//!   (`crates/bench/tests/determinism.rs`).

use crate::link::{CrossShape, LinkConfig};
use csmaprobe_mac::{NonSatModel, NonSatStation};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// One engine tier, cheapest-to-most-expensive ordering not implied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineTier {
    /// The DCF simulator (`WlanSim`).
    Event,
    /// Retired: the slot-quantised kernel this named is gone; no route
    /// returns it and no policy names it. The variant stays only because
    /// the benchmark's per-layer replay names it. Delete with the next
    /// benchmark revision.
    Slotted,
    /// Closed-form Bianchi saturation model.
    Analytic,
}

impl EngineTier {
    /// Stable lowercase token for provenance columns and fingerprints
    /// (`event`, `analytic`; `slotted` for the retired variant).
    pub fn token(self) -> &'static str {
        match self {
            EngineTier::Event => "event",
            EngineTier::Slotted => "slotted",
            EngineTier::Analytic => "analytic",
        }
    }
}

/// Process-wide routing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePolicy {
    /// Route each cell to the cheapest covered tier (the default).
    Auto,
    /// Run every cell on the simulator.
    Event,
}

const POLICY_UNSET: u8 = 0;
const POLICY_AUTO: u8 = 1;
const POLICY_EVENT: u8 = 2;

/// Runtime override; `POLICY_UNSET` defers to the environment.
static POLICY: AtomicU8 = AtomicU8::new(POLICY_UNSET);

/// The values `CSMAPROBE_ENGINE` accepts.
const POLICY_VALUES: &str = "auto|event";

/// `CSMAPROBE_ENGINE` as a policy code: unset is auto, an unknown
/// value is an error naming the accepted values.
fn env_value() -> Result<u8, String> {
    let Some(raw) = std::env::var_os("CSMAPROBE_ENGINE") else {
        return Ok(POLICY_AUTO);
    };
    match raw.to_str() {
        Some("auto") => Ok(POLICY_AUTO),
        Some("event") => Ok(POLICY_EVENT),
        _ => Err(format!(
            "CSMAPROBE_ENGINE={raw:?} is not one of {POLICY_VALUES}"
        )),
    }
}

/// Validate `CSMAPROBE_ENGINE` up front. Entry points call this at
/// start-up and exit with the message on `Err`, so a typo'd or retired
/// value (`slotted`, `analytic`) is refused before any work runs
/// instead of silently routing as `auto`.
pub fn check_env() -> Result<(), String> {
    env_value().map(|_| ())
}

fn env_policy() -> u8 {
    static ENV: OnceLock<u8> = OnceLock::new();
    // Entry points refuse a bad value via `check_env` first; a library
    // caller that skipped the check still fails loudly here.
    *ENV.get_or_init(|| env_value().unwrap_or_else(|e| panic!("{e}")))
}

/// Pin the process-wide engine policy (tests, tools). Passing
/// [`EnginePolicy::Auto`] restores automatic routing; the
/// `CSMAPROBE_ENGINE` environment variable is only consulted while no
/// explicit policy has been set.
pub fn set_policy(policy: EnginePolicy) {
    let v = match policy {
        EnginePolicy::Auto => POLICY_AUTO,
        EnginePolicy::Event => POLICY_EVENT,
    };
    POLICY.store(v, Ordering::Relaxed);
}

/// Routing-rules revision, folded into run-config fingerprints next to
/// [`policy_token`]: bumped whenever a routing rule changes what a
/// policy *means* (r2: the finite-load fixed point extended
/// `analytic_covers` beyond saturation; r3: the slotted kernel was
/// deleted and every simulated cell runs on `WlanSim`). Two campaigns
/// under the same `auto` token can still route cells differently
/// across revisions; the revision token lets resume refuse that mix
/// even when the per-cell tier resolution happens to agree.
pub const ROUTER_REVISION: &str = "r3-one-kernel";

/// Stable lowercase token naming the active policy (`auto`, `event`)
/// — folded into run-config fingerprints so resumable campaigns refuse
/// to silently mix rows produced under different routing policies.
pub fn policy_token() -> &'static str {
    match policy() {
        EnginePolicy::Auto => "auto",
        EnginePolicy::Event => "event",
    }
}

/// The active policy: the [`set_policy`] override if any, else
/// `CSMAPROBE_ENGINE` as read at first use, else auto.
pub fn policy() -> EnginePolicy {
    let v = match POLICY.load(Ordering::Relaxed) {
        POLICY_UNSET => env_policy(),
        v => v,
    };
    match v {
        POLICY_EVENT => EnginePolicy::Event,
        _ => EnginePolicy::Auto,
    }
}

/// RAII scope for a temporary policy override. The policy is process
/// state, so overlapping overrides from concurrent threads would
/// interleave; the guard serialises them on a global mutex and restores
/// [`EnginePolicy::Auto`] on drop. Tests and tools that pin a tier
/// should prefer this over raw [`set_policy`].
pub struct PolicyOverride {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for PolicyOverride {
    fn drop(&mut self) {
        set_policy(EnginePolicy::Auto);
    }
}

/// Install `policy` for the lifetime of the returned guard (see
/// [`PolicyOverride`]).
pub fn test_guard(policy: EnginePolicy) -> PolicyOverride {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let lock = LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    set_policy(policy);
    PolicyOverride { _lock: lock }
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

/// The tier a **steady-state** cell routes to under the active policy:
/// `Analytic` where [`analytic_covers`] holds (unless the simulator is
/// forced), else `Event`.
pub fn steady_tier(cfg: &LinkConfig, ri_bps: f64) -> EngineTier {
    match policy() {
        EnginePolicy::Auto if analytic_covers(cfg, ri_bps) => EngineTier::Analytic,
        _ => EngineTier::Event,
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
    fn auto_keeps_trains_and_uncovered_steady_cells_on_event() {
        let _g = test_guard(EnginePolicy::Auto);
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
    fn policy_token_names_every_policy() {
        for (p, tok) in [(EnginePolicy::Auto, "auto"), (EnginePolicy::Event, "event")] {
            let _g = test_guard(p);
            assert_eq!(policy_token(), tok);
        }
    }

    #[test]
    fn auto_routes_saturated_symmetric_to_analytic() {
        let _g = test_guard(EnginePolicy::Auto);
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
    fn auto_routes_certified_finite_load_to_analytic() {
        let _g = test_guard(EnginePolicy::Auto);
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
        let _g = test_guard(EnginePolicy::Auto);
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
        let _g = test_guard(EnginePolicy::Auto);
        let cfg = LinkConfig::default()
            .contending(CrossSpec::shaped(2e6, CrossShape::ExpOnOff { duty: 0.3 }));
        assert!(!analytic_covers(&cfg, 1.5e6));
        assert_eq!(steady_tier(&cfg, 1.5e6), EngineTier::Event);
    }

    #[test]
    fn forced_event_pins_everything() {
        let _g = test_guard(EnginePolicy::Event);
        assert_eq!(steady_tier(&saturated_cfg(), 9e6), EngineTier::Event);
        assert_eq!(steady_tier(&steady_cfg(), 1.5e6), EngineTier::Event);
        assert_eq!(train_tier(&steady_cfg()), EngineTier::Event);
    }

    #[test]
    fn analytic_coverage_requires_full_symmetric_saturation() {
        let _g = test_guard(EnginePolicy::Auto);
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
