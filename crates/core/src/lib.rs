//! # csmaprobe-core
//!
//! The paper's contribution, as a library. Everything in this crate
//! maps to a numbered equation or section of *"Impact of Transient
//! CSMA/CA Access Delays on Active Bandwidth Measurements"* (IMC 2009):
//!
//! * [`rate_response`] — steady-state rate-response curves: the wired
//!   FIFO model (eq 1), the contention-only CSMA/CA model (eq 3), the
//!   complete two-cross-traffic model (eq 4), the achievable-throughput
//!   definition (eq 2) and relation `B = Bf(1−u_fifo)` (eq 5).
//! * [`sample_path`] — the §5 sample-path framework: intrusion
//!   residuals `R_i` (eq 14), total delays `Z_i` (eq 15), and the
//!   output-gap decompositions (eqs 16–19).
//! * [`bounds`] — the §6 transient dispersion bounds (eqs 23–30 with
//!   FIFO cross-traffic, 33–34 without) and the transient-aware
//!   achievable throughput (eqs 31/36).
//! * [`transient`] — the §4 experiment machinery: replicated probing
//!   trains, per-index access-delay distributions, KS profiles and the
//!   tolerance-based transient length (Fig 10).
//! * [`sweep`] — the scenario engine: a parameterised family of
//!   scenarios ([`sweep::SweepScenario`], one cell per probing rate or
//!   per link × train × tool combination) run by [`sweep::run_sweep`]
//!   as one map-reduce on the shared work-stealing executor, with
//!   per-cell results bit-identical to a standalone per-cell reduce for
//!   any worker count.
//! * [`engine`] — the engine router: steady-state cells an analytic
//!   model certifies (Bianchi saturation or the finite-load fixed
//!   point) skip simulation, every other cell runs the DCF simulator.
//! * [`link`] — runnable link models: [`link::WlanLink`] (Fig 3: a
//!   FIFO transmission queue feeding a CSMA/CA virtual scheduler, with
//!   contending stations) and [`link::WiredLink`] (the classic FIFO
//!   path the wired literature assumes), both exposing the common
//!   [`link::ProbeTarget`] interface that the `csmaprobe-probe` tools
//!   consume.

pub mod bounds;
pub mod engine;
pub mod link;
pub mod rate_response;
pub mod sample_path;
pub mod sweep;
pub mod transient;

pub use bounds::{dispersion_bounds, TransientBounds};
pub use engine::EngineTier;
pub use link::{CrossSpec, LinkConfig, ProbeTarget, TrainObservation, WiredLink, WlanLink};
pub use rate_response::{
    achievable_from_curve, achievable_throughput, complete_rate_response, csma_rate_response,
    fifo_rate_response,
};
pub use sweep::{run_sweep, RateResponseSweep, SweepScenario};
pub use transient::{Columns, TransientData, TransientExperiment, TransientSummary};
