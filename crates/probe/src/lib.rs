//! # csmaprobe-probe
//!
//! Active bandwidth-measurement tools, built on the
//! [`csmaprobe_core::link::ProbeTarget`] abstraction so each tool runs
//! unchanged over a wired FIFO path or a CSMA/CA WLAN link — the
//! paper's central experimental setting.
//!
//! * [`train`] — packet-train dispersion measurement: send an
//!   `n`-packet train at gap `gI`, average the output gap over many
//!   replications, infer `L/E[gO]` (§5.2). The workhorse behind
//!   Figs 13/15/17.
//! * [`pair`] — the packet-pair capacity technique (Dovrolis et al.,
//!   the paper's ref \[23\]); §7.3 shows it tracks (and over-estimates)
//!   the achievable throughput on CSMA/CA links (Fig 16).
//! * [`scan`] — rate-response curve scanning and achievable-throughput
//!   extraction per eq (2).
//! * [`mser`] — the paper's §7.4 improvement: MSER-m truncation of the
//!   receiver inter-arrivals removes the transient-tainted prefix and
//!   recovers the steady-state curve without longer trains (Fig 17).
//! * [`slops`] — an iterative available-bandwidth search in the style
//!   of SLoPS/pathload: binary-searches the largest rate at which
//!   `ro/ri ≈ 1`. On a FIFO path this finds the available bandwidth
//!   `A`; on a CSMA/CA link it converges to the achievable throughput
//!   `B` instead (§7.2).
//! * [`topp`] — TOPP (the paper's ref \[13\]): regression of `ri/ro` on
//!   `ri` over the congested segment, yielding both `C` and `A` on FIFO
//!   paths — and collapsing both onto `B` on CSMA/CA links.
//! * [`chirp`] — pathChirp-style exponential chirps (ref \[19\]) with a
//!   simplified excursion analysis; same CSMA/CA bias, one train per
//!   estimate.
//! * [`tool`] — the tool **axis**: every family above behind one
//!   uniform [`tool::ToolProbe::estimate_once`] interface, so the
//!   link × train × tool grid (`csmaprobe_bench::grid::BiasGrid`, a
//!   `csmaprobe_core::sweep` scenario) can enumerate tools as one of
//!   its axes.

pub mod chirp;
pub mod mser;
pub mod pair;
pub mod scan;
pub mod slops;
pub mod tool;
pub mod topp;
pub mod train;

pub use chirp::ChirpProbe;
pub use mser::MserProbe;
pub use pair::PacketPairProbe;
pub use scan::RateScan;
pub use slops::SlopsEstimator;
pub use tool::{ToolKind, ToolProbe};
pub use topp::ToppEstimator;
pub use train::{TrainMeasurement, TrainProbe};
