//! # csmaprobe-stats
//!
//! Measurement statistics for the `csmaprobe` workspace. Everything the
//! paper's methodology needs, implemented from scratch (no third-party
//! stats dependencies):
//!
//! * [`online`] — Welford online moments, merging, and normal-theory
//!   confidence intervals.
//! * [`ecdf`] — empirical CDFs, both step and **linearly interpolated**
//!   (the paper's footnote 2 interpolates one ECDF before comparing
//!   discrete distributions).
//! * [`ks`] — the two-sample Kolmogorov–Smirnov goodness-of-fit test
//!   used in §4 to detect the access-delay transient, with the
//!   `c(α)·√((n+m)/nm)` critical value.
//! * [`histogram`] — fixed-width histograms (Fig 7).
//! * [`mser`] — the MSER-m warm-up truncation heuristic applied in §7.4
//!   (MSER-2 in Fig 17).
//! * [`transient`] — per-packet-index accumulators across Monte-Carlo
//!   replications and the tolerance-based transient-length estimator of
//!   §4.1 (Fig 10).
//! * [`accumulate`] — the [`Accumulate`] mergeable-accumulator trait the
//!   scenario engine's streaming reduce is built on.

pub mod accumulate;
pub mod ecdf;
pub mod histogram;
pub mod ks;
pub mod mser;
pub mod online;
pub mod p2;
pub mod transient;

pub use accumulate::Accumulate;
pub use ecdf::Ecdf;
pub use histogram::Histogram;
pub use ks::{ks_critical_value, two_sample_ks, KsOutcome, KsReference};
pub use mser::{mser_m, MserResult};
pub use online::OnlineStats;
pub use p2::P2Quantile;
pub use transient::{IndexedSeries, IndexedStats, TransientEstimate};
