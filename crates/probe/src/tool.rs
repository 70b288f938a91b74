//! The **tool axis**: every measurement tool of this crate behind one
//! uniform "run once, return an estimate" interface.
//!
//! The paper's §7.2 claim — FIFO-era tools read the achievable
//! throughput `B` instead of the available bandwidth `A` on CSMA/CA
//! links — is a statement *across tool families*. The link × train ×
//! tool grid (`csmaprobe_bench::grid::BiasGrid`) therefore needs tools
//! as an enumerable axis: [`ToolKind`] names the families,
//! [`ToolProbe`] binds one to a train shape and budget, and
//! [`ToolProbe::estimate_once`] runs one independent, seeded estimate —
//! the grid cell's unit of replication.
//!
//! One grid replication = one *complete* tool run (a full SLoPS binary
//! search, a full TOPP regression, one chirp, one train). Tool runs are
//! pure functions of their seed, so grid cells accumulate estimates
//! with the engine's usual bit-identity guarantees.

use crate::chirp::ChirpProbe;
use crate::slops::SlopsEstimator;
use crate::topp::ToppEstimator;
use crate::train::TrainProbe;
use csmaprobe_core::link::ProbeTarget;

/// A measurement-tool family, as an enumerable axis point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToolKind {
    /// Packet-train dispersion: one train, estimate `L/gO` (§5.2).
    Train,
    /// SLoPS/pathload-style iterative rate search.
    Slops,
    /// TOPP rate-response regression (available-bandwidth output).
    Topp,
    /// pathChirp-style excursion analysis.
    Chirp,
}

impl ToolKind {
    /// Every tool family, in canonical axis order.
    pub const ALL: [ToolKind; 4] = [
        ToolKind::Train,
        ToolKind::Slops,
        ToolKind::Topp,
        ToolKind::Chirp,
    ];

    /// Canonical name (what CLIs parse and rows record).
    pub fn name(&self) -> &'static str {
        match self {
            ToolKind::Train => "train",
            ToolKind::Slops => "slops",
            ToolKind::Topp => "topp",
            ToolKind::Chirp => "chirp",
        }
    }

    /// Parse a canonical name (case-insensitive).
    pub fn parse(s: &str) -> Option<ToolKind> {
        ToolKind::ALL
            .into_iter()
            .find(|t| t.name().eq_ignore_ascii_case(s.trim()))
    }
}

impl std::fmt::Display for ToolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Replications each *internal* rate decision of SLoPS and TOPP may
/// spend. One [`ToolProbe::estimate_once`] call is always one complete
/// tool run regardless.
const DECISION_REPS: usize = 2;

/// One tool bound to a train shape: the unit the grid's tool axis
/// instantiates per cell.
#[derive(Debug, Clone, Copy)]
pub struct ToolProbe {
    /// Which tool family to run.
    pub kind: ToolKind,
    /// Packets per probing train (the grid's train-shape axis; chirps
    /// use it as the chirp length, floored at 20 for resolution).
    pub n: usize,
    /// Probe payload, bytes.
    pub bytes: u32,
    /// Probing rate of the plain train tool, bits/s (the saturating
    /// rate whose dispersion reads the achievable throughput). The
    /// searching tools pick their own rates.
    pub rate_bps: f64,
}

impl ToolProbe {
    /// A tool probe with the given family and train shape.
    pub fn new(kind: ToolKind, n: usize, bytes: u32, rate_bps: f64) -> Self {
        ToolProbe {
            kind,
            n,
            bytes,
            rate_bps,
        }
    }

    /// Run **one** complete, independently seeded estimate against
    /// `target` and return it in bits/s.
    ///
    /// Pure function of `(self, seed)`: the grid engine replicates
    /// cells by calling this with `derive_seed(cell_seed, rep)`.
    /// Returns a non-finite value when the tool could not produce an
    /// estimate (e.g. TOPP never saw congestion, or a train lost all
    /// but one packet) — callers should count, not accumulate, those.
    pub fn estimate_once<T: ProbeTarget + ?Sized>(&self, target: &T, seed: u64) -> f64 {
        match self.kind {
            ToolKind::Train => TrainProbe::new(self.n, self.bytes, self.rate_bps)
                .measure_output_rate_bps(target, 1, seed),
            ToolKind::Slops => {
                let est = SlopsEstimator {
                    n: self.n,
                    bytes: self.bytes,
                    reps: DECISION_REPS,
                    iterations: 8,
                    ..Default::default()
                };
                est.run(target, seed).estimate_bps
            }
            ToolKind::Topp => {
                let est = ToppEstimator {
                    n: self.n,
                    bytes: self.bytes,
                    reps: DECISION_REPS,
                    ..Default::default()
                };
                est.run(target, seed)
                    .map(|r| r.available_bps)
                    .unwrap_or(f64::NAN)
            }
            ToolKind::Chirp => {
                let probe = ChirpProbe {
                    n: self.n.max(20),
                    bytes: self.bytes,
                    chirps: 1,
                    ..Default::default()
                };
                probe.measure(target, seed).estimate_bps()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmaprobe_core::link::WiredLink;

    #[test]
    fn names_parse_round_trip() {
        for kind in ToolKind::ALL {
            assert_eq!(ToolKind::parse(kind.name()), Some(kind));
            assert_eq!(ToolKind::parse(&kind.name().to_uppercase()), Some(kind));
        }
        assert_eq!(ToolKind::parse(" train "), Some(ToolKind::Train));
        assert_eq!(ToolKind::parse("pathload"), None);
    }

    #[test]
    fn estimates_are_deterministic_per_seed() {
        let link = WiredLink::new(10e6, 4e6);
        for kind in ToolKind::ALL {
            let probe = ToolProbe::new(kind, 40, 1500, 9e6);
            let a = probe.estimate_once(&link, 1234);
            let b = probe.estimate_once(&link, 1234);
            assert_eq!(a.to_bits(), b.to_bits(), "{kind} not deterministic");
        }
    }

    #[test]
    fn wired_estimates_land_in_sane_bands() {
        // C = 10, cross = 4 => A = 6 Mb/s; dispersion tools read the
        // saturated output rate instead (eq 1: ~6.9 Mb/s at ri = 9).
        let link = WiredLink::new(10e6, 4e6);
        let slops = ToolProbe::new(ToolKind::Slops, 120, 1500, 9e6).estimate_once(&link, 7);
        assert!((4.5e6..7.5e6).contains(&slops), "slops {slops}");
        let train = ToolProbe::new(ToolKind::Train, 120, 1500, 9e6).estimate_once(&link, 7);
        assert!((6e6..8e6).contains(&train), "train {train}");
    }
}
