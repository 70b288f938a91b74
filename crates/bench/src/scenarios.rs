//! Canonical experiment scenarios shared by the figure modules.
//!
//! The paper's testbed: 802.11b at 11 Mb/s (Prism cards, long
//! preamble, no RTS/CTS), 1500-byte packets unless noted, Poisson
//! cross-traffic. Its headline numbers — C ≈ 6.5, A ≈ 2, B ≈ 3.4 Mb/s
//! (Fig 1) — correspond to ≈4.5 Mb/s of offered contending traffic; our
//! stock-timing DCF gives C ≈ 6.2 Mb/s, so knees land a few percent
//! lower at identical offered loads (shape-preserving).

use csmaprobe_core::link::{LinkConfig, ProbeTarget, WlanLink};
use csmaprobe_core::sweep::SweepScenario;
use csmaprobe_desim::rng::derive_seed;
use csmaprobe_mac::measured_standalone_capacity_bps;
use csmaprobe_phy::Phy;
use csmaprobe_probe::train::{TrainAccumulator, TrainMeasurement, TrainProbe};

/// Probe/cross packet size used throughout (bytes).
pub const FRAME: u32 = 1500;

/// Per-index reservoir cap of the dense (raw-sample) experiment paths —
/// the paper's largest NS2 replication count, so nothing is decimated
/// up to `--scale 12` while memory stays bounded beyond it.
pub const DENSE_SAMPLE_CAP: usize = 25_000;

/// The Fig 1 contending load (b/s) reproducing A ≈ 2 Mb/s on the
/// paper's C ≈ 6.5 Mb/s channel.
pub const FIG1_CROSS_BPS: f64 = 4_500_000.0;

/// The paper's PHY.
pub fn phy() -> Phy {
    Phy::dsss_11mbps()
}

/// Measured stand-alone capacity C for `bytes`-byte frames (cached by
/// callers; ~1 ms to compute).
pub fn capacity_bps(bytes: u32) -> f64 {
    measured_standalone_capacity_bps(&phy(), bytes, 3000, 0xCAFE)
}

/// The Fig 1 link: probe station vs one Poisson contender at
/// [`FIG1_CROSS_BPS`].
pub fn fig1_link() -> WlanLink {
    WlanLink::new(LinkConfig::default().contending_bps(FIG1_CROSS_BPS))
}

/// The Fig 4 "complete picture" link: contending cross-traffic plus
/// FIFO cross-traffic sharing the probe station's queue.
pub fn fig4_link() -> WlanLink {
    WlanLink::new(
        LinkConfig::default()
            .contending_bps(3_000_000.0)
            .fifo_cross_bps(1_500_000.0),
    )
}

/// The Fig 6/7 transient link: contending cross-traffic at 4 Mb/s
/// (probe will offer 5 Mb/s).
pub fn fig6_link() -> WlanLink {
    WlanLink::new(LinkConfig::default().contending_bps(4_000_000.0))
}

/// The Fig 8 link: contending cross-traffic at 2 Mb/s (probe 8 Mb/s).
pub fn fig8_link() -> WlanLink {
    WlanLink::new(LinkConfig::default().contending_bps(2_000_000.0))
}

/// The Fig 9 complex link: 4 contending stations with packet sizes
/// {40, 576, 1000, 1500} B at {0.1, 0.5, 0.75, 2} Mb/s.
pub fn fig9_link() -> WlanLink {
    use csmaprobe_core::link::CrossSpec;
    WlanLink::new(
        LinkConfig::default()
            .contending(CrossSpec::poisson_sized(100_000.0, 40))
            .contending(CrossSpec::poisson_sized(500_000.0, 576))
            .contending(CrossSpec::poisson_sized(750_000.0, 1000))
            .contending(CrossSpec::poisson_sized(2_000_000.0, 1500)),
    )
}

/// One packet-train sweep cell: a [`TrainProbe`] replicated `reps`
/// times from master seed `seed` (replication `r` uses
/// `derive_seed(seed, r)` — the exact seeds
/// [`TrainProbe::measure`]`(target, reps, seed)` uses internally).
#[derive(Debug, Clone, Copy)]
pub struct TrainCell {
    /// The probe this cell replicates.
    pub probe: TrainProbe,
    /// Replication budget.
    pub reps: usize,
    /// Master seed of the cell.
    pub seed: u64,
}

/// A grid of packet-train measurements (e.g. rate × train-length, the
/// Fig 13/15 sweeps) run as one [`SweepScenario`]: every
/// `(cell × replication)` is scheduled concurrently over the shared
/// work-stealing executor, and each cell's [`TrainMeasurement`] is bit-identical
/// to a standalone [`TrainProbe::measure`] with the same
/// `(reps, seed)`.
pub struct TrainSweep<'a, T: ProbeTarget + ?Sized> {
    /// Identifier for logs.
    pub name: &'static str,
    /// The link every cell probes.
    pub target: &'a T,
    /// The measurement grid, in row order.
    pub cells: Vec<TrainCell>,
}

impl<T: ProbeTarget + ?Sized> SweepScenario for TrainSweep<'_, T> {
    type Acc = TrainAccumulator;
    type Row = TrainMeasurement;

    fn name(&self) -> &str {
        self.name
    }
    fn points(&self) -> usize {
        self.cells.len()
    }
    fn reps(&self, point: usize) -> usize {
        self.cells[point].reps
    }
    fn identity(&self, _point: usize) -> TrainAccumulator {
        TrainAccumulator::default()
    }
    fn replicate(&self, point: usize, rep: usize, acc: &mut TrainAccumulator) {
        let cell = &self.cells[point];
        cell.probe
            .sample_into(self.target, derive_seed(cell.seed, rep as u64), acc);
    }
    fn finish(&self, point: usize, acc: TrainAccumulator) -> TrainMeasurement {
        let cell = &self.cells[point];
        cell.probe.finish(cell.reps, acc)
    }
}

/// Hard cap on sweep length: a malformed `(lo, hi, step)` triple can
/// never request an effectively unbounded grid of simulations.
pub const MAX_SWEEP_POINTS: usize = 10_000;

/// Evenly spaced probing rates `lo..=hi` (Mb/s) at `step`, in bits/s.
///
/// Hardened: non-finite or non-positive `lo`/`step`, or `hi < lo`,
/// yield an **empty** sweep (with a warning) instead of a nonsense grid
/// or an unbounded loop; the point count clamps at
/// [`MAX_SWEEP_POINTS`]. Points are computed as `lo + i·step` (not
/// accumulated), so the sweep is strictly increasing and every point
/// lies in `[lo, hi + ε]` by construction.
pub fn rate_sweep_mbps(lo: f64, hi: f64, step: f64) -> Vec<f64> {
    let sane =
        lo.is_finite() && hi.is_finite() && step.is_finite() && lo > 0.0 && step > 0.0 && hi >= lo;
    if !sane {
        eprintln!("warning: nonsensical rate sweep [{lo}, {hi}] step {step}; empty sweep");
        return Vec::new();
    }
    let span = ((hi - lo) / step + 1e-9).floor();
    let n = if span >= MAX_SWEEP_POINTS as f64 {
        eprintln!(
            "warning: rate sweep [{lo}, {hi}] step {step} clamped to {MAX_SWEEP_POINTS} points"
        );
        MAX_SWEEP_POINTS
    } else {
        span as usize + 1
    };
    (0..n).map(|i| (lo + i as f64 * step) * 1e6).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_in_paper_band() {
        let c = capacity_bps(FRAME);
        assert!((5.9e6..6.6e6).contains(&c), "C = {c}");
    }

    #[test]
    fn sweep_is_inclusive() {
        let r = rate_sweep_mbps(1.0, 3.0, 1.0);
        assert_eq!(r, vec![1e6, 2e6, 3e6]);
        let r = rate_sweep_mbps(0.5, 10.0, 0.5);
        assert_eq!(r.len(), 20);
        assert_eq!(r[0], 0.5e6);
        assert_eq!(r[19], 10e6);
    }

    #[test]
    fn degenerate_sweeps_are_empty() {
        assert!(rate_sweep_mbps(1.0, 3.0, 0.0).is_empty());
        assert!(rate_sweep_mbps(1.0, 3.0, -1.0).is_empty());
        assert!(rate_sweep_mbps(1.0, 3.0, f64::NAN).is_empty());
        assert!(rate_sweep_mbps(f64::NAN, 3.0, 1.0).is_empty());
        assert!(rate_sweep_mbps(1.0, f64::INFINITY, 1.0).is_empty());
        assert!(rate_sweep_mbps(3.0, 1.0, 1.0).is_empty());
        assert!(rate_sweep_mbps(0.0, 3.0, 1.0).is_empty());
        assert!(rate_sweep_mbps(-1.0, 3.0, 1.0).is_empty());
    }

    #[test]
    fn huge_sweeps_clamp_at_max_points() {
        let r = rate_sweep_mbps(1.0, 1e9, 1e-3);
        assert_eq!(r.len(), MAX_SWEEP_POINTS);
    }

    #[test]
    fn single_point_sweep() {
        assert_eq!(rate_sweep_mbps(2.0, 2.0, 1.0), vec![2e6]);
    }

    #[test]
    fn train_sweep_cells_match_standalone_measure() {
        let link = fig8_link();
        let cells = vec![
            TrainCell {
                probe: TrainProbe::new(5, FRAME, 2e6),
                reps: 4,
                seed: 11,
            },
            TrainCell {
                probe: TrainProbe::new(8, FRAME, 6e6),
                reps: 3,
                seed: 12,
            },
        ];
        let sweep = TrainSweep {
            name: "test",
            target: &link,
            cells: cells.clone(),
        };
        let rows = csmaprobe_core::sweep::run_sweep(&sweep);
        for (cell, row) in cells.iter().zip(&rows) {
            let standalone = cell.probe.measure(&link, cell.reps, cell.seed);
            assert_eq!(
                row.mean_output_gap_s().to_bits(),
                standalone.mean_output_gap_s().to_bits()
            );
            assert_eq!(row.reps, standalone.reps);
        }
    }
}
