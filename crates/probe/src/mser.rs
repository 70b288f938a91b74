//! The paper's §7.4 correction: treat the access-delay transient as a
//! *simulation warm-up problem* and truncate it with MSER-m.
//!
//! The receiver inter-arrival series `gO_1..gO_{n−1}` of a short train
//! carries the transient in its prefix (early, accelerated packets ⇒
//! small gaps). MSER-m (m = 2 in the paper's Fig 17) detects how long
//! that warm-up lasts; the flagged observations are discarded and the
//! output gap re-estimated from the remainder. This pulls short-train
//! rate-response curves back onto the steady-state curve **without
//! sending more packets** — and, because FIFO queues have their own
//! (opposite-sign) transient, it helps on wired paths too.
//!
//! MSER runs on the *across-replication mean* gap profile, where the
//! transient ramp is clean, and every replication is truncated at that
//! common point: a measurement aggregates many trains (the paper's `m`
//! probing sequences), and a single train's DCF backoff variance often
//! swamps the drift.
//!
//! The truncation point depends on the across-replication profile, so
//! the measurement streams as a **two-phase reduce**: a profile pass
//! folds every replication into per-position [`IndexedStats`]
//! (O(train length) memory), MSER picks the cut on the resulting mean
//! profile, and a second, truncated pass re-runs the same seeds and
//! accumulates the corrected gap. No replication's gap vector is ever
//! materialised. The phase pieces
//! ([`MserProbe::profile_rep`], [`MserProbe::truncation_point`],
//! [`MserProbe::corrected_rep`]) are public so sweep scenarios can
//! schedule them as cells; [`measure_rate_sweep`] does exactly that for
//! a family of probes, and [`MserProbe::measure`] is its one-cell case.

use csmaprobe_core::link::ProbeTarget;
use csmaprobe_core::sweep::{run_sweep, SweepScenario};
use csmaprobe_desim::rng::derive_seed;
use csmaprobe_stats::accumulate::Accumulate;
use csmaprobe_stats::mser::mser_m;
use csmaprobe_stats::online::OnlineStats;
use csmaprobe_stats::transient::IndexedStats;
use csmaprobe_traffic::probe::ProbeTrain;

/// An MSER-corrected packet-train probe.
#[derive(Debug, Clone, Copy)]
pub struct MserProbe {
    /// The underlying train shape.
    pub train: ProbeTrain,
    /// MSER batch size (2 in the paper).
    pub m: usize,
}

/// Result of an MSER-corrected measurement.
#[derive(Debug, Clone)]
pub struct MserMeasurement {
    /// The train shape used.
    pub train: ProbeTrain,
    /// Raw output-gap statistics (no truncation), seconds.
    pub raw_gap: OnlineStats,
    /// MSER-truncated output-gap statistics, seconds.
    pub corrected_gap: OnlineStats,
    /// Mean number of raw observations truncated per replication.
    pub mean_truncated: f64,
}

/// Phase-1 (profile pass) accumulator: raw output-gap statistics plus
/// the per-position gap moments MSER picks its truncation point from.
/// O(train length) memory regardless of replication count.
#[derive(Debug, Clone, Default)]
pub struct MserProfileAcc {
    /// Across-replication statistics of the raw (untruncated) mean gap.
    pub raw_gap: OnlineStats,
    /// Per-position receiver-gap moments across replications.
    pub profile: IndexedStats,
}

impl Accumulate for MserProfileAcc {
    fn merge(&mut self, other: Self) {
        OnlineStats::merge(&mut self.raw_gap, &other.raw_gap);
        self.profile.merge(other.profile);
    }
}

/// Phase-2 (truncated pass) accumulator: statistics of the mean gap
/// after discarding each replication's MSER-flagged prefix.
#[derive(Debug, Clone, Default)]
pub struct MserCorrectedAcc {
    /// Across-replication statistics of the truncated mean gap.
    pub corrected_gap: OnlineStats,
    /// Total raw observations truncated across replications.
    pub truncated: usize,
}

impl Accumulate for MserCorrectedAcc {
    fn merge(&mut self, other: Self) {
        OnlineStats::merge(&mut self.corrected_gap, &other.corrected_gap);
        self.truncated += other.truncated;
    }
}

impl MserProbe {
    /// An MSER-`m` corrected probe of `n` packets of `bytes` at
    /// `rate_bps`.
    pub fn new(n: usize, bytes: u32, rate_bps: f64, m: usize) -> Self {
        MserProbe {
            train: ProbeTrain::from_rate(n, bytes, rate_bps),
            m,
        }
    }

    /// Phase 1, one replication: send the train with `seed` and fold
    /// its raw mean gap and per-position gaps into `acc`.
    pub fn profile_rep<T: ProbeTarget + ?Sized>(
        &self,
        target: &T,
        seed: u64,
        acc: &mut MserProfileAcc,
    ) {
        let gaps = target.probe_train(self.train, seed).receiver_gaps_s();
        if !gaps.is_empty() {
            acc.raw_gap
                .push(gaps.iter().sum::<f64>() / gaps.len() as f64);
        }
        acc.profile.push_replication(&gaps);
    }

    /// The pooled-profile truncation point: MSER-`m` on the
    /// across-replication mean gap profile (0 when MSER is undefined,
    /// e.g. trains too short for the batch size).
    pub fn truncation_point(&self, profile: &MserProfileAcc) -> usize {
        mser_m(&profile.profile.means(), self.m)
            .map(|r| r.truncate_raw)
            .unwrap_or(0)
    }

    /// Phase 2, one replication: re-run `seed` (replications are pure
    /// functions of their seed, so this reproduces phase 1's train
    /// exactly) and fold the gap mean beyond `cut` into `acc`.
    pub fn corrected_rep<T: ProbeTarget + ?Sized>(
        &self,
        target: &T,
        cut: usize,
        seed: u64,
        acc: &mut MserCorrectedAcc,
    ) {
        let gaps = target.probe_train(self.train, seed).receiver_gaps_s();
        let kept = &gaps[cut.min(gaps.len())..];
        if !kept.is_empty() {
            acc.corrected_gap
                .push(kept.iter().sum::<f64>() / kept.len() as f64);
            acc.truncated += cut.min(gaps.len());
        }
    }

    /// Seal the two phase accumulators into a measurement.
    pub fn assemble(
        &self,
        reps: usize,
        profile: MserProfileAcc,
        corrected: MserCorrectedAcc,
    ) -> MserMeasurement {
        MserMeasurement {
            train: self.train,
            raw_gap: profile.raw_gap,
            corrected_gap: corrected.corrected_gap,
            mean_truncated: corrected.truncated as f64 / reps.max(1) as f64,
        }
    }

    /// Run `reps` replications against `target` as the two-phase
    /// streaming reduce described in the module docs: the one-cell
    /// [`measure_rate_sweep`]. Peak memory is O(train length).
    pub fn measure<T: ProbeTarget + ?Sized>(
        &self,
        target: &T,
        reps: usize,
        seed: u64,
    ) -> MserMeasurement {
        let cell = MserCell {
            probe: *self,
            reps,
            seed,
        };
        measure_rate_sweep(&[cell], target)
            .pop()
            .expect("a one-cell sweep measures its cell")
    }
}

/// One cell of an MSER rate sweep: a probe, its replication budget, and
/// its master seed (replication `r` uses `derive_seed(seed, r)`).
#[derive(Debug, Clone, Copy)]
pub struct MserCell {
    /// The probe this cell replicates.
    pub probe: MserProbe,
    /// Replication budget.
    pub reps: usize,
    /// Master seed of the cell.
    pub seed: u64,
}

/// Phase-1 sweep: every `(cell × replication)` profile pass scheduled
/// through the scenario engine.
struct ProfileSweep<'a, T: ProbeTarget + ?Sized> {
    cells: &'a [MserCell],
    target: &'a T,
}

impl<T: ProbeTarget + ?Sized> SweepScenario for ProfileSweep<'_, T> {
    type Acc = MserProfileAcc;
    type Row = MserProfileAcc;

    fn name(&self) -> &str {
        "mser_profile"
    }
    fn points(&self) -> usize {
        self.cells.len()
    }
    fn reps(&self, point: usize) -> usize {
        self.cells[point].reps
    }
    fn identity(&self, _point: usize) -> MserProfileAcc {
        MserProfileAcc::default()
    }
    fn replicate(&self, point: usize, rep: usize, acc: &mut MserProfileAcc) {
        let cell = &self.cells[point];
        cell.probe
            .profile_rep(self.target, derive_seed(cell.seed, rep as u64), acc);
    }
    fn finish(&self, _point: usize, acc: MserProfileAcc) -> MserProfileAcc {
        acc
    }
}

/// Phase-2 sweep: the truncated passes, one cut per cell.
struct TruncatedSweep<'a, T: ProbeTarget + ?Sized> {
    cells: &'a [MserCell],
    cuts: &'a [usize],
    target: &'a T,
}

impl<T: ProbeTarget + ?Sized> SweepScenario for TruncatedSweep<'_, T> {
    type Acc = MserCorrectedAcc;
    type Row = MserCorrectedAcc;

    fn name(&self) -> &str {
        "mser_truncated"
    }
    fn points(&self) -> usize {
        self.cells.len()
    }
    fn reps(&self, point: usize) -> usize {
        self.cells[point].reps
    }
    fn identity(&self, _point: usize) -> MserCorrectedAcc {
        MserCorrectedAcc::default()
    }
    fn replicate(&self, point: usize, rep: usize, acc: &mut MserCorrectedAcc) {
        let cell = &self.cells[point];
        cell.probe.corrected_rep(
            self.target,
            self.cuts[point],
            derive_seed(cell.seed, rep as u64),
            acc,
        );
    }
    fn finish(&self, _point: usize, acc: MserCorrectedAcc) -> MserCorrectedAcc {
        acc
    }
}

/// Measure a family of MSER probes (e.g. one per probing rate of
/// Fig 17) through the sweep engine: two passes, each scheduling every
/// `(cell × replication)` concurrently over the shared work-stealing
/// executor. Cell `c`'s result does not depend on the other cells: it
/// is `cells[c].probe.measure(target, cells[c].reps, cells[c].seed)`,
/// bit for bit (the `run_cells` contract).
pub fn measure_rate_sweep<T: ProbeTarget + ?Sized>(
    cells: &[MserCell],
    target: &T,
) -> Vec<MserMeasurement> {
    let profiles = run_sweep(&ProfileSweep { cells, target });
    let cuts: Vec<usize> = cells
        .iter()
        .zip(&profiles)
        .map(|(cell, profile)| cell.probe.truncation_point(profile))
        .collect();
    let corrected = run_sweep(&TruncatedSweep {
        cells,
        cuts: &cuts,
        target,
    });
    cells
        .iter()
        .zip(profiles)
        .zip(corrected)
        .map(|((cell, profile), cor)| cell.probe.assemble(cell.reps, profile, cor))
        .collect()
}

impl MserMeasurement {
    /// Raw dispersion-inferred rate `L/E[gO]`, bits/s.
    pub fn raw_rate_bps(&self) -> f64 {
        self.train.bytes as f64 * 8.0 / self.raw_gap.mean()
    }

    /// MSER-corrected rate, bits/s — the paper's Fig 17 curve.
    pub fn corrected_rate_bps(&self) -> f64 {
        self.train.bytes as f64 * 8.0 / self.corrected_gap.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::TrainProbe;
    use csmaprobe_core::link::{LinkConfig, WlanLink};

    /// Fig 17's qualitative claim: at rates above the fair share, the
    /// MSER-2-corrected 20-packet estimate is closer to the long-train
    /// (steady-state) value than the raw 20-packet estimate.
    #[test]
    fn mser_moves_short_trains_toward_steady_state() {
        // Paper setting: heavy contention (4.5 Mb/s) maximises the
        // transient, probing above the ~3.3 Mb/s fair share.
        let link = WlanLink::new(LinkConfig::default().contending_bps(4.5e6));
        let rate = 6e6;

        let steady = TrainProbe::new(400, 1500, rate)
            .measure(&link, 15, 100)
            .output_rate_bps();
        let short = MserProbe::new(20, 1500, rate, 2).measure(&link, 500, 100);
        let raw_err = (short.raw_rate_bps() - steady).abs();
        let cor_err = (short.corrected_rate_bps() - steady).abs();
        assert!(
            cor_err < raw_err,
            "MSER should help: raw {} corrected {} steady {steady}",
            short.raw_rate_bps(),
            short.corrected_rate_bps()
        );
        // And it actually truncated something on average.
        assert!(short.mean_truncated > 0.1, "{}", short.mean_truncated);
    }

    #[test]
    fn mser_no_op_when_no_transient() {
        // Probing well below the fair share: gaps ≈ gI throughout, the
        // correction must not distort the estimate.
        let link = WlanLink::new(LinkConfig::default().contending_bps(2e6));
        let m = MserProbe::new(20, 1500, 1e6, 2).measure(&link, 60, 7);
        let raw = m.raw_rate_bps();
        let cor = m.corrected_rate_bps();
        assert!((raw - cor).abs() / raw < 0.05, "raw {raw} corrected {cor}");
        assert!((cor - 1e6).abs() / 1e6 < 0.1, "corrected {cor}");
    }

    #[test]
    fn tiny_trains_fall_back_to_raw() {
        let link = WlanLink::new(LinkConfig::default());
        // 3 packets -> 2 gaps -> k = 1 batch with m=2: MSER undefined,
        // no truncation happens.
        let m = MserProbe::new(3, 1500, 5e6, 2).measure(&link, 20, 9);
        assert_eq!(m.raw_gap.count(), m.corrected_gap.count());
        assert!((m.raw_gap.mean() - m.corrected_gap.mean()).abs() < 1e-12);
        assert_eq!(m.mean_truncated, 0.0);
    }
}
