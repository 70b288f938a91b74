//! MSER equivalence tests: the two-phase **streaming** pooled-profile
//! implementation must produce the same corrected rate as the
//! historical **materialising** implementation (which held every
//! replication's gap vector at once), on arbitrary randomised gap
//! profiles — plus a fixed-seed regression vector on a real WLAN link.
//!
//! The randomised comparison runs both algorithms over a [`ReplayTarget`]
//! that deterministically replays pre-generated receiver gap series, so
//! the property isolates the estimator from the simulator.

use csmaprobe::core::link::{LinkConfig, ProbeTarget, TrainObservation, WlanLink};
use csmaprobe::desim::rng::derive_seed;
use csmaprobe::desim::time::{Dur, Time};
use csmaprobe::probe::mser::{measure_rate_sweep, MserCell, MserProbe};
use csmaprobe::stats::mser::mser_m;
use csmaprobe::stats::transient::IndexedSeries;
use csmaprobe::traffic::probe::ProbeTrain;
use proptest::prelude::*;
use std::collections::HashMap;

/// A probe target that replays canned receiver-gap series: replication
/// seeds map to pre-generated gap vectors.
struct ReplayTarget {
    by_seed: HashMap<u64, Vec<f64>>,
    bytes: u32,
}

impl ReplayTarget {
    /// Build a target replaying `gaps[i]` for replication `i` of
    /// `master_seed` (the seed derivation `run_reduce` uses).
    fn new(master_seed: u64, gaps: &[Vec<f64>], bytes: u32) -> Self {
        let by_seed = gaps
            .iter()
            .enumerate()
            .map(|(i, g)| (derive_seed(master_seed, i as u64), g.clone()))
            .collect();
        ReplayTarget { by_seed, bytes }
    }

    fn observation(&self, seed: u64) -> TrainObservation {
        let gaps = &self.by_seed[&seed];
        let mut rx_times = Vec::with_capacity(gaps.len() + 1);
        let mut t = Time::ZERO + Dur::from_secs(1);
        rx_times.push(t);
        for &g in gaps {
            t += Dur::from_secs_f64(g);
            rx_times.push(t);
        }
        TrainObservation {
            arrivals: rx_times.clone(),
            rx_times,
            access_delays: None,
            g_i: Dur::from_millis(1),
            bytes: self.bytes,
        }
    }
}

impl ProbeTarget for ReplayTarget {
    fn probe_train(&self, _train: ProbeTrain, seed: u64) -> TrainObservation {
        self.observation(seed)
    }
    fn probe_sequence(&self, _offsets: &[Dur], _bytes: u32, seed: u64) -> TrainObservation {
        self.observation(seed)
    }
    fn probe_bytes(&self) -> u32 {
        self.bytes
    }
}

/// The historical materialising pooled-profile algorithm, verbatim:
/// collect every replication's gaps, run MSER on the across-replication
/// mean profile, truncate every replication at the common cut.
fn materialising_reference(per_rep: &[Vec<f64>], m: usize) -> (f64, f64, usize) {
    let mut raw = Vec::new();
    for gaps in per_rep {
        if !gaps.is_empty() {
            raw.push(gaps.iter().sum::<f64>() / gaps.len() as f64);
        }
    }
    let mut profile = IndexedSeries::new();
    for gaps in per_rep {
        profile.push_replication(gaps);
    }
    let cut = mser_m(&profile.means(), m)
        .map(|r| r.truncate_raw)
        .unwrap_or(0);
    let mut corrected = Vec::new();
    let mut truncated = 0usize;
    for gaps in per_rep {
        let kept = &gaps[cut.min(gaps.len())..];
        if !kept.is_empty() {
            corrected.push(kept.iter().sum::<f64>() / kept.len() as f64);
            truncated += cut.min(gaps.len());
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    (mean(&raw), mean(&corrected), truncated)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // Streaming two-phase == materialising reference, on randomised
    // gap profiles with a transient-like decaying prefix.
    #[test]
    fn streamed_pooled_profile_matches_materialising(
        reps in 3usize..40,
        n_gaps in 4usize..30,
        master_seed in any::<u64>(),
        ramp in 0.0f64..3.0,
        noise in 0.01f64..0.5,
    ) {
        // Per-replication gap series: a decaying-transient mean profile
        // (gap grows toward steady state, like accelerated first
        // packets) plus bounded pseudorandom noise.
        let mut gaps = Vec::with_capacity(reps);
        for r in 0..reps {
            let mut rng = csmaprobe::desim::rng::SimRng::new(derive_seed(master_seed ^ 0xA5, r as u64));
            let series: Vec<f64> = (0..n_gaps)
                .map(|i| {
                    let steady = 1e-3;
                    let transient = -ramp * steady * (-(i as f64) / 5.0).exp();
                    let jitter = (rng.f64() - 0.5) * noise * steady;
                    (steady + transient + jitter).max(1e-6)
                })
                .collect();
            gaps.push(series);
        }

        let target = ReplayTarget::new(master_seed, &gaps, 1500);
        // The reference must consume exactly what the streaming path
        // sees: the replayed gaps, quantised to the simulator's integer
        // nanosecond timestamps.
        let replayed: Vec<Vec<f64>> = (0..reps)
            .map(|i| {
                target
                    .observation(derive_seed(master_seed, i as u64))
                    .receiver_gaps_s()
            })
            .collect();
        let probe = MserProbe::new(n_gaps + 1, 1500, 5e6, 2);
        let streamed = probe.measure(&target, reps, master_seed);
        let (raw_ref, cor_ref, trunc_ref) = materialising_reference(&replayed, 2);

        prop_assert!((streamed.raw_gap.mean() - raw_ref).abs() / raw_ref < 1e-9,
            "raw {} vs {}", streamed.raw_gap.mean(), raw_ref);
        prop_assert!((streamed.corrected_gap.mean() - cor_ref).abs() / cor_ref < 1e-9,
            "corrected {} vs {}", streamed.corrected_gap.mean(), cor_ref);
        prop_assert!((streamed.mean_truncated - trunc_ref as f64 / reps as f64).abs() < 1e-12);

        // And the sweep path (fig17's route) agrees bit-for-bit with
        // the standalone streaming measure.
        let cells = [MserCell { probe, reps, seed: master_seed }];
        let swept = &measure_rate_sweep(&cells, &target)[0];
        prop_assert_eq!(swept.corrected_gap.mean().to_bits(),
            streamed.corrected_gap.mean().to_bits());
        prop_assert_eq!(swept.raw_gap.mean().to_bits(), streamed.raw_gap.mean().to_bits());
    }
}

/// Fixed-seed regression vector on a real WLAN link: pins the exact
/// numbers the streaming implementation produced at the time of the
/// two-phase conversion, so estimator drift cannot creep in silently.
#[test]
fn pooled_profile_regression_vector() {
    let link = WlanLink::new(LinkConfig::default().contending_bps(4_500_000.0));
    let m = MserProbe::new(20, 1500, 6e6, 2).measure(&link, 120, 0x00F1_6017);
    // Values recorded from this exact configuration (seed 0xF16017,
    // 120 reps); the tolerance allows libm-level cross-platform drift
    // only.
    let raw = m.raw_rate_bps();
    let corrected = m.corrected_rate_bps();
    let expect = |x: f64, want: f64, what: &str| {
        assert!(
            (x - want).abs() / want < 1e-6,
            "{what}: {x} vs pinned {want}"
        );
    };
    expect(raw, 3_492_135.732602755, "raw rate");
    expect(corrected, 3_436_010.734868093, "corrected rate");
    assert!(
        (m.mean_truncated - 4.0).abs() < 1e-12,
        "mean truncated {}",
        m.mean_truncated
    );
}
