//! Property tests of the sweep scenario subsystem (`core::sweep`) and
//! the hardened rate-grid helper (`bench::scenarios::rate_sweep_mbps`).
//!
//! The properties pin the two contracts the sweep engine advertises:
//!
//! 1. **Sequential equivalence** — for arbitrary grids of points and
//!    replication budgets, `run_sweep` output equals a plain
//!    sequential per-point fold (and is *bit-identical* to a standalone
//!    per-point `run_reduce`).
//! 2. **Grid hardening** — `rate_sweep_mbps` never emits non-monotone
//!    or out-of-range points, for any input including NaN/±inf and
//!    non-positive steps.

use csmaprobe::core::sweep::{run_sweep, SweepScenario};
use csmaprobe::desim::replicate;
use csmaprobe::desim::rng::{derive_seed, SimRng};
use csmaprobe::stats::accumulate::Accumulate;
use csmaprobe::stats::online::OnlineStats;
use csmaprobe_bench::scenarios::{rate_sweep_mbps, MAX_SWEEP_POINTS};
use proptest::prelude::*;

/// A synthetic sweep: point `p` folds `reps[p]` pseudorandom
/// observations (pure functions of `(seed, p, rep)`) into `OnlineStats`.
struct SyntheticSweep {
    reps: Vec<usize>,
    seed: u64,
}

impl SyntheticSweep {
    fn observation(&self, point: usize, rep: usize) -> f64 {
        let s = derive_seed(derive_seed(self.seed, point as u64), rep as u64);
        SimRng::new(s).f64()
    }
}

impl SweepScenario for SyntheticSweep {
    type Acc = OnlineStats;
    type Row = OnlineStats;

    fn name(&self) -> &str {
        "synthetic"
    }
    fn points(&self) -> usize {
        self.reps.len()
    }
    fn reps(&self, point: usize) -> usize {
        self.reps[point]
    }
    fn identity(&self, _point: usize) -> OnlineStats {
        OnlineStats::new()
    }
    fn replicate(&self, point: usize, rep: usize, acc: &mut OnlineStats) {
        acc.push(self.observation(point, rep));
    }
    fn finish(&self, _point: usize, acc: OnlineStats) -> OnlineStats {
        acc
    }
}

/// Order-materialising sweep: every `(point, rep)` pair, concatenated.
struct OrderSweep {
    reps: Vec<usize>,
}

impl SweepScenario for OrderSweep {
    type Acc = Vec<(usize, usize)>;
    type Row = Vec<(usize, usize)>;

    fn name(&self) -> &str {
        "order"
    }
    fn points(&self) -> usize {
        self.reps.len()
    }
    fn reps(&self, point: usize) -> usize {
        self.reps[point]
    }
    fn identity(&self, _point: usize) -> Vec<(usize, usize)> {
        Vec::new()
    }
    fn replicate(&self, point: usize, rep: usize, acc: &mut Vec<(usize, usize)>) {
        acc.push((point, rep));
    }
    fn finish(&self, _point: usize, acc: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
        acc
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // run_sweep == sequential reference, for arbitrary grids.
    #[test]
    fn sweep_runner_matches_sequential_reference(
        reps in prop::collection::vec(0usize..120, 1..12),
        seed in any::<u64>(),
    ) {
        let sweep = SyntheticSweep { reps: reps.clone(), seed };
        let rows = run_sweep(&sweep);
        prop_assert_eq!(rows.len(), reps.len());
        for (p, row) in rows.iter().enumerate() {
            // Plain sequential fold: identical counts, means equal up
            // to chunk-merge rounding.
            let mut reference = OnlineStats::new();
            for r in 0..reps[p] {
                reference.push(sweep.observation(p, r));
            }
            prop_assert_eq!(row.count(), reference.count());
            if reference.count() > 0 {
                prop_assert!((row.mean() - reference.mean()).abs() <= 1e-12);
            }
            // Standalone run_reduce over the same cell: bit-identical
            // (the engine's advertised contract).
            let standalone = replicate::run_reduce(
                reps[p],
                derive_seed(seed, p as u64),
                |_, s, acc: &mut OnlineStats| acc.push(SimRng::new(s).f64()),
                OnlineStats::new,
                Accumulate::merge,
            );
            prop_assert_eq!(row.mean().to_bits(), standalone.mean().to_bits());
            prop_assert_eq!(row.variance().to_bits(), standalone.variance().to_bits());
        }
    }

    // Every (point, rep) cell runs exactly once, in replication order
    // within its point, with rows in point order.
    #[test]
    fn sweep_runner_covers_the_exact_grid(
        reps in prop::collection::vec(0usize..90, 1..10),
    ) {
        let rows = run_sweep(&OrderSweep { reps: reps.clone() });
        prop_assert_eq!(rows.len(), reps.len());
        for (p, row) in rows.iter().enumerate() {
            let expected: Vec<(usize, usize)> = (0..reps[p]).map(|r| (p, r)).collect();
            prop_assert_eq!(row, &expected);
        }
    }

    // rate_sweep_mbps: monotone, in-range, bounded — for sane inputs.
    #[test]
    fn rate_sweep_sane_inputs_well_formed(
        lo in 0.1f64..20.0,
        span in 0.0f64..30.0,
        step in 0.01f64..5.0,
    ) {
        let hi = lo + span;
        let rates = rate_sweep_mbps(lo, hi, step);
        prop_assert!(!rates.is_empty());
        prop_assert!(rates.len() <= MAX_SWEEP_POINTS);
        prop_assert_eq!(rates[0], lo * 1e6);
        for w in rates.windows(2) {
            prop_assert!(w[1] > w[0], "non-monotone: {} then {}", w[0], w[1]);
        }
        for &r in &rates {
            prop_assert!(r.is_finite());
            prop_assert!(r >= lo * 1e6 * (1.0 - 1e-12));
            prop_assert!(r <= hi * 1e6 * (1.0 + 1e-9) + 1.0);
        }
    }

    // rate_sweep_mbps: garbage in, empty (never a nonsense grid) out.
    #[test]
    fn rate_sweep_garbage_inputs_never_emit_bad_points(
        lo in -5.0f64..20.0,
        hi in -5.0f64..20.0,
        step in -2.0f64..2.0,
        poison in 0u8..6,
    ) {
        // Occasionally replace a field with a non-finite value.
        let (lo, hi, step) = match poison {
            1 => (f64::NAN, hi, step),
            2 => (lo, f64::INFINITY, step),
            3 => (lo, hi, f64::NAN),
            4 => (lo, hi, f64::NEG_INFINITY),
            5 => (f64::INFINITY, f64::INFINITY, 0.0),
            _ => (lo, hi, step),
        };
        let rates = rate_sweep_mbps(lo, hi, step);
        prop_assert!(rates.len() <= MAX_SWEEP_POINTS);
        for w in rates.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
        for &r in &rates {
            prop_assert!(r.is_finite() && r > 0.0, "bad point {r}");
        }
        // Degenerate triples must produce nothing at all.
        if !(lo.is_finite() && hi.is_finite() && step.is_finite())
            || lo <= 0.0
            || step <= 0.0
            || hi < lo
        {
            prop_assert!(rates.is_empty());
        }
    }
}

/// The runner stays bit-identical across worker counts on an arbitrary
/// (fixed, mixed-size) grid — the sweep analogue of the replication
/// engine's determinism tests.
#[test]
fn sweep_runner_bit_identical_across_worker_counts() {
    let sweep = SyntheticSweep {
        reps: vec![100, 1, 0, 64, 33],
        seed: 0xD00D,
    };
    replicate::set_worker_limit(1);
    let solo = run_sweep(&sweep);
    replicate::set_worker_limit(4);
    let quad = run_sweep(&sweep);
    replicate::set_worker_limit(0);
    for (a, b) in solo.iter().zip(&quad) {
        assert_eq!(a.count(), b.count());
        assert_eq!(a.mean().to_bits(), b.mean().to_bits());
        assert_eq!(a.variance().to_bits(), b.variance().to_bits());
    }
}
