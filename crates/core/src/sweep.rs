//! The scenario engine: a parameterised family of scenarios (one cell
//! per sweep point — a probing rate, or a link × train × tool
//! combination) scheduled as one map-reduce on the shared
//! work-stealing executor.
//!
//! A [`SweepScenario`] describes what one replication of one cell does
//! and how its observations accumulate; [`run_sweep`] schedules every
//! `(cell × replication)` pair through
//! [`csmaprobe_desim::replicate::run_cells`], which folds them into
//! per-cell [`Accumulate`] reducers, and returns the finished rows in
//! cell order, so a figure's ~20 rate points run concurrently instead
//! of serially.
//!
//! # Trait contract
//!
//! A [`SweepScenario`] is a **pure function of its parameters**:
//!
//! * [`SweepScenario::replicate`] must derive all randomness from
//!   `(point, rep)` alone (typically `derive_seed(point_seed, rep)`),
//!   never from shared mutable state — the runner executes cells in any
//!   order, on any worker.
//! * [`SweepScenario::Acc`] must satisfy the [`Accumulate`] contract:
//!   merging two accumulators equals having pushed both observation
//!   streams into one (exactly or up to documented rounding).
//! * [`SweepScenario::finish`] turns a fully-reduced cell into its row;
//!   it runs once per point, after all replications of that point
//!   completed.
//!
//! # Determinism guarantees
//!
//! The runner inherits `run_cells`' bit-compatibility contract: each
//! cell's replications fold on the cell-local [`CHUNK`] grid and merge
//! in ascending chunk order, so every cell's accumulator is
//! **bit-identical** to a standalone `run_reduce(reps(point), …)` over
//! the same replications — for any worker count and any scheduling
//! order. A figure ported from a hand-rolled loop of per-point
//! `run_reduce` calls therefore reproduces its old output exactly.
//!
//! [`CHUNK`]: csmaprobe_desim::replicate::CHUNK

use crate::link::{SteadyPoint, WlanLink};
use csmaprobe_desim::replicate;
use csmaprobe_desim::rng::derive_seed;
use csmaprobe_desim::time::Dur;
use csmaprobe_stats::accumulate::Accumulate;

/// A parameterised family of scenarios — one cell per sweep point.
///
/// Implementors describe *what* one replication of one point does and
/// how its observations accumulate; [`run_sweep`] decides *how* the
/// `(point × replication)` grid is scheduled.
pub trait SweepScenario: Sync {
    /// Streaming per-cell accumulator (one per sweep point).
    type Acc: Accumulate + Send;
    /// Finished row type, one per sweep point.
    type Row: Send;

    /// Short identifier (for registries and logs).
    fn name(&self) -> &str;

    /// Number of sweep points (cells on the parameter axis).
    fn points(&self) -> usize;

    /// Replication budget of point `point`.
    fn reps(&self, point: usize) -> usize;

    /// A fresh (identity) accumulator for point `point`.
    fn identity(&self, point: usize) -> Self::Acc;

    /// Run replication `rep` of point `point`, folding its observations
    /// into `acc`. Must be a pure function of `(point, rep)` — derive
    /// seeds from them, e.g. `derive_seed(point_seed, rep as u64)`.
    fn replicate(&self, point: usize, rep: usize, acc: &mut Self::Acc);

    /// Turn point `point`'s fully-reduced accumulator into its row.
    fn finish(&self, point: usize, acc: Self::Acc) -> Self::Row;
}

/// Run every cell of `scenario` and return one row per point, in
/// point order. See the module docs for the determinism contract.
pub fn run_sweep<S: SweepScenario + ?Sized>(scenario: &S) -> Vec<S::Row> {
    let budgets: Vec<usize> = (0..scenario.points()).map(|p| scenario.reps(p)).collect();
    replicate::run_cells(
        &budgets,
        |p, rep, acc: &mut S::Acc| scenario.replicate(p, rep, acc),
        |p| scenario.identity(p),
        |a, b| a.merge(b),
    )
    .into_iter()
    .enumerate()
    .map(|(p, acc)| scenario.finish(p, acc))
    .collect()
}

/// The steady-state rate-response sweep of Figs 1/4: one long-flow
/// [`WlanLink::steady_state`] measurement per probing rate.
///
/// Point `i` runs one replication seeded `derive_seed(seed, i)` — the
/// exact seeds the historical `rate_response_curve` loop used, so the
/// curve is bit-identical to the sequential implementation while the
/// rate points now run concurrently.
#[derive(Debug, Clone)]
pub struct RateResponseSweep {
    /// The link every point probes.
    pub link: WlanLink,
    /// Probe input rates, bits/s — one sweep point each.
    pub rates_bps: Vec<f64>,
    /// Measurement duration per point (after warm-up).
    pub duration: Dur,
    /// Master seed; point `i` uses `derive_seed(seed, i)`.
    pub seed: u64,
}

impl SweepScenario for RateResponseSweep {
    // One steady-state run per point: the Vec accumulator materialises
    // that single output (concatenation keeps replication order if a
    // future variant replicates points).
    type Acc = Vec<SteadyPoint>;
    type Row = SteadyPoint;

    fn name(&self) -> &str {
        "rate_response"
    }

    fn points(&self) -> usize {
        self.rates_bps.len()
    }

    fn reps(&self, _point: usize) -> usize {
        1
    }

    fn identity(&self, _point: usize) -> Self::Acc {
        Vec::new()
    }

    fn replicate(&self, point: usize, _rep: usize, acc: &mut Self::Acc) {
        let ri = self.rates_bps[point];
        acc.push(
            self.link
                .steady_state(ri, self.duration, derive_seed(self.seed, point as u64)),
        );
    }

    fn finish(&self, point: usize, mut acc: Self::Acc) -> Self::Row {
        debug_assert_eq!(acc.len(), 1, "point {point} ran exactly once");
        acc.pop().expect("one steady-state run per point")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use csmaprobe_stats::online::OnlineStats;

    /// A cheap synthetic sweep: point `p` averages `reps(p)` pseudo
    /// observations derived from `(p, rep)`.
    struct Synthetic {
        reps: Vec<usize>,
        seed: u64,
    }

    impl SweepScenario for Synthetic {
        type Acc = OnlineStats;
        type Row = (u64, f64);

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
            let seed = derive_seed(derive_seed(self.seed, point as u64), rep as u64);
            acc.push(csmaprobe_desim::rng::SimRng::new(seed).f64());
        }
        fn finish(&self, _point: usize, acc: OnlineStats) -> (u64, f64) {
            (acc.count(), acc.mean())
        }
    }

    #[test]
    fn rows_in_point_order_with_full_budgets() {
        let s = Synthetic {
            reps: vec![3, 0, 100, 40],
            seed: 9,
        };
        let rows = run_sweep(&s);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].0, 3);
        assert_eq!(rows[1].0, 0);
        assert_eq!(rows[2].0, 100);
        assert_eq!(rows[3].0, 40);
        for (n, mean) in &rows {
            if *n > 20 {
                assert!((mean - 0.5).abs() < 0.2, "mean {mean}");
            }
        }
    }

    #[test]
    fn sweep_bit_identical_across_worker_counts() {
        let s = Synthetic {
            reps: vec![70, 33, 1],
            seed: 0x5EED,
        };
        csmaprobe_desim::replicate::set_worker_limit(1);
        let solo = run_sweep(&s);
        csmaprobe_desim::replicate::set_worker_limit(4);
        let quad = run_sweep(&s);
        csmaprobe_desim::replicate::set_worker_limit(0);
        for (a, b) in solo.iter().zip(&quad) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn rate_response_sweep_matches_sequential_steady_state() {
        let link = WlanLink::new(LinkConfig::default().contending_bps(2_000_000.0));
        let rates = vec![1.5e6, 8e6];
        let duration = Dur::from_secs(2);
        let sweep = RateResponseSweep {
            link: link.clone(),
            rates_bps: rates.clone(),
            duration,
            seed: 77,
        };
        let rows = run_sweep(&sweep);
        assert_eq!(rows.len(), 2);
        for (i, (&ri, row)) in rates.iter().zip(&rows).enumerate() {
            let reference = link.steady_state(ri, duration, derive_seed(77, i as u64));
            assert_eq!(row.input_rate_bps, reference.input_rate_bps);
            assert_eq!(
                row.output_rate_bps.to_bits(),
                reference.output_rate_bps.to_bits(),
                "point {i}"
            );
        }
    }

    #[test]
    fn runner_usable_as_trait_object() {
        let s = Synthetic {
            reps: vec![2, 2],
            seed: 1,
        };
        let dynref: &dyn SweepScenario<Acc = OnlineStats, Row = (u64, f64)> = &s;
        let rows = run_sweep(dynref);
        assert_eq!(rows.len(), 2);
        assert_eq!(s.name(), "synthetic");
    }
}
