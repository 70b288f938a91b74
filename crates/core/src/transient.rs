//! §4 — the transient-state experiments: replicated probing trains,
//! per-index access-delay statistics, KS profiles, and the §4.1
//! transient-length estimator.
//!
//! A [`TransientExperiment`] names a link, a probing train, a
//! replication budget and a seed, and runs in one of two modes:
//!
//! * [`TransientExperiment::run`] — fully streaming: every replication
//!   folds straight into per-index [`OnlineStats`] via
//!   `replicate::run_reduce`, so peak memory is O(train length ×
//!   accumulator) no matter the replication count. This serves Figs 6
//!   and 10 and every mean-profile analysis.
//! * [`TransientExperiment::run_dense`] — the escape hatch for analyses
//!   that genuinely need raw per-index samples (the KS profiles of
//!   Figs 7–9), with an **explicit per-index reservoir cap** bounding
//!   memory at O(train length × cap).
//!
//! Both modes are deterministic in `(seed, reps)` — bit-identical
//! across repeated runs and across worker counts, because the
//! underlying reduce merges chunk accumulators in fixed chunk order.
//!
//! Both modes are also **demand-driven**: a caller declares the
//! [`Columns`] it reads besides the access delays — the contending
//! queue occupancy and the streamed p95 — through
//! [`TransientExperiment::run_columns`] and
//! [`TransientExperiment::run_dense_columns`], and the engine neither
//! reconstructs nor accumulates the others, which stay empty. Each
//! accumulator is a pure function of its own push sequence, so a kept
//! column is bit-identical whatever else was requested.

use crate::link::{WlanLink, FLOW_PROBE};
use csmaprobe_desim::replicate;
use csmaprobe_stats::accumulate::Accumulate;
use csmaprobe_stats::ks::KsOutcome;
use csmaprobe_stats::online::OnlineStats;
use csmaprobe_stats::transient::{IndexedQuantile, IndexedSeries, IndexedStats, TransientEstimate};
use csmaprobe_traffic::probe::ProbeTrain;

/// A replicated transient-probing experiment.
#[derive(Debug, Clone)]
pub struct TransientExperiment {
    /// The link (probe + cross-traffic configuration).
    pub link: WlanLink,
    /// The probing train sent in every replication.
    pub train: ProbeTrain,
    /// Number of independent replications.
    pub reps: usize,
    /// Master seed; replication `k` uses seed `derive(seed, k)`.
    pub seed: u64,
}

/// The tail percentile both execution modes stream per packet index
/// (the paper's access-delay distributions are right-skewed; the p95
/// tracks the transient's effect on the tail, not just the mean).
pub const TAIL_QUANTILE: f64 = 0.95;

/// The per-index columns a run accumulates besides the access delays,
/// which every run keeps. A column not requested costs nothing and is
/// left empty in the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Columns {
    /// The first contending station's queue length at each probe
    /// arrival (`queue_sizes`; stays empty without contenders).
    pub queue: bool,
    /// The streamed per-index access-delay p95 (`delay_p95`).
    pub p95: bool,
}

impl Columns {
    /// Every column: what [`TransientExperiment::run`] and
    /// [`TransientExperiment::run_dense`] accumulate.
    pub const ALL: Columns = Columns {
        queue: true,
        p95: true,
    };
    /// The access delays alone.
    pub const DELAYS: Columns = Columns {
        queue: false,
        p95: false,
    };
}

/// Streaming accumulator of one scenario: per-index delay and
/// queue-size moments plus the streamed per-index delay p95. Moments
/// merge exactly (up to rounding), the p95 by the deterministic P²
/// marker merge, under the chunk-ordered reduce.
#[derive(Debug, Clone)]
struct SummaryAcc {
    delays: IndexedStats,
    queues: IndexedStats,
    delay_p95: IndexedQuantile,
}

impl Default for SummaryAcc {
    fn default() -> Self {
        SummaryAcc {
            delays: IndexedStats::new(),
            queues: IndexedStats::new(),
            delay_p95: IndexedQuantile::new(TAIL_QUANTILE),
        }
    }
}

impl Accumulate for SummaryAcc {
    fn merge(&mut self, other: Self) {
        self.delays.merge(other.delays);
        self.queues.merge(other.queues);
        self.delay_p95.merge(other.delay_p95);
    }
}

/// Dense accumulator: raw per-index samples, reservoir-capped, plus
/// the same streamed per-index delay p95 as the summary path (P² — not
/// recomputed from the capped reservoir, so the tail estimate never
/// degrades with decimation).
#[derive(Debug, Clone)]
struct DenseAcc {
    delays: IndexedSeries,
    queues: IndexedSeries,
    delay_p95: IndexedQuantile,
}

impl Accumulate for DenseAcc {
    fn merge(&mut self, other: Self) {
        self.delays.merge(other.delays);
        self.queues.merge(other.queues);
        self.delay_p95.merge(other.delay_p95);
    }
}

/// Run one replication of `exp` and feed `consume` each probe packet
/// as `(index, access delay, queue)`: the first contender's queue
/// length at the packet's arrival when `queue` is requested and the
/// link has a contender, else `None`. The simulation buffers are
/// recycled afterwards.
fn replicate_once(
    exp: &TransientExperiment,
    seed: u64,
    queue: bool,
    mut consume: impl FnMut(usize, f64, Option<f64>),
) {
    let (output, probe_station, contending) = exp.link.simulate_train(exp.train, seed);
    // The probe records, read where the simulator wrote them.
    let probe = || {
        output
            .records(probe_station)
            .iter()
            .filter(|r| r.flow == FLOW_PROBE)
    };
    let delays = probe().map(|r| r.access_delay().as_secs_f64());
    match contending.first().filter(|_| queue) {
        Some(&contender) => {
            // Probe records come out in FIFO order, so their arrivals
            // ascend: one merge walk serves the whole train.
            let queues = output.queue_lens_at(contender, probe().map(|r| r.arrival));
            for (i, (delay, q)) in delays.zip(queues).enumerate() {
                consume(i, delay, Some(q as f64));
            }
        }
        None => {
            for (i, delay) in delays.enumerate() {
                consume(i, delay, None);
            }
        }
    }
    output.recycle();
}

impl TransientExperiment {
    /// Run all replications in streaming mode (thread-parallel,
    /// deterministic): per-index moments only, O(train length) memory.
    /// Accumulates every column ([`Columns::ALL`]).
    pub fn run(&self) -> TransientSummary {
        self.run_columns(Columns::ALL)
    }

    /// [`TransientExperiment::run`] accumulating only the delay moments
    /// and the requested `cols`.
    pub fn run_columns(&self, cols: Columns) -> TransientSummary {
        let acc = replicate::run_reduce(
            self.reps,
            self.seed,
            |_, s, acc: &mut SummaryAcc| {
                replicate_once(self, s, cols.queue, |i, delay, queue| {
                    acc.delays.push(i, delay);
                    if cols.p95 {
                        acc.delay_p95.push(i, delay);
                    }
                    if let Some(q) = queue {
                        acc.queues.push(i, q);
                    }
                });
            },
            SummaryAcc::default,
            Accumulate::merge,
        );
        TransientSummary {
            delays: acc.delays,
            queue_sizes: acc.queues,
            delay_p95: acc.delay_p95,
            reps: self.reps,
        }
    }

    /// Run all replications retaining raw per-index samples (for KS
    /// profiles and histograms), capped at `cap` samples per index.
    /// Accumulates every column ([`Columns::ALL`]).
    pub fn run_dense(&self, cap: usize) -> TransientData {
        self.run_dense_columns(cap, Columns::ALL)
    }

    /// [`TransientExperiment::run_dense`] accumulating only the delay
    /// samples and the requested `cols`. Beyond `cap` samples per
    /// packet index the reservoir decimates deterministically.
    pub fn run_dense_columns(&self, cap: usize, cols: Columns) -> TransientData {
        let acc = replicate::run_reduce(
            self.reps,
            self.seed,
            |_, s, acc: &mut DenseAcc| {
                let mut delays = Vec::with_capacity(self.train.n);
                let mut queues = Vec::new();
                replicate_once(self, s, cols.queue, |_, delay, queue| {
                    delays.push(delay);
                    if let Some(q) = queue {
                        queues.push(q);
                    }
                });
                acc.delays.push_replication(&delays);
                if cols.p95 {
                    acc.delay_p95.push_replication(&delays);
                }
                if !queues.is_empty() {
                    acc.queues.push_replication(&queues);
                }
            },
            || DenseAcc {
                delays: IndexedSeries::with_cap(cap),
                queues: IndexedSeries::with_cap(cap),
                delay_p95: IndexedQuantile::new(TAIL_QUANTILE),
            },
            Accumulate::merge,
        );
        TransientData {
            delays: acc.delays,
            queue_sizes: acc.queues,
            delay_p95: acc.delay_p95,
        }
    }
}

/// The streamed p95 profile, refusing a run that did not accumulate it
/// (an empty profile next to non-empty delays would read as "no
/// packets" rather than "not requested").
fn requested_p95(delay_p95: &IndexedQuantile, delays_len: usize) -> Vec<f64> {
    assert!(
        !delay_p95.is_empty() || delays_len == 0,
        "p95_profile: the delay_p95 column was not accumulated \
         (run with Columns {{ p95: true, .. }})"
    );
    delay_p95.values()
}

/// Streaming result of a [`TransientExperiment`]: per-index moments of the access
/// delay and of the first contending station's queue size.
#[derive(Debug, Clone)]
pub struct TransientSummary {
    /// Per-index access-delay moments (seconds).
    pub delays: IndexedStats,
    /// Per-index contending-queue-size moments (empty when the link has
    /// no contenders or the run did not request [`Columns::queue`]).
    pub queue_sizes: IndexedStats,
    /// Streamed per-index access-delay p95 ([`TAIL_QUANTILE`]), seconds
    /// (empty when the run did not request [`Columns::p95`]).
    pub delay_p95: IndexedQuantile,
    /// Replications executed.
    pub reps: usize,
}

impl TransientSummary {
    /// Per-index mean access delay (Fig 6), seconds.
    pub fn mean_profile(&self) -> Vec<f64> {
        self.delays.means()
    }

    /// Pooled moments of the last `last_k` packet indices — the paper's
    /// steady-state statistics (e.g. the last 500 of 1000) without
    /// materialising the pooled sample.
    pub fn steady_stats(&self, last_k: usize) -> OnlineStats {
        let n = self.delays.len();
        self.delays.pooled_stats(n.saturating_sub(last_k), n)
    }

    /// Mean of the steady-state pool.
    pub fn steady_mean(&self, last_k: usize) -> f64 {
        self.steady_stats(last_k).mean()
    }

    /// §4.1 transient length at relative `tolerance` (Fig 10).
    pub fn transient_length(&self, last_k: usize, tolerance: f64) -> TransientEstimate {
        self.delays
            .transient_length(self.steady_mean(last_k), tolerance)
    }

    /// Transient length with an **absolute** tolerance in seconds (the
    /// paper's Fig 10 "0.1/0.01" values read as milliseconds).
    pub fn transient_length_abs(&self, last_k: usize, tol_seconds: f64) -> TransientEstimate {
        csmaprobe_stats::transient::transient_length_of_means_abs(
            &self.mean_profile(),
            self.steady_mean(last_k),
            tol_seconds,
        )
    }

    /// Per-index mean contending-station queue size (Fig 8 bottom).
    pub fn queue_profile(&self) -> Vec<f64> {
        self.queue_sizes.means()
    }

    /// Streamed per-index p95 access delay ([`TAIL_QUANTILE`]), seconds.
    ///
    /// Panics when the run did not request [`Columns::p95`].
    pub fn p95_profile(&self) -> Vec<f64> {
        requested_p95(&self.delay_p95, self.delays.len())
    }
}

/// Dense per-index data from a [`TransientExperiment`] (raw samples, reservoir
/// capped): what the KS analyses of Figs 7–9 need.
#[derive(Debug, Clone)]
pub struct TransientData {
    /// Access delay (seconds) of packet index `i` across replications.
    pub delays: IndexedSeries,
    /// Queue length of the first contending station sampled at each
    /// probe packet's arrival (empty when the link has no contenders or
    /// the run did not request [`Columns::queue`]).
    pub queue_sizes: IndexedSeries,
    /// Streamed per-index access-delay p95 ([`TAIL_QUANTILE`]), seconds
    /// — P²-estimated over **all** replications, independent of the
    /// reservoir cap (empty when the run did not request
    /// [`Columns::p95`]).
    pub delay_p95: IndexedQuantile,
}

impl TransientData {
    /// Per-index mean access delay (Fig 6), seconds.
    pub fn mean_profile(&self) -> Vec<f64> {
        self.delays.means()
    }

    /// The pooled steady-state sample: the access delays of the last
    /// `last_k` packet indices across all replications (the paper pools
    /// the last 500 of 1000).
    pub fn steady_sample(&self, last_k: usize) -> Vec<f64> {
        let n = self.delays.len();
        self.delays.pooled(n.saturating_sub(last_k), n)
    }

    /// Mean of the steady-state sample.
    pub fn steady_mean(&self, last_k: usize) -> f64 {
        let s = self.steady_sample(last_k);
        s.iter().sum::<f64>() / s.len() as f64
    }

    /// KS statistic of each packet index against the steady-state
    /// sample (Fig 8 top / Fig 9), at significance `alpha`.
    pub fn ks_profile(&self, last_k: usize, alpha: f64) -> Vec<KsOutcome> {
        let reference = self.steady_sample(last_k);
        self.delays.ks_profile(&reference, alpha)
    }

    /// §4.1 transient length at relative `tolerance` (Fig 10): the
    /// first packet index whose mean access delay is within tolerance
    /// of the steady-state mean.
    pub fn transient_length(&self, last_k: usize, tolerance: f64) -> TransientEstimate {
        self.delays
            .transient_length(self.steady_mean(last_k), tolerance)
    }

    /// Transient length with an **absolute** tolerance in seconds (the
    /// paper's Fig 10 "0.1/0.01" values read as milliseconds).
    pub fn transient_length_abs(&self, last_k: usize, tol_seconds: f64) -> TransientEstimate {
        csmaprobe_stats::transient::transient_length_of_means_abs(
            &self.mean_profile(),
            self.steady_mean(last_k),
            tol_seconds,
        )
    }

    /// Per-index mean contending-station queue size (Fig 8 bottom).
    pub fn queue_profile(&self) -> Vec<f64> {
        self.queue_sizes.means()
    }

    /// Streamed per-index p95 access delay ([`TAIL_QUANTILE`]), seconds.
    ///
    /// Panics when the run did not request [`Columns::p95`].
    pub fn p95_profile(&self) -> Vec<f64> {
        requested_p95(&self.delay_p95, self.delays.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;

    /// The paper's Fig 6 setting, scaled down: probe 5 Mb/s vs 4 Mb/s
    /// contending cross-traffic. The first packets must see smaller
    /// access delays than steady state.
    #[test]
    fn access_delay_shows_transient() {
        let link = WlanLink::new(LinkConfig::default().contending_bps(4_000_000.0));
        let exp = TransientExperiment {
            link,
            train: ProbeTrain::from_rate(200, 1500, 5_000_000.0),
            reps: 400,
            seed: 0xF1606,
        };
        let data = exp.run();
        let profile = data.mean_profile();
        assert_eq!(profile.len(), 200);
        let steady = data.steady_mean(100);
        // First packet clearly accelerated.
        assert!(
            profile[0] < 0.9 * steady,
            "first {} vs steady {steady}",
            profile[0]
        );
        // Late packets near steady state.
        let late = profile[150..].iter().sum::<f64>() / 50.0;
        assert!(
            (late - steady).abs() / steady < 0.05,
            "late {late} vs steady {steady}"
        );
        // The mean profile is (noisily) increasing early on: packet 1
        // below packet 10's level.
        assert!(profile[0] < profile[9]);
    }

    #[test]
    fn ks_profile_rejects_early_indices_only() {
        let link = WlanLink::new(LinkConfig::default().contending_bps(4_000_000.0));
        let exp = TransientExperiment {
            link,
            train: ProbeTrain::from_rate(150, 1500, 8_000_000.0),
            reps: 300,
            seed: 0xF1608,
        };
        let data = exp.run_dense(usize::MAX);
        let ks = data.ks_profile(75, 0.05);
        // Index 0 differs from steady state.
        assert!(ks[0].reject, "first packet should be off steady state");
        // Most of the last indices do not (they ARE the reference pool,
        // so this is a sanity check of the machinery, not a discovery).
        let late_rejects = ks[100..].iter().filter(|o| o.reject).count();
        assert!(late_rejects < 20, "late rejects: {late_rejects}/50");
    }

    #[test]
    fn transient_length_reasonable() {
        let link = WlanLink::new(LinkConfig::default().contending_bps(4_000_000.0));
        let exp = TransientExperiment {
            link,
            train: ProbeTrain::from_rate(150, 1500, 5_000_000.0),
            reps: 400,
            seed: 0xF1610,
        };
        let data = exp.run();
        let est = data.transient_length(75, 0.1);
        let first = est.first_within.expect("must converge at 0.1 tolerance");
        // Paper: transient ≤ 150 packets at 0.1 tolerance; in this
        // moderate-load setting it is tens of packets at most.
        assert!(first < 100, "transient length {first}");
    }

    #[test]
    fn queue_profile_tracks_contender() {
        let link = WlanLink::new(LinkConfig::default().contending_bps(2_000_000.0));
        let exp = TransientExperiment {
            link,
            train: ProbeTrain::from_rate(100, 1500, 8_000_000.0),
            reps: 150,
            seed: 0xF1612,
        };
        let data = exp.run();
        let q = data.queue_profile();
        assert_eq!(q.len(), 100);
        // The probe's load pushes the contender's queue up over the
        // train: late mean queue exceeds the initial one.
        let early = q[0];
        let late = q[80..].iter().sum::<f64>() / 20.0;
        assert!(late > early, "early {early} late {late}");
    }

    #[test]
    fn p95_profile_sits_above_mean_and_shows_transient() {
        let link = WlanLink::new(LinkConfig::default().contending_bps(4_000_000.0));
        let exp = TransientExperiment {
            link,
            train: ProbeTrain::from_rate(200, 1500, 5_000_000.0),
            reps: 400,
            seed: 0xF1606,
        };
        let summary = exp.run();
        let mean = summary.mean_profile();
        let p95 = summary.p95_profile();
        assert_eq!(p95.len(), mean.len());
        // A right-skewed delay distribution: p95 above the mean at
        // (almost) every index.
        let above = p95.iter().zip(&mean).filter(|(q, m)| q > m).count();
        assert!(above >= mean.len() * 9 / 10, "{above}/{} above", mean.len());
        // The tail shows the transient too: first-packet p95 below the
        // steady-state tail level.
        let steady_p95 = p95[100..].iter().sum::<f64>() / 100.0;
        assert!(
            p95[0] < steady_p95,
            "p95[0] = {} vs steady {steady_p95}",
            p95[0]
        );
        // Dense mode streams the same estimator (identical bits: same
        // replications, same chunk-ordered merge).
        let dense = exp.run_dense(usize::MAX);
        let dense_p95 = dense.p95_profile();
        for (i, (a, b)) in p95.iter().zip(&dense_p95).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "index {i}");
        }
    }

    #[test]
    fn experiment_is_deterministic() {
        let link = WlanLink::new(LinkConfig::default().contending_bps(3_000_000.0));
        let exp = TransientExperiment {
            link,
            train: ProbeTrain::from_rate(30, 1500, 5_000_000.0),
            reps: 20,
            seed: 1234,
        };
        let a = exp.run().mean_profile();
        let b = exp.run().mean_profile();
        assert_eq!(a, b);
    }

    #[test]
    fn summary_agrees_with_dense() {
        // The streaming summary and the (uncapped) dense path are two
        // views of the same replications: identical means up to
        // floating-point rounding.
        let link = WlanLink::new(LinkConfig::default().contending_bps(3_000_000.0));
        let exp = TransientExperiment {
            link,
            train: ProbeTrain::from_rate(50, 1500, 5_000_000.0),
            reps: 60,
            seed: 0xABCD,
        };
        let summary = exp.run();
        let dense = exp.run_dense(usize::MAX);
        let a = summary.mean_profile();
        let b = dense.mean_profile();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
        assert!(
            (summary.steady_mean(25) - dense.steady_mean(25)).abs() / dense.steady_mean(25) < 1e-9
        );
        let qa = summary.queue_profile();
        let qb = dense.queue_profile();
        for (x, y) in qa.iter().zip(&qb) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn dense_cap_bounds_samples_per_index() {
        let link = WlanLink::new(LinkConfig::default().contending_bps(3_000_000.0));
        let exp = TransientExperiment {
            link,
            train: ProbeTrain::from_rate(20, 1500, 5_000_000.0),
            reps: 100,
            seed: 0xBEEF,
        };
        let data = exp.run_dense(16);
        for i in 0..20 {
            assert!(data.delays.sample(i).len() <= 16, "index {i} over cap");
        }
        // Capped means are still close to the full-data means.
        let full = exp.run_dense(usize::MAX);
        let steady_capped = data.steady_mean(10);
        let steady_full = full.steady_mean(10);
        assert!(
            (steady_capped - steady_full).abs() / steady_full < 0.25,
            "{steady_capped} vs {steady_full}"
        );
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every per-index moment accumulator's state, by bits.
    fn moments_bits(v: &IndexedStats) -> Vec<[u64; 5]> {
        v.stats()
            .iter()
            .map(|o| {
                let [mean, var, min, max] =
                    [o.mean(), o.variance(), o.min(), o.max()].map(f64::to_bits);
                [o.count(), mean, var, min, max]
            })
            .collect()
    }

    /// Dropping a column cannot move a kept one: for every column set
    /// the figures and the example declare, summary and dense runs
    /// reproduce the all-column runs bit for bit on each column they
    /// keep, and leave the others empty — under one worker and four.
    #[test]
    fn column_sets_keep_their_columns_bitwise() {
        let exp = TransientExperiment {
            link: WlanLink::new(LinkConfig::default().contending_bps(3_000_000.0)),
            train: ProbeTrain::from_rate(40, 1500, 5_000_000.0),
            // Not a multiple of the chunk size: a partial chunk merges.
            reps: 70,
            seed: 0xC01,
        };
        let cap = 24;
        let sets = [
            Columns::DELAYS,
            Columns {
                queue: false,
                p95: true,
            },
            Columns {
                queue: true,
                p95: false,
            },
            Columns::ALL,
        ];
        for workers in [1, 4] {
            replicate::set_worker_limit(workers);
            let all = exp.run();
            let all_dense = exp.run_dense(cap);
            for cols in sets {
                let s = exp.run_columns(cols);
                let d = exp.run_dense_columns(cap, cols);
                assert_eq!(
                    moments_bits(&s.delays),
                    moments_bits(&all.delays),
                    "{cols:?}"
                );
                for i in 0..exp.train.n {
                    assert_eq!(
                        bits(d.delays.sample(i)),
                        bits(all_dense.delays.sample(i)),
                        "{cols:?} index {i}"
                    );
                }
                if cols.queue {
                    assert_eq!(moments_bits(&s.queue_sizes), moments_bits(&all.queue_sizes));
                    for i in 0..exp.train.n {
                        assert_eq!(
                            bits(d.queue_sizes.sample(i)),
                            bits(all_dense.queue_sizes.sample(i)),
                            "{cols:?} queue index {i}"
                        );
                    }
                } else {
                    assert!(s.queue_sizes.is_empty() && d.queue_sizes.is_empty());
                }
                if cols.p95 {
                    assert_eq!(bits(&s.p95_profile()), bits(&all.p95_profile()));
                    assert_eq!(bits(&d.p95_profile()), bits(&all_dense.p95_profile()));
                } else {
                    assert!(s.delay_p95.is_empty() && d.delay_p95.is_empty());
                }
            }
        }
        replicate::set_worker_limit(0);
    }

    /// A small cell for the refusal tests below.
    fn small_exp() -> TransientExperiment {
        TransientExperiment {
            link: WlanLink::new(LinkConfig::default().contending_bps(2_000_000.0)),
            train: ProbeTrain::from_rate(10, 1500, 4_000_000.0),
            reps: 4,
            seed: 9,
        }
    }

    #[test]
    #[should_panic(expected = "delay_p95 column was not accumulated")]
    fn p95_profile_refuses_a_run_without_the_column() {
        small_exp().run_columns(Columns::DELAYS).p95_profile();
    }

    #[test]
    #[should_panic(expected = "delay_p95 column was not accumulated")]
    fn dense_p95_profile_refuses_a_run_without_the_column() {
        small_exp()
            .run_dense_columns(8, Columns::DELAYS)
            .p95_profile();
    }
}
