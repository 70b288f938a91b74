//! Traced replay of the `transient` workload: the Fig 6–10 cells run
//! through `WlanLink::send_train`, `SimOutput::queue_len_at`, the
//! per-index accumulators and `replicate::run_reduce`, exactly as
//! `core::transient::{run_summary, run_dense}` run them, with a span
//! around each layer's part. Each accumulator sees the same push sequence
//! as in the program, so the replayed profiles — and the figure rows
//! built from them — are bit-identical to the program's.
//!
//! `ext_ofdm`'s two train measurements go through a [`Traced`] link:
//! they are the only cells of this workload the engine router sees.

use crate::layers::{tool_run, Traced};
use crate::trace;
use crate::{rows_report, Replay};
use csmaprobe_bench::report::FigureReport;
use csmaprobe_bench::scaled;
use csmaprobe_bench::scenarios::{self, DENSE_SAMPLE_CAP, FRAME};
use csmaprobe_core::link::{CrossShape, LinkConfig, WlanLink};
use csmaprobe_core::transient::{TransientData, TransientSummary, TAIL_QUANTILE};
use csmaprobe_desim::replicate::{self, CHUNK};
use csmaprobe_desim::rng::{derive_seed, SimRng};
use csmaprobe_desim::time::Time;
use csmaprobe_mac::sim::StationId;
use csmaprobe_mac::{measured_standalone_capacity_bps, MacOptions};
use csmaprobe_phy::Phy;
use csmaprobe_probe::train::TrainProbe;
use csmaprobe_stats::transient::{IndexedQuantile, IndexedSeries, IndexedStats};
use csmaprobe_stats::{two_sample_ks, Histogram, KsOutcome};
use csmaprobe_traffic::probe::ProbeTrain;
use csmaprobe_traffic::{PoissonSource, SizeModel, Source, TraceSource};

/// One replication's per-packet samples.
#[derive(Default)]
struct Samples {
    delays: Vec<f64>,
    queues: Vec<f64>,
}

/// Drain the replication's traffic sources standalone, up to the instant
/// the simulation stopped: same kinds, rates and horizon, own RNG stream
/// (the kernel draws arrivals from its own generator, interleaved with
/// backoff draws, so only the cost is comparable, not the values).
fn drain_sources(link: &WlanLink, train: ProbeTrain, seed: u64, until: Time) {
    let cfg: &LinkConfig = link.config();
    let arrivals = trace::span("traffic", || {
        let mut rng = SimRng::new(seed);
        let start = Time::ZERO + cfg.warmup;
        let mut sources: Vec<Box<dyn Source>> =
            vec![Box::new(TraceSource::new(train.arrivals(start)))];
        // Every contender of the transient cells is Poisson.
        for spec in &cfg.contending {
            debug_assert_eq!(spec.shape, CrossShape::Poisson);
            sources.push(Box::new(PoissonSource::from_bitrate(
                spec.rate_bps,
                SizeModel::Fixed(spec.bytes),
                Time::ZERO,
                until,
            )));
        }
        let mut n = 0u64;
        for src in &mut sources {
            while let Some(p) = src.next_packet(&mut rng) {
                if p.time > until {
                    break;
                }
                n += 1;
            }
        }
        n
    });
    trace::count("traffic.arrivals", arrivals);
}

/// One replication: the kernel, then the contender's queue length at
/// each probe arrival, exactly as `core::transient` samples them.
fn replicate_once(link: &WlanLink, train: ProbeTrain, rep: usize, seed: u64) -> Samples {
    let run = trace::span("mac", || link.send_train(train, seed));
    let out = &run.output;
    let records: usize = (0..out.station_count())
        .map(|s| out.records(StationId(s)).len())
        .sum();
    trace::count("mac.events", records as u64 + out.collisions);
    trace::count("mac.collisions", out.collisions);
    if rep < CHUNK {
        drain_sources(link, train, seed, out.last_done);
    }
    let mut s = Samples::default();
    if !link.config().contending.is_empty() {
        let contender = run.contending[0];
        s.queues = trace::span("core.transient.queue", || {
            run.probe
                .iter()
                .map(|r| out.queue_len_at(contender, r.arrival) as f64)
                .collect()
        });
        trace::count("core.transient.queue_samples", s.queues.len() as u64);
    }
    s.delays = trace::span("core.transient", || {
        run.probe
            .iter()
            .map(|r| r.access_delay().as_secs_f64())
            .collect()
    });
    trace::span("mac", || run.recycle());
    s
}

/// `run_reduce` with the identity counted as one chunk and every merge
/// inside a `desim.merge` span.
fn reduce<A: Send>(
    reps: usize,
    seed: u64,
    map: impl Fn(usize, u64, &mut A) + Sync,
    identity: impl Fn() -> A + Sync,
    merge: impl Fn(&mut A, A) + Send + Sync,
) -> A {
    trace::span("desim.reduce", || {
        replicate::run_reduce(
            reps,
            seed,
            map,
            || {
                trace::count("desim.chunks", 1);
                identity()
            },
            |a, b| trace::span("desim.merge", || merge(a, b)),
        )
    })
}

/// `TransientExperiment::run`, traced.
pub fn summary(link: &WlanLink, train: ProbeTrain, reps: usize, seed: u64) -> TransientSummary {
    let (delays, queue_sizes, delay_p95) = reduce(
        reps,
        seed,
        |i, s, acc: &mut (IndexedStats, IndexedStats, IndexedQuantile)| {
            let r = replicate_once(link, train, i, s);
            trace::span("stats.push", || {
                for (k, &d) in r.delays.iter().enumerate() {
                    acc.0.push(k, d);
                }
                for (k, &d) in r.delays.iter().enumerate() {
                    acc.2.push(k, d);
                }
                for (k, &q) in r.queues.iter().enumerate() {
                    acc.1.push(k, q);
                }
            });
            trace::count(
                "stats.samples",
                (2 * r.delays.len() + r.queues.len()) as u64,
            );
        },
        || {
            (
                IndexedStats::new(),
                IndexedStats::new(),
                IndexedQuantile::new(TAIL_QUANTILE),
            )
        },
        |a, b| {
            a.0.merge(b.0);
            a.1.merge(b.1);
            a.2.merge(b.2);
        },
    );
    TransientSummary {
        delays,
        queue_sizes,
        delay_p95,
        reps,
    }
}

/// `TransientExperiment::run_dense`, traced.
pub fn dense(
    link: &WlanLink,
    train: ProbeTrain,
    reps: usize,
    seed: u64,
    cap: usize,
) -> TransientData {
    let (delays, queue_sizes, delay_p95) = reduce(
        reps,
        seed,
        |i, s, acc: &mut (IndexedSeries, IndexedSeries, IndexedQuantile)| {
            let r = replicate_once(link, train, i, s);
            trace::span("stats.push", || {
                acc.0.push_replication(&r.delays);
                acc.2.push_replication(&r.delays);
                if !r.queues.is_empty() {
                    acc.1.push_replication(&r.queues);
                }
            });
            trace::count(
                "stats.samples",
                (2 * r.delays.len() + r.queues.len()) as u64,
            );
        },
        || {
            (
                IndexedSeries::with_cap(cap),
                IndexedSeries::with_cap(cap),
                IndexedQuantile::new(TAIL_QUANTILE),
            )
        },
        |a, b| {
            a.0.merge(b.0);
            a.1.merge(b.1);
            a.2.merge(b.2);
        },
    );
    TransientData {
        delays,
        queue_sizes,
        delay_p95,
    }
}

fn ks(sample: &[f64], reference: &[f64]) -> KsOutcome {
    trace::count("stats.ks_tests", 1);
    trace::span("stats.ks", || two_sample_ks(sample, reference, 0.05))
}

/// The strided steady-state reference Figs 8/9 test each index against.
fn ks_reference(data: &TransientData, last_k: usize) -> Vec<f64> {
    trace::span("stats.post", || {
        let pooled = data.steady_sample(last_k);
        let stride = (pooled.len() / 20_000).max(1);
        pooled.iter().step_by(stride).cloned().collect()
    })
}

fn fig6_train(n: usize) -> ProbeTrain {
    ProbeTrain::from_rate(n, FRAME, 5e6)
}

fn fig06(seed: u64) -> FigureReport {
    let data = summary(
        &scenarios::fig6_link(),
        fig6_train(400),
        scaled(2000, 1.0, 200),
        seed,
    );
    let rows = trace::span("stats.post", || {
        let profile = data.mean_profile();
        let p95 = data.p95_profile();
        profile
            .iter()
            .zip(&p95)
            .take(150)
            .enumerate()
            .map(|(i, (mu, q))| vec![(i + 1) as f64, mu * 1e3, q * 1e3])
            .collect()
    });
    rows_report("fig06", rows)
}

fn fig07(seed: u64) -> FigureReport {
    let data = dense(
        &scenarios::fig6_link(),
        fig6_train(520),
        scaled(2000, 1.0, 200),
        seed,
        DENSE_SAMPLE_CAP,
    );
    let rows = trace::span("stats.post", || {
        let first = data.delays.sample(0);
        let late = data.delays.sample(499);
        let lo = first
            .iter()
            .chain(late)
            .cloned()
            .fold(f64::INFINITY, f64::min);
        let hi = first
            .iter()
            .chain(late)
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let bins = 40;
        let mut h1 = Histogram::new(lo, hi * 1.000001, bins);
        let mut h2 = Histogram::new(lo, hi * 1.000001, bins);
        for &x in first {
            h1.add(x);
        }
        for &x in late {
            h2.add(x);
        }
        (0..bins)
            .map(|i| {
                vec![
                    h1.bin_center(i) * 1e3,
                    h1.counts()[i] as f64,
                    h2.counts()[i] as f64,
                ]
            })
            .collect()
    });
    ks(data.delays.sample(0), data.delays.sample(499));
    rows_report("fig07", rows)
}

fn fig08(seed: u64) -> FigureReport {
    let data = dense(
        &scenarios::fig8_link(),
        ProbeTrain::from_rate(1000, FRAME, 8e6),
        scaled(1000, 1.0, 150),
        seed,
        DENSE_SAMPLE_CAP,
    );
    let reference = ks_reference(&data, 500);
    let (queue_profile, p95) =
        trace::span("stats.post", || (data.queue_profile(), data.p95_profile()));
    let rows = queue_profile
        .iter()
        .take(100)
        .enumerate()
        .map(|(i, &queued)| {
            let o = ks(data.delays.sample(i), &reference);
            vec![
                (i + 1) as f64,
                o.statistic,
                o.threshold,
                queued,
                p95[i] * 1e3,
            ]
        })
        .collect();
    ks(data.delays.sample(0), &reference);
    rows_report("fig08", rows)
}

fn fig09(seed: u64) -> FigureReport {
    let data = dense(
        &scenarios::fig9_link(),
        ProbeTrain::from_rate(200, FRAME, 0.5e6),
        scaled(4000, 1.0, 600),
        seed,
        DENSE_SAMPLE_CAP,
    );
    let reference = ks_reference(&data, 100);
    let rows = (0..50)
        .map(|i| {
            let o = ks(data.delays.sample(i), &reference);
            vec![(i + 1) as f64, o.statistic, o.threshold]
        })
        .collect();
    rows_report("fig09", rows)
}

fn fig10(seed: u64) -> FigureReport {
    let c = scenarios::capacity_bps(FRAME);
    let n = 1000;
    let reps = scaled(1000, 1.0, 150);
    let rows = (1..=10)
        .enumerate()
        .map(|(k, step)| {
            let load = step as f64 * 0.1;
            let link = WlanLink::new(LinkConfig::default().contending_bps(load * c));
            let data = summary(
                &link,
                ProbeTrain::from_rate(n, FRAME, c),
                reps,
                derive_seed(seed, k as u64),
            );
            trace::span("stats.post", || {
                let len = |est: csmaprobe_stats::transient::TransientEstimate| {
                    est.first_within.map(|v| (v + 1) as f64).unwrap_or(n as f64)
                };
                vec![
                    load,
                    len(data.transient_length_abs(n / 4, 0.1e-3)),
                    len(data.transient_length_abs(n / 4, 0.01e-3)),
                    len(data.transient_length(n / 4, 0.1)),
                    len(data.transient_length(n / 4, 0.01)),
                ]
            })
        })
        .collect();
    rows_report("fig10", rows)
}

fn ablation_access(seed: u64) -> FigureReport {
    let reps = scaled(1500, 1.0, 250);
    let run_with = |mac: MacOptions, seed: u64| {
        let link = WlanLink::new(
            LinkConfig::default()
                .contending_bps(4_000_000.0)
                .mac_options(mac),
        );
        summary(&link, ProbeTrain::from_rate(200, FRAME, 5e6), reps, seed)
    };
    let with_ia = run_with(MacOptions::default(), seed);
    let without_ia = run_with(MacOptions::default().without_immediate_access(), seed ^ 1);
    let rows = trace::span("stats.post", || {
        let (ia, no) = (with_ia.mean_profile(), without_ia.mean_profile());
        (0..60)
            .map(|i| vec![(i + 1) as f64, ia[i] * 1e3, no[i] * 1e3])
            .collect()
    });
    rows_report("ablation_access", rows)
}

fn ext_ofdm(seed: u64) -> FigureReport {
    let phy = Phy::ofdm_g(54_000_000);
    let c = trace::span("mac.capacity", || {
        measured_standalone_capacity_bps(&phy, FRAME, 3000, seed ^ 0x0FD)
    });
    let link = WlanLink::new(LinkConfig::default().phy(phy).contending_bps(0.7 * c));
    let data = summary(
        &link,
        ProbeTrain::from_rate(200, FRAME, 0.8 * c),
        scaled(1500, 1.0, 250),
        seed,
    );
    let rows = trace::span("stats.post", || {
        data.mean_profile()
            .iter()
            .take(60)
            .enumerate()
            .map(|(i, &mean)| vec![(i + 1) as f64, mean * 1e6])
            .collect()
    });
    // The two train measurements behind the short-train check: the only
    // cells of this workload the engine router sees.
    let traced = Traced(&link);
    for (n, reps, k) in [(1000, scaled(6, 1.0, 3), 1), (5, scaled(600, 1.0, 120), 2)] {
        tool_run(
            || {
                TrainProbe::new(n, FRAME, 1.2 * c)
                    .measure(&traced, reps, derive_seed(seed, k))
                    .output_rate_bps()
            },
            |r| r.is_finite(),
        );
    }
    rows_report("ext_ofdm", rows)
}

/// Replay the workload at figure seed `seed`.
pub fn replay(seed: u64) -> Replay {
    let reports: Vec<FigureReport> = vec![
        fig06(seed),
        fig07(seed),
        fig08(seed),
        fig09(seed),
        fig10(seed),
        ablation_access(seed),
        ext_ofdm(seed),
    ];
    let replayed = reports.iter().map(|r| r.id.clone()).collect();
    Replay { reports, replayed }
}
