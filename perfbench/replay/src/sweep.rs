//! Traced replay of the `sweep` workload.
//!
//! Replayed through public functions, with the figure rows rebuilt from
//! the replayed cells:
//! * `fig01`, `fig04` — one routed `WlanLink::steady_state` per rate,
//!   the seeds `RateResponseSweep` uses; covered cells also get one
//!   explicit fixed-point solve, timed as `core.analytic`;
//! * `bounds_check` — its train grid, then `dispersion_bounds`;
//! * `fig13`, `fig15`, `fig17` — the train grids, each replication a
//!   `TrainProbe` run against a [`Traced`] link (fig17's MSER sweep runs
//!   as one `probe` span);
//! * `fig16` — train and packet-pair probes against traced links;
//! * `tool_bias` — SLoPS, TOPP, chirp and train tools against traced
//!   wired and WLAN links.
//!
//! The other registry figures of the workload run whole as
//! `bench.figure` spans.

use crate::layers::{count_tier, tool_run, Traced};
use crate::trace;
use crate::{rows_report, Replay};
use csmaprobe_bench::figures;
use csmaprobe_bench::report::FigureReport;
use csmaprobe_bench::scaled;
use csmaprobe_bench::scenarios::{self, FRAME};
use csmaprobe_core::bounds::dispersion_bounds;
use csmaprobe_core::engine::{self, EngineTier};
use csmaprobe_core::link::{LinkConfig, SteadyPoint, WiredLink, WlanLink};
use csmaprobe_core::rate_response::complete_rate_response;
use csmaprobe_core::sweep::{run_sweep, SweepScenario};
use csmaprobe_desim::rng::derive_seed;
use csmaprobe_desim::time::Dur;
use csmaprobe_mac::{BianchiModel, NonSatModel};
use csmaprobe_probe::chirp::ChirpProbe;
use csmaprobe_probe::mser::{measure_rate_sweep, MserCell, MserProbe};
use csmaprobe_probe::pair::PacketPairProbe;
use csmaprobe_probe::slops::SlopsEstimator;
use csmaprobe_probe::topp::ToppEstimator;
use csmaprobe_probe::train::{TrainAccumulator, TrainMeasurement, TrainProbe};
use csmaprobe_stats::Accumulate;

/// The figures of the workload.
pub const FIGURES: &[&str] = &[
    "fig01",
    "fig04",
    "fig13",
    "fig15",
    "fig16",
    "fig17",
    "bounds_check",
    "tool_bias",
    "grid_bias",
    "ext_impairments",
    "ext_burstiness",
    "tier_equivalence",
    "tier_speedup",
];

/// `WlanLink::rate_response_curve`, traced: one routed steady cell per
/// rate with the seeds `RateResponseSweep` uses; covered cells also get
/// one explicit fixed-point solve, timed as `core.analytic`.
fn steady_curve(link: &WlanLink, rates: &[f64], duration: Dur, seed: u64) -> Vec<SteadyPoint> {
    let cfg = link.config();
    rates
        .iter()
        .enumerate()
        .map(|(i, &ri)| {
            let tier = engine::steady_tier(cfg, ri);
            count_tier(tier, 1);
            if tier == EngineTier::Analytic {
                trace::count("core.analytic.solves", 1);
                trace::span("core.analytic", || {
                    if engine::saturation_covers(cfg, ri) {
                        BianchiModel::solve(&cfg.phy, cfg.contending.len() + 1, cfg.probe_bytes);
                    } else {
                        let _ = NonSatModel::solve(&cfg.phy, &engine::nonsat_stations(cfg, ri));
                    }
                });
            }
            trace::count("core.steady.cells", 1);
            trace::span("core.steady", || {
                link.steady_state(ri, duration, derive_seed(seed, i as u64))
            })
        })
        .collect()
}

fn fig01(seed: u64) -> FigureReport {
    let duration = Dur::from_secs_f64(6.0f64.clamp(3.0, 60.0));
    let rates = scenarios::rate_sweep_mbps(0.5, 10.0, 0.5);
    let rows = steady_curve(&scenarios::fig1_link(), &rates, duration, seed)
        .iter()
        .map(|p| {
            vec![
                p.input_rate_bps / 1e6,
                p.output_rate_bps / 1e6,
                p.contending_bps[0] / 1e6,
            ]
        })
        .collect();
    rows_report("fig01", rows)
}

fn fig04(seed: u64) -> FigureReport {
    let link = scenarios::fig4_link();
    let fifo_rate = link
        .config()
        .fifo_cross
        .expect("fig4 link has FIFO cross-traffic")
        .rate_bps;
    let bf_link = WlanLink::new(LinkConfig::default().contending(link.config().contending[0]));
    let bf = tool_run(
        || {
            TrainProbe::new(800, FRAME, 10e6)
                .measure(&Traced(&bf_link), 6, seed ^ 0xBF)
                .output_rate_bps()
        },
        |v| v.is_finite(),
    );
    let u_fifo = (fifo_rate / bf).min(0.95);
    let duration = Dur::from_secs_f64(6.0f64.clamp(3.0, 60.0));
    let rates = scenarios::rate_sweep_mbps(0.5, 10.0, 0.5);
    let rows = steady_curve(&link, &rates, duration, seed)
        .iter()
        .map(|p| {
            let model = complete_rate_response(p.input_rate_bps, bf, u_fifo);
            vec![
                p.input_rate_bps / 1e6,
                p.output_rate_bps / 1e6,
                p.contending_bps[0] / 1e6,
                p.fifo_cross_bps / 1e6,
                model / 1e6,
            ]
        })
        .collect();
    rows_report("fig04", rows)
}

fn bounds_check(seed: u64) -> FigureReport {
    let rates = scenarios::rate_sweep_mbps(1.0, 10.0, 1.0);
    let mut cells: Vec<(TrainProbe, usize, u64)> = rates
        .iter()
        .enumerate()
        .map(|(k, &ri)| {
            (
                TrainProbe::new(25, FRAME, ri),
                scaled(600, 1.0, 120),
                derive_seed(seed, k as u64),
            )
        })
        .collect();
    cells.push((
        TrainProbe::new(1200, FRAME, 10e6),
        scaled(5, 1.0, 3),
        derive_seed(seed, 999),
    ));
    let mut measurements = traced_train_sweep(&scenarios::fig1_link(), cells);
    measurements.pop();
    let rows = trace::span("core.bounds", || {
        rates
            .iter()
            .zip(&measurements)
            .map(|(&ri, m)| {
                let g_i = m.train.gap.as_secs_f64();
                let b = dispersion_bounds(&m.mean_mu_profile(), g_i, 0.0);
                vec![
                    ri / 1e6,
                    g_i * 1e3,
                    m.mean_output_gap_s() * 1e3,
                    b.lower * 1e3,
                    b.upper * 1e3,
                    if b.exact.is_some() { 1.0 } else { 0.0 },
                ]
            })
            .collect()
    });
    rows_report("bounds_check", rows)
}

/// A train-sweep accumulator whose merges run inside `desim.merge` spans.
struct TracedAcc(TrainAccumulator);

impl Accumulate for TracedAcc {
    fn merge(&mut self, other: Self) {
        trace::span("desim.merge", || self.0.merge(other.0));
    }
}

/// `scenarios::TrainSweep` with every replication a traced tool run.
struct TracedTrainSweep<'a> {
    target: Traced<'a, WlanLink>,
    cells: Vec<(TrainProbe, usize, u64)>,
}

impl SweepScenario for TracedTrainSweep<'_> {
    type Acc = TracedAcc;
    type Row = TrainMeasurement;

    fn name(&self) -> &str {
        "traced_train_sweep"
    }
    fn points(&self) -> usize {
        self.cells.len()
    }
    fn reps(&self, point: usize) -> usize {
        self.cells[point].1
    }
    fn identity(&self, _point: usize) -> TracedAcc {
        trace::count("desim.chunks", 1);
        TracedAcc(TrainAccumulator::default())
    }
    fn replicate(&self, point: usize, rep: usize, acc: &mut TracedAcc) {
        let (probe, _, seed) = &self.cells[point];
        tool_run(
            || probe.sample_into(&self.target, derive_seed(*seed, rep as u64), &mut acc.0),
            |_| true,
        );
    }
    fn finish(&self, point: usize, acc: TracedAcc) -> TrainMeasurement {
        let (probe, reps, _) = &self.cells[point];
        probe.finish(*reps, acc.0)
    }
}

/// Run a train grid as one sweep, every replication a traced tool run.
fn traced_train_sweep(
    link: &WlanLink,
    cells: Vec<(TrainProbe, usize, u64)>,
) -> Vec<TrainMeasurement> {
    trace::span("desim.reduce", || {
        run_sweep(&TracedTrainSweep {
            target: Traced(link),
            cells,
        })
    })
}

/// `figures::fig13::sweep`, traced.
fn train_sweep(id: &str, link: &WlanLink, seed: u64) -> FigureReport {
    let rates = scenarios::rate_sweep_mbps(1.0, 10.0, 1.0);
    let train_lens = [3usize, 10, 50];
    let mut cells = Vec::new();
    for (k, &ri) in rates.iter().enumerate() {
        cells.push((
            TrainProbe::new(1200, FRAME, ri),
            scaled(5, 1.0, 3),
            derive_seed(seed, 1000 + k as u64),
        ));
        for (j, &n) in train_lens.iter().enumerate() {
            cells.push((
                TrainProbe::new(n, FRAME, ri),
                scaled(3000 / n.max(1), 1.0, 30),
                derive_seed(seed, (j * rates.len() + k) as u64),
            ));
        }
    }
    let measurements = traced_train_sweep(link, cells);
    let rows = rates
        .iter()
        .zip(measurements.chunks(1 + train_lens.len()))
        .map(|(&ri, cells)| {
            let mut row = vec![ri / 1e6];
            row.extend(cells.iter().map(|m| m.output_rate_bps() / 1e6));
            row
        })
        .collect();
    rows_report(id, rows)
}

fn fig16(seed: u64) -> FigureReport {
    let finite = |v: &f64| v.is_finite();
    let rows = (0..=10u64)
        .map(|k| {
            let cross = k as f64 * 1e6;
            let link = if cross > 0.0 {
                WlanLink::new(LinkConfig::default().contending_bps(cross))
            } else {
                WlanLink::new(LinkConfig::default())
            };
            let t = Traced(&link);
            let fluid = tool_run(
                || {
                    TrainProbe::new(1000, FRAME, 10.5e6)
                        .measure(&t, scaled(6, 1.0, 3), derive_seed(seed, 100 + k))
                        .output_rate_bps()
                },
                finite,
            );
            let pair = tool_run(
                || {
                    PacketPairProbe::new(FRAME, scaled(400, 1.0, 60))
                        .measure(&t, derive_seed(seed, 200 + k))
                        .rate_from_mean_bps()
                },
                finite,
            );
            vec![cross / 1e6, fluid / 1e6, pair / 1e6]
        })
        .collect();
    rows_report("fig16", rows)
}

fn fig17(seed: u64) -> FigureReport {
    let link = scenarios::fig1_link();
    let rates = scenarios::rate_sweep_mbps(1.0, 10.0, 1.0);
    let steady = traced_train_sweep(
        &link,
        rates
            .iter()
            .enumerate()
            .map(|(k, &ri)| {
                (
                    TrainProbe::new(1200, FRAME, ri),
                    scaled(5, 1.0, 3),
                    derive_seed(seed, 300 + k as u64),
                )
            })
            .collect(),
    );
    let cells: Vec<MserCell> = rates
        .iter()
        .enumerate()
        .map(|(k, &ri)| MserCell {
            probe: MserProbe::new(20, FRAME, ri, 2),
            reps: scaled(400, 1.0, 80),
            seed: derive_seed(seed, 400 + k as u64),
        })
        .collect();
    // One span over the whole MSER sweep; each replication is a tool run.
    let shorts = trace::span("probe", || measure_rate_sweep(&cells, &Traced(&link)));
    trace::count("probe.tool_runs", cells.iter().map(|c| c.reps as u64).sum());
    let rows = rates
        .iter()
        .zip(&steady)
        .zip(&shorts)
        .map(|((&ri, s), short)| {
            vec![
                ri / 1e6,
                s.output_rate_bps() / 1e6,
                short.raw_rate_bps() / 1e6,
                short.corrected_rate_bps() / 1e6,
            ]
        })
        .collect();
    rows_report("fig17", rows)
}

fn tool_bias(seed: u64) -> FigureReport {
    let slops = SlopsEstimator {
        n: 150,
        reps: scaled(8, 1.0, 4),
        ..Default::default()
    };
    let topp = ToppEstimator {
        n: 150,
        reps: scaled(8, 1.0, 4),
        ..Default::default()
    };
    let chirp = ChirpProbe {
        n: 80,
        chirps: scaled(40, 1.0, 15),
        ..Default::default()
    };
    let finite = |v: &f64| v.is_finite();

    let wired = WiredLink::new(10e6, 4e6);
    let t = Traced(&wired);
    let w_slops = tool_run(|| slops.run(&t, derive_seed(seed, 1)).estimate_bps, finite);
    let w_topp =
        tool_run(|| topp.run(&t, derive_seed(seed, 2)), Option::is_some).expect("congestion");
    let w_chirp = tool_run(
        || chirp.measure(&t, derive_seed(seed, 3)).estimate_bps(),
        finite,
    );
    let mut rows = vec![vec![
        0.0,
        wired.available_bps() / 1e6,
        f64::NAN,
        w_slops / 1e6,
        w_topp.available_bps / 1e6,
        w_topp.capacity_bps / 1e6,
        w_chirp / 1e6,
    ]];

    let c = scenarios::capacity_bps(FRAME);
    let wlan = WlanLink::new(LinkConfig::default().contending_bps(scenarios::FIG1_CROSS_BPS));
    let t = Traced(&wlan);
    let b_wlan = tool_run(
        || {
            TrainProbe::new(1000, FRAME, 10e6)
                .measure(&t, scaled(6, 1.0, 3), derive_seed(seed, 4))
                .output_rate_bps()
        },
        finite,
    );
    let l_slops = tool_run(|| slops.run(&t, derive_seed(seed, 5)).estimate_bps, finite);
    let l_topp =
        tool_run(|| topp.run(&t, derive_seed(seed, 6)), Option::is_some).expect("congestion");
    let l_chirp = tool_run(
        || chirp.measure(&t, derive_seed(seed, 7)).estimate_bps(),
        finite,
    );
    rows.push(vec![
        1.0,
        (c - scenarios::FIG1_CROSS_BPS) / 1e6,
        b_wlan / 1e6,
        l_slops / 1e6,
        l_topp.available_bps / 1e6,
        l_topp.capacity_bps / 1e6,
        l_chirp / 1e6,
    ]);
    rows_report("tool_bias", rows)
}

/// A registry figure run whole, as one `bench.figure` span.
fn whole_figure(id: &str, seed: u64) -> FigureReport {
    let def = figures::find(id).expect("registry figure");
    trace::span("bench.figure", || (def.run)(1.0, seed))
}

/// Replay the workload at figure seed `seed`, in registry order.
pub fn replay(seed: u64) -> Replay {
    let mut replayed = Vec::new();
    let reports = FIGURES
        .iter()
        .map(|&id| {
            let report = match id {
                "fig01" => fig01(seed),
                "fig04" => fig04(seed),
                "fig13" => train_sweep("fig13", &scenarios::fig1_link(), seed),
                "fig15" => train_sweep("fig15", &scenarios::fig4_link(), seed),
                "fig16" => fig16(seed),
                "fig17" => fig17(seed),
                "bounds_check" => bounds_check(seed),
                "tool_bias" => tool_bias(seed),
                _ => return whole_figure(id, seed),
            };
            replayed.push(id.to_string());
            report
        })
        .collect();
    Replay { reports, replayed }
}
