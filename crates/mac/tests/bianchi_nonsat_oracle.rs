//! Finite-load fixed point vs the event-core oracle — the non-saturated
//! analytic tier's accuracy contract.
//!
//! The engine router substitutes [`NonSatModel`] for a full event
//! simulation on certified finite-load cells (Poisson contenders, no
//! FIFO cross-traffic, uniform frame sizes). These tests pin that
//! substitution across the same regime matrix the tier figures sweep —
//! sub-knee, knee and above-knee offered loads at 2, 5 and 10 stations:
//!
//! * **Documented tolerance**: delivered throughput (probe station,
//!   saturated stations, and the aggregate) stays within **5 %** of a
//!   long seed-averaged event simulation on every regime cell, and the
//!   probe's mean access delay stays within **5 %** on every cell the
//!   model **delay-certifies** (`NonSatModel::delay_certified`). Cells
//!   it refuses — the deep knee, where queue-buildup excursions
//!   dominate — are asserted to be refused (the router must keep them
//!   on the simulator).
//! * **Regression pins**: the solved knee-2 cell's `τ`, `p`, `ρ`,
//!   throughputs and mean access delay.
//! * **Convergence property**: across a swept lattice of offered loads
//!   the solver either certifies convergence (residual below the bound)
//!   or reports [`NonSatError::NotConverged`] — it never spins and
//!   never returns an uncertified solution.

use csmaprobe_desim::time::{Dur, Time};
use csmaprobe_mac::{NonSatModel, NonSatStation, WlanSim};
use csmaprobe_phy::Phy;
use csmaprobe_traffic::{CbrSource, PoissonSource, SizeModel, Source};

const PAYLOAD: u32 = 1500;

/// The finite-load regime matrix: (name, station loads in bits/s).
/// Station 0 plays the probe (CBR in the event oracle, as in
/// `WlanLink::steady_state_event`); the rest are Poisson contenders.
fn regime_loads() -> Vec<(&'static str, Vec<f64>)> {
    vec![
        // 2 stations: the Fig 1 shape (probe vs one contender).
        ("sub-2", vec![1.0e6, 2.0e6]),
        ("knee-2", vec![1.0e6, 4.5e6]),
        ("above-2", vec![9.0e6, 4.5e6]),
        // 5 stations.
        ("sub-5", vec![0.7e6; 5]),
        ("knee-5", vec![1.5e6, 1.2e6, 1.2e6, 1.2e6, 1.2e6]),
        ("above-5", vec![6.0e6, 1.2e6, 1.2e6, 1.2e6, 1.2e6]),
        // 10 stations.
        ("sub-10", vec![0.3e6; 10]),
        ("knee-10", {
            let mut v = vec![1.0e6];
            v.extend(std::iter::repeat(0.55e6).take(9));
            v
        }),
        ("above-10", {
            let mut v = vec![4.0e6];
            v.extend(std::iter::repeat(0.55e6).take(9));
            v
        }),
    ]
}

fn stations(loads: &[f64]) -> Vec<NonSatStation> {
    loads
        .iter()
        .map(|&rate_bps| NonSatStation {
            rate_bps,
            bytes: PAYLOAD,
        })
        .collect()
}

/// One event-core run of the finite-load cell: CBR station 0 + Poisson
/// contenders, delivered bits per station and station-0 access delays
/// counted over the second half of `duration` (the same warm-up and
/// window discipline as `WlanLink::steady_state_event`).
fn finite_event(loads: &[f64], duration: Dur, seed: u64) -> (Vec<f64>, f64, usize) {
    let phy = Phy::dsss_11mbps();
    let warmup = Dur::from_millis(500);
    let start = Time::ZERO + warmup;
    let end = start + duration;
    let mut sim = WlanSim::new(phy, seed);
    let ids: Vec<_> = loads
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let sizes = SizeModel::Fixed(PAYLOAD);
            let src: Box<dyn Source> = if i == 0 {
                Box::new(CbrSource::from_bitrate(rate, sizes, start, end))
            } else {
                Box::new(PoissonSource::from_bitrate(rate, sizes, Time::ZERO, end))
            };
            sim.add_station(src)
        })
        .collect();
    let out = sim.run(end + Dur::from_secs(2));
    let mid = start + duration / 2;
    let secs = (end - mid).as_secs_f64();
    let rates: Vec<f64> = ids
        .iter()
        .map(|&id| {
            let bits: u64 = out
                .records(id)
                .iter()
                .filter(|r| !r.dropped && r.rx_end > mid && r.rx_end <= end)
                .map(|r| r.bytes as u64 * 8)
                .sum();
            bits as f64 / secs
        })
        .collect();
    let mut delay_sum = 0.0;
    let mut delay_n = 0usize;
    for r in out.records(ids[0]) {
        if !r.dropped && r.rx_end > mid && r.rx_end <= end {
            delay_sum += r.access_delay().as_secs_f64();
            delay_n += 1;
        }
    }
    (rates, delay_sum / delay_n.max(1) as f64, delay_n)
}

/// Seed-averaged event oracle: `reps` independent runs pooled, so the
/// Poisson arrival noise (~1/sqrt(frames)) sits well below the 5 % gate.
fn averaged_event(loads: &[f64], duration: Dur, reps: u64, base_seed: u64) -> (Vec<f64>, f64) {
    let mut rates = vec![0.0; loads.len()];
    let mut delay_sum = 0.0;
    let mut delay_w = 0.0;
    for i in 0..reps {
        let (r, mu, n) = finite_event(loads, duration, base_seed + i);
        for (acc, v) in rates.iter_mut().zip(&r) {
            *acc += v;
        }
        delay_sum += mu * n as f64;
        delay_w += n as f64;
    }
    for v in &mut rates {
        *v /= reps as f64;
    }
    (rates, delay_sum / delay_w.max(1.0))
}

#[test]
fn throughput_within_five_percent_of_event_sim() {
    // Per-station gates apply where the event measurement has enough
    // frames to resolve 5 %: the CBR probe (station 0) and saturated
    // stations. Lightly-loaded Poisson contenders deliver a few hundred
    // frames per window — their per-station event rates carry several
    // percent of pure arrival noise — so they are gated through the
    // aggregate instead.
    println!("regime     station  model_mbps  event_mbps  rel");
    for (name, loads) in regime_loads() {
        let model = NonSatModel::solve(&Phy::dsss_11mbps(), &stations(&loads)).unwrap();
        let (event, _) = averaged_event(&loads, Dur::from_secs(4), 6, 0x0F5E);
        for (i, s) in model.per_station.iter().enumerate() {
            let rel = (s.throughput_bps - event[i]).abs() / event[i].max(1.0);
            println!(
                "{name:<10} {i:>3}  {:>10.4}  {:>10.4}  {rel:.4}",
                s.throughput_bps / 1e6,
                event[i] / 1e6
            );
            if i == 0 || s.saturated {
                assert!(
                    rel < 0.05,
                    "{name} station {i}: model {:.0} vs event {:.0} (rel {rel:.4})",
                    s.throughput_bps,
                    event[i]
                );
            }
        }
        let agg_model = model.throughput_bps;
        let agg_event: f64 = event.iter().sum();
        let agg_rel = (agg_model - agg_event).abs() / agg_event;
        assert!(
            agg_rel < 0.05,
            "{name} aggregate: model {agg_model:.0} vs event {agg_event:.0} (rel {agg_rel:.4})"
        );
    }
}

#[test]
fn mean_access_delay_within_five_percent_of_event_sim() {
    // The ±5 % delay gate applies exactly where the model certifies it
    // (`delay_certified`): the sub-knee and above-knee rows. The knee
    // rows — queue-buildup excursion territory, the paper's "transitory
    // periods" — must be *refused* by the predicate, and the measured
    // deviation there must indeed be an underestimate beyond the gate
    // (otherwise the predicate is leaving accuracy on the table).
    println!("regime     certified  model_ms  event_ms  rel");
    let mut refused = 0usize;
    for (name, loads) in regime_loads() {
        let model = NonSatModel::solve(&Phy::dsss_11mbps(), &stations(&loads)).unwrap();
        // Delay means are heavy-tailed: a light probe delivers only
        // ~100 frames per window, so the event mean needs deep seed
        // averaging to resolve the 5 % gate.
        let (_, event_mu) = averaged_event(&loads, Dur::from_secs(4), 20, 0xDE1B);
        let mu = model.per_station[0].mean_access_delay_s;
        let rel = (mu - event_mu).abs() / event_mu;
        let certified = model.delay_certified(0);
        println!(
            "{name:<10} {certified:<9}  {:>8.4}  {:>8.4}  {rel:.4}",
            mu * 1e3,
            event_mu * 1e3
        );
        if certified {
            assert!(rel < 0.05, "certified cell {name}: rel {rel:.4}");
        } else {
            refused += 1;
            assert!(
                mu < event_mu,
                "{name}: refusals must be mean-field underestimates \
                 (model {mu:.6} vs event {event_mu:.6})"
            );
        }
    }
    // The knee rows exist to exercise the refusal path.
    assert!(
        (2..=4).contains(&refused),
        "expected the knee rows (and only them) refused, got {refused}"
    );
}

#[test]
#[ignore = "diagnostic: model-vs-event error map across a utilization ladder"]
fn diagnostic_error_ladder() {
    println!("cell                         util  model_ms  event_ms  d_rel   thr0_rel");
    let cells: Vec<(&str, Vec<f64>)> = vec![
        ("light-2 (24%)", vec![0.5e6, 1.0e6]),
        ("mid-2 (48%)", vec![1.0e6, 2.0e6]),
        ("sub-2 (73%)", vec![1.0e6, 4.5e6]),
        ("knee-2 (sat c)", vec![3.0e6, 4.5e6]),
        ("above-2", vec![9.0e6, 4.5e6]),
        ("light-5 (32%)", vec![0.4e6; 5]),
        ("mid-5 (56%)", vec![0.7e6; 5]),
        ("sub-5 (77%)", vec![0.8e6, 1.0e6, 1.0e6, 1.0e6, 1.0e6]),
        ("knee-5 (95%)", vec![1.5e6, 1.2e6, 1.2e6, 1.2e6, 1.2e6]),
        ("above-5", vec![6.0e6, 1.2e6, 1.2e6, 1.2e6, 1.2e6]),
        ("light-10 (32%)", vec![0.2e6; 10]),
        ("mid-10 (56%)", vec![0.35e6; 10]),
        ("sub-10 (81%)", {
            let mut v = vec![0.5e6];
            v.extend(std::iter::repeat(0.45e6).take(9));
            v
        }),
        ("knee-10 (95%)", {
            let mut v = vec![1.0e6];
            v.extend(std::iter::repeat(0.55e6).take(9));
            v
        }),
        ("above-10", {
            let mut v = vec![4.0e6];
            v.extend(std::iter::repeat(0.55e6).take(9));
            v
        }),
    ];
    for (name, loads) in cells {
        let util: f64 = loads.iter().sum::<f64>() / 6.23e6;
        let model = NonSatModel::solve(&Phy::dsss_11mbps(), &stations(&loads)).unwrap();
        let (ev_a, mu_a) = averaged_event(&loads, Dur::from_secs(4), 15, 0x11);
        let (ev_b, mu_b) = averaged_event(&loads, Dur::from_secs(4), 15, 0x5000);
        let event_mu = (mu_a + mu_b) / 2.0;
        let event_thr0 = (ev_a[0] + ev_b[0]) / 2.0;
        let mu = model.per_station[0].mean_access_delay_s;
        let d_rel = (mu - event_mu) / event_mu;
        let t_rel = (model.per_station[0].throughput_bps - event_thr0) / event_thr0;
        println!(
            "{name:<28} {util:.2}  {:>8.4}  {:>8.4}  {d_rel:+.4} (halves {:+.3}/{:+.3})  {t_rel:+.4}",
            mu * 1e3,
            event_mu * 1e3,
            (mu - mu_a) / mu_a,
            (mu - mu_b) / mu_b,
        );
    }
}

#[test]
fn fixed_seed_regression_vector() {
    // Bit-exact pins for the knee-2 cell. If a refactor legitimately
    // changes the fixed-point arithmetic, re-derive with `cargo test --
    // --nocapture` and bump these together with a CHANGES.md note.
    let phy = Phy::dsss_11mbps();
    let model = NonSatModel::solve(&phy, &stations(&[3.0e6, 4.5e6])).unwrap();
    assert!(model.residual < NonSatModel::TOLERANCE);
    let s0 = &model.per_station[0];
    assert_eq!(format!("{:.15}", s0.tau), "0.049160571247828");
    assert_eq!(format!("{:.15}", s0.p), "0.057562801006979");
    assert_eq!(format!("{:.15}", s0.rho), "0.904303746862644");
    assert_eq!(format!("{:.6}", s0.throughput_bps), "3000000.000000");
    assert_eq!(
        format!("{:.6}", model.per_station[1].throughput_bps),
        "3511221.830151"
    );
    assert_eq!(format!("{:.9}", s0.mean_access_delay_s), "0.003617215");
}

#[test]
fn solver_terminates_with_certificate_or_reports_noncoverage() {
    // Convergence property: across a lattice of offered loads spanning
    // idle to far-past-saturation and 1..=12 stations, solve() always
    // terminates, and every Ok carries a residual below the bound.
    let phy = Phy::dsss_11mbps();
    let mut solved = 0usize;
    let mut refused = 0usize;
    for n in [1usize, 2, 3, 5, 8, 12] {
        for &probe in &[0.1e6, 0.5e6, 1.5e6, 3.0e6, 6.0e6, 12.0e6, 30.0e6] {
            for &cross in &[0.2e6, 0.9e6, 2.0e6, 4.5e6, 9.0e6] {
                let mut loads = vec![probe];
                loads.extend(std::iter::repeat(cross).take(n - 1));
                match NonSatModel::solve(&phy, &stations(&loads)) {
                    Ok(m) => {
                        solved += 1;
                        assert!(
                            m.residual < NonSatModel::TOLERANCE,
                            "n={n} probe={probe} cross={cross}: certificate violated \
                             (residual {})",
                            m.residual
                        );
                        assert!(m.iterations <= NonSatModel::MAX_ITER);
                        for s in &m.per_station {
                            assert!(s.throughput_bps.is_finite() && s.throughput_bps >= 0.0);
                            assert!(
                                s.mean_access_delay_s.is_finite() && s.mean_access_delay_s > 0.0
                            );
                            assert!((0.0..=1.0).contains(&s.rho));
                        }
                    }
                    Err(e) => {
                        refused += 1;
                        // A refusal must be the documented certificate
                        // failure, never a panic or a hang.
                        match e {
                            csmaprobe_mac::NonSatError::NotConverged { residual, .. } => {
                                assert!(residual.is_finite())
                            }
                            csmaprobe_mac::NonSatError::BadInput => {
                                panic!("lattice inputs are all valid")
                            }
                        }
                    }
                }
            }
        }
    }
    println!("lattice: {solved} solved, {refused} refused");
    assert!(solved > 0, "the lattice must certify most cells");
}
