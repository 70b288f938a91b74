//! Equivalence harness for the engine router: the analytic tier
//! against the simulator it replaces, and the cells it must refuse.
//!
//! * the finite-load fixed point lands within 5 % of a seed-averaged
//!   event mean on every `nonsat-*` cell the router certifies;
//! * uncertified cells stay on the simulator, bit for bit;
//! * routing is a pure function of the cell: a steady cell is the
//!   analytic point exactly where a model certifies it and the
//!   simulator's point elsewhere, trains always run the simulator, and
//!   of the figures' rate-response sweeps only Fig 1's leaves it.
//!
//! Run with `--nocapture` to print the per-regime tolerance table that
//! `EXPERIMENTS.md` ("Engine tiers" section) records:
//!
//! ```text
//! cargo test --release --test tier_equivalence -- --nocapture
//! ```

use csmaprobe::core::engine::{self, EngineTier};
use csmaprobe::core::link::{CrossShape, CrossSpec, LinkConfig, SteadyPoint, WlanLink};
use csmaprobe::desim::time::Dur;
use csmaprobe_bench::scenarios::{fig1_link, fig4_link, rate_sweep_mbps};
use csmaprobe_bench::tier::regime_matrix;

/// Seeds of the event mean the fixed point is compared against.
const EVENT_SEED_BASE: u64 = 0x0E_0000;

fn header(columns: &str) {
    println!("regime                      {columns}");
}

/// Measured tolerance rows for the finite-load analytic tier — the
/// non-saturated fixed point vs a seed-averaged event mean on the
/// `nonsat-*` cells the router certifies (sub-knee / knee / above-knee
/// × station count). The analytic tier is deterministic, so its row in
/// the equivalence table is a tolerance band, not a KS score.
#[test]
fn finite_load_fixed_point_tolerance_rows() {
    let duration = Dur::from_secs_f64(2.0);
    let reps = 8u64;
    header("n   analytic_mbps  event_mbps  rel_err");
    for r in regime_matrix() {
        let cfg = r.link.config();
        if !engine::nonsat_certified(cfg, r.ri_bps) || engine::saturation_covers(cfg, r.ri_bps) {
            continue;
        }
        let analytic = r
            .steady_with_tier(EngineTier::Analytic, duration, 0)
            .expect("certified cell is analytic-covered");
        let total = |p: &csmaprobe::core::link::SteadyPoint| {
            p.output_rate_bps + p.contending_bps.iter().sum::<f64>() + p.fifo_cross_bps
        };
        let event_mean = (0..reps)
            .map(|i| {
                total(
                    &r.steady_with_tier(EngineTier::Event, duration, EVENT_SEED_BASE + i)
                        .expect("covered"),
                )
            })
            .sum::<f64>()
            / reps as f64;
        let rel = (total(&analytic) - event_mean).abs() / event_mean;
        println!(
            "nonsat/{:<17} {:>3} {:>13.4} {:>11.4}  {rel:.4}",
            r.name,
            reps,
            total(&analytic) / 1e6,
            event_mean / 1e6
        );
        assert!(
            rel < 0.05,
            "{}: fixed point drifted from the event mean ({rel:.4})",
            r.name
        );
    }
}

/// Negative routing: cells the solver does not certify must stay on
/// the simulator — `analytic_covers` refuses them, the router routes
/// them to `Event`, and the routed steady point stays bit-identical to
/// a direct simulator run.
#[test]
fn uncertified_cells_stay_on_simulation() {
    let duration = Dur::from_secs_f64(0.5);
    let uncovered: Vec<(&str, WlanLink, f64)> = vec![
        (
            "cbr-contender",
            WlanLink::new(
                LinkConfig::default().contending(CrossSpec::shaped(1_000_000.0, CrossShape::Cbr)),
            ),
            2_000_000.0,
        ),
        (
            "fifo-cross",
            WlanLink::new(
                LinkConfig::default()
                    .contending_bps(2_000_000.0)
                    .fifo_cross_bps(1_000_000.0),
            ),
            2_000_000.0,
        ),
        (
            "asymmetric-bytes",
            WlanLink::new(
                LinkConfig::default().contending(CrossSpec::poisson_sized(2_000_000.0, 400)),
            ),
            2_000_000.0,
        ),
        (
            "eleven-stations",
            WlanLink::new({
                let mut cfg = LinkConfig::default();
                for _ in 0..10 {
                    cfg = cfg.contending_bps(400_000.0);
                }
                cfg
            }),
            1_000_000.0,
        ),
    ];
    for (name, link, ri) in &uncovered {
        assert!(
            !engine::analytic_covers(link.config(), *ri),
            "{name}: must not be analytic-covered"
        );
        assert_eq!(
            engine::steady_tier(link.config(), *ri),
            EngineTier::Event,
            "{name}: the router must keep an uncertified cell on the simulator"
        );
        assert_same_point(
            &link.steady_state(*ri, duration, 0xBAD5EED),
            &link.steady_state_event(*ri, duration, 0xBAD5EED),
            name,
        );
    }
}

/// Two steady points are the same bits.
fn assert_same_point(a: &SteadyPoint, b: &SteadyPoint, what: &str) {
    assert_eq!(
        a.output_rate_bps.to_bits(),
        b.output_rate_bps.to_bits(),
        "{what}"
    );
    let bits = |p: &SteadyPoint| {
        p.contending_bps
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(a), bits(b), "{what}");
    assert_eq!(
        a.fifo_cross_bps.to_bits(),
        b.fifo_cross_bps.to_bits(),
        "{what}"
    );
}

/// Routing is a pure function of the cell: `steady_state` is the
/// analytic point, bit for bit, on a Poisson cell the fixed point
/// certifies and the simulator's point on a CBR mix it does not, and
/// trains run on the simulator either way.
#[test]
fn steady_cells_route_by_coverage_alone() {
    let duration = Dur::from_secs_f64(0.5);
    let ri = 1_500_000.0;
    let poisson = WlanLink::new(LinkConfig::default().contending_bps(2_000_000.0));
    let cbr_mix = WlanLink::new(
        LinkConfig::default()
            .contending_bps(2_000_000.0)
            .contending(CrossSpec::shaped(1_000_000.0, CrossShape::Cbr)),
    );
    assert_eq!(
        engine::steady_tier(poisson.config(), ri),
        EngineTier::Analytic
    );
    assert_same_point(
        &poisson.steady_state(ri, duration, 0xE1),
        &poisson.steady_state_analytic(ri),
        "certified poisson cell",
    );
    assert_eq!(engine::steady_tier(cbr_mix.config(), ri), EngineTier::Event);
    assert_same_point(
        &cbr_mix.steady_state(ri, duration, 0xE1),
        &cbr_mix.steady_state_event(ri, duration, 0xE1),
        "cbr mix",
    );
    for link in [&poisson, &cbr_mix] {
        assert_eq!(engine::train_tier(link.config()), EngineTier::Event);
    }
}

/// The figures' two rate-response sweeps: every Fig 1 rate is a
/// certified Poisson cell and leaves the simulator, while no model
/// covers Fig 4's FIFO cross-traffic, so its every rate stays on it.
/// No other figure asks the router for a steady cell, so routing
/// changes Fig 1 and nothing else.
#[test]
fn fig01_sweep_routes_analytic_and_fig04_sweep_stays_on_simulation() {
    let (fig1, fig4) = (fig1_link(), fig4_link());
    let rates = rate_sweep_mbps(0.5, 10.0, 0.5);
    assert_eq!(rates.len(), 20);
    for ri in rates {
        assert_eq!(
            engine::steady_tier(fig1.config(), ri),
            EngineTier::Analytic,
            "fig01 at {ri} b/s"
        );
        assert_eq!(
            engine::steady_tier(fig4.config(), ri),
            EngineTier::Event,
            "fig04 at {ri} b/s"
        );
    }
}
