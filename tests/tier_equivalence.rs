//! Equivalence harness for the engine router: the analytic tier
//! against the simulator it replaces, and the cells it must refuse.
//!
//! * the finite-load fixed point lands within 5 % of a seed-averaged
//!   event mean on every `nonsat-*` cell the router certifies;
//! * uncertified cells stay on the simulator, bit for bit;
//! * the retired `slotted` tier is inert: no policy routes to it, and
//!   trains are the one simulator's trajectories under every policy.
//!
//! Run with `--nocapture` to print the per-regime tolerance table that
//! `EXPERIMENTS.md` ("Engine tiers" section) records:
//!
//! ```text
//! cargo test --release --test tier_equivalence -- --nocapture
//! ```

use csmaprobe::core::engine::{self, EnginePolicy, EngineTier};
use csmaprobe::core::link::{CrossShape, CrossSpec, LinkConfig, ProbeTarget, WlanLink};
use csmaprobe::desim::time::Dur;
use csmaprobe::traffic::probe::ProbeTrain;
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
/// the simulator — `analytic_covers` refuses them, the auto router
/// routes them to `Event`, and the auto steady point stays
/// bit-identical to a direct simulator run.
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
        let auto_tier = {
            let _g = engine::test_guard(EnginePolicy::Auto);
            engine::steady_tier(link.config(), *ri)
        };
        assert_eq!(
            auto_tier,
            EngineTier::Event,
            "{name}: auto router must keep an uncertified cell on the simulator"
        );
        let auto_pt = {
            let _g = engine::test_guard(EnginePolicy::Auto);
            link.steady_state(*ri, duration, 0xBAD5EED)
        };
        let forced_pt = link.steady_state_event(*ri, duration, 0xBAD5EED);
        assert_eq!(
            auto_pt.output_rate_bps.to_bits(),
            forced_pt.output_rate_bps.to_bits(),
            "{name}"
        );
        assert_eq!(auto_pt.contending_bps, forced_pt.contending_bps, "{name}");
        assert_eq!(
            auto_pt.fifo_cross_bps.to_bits(),
            forced_pt.fifo_cross_bps.to_bits(),
            "{name}"
        );
    }
}

/// The retired `slotted` tier: `EngineTier::Slotted` survives only as
/// a name that no policy can force and no route returns, so every
/// train is the one simulator's trajectory — bit-identical under auto
/// and forced `event`, including on cells the analytic tier would
/// otherwise serve — and a forced-event steady cell is exactly the
/// simulator's.
#[test]
fn forced_slotted_trains_are_trajectory_exact() {
    let links = [
        WlanLink::new(LinkConfig::default().contending_bps(2_000_000.0)),
        WlanLink::new(
            LinkConfig::default()
                .contending_bps(2_000_000.0)
                .contending(CrossSpec::shaped(1_000_000.0, CrossShape::Cbr)),
        ),
    ];
    let train = ProbeTrain::from_rate(50, 1500, 5_000_000.0);
    let duration = Dur::from_secs_f64(0.5);
    for (k, link) in links.iter().enumerate() {
        let run = |policy: EnginePolicy| {
            let _g = engine::test_guard(policy);
            (
                engine::steady_tier(link.config(), 1_500_000.0),
                engine::train_tier(link.config()),
                link.probe_train(train, 0xE1),
                link.steady_state(1_500_000.0, duration, 0xE1),
            )
        };
        let (auto_tier, auto_train_tier, auto, _) = run(EnginePolicy::Auto);
        let (ev_tier, ev_train_tier, ev, ev_pt) = run(EnginePolicy::Event);
        assert_ne!(auto_tier, EngineTier::Slotted, "link {k}");
        assert_eq!(ev_tier, EngineTier::Event, "link {k}");
        assert_eq!(auto_train_tier, EngineTier::Event, "link {k}");
        assert_eq!(ev_train_tier, EngineTier::Event, "link {k}");
        assert_eq!(ev.arrivals, auto.arrivals, "link {k}");
        assert_eq!(ev.rx_times, auto.rx_times, "link {k}");
        assert_eq!(ev.access_delays, auto.access_delays, "link {k}");
        let sim_pt = link.steady_state_event(1_500_000.0, duration, 0xE1);
        assert_eq!(
            ev_pt.output_rate_bps.to_bits(),
            sim_pt.output_rate_bps.to_bits(),
            "link {k}"
        );
        assert_eq!(ev_pt.contending_bps, sim_pt.contending_bps, "link {k}");
    }
}
