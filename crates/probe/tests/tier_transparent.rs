//! Engine-tier transparency at the probing-tool layer: the measurement
//! tools never know (and must never be able to tell) which engine
//! policy is active.
//!
//! **The analytic tier never reaches the tools** — the finite-load
//! fixed point serves steady-state cells only; under auto, trains and
//! SLoPS run the simulator, bit for bit as under forced `event`, on
//! certified and uncertified shapes alike.

use csmaprobe_core::engine::{test_guard, train_tier, EnginePolicy, EngineTier};
use csmaprobe_core::link::{CrossShape, CrossSpec, LinkConfig, WlanLink};
use csmaprobe_probe::{SlopsEstimator, TrainProbe};

/// A FIFO cell: no analytic model covers it, even for steady points.
fn fifo_link() -> WlanLink {
    WlanLink::new(
        LinkConfig::default()
            .contending_bps(2_000_000.0)
            .fifo_cross_bps(500_000.0),
    )
}

/// FIFO-free cells: a Poisson contender the finite-load fixed point
/// certifies for steady points, and a CBR + Poisson mix it does not.
fn fifo_free_links() -> Vec<(&'static str, WlanLink)> {
    vec![
        (
            "poisson-1",
            WlanLink::new(LinkConfig::default().contending_bps(2_000_000.0)),
        ),
        (
            "mixed-2",
            WlanLink::new(
                LinkConfig::default()
                    .contending_bps(2_000_000.0)
                    .contending(CrossSpec::shaped(1_000_000.0, CrossShape::Cbr)),
            ),
        ),
    ]
}

fn all_links() -> Vec<(&'static str, WlanLink)> {
    let mut links = fifo_free_links();
    links.push(("fifo-1", fifo_link()));
    links
}

fn train_fingerprint(
    link: &WlanLink,
    policy: EnginePolicy,
    reps: usize,
) -> (f64, f64, Vec<f64>, usize) {
    let _g = test_guard(policy);
    let m = TrainProbe::new(30, 1500, 5_000_000.0).measure(link, reps, 0xF00D);
    (
        m.output_gap.mean(),
        m.output_gap.variance(),
        m.access_delays.means(),
        m.incomplete,
    )
}

#[test]
fn forced_analytic_never_leaks_into_trains() {
    // Trains are per-frame trajectories no closed form reproduces, so
    // `train_tier` must refuse the analytic tier under auto on every
    // shape: the FIFO cell the tier does not certify AND the Poisson
    // cell whose steady points it does. The auto fingerprint therefore
    // equals the forced-event one, bit for bit.
    for (name, link) in all_links() {
        {
            let _g = test_guard(EnginePolicy::Auto);
            assert_eq!(
                train_tier(link.config()),
                EngineTier::Event,
                "{name}: trains must never route analytic"
            );
        }
        let auto = train_fingerprint(&link, EnginePolicy::Auto, 8);
        let event = train_fingerprint(&link, EnginePolicy::Event, 8);
        assert_eq!(auto, event, "{name}: auto vs forced-event");
    }
}

#[test]
fn forced_analytic_slops_identical_to_oracle() {
    // SLoPS drives probe trains underneath; the analytic tier must be
    // equally invisible there, certified steady cell or not.
    for (name, link) in all_links() {
        let run = |policy: EnginePolicy| {
            let _g = test_guard(policy);
            SlopsEstimator::default().run(&link, 0xBEA7)
        };
        let auto = run(EnginePolicy::Auto);
        let event = run(EnginePolicy::Event);
        assert_eq!(auto.estimate_bps, event.estimate_bps, "{name}");
        assert_eq!(auto.trace, event.trace, "{name}");
    }
}
