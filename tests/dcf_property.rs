//! The DCF backoff mechanism of `WlanSim`, pinned against the
//! documented per-station random stream rather than against another
//! kernel.
//!
//! Station `i` of a simulation seeded `seed` draws every random number
//! from `SimRng::new(derive_seed(seed, i + 1))`, in order: one `f64`
//! per attempt when frame errors are injected, then each backoff from
//! the window of its stage. In the constructions below the draws can be
//! replayed from that stream alone, so the tests compute exactly when
//! each frame must go on air — a regression in the freeze-and-resume
//! arithmetic or in the contention-window schedule moves those instants
//! and fails here.

use csmaprobe::desim::rng::{derive_seed, SimRng};
use csmaprobe::desim::time::{Dur, Time};
use csmaprobe::mac::{saturated_source, MacOptions, PacketRecord, WlanSim};
use csmaprobe::phy::Phy;
use csmaprobe::traffic::{PacketArrival, TraceSource};
use proptest::prelude::*;

/// Frames per lone-station run.
const PACKETS: usize = 40;

/// Run one saturated station alone under frame-error injection: with
/// nobody to collide with, every retry comes from a corrupted frame.
fn lone_station(phy: &Phy, fer: f64, seed: u64) -> Vec<PacketRecord> {
    let mut sim = WlanSim::new(phy.clone(), seed)
        .with_options(MacOptions::default().with_frame_error_rate(fer));
    let st = sim.add_station(saturated_source(1500, PACKETS));
    sim.run(Time::MAX).records(st).to_vec()
}

/// The records [`lone_station`] must produce, replayed from station 0's
/// stream: each attempt draws one `f64` against the frame-error rate; a
/// failed attempt backs off from the next stage's window until the
/// retry limit drops the frame; every head after the first (which gets
/// immediate access) starts over from stage 0.
fn replay_lone_station(phy: &Phy, fer: f64, seed: u64) -> Vec<PacketRecord> {
    let mut rng = SimRng::new(derive_seed(seed, 1));
    let backoff = |rng: &mut SimRng, stage: u32| {
        phy.slot * rng.range_inclusive(0, phy.cw_at_stage(stage) as u64)
    };
    let data = phy.data_airtime(1500);
    let mut head = Time::ZERO;
    let mut t = Time::ZERO + phy.difs();
    let mut out = Vec::with_capacity(PACKETS);
    for k in 0..PACKETS {
        let mut retries = 0;
        let (rx_end, done, dropped) = loop {
            if rng.f64() < fer {
                let fail_end = t + data + phy.ack_timeout();
                retries += 1;
                if retries > phy.retry_limit {
                    break (t + data, fail_end, true);
                }
                t = fail_end + phy.difs() + backoff(&mut rng, retries);
            } else {
                break (t + data, t + data + phy.sifs + phy.ack_airtime(), false);
            }
        };
        out.push(PacketRecord {
            arrival: Time::ZERO,
            head,
            rx_end,
            done,
            bytes: 1500,
            retries,
            dropped,
            flow: 0,
        });
        head = done;
        if k + 1 < PACKETS {
            t = done + phy.difs() + backoff(&mut rng, 0);
        }
    }
    out
}

proptest! {
    // Every backoff lies inside its stage's window: a lone station's
    // access delay minus its fixed airtime is a whole number of idle
    // slots, no more than the windows of the stages it drew from allow
    // (stage 0 on every head but the first, then one stage per retry).
    #[test]
    fn backoff_draws_bounded_by_stage_window(seed in 0u64..500, fer in 0.2f64..0.8) {
        let phy = Phy::dsss_11mbps();
        let data = phy.data_airtime(1500);
        for (k, r) in lone_station(&phy, fer, seed).iter().enumerate() {
            let attempts = r.retries as u64 + u64::from(!r.dropped);
            let mut fixed = phy.difs() * attempts + (data + phy.ack_timeout()) * r.retries as u64;
            if !r.dropped {
                fixed = fixed + data + phy.sifs + phy.ack_airtime();
            }
            let idle = r.access_delay() - fixed;
            let slots = idle.div_dur(phy.slot);
            prop_assert_eq!(idle, phy.slot * slots, "frame {} idles a fractional slot", k);
            let last_stage = r.retries.min(phy.retry_limit);
            let window: u64 = (u32::from(k == 0)..=last_stage)
                .map(|s| phy.cw_at_stage(s) as u64)
                .sum();
            prop_assert!(slots <= window, "frame {} backed off {} > {} slots", k, slots, window);
        }
    }

    // The contention window doubles per retry up to CWmax and resets on
    // every new head: the simulator's records equal, bit for bit, a
    // replay of the station's stream through the PHY's window schedule.
    #[test]
    fn cw_doubles_to_cwmax_and_resets_on_success(seed in 0u64..500) {
        let phy = Phy::dsss_11mbps();
        for s in 0..10 {
            prop_assert_eq!(
                phy.cw_at_stage(s + 1),
                (2 * (phy.cw_at_stage(s) + 1) - 1).min(phy.cw_max)
            );
        }
        let fer = 0.6;
        let records = lone_station(&phy, fer, seed);
        prop_assert_eq!(&records, &replay_lone_station(&phy, fer, seed));
        // The runs must exercise escalation and the reset after it.
        prop_assert!(records.iter().any(|r| r.retries >= 2), "no escalation");
        prop_assert!(
            records.windows(2).any(|w| w[0].retries > 0 && w[1].retries == 0),
            "no reset after a retried frame"
        );
    }
}

/// The first stage-0 backoff draw of station `station` under `seed`.
fn first_draw(phy: &Phy, seed: u64, station: u64) -> u32 {
    SimRng::new(derive_seed(seed, station + 1)).range_inclusive(0, phy.cw_at_stage(0) as u64) as u32
}

/// Frozen counters resume exactly: a station whose countdown is
/// interrupted by another transmission keeps its remaining slots —
/// no redraw, no slot lost or gained.
///
/// Construction: station A sends two back-to-back frames, station B
/// queues one frame during A's first transmission. B draws `b` slots
/// anchored at the first busy-end; A rearms with `a2` slots on the same
/// anchor. When `a2 < b`, A's second frame interrupts B after exactly
/// `a2` counted slots, so B must transmit `b − a2` slots after the
/// second busy period's DIFS edge.
#[test]
fn frozen_backoff_resumes_exactly() {
    let phy = Phy::dsss_11mbps();
    let slot = phy.slot;
    let difs = phy.difs();
    let data = phy.data_airtime(1500);
    let exchange = data + phy.sifs + phy.ack_airtime();

    let mut exercised = 0usize;
    for seed in 0..60u64 {
        // A: immediate access at t = 0, so tx1 at DIFS.
        let t_b = difs + Dur::from_micros(700); // inside A's first frame
        let mut sim = WlanSim::new(phy.clone(), seed);
        let a = sim.add_station(saturated_source(1500, 2));
        let b = sim.add_station(Box::new(TraceSource::new(vec![PacketArrival::new(
            Time::ZERO + t_b,
            1500,
        )])));
        assert_eq!((a.0, b.0), (0, 1));
        let out = sim.run(Time::MAX);

        // A's first draw is its rearm after frame 1; B's is the backoff
        // it draws on arriving to a busy medium.
        let a_rearm = first_draw(&phy, seed, 0);
        let b_draw = first_draw(&phy, seed, 1);
        if a_rearm >= b_draw {
            continue; // B wins or collides; not the freeze shape
        }
        exercised += 1;

        let busy_end_1 = difs + exchange;
        let tx2 = busy_end_1 + difs + slot * a_rearm as u64;
        let busy_end_2 = tx2 + exchange;
        let b_tx = busy_end_2 + difs + slot * (b_draw - a_rearm) as u64;

        assert_eq!(
            out.records(a)[1].rx_end,
            Time::ZERO + tx2 + data,
            "seed {seed}"
        );
        let rec = &out.records(b)[0];
        assert_eq!(
            rec.rx_end,
            Time::ZERO + b_tx + data,
            "seed {seed} drew {b_draw} frozen after {a_rearm}: \
             B resumed with the wrong remaining count"
        );
        assert_eq!(rec.retries, 0);
    }
    assert!(
        exercised >= 10,
        "only {exercised}/60 seeds hit the freeze shape"
    );
}
