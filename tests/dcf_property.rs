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

use csmaprobe::core::link::{
    CrossShape, CrossSpec, LinkConfig, WlanLink, FLOW_FIFO_CROSS, FLOW_PROBE,
};
use csmaprobe::desim::rng::{derive_seed, SimRng};
use csmaprobe::desim::time::{Dur, Time};
use csmaprobe::mac::{
    measured_standalone_capacity_bps, saturated_source, MacOptions, PacketRecord, SimOutput,
    StationId, WlanSim,
};
use csmaprobe::phy::Phy;
use csmaprobe::traffic::probe::ProbeTrain;
use csmaprobe::traffic::{
    CbrSource, MergeSource, PacketArrival, PoissonSource, SizeModel, Source, TraceSource,
};
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

/// Payload sizes the queue-walk regimes draw contender frames from.
const SIZES: [u32; 4] = [40, 576, 1000, 1500];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The one-pass merge walk is `queue_len_at` at every instant: at
    // each probe arrival (how the transient profiles sample it) and at
    // every arrival and completion instant of the contender itself,
    // where the `<=` edges decide the count. The regimes mix 1-5
    // Poisson or CBR contenders of assorted frame sizes, optional FIFO
    // cross-traffic in the probe queue, retry limit 0 (collisions drop
    // frames), and horizons that cut the run with packets still queued.
    #[test]
    fn queue_merge_walk_matches_queue_len_at(
        seed in 0u64..1_000_000,
        rates in prop::collection::vec(200_000.0f64..3_500_000.0, 1..6),
        shapes in prop::collection::vec(0u64..8, 5),
        fifo_bps in 0.0f64..2_000_000.0,
        zero_retry in any::<bool>(),
        horizon_ms in 20u64..250,
    ) {
        let mut phy = Phy::dsss_11mbps();
        if zero_retry {
            phy.retry_limit = 0;
        }
        let horizon = Time::from_millis(horizon_ms);
        let start = Time::from_millis(10);
        let train = ProbeTrain {
            flow: FLOW_PROBE,
            ..ProbeTrain::from_rate(60, 1500, 4_000_000.0)
        };
        let probe_arrivals: Vec<Time> = train.arrivals(start).iter().map(|p| p.time).collect();

        let mut sim = WlanSim::new(phy, seed);
        let trace: Box<dyn Source> = Box::new(TraceSource::new(train.arrivals(start)));
        // Below 0.5 Mb/s the probe queue carries no FIFO cross-traffic.
        let probe_source = if fifo_bps < 500_000.0 {
            trace
        } else {
            let sizes = SizeModel::Fixed(1500);
            let fifo = PoissonSource::from_bitrate(fifo_bps, sizes, Time::ZERO, horizon)
                .with_flow(FLOW_FIFO_CROSS);
            Box::new(MergeSource::new(vec![trace, Box::new(fifo)]))
        };
        sim.add_station(probe_source);
        // `shape % 4` picks a contender's frame size, `shape < 4` makes
        // it Poisson and the rest CBR.
        let contenders: Vec<StationId> = rates
            .iter()
            .zip(&shapes)
            .map(|(&rate, &shape)| {
                let sizes = SizeModel::Fixed(SIZES[(shape % 4) as usize]);
                let source: Box<dyn Source> = if shape < 4 {
                    Box::new(PoissonSource::from_bitrate(rate, sizes, Time::ZERO, horizon))
                } else {
                    Box::new(CbrSource::from_bitrate(rate, sizes, Time::ZERO, horizon))
                };
                sim.add_station(source)
            })
            .collect();
        let out = sim.run(horizon);

        for &c in &contenders {
            let mut edges: Vec<Time> = probe_arrivals.clone();
            edges.extend(out.records(c).iter().flat_map(|r| [r.arrival, r.done]));
            edges.sort();
            for at in [&probe_arrivals, &edges] {
                let walked: Vec<usize> = out.queue_lens_at(c, at.iter().copied()).collect();
                let searched: Vec<usize> = at.iter().map(|&t| out.queue_len_at(c, t)).collect();
                prop_assert_eq!(walked, searched, "station {}", c.0);
            }
        }
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

/// FNV-1a fold of one 64-bit word.
fn fold(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Fingerprint of `seeds` probe-train runs over `link`: every field of
/// every station's packet records, plus the collision count, the
/// channel accounting and the last completion of each run. Also returns
/// the `(collisions, frame errors, drops, FIFO cross packets, packets
/// that arrived to a backlogged queue)` the runs saw, so a regime can
/// show it reaches the branch it is there for.
fn kernel_fingerprint(
    link: &WlanLink,
    train: ProbeTrain,
    seeds: std::ops::Range<u64>,
) -> (u64, [u64; 5]) {
    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut seen = [0u64; 5];
    for seed in seeds {
        let run = link.send_train(train, seed);
        let out = &run.output;
        for s in 0..out.station_count() {
            for r in out.records(StationId(s)) {
                for t in [r.arrival, r.head, r.rx_end, r.done] {
                    fold(&mut h, t.as_nanos());
                }
                fold(&mut h, u64::from(r.bytes));
                fold(&mut h, u64::from(r.retries));
                fold(&mut h, u64::from(r.dropped));
                fold(&mut h, u64::from(r.flow));
                seen[2] += u64::from(r.dropped);
                seen[3] += u64::from(r.flow == FLOW_FIFO_CROSS);
                seen[4] += u64::from(r.head > r.arrival);
            }
        }
        let c = out.channel;
        fold(&mut h, out.collisions);
        for d in [c.success_time, c.collision_time, c.error_time] {
            fold(&mut h, d.as_nanos());
        }
        fold(&mut h, c.collisions);
        fold(&mut h, c.frame_errors);
        fold(&mut h, out.last_done.as_nanos());
        seen[0] += c.collisions;
        seen[1] += c.frame_errors;
        run.recycle();
    }
    (h, seen)
}

/// The kernel's fixed-seed output, frozen: a change to the transmission
/// step that moves any record, collision or airtime total fails here.
/// The regimes cover every transmission branch — success, collision,
/// corrupted frame, drop after a collision and after a corrupted frame,
/// RTS/CTS and plain access mixed in one channel, FIFO cross-traffic
/// sharing the probe queue — on both PHY families, and every regime
/// has packets that arrive to a backlogged queue.
#[test]
fn kernel_fingerprint_is_frozen() {
    let train = |n, rate| ProbeTrain::from_rate(n, 1500, rate);
    let mut zero_retry = Phy::dsss_11mbps();
    zero_retry.retry_limit = 0;
    // (name, link, train, frozen fingerprint, needs frame errors,
    // needs drops, needs FIFO cross-traffic); every regime collides.
    let regimes = [
        (
            "fig09 heterogeneous contenders",
            LinkConfig::default()
                .contending(CrossSpec::poisson_sized(100_000.0, 40))
                .contending(CrossSpec::poisson_sized(500_000.0, 576))
                .contending(CrossSpec::poisson_sized(750_000.0, 1000))
                .contending(CrossSpec::poisson_sized(2_000_000.0, 1500)),
            train(80, 3e6),
            0x6ac8_4d9a_a1fa_c91d_u64,
            [false, false, false],
        ),
        (
            "frame errors",
            LinkConfig::default()
                .contending_bps(3_000_000.0)
                .mac_options(MacOptions::default().with_frame_error_rate(0.3)),
            train(80, 5e6),
            0x1e94_8562_62a0_9cac,
            [true, false, false],
        ),
        (
            "rts below the frame size",
            LinkConfig::default()
                .contending(CrossSpec::poisson_sized(2_000_000.0, 500))
                .contending_bps(2_000_000.0)
                .mac_options(MacOptions::default().with_rts_cts(1000)),
            train(80, 5e6),
            0x7fd2_612e_1fc5_4ca2,
            [false, false, false],
        ),
        (
            "retry limit 0",
            LinkConfig::default()
                .phy(zero_retry)
                .contending_bps(3_000_000.0)
                .contending_bps(3_000_000.0)
                .mac_options(MacOptions::default().with_frame_error_rate(0.05)),
            train(80, 5e6),
            0x00b9_5470_9bce_004a,
            [true, true, false],
        ),
        (
            "fifo cross-traffic",
            LinkConfig::default()
                .fifo_cross_bps(1_500_000.0)
                .contending(CrossSpec::shaped(2_000_000.0, CrossShape::Cbr)),
            train(80, 3e6),
            0x4180_2b2f_5fa0_ff68,
            [false, false, true],
        ),
        (
            "ofdm",
            LinkConfig::default()
                .phy(Phy::ofdm_g(54_000_000))
                .contending_bps(12_000_000.0)
                .contending_bps(8_000_000.0),
            train(80, 20e6),
            0xf5c6_efd0_1dd7_70d2,
            [false, false, false],
        ),
    ];
    for (name, cfg, train, frozen, needs) in regimes {
        let (fp, [collisions, errors, drops, fifo, queued]) =
            kernel_fingerprint(&WlanLink::new(cfg), train, 0..6);
        assert!(collisions > 0, "{name}: no collision");
        assert!(queued > 0, "{name}: no arrival to a backlogged queue");
        assert!(!needs[0] || errors > 0, "{name}: no frame error");
        assert!(!needs[1] || drops > 0, "{name}: no drop");
        assert!(!needs[2] || fifo > 0, "{name}: no FIFO cross packet");
        assert_eq!(fp, frozen, "{name}: fingerprint {fp:#018x}");
    }
}

/// A station whose source never emits changes nothing. Appended as the
/// last station of the fig09 link (its look-ahead spent from the start,
/// its random stream its own), it leaves every other station's records
/// and the channel accounting bit for bit as they were, and it neither
/// completes nor leaves behind a packet.
#[test]
fn spent_source_station_changes_nothing() {
    let fig09 = LinkConfig::default()
        .contending(CrossSpec::poisson_sized(100_000.0, 40))
        .contending(CrossSpec::poisson_sized(500_000.0, 576))
        .contending(CrossSpec::poisson_sized(750_000.0, 1000))
        .contending(CrossSpec::poisson_sized(2_000_000.0, 1500));
    let with_spent = fig09
        .clone()
        .contending(CrossSpec::poisson_sized(0.0, 1500));
    let train = ProbeTrain::from_rate(200, 1500, 0.5e6);
    for seed in 0..4 {
        let base = WlanLink::new(fig09.clone()).send_train(train, seed);
        let run = WlanLink::new(with_spent.clone()).send_train(train, seed);
        let (b, o) = (&base.output, &run.output);
        assert_eq!(o.station_count(), b.station_count() + 1);
        for s in 0..b.station_count() {
            assert_eq!(
                o.records(StationId(s)),
                b.records(StationId(s)),
                "station {s}"
            );
        }
        assert_eq!(run.probe, base.probe);
        assert_eq!(o.channel, b.channel);
        assert_eq!(o.last_done, b.last_done);
        let spent = *run.contending.last().unwrap();
        assert!(o.records(spent).is_empty());
        assert_eq!(o.queue_len_at(spent, Time::MAX), 0, "unfinished arrivals");
    }
}

/// Fold `queue_len_at` of every station of `out`, at each instant of
/// `at` and at `Time::MAX`, into `h`. Returns how many stations still
/// hold packets at `Time::MAX`.
fn fold_queues(h: &mut u64, out: &SimOutput, at: &[Time]) -> usize {
    let mut backlogged = 0;
    for s in (0..out.station_count()).map(StationId) {
        for &t in at {
            fold(h, out.queue_len_at(s, t) as u64);
        }
        let left = out.queue_len_at(s, Time::MAX);
        fold(h, left as u64);
        backlogged += usize::from(left > 0);
    }
    backlogged
}

/// Every `step` from zero through `end`.
fn grid(end: Time, step: Dur) -> Vec<Time> {
    let n = (end - Time::ZERO).div_dur(step);
    (0..=n).map(|k| Time::ZERO + step * k).collect()
}

/// The queues a run leaves behind, frozen. Horizon-cut runs end with
/// every station backlogged; one station also holds arrivals one
/// nanosecond before and exactly at the horizon, so the packets still
/// queued are pinned to those that arrived strictly before it.
/// Stop-rule exits on the fig09 link and on fig10's link at 0.9 Erlang
/// end mid-flight, with the contenders' queues as they stood when the
/// last probe packet completed.
#[test]
fn queues_left_behind_are_frozen() {
    let phy = Phy::dsss_11mbps();
    let horizon = Time::from_millis(150);
    let step = Dur::from_micros(500);
    let mut at = grid(horizon, step);
    at.extend([horizon - Dur(1), horizon]);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for seed in 0..6 {
        let mut sim = WlanSim::new(phy.clone(), seed);
        let until = horizon + (horizon - Time::ZERO);
        for (rate, bytes) in [(3.0e6, 1500), (2.5e6, 1000), (2.0e6, 576)] {
            let sizes = SizeModel::Fixed(bytes);
            sim.add_station(Box::new(PoissonSource::from_bitrate(
                rate,
                sizes,
                Time::ZERO,
                until,
            )));
        }
        // A burst that outlasts the horizon, then one arrival on
        // either side of it.
        let mut edge = vec![PacketArrival::new(Time::ZERO, 1500); 100];
        edge.extend([horizon - Dur(1), horizon].map(|t| PacketArrival::new(t, 1500)));
        sim.add_station(Box::new(TraceSource::new(edge)));
        let out = sim.run(horizon);
        assert_eq!(
            fold_queues(&mut h, &out, &at),
            4,
            "seed {seed}: a station drained before the horizon"
        );
        out.recycle();
    }

    let fig09 = LinkConfig::default()
        .contending(CrossSpec::poisson_sized(100_000.0, 40))
        .contending(CrossSpec::poisson_sized(500_000.0, 576))
        .contending(CrossSpec::poisson_sized(750_000.0, 1000))
        .contending(CrossSpec::poisson_sized(2_000_000.0, 1500));
    let c = measured_standalone_capacity_bps(&phy, 1500, 3000, 0xCAFE);
    let fig10 = LinkConfig::default().contending_bps(0.9 * c);
    let runs = [
        (fig09, ProbeTrain::from_rate(200, 1500, 0.5e6)),
        (fig10, ProbeTrain::from_rate(300, 1500, c)),
    ];
    let mut backlogged = 0;
    for (cfg, train) in runs {
        let link = WlanLink::new(cfg);
        for seed in 0..6 {
            let run = link.send_train(train, seed);
            let at = grid(run.output.last_done, step);
            backlogged += fold_queues(&mut h, &run.output, &at);
            run.recycle();
        }
    }
    assert!(backlogged > 0, "no stop-rule exit left a packet queued");
    assert_eq!(h, 0xb0c0_63f1_0d43_0fc4, "queue fingerprint {h:#018x}");
}

/// Fold every record field of every station of `out`, the packets each
/// station leaves queued, the channel accounting and the last
/// completion into `h`.
fn fold_output(h: &mut u64, out: &SimOutput) {
    for s in (0..out.station_count()).map(StationId) {
        for r in out.records(s) {
            for t in [r.arrival, r.head, r.rx_end, r.done] {
                fold(h, t.as_nanos());
            }
            for x in [r.bytes, r.retries, u32::from(r.dropped), u32::from(r.flow)] {
                fold(h, u64::from(x));
            }
        }
        fold(h, out.queue_len_at(s, Time::MAX) as u64);
    }
    let c = out.channel;
    for d in [c.success_time, c.collision_time, c.error_time] {
        fold(h, d.as_nanos());
    }
    fold(h, c.collisions);
    fold(h, c.frame_errors);
    fold(h, out.last_done.as_nanos());
}

/// Run one trace-fed station per trace, in order, on a fresh channel.
fn run_traces(
    phy: &Phy,
    options: MacOptions,
    seed: u64,
    traces: &[Vec<PacketArrival>],
    horizon: Time,
) -> SimOutput {
    let mut sim = WlanSim::new(phy.clone(), seed).with_options(options);
    for trace in traces {
        sim.add_station(Box::new(TraceSource::new(trace.clone())));
    }
    sim.run(horizon)
}

/// A station alone on the channel, frozen at the edges of its own
/// stepping. Trace-fed runs place, on every seed:
/// - an own arrival exactly at the station's transmission instant: it
///   joins the queue first, so the next head starts at the completion;
/// - own arrivals during the station's own exchange (ROADMAP item 7:
///   such a head starts at its arrival, not at the completion);
/// - a transmission exactly at the horizon, which does not happen, and
///   own arrivals exactly at the horizon, to a backlogged and to an
///   empty queue, which are not queued;
/// - another station's arrival exactly at the lone station's
///   transmission instant, which goes first;
/// - bursts and gaps under frame errors with retry limit 0, under
///   RTS/CTS for the larger frames, and without immediate access.
///
/// Link runs on fig10's link at 0.1 Erlang end on the stop rule, some
/// with the probe station transmitting alone.
#[test]
fn lone_station_edges_are_frozen() {
    let phy = Phy::dsss_11mbps();
    let (difs, slot) = (phy.difs(), phy.slot);
    let exchange = phy.data_airtime(1500) + phy.sifs + phy.ack_airtime();
    let at = |t: Time| PacketArrival::new(t, 1500);
    let zero = Time::ZERO;
    let us = |n: u64| zero + Dur::from_micros(n);
    // The first frame of a lone trace starting at 0 goes on air at DIFS
    // and completes here.
    let done1 = zero + difs + exchange;
    let paper = MacOptions::default();
    let mut zero_retry = phy.clone();
    zero_retry.retry_limit = 0;
    // Bursts and gaps, every third frame small: some arrivals find the
    // queue backlogged, some find it empty.
    let mixed: Vec<PacketArrival> = (0..60u64)
        .map(|k| {
            let bytes = if k % 3 == 0 { 500 } else { 1500 };
            PacketArrival::new(us(k * 1500 + (k % 4) * 300), bytes)
        })
        .collect();

    let mut h = 0xcbf2_9ce4_8422_2325;
    for seed in 0..8 {
        // The lone station's second transmission, after its stage-0
        // post-completion draw.
        let tx2 = done1 + difs + slot * first_draw(&phy, seed, 0) as u64;

        let out = run_traces(
            &phy,
            paper,
            seed,
            &[vec![at(zero), at(zero + difs)]],
            Time::MAX,
        );
        let recs = out.records(StationId(0));
        assert_eq!(recs[1].head, recs[0].done, "seed {seed}: arrival at tx");
        fold_output(&mut h, &out);

        let item7 = vec![at(zero), at(us(1000)), at(us(1200))];
        fold_output(&mut h, &run_traces(&phy, paper, seed, &[item7], Time::MAX));

        // (traces, horizon, records, packets left queued)
        let horizon_cases = [
            (vec![at(zero), at(us(10))], tx2, 1, 1),
            (
                vec![at(zero), at(us(10)), at(tx2 - Dur(1))],
                tx2 - Dur(1),
                1,
                1,
            ),
            (vec![at(zero), at(done1 + Dur(1))], done1 + Dur(1), 1, 0),
        ];
        for (trace, horizon, done, left) in horizon_cases {
            let out = run_traces(&phy, paper, seed, &[trace], horizon);
            assert_eq!(out.records(StationId(0)).len(), done, "seed {seed}");
            assert_eq!(
                out.queue_len_at(StationId(0), Time::MAX),
                left,
                "seed {seed}"
            );
            fold_output(&mut h, &out);
        }

        let other = [vec![at(zero), at(us(10))], vec![at(tx2)]];
        fold_output(&mut h, &run_traces(&phy, paper, seed, &other, Time::MAX));

        let regimes = [
            (&zero_retry, paper.with_frame_error_rate(0.3)),
            (&phy, paper.with_rts_cts(1000)),
            (&phy, paper.without_immediate_access()),
        ];
        for (p, options) in regimes {
            let out = run_traces(p, options, seed, std::slice::from_ref(&mixed), Time::MAX);
            assert_eq!(out.records(StationId(0)).len(), mixed.len(), "seed {seed}");
            fold_output(&mut h, &out);
        }
    }

    let c = measured_standalone_capacity_bps(&phy, 1500, 3000, 0xCAFE);
    let fig10 = WlanLink::new(LinkConfig::default().contending_bps(0.1 * c));
    let train = ProbeTrain::from_rate(100, 1500, c);
    let data = phy.data_airtime(1500);
    let mut alone_at_stop = 0;
    for seed in 0..6 {
        let run = fig10.send_train(train, seed);
        let last_tx = run.probe.last().expect("probe records").rx_end - data;
        alone_at_stop += usize::from(
            run.contending
                .iter()
                .all(|&s| run.output.queue_len_at(s, last_tx) == 0),
        );
        fold_output(&mut h, &run.output);
        run.recycle();
    }
    assert!(alone_at_stop > 0, "no stop-rule exit with the probe alone");
    assert_eq!(
        h, 0x7a8b_d9b2_2f4b_a9c7,
        "lone-station fingerprint {h:#018x}"
    );
}
