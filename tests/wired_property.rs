//! The wired baseline (`WiredLink`) pinned bit for bit: a frozen
//! fingerprint over a fixed matrix of links and trains, and a property
//! test against the reference path that served the whole cross-traffic
//! trace to a fixed horizon. Both compare exact nanosecond departures,
//! so a change to the cross-traffic draw, the service times or the
//! order of service fails here.

use csmaprobe::core::link::{ProbeTarget, TrainObservation, WiredLink};
use csmaprobe::desim::rng::{derive_seed, SimRng};
use csmaprobe::desim::time::{Dur, Time};
use csmaprobe::queueing::fifo::{fifo_serve, Job};
use csmaprobe::traffic::probe::ProbeTrain;
use csmaprobe::traffic::{PoissonSource, SizeModel, Source};
use proptest::prelude::*;

/// FNV-1a fold of one 64-bit word.
fn fold(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

fn fold_obs(h: &mut u64, obs: &TrainObservation) {
    fold(h, obs.rx_times.len() as u64);
    for (a, d) in obs.arrivals.iter().zip(&obs.rx_times) {
        fold(h, a.as_nanos());
        fold(h, d.as_nanos());
    }
}

/// A wired link with explicit frame sizes (0.5 s warm-up).
fn link(capacity_bps: f64, load: f64, cross_bytes: u32, probe_bytes: u32) -> WiredLink {
    WiredLink {
        cross_bytes,
        probe_bytes,
        ..WiredLink::new(capacity_bps, load * capacity_bps)
    }
}

/// Offsets with repeats: packets queued at the same instant.
fn repeated_offsets() -> Vec<Dur> {
    [0, 0, 0, 120, 120, 500, 2_000, 2_000, 2_001]
        .into_iter()
        .map(Dur::from_micros)
        .collect()
}

/// Every probe's arrival and departure over the matrix: capacities
/// 1/10/100 Mb/s, cross load 0, 0.5 and 0.9 of C, 40 and 1500 B cross
/// and probe frames, trains of 1, 5 and 50 packets below and above C,
/// and a `probe_sequence` with repeated offsets.
#[test]
fn wired_fingerprint_is_frozen() {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut seed = 0;
    for capacity in [1e6, 10e6, 100e6] {
        for load in [0.0, 0.5, 0.9] {
            for cross_bytes in [40, 1500] {
                for probe_bytes in [40, 1500] {
                    let link = link(capacity, load, cross_bytes, probe_bytes);
                    for (n, rate) in [(1, 0.5), (5, 1.5), (50, 0.7), (50, 2.0)] {
                        let train = ProbeTrain::from_rate(n, probe_bytes, rate * capacity);
                        fold_obs(&mut h, &link.probe_train(train, seed));
                    }
                    fold_obs(
                        &mut h,
                        &link.probe_sequence(&repeated_offsets(), probe_bytes, seed),
                    );
                    seed += 1;
                }
            }
        }
    }
    assert_eq!(h, 0x4e0f_7fe6_7f5f_1a1d, "fingerprint {h:#018x}");
}

/// The reference wired path: cross-traffic drawn to a horizon of
/// (n + 8) probe service times plus 2 s past the last probe, every job
/// sorted by `(arrival, cross after probe)`, and the whole trace served
/// through `fifo_serve`. Returns each probe's (arrival, departure).
fn reference(link: &WiredLink, probe: &[Time], bytes: u32, seed: u64) -> (Vec<Time>, Vec<Time>) {
    let service = |b: u32| Dur::from_secs_f64(b as f64 * 8.0 / link.capacity_bps);
    let last = probe.last().copied().unwrap_or(Time::ZERO);
    let horizon = last + service(bytes) * (probe.len() as u64 + 8) + Dur::from_secs(2);
    let mut rng = SimRng::new(derive_seed(seed, 0x51ED));
    let mut cross = PoissonSource::from_bitrate(
        link.cross_rate_bps,
        SizeModel::Fixed(link.cross_bytes),
        Time::ZERO,
        horizon,
    );
    let mut jobs: Vec<(Time, u32, bool)> = Vec::new();
    while let Some(p) = cross.next_packet(&mut rng) {
        jobs.push((p.time, p.bytes, false));
    }
    jobs.extend(probe.iter().map(|&t| (t, bytes, true)));
    jobs.sort_by_key(|&(t, _, is_probe)| (t, !is_probe));
    let plain: Vec<Job> = jobs
        .iter()
        .map(|&(t, b, _)| Job {
            arrival: t,
            service: service(b),
        })
        .collect();
    fifo_serve(&plain)
        .iter()
        .zip(&jobs)
        .filter(|(_, &(_, _, is_probe))| is_probe)
        .map(|(s, _)| (s.arrival, s.depart))
        .unzip()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Random links and trains, and sequences whose offsets repeat
    // (gaps under 100 µs collapse to 0): every probe departure equals
    // the reference's to the nanosecond.
    #[test]
    fn streaming_pass_matches_the_full_horizon_reference(
        capacity in 0usize..3,
        load in 0.0f64..0.94,
        cross_bytes in 0usize..3,
        probe_bytes in 0usize..2,
        n in 1usize..200,
        rate in 0.1f64..2.1,
        gaps_us in prop::collection::vec(0u64..400, 1..60),
        seed in any::<u64>(),
    ) {
        let capacity = [1e6, 10e6, 100e6][capacity];
        let probe_bytes = [40, 1500][probe_bytes];
        let link = link(capacity, load, [40, 576, 1500][cross_bytes], probe_bytes);
        let start = Time::ZERO + link.warmup;

        let train = ProbeTrain::from_rate(n, probe_bytes, rate * capacity);
        let obs = link.probe_train(train, seed);
        let times: Vec<Time> = train.arrivals(start).iter().map(|p| p.time).collect();
        let (arrivals, departs) = reference(&link, &times, probe_bytes, seed);
        prop_assert_eq!(&obs.arrivals, &arrivals);
        prop_assert_eq!(&obs.rx_times, &departs);

        let mut offset = Dur::ZERO;
        let offsets: Vec<Dur> = gaps_us
            .iter()
            .map(|&g| {
                offset += Dur::from_micros(if g < 100 { 0 } else { g });
                offset
            })
            .collect();
        let obs = link.probe_sequence(&offsets, probe_bytes, seed);
        let times: Vec<Time> = offsets.iter().map(|&o| start + o).collect();
        let (arrivals, departs) = reference(&link, &times, probe_bytes, seed);
        prop_assert_eq!(&obs.arrivals, &arrivals);
        prop_assert_eq!(&obs.rx_times, &departs);
    }
}

#[test]
#[should_panic(expected = "trace arrivals must be time-ordered")]
fn decreasing_offsets_panic() {
    let offsets = [Dur::from_micros(10), Dur::from_micros(5)];
    WiredLink::new(10e6, 4e6).probe_sequence(&offsets, 1500, 1);
}
