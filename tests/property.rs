//! Property-based tests (proptest) on the workspace's core data
//! structures and invariants.

use csmaprobe::core::sample_path::{intrusion_residuals, output_gap, total_delays};
use csmaprobe::desim::rng::SimRng;
use csmaprobe::desim::time::{Dur, Time};
use csmaprobe::mac::{saturated_source, WlanSim};
use csmaprobe::phy::Phy;
use csmaprobe::queueing::fifo::{fifo_serve, workload_at_arrivals, Job};
use csmaprobe::stats::ecdf::Ecdf;
use csmaprobe::stats::ks::{ks_critical_value, two_sample_ks};
use csmaprobe::stats::mser::mser_m;
use csmaprobe::stats::online::OnlineStats;
use csmaprobe::stats::p2::P2Quantile;
use csmaprobe::traffic::probe::ProbeTrain;
use proptest::prelude::*;

proptest! {
    // ---------- desim::time ----------

    #[test]
    fn time_dur_arithmetic_consistent(a in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = Time::from_nanos(a);
        let dur = Dur::from_nanos(d);
        prop_assert_eq!((t + dur) - t, dur);
        prop_assert_eq!((t + dur).since(t), dur);
        prop_assert!(t + dur >= t);
    }

    #[test]
    fn dur_mul_div_round_trips(ns in 0u64..1_000_000_000_000u64, k in 1u64..1000) {
        let d = Dur::from_nanos(ns);
        prop_assert_eq!((d * k) / k, d);
        prop_assert_eq!(d.mul_div(k, k), d);
        // div_ceil >= div.
        let unit = Dur::from_nanos(k);
        prop_assert!(d.div_ceil_dur(unit) >= d.div_dur(unit));
        prop_assert!(d.div_ceil_dur(unit) - d.div_dur(unit) <= 1);
    }

    // ---------- desim::rng ----------

    #[test]
    fn rng_below_always_in_range(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    #[test]
    fn rng_exp_nonnegative(seed in any::<u64>(), mean in 1e-9f64..1e3) {
        let mut rng = SimRng::new(seed);
        for _ in 0..50 {
            let x = rng.exp(mean);
            prop_assert!(x.is_finite() && x >= 0.0);
        }
    }

    // ---------- queueing::fifo ----------

    #[test]
    fn lindley_invariants(
        gaps in prop::collection::vec(0u64..5_000u64, 1..100),
        services in prop::collection::vec(1u64..3_000u64, 100),
    ) {
        let mut t = 0u64;
        let jobs: Vec<Job> = gaps
            .iter()
            .zip(&services)
            .map(|(&g, &s)| {
                t += g;
                Job { arrival: Time::from_micros(t), service: Dur::from_micros(s) }
            })
            .collect();
        let served = fifo_serve(&jobs);
        // Work conservation + FIFO ordering invariants.
        let mut prev_depart = Time::ZERO;
        for (job, s) in jobs.iter().zip(&served) {
            prop_assert!(s.start >= job.arrival);
            prop_assert!(s.start >= prev_depart);
            prop_assert_eq!(s.depart - s.start, job.service);
            prop_assert!(s.depart > prev_depart);
            prev_depart = s.depart;
        }
        // Waits equal workload found at arrival.
        let wl = workload_at_arrivals(&jobs);
        for (s, w) in served.iter().zip(&wl) {
            prop_assert_eq!(s.wait(), *w);
        }
        // Total busy time equals total service time.
        let busy: u64 = served.iter().map(|s| (s.depart - s.start).as_nanos()).sum();
        let service: u64 = jobs.iter().map(|j| j.service.as_nanos()).sum();
        prop_assert_eq!(busy, service);
    }

    // ---------- stats::ecdf ----------

    #[test]
    fn ecdf_is_monotone_cdf(sample in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let e = Ecdf::new(sample.clone());
        let lo = e.values()[0];
        let hi = *e.values().last().unwrap();
        let mut prev_step = 0.0;
        let mut prev_int = 0.0;
        for k in 0..=40 {
            let x = lo - 1.0 + (hi - lo + 2.0) * k as f64 / 40.0;
            let fs = e.eval(x);
            let fi = e.eval_interpolated(x);
            prop_assert!((0.0..=1.0).contains(&fs));
            prop_assert!((0.0..=1.0).contains(&fi));
            prop_assert!(fs >= prev_step - 1e-12);
            prop_assert!(fi >= prev_int - 1e-12);
            prev_step = fs;
            prev_int = fi;
        }
        prop_assert_eq!(e.eval(hi), 1.0);
        prop_assert_eq!(e.eval_interpolated(hi), 1.0);
    }

    // ---------- stats::ks ----------

    #[test]
    fn ks_statistic_bounded_and_symmetric_threshold(
        a in prop::collection::vec(0.0f64..1.0, 5..100),
        b in prop::collection::vec(0.0f64..1.0, 5..100),
    ) {
        let out = two_sample_ks(&a, &b, 0.05);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&out.statistic));
        prop_assert!(out.threshold > 0.0);
        prop_assert_eq!(out.reject, out.statistic > out.threshold);
        let t1 = ks_critical_value(a.len(), b.len(), 0.05);
        let t2 = ks_critical_value(b.len(), a.len(), 0.05);
        prop_assert!((t1 - t2).abs() < 1e-15);
    }

    #[test]
    fn ks_identical_samples_never_differ_much(a in prop::collection::vec(0.0f64..1.0, 20..200)) {
        let out = two_sample_ks(&a, &a, 0.05);
        // Only interpolation error separates the two ECDFs.
        prop_assert!(out.statistic <= 1.0 / (a.len() as f64).sqrt() + 0.2);
    }

    // ---------- stats::mser ----------

    #[test]
    fn mser_truncates_at_most_half(series in prop::collection::vec(0.0f64..100.0, 4..300), m in 1usize..4) {
        if let Some(r) = mser_m(&series, m) {
            let k = series.len() / m;
            prop_assert!(r.truncate_batches <= k / 2);
            prop_assert_eq!(r.truncate_raw, r.truncate_batches * m);
            prop_assert!(r.min_statistic.is_finite());
        }
    }

    // ---------- stats::online ----------

    #[test]
    fn online_stats_merge_associative(
        a in prop::collection::vec(-1e3f64..1e3, 1..100),
        b in prop::collection::vec(-1e3f64..1e3, 1..100),
    ) {
        let mut merged = OnlineStats::from_slice(&a);
        merged.merge(&OnlineStats::from_slice(&b));
        let mut whole: Vec<f64> = a.clone();
        whole.extend(&b);
        let direct = OnlineStats::from_slice(&whole);
        prop_assert_eq!(merged.count(), direct.count());
        prop_assert!((merged.mean() - direct.mean()).abs() < 1e-9);
        prop_assert!((merged.variance() - direct.variance()).abs() < 1e-6);
        prop_assert_eq!(merged.min(), direct.min());
        prop_assert_eq!(merged.max(), direct.max());
    }

    // The correctness keystone of the streaming reduce: accumulators
    // merged from split streams must agree with one sequential pass.

    #[test]
    fn online_stats_chunked_merge_matches_sequential(
        xs in prop::collection::vec(-1e3f64..1e3, 1..400),
        chunk in 1usize..64,
    ) {
        // Merge in fixed chunk order, exactly like replicate::run_reduce.
        let mut merged = OnlineStats::new();
        for part in xs.chunks(chunk) {
            merged.merge(&OnlineStats::from_slice(part));
        }
        let direct = OnlineStats::from_slice(&xs);
        prop_assert_eq!(merged.count(), direct.count());
        prop_assert!((merged.mean() - direct.mean()).abs() < 1e-9);
        prop_assert!((merged.variance() - direct.variance()).abs() < 1e-6);
    }

    #[test]
    fn p2_merge_agrees_with_sequential_push(
        seed in any::<u64>(),
        n in 100usize..3000,
        split_frac in 0.05f64..0.95,
    ) {
        // Uniform[0,1) stream split in two, each half into its own P²
        // median estimator, merged — must agree with one sequential
        // estimator to within the estimator's own accuracy band.
        let mut rng = SimRng::new(seed);
        let xs: Vec<f64> = (0..n).map(|_| rng.f64()).collect();
        let split = ((n as f64 * split_frac) as usize).clamp(1, n - 1);
        let mut whole = P2Quantile::median();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = P2Quantile::median();
        let mut b = P2Quantile::median();
        for &x in &xs[..split] {
            a.push(x);
        }
        for &x in &xs[split..] {
            b.push(x);
        }
        a.merge(b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!(
            (a.value() - whole.value()).abs() < 0.08,
            "merged {} vs sequential {} (n={}, split={})",
            a.value(),
            whole.value(),
            n,
            split
        );
        // Both near the true median as a sanity anchor.
        prop_assert!((a.value() - 0.5).abs() < 0.15);
    }

    // ---------- core::sample_path ----------

    #[test]
    fn residuals_nonnegative_and_zero_start(
        mu in prop::collection::vec(1e-6f64..1e-2, 2..50),
        g_i in 1e-6f64..1e-2,
        u in 0.0f64..1.0,
    ) {
        let us = vec![u; mu.len() - 1];
        let r = intrusion_residuals(g_i, &mu, &us);
        prop_assert_eq!(r[0], 0.0);
        prop_assert!(r.iter().all(|&x| x >= 0.0));
        // Higher utilisation can only increase residuals.
        let r0 = intrusion_residuals(g_i, &mu, &vec![0.0; mu.len() - 1]);
        for (hi, lo) in r.iter().zip(&r0) {
            prop_assert!(hi >= lo);
        }
    }

    #[test]
    fn gap_identity_eq16_eq17(
        mu in prop::collection::vec(1e-6f64..1e-2, 2..50),
        g_i in 1e-6f64..1e-2,
    ) {
        let us = vec![0.0; mu.len() - 1];
        let r = intrusion_residuals(g_i, &mu, &us);
        let w = vec![0.0; mu.len()];
        let z = total_delays(&mu, &r, &w);
        let departures: Vec<f64> = z
            .iter()
            .enumerate()
            .map(|(i, zi)| i as f64 * g_i + zi)
            .collect();
        // eq (16) computed from departures == gI + (Z_n - Z_1)/(n-1).
        let lhs = output_gap(&departures);
        let rhs = g_i + (z.last().unwrap() - z[0]) / (z.len() as f64 - 1.0);
        prop_assert!((lhs - rhs).abs() < 1e-12);
    }

    // ---------- traffic::probe ----------

    #[test]
    fn probe_train_arrivals_periodic(n in 2usize..200, bytes in 1u32..2000, gap_us in 0u64..10_000) {
        let t = ProbeTrain { n, bytes, gap: Dur::from_micros(gap_us), flow: 3 };
        let arr = t.arrivals(Time::from_micros(77));
        prop_assert_eq!(arr.len(), n);
        for (i, p) in arr.iter().enumerate() {
            prop_assert_eq!(p.time, Time::from_micros(77) + t.gap * i as u64);
            prop_assert_eq!(p.bytes, bytes);
            prop_assert_eq!(p.flow, 3);
        }
        prop_assert_eq!(t.span(), t.gap * (n as u64 - 1));
    }
}

proptest! {
    // ---------- phy ----------

    #[test]
    fn phy_airtime_monotone_in_bytes_and_rate(bytes in 1u32..2304, extra in 1u32..500) {
        let phy = csmaprobe::phy::Phy::dsss_11mbps();
        prop_assert!(phy.data_airtime(bytes + extra) > phy.data_airtime(bytes));
        // Faster PHY, strictly less airtime for the same frame.
        let slow = csmaprobe::phy::Phy::dsss(2_000_000, csmaprobe::phy::Preamble::Long);
        prop_assert!(phy.data_airtime(bytes) < slow.data_airtime(bytes));
        // OFDM symbol padding is monotone too.
        let g = csmaprobe::phy::Phy::ofdm_g(54_000_000);
        prop_assert!(g.data_airtime(bytes + extra) >= g.data_airtime(bytes));
    }

    // ---------- mac::bianchi ----------

    #[test]
    fn bianchi_fixed_point_in_bounds(n in 1usize..64, bytes in 100u32..1500) {
        let phy = csmaprobe::phy::Phy::dsss_11mbps();
        let m = csmaprobe::mac::BianchiModel::solve(&phy, n, bytes);
        prop_assert!(m.tau > 0.0 && m.tau < 1.0, "tau {}", m.tau);
        prop_assert!((0.0..1.0).contains(&m.p), "p {}", m.p);
        prop_assert!(m.throughput_bps > 0.0);
        prop_assert!(m.fair_share_bps * n as f64 <= m.throughput_bps * 1.0001);
        // Throughput can never exceed the payload fraction of the PHY rate.
        prop_assert!(m.throughput_bps < phy.data_rate_bps as f64);
        prop_assert!(m.mean_access_delay_s > 0.0);
    }

    // ---------- traffic::MergeSource ----------

    #[test]
    fn merge_source_preserves_time_order(
        a_gaps in prop::collection::vec(0u64..1_000u64, 1..40),
        b_gaps in prop::collection::vec(0u64..1_000u64, 1..40),
    ) {
        use csmaprobe::traffic::{MergeSource, PacketArrival, Source, TraceSource};
        let mk = |gaps: &[u64], flow: u16| {
            let mut t = 0u64;
            let v: Vec<PacketArrival> = gaps
                .iter()
                .map(|&g| {
                    t += g;
                    PacketArrival { time: Time::from_micros(t), bytes: 100, flow }
                })
                .collect();
            Box::new(TraceSource::new(v)) as Box<dyn Source>
        };
        let total = a_gaps.len() + b_gaps.len();
        let mut merged = MergeSource::new(vec![mk(&a_gaps, 1), mk(&b_gaps, 2)]);
        let mut rng = SimRng::new(1);
        let mut prev = Time::ZERO;
        let mut flows = [0usize; 3];
        // Bounded: a merge that never reports exhaustion fails here
        // instead of growing without end.
        let pulled: Vec<Option<PacketArrival>> =
            (0..=total).map(|_| merged.next_packet(&mut rng)).collect();
        prop_assert!(pulled[..total].iter().all(Option::is_some), "merge spent early");
        prop_assert_eq!(pulled[total], None, "merge not spent after {} packets", total);
        for p in pulled.iter().flatten() {
            prop_assert!(p.time >= prev, "order violated");
            prev = p.time;
            flows[p.flow as usize] += 1;
        }
        prop_assert_eq!(flows[1], a_gaps.len());
        prop_assert_eq!(flows[2], b_gaps.len());
    }

    // Gaps of 0-2 µs make equal instants common, within one trace and
    // across the two; an empty trace sits first, between or last. The
    // merge is a stable sort of the traces in source order: an earlier
    // source wins every tie, and a spent one is skipped.
    #[test]
    fn merge_source_is_a_stable_sort_in_source_order(
        a_gaps in prop::collection::vec(0u64..3, 1..40),
        b_gaps in prop::collection::vec(0u64..3, 1..40),
        empty_at in 0usize..3,
    ) {
        use csmaprobe::traffic::{MergeSource, PacketArrival, Source, TraceSource};
        // `bytes` numbers the packets within their trace.
        let mk = |gaps: &[u64], flow: u16| {
            let mut t = 0u64;
            gaps.iter()
                .enumerate()
                .map(|(i, &g)| {
                    t += g;
                    PacketArrival { time: Time::from_micros(t), bytes: i as u32, flow }
                })
                .collect::<Vec<_>>()
        };
        let mut traces = vec![mk(&a_gaps, 1), mk(&b_gaps, 2)];
        traces.insert(empty_at, Vec::new());
        let mut expected = traces.concat();
        expected.sort_by_key(|p| p.time);
        let sources = traces
            .into_iter()
            .map(|t| Box::new(TraceSource::new(t)) as Box<dyn Source>)
            .collect();
        let mut merged = MergeSource::new(sources);
        let mut rng = SimRng::new(1);
        // One pull past the end must find the merge spent.
        let got: Vec<PacketArrival> = std::iter::from_fn(|| merged.next_packet(&mut rng))
            .take(expected.len() + 1)
            .collect();
        prop_assert_eq!(got, expected);
    }
}

// MAC invariants need bigger machinery; keep the case count small.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mac_records_well_ordered(seed in any::<u64>(), n in 2usize..60, bytes in 40u32..1500) {
        let mut sim = WlanSim::new(Phy::dsss_11mbps(), seed);
        let a = sim.add_station(saturated_source(bytes, n));
        let b = sim.add_station(saturated_source(1500, n));
        let out = sim.run(Time::MAX);
        for id in [a, b] {
            let recs = out.records(id);
            prop_assert_eq!(recs.len(), n);
            let mut prev_done = Time::ZERO;
            for r in recs {
                // Temporal sanity per packet.
                prop_assert!(r.head >= r.arrival);
                prop_assert!(r.rx_end > r.head);
                prop_assert!(r.done > r.rx_end);
                // FIFO: completions ordered.
                prop_assert!(r.done > prev_done);
                prev_done = r.done;
                // Access delay at least DIFS + airtime.
                let phy = Phy::dsss_11mbps();
                let min_delay = phy.difs() + phy.success_exchange(r.bytes);
                prop_assert!(r.access_delay() >= min_delay);
            }
        }
    }

    #[test]
    fn mac_channel_never_double_booked(seed in any::<u64>()) {
        let mut sim = WlanSim::new(Phy::dsss_11mbps(), seed);
        let a = sim.add_station(saturated_source(1500, 40));
        let b = sim.add_station(saturated_source(800, 40));
        let out = sim.run(Time::MAX);
        // Successful data frames must not overlap in airtime.
        let phy = Phy::dsss_11mbps();
        let mut frames: Vec<(Time, Time)> = Vec::new();
        for id in [a, b] {
            for r in out.records(id) {
                if !r.dropped && r.retries == 0 {
                    let start = r.rx_end - phy.data_airtime(r.bytes);
                    frames.push((start, r.done));
                }
            }
        }
        frames.sort();
        for w in frames.windows(2) {
            prop_assert!(w[1].0 >= w[0].1, "overlap: {:?} then {:?}", w[0], w[1]);
        }
    }
}
