//! Exact validation of the §5 sample-path framework on a FIFO sample
//! path: the intrusion-residual recursion (eq 14), the delay
//! decomposition (eq 15) and the output-gap identities (eqs 16–18)
//! must hold *exactly* (integer-nanosecond arithmetic) on real queue
//! sample paths, not just on synthetic series.

use csmaprobe::core::sample_path::{
    intrusion_residuals, output_gap, output_gap_decomposed, output_gap_from_delays, total_delays,
};
use csmaprobe::desim::rng::SimRng;
use csmaprobe::desim::time::{Dur, Time};
use csmaprobe::queueing::fifo::{fifo_serve, Job, Served};
use csmaprobe::traffic::{PoissonSource, SizeModel, Source};

/// A probe train and Poisson cross-traffic served through one FIFO
/// queue.
struct Scenario {
    /// Every job in arrival order, probes first on equal arrivals.
    jobs: Vec<Job>,
    /// Whether each job of `jobs` is a probe packet.
    is_probe: Vec<bool>,
    /// The FIFO schedule of `jobs`.
    served: Vec<Served>,
}

fn build(probe_n: usize, g_i: Dur, probe_service: Dur, cross_bps: f64, seed: u64) -> Scenario {
    let start = Time::from_millis(200);
    let mut tagged: Vec<(Job, bool)> = (0..probe_n)
        .map(|i| {
            let arrival = start + g_i * i as u64;
            let probe = Job {
                arrival,
                service: probe_service,
            };
            (probe, true)
        })
        .collect();
    let horizon = start + g_i * probe_n as u64 + Dur::from_secs(2);
    let mut rng = SimRng::new(seed);
    let mut src =
        PoissonSource::from_bitrate(cross_bps, SizeModel::Fixed(1500), Time::ZERO, horizon);
    while let Some(p) = src.next_packet(&mut rng) {
        // Cross packets take a size-proportional wire time at 10 Mb/s.
        let cross = Job {
            arrival: p.time,
            service: Dur::from_secs_f64(p.bytes as f64 * 8.0 / 10e6),
        };
        tagged.push((cross, false));
    }
    // A stable sort keeps each flow's order and puts probes first on ties.
    tagged.sort_by_key(|&(job, is_probe)| (job.arrival, !is_probe));
    let (jobs, is_probe): (Vec<Job>, Vec<bool>) = tagged.into_iter().unzip();
    let served = fifo_serve(&jobs);
    Scenario {
        jobs,
        is_probe,
        served,
    }
}

impl Scenario {
    /// Probe indices into the merged arrays.
    fn probe_idx(&self) -> Vec<usize> {
        (0..self.jobs.len()).filter(|&i| self.is_probe[i]).collect()
    }

    /// Actual probe-work residual `R_i` at each probe arrival: the
    /// remaining service of earlier probe packets still in the system.
    fn actual_residuals(&self) -> Vec<f64> {
        let idx = self.probe_idx();
        idx.iter()
            .map(|&i| {
                let a_i = self.jobs[i].arrival;
                let mut ns: u64 = 0;
                for served in idx.iter().take_while(|&&j| j < i).map(|&j| &self.served[j]) {
                    if served.depart > a_i {
                        // Remaining service: full if not started, else
                        // the part after a_i.
                        let rem_start = served.start.max(a_i);
                        ns += (served.depart - rem_start).as_nanos();
                    }
                }
                ns as f64 / 1e9
            })
            .collect()
    }

    /// Schedules of the cross-traffic jobs.
    fn cross_served(&self) -> impl Iterator<Item = &Served> {
        self.served
            .iter()
            .zip(&self.is_probe)
            .filter(|&(_, &is_probe)| !is_probe)
            .map(|(served, _)| served)
    }

    /// Cross-traffic busy time of the server within `(from, to]`,
    /// as a fraction of the window.
    fn cross_utilisation(&self, from: Time, to: Time) -> f64 {
        let mut ns = 0u64;
        for served in self.cross_served() {
            if served.depart <= from || served.start >= to {
                continue;
            }
            let s = served.start.max(from);
            let e = served.depart.min(to);
            ns += (e - s).as_nanos();
        }
        ns as f64 / (to - from).as_nanos() as f64
    }

    /// Cross-traffic workload (remaining cross service) at `t⁻`.
    fn cross_workload_at(&self, t: Time) -> f64 {
        let mut ns = 0u64;
        for served in self.cross_served().filter(|s| s.arrival < t) {
            if served.depart > t {
                let rem_start = served.start.max(t);
                ns += (served.depart - rem_start).as_nanos();
            }
        }
        ns as f64 / 1e9
    }
}

/// Eqs (14) and (15) per probe packet, then the output gap of eqs
/// (16), (17) and (18), on one sample path.
fn validate_eq14_and_eq15(probe_n: usize, g_i_us: u64, service_us: u64, cross_bps: f64, seed: u64) {
    let g_i = Dur::from_micros(g_i_us);
    let service = Dur::from_micros(service_us);
    let sc = build(probe_n, g_i, service, cross_bps, seed);
    let idx = sc.probe_idx();
    assert_eq!(idx.len(), probe_n);

    // μ_i: the probe service times (constant here); the "access delay"
    // of the wired framework is pure service.
    let mu = vec![service.as_secs_f64(); probe_n];

    // Per-gap cross utilisation u_fifo(a_{i}, a_{i+1}).
    let u: Vec<f64> = (1..probe_n)
        .map(|k| {
            let from = sc.jobs[idx[k - 1]].arrival;
            let to = sc.jobs[idx[k]].arrival;
            sc.cross_utilisation(from, to)
        })
        .collect();

    // eq (14) must match the actual probe-work residual exactly.
    let predicted = intrusion_residuals(g_i.as_secs_f64(), &mu, &u);
    let actual = sc.actual_residuals();
    for (k, (p, a)) in predicted.iter().zip(&actual).enumerate() {
        assert!(
            (p - a).abs() < 1e-9,
            "R_{k}: eq(14) {p:.9} vs actual {a:.9} (gI={g_i_us}us cross={cross_bps})"
        );
    }

    // eq (15): Z_i = μ_i + R_i + W(a_i) must equal the measured sojourn.
    let w: Vec<f64> = idx
        .iter()
        .map(|&i| sc.cross_workload_at(sc.jobs[i].arrival))
        .collect();
    let z = total_delays(&mu, &predicted, &w);
    let sojourns: Vec<f64> = idx
        .iter()
        .map(|&i| sc.served[i].sojourn().as_secs_f64())
        .collect();
    for (k, (z_k, sojourn)) in z.iter().zip(&sojourns).enumerate() {
        assert!(
            (z_k - sojourn).abs() < 1e-9,
            "Z_{k}: eq(15) {z_k:.9} vs measured {sojourn:.9}"
        );
    }

    // eq (16) from the departures must equal eq (17) from the sojourns
    // and eq (18) from R_n, W(a_1), W(a_n), μ_1 and μ_n.
    let departures: Vec<f64> = idx
        .iter()
        .map(|&i| sc.served[i].depart.as_secs_f64())
        .collect();
    let g_o = output_gap(&departures);
    let g_o_delays = output_gap_from_delays(g_i.as_secs_f64(), &sojourns);
    let last = probe_n - 1;
    let g_o_decomposed = output_gap_decomposed(
        g_i.as_secs_f64(),
        predicted[last],
        w[0],
        w[last],
        mu[0],
        mu[last],
        probe_n,
    );
    assert!(
        (g_o - g_o_delays).abs() < 1e-9,
        "gO: eq(16) {g_o:.9} vs eq(17) {g_o_delays:.9}"
    );
    assert!(
        (g_o - g_o_decomposed).abs() < 1e-9,
        "gO: eq(16) {g_o:.9} vs eq(18) {g_o_decomposed:.9}"
    );
}

#[test]
fn eq14_eq15_exact_without_cross_traffic() {
    // Fast probing, no cross: residuals accumulate deterministically.
    validate_eq14_and_eq15(50, 800, 1200, 0.0, 1);
    // Slow probing, no cross: residuals all zero.
    validate_eq14_and_eq15(50, 5_000, 1200, 0.0, 2);
}

#[test]
fn eq14_eq15_exact_with_light_cross_traffic() {
    validate_eq14_and_eq15(80, 2_000, 1200, 2e6, 3);
}

#[test]
fn eq14_eq15_exact_with_heavy_cross_traffic() {
    // ρ_cross = 0.6 plus probe work: queue rarely empties.
    validate_eq14_and_eq15(80, 2_000, 1200, 6e6, 4);
    validate_eq14_and_eq15(120, 1_400, 1000, 7e6, 5);
}

#[test]
fn eq14_eq15_exact_at_probe_saturation() {
    // gI < μ: the probe alone overloads the hop.
    validate_eq14_and_eq15(60, 900, 1500, 3e6, 6);
}
