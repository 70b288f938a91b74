//! Runnable link models (the paper's Fig 2/3 scenario) and the common
//! probing interface the measurement tools consume.
//!
//! [`WlanLink`] is the full model of Fig 3: the probe flow enters a
//! station's FIFO transmission queue — optionally shared with **FIFO
//! cross-traffic** — and the station contends for channel access
//! against **contending cross-traffic** stations under DCF. The link
//! owns warm-up handling: contending/FIFO cross-traffic starts at t=0
//! and probing begins only after `warmup`, so the probe interacts with
//! cross-traffic that has already reached its stationary regime (§4:
//! "the transient-state is present whenever the system is not empty,
//! nor in backlog when the probing flow starts").
//!
//! [`WiredLink`] is the classic single-FIFO constant-capacity path of
//! the wired literature — the baseline every comparison in §2/§7 is
//! made against.
//!
//! Both implement [`ProbeTarget`], so every tool in `csmaprobe-probe`
//! runs unchanged against either link type — exactly the paper's
//! "traditional tools are run unchanged over wireless links" setting.

use crate::engine::{self, EngineTier};
use csmaprobe_desim::rng::{derive_seed, SimRng};
use csmaprobe_desim::time::{Dur, Time};
use csmaprobe_mac::options::MacOptions;
use csmaprobe_mac::sim::{PacketRecord, SimOutput, StationId, WlanSim};
use csmaprobe_mac::{BianchiModel, NonSatModel};
use csmaprobe_phy::Phy;
use csmaprobe_queueing::fifo::{probe_departures, Job};
use csmaprobe_traffic::probe::ProbeTrain;
use csmaprobe_traffic::{CbrSource, MergeSource, PoissonSource, SizeModel, Source, TraceSource};

/// Flow tag of probe packets inside the probe station's queue.
pub const FLOW_PROBE: u16 = 1;
/// Flow tag of FIFO cross-traffic packets sharing the probe queue.
pub const FLOW_FIFO_CROSS: u16 = 2;

/// Largest bits/s value a link or probe spec from outside the program
/// may ask for (10 Gb/s). Poisson cross-traffic draws whole-nanosecond
/// gaps: far above this bound the mean gap rounds to 0 ns, simulated
/// time stops, and the run never ends while its queue grows. A
/// 1e10 b/s contender costs tens of milliseconds per replication.
pub const MAX_INLINE_BPS: f64 = 1e10;

/// Smallest [`WiredLink`] capacity a spec from outside the program may
/// ask for (1 kb/s). Far below it a frame's service time overflows the
/// nanosecond clock, and departure sums wrap.
pub const MIN_WIRED_CAPACITY_BPS: f64 = 1e3;

/// Most packets a spec from outside the program may put in one probe
/// train: ten times the paper's longest trains of 1000 packets. Every
/// run materialises its train, so an unbounded count allocates until
/// the process aborts.
pub const MAX_TRAIN_PACKETS: usize = 10_000;

/// Arrival-process shape of a cross-traffic flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrossShape {
    /// Poisson arrivals (the paper's setting).
    Poisson,
    /// Periodic (CBR) arrivals.
    Cbr,
    /// Exponential on/off bursts with the given duty cycle (the source
    /// transmits at `rate/duty` while ON; mean burst ≈ 10 ms).
    ExpOnOff {
        /// Fraction of time spent in ON periods, in (0, 1).
        duty: f64,
    },
    /// Pareto on/off bursts (heavy-tailed ON durations, shape `alpha`),
    /// same duty-cycle convention — the §6.3 "bursty cross-traffic".
    ParetoOnOff {
        /// Pareto shape of ON durations (> 1).
        alpha: f64,
        /// Fraction of time spent in ON periods, in (0, 1).
        duty: f64,
    },
}

/// One cross-traffic flow specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossSpec {
    /// Offered (long-run mean) rate, bits/s of payload.
    pub rate_bps: f64,
    /// Payload size per packet, bytes.
    pub bytes: u32,
    /// Arrival-process shape.
    pub shape: CrossShape,
}

impl CrossSpec {
    /// Poisson cross-traffic at `rate_bps` with 1500-byte packets.
    pub fn poisson(rate_bps: f64) -> Self {
        CrossSpec {
            rate_bps,
            bytes: 1500,
            shape: CrossShape::Poisson,
        }
    }

    /// Poisson cross-traffic with an explicit packet size.
    pub fn poisson_sized(rate_bps: f64, bytes: u32) -> Self {
        CrossSpec {
            rate_bps,
            bytes,
            shape: CrossShape::Poisson,
        }
    }

    /// Cross-traffic with the given shape (1500-byte packets).
    pub fn shaped(rate_bps: f64, shape: CrossShape) -> Self {
        CrossSpec {
            rate_bps,
            bytes: 1500,
            shape,
        }
    }

    fn build(&self, start: Time, until: Time, flow: u16) -> Box<dyn Source> {
        use csmaprobe_traffic::{OnOffSource, OnPeriod};
        let sizes = SizeModel::Fixed(self.bytes);
        // Mean burst length shared by both on/off shapes.
        const MEAN_ON: Dur = Dur(10_000_000); // 10 ms
        match self.shape {
            CrossShape::Poisson => Box::new(
                PoissonSource::from_bitrate(self.rate_bps, sizes, start, until).with_flow(flow),
            ),
            CrossShape::Cbr => Box::new(
                CbrSource::from_bitrate(self.rate_bps, sizes, start, until).with_flow(flow),
            ),
            CrossShape::ExpOnOff { duty } => {
                assert!(duty > 0.0 && duty < 1.0, "duty {duty} out of (0,1)");
                let peak = self.rate_bps / duty;
                let mean_off = Dur::from_secs_f64(MEAN_ON.as_secs_f64() * (1.0 - duty) / duty);
                let on = OnPeriod::Exp { mean: MEAN_ON };
                Box::new(OnOffSource::new(peak, on, mean_off, sizes, start, until).with_flow(flow))
            }
            CrossShape::ParetoOnOff { alpha, duty } => {
                assert!(duty > 0.0 && duty < 1.0, "duty {duty} out of (0,1)");
                let peak = self.rate_bps / duty;
                let min = Dur::from_secs_f64(MEAN_ON.as_secs_f64() * (alpha - 1.0) / alpha);
                let mean_off = Dur::from_secs_f64(MEAN_ON.as_secs_f64() * (1.0 - duty) / duty);
                let on = OnPeriod::Pareto { alpha, min };
                Box::new(OnOffSource::new(peak, on, mean_off, sizes, start, until).with_flow(flow))
            }
        }
    }
}

/// Configuration of a [`WlanLink`].
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// PHY/MAC timing (defaults to the paper's 11 Mb/s 802.11b).
    pub phy: Phy,
    /// Payload size of probe packets, bytes.
    pub probe_bytes: u32,
    /// Contending cross-traffic: one DCF station per entry.
    pub contending: Vec<CrossSpec>,
    /// FIFO cross-traffic sharing the probe station's queue.
    pub fifo_cross: Option<CrossSpec>,
    /// Cross-traffic warm-up before probing begins.
    pub warmup: Dur,
    /// MAC behaviour switches (paper defaults; see
    /// [`csmaprobe_mac::MacOptions`] for ablations/extensions).
    pub mac: MacOptions,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            phy: Phy::dsss_11mbps(),
            probe_bytes: 1500,
            contending: Vec::new(),
            fifo_cross: None,
            warmup: Dur::from_millis(500),
            mac: MacOptions::default(),
        }
    }
}

impl LinkConfig {
    /// Add one contending station offering Poisson traffic at
    /// `rate_bps` (1500-byte packets).
    pub fn contending_bps(mut self, rate_bps: f64) -> Self {
        self.contending.push(CrossSpec::poisson(rate_bps));
        self
    }

    /// Add one contending station with an explicit spec.
    pub fn contending(mut self, spec: CrossSpec) -> Self {
        self.contending.push(spec);
        self
    }

    /// Set FIFO cross-traffic (Poisson, 1500-byte) sharing the probe
    /// station's transmission queue.
    pub fn fifo_cross_bps(mut self, rate_bps: f64) -> Self {
        self.fifo_cross = Some(CrossSpec::poisson(rate_bps));
        self
    }

    /// Set the FIFO cross-traffic spec.
    pub fn fifo_cross(mut self, spec: CrossSpec) -> Self {
        self.fifo_cross = Some(spec);
        self
    }

    /// Set the probe payload size.
    pub fn probe_bytes(mut self, bytes: u32) -> Self {
        self.probe_bytes = bytes;
        self
    }

    /// Set the PHY.
    pub fn phy(mut self, phy: Phy) -> Self {
        self.phy = phy;
        self
    }

    /// Set the MAC behaviour options.
    pub fn mac_options(mut self, mac: MacOptions) -> Self {
        self.mac = mac;
        self
    }
}

/// What one probing train observed on a link — the common currency of
/// all measurement tools.
#[derive(Debug, Clone)]
pub struct TrainObservation {
    /// Queue-entry instants `a_i` of the delivered probe packets.
    pub arrivals: Vec<Time>,
    /// Receiver-side timestamps `d_i` (data-frame end on WLAN; wire
    /// departure on a FIFO link).
    pub rx_times: Vec<Time>,
    /// Access delays μ_i in seconds (WLAN links only).
    pub access_delays: Option<Vec<f64>>,
    /// The input gap the train was sent with.
    pub g_i: Dur,
    /// Probe payload bytes.
    pub bytes: u32,
}

impl TrainObservation {
    /// Eq. (16): output gap `gO = (d_n − d_1)/(n−1)` in seconds.
    /// `None` with fewer than two deliveries.
    pub fn output_gap_s(&self) -> Option<f64> {
        if self.rx_times.len() < 2 {
            return None;
        }
        let n = self.rx_times.len() as f64;
        Some((*self.rx_times.last().unwrap() - self.rx_times[0]).as_secs_f64() / (n - 1.0))
    }

    /// Receiver inter-arrival gaps (length n−1), in seconds — the raw
    /// series MSER-based correction operates on.
    pub fn receiver_gaps_s(&self) -> Vec<f64> {
        self.rx_times
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect()
    }

    /// Dispersion-inferred output rate `L/gO` in bits/s.
    pub fn output_rate_bps(&self) -> Option<f64> {
        self.output_gap_s().map(|g| self.bytes as f64 * 8.0 / g)
    }
}

/// Anything a probing tool can send trains through.
pub trait ProbeTarget: Sync {
    /// Send one probing train (one replication); `seed` controls all
    /// randomness of this replication.
    fn probe_train(&self, train: ProbeTrain, seed: u64) -> TrainObservation;

    /// Send the same probing train once per seed, returned in seed
    /// order: element `k` is `probe_train(train, seeds[k])`.
    ///
    /// Retired: nothing in the program calls this any more (every
    /// replication runs one [`ProbeTarget::probe_train`]); it stays only
    /// because the benchmark's per-layer replay forwards it, and is to
    /// be deleted with the next benchmark revision.
    fn probe_train_batch(&self, train: ProbeTrain, seeds: &[u64]) -> Vec<TrainObservation> {
        seeds.iter().map(|&s| self.probe_train(train, s)).collect()
    }

    /// Send an arbitrary probing sequence: packets of `bytes` payload
    /// offered at the given offsets **relative to the link's warm-up
    /// instant** (offset 0 = the moment probing may start). Needed by
    /// tools with non-uniform spacing (chirps). Offsets must be
    /// non-decreasing.
    fn probe_sequence(&self, offsets: &[Dur], bytes: u32, seed: u64) -> TrainObservation;

    /// The probe payload size this target is configured for.
    fn probe_bytes(&self) -> u32;
}

/// One steady-state operating point of a link (long-flow measurement).
#[derive(Debug, Clone)]
pub struct SteadyPoint {
    /// Probe input rate, bits/s.
    pub input_rate_bps: f64,
    /// Probe output (delivered) rate, bits/s.
    pub output_rate_bps: f64,
    /// Delivered rate of each contending station, bits/s.
    pub contending_bps: Vec<f64>,
    /// Delivered rate of the FIFO cross-traffic, bits/s.
    pub fifo_cross_bps: f64,
}

/// The paper's WLAN link (Fig 3): probe + optional FIFO cross-traffic
/// in one station's queue, contending stations on the same channel.
#[derive(Debug, Clone)]
pub struct WlanLink {
    cfg: LinkConfig,
}

/// Result of sending one probe train over a [`WlanLink`], with access
/// to the full simulation output.
pub struct WlanTrainRun {
    /// Probe-flow packet records, in order.
    pub probe: Vec<PacketRecord>,
    /// The full simulation output (cross stations, queue lengths, …).
    pub output: SimOutput,
    /// The probe station id.
    pub probe_station: StationId,
    /// Contending station ids, in config order.
    pub contending: Vec<StationId>,
}

/// A probe sequence's simulation output, its probe station and its
/// contending stations in config order.
pub(crate) type SimulatedRun = (SimOutput, StationId, Vec<StationId>);

impl WlanTrainRun {
    /// Copy the probe records out of a simulated run.
    fn new((output, probe_station, contending): SimulatedRun) -> Self {
        WlanTrainRun {
            probe: output.flow_records(probe_station, FLOW_PROBE),
            output,
            probe_station,
            contending,
        }
    }

    /// Return the underlying simulation buffers to the worker's
    /// allocation pool (see [`csmaprobe_mac::sim::SimOutput::recycle`]).
    /// Call once everything needed has been extracted — replication
    /// loops that recycle avoid reallocating queues and record vectors
    /// on every run.
    pub fn recycle(self) {
        self.output.recycle();
    }
}

impl WlanLink {
    /// Create a link from its configuration.
    pub fn new(cfg: LinkConfig) -> Self {
        WlanLink { cfg }
    }

    /// The configuration this link runs.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Send one probe train (full-detail variant). The train starts at
    /// `warmup`; cross-traffic runs from t = 0 until well past the
    /// train's worst-case completion.
    pub fn send_train(&self, train: ProbeTrain, seed: u64) -> WlanTrainRun {
        WlanTrainRun::new(self.simulate_train(train, seed))
    }

    /// [`WlanLink::send_train`] without copying out the probe records:
    /// the simulation output, the probe station and the contending
    /// stations in config order.
    pub(crate) fn simulate_train(&self, train: ProbeTrain, seed: u64) -> SimulatedRun {
        let train = ProbeTrain {
            flow: FLOW_PROBE,
            ..train
        };
        let start = Time::ZERO + self.cfg.warmup;
        self.simulate_arrivals(train.arrivals(start), seed)
    }

    /// Simulate an explicit probe arrival sequence (flow tags are
    /// overwritten with the probe tag); returns what
    /// [`WlanLink::simulate_train`] does.
    fn simulate_arrivals(
        &self,
        mut probe_arrivals: Vec<csmaprobe_traffic::PacketArrival>,
        seed: u64,
    ) -> SimulatedRun {
        for p in &mut probe_arrivals {
            p.flow = FLOW_PROBE;
        }
        let n = probe_arrivals.len();
        let last = probe_arrivals.last().map(|p| p.time).unwrap_or(Time::ZERO);
        // Generous completion budget: sequence span + 20 ms per packet
        // (a DCF exchange is ~2 ms even under heavy contention).
        let horizon = last + Dur::from_millis(20) * n as u64 + Dur::from_millis(100);

        let mut sim = WlanSim::new(self.cfg.phy.clone(), seed).with_options(self.cfg.mac);
        let probe_src: Box<dyn Source> = match &self.cfg.fifo_cross {
            None => Box::new(TraceSource::new(probe_arrivals)),
            Some(spec) => Box::new(MergeSource::new(vec![
                Box::new(TraceSource::new(probe_arrivals)),
                spec.build(Time::ZERO, horizon, FLOW_FIFO_CROSS),
            ])),
        };
        let probe_station = sim.add_station(probe_src);
        let contending: Vec<StationId> = self
            .cfg
            .contending
            .iter()
            .map(|spec| sim.add_station(spec.build(Time::ZERO, horizon, 0)))
            .collect();
        // The horizon is a worst-case budget; stop as soon as the whole
        // probe sequence has completed instead of simulating the dead
        // cross-traffic-only tail (identical records, big CPU saving).
        sim.stop_after_flow(probe_station, FLOW_PROBE, n);

        (sim.run(horizon), probe_station, contending)
    }

    /// Measure one steady-state operating point: a long CBR probe flow
    /// at `ri_bps` for `duration` (after warm-up), reporting delivered
    /// rates of every flow over the second half of the measurement
    /// window (the first half absorbs the probe's own transient).
    ///
    /// Routed through the [`crate::engine`] tier selector: cells an
    /// analytic model certifies get its point, every other cell runs
    /// the simulator.
    pub fn steady_state(&self, ri_bps: f64, duration: Dur, seed: u64) -> SteadyPoint {
        match engine::steady_tier(&self.cfg, ri_bps) {
            EngineTier::Analytic => self.steady_state_analytic(ri_bps),
            _ => self.steady_state_event(ri_bps, duration, seed),
        }
    }

    /// Simulated steady-state measurement.
    pub fn steady_state_event(&self, ri_bps: f64, duration: Dur, seed: u64) -> SteadyPoint {
        let start = Time::ZERO + self.cfg.warmup;
        let end = start + duration;
        let mut sim = WlanSim::new(self.cfg.phy.clone(), seed).with_options(self.cfg.mac);

        let probe_cbr: Box<dyn Source> = Box::new(
            CbrSource::from_bitrate(ri_bps, SizeModel::Fixed(self.cfg.probe_bytes), start, end)
                .with_flow(FLOW_PROBE),
        );
        let probe_src: Box<dyn Source> = match &self.cfg.fifo_cross {
            None => probe_cbr,
            Some(spec) => Box::new(MergeSource::new(vec![
                probe_cbr,
                spec.build(Time::ZERO, end, FLOW_FIFO_CROSS),
            ])),
        };
        let probe_station = sim.add_station(probe_src);
        let contending: Vec<StationId> = self
            .cfg
            .contending
            .iter()
            .map(|spec| sim.add_station(spec.build(Time::ZERO, end, 0)))
            .collect();

        let output = sim.run(end + Dur::from_secs(2));
        let mid = start + duration / 2;
        let window = |records: &[PacketRecord]| {
            let bits: u64 = records
                .iter()
                .filter(|r| !r.dropped && r.rx_end > mid && r.rx_end <= end)
                .map(|r| r.bytes as u64 * 8)
                .sum();
            bits as f64 / (end - mid).as_secs_f64()
        };
        let probe_recs = output.flow_records(probe_station, FLOW_PROBE);
        let fifo_recs = output.flow_records(probe_station, FLOW_FIFO_CROSS);
        SteadyPoint {
            input_rate_bps: ri_bps,
            output_rate_bps: window(&probe_recs),
            contending_bps: contending
                .iter()
                .map(|&st| window(output.records(st)))
                .collect(),
            fifo_cross_bps: window(&fifo_recs),
        }
    }

    /// Analytic-tier steady-state point. Fully saturated symmetric
    /// cells get the Bianchi fair share; certified Poisson finite-load
    /// cells get the non-saturated fixed point's per-station delivered
    /// rates. Only called when [`crate::engine::analytic_covers`]
    /// holds; accuracy is pinned against the event sim in
    /// `crates/mac/tests/bianchi_oracle.rs` and
    /// `crates/mac/tests/bianchi_nonsat_oracle.rs` (±5 %).
    pub fn steady_state_analytic(&self, ri_bps: f64) -> SteadyPoint {
        debug_assert!(engine::analytic_covers(&self.cfg, ri_bps));
        if engine::saturation_covers(&self.cfg, ri_bps) {
            let n = self.cfg.contending.len() + 1;
            let model = BianchiModel::solve(&self.cfg.phy, n, self.cfg.probe_bytes);
            return SteadyPoint {
                input_rate_bps: ri_bps,
                output_rate_bps: model.fair_share_bps,
                contending_bps: vec![model.fair_share_bps; n - 1],
                fifo_cross_bps: 0.0,
            };
        }
        let model = NonSatModel::solve(&self.cfg.phy, &engine::nonsat_stations(&self.cfg, ri_bps))
            .expect("nonsat_certified gated this cell on convergence");
        SteadyPoint {
            input_rate_bps: ri_bps,
            output_rate_bps: model.per_station[0].throughput_bps,
            contending_bps: model.per_station[1..]
                .iter()
                .map(|s| s.throughput_bps)
                .collect(),
            fifo_cross_bps: 0.0,
        }
    }

    /// Sweep input rates and produce the steady-state rate-response
    /// curve (Figs 1/4), one [`SteadyPoint`] per rate.
    ///
    /// Runs as a [`crate::sweep::RateResponseSweep`] through the sweep
    /// engine: rate points are scheduled concurrently over the shared
    /// work-stealing executor, with the exact per-point seeds (and therefore
    /// bit-identical points) of the historical sequential loop.
    pub fn rate_response_curve(
        &self,
        rates_bps: &[f64],
        duration: Dur,
        seed: u64,
    ) -> Vec<SteadyPoint> {
        crate::sweep::run_sweep(&crate::sweep::RateResponseSweep {
            link: self.clone(),
            rates_bps: rates_bps.to_vec(),
            duration,
            seed,
        })
    }
}

/// The tool observation of one simulated probe sequence, built in one
/// pass over the probe flow's records; the simulation buffers then go
/// back to the worker's allocation pool.
fn observe((output, probe_station, _): SimulatedRun, g_i: Dur, bytes: u32) -> TrainObservation {
    let records = output.records(probe_station);
    let mut arrivals = Vec::with_capacity(records.len());
    let mut rx_times = Vec::with_capacity(records.len());
    let mut access_delays = Vec::with_capacity(records.len());
    for r in records.iter().filter(|r| r.flow == FLOW_PROBE) {
        arrivals.push(r.arrival);
        rx_times.push(r.rx_end);
        access_delays.push(r.access_delay().as_secs_f64());
    }
    output.recycle();
    TrainObservation {
        arrivals,
        rx_times,
        access_delays: Some(access_delays),
        g_i,
        bytes,
    }
}

impl ProbeTarget for WlanLink {
    fn probe_train(&self, train: ProbeTrain, seed: u64) -> TrainObservation {
        observe(self.simulate_train(train, seed), train.gap, train.bytes)
    }

    fn probe_sequence(&self, offsets: &[Dur], bytes: u32, seed: u64) -> TrainObservation {
        let start = Time::ZERO + self.cfg.warmup;
        let arrivals: Vec<csmaprobe_traffic::PacketArrival> = offsets
            .iter()
            .map(|&o| csmaprobe_traffic::PacketArrival {
                time: start + o,
                bytes,
                flow: FLOW_PROBE,
            })
            .collect();
        observe(self.simulate_arrivals(arrivals, seed), Dur::ZERO, bytes)
    }

    fn probe_bytes(&self) -> u32 {
        self.cfg.probe_bytes
    }
}

/// The wired baseline: a single FIFO queue served at a constant
/// `capacity_bps`, with Poisson cross-traffic — the system eq (1)
/// describes exactly.
///
/// Each train is served in one pass: cross-traffic arrives from t = 0
/// (so the queue is stationary when probing starts after `warmup`) up
/// to the last probe, since nothing that arrives later can delay a
/// probe. A cross packet that arrives at a probe's instant queues
/// behind that probe. Probe offsets must not decrease: like
/// [`WlanLink`], this link panics with "trace arrivals must be
/// time-ordered" otherwise.
#[derive(Debug, Clone)]
pub struct WiredLink {
    /// Link capacity, bits/s.
    pub capacity_bps: f64,
    /// Poisson cross-traffic rate, bits/s.
    pub cross_rate_bps: f64,
    /// Cross-traffic packet size, bytes.
    pub cross_bytes: u32,
    /// Probe payload size, bytes.
    pub probe_bytes: u32,
    /// Cross-traffic warm-up before probing begins.
    pub warmup: Dur,
}

impl WiredLink {
    /// A wired link with the given capacity and Poisson cross-traffic
    /// (1500-byte packets, 0.5 s warm-up).
    pub fn new(capacity_bps: f64, cross_rate_bps: f64) -> Self {
        WiredLink {
            capacity_bps,
            cross_rate_bps,
            cross_bytes: 1500,
            probe_bytes: 1500,
            warmup: Dur::from_millis(500),
        }
    }

    /// The available bandwidth `A = C − cross rate`.
    pub fn available_bps(&self) -> f64 {
        (self.capacity_bps - self.cross_rate_bps).max(0.0)
    }

    fn service_time(&self, bytes: u32) -> Dur {
        Dur::from_secs_f64(bytes as f64 * 8.0 / self.capacity_bps)
    }

    fn run_sequence(
        &self,
        arrivals: Vec<Time>,
        seed: u64,
        g_i: Dur,
        bytes: u32,
    ) -> TrainObservation {
        let last = arrivals.last().copied().unwrap_or(Time::ZERO);
        let mut rng = SimRng::new(derive_seed(seed, 0x51ED));
        let mut cross = PoissonSource::from_bitrate(
            self.cross_rate_bps,
            SizeModel::Fixed(self.cross_bytes),
            Time::ZERO,
            last,
        );
        let cross_service = self.service_time(self.cross_bytes);
        let cross_jobs = std::iter::from_fn(|| {
            cross.next_packet(&mut rng).map(|p| Job {
                arrival: p.time,
                service: cross_service,
            })
        });
        let rx_times = probe_departures(&arrivals, self.service_time(bytes), cross_jobs);
        TrainObservation {
            arrivals,
            rx_times,
            access_delays: None,
            g_i,
            bytes,
        }
    }
}

impl ProbeTarget for WiredLink {
    fn probe_train(&self, train: ProbeTrain, seed: u64) -> TrainObservation {
        let start = Time::ZERO + self.warmup;
        let arrivals = (0..train.n).map(|i| start + train.gap * i as u64).collect();
        self.run_sequence(arrivals, seed, train.gap, train.bytes)
    }

    fn probe_sequence(&self, offsets: &[Dur], bytes: u32, seed: u64) -> TrainObservation {
        let start = Time::ZERO + self.warmup;
        let arrivals = offsets.iter().map(|&o| start + o).collect();
        self.run_sequence(arrivals, seed, Dur::ZERO, bytes)
    }

    fn probe_bytes(&self) -> u32 {
        self.probe_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wlan_link_delivers_whole_train() {
        let link = WlanLink::new(LinkConfig::default().contending_bps(2_000_000.0));
        let train = ProbeTrain::from_rate(50, 1500, 4_000_000.0);
        let run = link.send_train(train, 7);
        assert_eq!(run.probe.len(), 50);
        // Arrivals are the configured periodic sequence.
        for (i, r) in run.probe.iter().enumerate() {
            assert_eq!(
                r.arrival,
                Time::ZERO + link.config().warmup + train.gap * i as u64
            );
        }
        // rx times strictly increasing.
        for w in run.probe.windows(2) {
            assert!(w[1].rx_end > w[0].rx_end);
        }
    }

    #[test]
    fn observation_rates_consistent() {
        let link = WlanLink::new(LinkConfig::default());
        let train = ProbeTrain::from_rate(20, 1500, 3_000_000.0);
        let obs = link.probe_train(train, 3);
        // Without cross-traffic, 3 Mb/s < C so output ≈ input.
        let ro = obs.output_rate_bps().unwrap();
        assert!((ro - 3_000_000.0).abs() / 3e6 < 0.05, "output rate {ro}");
        let gaps = obs.receiver_gaps_s();
        assert_eq!(gaps.len(), 19);
        let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean_gap - obs.output_gap_s().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn steady_state_identity_region() {
        // 1.5 Mb/s against 2 Mb/s contention: well below fair share, so
        // ro = ri.
        let link = WlanLink::new(LinkConfig::default().contending_bps(2_000_000.0));
        let pt = link.steady_state(1_500_000.0, Dur::from_secs(8), 11);
        assert!(
            (pt.output_rate_bps - 1.5e6).abs() / 1.5e6 < 0.05,
            "{}",
            pt.output_rate_bps
        );
        // Cross-traffic unharmed.
        assert!(
            (pt.contending_bps[0] - 2e6).abs() / 2e6 < 0.08,
            "{}",
            pt.contending_bps[0]
        );
    }

    #[test]
    fn steady_state_saturation_region() {
        // Probing far above fair share: output pins at B < C, cross
        // keeps a similar share (fair-share protection).
        let link = WlanLink::new(LinkConfig::default().contending_bps(2_000_000.0));
        let pt = link.steady_state(9_000_000.0, Dur::from_secs(8), 13);
        assert!(
            (2.5e6..4.5e6).contains(&pt.output_rate_bps),
            "B = {}",
            pt.output_rate_bps
        );
    }

    #[test]
    fn fifo_cross_traffic_reduces_probe_share() {
        let plain = WlanLink::new(LinkConfig::default().contending_bps(2_000_000.0));
        let with_fifo = WlanLink::new(
            LinkConfig::default()
                .contending_bps(2_000_000.0)
                .fifo_cross_bps(1_000_000.0),
        );
        let p1 = plain.steady_state(9e6, Dur::from_secs(6), 17);
        let p2 = with_fifo.steady_state(9e6, Dur::from_secs(6), 17);
        assert!(
            p2.output_rate_bps < p1.output_rate_bps,
            "{} !< {}",
            p2.output_rate_bps,
            p1.output_rate_bps
        );
        assert!(p2.fifo_cross_bps > 0.0);
    }

    #[test]
    fn analytic_point_within_documented_band_of_event() {
        // Saturated symmetric cell: the analytic fair share must sit
        // within the ±5 % band documented for the tier.
        let link = WlanLink::new(LinkConfig::default().contending_bps(9e6));
        assert!(crate::engine::analytic_covers(link.config(), 9e6));
        let ev = link.steady_state_event(9e6, Dur::from_secs(8), 21);
        let an = link.steady_state_analytic(9e6);
        let rel = (an.output_rate_bps - ev.output_rate_bps).abs() / ev.output_rate_bps;
        assert!(
            rel < 0.05,
            "analytic {} vs event {} (rel {rel:.3})",
            an.output_rate_bps,
            ev.output_rate_bps
        );
    }

    #[test]
    fn wired_link_matches_fluid_model_below_a() {
        let link = WiredLink::new(10e6, 4e6);
        let train = ProbeTrain::from_rate(100, 1500, 3_000_000.0);
        let obs = link.probe_train(train, 5);
        assert_eq!(obs.rx_times.len(), 100);
        let ro = obs.output_rate_bps().unwrap();
        // Below A = 6 Mb/s: ro ≈ ri.
        assert!((ro - 3e6).abs() / 3e6 < 0.1, "ro = {ro}");
    }

    #[test]
    fn wired_link_saturates_above_a() {
        let link = WiredLink::new(10e6, 4e6);
        // Probing at 9 Mb/s > A=6: eq (1) predicts
        // ro = C*ri/(ri+C-A) = 10*9/(9+10-6) = 6.9 Mb/s.
        let train = ProbeTrain::from_rate(2000, 1500, 9_000_000.0);
        let obs = link.probe_train(train, 9);
        let ro = obs.output_rate_bps().unwrap();
        let predict = crate::rate_response::fifo_rate_response(9e6, 10e6, 6e6);
        assert!(
            (ro - predict).abs() / predict < 0.05,
            "ro {ro} vs fluid {predict}"
        );
    }

    #[test]
    fn wired_access_delays_absent_wlan_present() {
        let wired = WiredLink::new(10e6, 1e6);
        let train = ProbeTrain::from_rate(5, 1500, 1e6);
        assert!(wired.probe_train(train, 1).access_delays.is_none());
        let wlan = WlanLink::new(LinkConfig::default());
        let obs = wlan.probe_train(train, 1);
        assert_eq!(obs.access_delays.unwrap().len(), 5);
    }
}
