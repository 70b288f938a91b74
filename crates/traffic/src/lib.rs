//! # csmaprobe-traffic
//!
//! Traffic generation for the `csmaprobe` workspace — the MGEN
//! replacement from the paper's validation setup (appendix A).
//!
//! A traffic source is anything implementing [`Source`]: a stateful
//! generator that, when pulled, emits the next packet arrival (absolute
//! time + payload size). Sources never look at the channel — they model
//! *offered* load; queueing and medium access happen downstream in the
//! `queueing` and `mac` crates.
//!
//! Provided sources:
//!
//! * [`PoissonSource`] — exponential interarrivals (the paper's
//!   cross-traffic: "the cross-traffic generated follows a Poisson
//!   distribution").
//! * [`CbrSource`] — periodic (constant bit rate) arrivals.
//! * [`OnOffSource`] — on/off bursty traffic with exponential or
//!   Pareto ON periods, for the burstiness discussions of §6.3.
//! * [`TraceSource`] — replay of an explicit arrival list.
//! * [`probe::ProbeTrain`] — the probing sequence of §5.1.2 (n packets
//!   at fixed gap `gI`).
//!
//! Packet sizes come from a [`SizeModel`]: one fixed size per source.

pub mod probe;

use csmaprobe_desim::rng::SimRng;
use csmaprobe_desim::time::{Dur, Time};

/// One offered packet: when it arrives at the transmission queue and
/// how many payload bytes it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketArrival {
    /// Absolute arrival instant at the queue.
    pub time: Time,
    /// Higher-layer payload size in bytes (MAC overhead is added by the
    /// PHY model, not here).
    pub bytes: u32,
    /// Flow tag carried through to measurement records. Needed when two
    /// flows (probe + FIFO cross-traffic) share one transmission queue,
    /// as in the paper's complete link model (Fig 3). Sources emit 0 by
    /// default; use their `with_flow` builders to change it.
    pub flow: u16,
}

impl PacketArrival {
    /// An arrival on the default flow 0.
    pub fn new(time: Time, bytes: u32) -> Self {
        PacketArrival {
            time,
            bytes,
            flow: 0,
        }
    }

    /// Refill this look-ahead slot with `source`'s next arrival; a spent
    /// source sets `time` to [`Time::MAX`] and leaves the rest.
    ///
    /// The fields are copied one at a time on purpose: the callee writes
    /// the returned arrival with 8-, 4- and 2-byte stores, and copying it
    /// whole (as assigning an `Option<PacketArrival>` does) reloads it
    /// with wider loads, which fail store-to-load forwarding on every
    /// arrival. Field-sized loads forward.
    #[inline]
    pub fn pull(&mut self, source: &mut dyn Source, rng: &mut SimRng) {
        match source.next_packet(rng) {
            Some(p) => {
                self.time = p.time;
                self.bytes = p.bytes;
                self.flow = p.flow;
            }
            None => self.time = Time::MAX,
        }
    }
}

/// Merge several sources into one, preserving global time order (ties
/// resolved in favour of the earlier-added source). An arrival at
/// [`Time::MAX`] counts as the end of its source.
///
/// Used to put probe traffic and FIFO cross-traffic into the *same*
/// station transmission queue.
pub struct MergeSource {
    sources: Vec<Box<dyn Source>>,
    /// One look-ahead packet per source, [`Time::MAX`] once that source
    /// is spent. Plain packets rather than `Option`s: the scan reads
    /// the times alone, and a refill stores the fields the source
    /// returned one by one (see [`PacketArrival::pull`]).
    pending: Vec<PacketArrival>,
    primed: bool,
}

impl MergeSource {
    /// Merge the given sources.
    pub fn new(sources: Vec<Box<dyn Source>>) -> Self {
        let n = sources.len();
        MergeSource {
            sources,
            pending: vec![PacketArrival::new(Time::MAX, 0); n],
            primed: false,
        }
    }
}

impl Source for MergeSource {
    fn next_packet(&mut self, rng: &mut SimRng) -> Option<PacketArrival> {
        if !self.primed {
            for (p, s) in self.pending.iter_mut().zip(&mut self.sources) {
                p.pull(s.as_mut(), rng);
            }
            self.primed = true;
        }
        // The earliest pending arrival; strict `<` keeps the
        // earlier-added source on a tie.
        let mut best = usize::MAX;
        let mut best_time = Time::MAX;
        for (i, p) in self.pending.iter().enumerate() {
            if p.time < best_time {
                best_time = p.time;
                best = i;
            }
        }
        if best == usize::MAX {
            return None;
        }
        let out = self.pending[best];
        self.pending[best].pull(self.sources[best].as_mut(), rng);
        Some(out)
    }
}

/// A pull-based traffic generator.
///
/// Implementations are deterministic given the same `rng` stream; all
/// randomness is drawn from the passed-in generator so the caller
/// controls reproducibility.
pub trait Source {
    /// The next packet this source will offer, or `None` if the source
    /// is exhausted. Arrival times must be non-decreasing.
    fn next_packet(&mut self, rng: &mut SimRng) -> Option<PacketArrival>;
}

/// Packet payload size. Every source in the program sends one fixed
/// size.
#[derive(Debug, Clone, PartialEq)]
pub enum SizeModel {
    /// Every packet has the same payload size.
    Fixed(u32),
}

impl SizeModel {
    /// The payload size of the next packet, in bytes.
    #[inline]
    pub fn sample(&self) -> u32 {
        match self {
            SizeModel::Fixed(b) => *b,
        }
    }

    /// The mean payload size of this model, in bytes.
    pub fn mean_bytes(&self) -> f64 {
        match self {
            SizeModel::Fixed(b) => *b as f64,
        }
    }
}

/// Poisson arrivals: i.i.d. exponential interarrival times.
#[derive(Debug, Clone)]
pub struct PoissonSource {
    /// Mean interarrival gap in seconds, `None` for a source that never
    /// emits. Held as the `f64` each draw scales, so a draw makes no
    /// conversion of its own.
    mean_gap_s: Option<f64>,
    sizes: SizeModel,
    next_time: Option<Time>,
    until: Time,
    started: bool,
    flow: u16,
}

impl PoissonSource {
    /// A Poisson source offering `rate_bps` of payload using packets
    /// from `sizes`, active on `[start, until)`.
    ///
    /// The packet rate is `rate_bps / (8 · mean_bytes)`; a zero or
    /// negative rate yields a source that never emits.
    pub fn from_bitrate(rate_bps: f64, sizes: SizeModel, start: Time, until: Time) -> Self {
        let pps = rate_bps / (8.0 * sizes.mean_bytes());
        Self::from_packet_rate(pps, sizes, start, until)
    }

    /// A Poisson source emitting `pps` packets per second on
    /// `[start, until)`.
    pub fn from_packet_rate(pps: f64, sizes: SizeModel, start: Time, until: Time) -> Self {
        let mean_gap = if pps > 0.0 {
            Dur::from_secs_f64(1.0 / pps)
        } else {
            Dur::MAX
        };
        // A zero rate, or one so small its gap saturates the clock,
        // never emits.
        let mean_gap_s = (mean_gap != Dur::MAX).then(|| mean_gap.as_secs_f64());
        PoissonSource {
            mean_gap_s,
            sizes,
            next_time: Some(start),
            until,
            started: false,
            flow: 0,
        }
    }

    /// Tag every packet of this source with `flow`.
    pub fn with_flow(mut self, flow: u16) -> Self {
        self.flow = flow;
        self
    }

    /// The arrival instants of this source on a stream that nothing
    /// else draws from: the instants repeated [`Source::next_packet`]
    /// calls with `rng` would return, and no more.
    ///
    /// The iterator owns the stream, so it can draw ahead of what it
    /// yields without moving any other draw. Inside `WlanSim` a
    /// station's arrivals share their stream with its backoff draws, so
    /// there the source must be pulled through `next_packet`.
    pub fn into_times(self, mut rng: SimRng) -> PoissonTimes {
        let (Some(mean_gap_s), Some(base)) = (self.mean_gap_s, self.next_time) else {
            return PoissonTimes {
                rng,
                mean_gap_s: 0.0,
                until: self.until,
                next: Time::MAX,
                gaps: [Dur::ZERO; 2],
            };
        };
        let mut gap = || Dur::from_secs_f64(rng.exp(mean_gap_s));
        let next = if self.started { base } else { base + gap() };
        let gaps = [gap(), gap()];
        PoissonTimes {
            rng,
            mean_gap_s,
            until: self.until,
            next,
            gaps,
        }
    }

    #[inline]
    fn advance(&mut self, rng: &mut SimRng, from: Time) -> Option<Time> {
        let gap = Dur::from_secs_f64(rng.exp(self.mean_gap_s?));
        let t = from + gap;
        (t < self.until).then_some(t)
    }
}

/// The arrival instants of a [`PoissonSource`] that owns its stream
/// ([`PoissonSource::into_times`]).
///
/// It keeps the two gaps after the next instant drawn. The draws are
/// `next_packet`'s, in its order; the ones made past the last instant
/// are never seen.
#[derive(Debug, Clone)]
pub struct PoissonTimes {
    rng: SimRng,
    mean_gap_s: f64,
    until: Time,
    /// The next instant; the stream is spent once it reaches `until`.
    next: Time,
    gaps: [Dur; 2],
}

impl Iterator for PoissonTimes {
    type Item = Time;

    #[inline]
    fn next(&mut self) -> Option<Time> {
        let t = self.next;
        if t >= self.until {
            return None;
        }
        self.next = t + self.gaps[0];
        self.gaps = [
            self.gaps[1],
            Dur::from_secs_f64(self.rng.exp(self.mean_gap_s)),
        ];
        Some(t)
    }
}

impl Source for PoissonSource {
    #[inline]
    fn next_packet(&mut self, rng: &mut SimRng) -> Option<PacketArrival> {
        let base = self.next_time?;
        // The first arrival is offset exponentially from `start` too, so
        // the process is time-stationary from the observer's viewpoint.
        let time = if self.started {
            base
        } else {
            self.started = true;
            match self.advance(rng, base) {
                Some(t) => t,
                None => {
                    self.next_time = None;
                    return None;
                }
            }
        };
        self.next_time = self.advance(rng, time);
        let bytes = self.sizes.sample();
        Some(PacketArrival {
            time,
            bytes,
            flow: self.flow,
        })
    }
}

/// Constant-bit-rate (periodic) arrivals.
#[derive(Debug, Clone)]
pub struct CbrSource {
    interval: Dur,
    sizes: SizeModel,
    next_time: Time,
    until: Time,
    flow: u16,
}

impl CbrSource {
    /// A CBR source offering `rate_bps` with packets from `sizes`,
    /// active on `[start, until)`.
    pub fn from_bitrate(rate_bps: f64, sizes: SizeModel, start: Time, until: Time) -> Self {
        debug_assert!(rate_bps > 0.0);
        let interval = Dur::from_secs_f64(8.0 * sizes.mean_bytes() / rate_bps);
        CbrSource {
            interval,
            sizes,
            next_time: start,
            until,
            flow: 0,
        }
    }

    /// Tag every packet of this source with `flow`.
    pub fn with_flow(mut self, flow: u16) -> Self {
        self.flow = flow;
        self
    }
}

impl Source for CbrSource {
    fn next_packet(&mut self, _rng: &mut SimRng) -> Option<PacketArrival> {
        if self.next_time >= self.until {
            return None;
        }
        let time = self.next_time;
        self.next_time += self.interval;
        let bytes = self.sizes.sample();
        Some(PacketArrival {
            time,
            bytes,
            flow: self.flow,
        })
    }
}

/// How an [`OnOffSource`] draws the length of an ON period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OnPeriod {
    /// Exponential ON periods of this mean.
    Exp {
        /// Mean ON duration.
        mean: Dur,
    },
    /// Pareto ON periods: heavy-tailed, with shape `alpha` (> 1 for a
    /// finite mean; smaller means burstier) and minimum `min`.
    Pareto {
        /// Pareto shape.
        alpha: f64,
        /// Pareto scale: the shortest ON duration.
        min: Dur,
    },
}

impl OnPeriod {
    /// The mean ON duration (`alpha·min/(alpha−1)` for Pareto).
    pub fn mean(&self) -> Dur {
        match *self {
            OnPeriod::Exp { mean } => mean,
            OnPeriod::Pareto { alpha, min } => {
                Dur::from_secs_f64(alpha * min.as_secs_f64() / (alpha - 1.0))
            }
        }
    }

    /// Draw one ON duration. Out of line on purpose: inlined into
    /// [`OnOffSource`]'s packet loop, the Pareto arm's loop-invariant
    /// arithmetic is hoisted to the top of every `next_packet` call, and
    /// under an `Exp` law it runs on the mean's bits read as a denormal
    /// `f64` (~200 ns per packet).
    #[inline(never)]
    fn draw(&self, rng: &mut SimRng) -> Dur {
        match *self {
            OnPeriod::Exp { mean } => Dur::from_secs_f64(rng.exp(mean.as_secs_f64())),
            OnPeriod::Pareto { alpha, min } => {
                // Inverse-CDF Pareto: X = x_m / U^(1/alpha).
                let u = 1.0 - rng.f64(); // in (0, 1]
                let secs = min.as_secs_f64() / u.powf(1.0 / alpha);
                // Cap pathological tail draws at 10^4 x mean to keep single
                // replications bounded (documented heavy-tail truncation).
                let cap = self.mean().as_secs_f64() * 1e4;
                Dur::from_secs_f64(secs.min(cap))
            }
        }
    }
}

/// On/off bursty traffic: ON periods drawn by an [`OnPeriod`] law,
/// exponential OFF periods; while ON, packets are emitted back-to-back
/// at `peak_rate_bps`.
///
/// The long-run offered rate is `peak · E[on] / (E[on]+E[off])`. Pareto
/// ON periods are the classic self-similar-traffic building block
/// (Willinger et al.), used for the paper's §6.3 discussion — "as the
/// burstiness of cross-traffic flow increases so will the variability
/// of dispersion measures".
#[derive(Debug, Clone)]
pub struct OnOffSource {
    on: OnPeriod,
    mean_off: Dur,
    gap_in_burst: Dur,
    sizes: SizeModel,
    /// End of the current ON period, if inside one.
    burst_end: Option<Time>,
    next_time: Time,
    until: Time,
    flow: u16,
}

impl OnOffSource {
    /// Create an on/off source. `peak_rate_bps` is the rate *inside*
    /// bursts. A Pareto law needs `alpha > 1`, so that the mean ON
    /// duration exists.
    pub fn new(
        peak_rate_bps: f64,
        on: OnPeriod,
        mean_off: Dur,
        sizes: SizeModel,
        start: Time,
        until: Time,
    ) -> Self {
        if let OnPeriod::Pareto { alpha, .. } = on {
            assert!(alpha > 1.0, "alpha must exceed 1 (got {alpha})");
        }
        assert!(peak_rate_bps > 0.0);
        let gap = Dur::from_secs_f64(8.0 * sizes.mean_bytes() / peak_rate_bps);
        OnOffSource {
            on,
            mean_off,
            gap_in_burst: gap,
            sizes,
            burst_end: None,
            next_time: start,
            until,
            flow: 0,
        }
    }

    /// Tag every packet of this source with `flow`.
    pub fn with_flow(mut self, flow: u16) -> Self {
        self.flow = flow;
        self
    }

    /// The long-run average offered bitrate of this source.
    pub fn mean_rate_bps(&self) -> f64 {
        let on = self.on.mean().as_secs_f64();
        let off = self.mean_off.as_secs_f64();
        let peak = 8.0 * self.sizes.mean_bytes() / self.gap_in_burst.as_secs_f64();
        peak * on / (on + off)
    }
}

impl Source for OnOffSource {
    fn next_packet(&mut self, rng: &mut SimRng) -> Option<PacketArrival> {
        loop {
            if self.next_time >= self.until {
                return None;
            }
            match self.burst_end {
                Some(end) if self.next_time < end => {
                    let time = self.next_time;
                    self.next_time += self.gap_in_burst;
                    let bytes = self.sizes.sample();
                    return Some(PacketArrival {
                        time,
                        bytes,
                        flow: self.flow,
                    });
                }
                Some(end) => {
                    // Burst over: exponential OFF period.
                    let off = Dur::from_secs_f64(rng.exp(self.mean_off.as_secs_f64()));
                    self.next_time = end + off;
                    self.burst_end = None;
                }
                None => {
                    // Start a new ON period at next_time.
                    let on = self.on.draw(rng);
                    self.burst_end = Some(self.next_time + on);
                }
            }
        }
    }
}

/// Replay of an explicit arrival trace.
#[derive(Debug, Clone)]
pub struct TraceSource {
    packets: Vec<PacketArrival>,
    idx: usize,
}

impl TraceSource {
    /// Wrap an arrival list. Panics if arrival times decrease.
    pub fn new(packets: Vec<PacketArrival>) -> Self {
        for w in packets.windows(2) {
            assert!(
                w[1].time >= w[0].time,
                "trace arrivals must be time-ordered"
            );
        }
        TraceSource { packets, idx: 0 }
    }
}

impl Source for TraceSource {
    fn next_packet(&mut self, _rng: &mut SimRng) -> Option<PacketArrival> {
        let p = self.packets.get(self.idx).copied();
        if p.is_some() {
            self.idx += 1;
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(src: &mut dyn Source, rng: &mut SimRng, cap: usize) -> Vec<PacketArrival> {
        let mut out = Vec::new();
        while out.len() < cap {
            match src.next_packet(rng) {
                Some(p) => out.push(p),
                None => break,
            }
        }
        out
    }

    #[test]
    fn poisson_rate_is_honoured() {
        let mut rng = SimRng::new(1);
        let horizon = Time::from_secs_f64(50.0);
        let mut src =
            PoissonSource::from_bitrate(2_000_000.0, SizeModel::Fixed(1000), Time::ZERO, horizon);
        let pkts = drain(&mut src, &mut rng, usize::MAX);
        // Expect about rate * T / (8*bytes) = 2e6*50/8000 = 12_500 packets.
        let n = pkts.len() as f64;
        assert!((n - 12_500.0).abs() < 400.0, "got {n} packets");
        // Interarrivals should have CV ~ 1 (exponential).
        let gaps: Vec<f64> = pkts
            .windows(2)
            .map(|w| (w[1].time - w[0].time).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "cv {cv}");
    }

    #[test]
    fn poisson_times_are_monotone_and_bounded() {
        let mut rng = SimRng::new(2);
        let until = Time::from_secs_f64(1.0);
        let mut src =
            PoissonSource::from_packet_rate(10_000.0, SizeModel::Fixed(100), Time::ZERO, until);
        let pkts = drain(&mut src, &mut rng, usize::MAX);
        for w in pkts.windows(2) {
            assert!(w[1].time >= w[0].time);
        }
        assert!(pkts.iter().all(|p| p.time < until));
        assert!(src.next_packet(&mut rng).is_none());
    }

    #[test]
    fn into_times_yields_what_next_packet_yields_and_stops_where_it_stops() {
        // An endless source is compared over a prefix.
        const PREFIX: usize = 2_000;
        let half = Time::from_millis(500);
        // 1e-9 b/s: a mean gap past the clock, so the source never emits.
        for rate in [0.0, 1e-9, 2e6, 4e6] {
            for start in [Time::ZERO, half] {
                // Before the first arrival, at 0.5 s, and never.
                for until in [start, half, Time::MAX] {
                    for seed in [0, 1, 0x51ED, u64::MAX] {
                        let source = || {
                            PoissonSource::from_bitrate(rate, SizeModel::Fixed(1500), start, until)
                        };
                        let mut rng = SimRng::new(seed);
                        let mut pulled = source();
                        let expect: Vec<Time> =
                            std::iter::from_fn(|| pulled.next_packet(&mut rng).map(|p| p.time))
                                .take(PREFIX)
                                .collect();
                        let endless = expect.len() == PREFIX;
                        if rate > 1.0 && until == Time::MAX {
                            assert!(endless, "{rate} b/s from {start:?} ended");
                        }
                        // Pull `k` packets first, then hand the source
                        // and its stream over.
                        for k in [0, 1, 3] {
                            let mut rng = SimRng::new(seed);
                            let mut src = source();
                            let mut got: Vec<Time> =
                                std::iter::from_fn(|| src.next_packet(&mut rng).map(|p| p.time))
                                    .take(k)
                                    .collect();
                            let mut times = src.into_times(rng);
                            got.extend(times.by_ref().take(PREFIX - got.len()));
                            let case = format!("{rate} b/s on [{start:?}, {until:?}), seed {seed}");
                            assert_eq!(got, expect, "{case}, {k} pulled first");
                            if !endless {
                                assert_eq!(times.next(), None, "{case}");
                                assert_eq!(times.next(), None, "{case}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_rate_poisson_never_emits() {
        let mut rng = SimRng::new(3);
        let mut src = PoissonSource::from_packet_rate(
            0.0,
            SizeModel::Fixed(100),
            Time::ZERO,
            Time::from_secs_f64(10.0),
        );
        assert!(src.next_packet(&mut rng).is_none());
    }

    #[test]
    fn cbr_is_periodic() {
        let mut rng = SimRng::new(4);
        // 1 Mb/s with 1000-byte packets -> one packet every 8 ms.
        let mut src = CbrSource::from_bitrate(
            1_000_000.0,
            SizeModel::Fixed(1000),
            Time::from_micros(100),
            Time::from_secs_f64(1.0),
        );
        let pkts = drain(&mut src, &mut rng, usize::MAX);
        assert_eq!(pkts.len(), 125);
        for (i, p) in pkts.iter().enumerate() {
            assert_eq!(p.time, Time::from_micros(100 + 8_000 * i as u64));
            assert_eq!(p.bytes, 1000);
        }
    }

    #[test]
    fn onoff_mean_rate_matches_formula() {
        let sizes = SizeModel::Fixed(500);
        let src = OnOffSource::new(
            4_000_000.0,
            OnPeriod::Exp {
                mean: Dur::from_millis(10),
            },
            Dur::from_millis(30),
            sizes,
            Time::ZERO,
            Time::from_secs_f64(200.0),
        );
        let expect = 4_000_000.0 * 10.0 / 40.0;
        assert!((src.mean_rate_bps() - expect).abs() / expect < 1e-9);
        // And empirically:
        let mut rng = SimRng::new(7);
        let mut src = src;
        let mut bits = 0u64;
        let mut rngc = rng.fork();
        let _ = &mut rng;
        let mut last = Time::ZERO;
        while let Some(p) = src.next_packet(&mut rngc) {
            bits += p.bytes as u64 * 8;
            last = p.time;
        }
        let rate = bits as f64 / last.as_secs_f64();
        assert!(
            (rate - expect).abs() / expect < 0.1,
            "rate {rate} vs {expect}"
        );
    }

    #[test]
    fn trace_source_replays_exactly() {
        let trace = vec![
            PacketArrival::new(Time::from_micros(1), 10),
            PacketArrival::new(Time::from_micros(5), 20),
        ];
        let mut src = TraceSource::new(trace.clone());
        let mut rng = SimRng::new(8);
        assert_eq!(src.next_packet(&mut rng), Some(trace[0]));
        assert_eq!(src.next_packet(&mut rng), Some(trace[1]));
        assert_eq!(src.next_packet(&mut rng), None);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn trace_source_rejects_unordered() {
        TraceSource::new(vec![
            PacketArrival::new(Time::from_micros(5), 10),
            PacketArrival::new(Time::from_micros(1), 10),
        ]);
    }

    #[test]
    fn size_models_sample_correctly() {
        assert_eq!(SizeModel::Fixed(77).sample(), 77);
        assert_eq!(SizeModel::Fixed(77).mean_bytes(), 77.0);
    }

    #[test]
    fn pareto_onoff_mean_rate() {
        let on = OnPeriod::Pareto {
            alpha: 1.5,
            min: Dur::from_millis(4),
        };
        let src = OnOffSource::new(
            6_000_000.0,
            on,
            Dur::from_millis(12),
            SizeModel::Fixed(1500),
            Time::ZERO,
            Time::from_secs_f64(400.0),
        );
        // mean_on = 1.5*4/(0.5) = 12 ms; duty = 12/(12+12) = 0.5.
        assert!((on.mean().as_secs_f64() - 12e-3).abs() < 1e-9);
        let expect = 3_000_000.0;
        assert!((src.mean_rate_bps() - expect).abs() / expect < 1e-9);
        // Empirical rate within 15% (heavy tails converge slowly).
        let mut rng = SimRng::new(42);
        let mut src = src;
        let mut bits = 0u64;
        let mut last = Time::ZERO;
        while let Some(p) = src.next_packet(&mut rng) {
            bits += p.bytes as u64 * 8;
            last = p.time;
        }
        let rate = bits as f64 / last.as_secs_f64();
        assert!(
            (rate - expect).abs() / expect < 0.15,
            "empirical rate {rate}"
        );
    }

    #[test]
    fn pareto_burstier_than_exponential_onoff() {
        // Same mean rate and mean ON; compare the variance of packets
        // per 100 ms window: Pareto (alpha=1.3) must exceed exponential.
        let horizon = Time::from_secs_f64(300.0);
        let window = 0.1;
        let count_var = |arrivals: Vec<Time>| {
            let bins = (300.0 / window) as usize;
            let mut counts = vec![0f64; bins];
            for t in arrivals {
                let b = (t.as_secs_f64() / window) as usize;
                if b < bins {
                    counts[b] += 1.0;
                }
            }
            let mean = counts.iter().sum::<f64>() / bins as f64;
            counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / bins as f64
        };
        let collect = |src: &mut dyn Source, seed: u64| {
            let mut rng = SimRng::new(seed);
            let mut out = Vec::new();
            while let Some(p) = src.next_packet(&mut rng) {
                out.push(p.time);
            }
            out
        };
        let on = OnPeriod::Pareto {
            alpha: 1.3,
            min: Dur::from_millis(3),
        };
        let mut pareto = OnOffSource::new(
            6e6,
            on,
            Dur::from_millis(13),
            SizeModel::Fixed(1500),
            Time::ZERO,
            horizon,
        );
        let mut exp = OnOffSource::new(
            6e6,
            OnPeriod::Exp { mean: on.mean() },
            Dur::from_millis(13),
            SizeModel::Fixed(1500),
            Time::ZERO,
            horizon,
        );
        let v_pareto = count_var(collect(&mut pareto, 7));
        let v_exp = count_var(collect(&mut exp, 7));
        assert!(
            v_pareto > 1.2 * v_exp,
            "pareto var {v_pareto} vs exp var {v_exp}"
        );
    }

    #[test]
    #[should_panic(expected = "alpha must exceed 1")]
    fn pareto_rejects_infinite_mean() {
        OnOffSource::new(
            1e6,
            OnPeriod::Pareto {
                alpha: 0.9,
                min: Dur::from_millis(1),
            },
            Dur::from_millis(1),
            SizeModel::Fixed(100),
            Time::ZERO,
            Time::MAX,
        );
    }
}
