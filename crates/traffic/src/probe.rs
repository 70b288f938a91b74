//! Probing sequences (§5.1.2 of the paper).
//!
//! A *probing sequence* (train) is `n` packets of `l` bytes entering the
//! transmission queue at fixed input gap `gI`: arrivals
//! `a_i = a_1 + (i−1)·gI`. A *measurement* sends `m` such trains; the
//! tools run each one as an independent seeded replication.

use crate::PacketArrival;
use csmaprobe_desim::time::{Dur, Time};

/// One probing train: `n` packets of `bytes` payload at input gap `gap`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeTrain {
    /// Packets per train (`n`). Must be ≥ 2 for a dispersion to exist.
    pub n: usize,
    /// Payload bytes per probe packet (`L` in the paper's rate maths).
    pub bytes: u32,
    /// Input gap `gI` between consecutive arrivals.
    pub gap: Dur,
    /// Flow tag stamped on every probe packet (defaults to 0).
    pub flow: u16,
}

impl ProbeTrain {
    /// A train whose input **rate** is `rate_bps` (so `gI = 8·L/rate`).
    pub fn from_rate(n: usize, bytes: u32, rate_bps: f64) -> Self {
        debug_assert!(rate_bps > 0.0);
        let gap = Dur::from_secs_f64(bytes as f64 * 8.0 / rate_bps);
        ProbeTrain {
            n,
            bytes,
            gap,
            flow: 0,
        }
    }

    /// A packet pair: two back-to-back packets (`gI = 0`, i.e. the
    /// second packet is queued the instant the first is).
    pub fn packet_pair(bytes: u32) -> Self {
        ProbeTrain {
            n: 2,
            bytes,
            gap: Dur::ZERO,
            flow: 0,
        }
    }

    /// Tag every packet of this train with `flow`.
    pub fn with_flow(mut self, flow: u16) -> Self {
        self.flow = flow;
        self
    }

    /// The offered input rate `ri = L/gI` in bits/s (`f64::INFINITY`
    /// for back-to-back pairs).
    pub fn input_rate_bps(&self) -> f64 {
        if self.gap == Dur::ZERO {
            f64::INFINITY
        } else {
            self.bytes as f64 * 8.0 / self.gap.as_secs_f64()
        }
    }

    /// The arrival times of this train when it starts at `start`.
    pub fn arrivals(&self, start: Time) -> Vec<PacketArrival> {
        (0..self.n)
            .map(|i| PacketArrival {
                time: start + self.gap * i as u64,
                bytes: self.bytes,
                flow: self.flow,
            })
            .collect()
    }

    /// Total time from the first to the last arrival.
    pub fn span(&self) -> Dur {
        self.gap * (self.n.saturating_sub(1)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_from_rate_gap() {
        // 1500 B at 6 Mb/s -> gI = 2 ms.
        let t = ProbeTrain::from_rate(10, 1500, 6_000_000.0);
        assert_eq!(t.gap, Dur::from_millis(2));
        assert!((t.input_rate_bps() - 6_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn packet_pair_has_infinite_rate() {
        let p = ProbeTrain::packet_pair(1500);
        assert_eq!(p.n, 2);
        assert!(p.input_rate_bps().is_infinite());
        assert_eq!(p.span(), Dur::ZERO);
    }

    #[test]
    fn arrivals_are_periodic() {
        let t = ProbeTrain {
            n: 4,
            bytes: 100,
            gap: Dur::from_micros(250),
            flow: 0,
        };
        let a = t.arrivals(Time::from_micros(1000));
        assert_eq!(a.len(), 4);
        for (i, p) in a.iter().enumerate() {
            assert_eq!(p.time, Time::from_micros(1000 + 250 * i as u64));
            assert_eq!(p.bytes, 100);
        }
        assert_eq!(t.span(), Dur::from_micros(750));
    }
}
