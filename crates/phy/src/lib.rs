//! # csmaprobe-phy
//!
//! IEEE 802.11 PHY timing for the CSMA/CA MAC simulator: frame
//! airtimes, ACK durations, and the MAC timing constants (slot, SIFS,
//! DIFS, EIFS, CWmin/CWmax) that the DCF contention process is built
//! from.
//!
//! Two PHY families are modelled:
//!
//! * **DSSS / HR-DSSS (802.11b)** — what the paper's testbed (Prism
//!   chipset at 11 Mb/s, long preamble, no RTS/CTS) and its NS2 setup
//!   use. This is the default everywhere in the workspace.
//! * **OFDM (802.11a/g)** — provided for completeness and for
//!   sensitivity experiments; symbol-padded airtime per 802.11-2007
//!   §17.3.2.
//!
//! All durations are integer nanoseconds ([`Dur`]); airtime division is
//! exact integer arithmetic (64-bit, widened to 128-bit only when the
//! product would overflow) rounded **up** to whole nanoseconds
//! (transmissions can only end on or after the last bit).

pub mod ofdm;

use csmaprobe_desim::time::Dur;

/// Length in bytes of an 802.11 ACK control frame.
pub const ACK_BYTES: u32 = 14;

/// Length in bytes of an 802.11 RTS control frame.
pub const RTS_BYTES: u32 = 20;

/// Length in bytes of an 802.11 CTS control frame.
pub const CTS_BYTES: u32 = 14;

/// MAC overhead added to every data MPDU: 24-byte MAC header + 4-byte
/// FCS. (The paper's NS2 setup uses the stock 802.11 MAC, which adds
/// exactly this.)
pub const MAC_DATA_OVERHEAD_BYTES: u32 = 28;

/// Airtime of `bits` transmitted at `rate_bps`, rounded up to whole
/// nanoseconds.
///
/// Computed in 64-bit arithmetic whenever `bits · 10⁹` fits (every
/// frame up to ~2 GB does); larger products fall back to 128-bit. Both
/// paths are the same exact ceiling division.
#[inline]
pub fn serialization_time(bits: u64, rate_bps: u64) -> Dur {
    debug_assert!(rate_bps > 0);
    let ns = match bits.checked_mul(1_000_000_000) {
        Some(scaled) => scaled.div_ceil(rate_bps),
        None => (bits as u128 * 1_000_000_000u128).div_ceil(rate_bps as u128) as u64,
    };
    Dur::from_nanos(ns)
}

/// The preamble variants defined for DSSS/HR-DSSS PHYs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preamble {
    /// 144 µs sync+SFD plus 48 µs PLCP header, both at 1 Mb/s (192 µs
    /// total). Mandatory, and the paper's testbed default.
    Long,
    /// 72 µs shortened sync at 1 Mb/s plus 24 µs PLCP header at 2 Mb/s
    /// (96 µs total). Optional in 802.11b.
    Short,
}

impl Preamble {
    /// Total PLCP preamble + header duration.
    pub fn duration(self) -> Dur {
        match self {
            Preamble::Long => Dur::from_micros(192),
            Preamble::Short => Dur::from_micros(96),
        }
    }
}

/// A complete PHY/MAC timing parameterisation.
///
/// Use the constructors ([`Phy::dsss_11mbps`], [`Phy::dsss`],
/// [`Phy::ofdm_g`], …) rather than filling fields by hand; invariants
/// between fields (e.g. DIFS = SIFS + 2·slot) are the constructors'
/// responsibility.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phy {
    /// Backoff slot duration (20 µs DSSS, 9 µs OFDM).
    pub slot: Dur,
    /// Short interframe space (10 µs DSSS, 16 µs OFDM).
    pub sifs: Dur,
    /// PLCP preamble + header overhead prepended to every frame.
    pub plcp: Dur,
    /// Data rate for MPDUs, bits/s.
    pub data_rate_bps: u64,
    /// Control (basic) rate used for ACK frames, bits/s.
    pub control_rate_bps: u64,
    /// Minimum contention window (CWmin); backoff drawn from `[0, CW]`.
    pub cw_min: u32,
    /// Maximum contention window (CWmax).
    pub cw_max: u32,
    /// Retry limit before a frame is dropped (long retry limit).
    pub retry_limit: u32,
    /// True when this is an OFDM PHY (changes airtime quantisation).
    pub ofdm: bool,
}

impl Phy {
    /// 802.11b at 11 Mb/s, long preamble, ACK at 2 Mb/s — the paper's
    /// testbed and NS2 configuration.
    pub fn dsss_11mbps() -> Phy {
        Phy::dsss(11_000_000, Preamble::Long)
    }

    /// 802.11b/DSSS at an arbitrary rate (1, 2, 5.5 or 11 Mb/s).
    ///
    /// ACKs are sent at the highest mandatory basic rate not exceeding
    /// the data rate (1 or 2 Mb/s).
    pub fn dsss(data_rate_bps: u64, preamble: Preamble) -> Phy {
        let control = if data_rate_bps >= 2_000_000 {
            2_000_000
        } else {
            1_000_000
        };
        Phy {
            slot: Dur::from_micros(20),
            sifs: Dur::from_micros(10),
            plcp: preamble.duration(),
            data_rate_bps,
            control_rate_bps: control,
            cw_min: 31,
            cw_max: 1023,
            retry_limit: 7,
            ofdm: false,
        }
    }

    /// 802.11g (ERP-OFDM) at `data_rate_bps` with 802.11a timing
    /// (9 µs slots, 16 µs SIFS).
    pub fn ofdm_g(data_rate_bps: u64) -> Phy {
        Phy {
            slot: Dur::from_micros(9),
            sifs: Dur::from_micros(16),
            plcp: Dur::from_micros(20), // 16 µs preamble + 4 µs SIGNAL
            data_rate_bps,
            control_rate_bps: ofdm::basic_rate_for(data_rate_bps),
            cw_min: 15,
            cw_max: 1023,
            retry_limit: 7,
            ofdm: true,
        }
    }

    /// DCF interframe space: SIFS + 2 slots.
    #[inline]
    pub fn difs(&self) -> Dur {
        self.sifs + self.slot * 2
    }

    /// Extended interframe space, used after an erroneous reception:
    /// `SIFS + ACK-at-lowest-rate + DIFS` (802.11-2007 §9.2.3.5).
    #[inline]
    pub fn eifs(&self) -> Dur {
        self.sifs + self.ack_airtime_at(1_000_000) + self.difs()
    }

    /// Airtime of a data MPDU carrying `payload_bytes` of higher-layer
    /// payload (MAC header and FCS are added internally).
    pub fn data_airtime(&self, payload_bytes: u32) -> Dur {
        let bytes = payload_bytes + MAC_DATA_OVERHEAD_BYTES;
        self.frame_airtime(bytes, self.data_rate_bps)
    }

    /// Airtime of an ACK frame at the configured control rate.
    pub fn ack_airtime(&self) -> Dur {
        self.ack_airtime_at(self.control_rate_bps)
    }

    /// Airtime of an RTS frame at the configured control rate.
    pub fn rts_airtime(&self) -> Dur {
        self.frame_airtime(RTS_BYTES, self.control_rate_bps)
    }

    /// Airtime of a CTS frame at the configured control rate.
    pub fn cts_airtime(&self) -> Dur {
        self.frame_airtime(CTS_BYTES, self.control_rate_bps)
    }

    /// Duration of the RTS/CTS preface before the data frame:
    /// `RTS + SIFS + CTS + SIFS`.
    pub fn rts_cts_preface(&self) -> Dur {
        self.rts_airtime() + self.sifs + self.cts_airtime() + self.sifs
    }

    fn ack_airtime_at(&self, rate_bps: u64) -> Dur {
        self.frame_airtime(ACK_BYTES, rate_bps)
    }

    /// Airtime of an arbitrary MPDU of `mpdu_bytes` (already including
    /// MAC overhead) at `rate_bps`, including PLCP overhead.
    pub fn frame_airtime(&self, mpdu_bytes: u32, rate_bps: u64) -> Dur {
        if self.ofdm {
            self.plcp + ofdm::symbol_padded_airtime(mpdu_bytes, rate_bps)
        } else {
            self.plcp + serialization_time(mpdu_bytes as u64 * 8, rate_bps)
        }
    }

    /// Duration a **successful** transmission occupies the channel:
    /// data frame + SIFS + ACK. (DIFS/backoff are contention, not
    /// occupancy, and belong to the MAC.)
    pub fn success_exchange(&self, payload_bytes: u32) -> Dur {
        self.data_airtime(payload_bytes) + self.sifs + self.ack_airtime()
    }

    /// How long a transmitter waits for an ACK before declaring the
    /// attempt failed: SIFS + ACK airtime + one slot of scheduling
    /// slack.
    pub fn ack_timeout(&self) -> Dur {
        self.sifs + self.ack_airtime() + self.slot
    }

    /// The contention window for backoff stage `stage` (0-based):
    /// `min((CWmin+1)·2^stage − 1, CWmax)`.
    pub fn cw_at_stage(&self, stage: u32) -> u32 {
        let w = (self.cw_min as u64 + 1) << stage.min(16);
        ((w - 1) as u32).min(self.cw_max)
    }

    /// Stand-alone saturation throughput of one station sending
    /// `payload_bytes` frames with nobody contending: the channel
    /// cycles through DIFS + E\[backoff\] + exchange. Returned in bits/s.
    ///
    /// This is the paper's *capacity* `C` for its single-flow setting
    /// (≈6.2 Mb/s for 1500-byte frames at 11 Mb/s, long preamble — the
    /// testbed reports ≈6.5 Mb/s with its slightly different overhead
    /// accounting).
    pub fn standalone_capacity_bps(&self, payload_bytes: u32) -> f64 {
        let mean_backoff_slots = self.cw_min as f64 / 2.0;
        let cycle = self.difs().as_secs_f64()
            + mean_backoff_slots * self.slot.as_secs_f64()
            + self.success_exchange(payload_bytes).as_secs_f64();
        payload_bytes as f64 * 8.0 / cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_rounds_up() {
        // 1 bit at 1 Gb/s = exactly 1 ns.
        assert_eq!(serialization_time(1, 1_000_000_000), Dur::from_nanos(1));
        // 1 bit at 3 Gb/s = 0.33 ns -> 1 ns.
        assert_eq!(serialization_time(1, 3_000_000_000), Dur::from_nanos(1));
        // 8000 bits at 1 Mb/s = 8 ms exactly.
        assert_eq!(serialization_time(8000, 1_000_000), Dur::from_millis(8));
    }

    /// The 128-bit formula the 64-bit fast path must reproduce.
    fn serialization_time_u128(bits: u64, rate_bps: u64) -> Dur {
        let ns = (bits as u128 * 1_000_000_000u128).div_ceil(rate_bps as u128);
        Dur::from_nanos(ns as u64)
    }

    #[test]
    fn serialization_u64_path_equals_u128_formula() {
        let rates = [
            1_000_000, 2_000_000, 5_500_000, 11_000_000, 6_000_000, 9_000_000, 12_000_000,
            18_000_000, 24_000_000, 36_000_000, 48_000_000, 54_000_000,
        ];
        // Every length up to 2^20 bits, then the overflow edge: the largest
        // product that fits in u64, the first that does not, and far
        // past it (where both forms truncate the same way).
        let edge = u64::MAX / 1_000_000_000;
        let overflow = [edge, edge + 1, u64::MAX / 2, u64::MAX];
        for rate in rates {
            for bits in (0..=1u64 << 20).chain(overflow) {
                assert_eq!(
                    serialization_time(bits, rate),
                    serialization_time_u128(bits, rate),
                    "{bits} bits at {rate} bit/s"
                );
            }
        }
    }

    #[test]
    fn dsss_constants_match_standard() {
        let phy = Phy::dsss_11mbps();
        assert_eq!(phy.slot, Dur::from_micros(20));
        assert_eq!(phy.sifs, Dur::from_micros(10));
        assert_eq!(phy.difs(), Dur::from_micros(50));
        assert_eq!(phy.cw_min, 31);
        assert_eq!(phy.cw_max, 1023);
        assert_eq!(phy.plcp, Dur::from_micros(192));
    }

    #[test]
    fn ack_airtime_11b() {
        let phy = Phy::dsss_11mbps();
        // 192 us PLCP + 14*8 bits / 2 Mb/s = 192 + 56 = 248 us.
        assert_eq!(phy.ack_airtime(), Dur::from_micros(248));
    }

    #[test]
    fn data_airtime_1500b_11mbps() {
        let phy = Phy::dsss_11mbps();
        // (1500+28)*8 = 12224 bits at 11 Mb/s = 1111272.72.. ns -> ceil.
        let expect = Dur::from_micros(192) + serialization_time(12224, 11_000_000);
        assert_eq!(phy.data_airtime(1500), expect);
        // Sanity: about 1.303 ms.
        let us = phy.data_airtime(1500).as_micros_f64();
        assert!((1300.0..1310.0).contains(&us), "{us}");
    }

    #[test]
    fn low_rate_dsss_uses_1mbps_acks() {
        let phy = Phy::dsss(1_000_000, Preamble::Long);
        assert_eq!(phy.control_rate_bps, 1_000_000);
        // 192 + 112 us.
        assert_eq!(phy.ack_airtime(), Dur::from_micros(304));
    }

    #[test]
    fn cw_doubles_and_caps() {
        let phy = Phy::dsss_11mbps();
        assert_eq!(phy.cw_at_stage(0), 31);
        assert_eq!(phy.cw_at_stage(1), 63);
        assert_eq!(phy.cw_at_stage(2), 127);
        assert_eq!(phy.cw_at_stage(5), 1023);
        assert_eq!(phy.cw_at_stage(6), 1023);
        assert_eq!(phy.cw_at_stage(60), 1023); // shift clamped, no overflow
    }

    #[test]
    fn standalone_capacity_near_paper_value() {
        let phy = Phy::dsss_11mbps();
        let c = phy.standalone_capacity_bps(1500) / 1e6;
        // Paper reports ~6.5 Mb/s on the testbed; stock-timing estimate
        // lands slightly lower. Accept the 5.9..6.8 window.
        assert!((5.9..6.8).contains(&c), "capacity {c} Mb/s");
    }

    #[test]
    fn eifs_exceeds_difs() {
        let phy = Phy::dsss_11mbps();
        assert!(phy.eifs() > phy.difs());
    }

    #[test]
    fn success_exchange_composition() {
        let phy = Phy::dsss_11mbps();
        assert_eq!(
            phy.success_exchange(1000),
            phy.data_airtime(1000) + phy.sifs + phy.ack_airtime()
        );
    }

    #[test]
    fn ofdm_g_constants() {
        let phy = Phy::ofdm_g(54_000_000);
        assert_eq!(phy.slot, Dur::from_micros(9));
        assert_eq!(phy.sifs, Dur::from_micros(16));
        assert_eq!(phy.difs(), Dur::from_micros(34));
        assert_eq!(phy.cw_min, 15);
        assert!(phy.ofdm);
    }

    #[test]
    fn airtime_monotone_in_payload() {
        let phy = Phy::dsss_11mbps();
        let mut prev = Dur::ZERO;
        for bytes in [40u32, 100, 576, 1000, 1500] {
            let a = phy.data_airtime(bytes);
            assert!(a > prev);
            prev = a;
        }
    }
}
