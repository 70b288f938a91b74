//! Bianchi's saturation model of the DCF (the paper's reference \[8\]:
//! G. Bianchi, "Performance Analysis of the IEEE 802.11 Distributed
//! Coordination Function", IEEE JSAC 2000).
//!
//! For `n` saturated stations the per-station transmission probability
//! `τ` and conditional collision probability `p` solve the fixed point
//!
//! ```text
//! τ = 2(1−2p) / ((1−2p)(W+1) + pW(1−(2p)^m))
//! p = 1 − (1−τ)^(n−1)
//! ```
//!
//! with `W = CWmin+1` and `m` the number of window doublings. From
//! `(τ, p)` the model yields saturation throughput, the per-station
//! fair share (the paper's achievable throughput `B` for a saturated
//! contender), and the mean MAC service (access) time.

use csmaprobe_phy::Phy;

/// Solved Bianchi fixed point plus derived channel quantities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BianchiModel {
    /// Number of saturated stations.
    pub n: usize,
    /// Per-slot transmission probability of one station.
    pub tau: f64,
    /// Conditional collision probability seen by a transmitting station.
    pub p: f64,
    /// Aggregate saturation throughput, bits/s of payload.
    pub throughput_bps: f64,
    /// Per-station fair share, bits/s.
    pub fair_share_bps: f64,
    /// Mean duration of a (virtual) backoff slot, seconds.
    pub mean_slot_s: f64,
    /// Mean MAC service time of one frame (head-of-queue to ACK),
    /// seconds — the analytic steady-state `E[μ]` for saturation.
    pub mean_access_delay_s: f64,
}

impl BianchiModel {
    /// Solve the model for `n` saturated stations sending fixed
    /// `payload_bytes` frames over `phy`.
    ///
    /// Panics if `n == 0`.
    pub fn solve(phy: &Phy, n: usize, payload_bytes: u32) -> Self {
        assert!(n >= 1, "need at least one station");
        let w = phy.cw_min as f64 + 1.0;
        // Number of doublings until CWmax.
        let m = ((phy.cw_max as f64 + 1.0) / w).log2().round().max(0.0);

        // Fixed-point iteration with damping; converges in tens of
        // iterations for all practical (W, m, n).
        let mut tau = 2.0 / (w + 1.0);
        for _ in 0..10_000 {
            let p_iter = 1.0 - (1.0 - tau).powi(n as i32 - 1);
            let denom =
                (1.0 - 2.0 * p_iter) * (w + 1.0) + p_iter * w * (1.0 - (2.0 * p_iter).powf(m));
            let tau_next = if denom.abs() < 1e-30 {
                tau
            } else {
                2.0 * (1.0 - 2.0 * p_iter) / denom
            };
            let next = 0.5 * tau + 0.5 * tau_next.clamp(1e-9, 1.0);
            if (next - tau).abs() < 1e-14 {
                tau = next;
                break;
            }
            tau = next;
        }
        let p = 1.0 - (1.0 - tau).powi(n as i32 - 1);

        // Slot-type probabilities.
        let p_tr = 1.0 - (1.0 - tau).powi(n as i32); // some transmission
        let p_s = if p_tr > 0.0 {
            n as f64 * tau * (1.0 - tau).powi(n as i32 - 1) / p_tr
        } else {
            0.0
        };

        let sigma = phy.slot.as_secs_f64();
        let t_s = phy.difs().as_secs_f64() + phy.success_exchange(payload_bytes).as_secs_f64();
        let t_c = phy.difs().as_secs_f64()
            + phy.data_airtime(payload_bytes).as_secs_f64()
            + phy.sifs.as_secs_f64()
            + phy.ack_airtime().as_secs_f64();

        let mean_slot = (1.0 - p_tr) * sigma + p_tr * p_s * t_s + p_tr * (1.0 - p_s) * t_c;
        let payload_bits = payload_bytes as f64 * 8.0;
        let throughput = p_tr * p_s * payload_bits / mean_slot;

        // Mean service time: in saturation every station is always
        // serving a head frame and delivers exactly its fair share, so
        // by the renewal-reward theorem
        // E[μ] = payload_bits / fair_share. (Losses at the retry limit
        // are negligible for the regimes this model is used in.)
        let fair = throughput / n as f64;
        let mean_service = payload_bits / fair;

        BianchiModel {
            n,
            tau,
            p,
            throughput_bps: throughput,
            fair_share_bps: fair,
            mean_slot_s: mean_slot,
            mean_access_delay_s: mean_service,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmaprobe_phy::Phy;

    fn phy() -> Phy {
        Phy::dsss_11mbps()
    }

    #[test]
    fn single_station_never_collides() {
        let m = BianchiModel::solve(&phy(), 1, 1500);
        assert!(m.p.abs() < 1e-12);
        // τ = 2/(W+1) for p=0.
        assert!((m.tau - 2.0 / 33.0).abs() < 1e-9, "{}", m.tau);
        // Throughput close to the stand-alone cycle capacity.
        let analytic = 1500.0 * 8.0
            / (phy().difs().as_secs_f64()
                + 15.5 * phy().slot.as_secs_f64()
                + phy().success_exchange(1500).as_secs_f64());
        assert!(
            (m.throughput_bps - analytic).abs() / analytic < 0.01,
            "{} vs {analytic}",
            m.throughput_bps
        );
    }

    #[test]
    fn two_stations_collision_probability() {
        let m = BianchiModel::solve(&phy(), 2, 1500);
        // Known result for W=32, m=5, n=2: p ≈ 0.06, tau ≈ 0.06.
        assert!((0.04..0.09).contains(&m.p), "p = {}", m.p);
        assert!((0.04..0.09).contains(&m.tau), "tau = {}", m.tau);
        // Fair share is half the aggregate.
        assert!((m.fair_share_bps * 2.0 - m.throughput_bps).abs() < 1.0);
    }

    #[test]
    fn collision_probability_grows_with_n() {
        // p grows monotonically with contention. Aggregate throughput
        // *rises* slightly from n=1 to n=2 (less idle backoff wasted),
        // then decays as collisions dominate.
        let mut prev_p = 0.0;
        let mut prev_tput = f64::INFINITY;
        for n in [2, 5, 10, 20] {
            let m = BianchiModel::solve(&phy(), n, 1500);
            assert!(m.p >= prev_p, "p not monotone at n={n}");
            prev_p = m.p;
            assert!(
                m.throughput_bps < prev_tput,
                "throughput should decay with contention beyond n=2"
            );
            prev_tput = m.throughput_bps;
        }
        let one = BianchiModel::solve(&phy(), 1, 1500);
        let two = BianchiModel::solve(&phy(), 2, 1500);
        assert!(two.throughput_bps > one.throughput_bps);
    }

    #[test]
    fn mean_access_delay_consistent_with_fair_share() {
        // In saturation a station completes one frame per mean service
        // time, so fair_share ≈ payload_bits / mean_access_delay.
        for n in [2usize, 4, 8] {
            let m = BianchiModel::solve(&phy(), n, 1500);
            let implied = 1500.0 * 8.0 / m.mean_access_delay_s;
            let rel = (implied - m.fair_share_bps).abs() / m.fair_share_bps;
            assert!(
                rel < 1e-9,
                "n={n}: implied {implied:.0} vs fair {:.0}",
                m.fair_share_bps
            );
        }
    }

    #[test]
    fn throughput_in_expected_band_for_11b() {
        // 2 saturated stations at 11 Mb/s, 1500 B: aggregate ~6.3-6.7
        // Mb/s (slightly above the lone-station 6.2 because two
        // contenders waste less idle backoff, and p is still small).
        let m = BianchiModel::solve(&phy(), 2, 1500);
        assert!(
            (6.1e6..6.8e6).contains(&m.throughput_bps),
            "{}",
            m.throughput_bps
        );
    }
}
