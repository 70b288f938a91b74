//! Finite-offered-load (non-saturated) Bianchi-style fixed point —
//! the analytic tier's coverage of the rate-response **knee**.
//!
//! [`crate::bianchi::BianchiModel`] assumes every station always has a
//! frame queued; the paper's actual setup (a probe flow ramped across
//! the available bandwidth against cross-traffic of fixed offered
//! rate) lives almost entirely *outside* that assumption. Following
//! the non-saturated extensions of Bianchi's chain (Kai & Zhang,
//! "Throughput Analysis of CSMA Wireless Networks with Finite
//! Offered-load"; Malone/Duffy/Leith's heterogeneous-load 802.11
//! model), each station `i` couples the saturated transmission
//! probability to an M/G/1-style queue-occupancy probability `ρ_i`:
//!
//! ```text
//! p_i   = 1 − Π_{j≠i} (1 − τ_j)                 (collision seen by i)
//! E[S_i] = mean MAC service time of one frame at (p_i, slot mix)
//! ρ_i   = min(1, λ_i · E[S_i])                  (queue occupancy)
//! τ_i   = ρ_i · τ_sat(p_i)                      (transmit only when busy)
//! ```
//!
//! with `τ_sat` the Bianchi saturation curve and `λ_i` the station's
//! frame arrival rate. The system is solved by damped fixed-point
//! iteration with an explicit residual certificate: [`NonSatModel::solve`]
//! either converges (residual below [`NonSatModel::TOLERANCE`] within
//! [`NonSatModel::MAX_ITER`] steps) or returns
//! [`NonSatError::NotConverged`] — it never spins, and the engine
//! router treats a non-converged cell as *uncovered* (simulation keeps
//! it). Heterogeneous loads are first-class: the probe station and the
//! cross-traffic stations carry independent rates, which is exactly
//! the paper's probe-vs-contender asymmetry, and the model reproduces
//! the cross-traffic *degradation* past the knee (a saturating probe
//! slows everyone's service, pushing lightly-loaded contenders over
//! their own knee — the decline Fig 1's event data shows).
//!
//! The mean service time is derived from an attempt-by-attempt backoff
//! chain (counted slots idle with probability `1 − p_i`, otherwise
//! occupied by another station's success or a collision; collided
//! attempts escalate the window),
//! combined with an **empty-queue arrival mixture** matching the event
//! MAC's documented access rules: a frame arriving to an empty queue on
//! an idle medium transmits immediately after DIFS (no backoff); one
//! arriving mid-busy-period first waits out the residual busy time;
//! only frames that found the queue occupied (probability `ρ_i`) walk
//! the full backoff chain from the head-of-queue instant. Without the
//! mixture the model overcharges light stations a full initial backoff
//! per frame and overshoots sub-knee delays by ~15 %. Accuracy is
//! pinned against the event core in
//! `crates/mac/tests/bianchi_nonsat_oracle.rs` (±5 % on throughput and
//! mean access delay across the certified regime matrix).

use csmaprobe_phy::Phy;

/// One station's offered load, as the fixed point sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonSatStation {
    /// Offered (long-run mean) payload rate, bits/s.
    pub rate_bps: f64,
    /// Payload size per frame, bytes.
    pub bytes: u32,
}

/// Per-station solution of the finite-load fixed point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonSatStationSolution {
    /// Per-slot transmission probability (already scaled by `ρ`).
    pub tau: f64,
    /// Conditional collision probability seen by this station.
    pub p: f64,
    /// Queue-occupancy probability `min(1, λ·E[S])`.
    pub rho: f64,
    /// Delivered payload rate, bits/s: `min(λ, 1/E[S]) · L`.
    pub throughput_bps: f64,
    /// Mean MAC access delay of one frame (head-of-queue to ACK end),
    /// seconds — `E[S]`, conditioned on delivery within the retry
    /// limit (the simulators' convention for delay distributions).
    pub mean_access_delay_s: f64,
    /// Whether the station's queue is saturated (`ρ` hit 1).
    pub saturated: bool,
}

/// Why [`NonSatModel::solve`] refused to certify a cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NonSatError {
    /// The damped iteration did not reach the residual bound within
    /// [`NonSatModel::MAX_ITER`] steps; the final residual is reported
    /// so callers can log how far off the certificate was.
    NotConverged {
        /// Iterations performed (always `MAX_ITER` here).
        iterations: usize,
        /// Final fixed-point residual `max_i |τ_target_i − τ_i|`.
        residual: f64,
    },
    /// A station list the model is not defined on (empty, or a
    /// non-positive rate/size).
    BadInput,
}

impl std::fmt::Display for NonSatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NonSatError::NotConverged {
                iterations,
                residual,
            } => write!(
                f,
                "fixed point not converged after {iterations} iterations (residual {residual:e})"
            ),
            NonSatError::BadInput => write!(f, "stations must be non-empty with positive loads"),
        }
    }
}

/// Per-station channel timings, fixed across iterations.
struct Timing {
    /// Arrival rate, frames/s.
    lambda: f64,
    /// Payload bits per frame.
    bits: f64,
    /// Own successful-exchange duration (DIFS + data + SIFS + ACK), s.
    t_s: f64,
    /// Own collided-attempt duration, s.
    t_c: f64,
}

/// Solved finite-load fixed point plus its convergence certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct NonSatModel {
    /// The offered loads the model was solved for, in input order.
    pub stations: Vec<NonSatStation>,
    /// Per-station solution, same order.
    pub per_station: Vec<NonSatStationSolution>,
    /// Aggregate delivered payload rate, bits/s.
    pub throughput_bps: f64,
    /// Iterations the damped fixed point took.
    pub iterations: usize,
    /// Final residual `max_i |τ_target_i − τ_i|` — the convergence
    /// certificate, strictly below [`NonSatModel::TOLERANCE`].
    pub residual: f64,
}

impl NonSatModel {
    /// Hard iteration cap: the solver terminates (converged or
    /// [`NonSatError::NotConverged`]) within this many damped steps.
    pub const MAX_ITER: usize = 10_000;
    /// Residual bound certifying convergence.
    pub const TOLERANCE: f64 = 1e-11;

    /// Solve the coupled `(τ_i, ρ_i)` fixed point for the given
    /// offered loads over `phy`. Deterministic: pure arithmetic on the
    /// inputs, no RNG — safe inside routing predicates.
    pub fn solve(phy: &Phy, stations: &[NonSatStation]) -> Result<NonSatModel, NonSatError> {
        if stations.is_empty()
            || stations
                .iter()
                .any(|s| s.rate_bps <= 0.0 || s.bytes == 0 || !s.rate_bps.is_finite())
        {
            return Err(NonSatError::BadInput);
        }
        let n = stations.len();
        let w = phy.cw_min as f64 + 1.0;
        let m = ((phy.cw_max as f64 + 1.0) / w).log2().round().max(0.0);
        let sigma = phy.slot.as_secs_f64();

        let timing: Vec<Timing> = stations
            .iter()
            .map(|s| Timing {
                lambda: s.rate_bps / (s.bytes as f64 * 8.0),
                bits: s.bytes as f64 * 8.0,
                t_s: phy.difs().as_secs_f64() + phy.success_exchange(s.bytes).as_secs_f64(),
                t_c: phy.difs().as_secs_f64()
                    + phy.data_airtime(s.bytes).as_secs_f64()
                    + phy.sifs.as_secs_f64()
                    + phy.ack_airtime().as_secs_f64(),
            })
            .collect();

        // Mean backoff counter per stage, and the reach probabilities,
        // are re-derived per iteration from p_i; the stage windows are
        // fixed by the PHY.
        let stage_cw: Vec<f64> = (0..=phy.retry_limit)
            .map(|k| phy.cw_at_stage(k) as f64 / 2.0)
            .collect();

        let mut tau = vec![0.0f64; n];
        let mut sol = vec![
            NonSatStationSolution {
                tau: 0.0,
                p: 0.0,
                rho: 0.0,
                throughput_bps: 0.0,
                mean_access_delay_s: 0.0,
                saturated: false,
            };
            n
        ];
        let mut iterations = 0usize;
        let mut residual = f64::INFINITY;

        // Per-station per-iteration chain quantities (pass 1).
        struct Chain {
            p: f64,
            c0: f64, // chain mean entered at stage 0
            c1: f64, // chain mean entered at stage 1 (post immediate-access collision)
        }

        // Per-iteration work buffers, allocated once: the solver sits on
        // the routing hot path (`engine::nonsat_certified` solves per
        // cell), where five fresh `Vec`s per iteration would dominate
        // the per-iteration flop count at small n.
        let mut next = vec![0.0f64; n];
        let mut chains: Vec<Chain> = Vec::with_capacity(n);
        let mut rho_prev: Vec<f64> = Vec::with_capacity(n);
        let mut rush: Vec<(f64, f64, f64)> = Vec::with_capacity(n);
        let mut x: Vec<f64> = Vec::with_capacity(n);

        for iter in 0..Self::MAX_ITER {
            iterations = iter + 1;
            residual = 0.0;
            // Pass 1: collision probabilities and backoff-chain means
            // for every station from the current τ vector.
            chains.clear();
            chains.extend((0..n).map(|i| {
                // Collision probability and the busy-slot mix seen by i.
                let mut prod_others = 1.0;
                for (j, &t) in tau.iter().enumerate() {
                    if j != i {
                        prod_others *= 1.0 - t;
                    }
                }
                let p_i = (1.0 - prod_others).clamp(0.0, 1.0);
                // P(exactly one other station transmits) and the mean
                // success duration of that station's exchange.
                let mut single = 0.0;
                let mut single_ts = 0.0;
                let mut coll_tc: f64 = 0.0;
                for j in 0..n {
                    if j == i {
                        continue;
                    }
                    let others = if tau[j] < 1.0 {
                        prod_others / (1.0 - tau[j])
                    } else {
                        // τ_j = 1 collapses the product; recompute.
                        let mut q = 1.0;
                        for (k, &t) in tau.iter().enumerate() {
                            if k != i && k != j {
                                q *= 1.0 - t;
                            }
                        }
                        q
                    };
                    let ps_j = tau[j] * others;
                    single += ps_j;
                    single_ts += ps_j * timing[j].t_s;
                    coll_tc = coll_tc.max(timing[j].t_c);
                }
                let q_s = if p_i > 0.0 {
                    (single / p_i).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                let t_s_busy = if single > 0.0 {
                    single_ts / single
                } else {
                    timing[i].t_s
                };
                let t_c_busy = if coll_tc > 0.0 {
                    coll_tc
                } else {
                    timing[i].t_c
                };

                // Mean counted-slot duration; chain means entered at
                // stage 0 (queued frame) and stage 1 (a frame whose
                // immediate access collided and now backs off).
                let slot = (1.0 - p_i) * sigma + p_i * (q_s * t_s_busy + (1.0 - q_s) * t_c_busy);
                let c0 = chain_mean(&stage_cw, 0, p_i, slot, timing[i].t_c, timing[i].t_s);
                let c1 = chain_mean(&stage_cw, 1, p_i, slot, timing[i].t_c, timing[i].t_s);
                Chain { p: p_i, c0, c1 }
            }));

            // Queue occupancies from the previous iterate weight the
            // post-busy rush (zero on the first pass).
            rho_prev.clear();
            rho_prev.extend(sol.iter().map(|s| s.rho));

            // Post-busy rush context per station: a chain that starts
            // right after a busy period (a queued frame after our own
            // exchange, or an arrival that waited out a residual) faces
            // rivals whose frames were deferred by that very busy
            // period — conditional contention the long-run per-slot τ
            // cannot express. Each unsaturated rival j is present with
            // probability ≈ min(1, λ_j·T_window), wins the first
            // contention with probability β ≈ ½, and its winning
            // exchange defers further arrivals (geometric compounding).
            // Saturated rivals are already fully charged by the
            // mean-field p (τ_sat per slot), so the rush counts only
            // the (1−ρ_j)-weighted excess.
            const BETA: f64 = 0.5;
            rush.clear();
            rush.extend((0..n).map(|i| {
                let mut rush_rate = 0.0;
                let mut rush_ts = 0.0;
                for (j, t) in timing.iter().enumerate() {
                    if j != i {
                        rush_rate += t.lambda;
                        rush_ts += t.lambda * t.t_s;
                    }
                }
                let t_rush = if rush_rate > 0.0 {
                    rush_ts / rush_rate
                } else {
                    0.0
                };
                let mut compound = 0.0;
                let mut present_q = 0.0;
                for j in 0..n {
                    if j == i {
                        continue;
                    }
                    let excess = (1.0 - rho_prev[j]).clamp(0.0, 1.0);
                    compound += excess * BETA * (timing[j].lambda * t_rush).min(1.0);
                    present_q += excess * BETA * (timing[j].lambda * timing[i].t_s).min(1.0);
                }
                let compound = compound.min(0.9);
                (t_rush, compound, present_q / (1.0 - compound) * t_rush)
            }));

            // Delivered frame rates bound the channel-busy view: an
            // unsaturated station delivers its arrivals, a saturated
            // one delivers at its queued-service rate (chain + rush).
            x.clear();
            x.extend((0..n).map(|j| timing[j].lambda.min(1.0 / (chains[j].c0 + rush[j].2))));

            // Mean duration of one global channel slot (idle / success
            // by station j / collision), from the current τ vector —
            // the time base of the attempt-rate balance below.
            let mut p_idle = 1.0;
            for &t in &tau {
                p_idle *= 1.0 - t;
            }
            let mut p_succ = 0.0;
            let mut succ_ts = 0.0;
            let mut t_c_glob: f64 = 0.0;
            for j in 0..n {
                let others = if tau[j] < 1.0 {
                    p_idle / (1.0 - tau[j])
                } else {
                    let mut q = 1.0;
                    for (k, &t) in tau.iter().enumerate() {
                        if k != j {
                            q *= 1.0 - t;
                        }
                    }
                    q
                };
                let ps_j = tau[j] * others;
                p_succ += ps_j;
                succ_ts += ps_j * timing[j].t_s;
                t_c_glob = t_c_glob.max(timing[j].t_c);
            }
            let p_coll = (1.0 - p_idle - p_succ).max(0.0);
            let slot_global = p_idle * sigma + succ_ts + p_coll * t_c_glob;

            // Pass 2: empty-queue arrival mixture, post-busy rush,
            // queue occupancy and the τ update.
            for i in 0..n {
                let p_i = chains[i].p;
                let (t_rush, compound, rush_q) = rush[i];
                // Wall-clock fraction the channel is busy with OTHER
                // stations' successful exchanges, and the mean residual
                // of the busy period an arrival lands in.
                let mut busy = 0.0;
                let mut busy_sq = 0.0;
                for j in 0..n {
                    if j != i {
                        busy += x[j] * timing[j].t_s;
                        busy_sq += x[j] * timing[j].t_s * timing[j].t_s;
                    }
                }
                let u = busy.clamp(0.0, 1.0);
                let resid_busy = if busy > 0.0 {
                    busy_sq / (2.0 * busy)
                } else {
                    0.0
                };

                // Rush faced after waiting out a residual busy period:
                // same geometry as `rush_q` with the length-biased busy
                // duration as the deferral window.
                let t_busy_bar = if busy > 0.0 { busy_sq / busy } else { 0.0 };
                let mut present_b = 0.0;
                for j in 0..n {
                    if j == i {
                        continue;
                    }
                    let excess = (1.0 - rho_prev[j]).clamp(0.0, 1.0);
                    present_b += excess * BETA * (timing[j].lambda * t_busy_bar).min(1.0);
                }
                let rush_b = present_b / (1.0 - compound) * t_rush;

                // Delay of a frame that found the queue occupied: the
                // full backoff chain plus the rush its predecessor's
                // exchange provoked.
                let queued = chains[i].c0 + rush_q;
                // Delay of a frame that arrived to an empty queue:
                // idle medium → immediate access after DIFS (collides
                // with probability p and falls into the stage-1 chain);
                // busy medium → residual busy wait, then the chain
                // against the deferred rush.
                let empty = (1.0 - u)
                    * ((1.0 - p_i) * timing[i].t_s + p_i * (timing[i].t_c + chains[i].c1))
                    + u * (resid_busy + chains[i].c0 + rush_b);
                // E[S] = ρ·queued + (1−ρ)·empty with ρ = λ·E[S] solves
                // in closed form; a non-positive denominator or ρ ≥ 1
                // means the queue cannot drain: saturated.
                let denom = 1.0 - timing[i].lambda * (queued - empty);
                let (rho, service) = if timing[i].lambda * queued >= 1.0 || denom <= 0.0 {
                    (1.0, queued)
                } else {
                    let d = empty / denom;
                    let r = timing[i].lambda * d;
                    if r >= 1.0 {
                        (1.0, queued)
                    } else {
                        (r, d)
                    }
                };

                // Attempt-rate balance: an unsaturated station's
                // successful attempts per global slot equal its arrival
                // rate per slot, `τ(1−p) = λ·E[slot]` — throughput
                // conservation in the slotted view. A saturated station
                // attempts at Bianchi's `τ_sat(p)`, which also caps the
                // unsaturated rate at the knee.
                let tau_sat = saturated_tau(p_i, w, m);
                let tau_bal = timing[i].lambda * slot_global / (1.0 - p_i).max(1e-9);
                let target = if rho >= 1.0 {
                    tau_sat
                } else {
                    tau_bal.min(tau_sat)
                }
                .clamp(0.0, 1.0 - 1e-9);
                residual = residual.max((target - tau[i]).abs());
                next[i] = tau[i] + 0.5 * (target - tau[i]);

                sol[i] = NonSatStationSolution {
                    tau: next[i],
                    p: p_i,
                    rho,
                    throughput_bps: x[i] * timing[i].bits,
                    mean_access_delay_s: service,
                    saturated: rho >= 1.0,
                };
            }
            std::mem::swap(&mut tau, &mut next);
            if residual < Self::TOLERANCE {
                let throughput = sol.iter().map(|s| s.throughput_bps).sum();
                return Ok(NonSatModel {
                    stations: stations.to_vec(),
                    per_station: sol,
                    throughput_bps: throughput,
                    iterations,
                    residual,
                });
            }
        }
        Err(NonSatError::NotConverged {
            iterations,
            residual,
        })
    }

    /// Whether the solved model's **delay** figures for `station` are
    /// within the measured ±5 % oracle tolerance.
    ///
    /// Throughput is certified whenever the solver converges (measured
    /// ≤ ~4 % everywhere); mean access delay is not. Between roughly
    /// 70 % and 100 % aggregate utilisation the event dynamics are
    /// dominated by queue-buildup excursions — the very transient the
    /// paper studies (its Figs 4–6 "transitory periods") — which a
    /// mean-field fixed point structurally underestimates (measured
    /// −13…−49 % at the knee). The measured boundary: a *saturated*
    /// station's delay is fine (its chain never waits on its own
    /// arrivals; ≤ 4 % across the above-knee row), and unsaturated
    /// stations are fine while the summed occupancy of all unsaturated
    /// stations stays below ~0.8 (≤ 5 % across the light/mid rows;
    /// first failures appear at Σρ ≈ 1.0). See EXPERIMENTS.md for the
    /// full measured ladder.
    pub fn delay_certified(&self, station: usize) -> bool {
        if self.per_station[station].saturated {
            return true;
        }
        let rho_unsat: f64 = self
            .per_station
            .iter()
            .filter(|s| !s.saturated)
            .map(|s| s.rho)
            .sum();
        rho_unsat <= 0.8
    }
}

/// Conditional mean of the backoff chain entered at `entry` (success
/// at stage `k ≥ entry` with probability `p^(k−entry)·(1−p)`,
/// conditioned on delivery within the retry limit): mean counted
/// backoff slots times the mean slot duration, plus collided-attempt
/// airtimes, plus the final successful exchange.
fn chain_mean(stage_cw: &[f64], entry: usize, p: f64, slot: f64, t_c: f64, t_s: f64) -> f64 {
    let mut cum_backoff = 0.0; // Σ_{entry<=j<=k} E[b_j]
    let mut s_backoff = 0.0; // Σ_k p^(k−entry)(1−p) Σ_j E[b_j]
    let mut s_colls = 0.0; // Σ_k p^(k−entry)(1−p) (k−entry)
    let mut p_pow = 1.0;
    for (k, &eb) in stage_cw.iter().enumerate().skip(entry) {
        cum_backoff += eb;
        let wgt = p_pow * (1.0 - p);
        s_backoff += wgt * cum_backoff;
        s_colls += wgt * (k - entry) as f64;
        p_pow *= p;
    }
    let p_deliver = (1.0 - p_pow).max(1e-12);
    (s_backoff * slot + s_colls * t_c) / p_deliver + t_s
}

/// Bianchi's saturation curve `τ_sat(p)` for window `W` and `m`
/// doublings — what a station's transmission probability would be if
/// its queue never emptied.
fn saturated_tau(p: f64, w: f64, m: f64) -> f64 {
    let denom = (1.0 - 2.0 * p) * (w + 1.0) + p * w * (1.0 - (2.0 * p).powf(m));
    if denom.abs() < 1e-30 {
        2.0 / (w + 1.0)
    } else {
        (2.0 * (1.0 - 2.0 * p) / denom).clamp(1e-9, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bianchi::BianchiModel;
    use csmaprobe_phy::Phy;

    fn phy() -> Phy {
        Phy::dsss_11mbps()
    }

    fn sym(n: usize, rate_bps: f64) -> Vec<NonSatStation> {
        vec![
            NonSatStation {
                rate_bps,
                bytes: 1500,
            };
            n
        ]
    }

    #[test]
    fn light_load_delivers_offered_rate() {
        // Two stations at 1 Mb/s each on a ~6.2 Mb/s channel: both far
        // from their knees, so delivered == offered and ρ ≪ 1.
        let m = NonSatModel::solve(&phy(), &sym(2, 1e6)).unwrap();
        for s in &m.per_station {
            assert!(!s.saturated);
            assert!(s.rho < 0.6, "rho {}", s.rho);
            assert!((s.throughput_bps - 1e6).abs() < 1.0, "{}", s.throughput_bps);
        }
        assert!(m.residual < NonSatModel::TOLERANCE);
    }

    #[test]
    fn saturated_symmetric_recovers_bianchi() {
        // All stations offered far above capacity: ρ = 1 everywhere and
        // the fixed point must collapse to Bianchi's saturated (τ, p).
        for n in [2usize, 5, 10] {
            let sat = BianchiModel::solve(&phy(), n, 1500);
            let m = NonSatModel::solve(&phy(), &sym(n, 20e6)).unwrap();
            for s in &m.per_station {
                assert!(s.saturated, "n={n}");
                assert!(
                    (s.tau - sat.tau).abs() < 1e-6,
                    "n={n}: {} vs {}",
                    s.tau,
                    sat.tau
                );
                assert!((s.p - sat.p).abs() < 1e-6, "n={n}");
            }
            // Aggregate throughput within the analytic family's own
            // spread (chain-mean vs slot-mean derivations differ by a
            // few %; both are pinned to the event core at ±5 %).
            let rel = (m.throughput_bps - sat.throughput_bps).abs() / sat.throughput_bps;
            assert!(
                rel < 0.05,
                "n={n}: {} vs {}",
                m.throughput_bps,
                sat.throughput_bps
            );
        }
    }

    #[test]
    fn heterogeneous_knee_degrades_the_loaded_station() {
        // The Fig 1 mechanism: a light probe leaves the 4.5 Mb/s
        // contender its full rate; a saturating probe pushes the
        // contender over its knee and both settle near the fair share.
        let light = NonSatModel::solve(
            &phy(),
            &[
                NonSatStation {
                    rate_bps: 1e6,
                    bytes: 1500,
                },
                NonSatStation {
                    rate_bps: 4.5e6,
                    bytes: 1500,
                },
            ],
        )
        .unwrap();
        assert!((light.per_station[0].throughput_bps - 1e6).abs() < 1.0);
        assert!(
            light.per_station[1].throughput_bps > 4.2e6,
            "contender degraded too early: {}",
            light.per_station[1].throughput_bps
        );

        let heavy = NonSatModel::solve(
            &phy(),
            &[
                NonSatStation {
                    rate_bps: 9e6,
                    bytes: 1500,
                },
                NonSatStation {
                    rate_bps: 4.5e6,
                    bytes: 1500,
                },
            ],
        )
        .unwrap();
        assert!(heavy.per_station[0].saturated);
        assert!(
            heavy.per_station[1].throughput_bps < 0.9 * 4.5e6,
            "contender must degrade past the knee: {}",
            heavy.per_station[1].throughput_bps
        );
        // Fair-share region: both within the Bianchi n=2 neighbourhood.
        let fair = BianchiModel::solve(&phy(), 2, 1500).fair_share_bps;
        for s in &heavy.per_station {
            assert!(
                (s.throughput_bps - fair).abs() / fair < 0.15,
                "{} vs fair {fair}",
                s.throughput_bps
            );
        }
    }

    #[test]
    fn mean_delay_grows_with_contention() {
        let lone = NonSatModel::solve(&phy(), &sym(1, 1e6)).unwrap();
        let duo = NonSatModel::solve(&phy(), &sym(2, 2.5e6)).unwrap();
        assert!(duo.per_station[0].mean_access_delay_s > lone.per_station[0].mean_access_delay_s);
        // A lone light station mostly gets immediate access (empty
        // queue, idle channel → DIFS + exchange, no backoff); the rare
        // queued frame pays the initial backoff too. Closed form:
        // E[S] = t_s / (1 − λ·E[b₀]·σ).
        let t_s = phy().difs().as_secs_f64() + phy().success_exchange(1500).as_secs_f64();
        let backoff0 = 15.5 * phy().slot.as_secs_f64();
        let lambda = 1e6 / (1500.0 * 8.0);
        let expect = t_s / (1.0 - lambda * backoff0);
        let rel = (lone.per_station[0].mean_access_delay_s - expect).abs() / expect;
        assert!(
            rel < 1e-9,
            "lone delay {} vs {expect}",
            lone.per_station[0].mean_access_delay_s
        );
        // And it sits strictly between the no-backoff and full-backoff
        // cycles.
        assert!(lone.per_station[0].mean_access_delay_s > t_s);
        assert!(lone.per_station[0].mean_access_delay_s < t_s + backoff0);
    }

    #[test]
    fn bad_input_is_reported_not_panicked() {
        assert_eq!(
            NonSatModel::solve(&phy(), &[]).unwrap_err(),
            NonSatError::BadInput
        );
        assert_eq!(
            NonSatModel::solve(
                &phy(),
                &[NonSatStation {
                    rate_bps: -1.0,
                    bytes: 1500
                }]
            )
            .unwrap_err(),
            NonSatError::BadInput
        );
    }
}
