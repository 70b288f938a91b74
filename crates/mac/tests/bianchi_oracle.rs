//! Bianchi model vs the saturated event simulation — the analytic
//! tier's accuracy contract.
//!
//! The engine router (`csmaprobe_core::engine`) substitutes
//! [`BianchiModel`] for a full event simulation on saturated symmetric
//! cells. These tests pin that substitution to the event-core oracle:
//!
//! * **Documented tolerance**: aggregate saturation throughput and the
//!   mean access delay of the analytic model stay within **5 %** of a
//!   long fixed-seed event simulation for n ∈ {2, 4, 8} saturated
//!   stations. The residual comes from effects the model ignores by
//!   construction (retry-limit drops, post-drop window reset, the
//!   tagged station's sub-slot position inside busy slots) — see the
//!   module docs of `csmaprobe_mac::bianchi`.
//! * **Regression pins**: the solved fixed point `(τ, p)` and the
//!   saturation throughput, bit for bit.

use csmaprobe_desim::time::Time;
use csmaprobe_mac::{saturated_source, BianchiModel, WlanSim};
use csmaprobe_phy::Phy;

const PAYLOAD: u32 = 1500;

/// Run `n` saturated stations for `packets` frames each and return
/// (aggregate throughput bps, mean access delay s) over the whole run.
fn saturated_event(n: usize, packets: usize, seed: u64) -> (f64, f64) {
    let phy = Phy::dsss_11mbps();
    let mut sim = WlanSim::new(phy, seed);
    let ids: Vec<_> = (0..n)
        .map(|_| sim.add_station(saturated_source(PAYLOAD, packets)))
        .collect();
    let out = sim.run(Time::MAX);

    let mut bits = 0u64;
    let mut last_done = Time::ZERO;
    let mut delay_sum = 0.0;
    let mut delay_n = 0usize;
    for &id in &ids {
        for r in out.records(id) {
            if !r.dropped {
                bits += r.bytes as u64 * 8;
                last_done = last_done.max(r.done);
            }
        }
        let d = out.access_delays_s(id);
        delay_n += d.len();
        delay_sum += d.iter().sum::<f64>();
    }
    (
        bits as f64 / last_done.as_secs_f64(),
        delay_sum / delay_n as f64,
    )
}

#[test]
fn throughput_within_five_percent_of_event_sim() {
    for &n in &[2usize, 4, 8] {
        let model = BianchiModel::solve(&Phy::dsss_11mbps(), n, PAYLOAD);
        let (sim_bps, _) = saturated_event(n, 4000, 0xB1A5 + n as u64);
        let rel = (model.throughput_bps - sim_bps).abs() / sim_bps;
        assert!(
            rel < 0.05,
            "n={n}: model {:.0} vs sim {sim_bps:.0} bps (rel {rel:.4})",
            model.throughput_bps
        );
    }
}

#[test]
fn mean_access_delay_within_five_percent_of_event_sim() {
    for &n in &[2usize, 4, 8] {
        let model = BianchiModel::solve(&Phy::dsss_11mbps(), n, PAYLOAD);
        let (_, sim_mu) = saturated_event(n, 4000, 0xDE1A + n as u64);
        let rel = (model.mean_access_delay_s - sim_mu).abs() / sim_mu;
        assert!(
            rel < 0.05,
            "n={n}: model {:.6} vs sim {sim_mu:.6} s (rel {rel:.4})",
            model.mean_access_delay_s
        );
    }
}

#[test]
fn fixed_seed_regression_vector() {
    // Bit-exact pins. If a refactor legitimately changes the
    // fixed-point arithmetic, re-derive these with `cargo test --
    // --nocapture` and bump them together with a CHANGES.md note.
    let phy = Phy::dsss_11mbps();
    let model = BianchiModel::solve(&phy, 4, PAYLOAD);
    assert!(
        (model.tau - 0.050653753318434).abs() < 1e-12,
        "tau pin: got {:.15}",
        model.tau
    );
    assert!(
        (model.p - 0.144393819317876).abs() < 1e-12,
        "p pin: got {:.15}",
        model.p
    );
    assert!(
        (model.throughput_bps - 6_526_746.139_597).abs() < 1e-3,
        "throughput pin: got {:.6}",
        model.throughput_bps
    );
}
