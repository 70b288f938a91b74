//! Integration: the DCF simulator on the 802.11g OFDM PHY — coverage
//! beyond the paper's 802.11b scope.

use csmaprobe::mac::{measured_standalone_capacity_bps, BianchiModel};
use csmaprobe::phy::Phy;

#[test]
fn ofdm_saturation_matches_bianchi() {
    // 802.11g at 54 Mb/s: the classic ~50% MAC efficiency result, and
    // the simulator must agree with Bianchi's model there too.
    let phy = Phy::ofdm_g(54_000_000);
    let sim_c = measured_standalone_capacity_bps(&phy, 1500, 3000, 47);
    let model = BianchiModel::solve(&phy, 1, 1500);
    let rel = (sim_c - model.throughput_bps).abs() / model.throughput_bps;
    assert!(
        rel < 0.02,
        "sim {sim_c:.0} vs Bianchi {:.0}",
        model.throughput_bps
    );
    // Classic ballpark: 1500-byte UDP over 54 Mb/s OFDM ≈ 26-32 Mb/s.
    assert!(
        (24e6..34e6).contains(&sim_c),
        "OFDM capacity {sim_c:.0} out of the classic band"
    );
}

#[test]
fn ofdm_two_station_fairness() {
    use csmaprobe::desim::time::Time;
    use csmaprobe::mac::{saturated_source, WlanSim};
    let mut sim = WlanSim::new(Phy::ofdm_g(54_000_000), 49);
    let a = sim.add_station(saturated_source(1500, 2000));
    let b = sim.add_station(saturated_source(1500, 2000));
    let out = sim.run(Time::MAX);
    let horizon = out
        .records(a)
        .last()
        .unwrap()
        .done
        .min(out.records(b).last().unwrap().done);
    let ta = out.throughput_bps(a, horizon);
    let tb = out.throughput_bps(b, horizon);
    assert!((ta - tb).abs() / (ta + tb) < 0.05, "{ta} vs {tb}");
    // With CWmin 15 (vs 31 on 11b), collisions are more frequent.
    assert!(out.collisions > 0);
}
