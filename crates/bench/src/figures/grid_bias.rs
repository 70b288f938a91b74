//! Cross-tool grid experiment (extra experiment E14): the paper's
//! §7.2 tool-bias comparison as **one** link × train × tool grid
//! invocation — 3 links × 3 train shapes × 2 tools as one
//! `core::sweep` run of [`BiasGrid`], instead of one hand-written
//! experiment per pairing.
//!
//! The claims it pins, per axis:
//! * on the wired link both tools read the FIFO quantities they were
//!   designed for (SLoPS ≈ A; train dispersion ≈ the eq (1) saturated
//!   output rate);
//! * on the high-contention CSMA/CA link every tool reads the
//!   achievable throughput `B ≫ A` — the bias exists across tool
//!   families, not just one;
//! * shorter trains push the estimate further up on CSMA/CA links (the
//!   §5.3 transient inflation), while wired estimates barely move with
//!   train length.

use crate::grid::{find_link, find_train, BiasGrid, GridRow};
use crate::report::FigureReport;
use csmaprobe_core::sweep::run_sweep;
use csmaprobe_probe::tool::ToolKind;

/// Run the experiment.
pub fn run(scale: f64, seed: u64) -> FigureReport {
    let mut rep = FigureReport::new(
        "grid_bias",
        "Tool bias across the link × train × tool grid",
        "FIFO-era tools read A (SLoPS) or the eq (1) saturated rate (trains) on the \
         wired link, but the achievable throughput B >> A on the high-contention \
         CSMA/CA link, with short trains inflating the estimate further",
        &[
            "link_idx",
            "train_n",
            "tool_idx",
            "est_mbps",
            "ci95_mbps",
            "true_A_mbps",
            "failed",
        ],
    );

    let links = vec![
        find_link("wired").expect("catalog"),
        find_link("wlan_low").expect("catalog"),
        find_link("wlan_mid").expect("catalog"),
    ];
    let trains = vec![
        find_train("short").expect("catalog"),
        find_train("mid").expect("catalog"),
        find_train("long").expect("catalog"),
    ];
    let tools = vec![ToolKind::Train, ToolKind::Slops];
    let grid = BiasGrid::new(links.clone(), trains, tools, scale, seed);
    let rows = run_sweep(&grid);

    for row in &rows {
        let coord = [
            links.iter().position(|l| l.name == row.link).unwrap(),
            row.n,
            if row.tool == ToolKind::Train { 0 } else { 1 },
        ];
        rep.row(vec![
            coord[0] as f64,
            coord[1] as f64,
            coord[2] as f64,
            row.mean_bps / 1e6,
            row.ci95_bps / 1e6,
            row.available_bps / 1e6,
            row.failed as f64,
        ]);
    }
    for l in &links {
        rep.scalar(&format!("A_{}_mbps", l.name), l.available_bps() / 1e6);
    }

    // Row lookup by (link, train, tool).
    let cell = |link: &str, train: &str, tool: ToolKind| -> &GridRow {
        rows.iter()
            .find(|r| r.link == link && r.train == train && r.tool == tool)
            .expect("cell present")
    };
    let a_wired = find_link("wired").unwrap().available_bps();
    let a_mid = find_link("wlan_mid").unwrap().available_bps();

    let w_slops = cell("wired", "long", ToolKind::Slops).mean_bps;
    rep.check(
        "wired SLoPS finds A",
        (w_slops - a_wired).abs() / a_wired < 0.3,
        format!("{:.2} vs A {:.2} Mb/s", w_slops / 1e6, a_wired / 1e6),
    );

    // Saturating 10 Mb/s trains on the wired link: eq (1) gives
    // ro = C·ri/(ri + C − A) = 10·10/14 ≈ 7.1 Mb/s — above A, below C.
    let w_train = cell("wired", "long", ToolKind::Train).mean_bps;
    rep.check(
        "wired trains read the eq (1) saturated rate, not A",
        (6.2e6..8.2e6).contains(&w_train) && w_train > 1.05 * a_wired,
        format!("{:.2} Mb/s vs A {:.2}", w_train / 1e6, a_wired / 1e6),
    );

    // The §7.2 core claim, across both tool families: on the Fig 1
    // CSMA/CA link (A ≈ 1.7 Mb/s) every estimate lands far above A.
    for tool in [ToolKind::Train, ToolKind::Slops] {
        let est = cell("wlan_mid", "long", tool).mean_bps;
        rep.check(
            &format!("wlan_mid {tool} reads B, far above A"),
            est > 1.3 * a_mid && est < 5.5e6,
            format!("{:.2} vs A {:.2} Mb/s", est / 1e6, a_mid / 1e6),
        );
    }

    // §5.3: the access-delay transient inflates short-train dispersion
    // estimates on CSMA/CA links; wired estimates barely move.
    for link in ["wlan_low", "wlan_mid"] {
        let short = cell(link, "short", ToolKind::Train).mean_bps;
        let long = cell(link, "long", ToolKind::Train).mean_bps;
        rep.check(
            &format!("{link} short trains overestimate long trains"),
            short > 1.05 * long,
            format!("short {:.2} vs long {:.2} Mb/s", short / 1e6, long / 1e6),
        );
    }
    let w_short = cell("wired", "short", ToolKind::Train).mean_bps;
    let w_long = cell("wired", "long", ToolKind::Train).mean_bps;
    rep.check(
        "wired train estimate shape-stable in train length",
        (w_short - w_long).abs() / w_long < 0.25,
        format!(
            "short {:.2} vs long {:.2} Mb/s",
            w_short / 1e6,
            w_long / 1e6
        ),
    );

    rep.check(
        "every cell produced an estimate",
        rows.iter().all(|r| r.mean_bps.is_finite()),
        format!(
            "{} failed runs across {} cells",
            rows.iter().map(|r| r.failed).sum::<usize>(),
            rows.len()
        ),
    );

    rep
}

#[cfg(test)]
mod tests {
    #[test]
    fn grid_bias_holds_at_small_scale() {
        let rep = super::run(0.3, 54);
        assert!(rep.all_passed(), "{}", rep.render());
    }
}
