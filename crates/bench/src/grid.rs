//! The link × train × tool scenario grid: named axis catalogs, the
//! single-point axis parsers, and the [`BiasGrid`] scenario they
//! compose into.
//!
//! This is the paper's experiment matrix as one schedulable object:
//! every cell is "run tool T with train shape N over link L", and
//! [`BiasGrid`] is a [`SweepScenario`] over the flattened cell space
//! (link-major, tool fastest). Cells are seeded by name, not position,
//! so a cell's row is the same whichever other axis points are
//! selected, and in whatever order. The `grid_bias` figure runs the
//! 3 × 3 × 2 grid of the §7.2 claims from the catalogs; `csmaprobe
//! serve` resolves each session's link, train and tool fields through
//! [`parse_link`], [`parse_train`] and [`parse_tool`], each of which
//! names exactly one point (a comma list is refused), and runs that one
//! cell with the same tool constants.

use crate::scaled;
use crate::scenarios::{self, FRAME};
use csmaprobe_core::link::{
    LinkConfig, ProbeTarget, TrainObservation, WiredLink, WlanLink, MAX_INLINE_BPS,
    MAX_TRAIN_PACKETS, MIN_WIRED_CAPACITY_BPS,
};
use csmaprobe_core::sweep::SweepScenario;
use csmaprobe_desim::rng::derive_seed;
use csmaprobe_desim::time::Dur;
use csmaprobe_probe::tool::{ToolKind, ToolProbe};
use csmaprobe_stats::accumulate::Accumulate;
use csmaprobe_stats::online::OnlineStats;
use std::borrow::Cow;

/// Probing rate of the plain train tool, bits/s: saturating, so its
/// dispersion reads the achievable throughput (§5.2).
pub const TRAIN_TOOL_RATE_BPS: f64 = 10e6;

/// A link either tool family can probe (the link axis currency).
#[derive(Clone)]
pub enum GridTarget {
    /// Classic FIFO path.
    Wired(WiredLink),
    /// CSMA/CA WLAN link.
    Wlan(WlanLink),
}

impl ProbeTarget for GridTarget {
    fn probe_train(
        &self,
        train: csmaprobe_traffic::probe::ProbeTrain,
        seed: u64,
    ) -> TrainObservation {
        match self {
            GridTarget::Wired(l) => l.probe_train(train, seed),
            GridTarget::Wlan(l) => l.probe_train(train, seed),
        }
    }

    fn probe_sequence(&self, offsets: &[Dur], bytes: u32, seed: u64) -> TrainObservation {
        match self {
            GridTarget::Wired(l) => l.probe_sequence(offsets, bytes, seed),
            GridTarget::Wlan(l) => l.probe_sequence(offsets, bytes, seed),
        }
    }

    fn probe_bytes(&self) -> u32 {
        match self {
            GridTarget::Wired(l) => l.probe_bytes(),
            GridTarget::Wlan(l) => l.probe_bytes(),
        }
    }
}

/// How a [`LinkPoint`] builds its target.
#[derive(Debug, Clone, Copy)]
enum LinkKind {
    Wired { capacity_bps: f64, cross_bps: f64 },
    Wlan { contending_bps: f64, fifo_bps: f64 },
}

/// One named point of the link axis. A catalog point borrows its
/// name; an inline spec owns its canonical name, so the point frees it
/// when dropped.
#[derive(Debug, Clone)]
pub struct LinkPoint {
    /// Catalog name (what a `link` field matches), or an inline spec's
    /// canonical name.
    pub name: Cow<'static, str>,
    kind: LinkKind,
}

impl LinkPoint {
    /// Build the runnable target.
    pub fn build(&self) -> GridTarget {
        match self.kind {
            LinkKind::Wired {
                capacity_bps,
                cross_bps,
            } => GridTarget::Wired(WiredLink::new(capacity_bps, cross_bps)),
            LinkKind::Wlan {
                contending_bps,
                fifo_bps,
            } => {
                let mut cfg = LinkConfig::default().contending_bps(contending_bps);
                if fifo_bps > 0.0 {
                    cfg = cfg.fifo_cross_bps(fifo_bps);
                }
                GridTarget::Wlan(WlanLink::new(cfg))
            }
        }
    }

    /// The true available bandwidth `A = C − cross` of this link,
    /// bits/s (measured stand-alone capacity for WLAN links).
    pub fn available_bps(&self) -> f64 {
        match self.kind {
            LinkKind::Wired {
                capacity_bps,
                cross_bps,
            } => (capacity_bps - cross_bps).max(0.0),
            LinkKind::Wlan {
                contending_bps,
                fifo_bps,
            } => (scenarios::capacity_bps(FRAME) - contending_bps - fifo_bps).max(0.0),
        }
    }
}

/// The link-axis catalog: the paper's FIFO baseline plus CSMA/CA
/// links at increasing contention, and the Fig 4 "complete picture"
/// variant with FIFO cross-traffic in the probe queue.
const LINKS: &[LinkPoint] = &[
    // FIFO path, C = 10, cross 4 Mb/s (A = 6).
    LinkPoint {
        name: Cow::Borrowed("wired"),
        kind: LinkKind::Wired {
            capacity_bps: 10e6,
            cross_bps: 4e6,
        },
    },
    // 802.11b, one contender at 2 Mb/s.
    LinkPoint {
        name: Cow::Borrowed("wlan_low"),
        kind: LinkKind::Wlan {
            contending_bps: 2e6,
            fifo_bps: 0.0,
        },
    },
    // 802.11b, one contender at 4.5 Mb/s (the Fig 1 link).
    LinkPoint {
        name: Cow::Borrowed("wlan_mid"),
        kind: LinkKind::Wlan {
            contending_bps: scenarios::FIG1_CROSS_BPS,
            fifo_bps: 0.0,
        },
    },
    // 802.11b, contender 3 Mb/s + FIFO cross 1.5 Mb/s (Fig 4).
    LinkPoint {
        name: Cow::Borrowed("wlan_fifo"),
        kind: LinkKind::Wlan {
            contending_bps: 3e6,
            fifo_bps: 1.5e6,
        },
    },
];

/// One named point of the train-shape axis; its name is borrowed or
/// owned as for [`LinkPoint`].
#[derive(Debug, Clone)]
pub struct TrainPoint {
    /// Catalog name (what a `train` field matches), or an inline spec's
    /// canonical name.
    pub name: Cow<'static, str>,
    /// Packets per train.
    pub n: usize,
}

/// The train-shape catalog: the short trains real tools send (and the
/// transient bites hardest on), up to trains long enough to wash the
/// transient out (§5.3).
const TRAINS: &[TrainPoint] = &[
    TrainPoint {
        name: Cow::Borrowed("short"),
        n: 5,
    },
    TrainPoint {
        name: Cow::Borrowed("mid"),
        n: 20,
    },
    TrainPoint {
        name: Cow::Borrowed("long"),
        n: 100,
    },
];

/// Look up a link-axis point by name.
pub fn find_link(name: &str) -> Option<LinkPoint> {
    LINKS
        .iter()
        .find(|l| l.name.eq_ignore_ascii_case(name.trim()))
        .cloned()
}

/// Look up a train-axis point by name.
pub fn find_train(name: &str) -> Option<TrainPoint> {
    TRAINS
        .iter()
        .find(|t| t.name.eq_ignore_ascii_case(name.trim()))
        .cloned()
}

/// Parse one `key=value` bits/s parameter of an inline link spec.
fn parse_bps(part: &str) -> Result<(String, f64), String> {
    let (key, value) = part
        .split_once('=')
        .ok_or_else(|| format!("malformed link parameter {part:?} (expected key=value)"))?;
    let (key, value) = (key.trim(), value.trim());
    let bps: f64 = value
        .parse()
        .map_err(|_| format!("link parameter {key}={value:?} is not a number"))?;
    if !bps.is_finite() || bps < 0.0 {
        return Err(format!("link parameter {key}={value} out of range"));
    }
    if bps > MAX_INLINE_BPS {
        return Err(format!(
            "link parameter {key}={value} is above the bound of {MAX_INLINE_BPS:e} bits/s"
        ));
    }
    Ok((key.to_ascii_lowercase(), bps))
}

/// Parse one link-axis point: a catalog name (`wired`, `wlan_low`,
/// `wlan_mid`, `wlan_fifo`, in any case) or one **inline spec**,
/// `wlan:cross=<bps>,fifo=<bps>` or `wired:capacity=<bps>,cross=<bps>`,
/// its parameters in any order and absent ones at their defaults. An
/// inline point is named **canonically**, every parameter spelled out
/// from its parsed value, so the same spec in any notation (`6e6` vs
/// `6000000`) names, keys and seeds the same cell as a catalog name
/// does.
///
/// Every inline bits/s value must lie in 0 ..= [`MAX_INLINE_BPS`], and a
/// wired capacity must be at least [`MIN_WIRED_CAPACITY_BPS`]: these
/// specs arrive over the daemon's wire. The point owns its inline name,
/// so a server that parses every submit keeps nothing of a refused or
/// finished session.
pub fn parse_link(spec: &str) -> Result<LinkPoint, String> {
    let Some((kind, params)) = spec.split_once(':') else {
        return find_link(spec).ok_or_else(|| {
            let catalog: Vec<&str> = LINKS.iter().map(|l| &*l.name).collect();
            format!(
                "unknown link {:?}; catalog: {} (or one inline wlan:/wired: spec)",
                spec.trim(),
                catalog.join(", ")
            )
        });
    };
    let kind = kind.trim().to_ascii_lowercase();
    let (keys, mut values) = match kind.as_str() {
        "wlan" => (["cross", "fifo"], [0.0, 0.0]),
        "wired" => (["capacity", "cross"], [10e6, 0.0]),
        _ => {
            return Err(format!(
                "unknown inline link kind {kind:?}; use wlan: or wired:"
            ))
        }
    };
    let mut seen = [false; 2];
    for part in params.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (key, bps) = parse_bps(part)?;
        let Some(i) = keys.iter().position(|k| *k == key) else {
            return Err(format!(
                "unknown {kind} parameter {key:?}; allowed: {}",
                keys.join(", ")
            ));
        };
        if std::mem::replace(&mut seen[i], true) {
            return Err(format!("duplicate {kind} parameter {key:?}"));
        }
        values[i] = bps;
    }
    let link = match (kind.as_str(), values) {
        ("wlan", [cross, fifo]) => LinkKind::Wlan {
            contending_bps: cross,
            fifo_bps: fifo,
        },
        (_, [capacity, _]) if capacity < MIN_WIRED_CAPACITY_BPS => {
            return Err(format!(
                "wired capacity {capacity} is below the bound of \
                 {MIN_WIRED_CAPACITY_BPS:e} bits/s"
            ))
        }
        (_, [capacity, cross]) if cross >= capacity => {
            return Err(format!(
                "wired cross {cross} must be below capacity {capacity}"
            ))
        }
        (_, [capacity, cross]) => LinkKind::Wired {
            capacity_bps: capacity,
            cross_bps: cross,
        },
    };
    Ok(LinkPoint {
        name: Cow::Owned(format!(
            "{kind}:{}={},{}={}",
            keys[0], values[0], keys[1], values[1]
        )),
        kind: link,
    })
}

/// Parse one train-axis point: a catalog name (`short`, `mid`, `long`:
/// 5, 20 and 100 packets) or an inline `n=<packets>` spec. An inline
/// point is named canonically (`n=50`), so it keys and seeds its cell
/// like a catalog point, and owns its name as in [`parse_link`]. An
/// inline count must lie in 2 ..= [`MAX_TRAIN_PACKETS`], the bound of
/// `csmaprobe --n`: one packet has no dispersion to read.
pub fn parse_train(spec: &str) -> Result<TrainPoint, String> {
    let spec = spec.trim();
    let Some(value) = spec.strip_prefix("n=") else {
        return find_train(spec).ok_or_else(|| {
            let catalog: Vec<&str> = TRAINS.iter().map(|t| &*t.name).collect();
            format!(
                "unknown train {spec:?}; catalog: {} (or inline n=<packets>)",
                catalog.join(", ")
            )
        });
    };
    let n: usize = value
        .trim()
        .parse()
        .map_err(|_| format!("train packet count n={value:?} is not an integer"))?;
    if !(2..=MAX_TRAIN_PACKETS).contains(&n) {
        return Err(format!(
            "train packet count n={n} must be in 2..={MAX_TRAIN_PACKETS}"
        ));
    }
    Ok(TrainPoint {
        name: Cow::Owned(format!("n={n}")),
        n,
    })
}

/// Parse one tool-axis point against [`ToolKind::ALL`].
pub fn parse_tool(spec: &str) -> Result<ToolKind, String> {
    ToolKind::parse(spec).ok_or_else(|| {
        let catalog: Vec<&str> = ToolKind::ALL.iter().map(|t| t.name()).collect();
        format!(
            "unknown tool {:?}; catalog: {}",
            spec.trim(),
            catalog.join(", ")
        )
    })
}

/// FNV-1a hash of a string — a stable 64-bit fingerprint of a cell
/// name (no `std::hash` — `DefaultHasher` is not guaranteed stable
/// across releases, and these values end up in seeds).
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Streaming accumulator of one grid cell: across-replication
/// statistics of the tool estimate, plus failed-run count.
#[derive(Debug, Clone, Default)]
pub struct EstimateAcc {
    /// Finite estimates, bits/s.
    pub est: OnlineStats,
    /// Tool runs that produced no estimate (non-finite).
    pub failed: usize,
}

impl Accumulate for EstimateAcc {
    fn merge(&mut self, other: Self) {
        OnlineStats::merge(&mut self.est, &other.est);
        self.failed += other.failed;
    }
}

/// One finished grid cell: tool × train × link, with the estimate
/// statistics and the link's ground truth.
#[derive(Debug, Clone)]
pub struct GridRow {
    /// Link-axis point name.
    pub link: String,
    /// Train-axis point name.
    pub train: String,
    /// Tool family.
    pub tool: ToolKind,
    /// Packets per train.
    pub n: usize,
    /// Runs that produced no estimate.
    pub failed: usize,
    /// Mean estimate, bits/s (NaN when every run failed).
    pub mean_bps: f64,
    /// 95% confidence half-width of the mean, bits/s.
    pub ci95_bps: f64,
    /// True available bandwidth of the link, bits/s.
    pub available_bps: f64,
}

/// The link × train × tool grid as a [`SweepScenario`]: one cell per
/// axis combination, flattened link-major with the tool fastest, and
/// one independent tool run per replication.
pub struct BiasGrid {
    links: Vec<LinkPoint>,
    trains: Vec<TrainPoint>,
    tools: Vec<ToolKind>,
    targets: Vec<GridTarget>,
    available: Vec<f64>,
    scale: f64,
    seed: u64,
}

impl BiasGrid {
    /// Compose the axes (builds each link's target once).
    pub fn new(
        links: Vec<LinkPoint>,
        trains: Vec<TrainPoint>,
        tools: Vec<ToolKind>,
        scale: f64,
        seed: u64,
    ) -> Self {
        let targets = links.iter().map(|l| l.build()).collect();
        let available = links.iter().map(|l| l.available_bps()).collect();
        BiasGrid {
            links,
            trains,
            tools,
            targets,
            available,
            scale,
            seed,
        }
    }

    /// The `(link, train, tool)` axis indices of the flat cell `flat`.
    fn coord(&self, flat: usize) -> (usize, usize, usize) {
        let (trains, tools) = (self.trains.len(), self.tools.len());
        (flat / (trains * tools), flat / tools % trains, flat % tools)
    }

    /// The name key `link/train/tool` of the flat cell `flat`. Its
    /// bytes seed the cell's replications, so they never change.
    fn key_of(&self, flat: usize) -> String {
        let (link, train, tool) = self.coord(flat);
        format!(
            "{}/{}/{}",
            self.links[link].name, self.trains[train].name, self.tools[tool]
        )
    }
}

impl SweepScenario for BiasGrid {
    type Acc = EstimateAcc;
    type Row = GridRow;

    fn name(&self) -> &str {
        "bias_grid"
    }

    fn points(&self) -> usize {
        self.links.len() * self.trains.len() * self.tools.len()
    }

    fn reps(&self, cell: usize) -> usize {
        // Budget per tool family: single trains are cheap, a searching
        // tool run is dozens of trains.
        // Floors keep smoke-scale grids statistically meaningful: a
        // single train is ~ms of simulation, so 24 of them is still
        // the cheapest cell by far.
        match self.tools[self.coord(cell).2] {
            ToolKind::Train => scaled(40, self.scale, 24),
            ToolKind::Chirp => scaled(20, self.scale, 8),
            ToolKind::Slops | ToolKind::Topp => scaled(4, self.scale, 1),
        }
    }

    fn identity(&self, _cell: usize) -> EstimateAcc {
        EstimateAcc::default()
    }

    fn replicate(&self, cell: usize, rep: usize, acc: &mut EstimateAcc) {
        // Pure function of (cell *identity*, rep): the seed chains the
        // cell's name key, not its flat position, so the same named
        // cell produces the same data no matter which other axis
        // points were selected or in what order.
        let (link, train, tool) = self.coord(cell);
        let s = derive_seed(self.seed, fnv1a(&self.key_of(cell)));
        let probe = ToolProbe::new(
            self.tools[tool],
            self.trains[train].n,
            FRAME,
            TRAIN_TOOL_RATE_BPS,
        );
        let est = probe.estimate_once(&self.targets[link], derive_seed(s, rep as u64));
        if est.is_finite() {
            acc.est.push(est);
        } else {
            acc.failed += 1;
        }
    }

    fn finish(&self, cell: usize, acc: EstimateAcc) -> GridRow {
        let (link, train, tool) = self.coord(cell);
        GridRow {
            link: self.links[link].name.to_string(),
            train: self.trains[train].name.to_string(),
            tool: self.tools[tool],
            n: self.trains[train].n,
            failed: acc.failed,
            mean_bps: if acc.est.count() > 0 {
                acc.est.mean()
            } else {
                f64::NAN
            },
            ci95_bps: acc.est.ci95_half_width(),
            available_bps: self.available[link],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmaprobe_core::sweep::run_sweep;

    /// `a` and `b` agree in every field, floats bit for bit.
    fn assert_same_row(a: &GridRow, b: &GridRow) {
        assert_eq!(
            (&a.link, &a.train, a.tool, a.n, a.failed),
            (&b.link, &b.train, b.tool, b.n, b.failed)
        );
        for (x, y) in [
            (a.mean_bps, b.mean_bps),
            (a.ci95_bps, b.ci95_bps),
            (a.available_bps, b.available_bps),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn each_axis_field_names_exactly_one_point() {
        // (axis, spelling, the canonical name it resolves to; "" where
        // it is refused)
        let cases = [
            ("link", " WLAN_MID ", "wlan_mid"),
            ("link", "Wired", "wired"),
            ("link", "wlan:cross=2e6", "wlan:cross=2000000,fifo=0"),
            ("link", " WLAN: fifo=1 , cross = 5 ", "wlan:cross=5,fifo=1"),
            ("link", "wlan:", "wlan:cross=0,fifo=0"),
            (
                "link",
                "wired:cross=1,capacity=2e3",
                "wired:capacity=2000,cross=1",
            ),
            ("link", "wired,wlan_mid", ""),
            ("link", "wired, WLAN_MID", ""),
            ("link", "wired,", ""),
            ("link", "wlan:cross=1e6,wlan_mid", ""),
            ("link", "wlan:cross=6e6,wlan:fifo=1e6", ""),
            ("link", "ethernet", ""),
            ("link", " , ", ""),
            ("train", " Short ", "short"),
            ("train", "n=50", "n=50"),
            ("train", " n= 050", "n=50"),
            ("train", "short,long", ""),
            ("train", "short,n=50", ""),
            ("train", "n=five", ""),
            ("train", "huge", ""),
            ("tool", " SLOPS ", "slops"),
            ("tool", "train,slops", ""),
            ("tool", "pathload", ""),
        ];
        for (axis, spec, want) in cases {
            let got = match axis {
                "link" => parse_link(spec).map(|p| p.name),
                "train" => parse_train(spec).map(|p| p.name),
                _ => parse_tool(spec).map(|t| Cow::Borrowed(t.name())),
            };
            assert_eq!(
                got.as_deref().unwrap_or(""),
                want,
                "{axis} {spec:?}: {got:?}"
            );
            // Catalog points borrow their names; inline points own theirs.
            let owned = matches!(got, Ok(Cow::Owned(_)));
            assert_eq!(owned, want.contains('='), "{axis} {spec:?}");
        }
        // Inline links build their kind and compute their ground truth.
        let wired = parse_link("wired:capacity=10e6,cross=4e6").unwrap();
        assert!(matches!(wired.build(), GridTarget::Wired(_)));
        assert_eq!(wired.available_bps(), 6e6);
        let wlan = parse_link("wlan:cross=6e6,fifo=1e6").unwrap();
        assert!(matches!(wlan.build(), GridTarget::Wlan(_)));
    }

    #[test]
    fn inline_link_specs_reject_nonsense() {
        assert!(parse_link("fiber:cross=1e6").is_err(), "unknown kind");
        assert!(parse_link("cross=1e6").is_err(), "parameter without a spec");
        assert!(parse_link("wlan:speed=1e6").is_err(), "unknown parameter");
        assert!(parse_link("wlan:cross=fast").is_err(), "non-numeric");
        assert!(parse_link("wlan:cross=-1").is_err(), "negative");
        assert!(parse_link("wlan:cross=inf").is_err(), "non-finite");
        assert!(parse_link("wlan:cross=1e6,cross=2e6").is_err(), "duplicate");
        assert!(
            parse_link("wired:capacity=1e6,cross=2e6").is_err(),
            "cross above capacity"
        );
        // Values that stop simulated time or overflow it name the bound.
        for spec in [
            "wlan:cross=1e300",
            "wlan:fifo=1e300",
            "wlan:cross=1e13",
            "wired:capacity=1e300",
        ] {
            let err = parse_link(spec).unwrap_err();
            assert!(err.contains("bound of 1e10 bits/s"), "{spec}: {err}");
        }
        let err = parse_link("wired:capacity=1e-9,cross=0").unwrap_err();
        assert!(err.contains("bound of 1e3 bits/s"), "{err}");
        // The bounds themselves are accepted.
        assert!(parse_link("wlan:cross=1e10,fifo=1e10").is_ok());
        assert!(parse_link("wired:capacity=1e3,cross=0").is_ok());
    }

    #[test]
    fn inline_train_specs_parse_and_reject() {
        // One packet has no dispersion; counts that overflow the clock
        // or the allocator are refused. Each error names the bound.
        for spec in [
            "n=0",
            "n=1",
            "n=10001",
            "n=10000000000",
            "n=18446744073709551615",
        ] {
            let err = parse_train(spec).unwrap_err();
            assert!(err.contains("2..=10000"), "{spec}: {err}");
        }
        assert_eq!(parse_train("n=2").unwrap().n, 2);
        assert_eq!(parse_train("n=10000").unwrap().n, MAX_TRAIN_PACKETS);
    }

    #[test]
    fn inline_specs_key_cells_by_canonical_spelling() {
        let grid_of = |links: &str| {
            BiasGrid::new(
                vec![parse_link(links).unwrap()],
                vec![find_train("short").unwrap()],
                vec![ToolKind::Train],
                0.05,
                42,
            )
        };
        let a = grid_of("wlan:cross=6e6,fifo=1e6");
        let b = grid_of("wlan:cross=6000000,fifo=1000000");
        let c = grid_of("wlan:cross=6e6,fifo=2e6");
        assert_eq!(a.key_of(0), b.key_of(0), "canonical spelling ⇒ same cell");
        assert_ne!(
            a.key_of(0),
            c.key_of(0),
            "a changed parameter ⇒ another cell"
        );
        // The same cell seeds the same replications: bit-identical rows.
        assert_same_row(&run_sweep(&a)[0], &run_sweep(&b)[0]);
        // And inline cells produce data like any catalog cell.
        let rows = run_sweep(&grid_of("wlan:cross=2e6"));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].link, "wlan:cross=2000000,fifo=0");
        assert!(rows[0].mean_bps.is_finite());
    }

    #[test]
    fn link_truths_are_sane() {
        let wired = find_link("wired").unwrap();
        assert_eq!(wired.available_bps(), 6e6);
        assert!(matches!(wired.build(), GridTarget::Wired(_)));
        let mid = find_link("wlan_mid").unwrap();
        assert!(matches!(mid.build(), GridTarget::Wlan(_)));
        // C ≈ 6.2 Mb/s, cross 4.5 ⇒ A ≈ 1.7 Mb/s.
        let a = mid.available_bps();
        assert!((1.2e6..2.2e6).contains(&a), "A = {a}");
    }

    #[test]
    fn small_grid_rows_are_complete_and_keyed() {
        let grid = BiasGrid::new(
            vec![find_link("wired").unwrap()],
            vec![find_train("short").unwrap(), find_train("mid").unwrap()],
            vec![ToolKind::Train],
            0.05,
            42,
        );
        let rows = run_sweep(&grid);
        assert_eq!(rows.len(), 2);
        // The key text seeds each cell: pinned byte for byte.
        let keys = ["wired/short/train", "wired/mid/train"];
        for (flat, row) in rows.iter().enumerate() {
            assert_eq!(grid.key_of(flat), keys[flat]);
            assert_eq!(
                format!("{}/{}/{}", row.link, row.train, row.tool),
                keys[flat]
            );
            assert_eq!(row.n, [5, 20][flat]);
            assert!(row.mean_bps.is_finite(), "wired trains always complete");
            assert!(row.ci95_bps.is_finite() && row.ci95_bps > 0.0);
            assert_eq!(row.failed, 0);
            assert_eq!(row.available_bps, 6e6);
        }
    }

    #[test]
    fn cell_data_independent_of_axis_selection() {
        // The wired/short/train cell must produce identical data
        // whether it sits at flat cell 0 or 1: seeds chain the cell's
        // *name*, not its position.
        let solo = BiasGrid::new(
            vec![find_link("wired").unwrap()],
            vec![find_train("short").unwrap()],
            vec![ToolKind::Train],
            0.05,
            42,
        );
        let moved = BiasGrid::new(
            vec![find_link("wlan_low").unwrap(), find_link("wired").unwrap()],
            vec![find_train("short").unwrap()],
            vec![ToolKind::Train],
            0.05,
            42,
        );
        assert_eq!(solo.key_of(0), moved.key_of(1));
        assert_same_row(&run_sweep(&solo)[0], &run_sweep(&moved)[1]);
    }

    #[test]
    fn grid_rows_deterministic_across_runs() {
        let make = || {
            BiasGrid::new(
                vec![find_link("wired").unwrap()],
                vec![find_train("short").unwrap()],
                vec![ToolKind::Train, ToolKind::Slops],
                0.05,
                7,
            )
        };
        let a = run_sweep(&make());
        let b = run_sweep(&make());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_same_row(x, y);
        }
    }
}
