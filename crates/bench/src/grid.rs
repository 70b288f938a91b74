//! The link × train × tool scenario grid: named axis catalogs, the
//! inline-spec parser, and the [`BiasGrid`] scenario they compose into.
//!
//! This is the paper's experiment matrix as one schedulable object:
//! every cell is "run tool T with train shape N over link L", and
//! [`BiasGrid`] is a [`SweepScenario`] over the flattened cell space
//! (link-major, tool fastest). Cells are seeded by name, not position,
//! so a cell's row is the same whichever other axis points are
//! selected, and in whatever order. The `grid_bias` figure runs the
//! 3 × 3 × 2 grid of the §7.2 claims; `csmaprobe serve` resolves each
//! session's axis names through the same parsers
//! ([`parse_links`], [`parse_trains`], [`parse_tools`]) and runs one
//! cell per session with the same tool constants.

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
    /// Catalog name (what a `link` axis list matches), or an inline
    /// spec's canonical name.
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

    /// CSMA/CA link (access delays, fair-share bias)?
    pub fn is_wlan(&self) -> bool {
        matches!(self.kind, LinkKind::Wlan { .. })
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
    /// Catalog name (what a `train` axis list matches), or an inline
    /// spec's canonical name.
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
fn parse_bps(what: &str, part: &str) -> Result<(String, f64), String> {
    let (key, value) = part
        .split_once('=')
        .ok_or_else(|| format!("malformed {what} parameter {part:?} (expected key=value)"))?;
    let (key, value) = (key.trim(), value.trim());
    let bps: f64 = value
        .parse()
        .map_err(|_| format!("{what} parameter {key}={value:?} is not a number"))?;
    if !bps.is_finite() || bps < 0.0 {
        return Err(format!("{what} parameter {key}={value} out of range"));
    }
    if bps > MAX_INLINE_BPS {
        return Err(format!(
            "{what} parameter {key}={value} is above the bound of {MAX_INLINE_BPS:e} bits/s"
        ));
    }
    Ok((key.to_ascii_lowercase(), bps))
}

/// An inline link spec under construction: `wlan:cross=6e6,fifo=1e6` or
/// `wired:capacity=10e6,cross=4e6` (the comma-separated parameters
/// arrive as separate CSV parts; see [`parse_links`]).
struct InlineLink {
    kind: String,
    params: Vec<(String, f64)>,
}

impl InlineLink {
    fn apply(&mut self, part: &str) -> Result<(), String> {
        let (key, bps) = parse_bps("link", part)?;
        let allowed: &[&str] = match self.kind.as_str() {
            "wlan" => &["cross", "fifo"],
            "wired" => &["capacity", "cross"],
            _ => unreachable!("kind validated at construction"),
        };
        if !allowed.contains(&key.as_str()) {
            return Err(format!(
                "unknown {} parameter {key:?}; allowed: {}",
                self.kind,
                allowed.join(", ")
            ));
        }
        if self.params.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate {} parameter {key:?}", self.kind));
        }
        self.params.push((key, bps));
        Ok(())
    }

    fn get(&self, key: &str, default: f64) -> f64 {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .unwrap_or(default)
    }

    /// Build the point. The name is **canonical** — every parameter
    /// spelled out from its parsed value — so the same spec in any
    /// notation (`6e6` vs `6000000`) names the same cell and seeds the
    /// same replications.
    fn build(self) -> Result<LinkPoint, String> {
        let (name, kind) = match self.kind.as_str() {
            "wlan" => {
                let cross = self.get("cross", 0.0);
                let fifo = self.get("fifo", 0.0);
                (
                    format!("wlan:cross={cross},fifo={fifo}"),
                    LinkKind::Wlan {
                        contending_bps: cross,
                        fifo_bps: fifo,
                    },
                )
            }
            "wired" => {
                let capacity = self.get("capacity", 10e6);
                let cross = self.get("cross", 0.0);
                if capacity < MIN_WIRED_CAPACITY_BPS {
                    return Err(format!(
                        "wired capacity {capacity} is below the bound of \
                         {MIN_WIRED_CAPACITY_BPS:e} bits/s"
                    ));
                }
                if cross >= capacity {
                    return Err(format!(
                        "wired cross {cross} must be below capacity {capacity}"
                    ));
                }
                (
                    format!("wired:capacity={capacity},cross={cross}"),
                    LinkKind::Wired {
                        capacity_bps: capacity,
                        cross_bps: cross,
                    },
                )
            }
            other => {
                return Err(format!(
                    "unknown inline link kind {other:?}; use wlan: or wired:"
                ))
            }
        };
        Ok(LinkPoint {
            name: Cow::Owned(name),
            kind,
        })
    }
}

/// Shared scaffolding of the link, train and tool CSV axes: split the
/// comma list, hand each non-empty part to `parse_part` (which pushes
/// the points it yields), run `finish` (e.g. flushing a trailing inline
/// spec), and apply the common empty-axis error.
fn parse_axis<T>(
    what: &str,
    csv: &str,
    catalog: &[&str],
    mut parse_part: impl FnMut(&str, &mut Vec<T>) -> Result<(), String>,
    finish: impl FnOnce(&mut Vec<T>) -> Result<(), String>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    for part in csv.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        parse_part(part, &mut out)?;
    }
    finish(&mut out)?;
    if out.is_empty() {
        return Err(format!(
            "empty {what} axis; catalog: {}",
            catalog.join(", ")
        ));
    }
    Ok(out)
}

/// The shared unknown-point error (`hint` names the inline-spec form,
/// when the axis has one).
fn unknown_axis_point(what: &str, part: &str, catalog: &[&str], hint: &str) -> String {
    format!(
        "unknown {what} {part:?}; catalog: {}{hint}",
        catalog.join(", ")
    )
}

/// Parse a link-axis comma list: catalog names (`wired`, `wlan_low`,
/// `wlan_mid`, `wlan_fifo`) and **inline specs** —
/// `wlan:cross=<bps>,fifo=<bps>` or `wired:capacity=<bps>,cross=<bps>` —
/// freely mixed. A `kind:` part opens an inline spec; bare `key=value`
/// parts extend the one being built; anything else is a catalog name.
/// Inline points get canonical parameter-spelling names, which key and
/// seed their cells exactly like catalog names.
///
/// Every inline bits/s value must lie in 0 ..= [`MAX_INLINE_BPS`], and a
/// wired capacity must be at least [`MIN_WIRED_CAPACITY_BPS`]: these
/// specs arrive over the daemon's wire.
///
/// The points own their inline names, so a server that parses every
/// submit keeps nothing of a refused or finished session.
pub fn parse_links(csv: &str) -> Result<Vec<LinkPoint>, String> {
    let catalog: Vec<&str> = LINKS.iter().map(|l| &*l.name).collect();
    // The inline spec being built, shared by the per-part closure and
    // the end-of-axis flush.
    let open: std::cell::RefCell<Option<InlineLink>> = std::cell::RefCell::new(None);
    let flush = |out: &mut Vec<LinkPoint>| -> Result<(), String> {
        if let Some(spec) = open.borrow_mut().take() {
            out.push(spec.build()?);
        }
        Ok(())
    };
    parse_axis(
        "link",
        csv,
        &catalog,
        |part, out| {
            if let Some((kind, first)) = part.split_once(':') {
                flush(out)?;
                let kind = kind.trim().to_ascii_lowercase();
                if kind != "wlan" && kind != "wired" {
                    return Err(format!(
                        "unknown inline link kind {kind:?}; use wlan: or wired:"
                    ));
                }
                let mut spec = InlineLink {
                    kind,
                    params: Vec::new(),
                };
                if !first.trim().is_empty() {
                    spec.apply(first)?;
                }
                *open.borrow_mut() = Some(spec);
                Ok(())
            } else if part.contains('=') {
                match open.borrow_mut().as_mut() {
                    Some(spec) => spec.apply(part),
                    None => Err(format!(
                        "link parameter {part:?} outside an inline spec \
                         (start one with wlan: or wired:)"
                    )),
                }
            } else {
                flush(out)?;
                match find_link(part) {
                    Some(p) => {
                        out.push(p);
                        Ok(())
                    }
                    None => Err(unknown_axis_point(
                        "link",
                        part,
                        &catalog,
                        " (or inline wlan:/wired: specs)",
                    )),
                }
            }
        },
        flush,
    )
}

/// Parse a train-axis comma list: catalog names (`short`, `mid`, `long`:
/// 5, 20 and 100 packets) and inline `n=<packets>` specs, freely mixed.
/// Inline points are named canonically (`n=50`), so they key and seed
/// their cells like catalog points. An inline count must lie in
/// 1 ..= [`MAX_TRAIN_PACKETS`]. Inline points own their names, as in
/// [`parse_links`].
pub fn parse_trains(csv: &str) -> Result<Vec<TrainPoint>, String> {
    let catalog: Vec<&str> = TRAINS.iter().map(|t| &*t.name).collect();
    parse_axis(
        "train",
        csv,
        &catalog,
        |part, out| {
            if let Some(value) = part.strip_prefix("n=") {
                let n: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("train packet count n={value:?} is not an integer"))?;
                if n == 0 {
                    return Err("train packet count n=0 is empty".to_string());
                }
                if n > MAX_TRAIN_PACKETS {
                    return Err(format!(
                        "train packet count n={n} is above the bound of {MAX_TRAIN_PACKETS}"
                    ));
                }
                out.push(TrainPoint {
                    name: Cow::Owned(format!("n={n}")),
                    n,
                });
                Ok(())
            } else {
                match find_train(part) {
                    Some(p) => {
                        out.push(p);
                        Ok(())
                    }
                    None => Err(unknown_axis_point(
                        "train",
                        part,
                        &catalog,
                        " (or inline n=<packets>)",
                    )),
                }
            }
        },
        |_| Ok(()),
    )
}

/// Parse a tool-axis comma list against [`ToolKind::ALL`].
pub fn parse_tools(csv: &str) -> Result<Vec<ToolKind>, String> {
    let catalog: Vec<&str> = ToolKind::ALL.iter().map(|t| t.name()).collect();
    parse_axis(
        "tool",
        csv,
        &catalog,
        |part, out| match ToolKind::parse(part) {
            Some(t) => {
                out.push(t);
                Ok(())
            }
            None => Err(unknown_axis_point("tool", part, &catalog, "")),
        },
        |_| Ok(()),
    )
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
    /// Replications (independent tool runs) attempted.
    pub reps: usize,
    /// Runs that produced no estimate.
    pub failed: usize,
    /// Mean estimate, bits/s (NaN when every run failed).
    pub mean_bps: f64,
    /// Across-run standard deviation, bits/s.
    pub sd_bps: f64,
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
            reps: self.reps(cell),
            failed: acc.failed,
            mean_bps: if acc.est.count() > 0 {
                acc.est.mean()
            } else {
                f64::NAN
            },
            sd_bps: acc.est.std_dev(),
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
            (&a.link, &a.train, a.tool, a.n, a.reps, a.failed),
            (&b.link, &b.train, b.tool, b.n, b.reps, b.failed)
        );
        for (x, y) in [
            (a.mean_bps, b.mean_bps),
            (a.sd_bps, b.sd_bps),
            (a.ci95_bps, b.ci95_bps),
            (a.available_bps, b.available_bps),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn catalogs_parse_and_reject() {
        let links = parse_links("wired, WLAN_MID").unwrap();
        assert_eq!(links.len(), 2);
        assert_eq!(links[1].name, "wlan_mid");
        assert!(parse_links("wired,ethernet").is_err());
        assert!(parse_links(" , ").is_err());
        let trains = parse_trains("short,long").unwrap();
        assert_eq!(trains[1].n, 100);
        assert!(parse_trains("huge").is_err());
        let tools = parse_tools("train,slops").unwrap();
        assert_eq!(tools, vec![ToolKind::Train, ToolKind::Slops]);
        assert!(parse_tools("pathload").is_err());
    }

    #[test]
    fn inline_link_specs_parse_mixed_with_catalog_names() {
        // The ROADMAP example, plus a catalog name on either side.
        let links = parse_links("wired,wlan:cross=6e6,fifo=1e6,wlan_mid").unwrap();
        assert_eq!(links.len(), 3);
        assert_eq!(links[0].name, "wired");
        assert_eq!(links[1].name, "wlan:cross=6000000,fifo=1000000");
        assert!(links[1].is_wlan());
        assert_eq!(links[2].name, "wlan_mid");
        // Catalog names stay borrowed; an inline point owns its name.
        assert!(matches!(links[0].name, Cow::Borrowed("wired")));
        assert!(matches!(links[1].name, Cow::Owned(_)));
        // Canonical naming: notation does not matter.
        let again = parse_links("wlan:cross=6000000,fifo=1000000").unwrap();
        assert_eq!(again[0].name, links[1].name);
        // Defaults fill in, in canonical order.
        let bare = parse_links("wlan:cross=2e6").unwrap();
        assert_eq!(bare[0].name, "wlan:cross=2000000,fifo=0");
        // Wired inline specs compute their ground truth.
        let wired = parse_links("wired:capacity=10e6,cross=4e6").unwrap();
        assert_eq!(wired[0].available_bps(), 6e6);
        assert!(!wired[0].is_wlan());
    }

    #[test]
    fn inline_link_specs_reject_nonsense() {
        assert!(parse_links("fiber:cross=1e6").is_err(), "unknown kind");
        assert!(
            parse_links("cross=1e6").is_err(),
            "parameter without a spec"
        );
        assert!(parse_links("wlan:speed=1e6").is_err(), "unknown parameter");
        assert!(parse_links("wlan:cross=fast").is_err(), "non-numeric");
        assert!(parse_links("wlan:cross=-1").is_err(), "negative");
        assert!(parse_links("wlan:cross=inf").is_err(), "non-finite");
        assert!(
            parse_links("wlan:cross=1e6,cross=2e6").is_err(),
            "duplicate"
        );
        assert!(
            parse_links("wired:capacity=1e6,cross=2e6").is_err(),
            "cross above capacity"
        );
        // Values that stop simulated time or overflow it name the bound.
        for spec in [
            "wlan:cross=1e300",
            "wlan:fifo=1e300",
            "wlan:cross=1e13",
            "wired:capacity=1e300",
        ] {
            let err = parse_links(spec).unwrap_err();
            assert!(err.contains("bound of 1e10 bits/s"), "{spec}: {err}");
        }
        let err = parse_links("wired:capacity=1e-9,cross=0").unwrap_err();
        assert!(err.contains("bound of 1e3 bits/s"), "{err}");
        // The bounds themselves are accepted.
        assert!(parse_links("wlan:cross=1e10,fifo=1e10").is_ok());
        assert!(parse_links("wired:capacity=1e3,cross=0").is_ok());
    }

    #[test]
    fn inline_train_specs_parse_and_reject() {
        let trains = parse_trains("short,n=50,long").unwrap();
        assert_eq!(trains.len(), 3);
        assert_eq!(trains[1].name, "n=50");
        assert_eq!(trains[1].n, 50);
        assert!(matches!(trains[0].name, Cow::Borrowed("short")));
        assert!(matches!(trains[1].name, Cow::Owned(_)));
        assert!(parse_trains("n=0").is_err());
        assert!(parse_trains("n=five").is_err());
        for spec in ["n=10001", "n=10000000000", "n=18446744073709551615"] {
            let err = parse_trains(spec).unwrap_err();
            assert!(err.contains("bound of 10000"), "{spec}: {err}");
        }
        assert_eq!(parse_trains("n=10000").unwrap()[0].n, MAX_TRAIN_PACKETS);
    }

    #[test]
    fn inline_specs_key_cells_by_canonical_spelling() {
        let grid_of = |links: &str| {
            BiasGrid::new(
                parse_links(links).unwrap(),
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
        assert!(!wired.is_wlan());
        let mid = find_link("wlan_mid").unwrap();
        assert!(mid.is_wlan());
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
            assert_eq!(row.reps, grid.reps(flat));
            assert!(row.mean_bps.is_finite(), "wired trains always complete");
            assert!(row.ci95_bps.is_finite() && row.sd_bps > 0.0);
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
