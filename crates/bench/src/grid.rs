//! The link × train × tool scenario grid: named axis catalogs, the
//! [`BiasGrid`] scenario they compose into, and the JSONL row format
//! the `grid` binary persists.
//!
//! This is the paper's experiment matrix as one schedulable object:
//! every cell is "run tool T with train shape N over link L", the axes
//! are independently enumerable (and CLI-selectable by name), and
//! [`BiasGrid`] is a [`SweepScenario`] over the flattened cell space
//! (link-major, tool fastest). Cells are seeded by name, so no runner
//! needs their axis coordinates, and the engine's per-cell bit-identity
//! makes any subset of cells (a resumed run, one shard) reproduce
//! exactly the rows of an uninterrupted run.

use crate::campaign::{shard_members, ShardSpec};
use crate::report::{json_f64, json_str};
use crate::scaled;
use crate::scenarios::{self, FRAME};
use csmaprobe_core::engine;
use csmaprobe_core::link::{LinkConfig, ProbeTarget, TrainObservation, WiredLink, WlanLink};
use csmaprobe_core::sweep::SweepScenario;
use csmaprobe_desim::rng::derive_seed;
use csmaprobe_desim::time::Dur;
use csmaprobe_probe::tool::{ToolKind, ToolProbe};
use csmaprobe_stats::accumulate::Accumulate;
use csmaprobe_stats::online::OnlineStats;

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

/// One named point of the link axis.
#[derive(Debug, Clone, Copy)]
pub struct LinkPoint {
    /// Catalog name (what `--links` matches).
    pub name: &'static str,
    /// One-line description.
    pub title: &'static str,
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
pub const LINKS: &[LinkPoint] = &[
    LinkPoint {
        name: "wired",
        title: "FIFO path, C = 10, cross 4 Mb/s (A = 6)",
        kind: LinkKind::Wired {
            capacity_bps: 10e6,
            cross_bps: 4e6,
        },
    },
    LinkPoint {
        name: "wlan_low",
        title: "802.11b, one contender at 2 Mb/s",
        kind: LinkKind::Wlan {
            contending_bps: 2e6,
            fifo_bps: 0.0,
        },
    },
    LinkPoint {
        name: "wlan_mid",
        title: "802.11b, one contender at 4.5 Mb/s (the Fig 1 link)",
        kind: LinkKind::Wlan {
            contending_bps: scenarios::FIG1_CROSS_BPS,
            fifo_bps: 0.0,
        },
    },
    LinkPoint {
        name: "wlan_fifo",
        title: "802.11b, contender 3 Mb/s + FIFO cross 1.5 Mb/s (Fig 4)",
        kind: LinkKind::Wlan {
            contending_bps: 3e6,
            fifo_bps: 1.5e6,
        },
    },
];

/// One named point of the train-shape axis.
#[derive(Debug, Clone, Copy)]
pub struct TrainPoint {
    /// Catalog name (what `--trains` matches).
    pub name: &'static str,
    /// Packets per train.
    pub n: usize,
}

/// The train-shape catalog: the short trains real tools send (and the
/// transient bites hardest on), up to trains long enough to wash the
/// transient out (§5.3).
pub const TRAINS: &[TrainPoint] = &[
    TrainPoint {
        name: "short",
        n: 5,
    },
    TrainPoint { name: "mid", n: 20 },
    TrainPoint {
        name: "long",
        n: 100,
    },
];

/// Look up a link-axis point by name.
pub fn find_link(name: &str) -> Option<&'static LinkPoint> {
    LINKS
        .iter()
        .find(|l| l.name.eq_ignore_ascii_case(name.trim()))
}

/// Look up a train-axis point by name.
pub fn find_train(name: &str) -> Option<&'static TrainPoint> {
    TRAINS
        .iter()
        .find(|t| t.name.eq_ignore_ascii_case(name.trim()))
}

/// Parse one `key=value` bits/s parameter of an inline link spec.
fn parse_bps(what: &str, part: &str) -> Result<(String, f64), String> {
    let (key, value) = part
        .split_once('=')
        .ok_or_else(|| format!("malformed {what} parameter {part:?} (expected key=value)"))?;
    let bps: f64 = value
        .trim()
        .parse()
        .map_err(|_| format!("{what} parameter {key}={value:?} is not a number"))?;
    if !bps.is_finite() || bps < 0.0 {
        return Err(format!("{what} parameter {key}={bps} out of range"));
    }
    Ok((key.trim().to_ascii_lowercase(), bps))
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

    /// Build the (leaked, CLI-lifetime) catalog point. The name is
    /// **canonical** — every parameter spelled out from its parsed
    /// value — so the same spec in any notation (`6e6` vs `6000000`)
    /// names the same cell, seeds the same replications, and
    /// fingerprints the same run configuration.
    fn build(self) -> Result<&'static LinkPoint, String> {
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
        Ok(&*Box::leak(Box::new(LinkPoint {
            name: Box::leak(name.into_boxed_str()),
            title: "inline spec",
            kind,
        })))
    }
}

/// Parse a `--links` comma list: catalog names ([`LINKS`]) and **inline
/// specs** — `wlan:cross=<bps>,fifo=<bps>` or
/// `wired:capacity=<bps>,cross=<bps>` — freely mixed. A `kind:` part
/// opens an inline spec; bare `key=value` parts extend the one being
/// built; anything else is a catalog name. Inline points get canonical
/// parameter-spelling names, so they fold into the run-config
/// fingerprint (and the cells' seed derivation) exactly like catalog
/// points — resume rejects a mismatched spec the same way it rejects a
/// changed axis selection.
/// Shared scaffolding of the `--links`/`--trains`/`--tools` CSV axes:
/// split the comma list, hand each non-empty part to `parse_part`
/// (which pushes the points it yields), run `finish` (e.g. flushing a
/// trailing inline spec), and apply the common empty-axis error.
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

pub fn parse_links(csv: &str) -> Result<Vec<&'static LinkPoint>, String> {
    let catalog: Vec<&str> = LINKS.iter().map(|l| l.name).collect();
    // The inline spec being built, shared by the per-part closure and
    // the end-of-axis flush.
    let open: std::cell::RefCell<Option<InlineLink>> = std::cell::RefCell::new(None);
    let flush = |out: &mut Vec<&'static LinkPoint>| -> Result<(), String> {
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

/// Parse a `--trains` comma list: catalog names ([`TRAINS`]) and inline
/// `n=<packets>` specs, freely mixed. Inline points are named
/// canonically (`n=50`), so they participate in seeds and the
/// run-config fingerprint like catalog points.
pub fn parse_trains(csv: &str) -> Result<Vec<&'static TrainPoint>, String> {
    let catalog: Vec<&str> = TRAINS.iter().map(|t| t.name).collect();
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
                out.push(&*Box::leak(Box::new(TrainPoint {
                    name: Box::leak(format!("n={n}").into_boxed_str()),
                    n,
                })));
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

/// Parse a `--tools` comma list against [`ToolKind::ALL`].
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

/// FNV-1a hash of a string — a stable 64-bit fingerprint for cell
/// names and run configurations (no `std::hash` — `DefaultHasher` is
/// not guaranteed stable across releases, and these values end up in
/// seeds and persisted files).
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
    /// Flat cell index in the grid (link-major, tool fastest).
    pub cell: usize,
    /// Link-axis point name.
    pub link: &'static str,
    /// Train-axis point name.
    pub train: &'static str,
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
    /// Engine-tier provenance: which engine served this cell's probes
    /// (`event` for WLAN links as resolved by the router, `fifo` for
    /// wired links, which have no DCF engine).
    pub tier: &'static str,
    /// The producing run's configuration fingerprint
    /// ([`BiasGrid::fingerprint`]): resume refuses to mix rows from a
    /// different grid configuration — including rows produced under a
    /// different engine policy or tier resolution. Campaign-level: the
    /// same for every shard of a campaign, so merged tables match the
    /// unsharded run's.
    pub run: u64,
    /// Shard provenance token ([`BiasGrid::shard_token`],
    /// `i/n:<shard fingerprint>`): resume refuses rows written under a
    /// different `--shard` spec. Bookkeeping, not data — stripped by
    /// both finalize flavours, so the campaign table never shows it.
    pub shard: String,
}

impl GridRow {
    /// The unique cell key (`link/train/tool`) the row sink indexes by.
    pub fn cell_key(link: &str, train: &str, tool: ToolKind) -> String {
        format!("{link}/{train}/{tool}")
    }

    /// This row's key.
    pub fn key(&self) -> String {
        GridRow::cell_key(self.link, self.train, self.tool)
    }

    /// The `"run"` fingerprint of a persisted row line, if present.
    pub fn run_of(line: &str) -> Option<u64> {
        crate::report::row_run(line)
    }

    /// The `"shard"` provenance token of a persisted row line, if
    /// present.
    pub fn shard_of(line: &str) -> Option<&str> {
        crate::report::row_shard(line)
    }

    /// Serialize as one [`crate::report::RowSink`] JSONL line
    /// (`"cell"` and `"key"` first, as the sink requires). The
    /// `"shard"` field is placed where [`crate::report::strip_shard`]
    /// removes it at finalize time.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cell\":{},\"key\":{},\"run\":\"{:016x}\",\"shard\":{},\"link\":{},\"train\":{},\
             \"tool\":{},\"tier\":{},\"n\":{},\"reps\":{},\"failed\":{},\"mean_bps\":{},\
             \"sd_bps\":{},\"ci95_bps\":{},\"available_bps\":{}}}",
            self.cell,
            json_str(&self.key()),
            self.run,
            json_str(&self.shard),
            json_str(self.link),
            json_str(self.train),
            json_str(self.tool.name()),
            json_str(self.tier),
            self.n,
            self.reps,
            self.failed,
            json_f64(self.mean_bps),
            json_f64(self.sd_bps),
            json_f64(self.ci95_bps),
            json_f64(self.available_bps),
        )
    }
}

/// The link × train × tool grid as a [`SweepScenario`]: one cell per
/// axis combination, flattened link-major with the tool fastest, and
/// one independent tool run per replication.
pub struct BiasGrid {
    links: Vec<&'static LinkPoint>,
    trains: Vec<&'static TrainPoint>,
    tools: Vec<ToolKind>,
    targets: Vec<GridTarget>,
    available: Vec<f64>,
    scale: f64,
    seed: u64,
    shard: ShardSpec,
}

impl BiasGrid {
    /// Compose the axes (builds each link's target once). The grid is
    /// unsharded (`0/1`) until [`BiasGrid::with_shard`].
    pub fn new(
        links: Vec<&'static LinkPoint>,
        trains: Vec<&'static TrainPoint>,
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
            shard: ShardSpec::solo(),
        }
    }

    /// Restrict this process to one shard of the campaign's cell space
    /// (see [`BiasGrid::shard_cells`]). Sharding never changes a cell's
    /// data — seeds chain cell *names* — only which cells this process
    /// owns and the shard provenance its rows carry.
    pub fn with_shard(mut self, shard: ShardSpec) -> Self {
        assert!(shard.index < shard.count, "invalid shard spec");
        self.shard = shard;
        self
    }

    /// The shard this grid instance runs as (`0/1` when unsharded).
    pub fn shard(&self) -> ShardSpec {
        self.shard
    }

    /// The flat cell indices this shard owns, ascending: round-robin
    /// over the **name-keyed** cell order ([`shard_members`]), so
    /// membership depends only on the campaign's cell-name set — two
    /// shards of one campaign partition the same space no matter how
    /// each operator spelled the axis lists.
    pub fn shard_cells(&self) -> Vec<usize> {
        shard_members(self.points(), self.shard, |f| self.key_of(f))
    }

    /// The axes, in flattening order (link, train, tool — tool fastest).
    pub fn axes(&self) -> (&[&'static LinkPoint], &[&'static TrainPoint], &[ToolKind]) {
        (&self.links, &self.trains, &self.tools)
    }

    /// The `(link, train, tool)` axis indices of the flat cell `flat`.
    fn coord(&self, flat: usize) -> (usize, usize, usize) {
        let (trains, tools) = (self.trains.len(), self.tools.len());
        (flat / (trains * tools), flat / tools % trains, flat % tools)
    }

    /// The cell key of the flat cell `flat` (what the persisted row
    /// will carry) — lets a resuming caller enumerate expected keys
    /// without running anything.
    pub fn key_of(&self, flat: usize) -> String {
        let (link, train, tool) = self.coord(flat);
        GridRow::cell_key(
            self.links[link].name,
            self.trains[train].name,
            self.tools[tool],
        )
    }

    /// Fingerprint of this grid's full configuration — axis selection
    /// *and order* (cell indices depend on both), scale and seed, the
    /// active engine policy, and the tier each link's cells resolve to
    /// under it. Persisted in every row; resume refuses a file whose
    /// rows carry a different fingerprint instead of silently mixing
    /// populations — including rows produced under a different engine
    /// policy (or different routing rules), which would otherwise be
    /// statistically indistinguishable in the file.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&self.config_desc())
    }

    /// Fingerprint of this grid's configuration **plus its shard spec**
    /// — what [`GridRow::shard`] embeds. Campaign-identical shards with
    /// different `i/n` get different values, so `--resume` can refuse a
    /// row file written under a different `--shard` spec even when the
    /// persisted keys happen to overlap this shard's cells.
    pub fn shard_fingerprint(&self) -> u64 {
        fnv1a(&format!("{};shard={}", self.config_desc(), self.shard))
    }

    /// The shard provenance token persisted in every row:
    /// `i/n:<shard fingerprint>`.
    pub fn shard_token(&self) -> String {
        format!("{}:{:016x}", self.shard, self.shard_fingerprint())
    }

    /// The canonical configuration description behind
    /// [`BiasGrid::fingerprint`] (shard-independent: a campaign is the
    /// same campaign however it is partitioned).
    fn config_desc(&self) -> String {
        let mut desc = format!("scale={};seed={}", self.scale.to_bits(), self.seed);
        for l in &self.links {
            desc.push_str(";link=");
            desc.push_str(l.name);
        }
        for t in &self.trains {
            desc.push_str(";train=");
            desc.push_str(t.name);
        }
        for t in &self.tools {
            desc.push_str(";tool=");
            desc.push_str(t.name());
        }
        desc.push_str(";engine=");
        desc.push_str(engine::policy_token());
        desc.push_str(";router=");
        desc.push_str(engine::ROUTER_REVISION);
        for i in 0..self.links.len() {
            desc.push_str(";tier=");
            desc.push_str(self.link_tier(i));
        }
        desc
    }

    /// The engine tier serving the probes of link `link_idx`'s cells:
    /// the router's train-tier resolution for WLAN links, `fifo` for
    /// wired links (no DCF engine involved).
    fn link_tier(&self, link_idx: usize) -> &'static str {
        match &self.targets[link_idx] {
            GridTarget::Wired(_) => "fifo",
            GridTarget::Wlan(l) => engine::train_tier(l.config()).token(),
        }
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
            cell,
            link: self.links[link].name,
            train: self.trains[train].name,
            tool: self.tools[tool],
            n: self.trains[train].n,
            tier: self.link_tier(link),
            reps: self.reps(cell),
            failed: acc.failed,
            mean_bps: if acc.est.count() > 0 {
                acc.est.mean()
            } else {
                f64::NAN
            },
            sd_bps: acc.est.std_dev(),
            ci95_bps: acc.est.ci_half_width(0.95),
            available_bps: self.available[link],
            run: self.fingerprint(),
            shard: self.shard_token(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::row_key;
    use csmaprobe_core::sweep::{run_sweep, run_sweep_cells};

    /// Hold the engine policy at auto: run fingerprints fold the
    /// process-wide policy in, and another test in this binary pins a
    /// forced policy while it runs.
    fn auto_policy() -> csmaprobe_core::engine::PolicyOverride {
        csmaprobe_core::engine::test_guard(csmaprobe_core::engine::EnginePolicy::Auto)
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
    }

    #[test]
    fn inline_train_specs_parse_and_reject() {
        let trains = parse_trains("short,n=50,long").unwrap();
        assert_eq!(trains.len(), 3);
        assert_eq!(trains[1].name, "n=50");
        assert_eq!(trains[1].n, 50);
        assert!(parse_trains("n=0").is_err());
        assert!(parse_trains("n=five").is_err());
    }

    #[test]
    fn inline_specs_fold_into_the_run_fingerprint() {
        let _policy = auto_policy();
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
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "canonical spelling ⇒ same run configuration"
        );
        assert_ne!(
            a.fingerprint(),
            c.fingerprint(),
            "a changed parameter must be rejected on resume"
        );
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
        let mut keys = std::collections::BTreeSet::new();
        for (flat, row) in rows.iter().enumerate() {
            assert_eq!(row.cell, flat);
            assert_eq!(row.key(), grid.key_of(flat));
            assert!(keys.insert(row.key()), "duplicate key {}", row.key());
            assert!(row.mean_bps.is_finite(), "wired trains always complete");
            assert_eq!(row.failed, 0);
            let line = row.to_json();
            assert_eq!(row_key(&line), Some(row.key().as_str()), "sink format");
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
        let a = &run_sweep(&solo)[0];
        let b = &run_sweep(&moved)[1];
        assert_eq!(a.key(), b.key());
        assert_eq!(a.mean_bps.to_bits(), b.mean_bps.to_bits());
        assert_eq!(a.sd_bps.to_bits(), b.sd_bps.to_bits());
    }

    #[test]
    fn fingerprint_tracks_configuration_and_round_trips() {
        let _policy = auto_policy();
        let base = || {
            BiasGrid::new(
                vec![find_link("wired").unwrap()],
                vec![find_train("short").unwrap()],
                vec![ToolKind::Train],
                0.05,
                42,
            )
        };
        let a = base();
        assert_eq!(a.fingerprint(), base().fingerprint(), "stable");
        let other_seed = BiasGrid::new(
            vec![find_link("wired").unwrap()],
            vec![find_train("short").unwrap()],
            vec![ToolKind::Train],
            0.05,
            43,
        );
        assert_ne!(a.fingerprint(), other_seed.fingerprint());
        let other_axis = BiasGrid::new(
            vec![find_link("wired").unwrap()],
            vec![find_train("mid").unwrap()],
            vec![ToolKind::Train],
            0.05,
            42,
        );
        assert_ne!(a.fingerprint(), other_axis.fingerprint());
        // The fingerprint lands in every row and parses back out.
        let row = &run_sweep(&a)[0];
        assert_eq!(row.run, a.fingerprint());
        assert_eq!(GridRow::run_of(&row.to_json()), Some(a.fingerprint()));
    }

    #[test]
    fn fingerprint_tracks_engine_policy_and_rows_carry_tier() {
        use csmaprobe_core::engine::{test_guard, EnginePolicy};
        let make = || {
            BiasGrid::new(
                vec![find_link("wired").unwrap(), find_link("wlan_low").unwrap()],
                vec![find_train("short").unwrap()],
                vec![ToolKind::Train],
                0.05,
                42,
            )
        };
        let (auto_fp, auto_rows) = {
            let _g = test_guard(EnginePolicy::Auto);
            (make().fingerprint(), run_sweep(&make()))
        };
        let (event_fp, event_rows) = {
            let _g = test_guard(EnginePolicy::Event);
            (make().fingerprint(), run_sweep(&make()))
        };
        // Trains run on the simulator under every policy, so the WLAN
        // rows carry `event` either way; the run fingerprint still
        // splits on the policy token, so resume refuses to mix rows
        // written under different policies.
        assert_ne!(
            auto_fp, event_fp,
            "engine policy must split the fingerprint"
        );
        assert_eq!(auto_rows[0].tier, "fifo");
        assert_eq!(auto_rows[1].tier, "event");
        assert_eq!(event_rows[1].tier, "event");
        for row in &auto_rows {
            assert!(
                row.to_json()
                    .contains(&format!("\"tier\":\"{}\"", row.tier)),
                "tier column missing from {}",
                row.to_json()
            );
        }
        // Provenance, not data: both policies ran the same simulation.
        assert_eq!(
            auto_rows[1].mean_bps.to_bits(),
            event_rows[1].mean_bps.to_bits()
        );
        // The routing-rules revision is part of the fingerprinted
        // config: rows written under an older router (same policy
        // token, different coverage rules) can never resume into this
        // one.
        let desc = make().config_desc();
        let router = format!(";router={}", csmaprobe_core::engine::ROUTER_REVISION);
        assert!(
            desc.contains(&router),
            "router revision missing from the run-config description"
        );
        // A fingerprint built under the previous revision (the one that
        // still routed trains to the retired slotted kernel) does not
        // match, so its rows cannot resume into this run.
        let old = fnv1a(&desc.replace(&router, ";router=r2-nonsat"));
        assert_ne!(old, auto_fp, "r2-nonsat rows must not resume into r3");
    }

    #[test]
    fn shard_fingerprint_splits_on_the_spec_but_run_fingerprint_does_not() {
        let _policy = auto_policy();
        let make = || {
            BiasGrid::new(
                vec![find_link("wired").unwrap()],
                vec![find_train("short").unwrap(), find_train("mid").unwrap()],
                vec![ToolKind::Train],
                0.05,
                42,
            )
        };
        let solo = make();
        let s0 = make().with_shard(ShardSpec { index: 0, count: 2 });
        let s1 = make().with_shard(ShardSpec { index: 1, count: 2 });
        // The campaign is the same campaign however it is partitioned —
        // that is what makes merged tables byte-identical.
        assert_eq!(solo.fingerprint(), s0.fingerprint());
        assert_eq!(s0.fingerprint(), s1.fingerprint());
        // But the shard provenance splits on every spec.
        assert_ne!(solo.shard_fingerprint(), s0.shard_fingerprint());
        assert_ne!(s0.shard_fingerprint(), s1.shard_fingerprint());
        assert!(s0.shard_token().starts_with("0/2:"));
        assert!(solo.shard_token().starts_with("0/1:"));
        // Rows carry the token, and it parses back out.
        let rows = run_sweep(&solo);
        assert_eq!(rows[0].shard, solo.shard_token());
        assert_eq!(
            GridRow::shard_of(&rows[0].to_json()),
            Some(solo.shard_token().as_str())
        );
    }

    #[test]
    fn shard_partition_covers_disjointly_and_ignores_axis_order() {
        let grid_with = |links: &str, shard: ShardSpec| {
            BiasGrid::new(
                parse_links(links).unwrap(),
                vec![find_train("short").unwrap(), find_train("long").unwrap()],
                vec![ToolKind::Train, ToolKind::Slops],
                0.05,
                42,
            )
            .with_shard(shard)
        };
        // Disjoint cover of the full cell space.
        let total = grid_with("wired,wlan_mid", ShardSpec::solo()).points();
        let mut seen = vec![false; total];
        for index in 0..3 {
            let g = grid_with("wired,wlan_mid", ShardSpec { index, count: 3 });
            for f in g.shard_cells() {
                assert!(!seen[f], "cell {f} in two shards");
                seen[f] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "shards must cover every cell");
        // Membership by *name*: swapping the link-axis order moves flat
        // indices but never moves a named cell to another shard.
        let owner_by_key = |links: &str| -> std::collections::BTreeMap<String, usize> {
            let mut owners = std::collections::BTreeMap::new();
            for index in 0..3 {
                let g = grid_with(links, ShardSpec { index, count: 3 });
                for f in g.shard_cells() {
                    owners.insert(g.key_of(f), index);
                }
            }
            owners
        };
        assert_eq!(
            owner_by_key("wired,wlan_mid"),
            owner_by_key("wlan_mid,wired"),
            "shard membership must be independent of axis selection order"
        );
    }

    #[test]
    fn sharded_rows_merge_to_the_unsharded_table_byte_for_byte() {
        let _policy = auto_policy();
        use crate::report::RowSink;
        let make = || {
            BiasGrid::new(
                vec![find_link("wired").unwrap()],
                vec![find_train("short").unwrap(), find_train("mid").unwrap()],
                vec![ToolKind::Train, ToolKind::Slops],
                0.05,
                42,
            )
        };
        let dir = std::env::temp_dir();
        let full_path = dir.join(format!("csmaprobe-shardmerge-full-{}", std::process::id()));
        let full_table = {
            let mut sink = RowSink::create(&full_path).unwrap();
            let grid = make();
            let cells: Vec<usize> = (0..grid.points()).collect();
            run_sweep_cells(&grid, &cells, |_, row| {
                sink.append(&row.to_json()).unwrap();
            });
            sink.finalize().unwrap()
        };
        let shard_paths: Vec<std::path::PathBuf> = (0..2)
            .map(|i| dir.join(format!("csmaprobe-shardmerge-{i}-{}", std::process::id())))
            .collect();
        for (i, path) in shard_paths.iter().enumerate() {
            let grid = make().with_shard(ShardSpec { index: i, count: 2 });
            let mut sink = RowSink::create(path).unwrap();
            run_sweep_cells(&grid, &grid.shard_cells(), |_, row| {
                sink.append(&row.to_json()).unwrap()
            });
        }
        let merged = RowSink::finalize_merged(&shard_paths).unwrap();
        assert_eq!(
            merged, full_table,
            "merged shard tables must be byte-identical to the unsharded run"
        );
        let _ = std::fs::remove_file(&full_path);
        for p in &shard_paths {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn grid_rows_deterministic_across_runs() {
        let _policy = auto_policy();
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
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_json(), y.to_json());
        }
    }
}
