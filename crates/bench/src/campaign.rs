//! Sharded grid campaigns: the shard partition of the cell space and
//! the **campaign manifest** that records its provenance.
//!
//! A [`ShardSpec`] `i/n` names one shard; [`shard_members`] gives the
//! cells it owns, by round-robin over the **name-keyed** cell order, so
//! membership never depends on how an operator ordered the axes. Only
//! the `grid` binary and [`BiasGrid`] shard; every other runner schedules
//! its whole cell space.
//!
//! A campaign is one grid configuration (one [`BiasGrid::fingerprint`])
//! partitioned over `n` shards, each persisting rows to its own JSONL
//! file, possibly on different hosts and across many interrupted
//! sessions. The manifest (`campaign.json` by default) is the durable
//! record tying those pieces together: for every shard it tracks the
//! row file, the host fingerprint that last ran it, expected vs
//! persisted cell counts, and an append-only history of sessions — so
//! the provenance of a table survives re-runs, and `--merge` can check
//! a campaign is complete before assembling it.
//!
//! The format is a small hand-rolled JSON document (the build
//! environment has no `serde`): one shard entry per line, parsed back
//! by targeted scans like the rest of this crate's readers. History
//! strings are machine-generated (host fingerprints and counts) and
//! never contain quotes, which keeps the parser honest.
//!
//! [`BiasGrid::fingerprint`]: crate::grid::BiasGrid::fingerprint
//! [`BiasGrid`]: crate::grid::BiasGrid

use crate::report::json_str;
use std::path::Path;

/// One shard of a sharded grid campaign: this process owns the cells at
/// positions `index`, `index + count`, `index + 2·count`, … of the
/// campaign's **name-keyed** cell order (see [`shard_members`]).
///
/// `0/1` (the [`ShardSpec::solo`] default) is the unsharded campaign:
/// one shard owning every cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's index, `0 <= index < count`.
    pub index: usize,
    /// Total number of shards in the campaign, `>= 1`.
    pub count: usize,
}

impl ShardSpec {
    /// The unsharded campaign: one shard owning everything.
    pub fn solo() -> Self {
        ShardSpec { index: 0, count: 1 }
    }

    /// Is this the unsharded `0/1` campaign?
    pub fn is_solo(&self) -> bool {
        self.count == 1
    }

    /// Parse an `i/n` CLI spec (`--shard 0/4`): both integers, `n >= 1`
    /// and `i < n`.
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let (i, n) = s
            .trim()
            .split_once('/')
            .ok_or_else(|| format!("malformed shard spec {s:?} (expected i/n, e.g. 0/4)"))?;
        let index: usize = i
            .trim()
            .parse()
            .map_err(|_| format!("shard index {i:?} is not an integer"))?;
        let count: usize = n
            .trim()
            .parse()
            .map_err(|_| format!("shard count {n:?} is not an integer"))?;
        if count == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range (must be below the count {count})"
            ));
        }
        Ok(ShardSpec { index, count })
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The flat cell indices owned by `shard` out of `total` cells, in
/// **ascending flat order** (ready for
/// [`run_sweep_cells`](csmaprobe_core::sweep::run_sweep_cells)).
///
/// Membership is decided by round-robin over the cells sorted by
/// `key_of` (ties broken by flat index): the cell at sorted position
/// `p` belongs to shard `p % shard.count`. With a *name* key (as the
/// bench grid uses) shard membership depends only on the set of cell
/// names in the campaign — never on axis selection order — so two
/// operators spelling the same campaign differently still agree on who
/// owns which cell.
///
/// # Panics
/// If `shard.count == 0` or `shard.index >= shard.count`.
pub fn shard_members<K: Ord>(
    total: usize,
    shard: ShardSpec,
    key_of: impl Fn(usize) -> K,
) -> Vec<usize> {
    assert!(shard.count >= 1, "shard count must be at least 1");
    assert!(shard.index < shard.count, "shard index out of range");
    let keys: Vec<K> = (0..total).map(&key_of).collect();
    let mut order: Vec<usize> = (0..total).collect();
    order.sort_by(|&a, &b| keys[a].cmp(&keys[b]).then(a.cmp(&b)));
    let mut members: Vec<usize> = order
        .iter()
        .enumerate()
        .filter(|(pos, _)| pos % shard.count == shard.index)
        .map(|(_, &flat)| flat)
        .collect();
    members.sort_unstable();
    members
}

/// One shard's slot in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Shard index, `0 <= index < CampaignManifest::shards`.
    pub index: usize,
    /// The shard's JSONL row file (as passed to `--out`).
    pub out: String,
    /// Host fingerprint (`<cores>x<arch>`) of the last session that
    /// ran this shard.
    pub host: String,
    /// Cells this shard owns (the partition size).
    pub cells: usize,
    /// Rows persisted so far (`rows == cells` ⇒ shard complete).
    pub rows: usize,
    /// One line per session that touched this shard, oldest first.
    pub history: Vec<String>,
}

impl ShardEntry {
    /// All owned cells persisted?
    pub fn complete(&self) -> bool {
        self.rows == self.cells
    }
}

/// The manifest of one sharded campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignManifest {
    /// The campaign's run-configuration fingerprint — every shard's
    /// rows must carry it.
    pub run: u64,
    /// Number of shards the campaign is partitioned into.
    pub shards: usize,
    /// Total cells across the whole campaign.
    pub cells: usize,
    /// Shard slots recorded so far, sorted by index. A slot appears
    /// once its shard has run at least one session.
    pub entries: Vec<ShardEntry>,
}

impl CampaignManifest {
    /// A fresh manifest with no shard sessions recorded yet.
    pub fn new(run: u64, shards: usize, cells: usize) -> Self {
        CampaignManifest {
            run,
            shards,
            cells,
            entries: Vec::new(),
        }
    }

    /// Record a shard session: upsert the shard's slot with its row
    /// file, host and current row count, and append a history line
    /// describing what this session changed. Returns an error if the
    /// entry's existing `out` path disagrees (two row files for one
    /// shard would make `--merge` ambiguous).
    pub fn record_session(
        &mut self,
        index: usize,
        out: &str,
        host: &str,
        cells: usize,
        rows: usize,
    ) -> Result<(), String> {
        if index >= self.shards {
            return Err(format!(
                "shard index {index} out of range for a {}-shard campaign",
                self.shards
            ));
        }
        let entry = match self.entries.iter_mut().find(|e| e.index == index) {
            Some(e) => {
                if e.out != out {
                    return Err(format!(
                        "shard {index} is recorded with row file {:?} but this session \
                         wrote {out:?}; one shard must keep one row file",
                        e.out
                    ));
                }
                e
            }
            None => {
                self.entries.push(ShardEntry {
                    index,
                    out: out.to_string(),
                    host: String::new(),
                    cells,
                    rows: 0,
                    history: Vec::new(),
                });
                self.entries.sort_by_key(|e| e.index);
                self.entries.iter_mut().find(|e| e.index == index).unwrap()
            }
        };
        let delta = rows as i64 - entry.rows as i64;
        entry.host = host.to_string();
        entry.cells = cells;
        entry.rows = rows;
        entry.history.push(format!(
            "{host}: {delta:+} row(s), {rows}/{cells} persisted"
        ));
        Ok(())
    }

    /// Every shard slot present and complete?
    pub fn complete(&self) -> bool {
        self.entries.len() == self.shards && self.entries.iter().all(|e| e.complete())
    }

    /// The shard row files, in shard order (for `--merge`).
    pub fn outs(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.out.as_str()).collect()
    }

    /// Serialize (one shard entry per line; see the module doc).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"run\": \"{:016x}\",\n", self.run));
        out.push_str(&format!("  \"shards\": {},\n", self.shards));
        out.push_str(&format!("  \"cells\": {},\n", self.cells));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let history: Vec<String> = e.history.iter().map(|h| json_str(h)).collect();
            out.push_str(&format!(
                "    {{\"shard\":{},\"out\":{},\"host\":{},\"cells\":{},\"rows\":{},\
                 \"history\":[{}]}}{}\n",
                e.index,
                json_str(&e.out),
                json_str(&e.host),
                e.cells,
                e.rows,
                history.join(","),
                if i + 1 < self.entries.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse what [`CampaignManifest::to_json`] wrote.
    pub fn parse(text: &str) -> Result<Self, String> {
        let run_hex = scan_str(text, "\"run\": \"").ok_or("manifest has no run fingerprint")?;
        let run = u64::from_str_radix(run_hex, 16)
            .map_err(|_| format!("malformed run fingerprint {run_hex:?}"))?;
        let shards = scan_usize(text, "\"shards\": ").ok_or("manifest has no shard count")?;
        let cells = scan_usize(text, "\"cells\": ").ok_or("manifest has no cell count")?;
        let mut entries = Vec::new();
        for line in text.lines().map(str::trim) {
            let Some(rest) = line.strip_prefix("{\"shard\":") else {
                continue;
            };
            let index: usize = rest[..rest.find(',').ok_or("torn shard entry")?]
                .parse()
                .map_err(|_| "malformed shard index".to_string())?;
            let out = scan_str(line, "\"out\":").ok_or("shard entry has no out path")?;
            let host = scan_str(line, "\"host\":").ok_or("shard entry has no host")?;
            let cells = scan_usize(line, "\"cells\":").ok_or("shard entry has no cell count")?;
            let rows = scan_usize(line, "\"rows\":").ok_or("shard entry has no row count")?;
            let hist_at = line
                .find("\"history\":[")
                .ok_or("shard entry has no history")?;
            let hist = &line[hist_at + "\"history\":[".len()..];
            let hist = &hist[..hist.rfind(']').ok_or("torn history")?];
            let history: Vec<String> = hist
                .split("\",\"")
                .map(|h| h.trim_matches('"').to_string())
                .filter(|h| !h.is_empty())
                .collect();
            entries.push(ShardEntry {
                index,
                out: out.to_string(),
                host: host.to_string(),
                cells,
                rows,
                history,
            });
        }
        entries.sort_by_key(|e| e.index);
        Ok(CampaignManifest {
            run,
            shards,
            cells,
            entries,
        })
    }

    /// Load a manifest file; `Ok(None)` when it does not exist yet.
    pub fn load(path: impl AsRef<Path>) -> Result<Option<Self>, String> {
        let path = path.as_ref();
        match std::fs::read_to_string(path) {
            Ok(text) => Self::parse(&text)
                .map(Some)
                .map_err(|e| format!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }

    /// Write the manifest to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// The hardware fingerprint recorded with each shard session:
/// `<logical cores>x<arch>` — coarse on purpose (it must be stable
/// across reboots of the same runner class), but enough to separate a
/// 2-core shared runner from an 8-core one.
pub fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!("{cores}x{}", std::env::consts::ARCH)
}

/// The string value following `pat` (up to the closing quote).
fn scan_str<'a>(text: &'a str, pat: &str) -> Option<&'a str> {
    let at = text.find(pat)? + pat.len();
    let rest = text[at..].trim_start();
    let rest = rest.strip_prefix('"').unwrap_or(rest);
    rest.find('"').map(|end| &rest[..end])
}

/// The integer value following `pat`.
fn scan_usize(text: &str, pat: &str) -> Option<usize> {
    let at = text.find(pat)? + pat.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CampaignManifest {
        let mut m = CampaignManifest::new(0xdead_beef_0123_4567, 2, 8);
        m.record_session(1, "s1.jsonl", "4xx86_64", 4, 2).unwrap();
        m.record_session(0, "s0.jsonl", "2xaarch64", 4, 4).unwrap();
        m.record_session(1, "s1.jsonl", "4xx86_64", 4, 4).unwrap();
        m
    }

    #[test]
    fn round_trips_through_json() {
        let m = sample();
        let parsed = CampaignManifest::parse(&m.to_json()).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn records_sessions_with_history() {
        let m = sample();
        assert_eq!(m.entries.len(), 2);
        assert_eq!(m.entries[0].index, 0, "entries sorted by shard index");
        assert_eq!(m.entries[0].host, "2xaarch64");
        assert!(m.entries[0].complete());
        assert_eq!(
            m.entries[1].history,
            vec![
                "4xx86_64: +2 row(s), 2/4 persisted",
                "4xx86_64: +2 row(s), 4/4 persisted"
            ],
            "history survives re-runs"
        );
        assert!(m.complete());
        assert_eq!(m.outs(), vec!["s0.jsonl", "s1.jsonl"]);
    }

    #[test]
    fn incomplete_until_every_shard_finishes() {
        let mut m = CampaignManifest::new(1, 3, 9);
        assert!(!m.complete(), "no shard has run");
        m.record_session(0, "s0.jsonl", "h", 3, 3).unwrap();
        m.record_session(1, "s1.jsonl", "h", 3, 2).unwrap();
        assert!(!m.complete(), "shard 1 short, shard 2 missing");
        m.record_session(1, "s1.jsonl", "h", 3, 3).unwrap();
        assert!(!m.complete(), "shard 2 still missing");
        m.record_session(2, "s2.jsonl", "h", 3, 3).unwrap();
        assert!(m.complete());
    }

    #[test]
    fn rejects_out_path_changes_and_bad_indices() {
        let mut m = CampaignManifest::new(1, 2, 4);
        m.record_session(0, "a.jsonl", "h", 2, 1).unwrap();
        assert!(m.record_session(0, "b.jsonl", "h", 2, 2).is_err());
        assert!(m.record_session(2, "c.jsonl", "h", 2, 0).is_err());
    }

    #[test]
    fn load_of_missing_file_is_none_and_save_round_trips() {
        let path =
            std::env::temp_dir().join(format!("csmaprobe-campaign-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        assert_eq!(CampaignManifest::load(&path).unwrap(), None);
        let m = sample();
        m.save(&path).unwrap();
        assert_eq!(CampaignManifest::load(&path).unwrap(), Some(m));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn host_fingerprint_is_stable_and_shaped() {
        let a = host_fingerprint();
        assert_eq!(a, host_fingerprint());
        let (cores, arch) = a.split_once('x').expect("cores x arch");
        assert!(cores.parse::<usize>().unwrap() >= 1);
        assert!(!arch.is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CampaignManifest::parse("").is_err());
        assert!(CampaignManifest::parse("{\"run\": \"zzz\"}").is_err());
    }

    #[test]
    fn shard_spec_parses_and_rejects() {
        assert_eq!(
            ShardSpec::parse("0/4").unwrap(),
            ShardSpec { index: 0, count: 4 }
        );
        assert_eq!(
            ShardSpec::parse(" 3/8 ").unwrap(),
            ShardSpec { index: 3, count: 8 }
        );
        assert!(
            ShardSpec::parse("4/4").is_err(),
            "index must be below count"
        );
        assert!(ShardSpec::parse("0/0").is_err(), "count must be >= 1");
        assert!(ShardSpec::parse("0").is_err(), "missing slash");
        assert!(ShardSpec::parse("a/b").is_err(), "non-numeric");
        assert!(ShardSpec::parse("-1/2").is_err(), "negative index");
        assert_eq!(ShardSpec::solo().to_string(), "0/1");
        assert!(ShardSpec::solo().is_solo());
        assert!(!ShardSpec::parse("0/2").unwrap().is_solo());
    }

    #[test]
    fn shard_members_partition_the_cell_space() {
        let key = |f: usize| format!("cell-{f:03}");
        for total in [0usize, 1, 5, 24] {
            for count in 1..=8usize {
                let mut seen = vec![false; total];
                for index in 0..count {
                    let members = shard_members(total, ShardSpec { index, count }, key);
                    assert!(
                        members.windows(2).all(|w| w[0] < w[1]),
                        "ascending flat order"
                    );
                    for &f in &members {
                        assert!(!seen[f], "cell {f} owned by two shards");
                        seen[f] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "union covers every cell");
            }
        }
        // Solo shard owns everything.
        assert_eq!(shard_members(4, ShardSpec::solo(), key), vec![0, 1, 2, 3]);
    }

    #[test]
    fn shard_membership_follows_the_key_order_not_the_flat_order() {
        // Reverse the key order: sorted position of flat f is 3 - f, so
        // shard 0 of 2 owns sorted positions {0, 2} = flat cells {3, 1}.
        let key = |f: usize| 3 - f;
        let s0 = shard_members(4, ShardSpec { index: 0, count: 2 }, key);
        let s1 = shard_members(4, ShardSpec { index: 1, count: 2 }, key);
        assert_eq!(s0, vec![1, 3]);
        assert_eq!(s1, vec![0, 2]);
    }
}
