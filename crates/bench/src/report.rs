//! Figure reports: the common output format of every experiment — plus
//! [`RowSink`], the incremental, crash-tolerant JSONL persister behind
//! the scenario grid runner.

use std::fmt::Write as _;
use std::io::{Read as _, Seek as _, Write as _};
use std::path::{Path, PathBuf};

/// One qualitative reproduction check ("shape" assertion).
#[derive(Debug, Clone)]
pub struct Check {
    /// Short name of the property checked.
    pub name: String,
    /// Whether the regenerated data satisfies it.
    pub passed: bool,
    /// Human-readable evidence (numbers involved).
    pub detail: String,
}

/// The regenerated data behind one figure of the paper.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Identifier, e.g. `"fig06"`.
    pub id: String,
    /// Title, e.g. `"Mean access delay vs probe packet number"`.
    pub title: String,
    /// What the paper's version of the figure shows (expected shape).
    pub paper_expectation: String,
    /// Column names of `rows`.
    pub columns: Vec<String>,
    /// The regenerated series.
    pub rows: Vec<Vec<f64>>,
    /// Scalar summary values (measured capacities, knees, …).
    pub scalars: Vec<(String, f64)>,
    /// Qualitative checks with outcomes.
    pub checks: Vec<Check>,
    /// Named wall-clock measurements taken *inside* the figure (the
    /// tier-speedup experiment times its engine tiers). Like
    /// [`elapsed_s`](Self::elapsed_s) these are non-deterministic:
    /// consumers comparing `experiments.json` across runs must ignore
    /// the `wallclock` field.
    pub wallclocks: Vec<(String, f64)>,
    /// Wall-clock seconds the figure took to regenerate (recorded by
    /// the `all_figures` scheduler; `None` when run standalone).
    /// Non-deterministic, like [`wallclocks`](Self::wallclocks):
    /// consumers comparing `experiments.json` across runs should
    /// ignore it.
    pub elapsed_s: Option<f64>,
}

impl FigureReport {
    /// An empty report skeleton.
    pub fn new(id: &str, title: &str, paper_expectation: &str, columns: &[&str]) -> Self {
        FigureReport {
            id: id.to_string(),
            title: title.to_string(),
            paper_expectation: paper_expectation.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            scalars: Vec::new(),
            checks: Vec::new(),
            wallclocks: Vec::new(),
            elapsed_s: None,
        }
    }

    /// Record a named wall-clock measurement (seconds). Serialized into
    /// the non-deterministic `wallclock` field, never into `scalars`,
    /// so timing noise cannot break the bit-reproducibility contract
    /// pinned by `tests/determinism.rs`.
    pub fn wallclock(&mut self, name: &str, seconds: f64) {
        self.wallclocks.push((name.to_string(), seconds));
    }

    /// Append one data row (must match `columns` in length).
    pub fn row(&mut self, values: Vec<f64>) {
        debug_assert_eq!(values.len(), self.columns.len());
        self.rows.push(values);
    }

    /// Record a named scalar (measured capacity, knee position, …).
    pub fn scalar(&mut self, name: &str, value: f64) {
        self.scalars.push((name.to_string(), value));
    }

    /// Record a qualitative check.
    pub fn check(&mut self, name: &str, passed: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail,
        });
    }

    /// All checks passed?
    pub fn all_passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Render as TSV + check summary (what `all_figures` prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        let _ = writeln!(out, "# paper: {}", self.paper_expectation);
        for (name, v) in &self.scalars {
            let _ = writeln!(out, "# {name} = {v:.6}");
        }
        let _ = writeln!(out, "{}", self.columns.join("\t"));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v:.6}")).collect();
            let _ = writeln!(out, "{}", cells.join("\t"));
        }
        for c in &self.checks {
            let _ = writeln!(
                out,
                "# CHECK [{}] {} — {}",
                if c.passed { "PASS" } else { "FAIL" },
                c.name,
                c.detail
            );
        }
        out
    }

    /// Print the rendered report to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Serialize to a JSON object (hand-rolled; the build environment has
    /// no `serde`). Field names and layout match what a
    /// `#[derive(Serialize)]` on this struct would produce.
    pub fn to_json(&self) -> String {
        let mut o = String::from("{");
        let _ = write!(o, "\"id\":{}", json_str(&self.id));
        let _ = write!(o, ",\"title\":{}", json_str(&self.title));
        let _ = write!(
            o,
            ",\"paper_expectation\":{}",
            json_str(&self.paper_expectation)
        );
        let cols: Vec<String> = self.columns.iter().map(|c| json_str(c)).collect();
        let _ = write!(o, ",\"columns\":[{}]", cols.join(","));
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let cells: Vec<String> = r.iter().map(|v| json_f64(*v)).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        let _ = write!(o, ",\"rows\":[{}]", rows.join(","));
        let scalars: Vec<String> = self
            .scalars
            .iter()
            .map(|(name, v)| format!("[{},{}]", json_str(name), json_f64(*v)))
            .collect();
        let _ = write!(o, ",\"scalars\":[{}]", scalars.join(","));
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":{},\"passed\":{},\"detail\":{}}}",
                    json_str(&c.name),
                    c.passed,
                    json_str(&c.detail)
                )
            })
            .collect();
        let _ = write!(o, ",\"checks\":[{}]", checks.join(","));
        if !self.wallclocks.is_empty() {
            let ws: Vec<String> = self
                .wallclocks
                .iter()
                .map(|(name, v)| format!("[{},{}]", json_str(name), json_f64(*v)))
                .collect();
            let _ = write!(o, ",\"wallclock\":[{}]", ws.join(","));
        }
        if let Some(t) = self.elapsed_s {
            let _ = write!(o, ",\"elapsed_s\":{}", json_f64(t));
        }
        o.push('}');
        o
    }
}

/// Serialize a slice of reports as a pretty-ish JSON array (one report
/// object per line), suitable for `experiments.json`.
pub fn reports_to_json(reports: &[FigureReport]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str("  ");
        out.push_str(&r.to_json());
        if i + 1 < reports.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out.push('\n');
    out
}

/// Append-only JSONL row store with crash-tolerant resume: the
/// persistence layer of the grid runner (`bin/grid`).
///
/// Each row is one line, a JSON object whose **first two fields are**
/// `"cell":<flat index>` and `"key":"<unique cell key>"` (the rest is
/// free-form). Rows are flushed line-by-line, so an interrupted run
/// loses at most the line being written. [`RowSink::resume`] scans an
/// existing file, keeps the longest prefix of complete rows, truncates
/// any torn tail (a kill mid-`write` leaves a partial last line), and
/// reports the persisted keys so the caller can schedule only the
/// missing cells.
///
/// [`RowSink::finalize`] assembles the rows — sorted by cell index, so
/// the output is independent of completion or resume order — into an
/// `experiments.json`-style JSON array.
#[derive(Debug)]
pub struct RowSink {
    path: PathBuf,
    file: std::fs::File,
    keys: std::collections::BTreeSet<String>,
    rows: usize,
}

/// The `"key"` field of a complete JSONL row line, if the line is one.
///
/// A line qualifies when it starts with `{"cell":`, carries a
/// `"key":"…"` field, and closes its object (`}`): the format
/// [`RowSink::append`] enforces and [`RowSink::resume`] trusts.
pub fn row_key(line: &str) -> Option<&str> {
    let line = line.trim_end_matches('\r');
    if !line.starts_with("{\"cell\":") || !line.ends_with('}') {
        return None;
    }
    let at = line.find(",\"key\":\"")?;
    let rest = &line[at + ",\"key\":\"".len()..];
    rest.find('"').map(|end| &rest[..end])
}

/// The `"cell"` field of a complete JSONL row line.
pub fn row_cell(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"cell\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// The `"run"` fingerprint (16 hex digits) of a row line, if present.
pub fn row_run(line: &str) -> Option<u64> {
    let at = line.find(",\"run\":\"")?;
    let rest = &line[at + ",\"run\":\"".len()..];
    u64::from_str_radix(rest.get(..16)?, 16).ok()
}

/// The `"shard"` provenance field of a row line, if present.
pub fn row_shard(line: &str) -> Option<&str> {
    let at = line.find(",\"shard\":\"")?;
    let rest = &line[at + ",\"shard\":\"".len()..];
    rest.find('"').map(|end| &rest[..end])
}

/// Remove the `"shard"` provenance field from a row line, if present.
///
/// The shard field is resume-time bookkeeping (which `--shard i/n`
/// spec produced the row); the finalized table is campaign-level, so
/// [`RowSink::finalize`] and [`RowSink::finalize_merged`] both strip it
/// — that is what makes a merged shard table byte-identical to the
/// unsharded run's.
pub fn strip_shard(line: &str) -> String {
    if let Some(at) = line.find(",\"shard\":\"") {
        let value_start = at + ",\"shard\":\"".len();
        if let Some(end) = line[value_start..].find('"') {
            let mut out = String::with_capacity(line.len());
            out.push_str(&line[..at]);
            out.push_str(&line[value_start + end + 1..]);
            return out;
        }
    }
    line.to_string()
}

/// The longest complete-row prefix of a row file's bytes: its byte
/// length, the rows, and their keys. A malformed or duplicate-key line
/// ends the prefix — the writer produces neither, so nothing after it
/// is trustworthy.
struct ScannedPrefix {
    good: usize,
    rows: Vec<String>,
    keys: std::collections::BTreeSet<String>,
}

fn scan_complete_prefix(bytes: &[u8]) -> ScannedPrefix {
    let mut keys = std::collections::BTreeSet::new();
    let mut rows = Vec::new();
    let mut good = 0usize;
    let mut start = 0usize;
    while let Some(nl) = bytes[start..].iter().position(|&b| b == b'\n') {
        let line = match std::str::from_utf8(&bytes[start..start + nl]) {
            Ok(l) => l,
            Err(_) => break,
        };
        match row_key(line) {
            Some(key) if keys.insert(key.to_string()) => {
                rows.push(line.to_string());
                start += nl + 1;
                good = start;
            }
            _ => break,
        }
    }
    ScannedPrefix { good, rows, keys }
}

/// A **read-only** snapshot of a row file: the longest complete-row
/// prefix, loaded without opening the file for writing and without
/// truncating a torn tail (contrast [`RowSink::resume`], which owns the
/// file and repairs it in place). This is what the merge and listing
/// paths use — merging N shard files must never mutate its inputs, and
/// it works on files the process has no write permission to.
#[derive(Debug)]
pub struct RowFile {
    path: PathBuf,
    rows: Vec<String>,
    keys: std::collections::BTreeSet<String>,
}

impl RowFile {
    /// The complete rows, in file order.
    pub fn rows(&self) -> &[String] {
        &self.rows
    }

    /// Number of complete rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// No complete rows?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Has a row with this key?
    pub fn contains(&self, key: &str) -> bool {
        self.keys.contains(key)
    }

    /// The file the rows were loaded from.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl RowSink {
    /// Open `path` fresh, discarding any existing content.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<RowSink> {
        let path = path.into();
        let file = std::fs::File::create(&path)?;
        Ok(RowSink {
            path,
            file,
            keys: Default::default(),
            rows: 0,
        })
    }

    /// Open `path` for resuming **writes**: keep the longest prefix of
    /// complete rows, truncate everything after it (torn tail line or
    /// trailing garbage), and load the persisted keys. A missing file
    /// resumes from nothing.
    ///
    /// This opens the file read-write and repairs it in place — it is
    /// the path for a run that will append more rows. Callers that only
    /// want to *read* rows (merging shard files, listing pending cells)
    /// must use [`RowSink::load`] instead, which never mutates the file.
    pub fn resume(path: impl Into<PathBuf>) -> std::io::Result<RowSink> {
        let path = path.into();
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let scanned = scan_complete_prefix(&bytes);
        if scanned.good < bytes.len() {
            file.set_len(scanned.good as u64)?;
        }
        file.seek(std::io::SeekFrom::Start(scanned.good as u64))?;
        Ok(RowSink {
            path,
            file,
            keys: scanned.keys,
            rows: scanned.rows.len(),
        })
    }

    /// Load `path` **read-only**: the longest complete-row prefix, with
    /// a torn tail *ignored* rather than truncated. The file is opened
    /// without write access and its bytes are never touched, so this
    /// works on inputs the caller must not (or cannot — `chmod 444`)
    /// mutate: the shard files of [`RowSink::finalize_merged`] and the
    /// `--list` audit path.
    pub fn load(path: impl Into<PathBuf>) -> std::io::Result<RowFile> {
        let path = path.into();
        let bytes = std::fs::read(&path)?;
        let scanned = scan_complete_prefix(&bytes);
        Ok(RowFile {
            path,
            rows: scanned.rows,
            keys: scanned.keys,
        })
    }

    /// Number of persisted rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// No rows yet?
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Has a row with this key already been persisted?
    pub fn contains(&self, key: &str) -> bool {
        self.keys.contains(key)
    }

    /// The path rows are persisted to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one row line (a complete JSON object, no newline) and
    /// flush it to disk.
    ///
    /// # Panics
    /// If `line` is not in the sink's row format ([`row_key`] must
    /// accept it), contains a newline, or repeats a persisted key.
    pub fn append(&mut self, line: &str) -> std::io::Result<()> {
        assert!(!line.contains('\n'), "row must be a single line");
        let key = row_key(line).expect("row line must carry cell and key fields");
        assert!(!self.keys.contains(key), "duplicate row key {key}");
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()?;
        self.keys.insert(key.to_string());
        self.rows += 1;
        Ok(())
    }

    /// Read the persisted rows back (complete lines, file order).
    pub fn read_rows(&self) -> std::io::Result<Vec<String>> {
        let text = std::fs::read_to_string(&self.path)?;
        Ok(text
            .lines()
            .filter(|l| row_key(l).is_some())
            .map(String::from)
            .collect())
    }

    /// Assemble the persisted rows into an `experiments.json`-style
    /// JSON array, **sorted by cell index** so the table is identical
    /// for interrupted-and-resumed and uninterrupted runs.
    ///
    /// A duplicate cell key (impossible through [`RowSink::append`],
    /// but a file edited or concatenated outside the sink can carry
    /// one) keeps the **last** row and logs the collision — in a
    /// single file the later row is the later re-run. Shard provenance
    /// fields are stripped ([`strip_shard`]): the table is
    /// campaign-level.
    pub fn finalize(&self) -> std::io::Result<String> {
        let rows = self.read_rows()?;
        let mut latest: std::collections::BTreeMap<String, &String> = Default::default();
        for line in &rows {
            let key = row_key(line).unwrap_or_default().to_string();
            if latest.insert(key.clone(), line).is_some() {
                eprintln!(
                    "warning: duplicate cell key {key} in {}; keeping the last row",
                    self.path.display()
                );
            }
        }
        let mut rows: Vec<&String> = latest.into_values().collect();
        rows.sort_by_key(|l| row_cell(l).unwrap_or(u64::MAX));
        Ok(assemble_table(rows.into_iter()))
    }

    /// Assemble the rows of N **shard files** into the byte-identical
    /// table the unsharded run would have produced with
    /// [`RowSink::finalize`].
    ///
    /// Every input is loaded read-only via [`RowSink::load`] — merging
    /// never truncates a torn tail or otherwise mutates a shard file
    /// (torn tails are ignored; re-run the shard with `--resume` to
    /// repair and complete it). Before assembling, the merge verifies:
    ///
    /// - **one campaign**: every row carrying a `"run"` fingerprint
    ///   carries the same one (and files with and without fingerprints
    ///   don't mix);
    /// - **pairwise-disjoint coverage**: no cell key and no cell index
    ///   appears in two inputs — a duplicate here means two shards ran
    ///   overlapping specs (or one file was merged twice), and unlike
    ///   the single-file case there is no "later re-run" to prefer, so
    ///   it is a hard error.
    ///
    /// Shard provenance fields are stripped exactly as in
    /// [`RowSink::finalize`].
    pub fn finalize_merged(paths: &[impl AsRef<Path>]) -> std::io::Result<String> {
        let corrupt = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let mut all: Vec<String> = Vec::new();
        let mut key_owner: std::collections::BTreeMap<String, PathBuf> = Default::default();
        let mut cell_owner: std::collections::BTreeMap<u64, PathBuf> = Default::default();
        let mut run: Option<Option<u64>> = None;
        for path in paths {
            let file = RowSink::load(path.as_ref())?;
            for line in file.rows() {
                let this_run = row_run(line);
                match run {
                    None => run = Some(this_run),
                    Some(first) if first != this_run => {
                        return Err(corrupt(format!(
                            "{}: row fingerprint {:016x} does not match the other \
                             shards' {:016x} — the inputs come from different campaigns",
                            file.path().display(),
                            this_run.unwrap_or(0),
                            first.unwrap_or(0),
                        )));
                    }
                    Some(_) => {}
                }
                let key = row_key(line).unwrap_or_default().to_string();
                if let Some(prev) = key_owner.insert(key.clone(), file.path().to_path_buf()) {
                    return Err(corrupt(format!(
                        "cell key {key} appears in both {} and {} — shard coverage \
                         must be pairwise disjoint",
                        prev.display(),
                        file.path().display(),
                    )));
                }
                if let Some(cell) = row_cell(line) {
                    if let Some(prev) = cell_owner.insert(cell, file.path().to_path_buf()) {
                        return Err(corrupt(format!(
                            "cell index {cell} appears in both {} and {} — shard \
                             coverage must be pairwise disjoint",
                            prev.display(),
                            file.path().display(),
                        )));
                    }
                }
                all.push(line.clone());
            }
        }
        all.sort_by_key(|l| row_cell(l).unwrap_or(u64::MAX));
        Ok(assemble_table(all.iter()))
    }
}

/// Wrap cell-sorted rows as the finalized JSON array (shard provenance
/// stripped) — the one serialisation behind both finalize flavours.
fn assemble_table<S: AsRef<str>>(rows: impl ExactSizeIterator<Item = S>) -> String {
    let n = rows.len();
    let mut out = String::from("[\n");
    for (i, r) in rows.enumerate() {
        out.push_str("  ");
        out.push_str(&strip_shard(r.as_ref()));
        if i + 1 < n {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// JSON string literal with the escapes required by RFC 8259.
///
/// Public because every layer that writes [`RowSink`]-compatible rows
/// (the grid runner here, the serving layer in `csmaprobe-service`)
/// must serialize fields identically for finalized tables to be
/// byte-comparable.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number for an `f64`. JSON has no NaN/Infinity; encode them as
/// null so the output always parses. Public for the same
/// byte-compatibility reason as [`json_str`].
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `{v:?}` round-trips f64 exactly and always includes a decimal
        // point or exponent, so the value re-parses as a float.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_everything() {
        let mut r = FigureReport::new("figX", "Title", "expected shape", &["a", "b"]);
        r.row(vec![1.0, 2.0]);
        r.scalar("c_mbps", 6.2);
        r.check("knee", true, "at 3.3".into());
        let text = r.render();
        assert!(text.contains("figX"));
        assert!(text.contains("a\tb"));
        assert!(text.contains("1.000000\t2.000000"));
        assert!(text.contains("c_mbps"));
        assert!(text.contains("CHECK [PASS] knee"));
        assert!(r.all_passed());
    }

    #[test]
    fn failed_check_flips_all_passed() {
        let mut r = FigureReport::new("f", "t", "p", &["x"]);
        r.check("bad", false, "nope".into());
        assert!(!r.all_passed());
        assert!(r.render().contains("CHECK [FAIL]"));
    }

    #[test]
    fn serializes_to_json() {
        let mut r = FigureReport::new("f", "t", "p", &["x"]);
        r.row(vec![4.25]);
        let j = r.to_json();
        assert!(j.contains("\"id\":\"f\""));
        assert!(j.contains("4.25"));
    }

    #[test]
    fn json_escapes_and_non_finite() {
        let mut r = FigureReport::new("f", "quote \" tab \t", "p", &["x"]);
        r.row(vec![f64::NAN]);
        r.check("c", true, "line\nbreak".into());
        let j = r.to_json();
        assert!(j.contains("quote \\\" tab \\t"));
        assert!(j.contains("line\\nbreak"));
        assert!(j.contains("null"));
        assert!(!j.contains("NaN"));
    }

    #[test]
    fn elapsed_is_serialized_only_when_recorded() {
        let mut r = FigureReport::new("f", "t", "p", &["x"]);
        assert!(!r.to_json().contains("elapsed_s"));
        r.elapsed_s = Some(1.25);
        assert!(r.to_json().contains("\"elapsed_s\":1.25"));
    }

    #[test]
    fn wallclock_is_serialized_only_when_recorded() {
        let mut r = FigureReport::new("f", "t", "p", &["x"]);
        assert!(!r.to_json().contains("wallclock"));
        r.wallclock("event_s", 0.5);
        r.wallclock("analytic_s", 0.25);
        let j = r.to_json();
        assert!(j.contains("\"wallclock\":[[\"event_s\",0.5],[\"analytic_s\",0.25]]"));
        // It must never leak into the deterministic scalar channel.
        assert!(j.contains("\"scalars\":[]"));
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("csmaprobe-rowsink-{}-{name}", std::process::id()))
    }

    fn row_line(cell: u64, key: &str, v: f64) -> String {
        format!(
            "{{\"cell\":{cell},\"key\":{},\"v\":{}}}",
            json_str(key),
            json_f64(v)
        )
    }

    #[test]
    fn row_key_and_cell_accept_only_complete_rows() {
        let line = row_line(4, "a/b", 1.5);
        assert_eq!(row_key(&line), Some("a/b"));
        assert_eq!(row_cell(&line), Some(4));
        assert_eq!(row_key(&line[..line.len() - 3]), None, "torn line");
        assert_eq!(row_key("{\"v\":1}"), None, "missing cell/key");
        assert_eq!(row_key(""), None);
    }

    #[test]
    fn sink_appends_flushes_and_finalizes_sorted() {
        let p = tmp("basic");
        let mut sink = RowSink::create(&p).unwrap();
        // Out-of-cell-order appends (a resumed run does this).
        sink.append(&row_line(2, "c", 3.0)).unwrap();
        sink.append(&row_line(0, "a", 1.0)).unwrap();
        sink.append(&row_line(1, "b", 2.0)).unwrap();
        assert_eq!(sink.len(), 3);
        assert!(sink.contains("b") && !sink.contains("d"));
        let table = sink.finalize().unwrap();
        let a = table.find("\"key\":\"a\"").unwrap();
        let b = table.find("\"key\":\"b\"").unwrap();
        let c = table.find("\"key\":\"c\"").unwrap();
        assert!(a < b && b < c, "finalize sorts by cell index");
        assert!(table.trim_start().starts_with('[') && table.trim_end().ends_with(']'));
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn resume_truncates_torn_tail_and_skips_done_cells() {
        let p = tmp("resume");
        {
            let mut sink = RowSink::create(&p).unwrap();
            sink.append(&row_line(0, "a", 1.0)).unwrap();
            sink.append(&row_line(1, "b", 2.0)).unwrap();
        }
        // Simulate a kill mid-write: a torn third line.
        let mut bytes = std::fs::read(&p).unwrap();
        bytes.extend_from_slice(b"{\"cell\":2,\"key\":\"c\",\"v\":3");
        std::fs::write(&p, &bytes).unwrap();

        let mut sink = RowSink::resume(&p).unwrap();
        assert_eq!(sink.len(), 2, "torn tail dropped");
        assert!(sink.contains("a") && sink.contains("b") && !sink.contains("c"));
        sink.append(&row_line(2, "c", 3.0)).unwrap();
        let rows = sink.read_rows().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(row_key(&rows[2]), Some("c"));
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn resume_of_missing_file_starts_empty() {
        let p = tmp("fresh");
        let _ = std::fs::remove_file(&p);
        let sink = RowSink::resume(&p).unwrap();
        assert!(sink.is_empty());
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    #[should_panic(expected = "duplicate row key")]
    fn duplicate_keys_are_rejected() {
        let p = tmp("dup");
        let mut sink = RowSink::create(&p).unwrap();
        sink.append(&row_line(0, "a", 1.0)).unwrap();
        let _ = std::fs::remove_file(&p);
        sink.append(&row_line(1, "a", 2.0)).unwrap();
    }

    fn shard_row_line(cell: u64, key: &str, v: f64, shard: &str) -> String {
        format!(
            "{{\"cell\":{cell},\"key\":{},\"run\":\"00000000deadbeef\",\"shard\":{},\"v\":{}}}",
            json_str(key),
            json_str(shard),
            json_f64(v)
        )
    }

    #[test]
    fn row_run_and_shard_parse_and_strip() {
        let line = shard_row_line(3, "a/b", 1.5, "1/2:0123456789abcdef");
        assert_eq!(row_run(&line), Some(0xdead_beef));
        assert_eq!(row_shard(&line), Some("1/2:0123456789abcdef"));
        let stripped = strip_shard(&line);
        assert!(!stripped.contains("shard"));
        assert_eq!(row_key(&stripped), Some("a/b"));
        assert_eq!(row_run(&stripped), Some(0xdead_beef));
        // Rows without the fields are untouched.
        let bare = row_line(0, "k", 1.0);
        assert_eq!(row_run(&bare), None);
        assert_eq!(row_shard(&bare), None);
        assert_eq!(strip_shard(&bare), bare);
    }

    #[test]
    fn load_is_read_only_and_ignores_torn_tail() {
        let p = tmp("load");
        {
            let mut sink = RowSink::create(&p).unwrap();
            sink.append(&row_line(0, "a", 1.0)).unwrap();
            sink.append(&row_line(1, "b", 2.0)).unwrap();
        }
        let mut bytes = std::fs::read(&p).unwrap();
        bytes.extend_from_slice(b"{\"cell\":2,\"key\":\"c\",\"v\":3");
        std::fs::write(&p, &bytes).unwrap();

        let loaded = RowSink::load(&p).unwrap();
        assert_eq!(loaded.len(), 2, "torn tail excluded from the rows");
        assert!(loaded.contains("a") && loaded.contains("b") && !loaded.contains("c"));
        assert_eq!(row_key(&loaded.rows()[1]), Some("b"));
        // Crucially: the file bytes were NOT repaired.
        assert_eq!(std::fs::read(&p).unwrap(), bytes, "load must not truncate");
        let _ = std::fs::remove_file(&p);
    }

    #[cfg(unix)]
    #[test]
    fn readonly_shard_files_merge_successfully() {
        let paths = [tmp("ro-merge-0"), tmp("ro-merge-1")];
        for (i, p) in paths.iter().enumerate() {
            let mut sink = RowSink::create(p).unwrap();
            for cell in [i as u64, (i + 2) as u64] {
                sink.append(&shard_row_line(
                    cell,
                    &format!("cell-{cell}"),
                    cell as f64,
                    &format!("{i}/2:{i:016x}"),
                ))
                .unwrap();
            }
            let mut perms = std::fs::metadata(p).unwrap().permissions();
            perms.set_readonly(true);
            std::fs::set_permissions(p, perms).unwrap();
        }
        let before: Vec<Vec<u8>> = paths.iter().map(|p| std::fs::read(p).unwrap()).collect();
        let table = RowSink::finalize_merged(&paths).unwrap();
        for key in ["cell-0", "cell-1", "cell-2", "cell-3"] {
            assert!(table.contains(key), "{key} missing from merged table");
        }
        assert!(!table.contains("shard"), "shard provenance stripped");
        for (p, bytes) in paths.iter().zip(&before) {
            assert_eq!(&std::fs::read(p).unwrap(), bytes, "merge input mutated");
            let mut perms = std::fs::metadata(p).unwrap().permissions();
            #[allow(clippy::permissions_set_readonly_false)]
            perms.set_readonly(false);
            std::fs::set_permissions(p, perms).unwrap();
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn merged_table_is_byte_identical_to_the_unsharded_finalize() {
        // One "campaign" of 5 cells persisted unsharded, and the same
        // rows split round-robin over 2 shard files: finalize vs
        // finalize_merged must agree byte-for-byte (shard provenance
        // differs per file, so only stripping makes this possible).
        let full_path = tmp("merge-full");
        let shard_paths = [tmp("merge-s0"), tmp("merge-s1")];
        let mut full = RowSink::create(&full_path).unwrap();
        let mut shards: Vec<RowSink> = shard_paths
            .iter()
            .map(|p| RowSink::create(p).unwrap())
            .collect();
        for cell in 0..5u64 {
            let key = format!("cell-{cell}");
            let owner = (cell % 2) as usize;
            full.append(&shard_row_line(
                cell,
                &key,
                cell as f64,
                "0/1:aaaaaaaaaaaaaaaa",
            ))
            .unwrap();
            shards[owner]
                .append(&shard_row_line(
                    cell,
                    &key,
                    cell as f64,
                    &format!("{owner}/2:{owner:016x}"),
                ))
                .unwrap();
        }
        let unsharded = full.finalize().unwrap();
        let merged = RowSink::finalize_merged(&shard_paths).unwrap();
        assert_eq!(
            unsharded, merged,
            "merge must reproduce the unsharded table"
        );
        let _ = std::fs::remove_file(&full_path);
        for p in &shard_paths {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn finalize_keeps_the_last_duplicate_row() {
        // append() forbids duplicates, so plant one behind the sink's
        // back — the way a concatenated or re-run file would carry it.
        let p = tmp("dup-last");
        let mut sink = RowSink::create(&p).unwrap();
        sink.append(&row_line(0, "a", 1.0)).unwrap();
        sink.append(&row_line(1, "b", 2.0)).unwrap();
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&p).unwrap();
            writeln!(f, "{}", row_line(0, "a", 99.0)).unwrap();
        }
        let table = sink.finalize().unwrap();
        assert_eq!(table.matches("\"key\":\"a\"").count(), 1, "deduplicated");
        assert!(table.contains("\"v\":99.0"), "last row wins");
        assert!(!table.contains("\"v\":1.0"), "first row dropped");
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn finalize_merged_rejects_overlapping_coverage() {
        let paths = [tmp("ovl-0"), tmp("ovl-1")];
        let mut a = RowSink::create(&paths[0]).unwrap();
        a.append(&row_line(0, "a", 1.0)).unwrap();
        let mut b = RowSink::create(&paths[1]).unwrap();
        b.append(&row_line(1, "a", 2.0)).unwrap();
        let err = RowSink::finalize_merged(&paths).unwrap_err();
        assert!(err.to_string().contains("pairwise disjoint"), "{err}");
        for p in &paths {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn finalize_merged_rejects_mixed_campaign_fingerprints() {
        let paths = [tmp("fp-0"), tmp("fp-1")];
        let mut a = RowSink::create(&paths[0]).unwrap();
        a.append(&shard_row_line(0, "a", 1.0, "0/2:0000000000000000"))
            .unwrap();
        let mut b = RowSink::create(&paths[1]).unwrap();
        // Different "run" fingerprint: hand-written line.
        b.append("{\"cell\":1,\"key\":\"b\",\"run\":\"00000000cafecafe\",\"v\":2.0}")
            .unwrap();
        let err = RowSink::finalize_merged(&paths).unwrap_err();
        assert!(err.to_string().contains("different campaigns"), "{err}");
        // A fingerprinted file must not mix with a fingerprint-less one
        // either.
        let mut c = RowSink::create(&paths[1]).unwrap();
        c.append(&row_line(1, "b", 2.0)).unwrap();
        let err = RowSink::finalize_merged(&paths).unwrap_err();
        assert!(err.to_string().contains("different campaigns"), "{err}");
        for p in &paths {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn reports_array_is_wrapped_and_comma_separated() {
        let a = FigureReport::new("a", "t", "p", &["x"]);
        let b = FigureReport::new("b", "t", "p", &["x"]);
        let j = reports_to_json(&[a, b]);
        assert!(j.trim_start().starts_with('['));
        assert!(j.trim_end().ends_with(']'));
        assert!(j.contains("\"id\":\"a\""));
        assert!(j.contains("\"id\":\"b\""));
        assert_eq!(j.matches("},\n").count(), 1);
    }
}
