//! In-memory span recorder and work counters for the traced replay.
//!
//! A span records its name, start, end, parent span and run id. Spans
//! are kept in memory and handed out by [`take`] when the run ends. A
//! span's *self time* is its duration minus the part of it that its
//! children cover ([`self_times`]): children may nest, overlap each
//! other or stick out of the parent, and each instant of the parent
//! counts once.
//!
//! Counters are plain named sums bumped at the same boundaries, so a
//! per-unit timing always divides by work counted where it happened.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the process.
    pub id: u64,
    /// The span this one was opened under, if any.
    pub parent: Option<u64>,
    /// Layer span name, e.g. `mac` or `stats.push`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Run id the span belongs to.
    pub run: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static RUN_ID: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static COUNTS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Tag every span recorded from now on with `run`.
pub fn set_run(run: u64) {
    RUN_ID.store(run, Ordering::Relaxed);
}

/// The innermost open span on this thread.
pub fn current() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Run `f` inside a span named `name`, child of this thread's innermost
/// open span.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current();
    STACK.with(|s| s.borrow_mut().push(id));
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    record(Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
        run: RUN_ID.load(Ordering::Relaxed),
    });
    out
}

fn record(span: Span) {
    SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
}

/// Add `n` to counter `name`.
pub fn count(name: &'static str, n: u64) {
    *COUNTS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .entry(name)
        .or_insert(0) += n;
}

/// Drain every recorded span and counter.
pub fn take() -> (Vec<Span>, BTreeMap<&'static str, u64>) {
    let spans = std::mem::take(&mut *SPANS.lock().unwrap_or_else(|e| e.into_inner()));
    let counts = std::mem::take(&mut *COUNTS.lock().unwrap_or_else(|e| e.into_inner()));
    (spans, counts)
}

/// Total length of the union of `intervals` clipped to `[lo, hi)`.
pub fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the union of its
/// children's intervals inside it.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map(|c| covered_ns(c, s.start_ns, s.end_ns))
                .unwrap_or(0);
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Per-name totals of a span set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub spans: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
}

/// Aggregate spans by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += selfs[&s.id];
    }
    out
}
