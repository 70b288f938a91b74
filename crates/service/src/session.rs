//! Per-session state and the session manager that schedules sessions
//! through the work-stealing executor.
//!
//! A session is one probe campaign: `reps` independent runs of one
//! tool against one link. The manager owns a small pool of **driver
//! threads**; each driver takes one queued session at a time and
//! submits one [`executor::submit`] task per replication, so idle pool
//! workers steal single replications of *any* live session (and any
//! concurrent batch work), even of a session only one [`CHUNK`] long.
//! The estimates fold in replication order on the engine-wide
//! [`CHUNK`] grid, each chunk accumulator merging into the session's
//! shared state — which is what [`poll`] reads mid-flight — so the
//! merge tree, and with it the final accumulator, is bit-identical to
//! the one-shot [`run_reduce`] reference ([`one_shot`]).
//!
//! [`poll`]: SessionManager::poll

use crate::wire::{json_f64, json_str, SubmitRequest, WireError};
use csmaprobe_bench::grid::{parse_links, parse_tools, parse_trains};
use csmaprobe_bench::grid::{GridTarget, LinkPoint, TrainPoint, TRAIN_TOOL_RATE_BPS};
use csmaprobe_bench::scenarios::FRAME;
use csmaprobe_desim::executor;
use csmaprobe_desim::replicate::{run_reduce, CHUNK};
use csmaprobe_desim::rng::derive_seed;
use csmaprobe_probe::tool::{ToolKind, ToolProbe};
use csmaprobe_stats::{Accumulate, OnlineStats, P2Quantile};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// A fully resolved session specification — the pure input its final
/// estimate is a function of.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Client-chosen id (the session table's row key).
    pub id: String,
    /// Client-chosen table cell index (the table's sort key).
    pub cell: u64,
    /// Link-axis point.
    pub link: LinkPoint,
    /// Train-shape axis point.
    pub train: TrainPoint,
    /// Tool family.
    pub tool: ToolKind,
    /// Independent tool runs.
    pub reps: usize,
    /// Master seed; replication `i` runs under `derive_seed(seed, i)`.
    pub seed: u64,
}

impl SessionSpec {
    /// Bind a wire submit's axis names to catalog (or inline-spec)
    /// points. The spec owns its inline points, so a refused or
    /// finished session leaves nothing behind.
    pub fn resolve(req: &SubmitRequest) -> Result<SessionSpec, WireError> {
        let mut links = parse_links(&req.link).map_err(|e| WireError::BadField {
            field: "link",
            detail: e,
        })?;
        let mut trains = parse_trains(&req.train).map_err(|e| WireError::BadField {
            field: "train",
            detail: e,
        })?;
        let tools = parse_tools(&req.tool).map_err(|e| WireError::BadField {
            field: "tool",
            detail: e,
        })?;
        let one = |field: &'static str, n: usize| {
            if n == 1 {
                Ok(())
            } else {
                Err(WireError::BadField {
                    field,
                    detail: format!("expected exactly one axis point, got {n}"),
                })
            }
        };
        one("link", links.len())?;
        one("train", trains.len())?;
        one("tool", tools.len())?;
        Ok(SessionSpec {
            id: req.id.clone(),
            cell: req.cell,
            link: links.remove(0),
            train: trains.remove(0),
            tool: tools[0],
            reps: req.reps,
            seed: req.seed,
        })
    }

    /// The tool bound to this spec's train shape — same constants as
    /// the grid runner's cells, so a session is comparable to a grid
    /// row.
    pub fn tool_probe(&self) -> ToolProbe {
        ToolProbe::new(self.tool, self.train.n, FRAME, TRAIN_TOOL_RATE_BPS)
    }
}

/// The streaming per-session accumulator: across-replication estimate
/// statistics (exact), P² quantiles of the estimate distribution
/// (approximate but deterministically mergeable), and the failed-run
/// count. Merging a fresh accumulator is the bitwise identity, so the
/// ascending chunk-merge chain reproduces [`run_reduce`]'s result
/// exactly.
#[derive(Debug, Clone)]
pub struct SessionAcc {
    /// Finite estimates, bits/s.
    pub est: OnlineStats,
    /// Median estimate (P²).
    pub p50: P2Quantile,
    /// 95th-percentile estimate (P²).
    pub p95: P2Quantile,
    /// Tool runs that produced no estimate.
    pub failed: usize,
}

impl Default for SessionAcc {
    fn default() -> Self {
        SessionAcc {
            est: OnlineStats::new(),
            p50: P2Quantile::new(0.5),
            p95: P2Quantile::new(0.95),
            failed: 0,
        }
    }
}

impl SessionAcc {
    /// Fold one tool-run estimate.
    pub fn observe(&mut self, est_bps: f64) {
        if est_bps.is_finite() {
            self.est.push(est_bps);
            self.p50.push(est_bps);
            self.p95.push(est_bps);
        } else {
            self.failed += 1;
        }
    }
}

impl Accumulate for SessionAcc {
    fn merge(&mut self, other: Self) {
        self.est.merge(&other.est);
        self.p50.merge(other.p50);
        self.p95.merge(other.p95);
        self.failed += other.failed;
    }
}

/// The one-shot batch reference: the session's final accumulator,
/// computed through [`run_reduce`] exactly as a non-resident caller
/// would. The resident path must (and does) reproduce this bitwise.
pub fn one_shot(spec: &SessionSpec) -> SessionAcc {
    let target = spec.link.build();
    let probe = spec.tool_probe();
    run_reduce(
        spec.reps,
        spec.seed,
        |_i, seed, acc: &mut SessionAcc| acc.observe(probe.estimate_once(&target, seed)),
        SessionAcc::default,
        Accumulate::merge,
    )
}

/// Serialize a finished session as one [`csmaprobe_bench::report::RowSink`]
/// row line (`"cell"` and `"key"` first, as the sink requires). Pure
/// function of `(spec, acc)` — the resident server and the one-shot
/// batch path share it, which is what makes their finalized tables
/// byte-comparable.
pub fn row_json(spec: &SessionSpec, acc: &SessionAcc) -> String {
    format!(
        "{{\"cell\":{},\"key\":{},\"link\":{},\"train\":{},\"tool\":{},\"n\":{},\"reps\":{},\
         \"seed\":\"{:016x}\",\"failed\":{},\"mean_bps\":{},\"sd_bps\":{},\"ci95_bps\":{},\
         \"p50_bps\":{},\"p95_bps\":{}}}",
        spec.cell,
        json_str(&spec.id),
        json_str(&spec.link.name),
        json_str(&spec.train.name),
        json_str(spec.tool.name()),
        spec.train.n,
        spec.reps,
        spec.seed,
        acc.failed,
        json_f64(acc.est.mean()),
        json_f64(acc.est.std_dev()),
        json_f64(acc.est.ci_half_width(0.95)),
        json_f64(acc.p50.value()),
        json_f64(acc.p95.value()),
    )
}

/// Where a session is in its life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Accepted, waiting for a driver.
    Queued,
    /// A driver is replicating it.
    Running,
    /// All replications folded; the estimate is final.
    Done,
    /// Cancelled before completion; partial state retained, no row
    /// persisted.
    Cancelled,
}

impl Phase {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Cancelled => "cancelled",
        }
    }

    /// Finished (terminal)?
    pub fn terminal(self) -> bool {
        matches!(self, Phase::Done | Phase::Cancelled)
    }
}

/// Mutable session progress, read by `poll` mid-flight.
#[derive(Debug)]
struct Progress {
    phase: Phase,
    reps_done: usize,
    acc: SessionAcc,
    /// Of the `reps_done` folded replications, those that ran on a
    /// thread other than the session's driver (scheduling-dependent:
    /// `/metrics` only, never a row).
    stolen: usize,
    submitted: Instant,
    finished: Option<Instant>,
}

/// One accepted session.
pub struct Session {
    spec: SessionSpec,
    target: GridTarget,
    cancel: AtomicBool,
    progress: Mutex<Progress>,
}

impl Session {
    /// The resolved spec.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// Folded replications that a thread other than the session's
    /// driver ran — how much of the session the pool stole.
    pub(crate) fn reps_stolen(&self) -> usize {
        self.progress
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .stolen
    }

    /// A consistent snapshot for `poll` responses and tests.
    pub fn snapshot(&self) -> SessionSnapshot {
        let p = self.progress.lock().unwrap_or_else(|e| e.into_inner());
        SessionSnapshot {
            id: self.spec.id.clone(),
            phase: p.phase,
            reps: self.spec.reps,
            reps_done: p.reps_done,
            acc: p.acc.clone(),
            elapsed_s: p
                .finished
                .map(|t| t.duration_since(p.submitted))
                .unwrap_or_else(|| p.submitted.elapsed())
                .as_secs_f64(),
        }
    }
}

/// What `poll` sees: phase, progress and the (possibly partial)
/// estimate statistics.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    /// Session id.
    pub id: String,
    /// Life-cycle phase.
    pub phase: Phase,
    /// Replication budget.
    pub reps: usize,
    /// Replications folded so far (chunk-granular).
    pub reps_done: usize,
    /// The accumulator as of the last merged chunk.
    pub acc: SessionAcc,
    /// Seconds since submission (to completion once terminal).
    pub elapsed_s: f64,
}

impl SessionSnapshot {
    /// The `{"ok":true,…}` poll response line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"ok\":true,\"op\":\"poll\",\"id\":{},\"state\":{},\"reps\":{},\"reps_done\":{},\
             \"failed\":{},\"mean_bps\":{},\"sd_bps\":{},\"ci95_bps\":{},\"p50_bps\":{},\
             \"p95_bps\":{},\"elapsed_s\":{}}}",
            json_str(&self.id),
            json_str(self.phase.name()),
            self.reps,
            self.reps_done,
            self.acc.failed,
            json_f64(self.acc.est.mean()),
            json_f64(self.acc.est.std_dev()),
            json_f64(self.acc.est.ci_half_width(0.95)),
            json_f64(self.acc.p50.value()),
            json_f64(self.acc.p95.value()),
            json_f64(self.elapsed_s),
        )
    }
}

/// Counts the manager exposes (and the server's drain self-check
/// audits).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerCounts {
    /// Sessions accepted (submit acked).
    pub accepted: usize,
    /// Sessions completed with a final estimate.
    pub done: usize,
    /// Sessions cancelled before completion.
    pub cancelled: usize,
    /// Accepted sessions not yet terminal.
    pub in_flight: usize,
}

struct Table {
    by_id: BTreeMap<String, Arc<Session>>,
    cells: BTreeSet<u64>,
    queue: VecDeque<Arc<Session>>,
    counts: ManagerCounts,
    accepting: bool,
    shutdown: bool,
}

/// Completion hook: called once per session that reaches
/// [`Phase::Done`], from the driver thread, after the final chunk
/// merged — the server's persistence callback.
pub type OnDone = Box<dyn Fn(&Session) + Send + Sync>;

struct Inner {
    table: Mutex<Table>,
    /// Work available (or shutdown) — drivers wait here.
    work: Condvar,
    /// A session reached a terminal phase — drain waits here.
    settled: Condvar,
    /// The [`OnDone`] persistence hook, if any.
    on_done: Option<OnDone>,
}

/// The session manager: accepts sessions, drives them through the
/// executor on a bounded driver pool, and tracks life-cycle counts.
pub struct SessionManager {
    inner: Arc<Inner>,
    drivers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl SessionManager {
    /// A manager with `drivers` driver threads (floored at 1) and an
    /// optional completion hook (the server's persistence callback).
    pub fn new(drivers: usize, on_done: Option<OnDone>) -> Self {
        let inner = Arc::new(Inner {
            table: Mutex::new(Table {
                by_id: BTreeMap::new(),
                cells: BTreeSet::new(),
                queue: VecDeque::new(),
                counts: ManagerCounts::default(),
                accepting: true,
                shutdown: false,
            }),
            work: Condvar::new(),
            settled: Condvar::new(),
            on_done,
        });
        let handles = (0..drivers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || driver_loop(&inner))
            })
            .collect();
        SessionManager {
            inner,
            drivers: Mutex::new(handles),
        }
    }

    /// Accept a session, or refuse it with a typed error (duplicate
    /// id/cell, draining).
    pub fn submit(&self, spec: SessionSpec) -> Result<(), WireError> {
        let session = Arc::new(Session {
            target: spec.link.build(),
            cancel: AtomicBool::new(false),
            progress: Mutex::new(Progress {
                phase: Phase::Queued,
                reps_done: 0,
                acc: SessionAcc::default(),
                stolen: 0,
                submitted: Instant::now(),
                finished: None,
            }),
            spec,
        });
        let mut t = self.lock_table();
        if !t.accepting {
            return Err(WireError::Draining);
        }
        if t.by_id.contains_key(&session.spec.id) {
            return Err(WireError::DuplicateId {
                id: session.spec.id.clone(),
            });
        }
        if !t.cells.insert(session.spec.cell) {
            return Err(WireError::DuplicateCell {
                cell: session.spec.cell,
            });
        }
        t.by_id
            .insert(session.spec.id.clone(), Arc::clone(&session));
        t.queue.push_back(session);
        t.counts.accepted += 1;
        t.counts.in_flight += 1;
        drop(t);
        self.inner.work.notify_one();
        Ok(())
    }

    /// Mark `cells` as taken, so a submit for any of them is refused
    /// with `duplicate_cell` — how a restarted server keeps the cells
    /// of the rows it resumed.
    pub fn hold_cells(&self, cells: impl IntoIterator<Item = u64>) {
        self.lock_table().cells.extend(cells);
    }

    /// Snapshot a session's progress.
    pub fn poll(&self, id: &str) -> Result<SessionSnapshot, WireError> {
        let t = self.lock_table();
        match t.by_id.get(id) {
            Some(s) => Ok(s.snapshot()),
            None => Err(WireError::UnknownId { id: id.to_string() }),
        }
    }

    /// Request cancellation of a not-yet-complete session. The
    /// session settles as [`Phase::Cancelled`] once its driver
    /// observes the flag (a queued session settles without running).
    pub fn cancel(&self, id: &str) -> Result<(), WireError> {
        let t = self.lock_table();
        let Some(s) = t.by_id.get(id) else {
            return Err(WireError::UnknownId { id: id.to_string() });
        };
        let p = s.progress.lock().unwrap_or_else(|e| e.into_inner());
        if p.phase.terminal() {
            return Err(WireError::AlreadyComplete { id: id.to_string() });
        }
        s.cancel.store(true, Ordering::SeqCst);
        Ok(())
    }

    /// Block until every accepted session is terminal.
    pub fn drain(&self) {
        let mut t = self.lock_table();
        while t.counts.in_flight > 0 {
            t = self
                .inner
                .settled
                .wait(t)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Refuse new sessions from now on (`submit` → `draining`).
    pub fn close_submissions(&self) {
        self.lock_table().accepting = false;
    }

    /// Current life-cycle counts.
    pub fn counts(&self) -> ManagerCounts {
        self.lock_table().counts
    }

    /// Every accepted session, in id order (the server's shutdown
    /// audit walks this).
    pub fn sessions(&self) -> Vec<Arc<Session>> {
        self.lock_table().by_id.values().cloned().collect()
    }

    /// Close submissions, drain, and join the driver pool. The
    /// manager is unusable afterwards; counts remain readable.
    pub fn shutdown(&self) {
        self.close_submissions();
        self.drain();
        {
            let mut t = self.lock_table();
            t.shutdown = true;
        }
        self.inner.work.notify_all();
        let handles: Vec<_> = {
            let mut d = self.drivers.lock().unwrap_or_else(|e| e.into_inner());
            d.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }

    fn lock_table(&self) -> std::sync::MutexGuard<'_, Table> {
        self.inner.table.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        // Don't leave driver threads blocked forever if the owner
        // forgot to shut down; sessions still queued are abandoned.
        {
            let mut t = self.lock_table();
            t.accepting = false;
            t.shutdown = true;
        }
        self.inner.work.notify_all();
        let handles: Vec<_> = {
            let mut d = self.drivers.lock().unwrap_or_else(|e| e.into_inner());
            d.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Driver thread: take one queued session at a time and run it to a
/// terminal phase.
fn driver_loop(inner: &Inner) {
    loop {
        let session = {
            let mut t = inner.table.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(s) = t.queue.pop_front() {
                    break s;
                }
                if t.shutdown {
                    return;
                }
                t = inner.work.wait(t).unwrap_or_else(|e| e.into_inner());
            }
        };
        let done = drive(&session);
        if done {
            if let Some(hook) = &inner.on_done {
                hook(&session);
            }
        }
        {
            let mut t = inner.table.lock().unwrap_or_else(|e| e.into_inner());
            t.counts.in_flight -= 1;
            if done {
                t.counts.done += 1;
            } else {
                t.counts.cancelled += 1;
            }
        }
        inner.settled.notify_all();
    }
}

/// Replicate one session through the executor, one task per
/// replication. Returns whether the session completed (vs. was
/// cancelled).
///
/// Replications are what pool workers steal. The fold is the
/// `consume` of [`executor::submit`], which sees the estimates in
/// ascending replication order: it observes them into a chunk
/// accumulator and merges that into the session's state at every
/// [`CHUNK`] boundary and at the last replication — the merge tree
/// [`run_reduce`] builds, starting from an identity accumulator whose
/// merge is bitwise-absorbing, so the result is bit-identical to
/// [`one_shot`]. A cancel skips every replication not yet started, and
/// the fold stops at the first skipped one: a cancelled session keeps
/// a gap-free prefix of whole chunks.
fn drive(session: &Session) -> bool {
    {
        let mut p = session.progress.lock().unwrap_or_else(|e| e.into_inner());
        if session.cancel.load(Ordering::SeqCst) {
            p.phase = Phase::Cancelled;
            p.finished = Some(Instant::now());
            return false;
        }
        p.phase = Phase::Running;
    }
    let spec = &session.spec;
    let probe = spec.tool_probe();
    let reps = spec.reps;
    let driver = std::thread::current().id();
    let mut chunk = SessionAcc::default();
    let (mut seen, mut stolen, mut cut) = (0, 0, false);
    executor::submit(
        reps,
        usize::MAX,
        |i| {
            if session.cancel.load(Ordering::SeqCst) {
                return None;
            }
            let est = probe.estimate_once(&session.target, derive_seed(spec.seed, i as u64));
            Some((est, std::thread::current().id() != driver))
        },
        |out| {
            let Some((est, away)) = out.filter(|_| !cut) else {
                cut = true;
                return;
            };
            chunk.observe(est);
            seen += 1;
            stolen += usize::from(away);
            if seen % CHUNK == 0 || seen == reps {
                let mut p = session.progress.lock().unwrap_or_else(|e| e.into_inner());
                p.acc.merge(std::mem::take(&mut chunk));
                p.reps_done = seen;
                p.stolen = stolen;
            }
        },
    );
    let mut p = session.progress.lock().unwrap_or_else(|e| e.into_inner());
    p.finished = Some(Instant::now());
    // A cancel raced with the last replications: the session is
    // complete iff every replication actually folded.
    p.phase = if p.reps_done == reps {
        Phase::Done
    } else {
        Phase::Cancelled
    };
    p.phase == Phase::Done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::SubmitRequest;

    fn spec(i: u64, reps: usize) -> SessionSpec {
        SessionSpec::resolve(&SubmitRequest {
            id: format!("s{i}"),
            cell: i,
            link: "wired".to_string(),
            train: "short".to_string(),
            tool: "train".to_string(),
            reps,
            seed: 1000 + i,
        })
        .unwrap()
    }

    #[test]
    fn resolve_rejects_bad_axes() {
        let mut req = SubmitRequest {
            id: "x".to_string(),
            cell: 0,
            link: "wired".to_string(),
            train: "short".to_string(),
            tool: "train".to_string(),
            reps: 1,
            seed: 0,
        };
        req.link = "no_such_link".to_string();
        assert_eq!(SessionSpec::resolve(&req).unwrap_err().code(), "bad_field");
        req.link = "wired,wlan_mid".to_string(); // two points: not a session
        assert_eq!(SessionSpec::resolve(&req).unwrap_err().code(), "bad_field");
        req.link = "wired".to_string();
        req.tool = "pathload".to_string();
        assert_eq!(SessionSpec::resolve(&req).unwrap_err().code(), "bad_field");
        // Axis values that would wedge a session, wrap its clock or
        // abort the daemon.
        req.tool = "train".to_string();
        for link in ["wlan:cross=1e300", "wired:capacity=1e-9,cross=0"] {
            req.link = link.to_string();
            assert_eq!(SessionSpec::resolve(&req).unwrap_err().code(), "bad_field");
        }
        req.link = "wired".to_string();
        req.train = "n=10000000000".to_string();
        assert_eq!(SessionSpec::resolve(&req).unwrap_err().code(), "bad_field");
    }

    #[test]
    fn inline_link_specs_resolve() {
        let req = SubmitRequest {
            id: "x".to_string(),
            cell: 0,
            link: "wired:capacity=8e6,cross=2e6".to_string(),
            train: "n=7".to_string(),
            tool: "train".to_string(),
            reps: 2,
            seed: 3,
        };
        let spec = SessionSpec::resolve(&req).unwrap();
        assert_eq!(spec.train.n, 7);
        assert!(!spec.link.is_wlan());
    }

    #[test]
    fn manager_runs_sessions_bit_identical_to_one_shot() {
        let mgr = SessionManager::new(2, None);
        let specs: Vec<SessionSpec> = (0..6).map(|i| spec(i, 40)).collect();
        for s in &specs {
            mgr.submit(s.clone()).unwrap();
        }
        mgr.drain();
        for s in &specs {
            let snap = mgr.poll(&s.id).unwrap();
            assert_eq!(snap.phase, Phase::Done);
            assert_eq!(snap.reps_done, s.reps);
            let reference = one_shot(s);
            assert_eq!(snap.acc.est.count(), reference.est.count());
            assert_eq!(
                snap.acc.est.mean().to_bits(),
                reference.est.mean().to_bits()
            );
            assert_eq!(
                snap.acc.p50.value().to_bits(),
                reference.p50.value().to_bits()
            );
            assert_eq!(
                snap.acc.p95.value().to_bits(),
                reference.p95.value().to_bits()
            );
            assert_eq!(snap.acc.failed, reference.failed);
        }
        let counts = mgr.counts();
        assert_eq!(counts.accepted, 6);
        assert_eq!(counts.done, 6);
        assert_eq!(counts.in_flight, 0);
        mgr.shutdown();
    }

    #[test]
    fn duplicate_ids_and_cells_are_refused() {
        let mgr = SessionManager::new(1, None);
        mgr.submit(spec(1, 1)).unwrap();
        assert_eq!(mgr.submit(spec(1, 1)).unwrap_err().code(), "duplicate_id");
        let mut other = spec(2, 1);
        other.cell = 1; // same cell, different id
        assert_eq!(mgr.submit(other).unwrap_err().code(), "duplicate_cell");
        mgr.shutdown();
    }

    #[test]
    fn cancel_semantics() {
        let mgr = SessionManager::new(1, None);
        assert_eq!(mgr.cancel("nope").unwrap_err().code(), "unknown_id");
        mgr.submit(spec(7, 24)).unwrap();
        // Cancel may land before or after completion depending on
        // timing; both outcomes are typed.
        match mgr.cancel("s7") {
            Ok(()) => {}
            Err(e) => assert_eq!(e.code(), "already_complete"),
        }
        mgr.drain();
        let snap = mgr.poll("s7").unwrap();
        assert!(snap.phase.terminal());
        // Cancel after terminal is always already_complete.
        assert_eq!(mgr.cancel("s7").unwrap_err().code(), "already_complete");
        let c = mgr.counts();
        assert_eq!(c.done + c.cancelled, 1);
        mgr.shutdown();
    }

    #[test]
    fn draining_refuses_new_sessions() {
        let mgr = SessionManager::new(1, None);
        mgr.close_submissions();
        assert_eq!(mgr.submit(spec(9, 1)).unwrap_err().code(), "draining");
        mgr.shutdown();
    }

    #[test]
    fn on_done_hook_fires_once_per_completed_session() {
        use std::sync::atomic::AtomicUsize;
        let fired = Arc::new(AtomicUsize::new(0));
        let fired2 = Arc::clone(&fired);
        let mgr = SessionManager::new(
            2,
            Some(Box::new(move |_s| {
                fired2.fetch_add(1, Ordering::SeqCst);
            })),
        );
        for i in 0..4 {
            mgr.submit(spec(20 + i, 8)).unwrap();
        }
        mgr.shutdown();
        assert_eq!(fired.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn row_json_is_rowsink_compatible() {
        let s = spec(3, 8);
        let acc = one_shot(&s);
        let line = row_json(&s, &acc);
        assert_eq!(csmaprobe_bench::report::row_key(&line), Some("s3"));
        assert_eq!(csmaprobe_bench::report::row_cell(&line), Some(3));
        assert!(line.contains("\"mean_bps\":"));
    }
}
